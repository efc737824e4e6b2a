//! The cycle follower's stimulus window: delivered cells queued per
//! ingress line, expanded to pin values only at the clock that samples
//! them.
//!
//! A delivered cell becomes 53 consecutive clocks of pin values on one
//! ingress line. [`StimulusWindow`] keeps it as a cell — its first clock
//! and its 53 wire octets — in its line's queue until then.
//! [`front`](StimulusWindow::front) is the input vector of clock `now`,
//! built from the line heads: a line with a cell under way drives its
//! octet (data, sync on the first octet, enable), every other line reads
//! zeros (idle). [`pop_front`](StimulusWindow::pop_front) moves to the
//! next clock, retiring a finished cell and driving the next one's first
//! octet on that same clock, so back-to-back cells leave no idle gap.
//!
//! A line carries one cell at a time, so the window owns each line's next
//! free clock and [`put_cell`](StimulusWindow::put_cell) starts a cell no
//! earlier than the end of the line's previous one: a line's cells never
//! overlap. A cell costs its 53 octets however far ahead it is stamped,
//! and the queues are reused once they reach a run's deepest backlog, so
//! filling and draining a warmed-up window allocates nothing. The window
//! also keeps the earliest first clock of any line's head: until then no
//! pin changes, so an idle clock costs one comparison and the idle-skip
//! distance is one subtraction.
//!
//! [`crate::CycleCosim`] keeps one window per lane. It places a delivered
//! cell with [`clock_at_or_after`] and [`StimulusWindow::put_cell`], and
//! takes the idle-skip jump with [`StimulusWindow::skip_idle`].
//! [`crate::BoardCosim`] keeps one window and places cells the same way,
//! but plays every clock: idle board clocks are modelled hardware time.
//!
//! Every row fits the DUT's input ports by construction: an octet goes
//! only into a line's data pin, which registration proves is at least 8
//! bits wide (`CAST151`), 0 or 1 into its strobes, which every port can
//! hold, and every other word stays 0. So the followers use rows
//! unchecked.

use crate::cyclecosim::IngressIndices;
use castanet_atm::cell::CELL_OCTETS;
use castanet_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The first clock, counted from 0, whose inputs are sampled at or after
/// `t` on a DUT clocked every `period`.
pub(crate) fn clock_at_or_after(t: SimTime, period: SimDuration) -> u64 {
    let (ps, period) = (t.as_picos(), period.as_picos());
    if ps <= period {
        return 0;
    }
    ps.div_ceil(period) - 1
}

/// `Line::first` of a line with no cell.
const NONE: u64 = u64::MAX;

/// One ingress line: its pins and the cells still to drive onto them.
#[derive(Debug)]
struct Line {
    pins: IngressIndices,
    /// First clock of `head`, or [`NONE`].
    first: u64,
    /// The octets of the cell on the pins, or of the next one to go on.
    head: [u8; CELL_OCTETS],
    /// `(first clock, octets)` of the cells behind `head`, in clock order.
    queue: VecDeque<(u64, [u8; CELL_OCTETS])>,
    /// First clock free for the next cell's first octet.
    next_free: u64,
}

impl Line {
    /// Moves the line's pins in `words` on to clock `now`. A line owns its
    /// pins (registration rejects shared ones, `CAST152`), so only the
    /// values that change are written: the data octet every clock of a
    /// cell, the strobes at its edges.
    fn drive(&mut self, words: &mut [u64], now: u64) {
        if now < self.first {
            return; // No cell under way: the pins read idle.
        }
        let k = now - self.first;
        if k < CELL_OCTETS as u64 {
            words[self.pins.data] = u64::from(self.head[k as usize]);
            if k <= 1 {
                words[self.pins.sync] = u64::from(k == 0);
                words[self.pins.enable] = 1;
            }
            return;
        }
        self.retire(words, now);
    }

    /// Retires the cell that ended on the clock before `now` and starts
    /// the next one if it follows back to back.
    #[cold]
    fn retire(&mut self, words: &mut [u64], now: u64) {
        self.next_head();
        let on = self.first == now;
        words[self.pins.data] = if on { u64::from(self.head[0]) } else { 0 };
        words[self.pins.sync] = u64::from(on);
        words[self.pins.enable] = u64::from(on);
    }

    /// Moves the first queued cell (or none) into `head`.
    fn next_head(&mut self) {
        (self.first, self.head) = self.queue.pop_front().unwrap_or((NONE, [0; CELL_OCTETS]));
    }
}

/// Delivered cells per ingress line, and the DUT input words of clock
/// `now` built from them.
#[derive(Debug)]
pub(crate) struct StimulusWindow {
    /// The clock [`front`](Self::front) belongs to, counted from 0.
    now: u64,
    /// The input words of clock `now`.
    front: Vec<u64>,
    lines: Vec<Line>,
    /// The earliest `first` of any line, or [`NONE`]: before it, no pin
    /// changes.
    wake: u64,
}

impl StimulusWindow {
    /// An empty window for a DUT with `stride` input ports, at clock 0.
    pub(crate) fn new(stride: usize) -> Self {
        StimulusWindow {
            now: 0,
            front: vec![0; stride],
            lines: Vec::new(),
            wake: NONE,
        }
    }

    /// Registers an ingress line on `pins`; returns its line number. The
    /// caller has checked the pins (`IngressIndices::check`).
    pub(crate) fn add_line(&mut self, pins: IngressIndices) -> usize {
        self.lines.push(Line {
            pins,
            first: NONE,
            head: [0; CELL_OCTETS],
            queue: VecDeque::new(),
            next_free: 0,
        });
        self.lines.len() - 1
    }

    /// The clock [`front`](Self::front) belongs to: clocks retired so far.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// The pins of every registered line, in line order.
    pub(crate) fn pins(&self) -> impl Iterator<Item = IngressIndices> + '_ {
        self.lines.iter().map(|l| l.pins)
    }

    /// Registered ingress lines.
    pub(crate) fn lines(&self) -> usize {
        self.lines.len()
    }

    /// Queues `wire` on line `line` (a registered line number), one octet
    /// per clock from the first clock at or after `earliest` at which the
    /// line is free and which is not yet past. Returns that clock.
    pub(crate) fn put_cell(&mut self, line: usize, earliest: u64, wire: &[u8; CELL_OCTETS]) -> u64 {
        let now = self.now;
        let l = &mut self.lines[line];
        let start = earliest.max(l.next_free).max(now);
        l.queue.push_back((start, *wire));
        l.next_free = start + CELL_OCTETS as u64;
        if l.first == NONE {
            l.next_head();
            self.wake = self.wake.min(start);
            if start == now {
                l.drive(&mut self.front, now);
            }
        }
        start
    }

    /// The input words of clock `now`: its stimulus, or all zeros.
    pub(crate) fn front(&self) -> &[u64] {
        &self.front
    }

    /// Retires clock `now` once it has been evaluated.
    pub(crate) fn pop_front(&mut self) {
        self.advance(1);
    }

    /// Moves `clocks` clocks on and drives the pins of the new `now`.
    fn advance(&mut self, clocks: u64) {
        self.now += clocks;
        if self.now < self.wake {
            return;
        }
        let mut wake = NONE;
        for line in &mut self.lines {
            line.drive(&mut self.front, self.now);
            wake = wake.min(line.first);
        }
        self.wake = wake;
    }

    /// The idle-skip jump: with the DUT quiescent, every clock before the
    /// earliest stimulus is a no-op. Retires those clocks — at most
    /// `remaining` — and returns how many that was.
    pub(crate) fn skip_idle(&mut self, remaining: u64) -> u64 {
        // With no stimulus `wake` is `NONE`, farther than any `remaining`.
        let jump = remaining.min(self.wake.saturating_sub(self.now));
        if jump > 0 {
            self.advance(jump);
        }
        jump
    }

    /// `true` when a cell is under way or starts at clock `now`; while it
    /// is not, [`skip_idle`](Self::skip_idle) jumps at least one clock.
    pub(crate) fn due(&self) -> bool {
        self.wake <= self.now
    }

    /// `true` while any line has a cell under way or waiting.
    pub(crate) fn has_stimulus(&self) -> bool {
        self.wake != NONE
    }

    /// `true` when a line has a cell under way or due before clock `end`.
    pub(crate) fn stimulus_before(&self, end: u64) -> bool {
        self.wake < end
    }

    /// Clocks from now up to the last stimulated one.
    pub(crate) fn len(&self) -> usize {
        self.lines
            .iter()
            .map(|l| l.next_free.saturating_sub(self.now) as usize)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CastanetError;
    use castanet_rtl::compiled::LaneBank;
    use castanet_rtl::cycle::{CycleDut, PortDecl};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Line `n` on pins `3n` (data), `3n + 1` (sync), `3n + 2` (enable).
    fn window(lines: usize) -> StimulusWindow {
        let mut w = StimulusWindow::new(3 * lines);
        for n in 0..lines {
            let line = w.add_line(IngressIndices {
                data: 3 * n,
                sync: 3 * n + 1,
                enable: 3 * n + 2,
            });
            assert_eq!(line, n);
        }
        w
    }

    /// A cell whose octet `k` is `tag + k`.
    fn wire(tag: u8) -> [u8; CELL_OCTETS] {
        std::array::from_fn(|k| tag.wrapping_add(k as u8))
    }

    /// The `[data, sync, enable]` pins of line `n` at the front.
    fn pins(w: &StimulusWindow, n: usize) -> [u64; 3] {
        w.front()[3 * n..3 * n + 3].try_into().unwrap()
    }

    /// `[data, sync, enable]` of octet `k` of `wire(tag)`.
    fn octet(tag: u8, k: usize) -> [u64; 3] {
        [u64::from(wire(tag)[k]), u64::from(k == 0), 1]
    }

    const IDLE: [u64; 3] = [0, 0, 0];

    #[test]
    fn back_to_back_cells_leave_no_idle_clock() {
        let mut w = window(1);
        assert_eq!(w.put_cell(0, 5, &wire(10)), 5);
        // Stamped at the same clock, the second cell starts where the
        // first one ends.
        assert_eq!(w.put_cell(0, 5, &wire(100)), 58);
        assert_eq!(w.skip_idle(1000), 5);
        for k in 0..CELL_OCTETS {
            assert_eq!(pins(&w, 0), octet(10, k), "first cell, octet {k}");
            w.pop_front();
        }
        assert_eq!(pins(&w, 0), octet(100, 0), "no idle clock between");
        assert_eq!(w.now, 58);
    }

    #[test]
    fn a_cell_placed_at_offset_zero_shows_at_once() {
        let mut w = window(2);
        w.put_cell(0, 100, &wire(1));
        w.pop_front();
        w.pop_front();
        assert_eq!(w.put_cell(1, 0, &wire(7)), 2, "a past clock means now");
        assert_eq!(pins(&w, 1), octet(7, 0));
        assert_eq!(pins(&w, 0), IDLE);
        assert_eq!((w.len(), w.due()), (153 - 2, true));
        w.pop_front();
        assert_eq!((pins(&w, 0), pins(&w, 1)), (IDLE, octet(7, 1)));
    }

    #[test]
    fn an_idle_skip_lands_exactly_on_a_first_octet() {
        let mut w = window(2);
        w.put_cell(0, 40, &wire(3));
        assert_eq!(w.wake - w.now, 40);
        // A cell queued later on the other line but due earlier.
        w.put_cell(1, 25, &wire(9));
        assert_eq!(w.wake - w.now, 25);
        assert_eq!(w.skip_idle(10), 10);
        assert_eq!(w.front(), [0; 6]);
        assert_eq!(w.skip_idle(100), 15);
        assert_eq!((w.now, pins(&w, 0), pins(&w, 1)), (25, IDLE, octet(9, 0)));
        // A cell under way stops every further skip.
        assert_eq!(w.skip_idle(100), 0);
        for _ in 25..40 {
            w.pop_front();
        }
        assert_eq!(w.skip_idle(100), 0);
        assert_eq!((pins(&w, 0), pins(&w, 1)), (octet(3, 0), octet(9, 15)));
    }

    #[test]
    fn two_lines_with_overlapping_cells_drive_their_own_pins() {
        let mut w = window(2);
        w.put_cell(0, 0, &wire(1));
        for clock in 0..140 {
            match clock {
                // Queued while line 0 is busy and line 1 idle.
                10 => assert_eq!(w.put_cell(1, 20, &wire(50)), 20),
                // Queued while both are busy: line 1 chains it.
                30 => assert_eq!(w.put_cell(1, 0, &wire(90)), 73),
                _ => {}
            }
            let on = |first: usize| (first..first + CELL_OCTETS).contains(&clock);
            let line0 = if on(0) { octet(1, clock) } else { IDLE };
            let line1 = match clock {
                c if on(20) => octet(50, c - 20),
                c if on(73) => octet(90, c - 73),
                _ => IDLE,
            };
            assert_eq!((pins(&w, 0), pins(&w, 1)), (line0, line1), "clock {clock}");
            w.pop_front();
        }
        assert!(!w.has_stimulus());
    }

    #[test]
    fn next_free_clock_chains_after_a_drained_queue() {
        let mut w = window(1);
        assert_eq!(w.put_cell(0, 0, &wire(1)), 0);
        for _ in 0..60 {
            w.pop_front();
        }
        assert!(!w.has_stimulus());
        assert_eq!(w.len(), 0);
        // The line has been free since clock 53: a cell stamped earlier
        // starts now, one stamped later at its own clock.
        assert_eq!(w.put_cell(0, 10, &wire(2)), 60);
        assert_eq!(w.put_cell(0, 200, &wire(3)), 200);
        assert_eq!(w.put_cell(0, 150, &wire(4)), 253);
        assert_eq!(w.len(), 253 + CELL_OCTETS - 60);
    }

    #[test]
    fn idle_lines_read_zero_after_their_last_octet() {
        let mut w = window(2);
        w.put_cell(0, 0, &wire(0xF0));
        w.put_cell(1, 0, &wire(0x0F));
        for _ in 0..CELL_OCTETS - 1 {
            w.pop_front();
        }
        assert_eq!(pins(&w, 0), octet(0xF0, CELL_OCTETS - 1));
        w.pop_front();
        assert_eq!(w.front(), [0; 6]);
        assert!(!w.has_stimulus());
        // Popping an empty window keeps yielding idle clocks.
        for _ in 0..200 {
            w.pop_front();
            assert_eq!(w.front(), [0; 6]);
        }
        assert_eq!(w.skip_idle(5000), 5000);
    }

    #[test]
    fn skip_idle_stops_at_the_earliest_stimulus_of_any_line() {
        let mut w = window(3);
        w.put_cell(1, 40, &wire(1));
        w.put_cell(2, 25, &wire(2));
        assert_eq!(w.skip_idle(10), 10);
        assert_eq!(w.skip_idle(100), 15);
        assert_eq!(pins(&w, 2), octet(2, 0));
        assert_eq!((pins(&w, 0), pins(&w, 1)), (IDLE, IDLE));
        assert!(w.due());
        assert_eq!(w.skip_idle(100), 0);
        assert_eq!(w.now, 25);
    }

    /// A DUT that only declares input ports: rows are checked against
    /// them, it is never clocked.
    struct Declared(Vec<PortDecl>);

    impl CycleDut for Declared {
        fn input_ports(&self) -> Vec<PortDecl> {
            self.0.clone()
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            Vec::new()
        }
        fn reset(&mut self) {}
        fn clock_edge(&mut self, _inputs: &[u64], _outputs: &mut [u64]) {}
    }

    /// The invariant that lets the follower clock rows unchecked: on any
    /// line layout that registration accepts, every row the window
    /// builds fits the ports, whatever cells, stamps and moves it sees.
    #[test]
    fn every_row_on_registered_lines_fits_the_ports() {
        for case in 0..64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let lines = rng.random_range(1..=4usize);
            let stride = 3 * lines + rng.random_range(0..=4usize);
            let mut ports: Vec<_> = (0..stride)
                .map(|k| PortDecl::new(format!("p{k}"), rng.random_range(1..=64usize)))
                .collect();
            // Pins dealt from a shuffled port list, so no two lines share
            // one (`CAST152`); the rest are free ports.
            let mut order: Vec<usize> = (0..stride).collect();
            for k in (1..stride).rev() {
                order.swap(k, rng.random_range(0..=k));
            }
            let layout: Vec<_> = order[..3 * lines]
                .chunks_exact(3)
                .map(|pins| IngressIndices {
                    data: pins[0],
                    sync: pins[1],
                    enable: pins[2],
                })
                .collect();
            for line in &layout {
                let name = ports[line.data].name.clone();
                ports[line.data] = PortDecl::new(name, rng.random_range(8..=64usize));
            }
            let mut w = StimulusWindow::new(stride);
            for line in &layout {
                // Registration refuses the line with its data pin narrowed.
                let mut narrow = ports.clone();
                narrow[line.data] = PortDecl::new("narrow", rng.random_range(1..=7usize));
                assert!(matches!(
                    line.check(&narrow, w.pins()),
                    Err(CastanetError::Preflight(f)) if f[0].starts_with("CAST151")
                ));
                line.check(&ports, w.pins()).unwrap();
                w.add_line(*line);
            }
            let bank = LaneBank::new(vec![Box::new(Declared(ports))]);
            for _ in 0..400 {
                match rng.random_range(0..4u64) {
                    0 => {
                        let wire = std::array::from_fn(|_| rng.random::<u64>() as u8);
                        let earliest = rng.random_range(0..=w.now() + 200);
                        w.put_cell(rng.random_range(0..lines), earliest, &wire);
                    }
                    1 => {
                        w.skip_idle(rng.random_range(0..100u64));
                    }
                    _ => w.pop_front(),
                }
                assert_eq!(w.front().len(), stride);
                assert_eq!(bank.check_row(w.front()), Ok(()), "case {case}");
            }
        }
    }
}
