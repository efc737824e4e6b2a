//! The cycle followers' stimulus window: the DUT input words of every
//! clock still to come, in one flat ring.
//!
//! A delivered cell becomes 53 consecutive clocks of pin values on one
//! ingress line. [`StimulusWindow`] holds those values for the clocks
//! `now..now + len()`, one stride of input-port words per clock, plus a
//! per-clock "has stimulus" mark. Every unmarked slot holds zeros (idle
//! lines), so [`front`](StimulusWindow::front) is the next clock's input
//! vector as it stands, stimulated or not. The ring doubles when a cell
//! lands past its end and never shrinks: once it has reached the deepest
//! look-ahead a run needs, filling and draining it allocates nothing.
//!
//! [`crate::CycleCosim`] keeps one window and [`crate::CompiledCosim`] one
//! per lane. Both place a delivered cell with [`clock_at_or_after`] and
//! [`StimulusWindow::put_cell`], and both take the idle-skip jump with
//! [`skip_idle`].

use crate::cyclecosim::IngressIndices;
use castanet_atm::cell::CELL_OCTETS;
use castanet_netsim::time::{SimDuration, SimTime};

/// The first clock, counted from 0, whose inputs are sampled at or after
/// `t` on a DUT clocked every `period`.
pub(crate) fn clock_at_or_after(t: SimTime, period: SimDuration) -> u64 {
    let (ps, period) = (t.as_picos(), period.as_picos());
    if ps <= period {
        return 0;
    }
    ps.div_ceil(period) - 1
}

/// Per-clock DUT input words for the clocks from `now` on.
#[derive(Debug)]
pub(crate) struct StimulusWindow {
    /// Input ports per clock.
    stride: usize,
    /// `capacity × stride` words; ring slot `s` is
    /// `words[s * stride..(s + 1) * stride]`.
    words: Vec<u64>,
    /// Per ring slot: does that clock carry stimulus?
    marked: Vec<bool>,
    /// Ring slot of clock `now`.
    head: usize,
    /// Clocks from `now` up to the last one ever stimulated.
    len: usize,
    /// Marked slots in the window.
    pending: usize,
}

impl StimulusWindow {
    /// Smallest ring (clocks) once a cell arrives: one cell and change.
    const MIN_CLOCKS: usize = 64;

    /// An empty window for a DUT with `stride` input ports. It holds one
    /// idle slot, so [`front`](Self::front) needs no branch, and grows on
    /// the first cell: a follower that never sees traffic (most lanes of a
    /// bank, until seeded) costs one small allocation.
    pub(crate) fn new(stride: usize) -> Self {
        StimulusWindow {
            stride,
            words: vec![0; stride],
            marked: vec![false],
            head: 0,
            len: 0,
            pending: 0,
        }
    }

    /// Ring slot of the clock `offset` clocks from now (`offset` below
    /// the power-of-two capacity).
    fn slot(&self, offset: usize) -> usize {
        (self.head + offset) & (self.marked.len() - 1)
    }

    /// The input words of the clock `offset` clocks from now, marked as
    /// stimulated; a clock not stimulated before reads as all zeros.
    fn slot_mut(&mut self, offset: usize) -> &mut [u64] {
        if offset >= self.marked.len() {
            self.grow(offset + 1);
        }
        let slot = self.slot(offset);
        if !self.marked[slot] {
            self.marked[slot] = true;
            self.pending += 1;
        }
        self.len = self.len.max(offset + 1);
        &mut self.words[slot * self.stride..(slot + 1) * self.stride]
    }

    /// Drives the octets of `wire` onto ingress line `line`, one per clock
    /// from the clock `offset` clocks from now: data, sync on the first
    /// octet, enable on all of them.
    pub(crate) fn put_cell(
        &mut self,
        offset: usize,
        line: IngressIndices,
        wire: &[u8; CELL_OCTETS],
    ) {
        for (k, &byte) in wire.iter().enumerate() {
            let slot = self.slot_mut(offset + k);
            slot[line.data] = u64::from(byte);
            slot[line.sync] = u64::from(k == 0);
            slot[line.enable] = 1;
        }
    }

    /// Re-lays the ring out from slot 0 with room for `clocks` clocks.
    fn grow(&mut self, clocks: usize) {
        let capacity = clocks
            .next_power_of_two()
            .max(2 * self.marked.len())
            .max(Self::MIN_CLOCKS);
        let mut words = vec![0; capacity * self.stride];
        let mut marked = vec![false; capacity];
        for offset in 0..self.len {
            let slot = self.slot(offset);
            if self.marked[slot] {
                marked[offset] = true;
                words[offset * self.stride..(offset + 1) * self.stride]
                    .copy_from_slice(&self.words[slot * self.stride..(slot + 1) * self.stride]);
            }
        }
        self.words = words;
        self.marked = marked;
        self.head = 0;
    }

    /// The input words of clock `now`: its stimulus, or all zeros.
    pub(crate) fn front(&self) -> &[u64] {
        &self.words[self.head * self.stride..(self.head + 1) * self.stride]
    }

    /// Retires clock `now` once it has been evaluated.
    pub(crate) fn pop_front(&mut self) {
        if self.marked[self.head] {
            self.marked[self.head] = false;
            self.pending -= 1;
            self.words[self.head * self.stride..(self.head + 1) * self.stride].fill(0);
        }
        self.head = self.slot(1);
        self.len = self.len.saturating_sub(1);
    }

    /// Retires `clocks` clocks that carry no stimulus.
    fn skip(&mut self, clocks: u64) {
        debug_assert!(self.next_stimulus().is_none_or(|off| off as u64 >= clocks));
        let ring = self.marked.len();
        self.head = (self.head + (clocks % ring as u64) as usize) & (ring - 1);
        self.len = self
            .len
            .saturating_sub(usize::try_from(clocks).unwrap_or(usize::MAX));
    }

    /// Offset from now of the first stimulated clock, if any.
    fn next_stimulus(&self) -> Option<usize> {
        if self.pending == 0 {
            return None;
        }
        (0..self.len).find(|&offset| self.marked[self.slot(offset)])
    }

    /// `true` while any clock in the window carries stimulus.
    pub(crate) fn has_stimulus(&self) -> bool {
        self.pending > 0
    }

    /// Clocks from now up to the last stimulated one.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The idle-skip jump of windows that advance in step (one per lane, or
/// just one): with the DUTs quiescent, every clock before the earliest
/// stimulus in any window is a no-op. Retires those clocks — at most
/// `remaining` — from every window and returns how many that was.
pub(crate) fn skip_idle(windows: &mut [StimulusWindow], remaining: u64) -> u64 {
    let jump = windows
        .iter()
        .filter_map(StimulusWindow::next_stimulus)
        .min()
        .map_or(remaining, |offset| remaining.min(offset as u64));
    for w in windows {
        w.skip(jump);
    }
    jump
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_clocks_read_as_zero_and_popped_slots_are_cleared() {
        let mut w = StimulusWindow::new(3);
        w.slot_mut(1).copy_from_slice(&[7, 1, 1]);
        assert_eq!((w.len(), w.next_stimulus()), (2, Some(1)));
        assert_eq!(w.front(), [0, 0, 0]);
        w.pop_front();
        assert_eq!(w.front(), [7, 1, 1]);
        w.pop_front();
        assert!(!w.has_stimulus());
        assert_eq!((w.len(), w.front()), (0, &[0, 0, 0][..]));
        // Popping an empty window keeps yielding idle clocks.
        for _ in 0..200 {
            w.pop_front();
            assert_eq!(w.front(), [0, 0, 0]);
        }
    }

    #[test]
    fn growth_keeps_pending_clocks_in_order_across_a_wrapped_ring() {
        let mut w = StimulusWindow::new(2);
        // Grow to the smallest ring, then move the head near its end so
        // the next cell wraps.
        w.slot_mut(1);
        w.pop_front();
        w.pop_front();
        w.skip(58);
        for k in 0..10 {
            w.slot_mut(k)[0] = k as u64 + 1;
        }
        // A cell stamped far ahead while the first ones are still pending.
        w.slot_mut(1000)[1] = 9;
        assert_eq!(w.len(), 1001);
        for k in 0..10 {
            assert_eq!(w.front(), [k + 1, 0]);
            w.pop_front();
        }
        assert_eq!(w.next_stimulus(), Some(990));
        assert_eq!(skip_idle(std::slice::from_mut(&mut w), 5000), 990);
        assert_eq!(w.front(), [0, 9]);
        w.pop_front();
        assert_eq!(skip_idle(std::slice::from_mut(&mut w), 5000), 5000);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn skip_idle_stops_at_the_earliest_stimulus_of_any_window() {
        let mut lanes = [
            StimulusWindow::new(1),
            StimulusWindow::new(1),
            StimulusWindow::new(1),
        ];
        lanes[1].slot_mut(40)[0] = 1;
        lanes[2].slot_mut(25)[0] = 2;
        assert_eq!(skip_idle(&mut lanes, 10), 10);
        assert_eq!(skip_idle(&mut lanes, 100), 15);
        assert_eq!(lanes[2].front(), [2]);
        assert_eq!(lanes[1].next_stimulus(), Some(15));
        assert_eq!(skip_idle(&mut lanes, 100), 0);
    }
}
