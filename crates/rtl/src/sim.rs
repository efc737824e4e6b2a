//! The event-driven simulation kernel with delta cycles.
//!
//! This is the workspace's stand-in for the Synopsys VHDL System Simulator:
//! processes with sensitivity lists, signal transactions scheduled for
//! future times or for the next *delta cycle* at the current time, and a
//! time-ordered queue executing them — the model of computation the paper's
//! §3.1 synchronization protocol assumes on the HDL side.
//!
//! The kernel counts executed transactions, events, delta cycles and
//! process activations; those counters feed experiment E7 (the paper's
//! closing observation that "the number of events that event-driven
//! simulators have to evaluate is an order of magnitude higher compared to
//! the system-level simulation").

use crate::error::RtlError;
use crate::logic::Logic;
use crate::netlist::{GatedClockLink, NetProcess, NetSignal, NetlistGraph, ProcessIo};
use crate::signal::{ProcId, SignalId, SignalInfo, SignalState};
use crate::vector::LogicVector;
use crate::wheel::TimingWheel;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Phase, Telemetry, Track, MICRO_SAMPLE_STRIDE};
use std::collections::HashMap;

/// A pending signal assignment or process wake-up. Time lives in the
/// scheduling structure (wheel slot or delta queue), not the entry;
/// `seq` is the global scheduling order that breaks same-time ties.
#[derive(Debug)]
struct Pending {
    seq: u64,
    action: Action,
}

#[derive(Debug)]
enum Action {
    Assign {
        driver: ProcId,
        signal: SignalId,
        value: LogicVector,
    },
    Wake(ProcId),
}

/// Sentinel for "signal is not traced" in the dense trace-index table.
const NOT_TRACED: u32 = u32::MAX;

/// A hardware process: the unit of behaviour, equivalent to a VHDL
/// `process` statement with a static sensitivity list.
pub trait RtlProcess: Send {
    /// Called once at elaboration. Register initial assignments here.
    fn init(&mut self, ctx: &mut RtlCtx) {
        let _ = ctx;
    }

    /// Called whenever a signal in the process's sensitivity list has an
    /// event, or a scheduled wake-up fires.
    fn run(&mut self, ctx: &mut RtlCtx);

    /// The process's structural self-description — read set, write set and
    /// kind — captured by the simulator at registration time and exposed
    /// through [`Simulator::netlist`]. The default `None` declares the
    /// process *opaque*: structural analyses skip it rather than guess.
    fn io(&self) -> Option<ProcessIo> {
        None
    }
}

/// Per-process registration record: the sensitivity lists as declared
/// (deduplicated) plus the structural self-description.
#[derive(Debug)]
struct ProcMeta {
    any: Vec<SignalId>,
    rising: Vec<SignalId>,
    io: Option<ProcessIo>,
}

/// Counter block for engine-comparison experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Signal transactions applied (driver updates).
    pub transactions: u64,
    /// Signal events (resolved-value changes).
    pub events: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Process activations.
    pub process_runs: u64,
    /// Distinct simulation time points visited.
    pub time_steps: u64,
}

/// The event-driven simulator.
///
/// # Examples
///
/// An inverter driven by a clock:
///
/// ```
/// use castanet_rtl::sim::{RtlCtx, RtlProcess, Simulator};
/// use castanet_rtl::logic::Logic;
/// use castanet_netsim::time::{SimDuration, SimTime};
///
/// struct Inverter { a: castanet_rtl::signal::SignalId, y: castanet_rtl::signal::SignalId }
/// impl RtlProcess for Inverter {
///     fn run(&mut self, ctx: &mut RtlCtx) {
///         let v = ctx.read_bit(self.a).not();
///         ctx.assign_bit(self.y, v);
///     }
/// }
///
/// let mut sim = Simulator::new();
/// let a = sim.add_signal("a", 1);
/// let y = sim.add_signal("y", 1);
/// let p = sim.add_process(Box::new(Inverter { a, y }), &[a]);
/// # let _ = p;
/// sim.poke_bit(a, Logic::Zero, SimTime::ZERO)?;
/// sim.poke_bit(a, Logic::One, SimTime::from_ns(10))?;
/// sim.run_until(SimTime::from_ns(20))?;
/// assert_eq!(sim.read_bit(y), Logic::Zero);
/// # Ok::<(), castanet_rtl::error::RtlError>(())
/// ```
pub struct Simulator {
    signals: Vec<SignalState>,
    names: HashMap<String, SignalId>,
    processes: Vec<Option<Box<dyn RtlProcess>>>,
    /// Dense watcher table, indexed by signal: processes sensitive to it.
    /// Deduplicated at [`Simulator::add_process`] time.
    watchers: Vec<Vec<ProcId>>,
    /// Rising-edge-only watchers, indexed by signal: woken only when the
    /// event drives bit 0 to `One`. Clocked processes that ignore falling
    /// edges register here and skip half of all clock wake-ups.
    watchers_rising: Vec<Vec<ProcId>>,
    /// Per-process registration metadata for netlist introspection.
    proc_meta: Vec<ProcMeta>,
    /// Per-signal external-input pin marks (see
    /// [`Simulator::mark_external_input`]).
    external_in: Vec<bool>,
    /// Per-signal external-output pin marks.
    external_out: Vec<bool>,
    /// Per-signal clock-root marks (outputs of `add_clock` /
    /// `add_gated_clock`).
    clock_roots: Vec<bool>,
    /// Gated clock → busy control links, one per `add_gated_clock`.
    gated_links: Vec<GatedClockLink>,
    /// Future transactions, keyed by absolute picosecond.
    queue: TimingWheel<Pending>,
    /// Zero-delay transactions staged for the next delta cycle at `now`.
    /// Keeping these out of the wheel makes delta churn a plain
    /// `Vec` push/drain.
    delta: Vec<Pending>,
    /// Scratch: the transaction batch of the delta cycle being applied.
    batch: Vec<Pending>,
    /// Scratch: processes to wake this delta cycle, in first-wake order.
    wake: Vec<ProcId>,
    /// Dense per-process "already in `wake`" flags (reusable bitset).
    woken: Vec<bool>,
    /// Dense per-process flags: the process has switched its any-edge
    /// sensitivity list off ([`RtlCtx::set_any_sensitivity`]). Its
    /// registered list in `proc_meta` is unchanged.
    deaf: Vec<bool>,
    /// Scratch for `RtlCtx::staged`, reused across process activations.
    staged_scratch: Vec<(SignalId, LogicVector, SimDuration)>,
    /// Scratch for `RtlCtx::wakes`, reused across process activations.
    wakes_scratch: Vec<SimDuration>,
    next_seq: u64,
    now: SimTime,
    counters: SimCounters,
    elaborated: bool,
    max_deltas: u32,
    traced: Vec<SignalId>,
    /// Dense signal → index-in-`traced` table ([`NOT_TRACED`] otherwise).
    trace_pos: Vec<u32>,
    trace_log: Vec<(SimTime, usize, LogicVector)>,
    /// Pending-queue depth at each advance-window boundary
    /// (`rtl.queue_depth`).
    obs_queue_depth: Gauge,
    /// Wheel cascade relocations (`rtl.wheel_cascade`).
    obs_wheel_cascade: Counter,
    /// Occupied wheel slots at each advance-window boundary
    /// (`rtl.wheel_occupancy`).
    obs_wheel_occupancy: Gauge,
    /// Telemetry handle for the sampled kernel micro-phases
    /// (`kernel.pop`/`kernel.eval`/`kernel.delta`) and the
    /// `kernel.advance` span.
    tel: Telemetry,
    /// `tel` records trace events, so the micro-phases are sampled.
    micro_armed: bool,
    /// Time steps since the last sampled one; the kernel counts the
    /// [`MICRO_SAMPLE_STRIDE`] itself instead of ticking the telemetry's
    /// thread-local counter on every step.
    micro_tick: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("pending", &(self.queue.len() + self.delta.len()))
            .finish()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            signals: Vec::new(),
            names: HashMap::new(),
            processes: Vec::new(),
            watchers: Vec::new(),
            watchers_rising: Vec::new(),
            proc_meta: Vec::new(),
            external_in: Vec::new(),
            external_out: Vec::new(),
            clock_roots: Vec::new(),
            gated_links: Vec::new(),
            queue: TimingWheel::new(),
            delta: Vec::new(),
            batch: Vec::new(),
            wake: Vec::new(),
            woken: Vec::new(),
            deaf: Vec::new(),
            staged_scratch: Vec::new(),
            wakes_scratch: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            counters: SimCounters::default(),
            elaborated: false,
            max_deltas: 10_000,
            traced: Vec::new(),
            trace_pos: Vec::new(),
            trace_log: Vec::new(),
            obs_queue_depth: Gauge::default(),
            obs_wheel_cascade: Counter::default(),
            obs_wheel_occupancy: Gauge::default(),
            tel: Telemetry::disabled(),
            micro_armed: false,
            micro_tick: 0,
        }
    }

    /// Binds the kernel's telemetry instruments (`rtl.queue_depth`,
    /// `rtl.wheel_cascade`, `rtl.wheel_occupancy`) to `tel`'s registry and
    /// arms the sampled kernel micro-phases. With the default disabled
    /// telemetry the instruments are no-ops.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.micro_armed = tel.trace_active();
        self.obs_queue_depth = tel.gauge("rtl.queue_depth");
        self.obs_wheel_cascade = tel.counter("rtl.wheel_cascade");
        self.obs_wheel_occupancy = tel.gauge("rtl.wheel_occupancy");
    }

    /// Marks a signal for waveform tracing; its events will appear in the
    /// VCD written by [`Simulator::write_vcd`].
    pub fn trace(&mut self, signal: SignalId) {
        if self.trace_pos[signal.0] == NOT_TRACED {
            self.trace_pos[signal.0] = u32::try_from(self.traced.len()).expect("trace count");
            self.traced.push(signal);
        }
    }

    /// Writes all traced events as a VCD stream. Pass a `File` (or any
    /// `Write`; a `&mut Vec<u8>` works for tests).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_vcd<W: std::io::Write>(&self, w: W, module: &str) -> Result<(), RtlError> {
        let vars: Vec<crate::wave::VcdVar> = self
            .traced
            .iter()
            .map(|&id| crate::wave::VcdVar {
                name: self.signals[id.0].name.clone(),
                width: self.signals[id.0].width,
            })
            .collect();
        crate::wave::write_vcd(w, module, &vars, &self.trace_log)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Elaboration
    // ------------------------------------------------------------------

    /// Declares a signal of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the name is already taken.
    pub fn add_signal(&mut self, name: impl Into<String>, width: usize) -> SignalId {
        assert!(width > 0, "signal width must be non-zero");
        let name = name.into();
        assert!(
            !self.names.contains_key(&name),
            "signal name {name:?} already declared"
        );
        let id = SignalId(self.signals.len());
        self.signals.push(SignalState::new(name.clone(), width));
        self.watchers.push(Vec::new());
        self.watchers_rising.push(Vec::new());
        self.external_in.push(false);
        self.external_out.push(false);
        self.clock_roots.push(false);
        self.trace_pos.push(NOT_TRACED);
        self.names.insert(name, id);
        id
    }

    /// Declares `signal` an external input pin: the test bench or
    /// co-simulation entity drives it via [`Simulator::poke`], so the
    /// structural analyses must not flag it as undriven.
    pub fn mark_external_input(&mut self, signal: SignalId) {
        self.external_in[signal.0] = true;
    }

    /// Declares `signal` an external output pin: observed from outside the
    /// kernel via [`Simulator::read`], so the structural analyses must not
    /// flag it as dead.
    pub fn mark_external_output(&mut self, signal: SignalId) {
        self.external_out[signal.0] = true;
    }

    /// Adds a process with a static sensitivity list. A signal appearing
    /// more than once in the list (or the process being registered on it
    /// twice) still wakes the process only once per event, matching VHDL
    /// sensitivity semantics.
    pub fn add_process(
        &mut self,
        process: Box<dyn RtlProcess>,
        sensitivity: &[SignalId],
    ) -> ProcId {
        let id = ProcId(self.processes.len());
        let io = process.io();
        self.processes.push(Some(process));
        self.woken.push(false);
        self.deaf.push(false);
        let mut any = Vec::new();
        for &s in sensitivity {
            let watchers = &mut self.watchers[s.0];
            if !watchers.contains(&id) {
                watchers.push(id);
                any.push(s);
            }
        }
        self.proc_meta.push(ProcMeta {
            any,
            rising: Vec::new(),
            io,
        });
        id
    }

    /// Adds a process with an edge-filtered sensitivity list: signals in
    /// `rising` wake it only on rising edges (bit 0 driven to `One`),
    /// signals in `any` on every event. A clocked process that ignores
    /// falling edges registered this way skips half of all clock wake-ups
    /// — the same dedup rules as [`Simulator::add_process`] apply, and a
    /// signal listed in both `any` and `rising` keeps the stronger `any`
    /// subscription.
    pub fn add_process_rising(
        &mut self,
        process: Box<dyn RtlProcess>,
        rising: &[SignalId],
        any: &[SignalId],
    ) -> ProcId {
        let id = self.add_process(process, any);
        for &s in rising {
            let watchers = &mut self.watchers_rising[s.0];
            if !self.watchers[s.0].contains(&id) && !watchers.contains(&id) {
                watchers.push(id);
                self.proc_meta[id.0].rising.push(s);
            }
        }
        id
    }

    /// Adds a free-running clock: low at time zero, rising edges at
    /// `⌊period/2⌋ + k·period`, each held high for `⌊period/2⌋` and low for
    /// `⌈period/2⌉` (an odd-picosecond period keeps its exact length). The
    /// generator runs once per period: it assigns the rising edge and
    /// schedules the falling one as a delayed transaction.
    ///
    /// # Panics
    ///
    /// Panics if `period` is shorter than 2 ps (cannot split into half
    /// periods).
    pub fn add_clock(&mut self, name: impl Into<String>, period: SimDuration) -> SignalId {
        let grid = ClockGrid::new(period);
        let clk = self.add_signal(name, 1);
        struct ClockGen {
            clk: SignalId,
            grid: ClockGrid,
        }
        impl RtlProcess for ClockGen {
            fn init(&mut self, ctx: &mut RtlCtx) {
                ctx.assign_bit(self.clk, Logic::Zero);
                ctx.wake_after(SimDuration::from_picos(self.grid.high));
            }
            fn run(&mut self, ctx: &mut RtlCtx) {
                self.grid.rise(ctx, self.clk);
            }
            fn io(&self) -> Option<ProcessIo> {
                Some(ProcessIo::generator("clock_gen").writes([self.clk]))
            }
        }
        self.add_process(Box::new(ClockGen { clk, grid }), &[]);
        self.clock_roots[clk.0] = true;
        clk
    }

    /// Adds a *gated* clock: same grid as [`Simulator::add_clock`] (low at
    /// time zero, rising edges at `⌊period/2⌋ + k·period`), but the
    /// generator parks — holding the line low and scheduling nothing —
    /// whenever the 1-bit `busy` signal is low at a would-be rising edge,
    /// and resumes on the next `busy` event. Resumed rising edges always
    /// land back on the original grid, so any process that samples on
    /// rising edges observes *exactly* the free-running behaviour; only
    /// the idle toggling between de-assert and re-assert disappears. This
    /// is the event-driven kernel's idle-time optimization: with a DUT
    /// that reports quiescence (see [`crate::cycle::CycleDut::is_idle`]),
    /// long stimulus gaps cost zero simulation events instead of two per
    /// clock period. While it runs, the generator wakes once per period,
    /// at each rising-due instant, which is where it decides to park.
    ///
    /// # Panics
    ///
    /// Panics if `period` is shorter than 2 ps.
    pub fn add_gated_clock(
        &mut self,
        name: impl Into<String>,
        period: SimDuration,
        busy: SignalId,
    ) -> SignalId {
        let grid = ClockGrid::new(period);
        let clk = self.add_signal(name, 1);
        struct GatedClockGen {
            clk: SignalId,
            busy: SignalId,
            grid: ClockGrid,
            /// The rising-due instant of the pending grid wake; `None`
            /// while parked.
            due: Option<u64>,
        }
        impl GatedClockGen {
            /// Rises at once when `now` is a rising edge of the grid, and
            /// otherwise schedules the grid wake at the next one.
            fn resume(&mut self, ctx: &mut RtlCtx, now: u64) {
                let rise = self.grid.rise_at_or_after(now);
                if rise == now {
                    self.grid.rise(ctx, self.clk);
                    self.due = Some(now + self.grid.period);
                } else {
                    self.due = Some(rise);
                    ctx.wake_after(SimDuration::from_picos(rise - now));
                }
            }
        }
        impl RtlProcess for GatedClockGen {
            fn init(&mut self, ctx: &mut RtlCtx) {
                ctx.assign_bit(self.clk, Logic::Zero);
                let now = ctx.now().as_picos();
                self.resume(ctx, now);
            }
            fn run(&mut self, ctx: &mut RtlCtx) {
                let now = ctx.now().as_picos();
                if self.due.is_some_and(|due| now < due) {
                    // A busy event while the grid wake is pending: nothing
                    // to do, the wake will see the new level.
                    return;
                }
                // The rising-due wake (the falling edge scheduled with the
                // previous rise has completed, so the line is low), or a
                // busy event while parked: rise on the grid while busy,
                // park otherwise. A resumed clock lands on the next instant
                // where the free-running clock would rise, keeping every
                // sampling edge on grid.
                if ctx.read_bit(self.busy) == Logic::One {
                    self.resume(ctx, now);
                } else {
                    self.due = None;
                }
            }
            fn io(&self) -> Option<ProcessIo> {
                Some(
                    ProcessIo::generator("gated_clock_gen")
                        .reads([self.busy])
                        .writes([self.clk]),
                )
            }
        }
        // Rising-only: the generator restarts when `busy` goes high; a
        // falling `busy` needs no action (the next rising-due wake parks
        // by reading `busy` low).
        self.add_process_rising(
            Box::new(GatedClockGen {
                clk,
                busy,
                grid,
                due: None,
            }),
            &[busy],
            &[],
        );
        self.clock_roots[clk.0] = true;
        self.gated_links.push(GatedClockLink { clk, busy });
        clk
    }

    /// Looks up a signal by name.
    #[must_use]
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.names.get(name).copied()
    }

    /// Snapshot of a signal's public state.
    ///
    /// # Panics
    ///
    /// Panics on a foreign `SignalId`.
    #[must_use]
    pub fn signal_info(&self, id: SignalId) -> SignalInfo {
        let s = &self.signals[id.0];
        SignalInfo {
            name: s.name.clone(),
            width: s.width,
            value: s.value.clone(),
            event_count: s.event_count,
        }
    }

    /// Ids of all declared signals, in declaration order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len()).map(SignalId)
    }

    /// Builds the introspectable dataflow graph of the elaborated design:
    /// every registered process with its sensitivity lists and (when
    /// declared via [`RtlProcess::io`]) read/write sets, every signal with
    /// its external-pin / trace / clock-root marks, and the gated-clock
    /// busy links. Input to [`NetlistGraph::analyze`] (the `CAST1xx`
    /// structural checks) and [`NetlistGraph::levelize`].
    #[must_use]
    pub fn netlist(&self) -> NetlistGraph {
        let signals = self
            .signals
            .iter()
            .enumerate()
            .map(|(idx, s)| NetSignal {
                name: s.name.clone(),
                width: s.width,
                external_input: self.external_in[idx],
                external_output: self.external_out[idx],
                traced: self.trace_pos[idx] != NOT_TRACED,
                clock_root: self.clock_roots[idx],
            })
            .collect();
        let processes = self
            .proc_meta
            .iter()
            .map(|m| NetProcess {
                sensitivity_any: m.any.clone(),
                sensitivity_rising: m.rising.clone(),
                io: m.io.clone(),
            })
            .collect();
        NetlistGraph::new(signals, processes, self.gated_links.clone())
    }

    // ------------------------------------------------------------------
    // External stimulus & observation (test bench / co-simulation entity)
    // ------------------------------------------------------------------

    /// Schedules an external assignment of `value` to `signal` at absolute
    /// time `at` (driver slot [`ProcId::EXTERNAL`]).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::SchedulingInPast`] when `at < now`, or
    /// [`RtlError::WidthMismatch`] when widths differ.
    pub fn poke(
        &mut self,
        signal: SignalId,
        value: LogicVector,
        at: SimTime,
    ) -> Result<(), RtlError> {
        if at < self.now {
            return Err(RtlError::SchedulingInPast {
                requested: at,
                now: self.now,
            });
        }
        let width = self.signals[signal.0].width;
        if value.width() != width {
            return Err(RtlError::WidthMismatch {
                expected: width,
                got: value.width(),
            });
        }
        let seq = self.bump_seq();
        self.queue.push(
            at.as_picos(),
            Pending {
                seq,
                action: Action::Assign {
                    driver: ProcId::EXTERNAL,
                    signal,
                    value,
                },
            },
        );
        Ok(())
    }

    /// Scalar convenience for [`Simulator::poke`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::poke`].
    pub fn poke_bit(
        &mut self,
        signal: SignalId,
        value: Logic,
        at: SimTime,
    ) -> Result<(), RtlError> {
        self.poke(signal, LogicVector::from(value), at)
    }

    /// Current resolved value of a signal.
    ///
    /// # Panics
    ///
    /// Panics on a foreign `SignalId`.
    #[must_use]
    pub fn read(&self, signal: SignalId) -> &LogicVector {
        &self.signals[signal.0].value
    }

    /// Bit 0 of a signal.
    #[must_use]
    pub fn read_bit(&self, signal: SignalId) -> Logic {
        self.signals[signal.0].bit0
    }

    /// Unsigned reading of a signal, when fully defined.
    #[must_use]
    pub fn read_u64(&self, signal: SignalId) -> Option<u64> {
        self.signals[signal.0].value_u64
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine counters (events, deltas, process runs).
    #[must_use]
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Time of the next pending transaction.
    #[must_use]
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.elaborate();
        self.pending_time()
    }

    /// [`Simulator::next_time`] without elaborating: until the first
    /// advance, the processes' initial activity counts as pending at `now`.
    #[must_use]
    pub fn pending_time(&self) -> Option<SimTime> {
        if !self.elaborated || !self.delta.is_empty() {
            // Elaboration-staged zero-delay activity sits at `now`.
            return Some(self.now);
        }
        self.queue.peek().map(SimTime::from_picos)
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Runs every process's `init` once (first call only).
    fn elaborate(&mut self) {
        if self.elaborated {
            return;
        }
        self.elaborated = true;
        for idx in 0..self.processes.len() {
            self.run_process(ProcId(idx), true);
        }
        // Initial assignments land as zero-delay transactions at t=0 and are
        // consumed by the first advance.
    }

    /// Executes all activity at the next pending time point (all its delta
    /// cycles). Returns `false` when the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::DeltaRunaway`] if a combinational loop exceeds
    /// the delta limit.
    pub fn step_time(&mut self) -> Result<bool, RtlError> {
        self.elaborate();
        let t = if self.delta.is_empty() {
            let Some(t_ps) = self.queue.peek() else {
                return Ok(false);
            };
            SimTime::from_picos(t_ps)
        } else {
            // Zero-delay activity staged at `now` (elaboration).
            self.now
        };
        debug_assert!(t >= self.now);
        self.now = t;
        self.counters.time_steps += 1;

        // The scratch vectors move out of `self` for the duration of the
        // step so process callbacks can borrow `self` mutably; they move
        // back (retaining capacity) on every exit path below.
        let mut batch = std::mem::take(&mut self.batch);
        let mut wake = std::mem::take(&mut self.wake);
        let mut deltas_here: u32 = 0;
        let mut outcome = Ok(true);
        // Sampled micro-phase breakdown of this step: `kernel.pop` is the
        // first spin's transaction collection, `kernel.eval` the first
        // spin's apply/wake/run, `kernel.delta` every follow-up delta spin.
        let sampled = self.micro_armed && {
            self.micro_tick = (self.micro_tick + 1) % MICRO_SAMPLE_STRIDE;
            self.micro_tick == 1
        };
        let mut mark = if sampled { self.tel.now_ns() } else { 0 };
        loop {
            // Collect every transaction scheduled for exactly `t` *now*;
            // assignments scheduled during this delta land in `delta` (or
            // the wheel) with higher seq and are picked up next spin.
            batch.clear();
            if self.queue.peek() == Some(t.as_picos()) {
                self.queue.pop_into(&mut batch);
            }
            if batch.is_empty() {
                // Common delta spin: everything comes from the delta
                // queue, already in seq order.
                std::mem::swap(&mut batch, &mut self.delta);
            } else if !self.delta.is_empty() {
                // Both sources only meet on a step's first spin (later
                // spins can't add wheel entries at `t`), and each side is
                // seq-sorted; restore the global order.
                batch.append(&mut self.delta);
                batch.sort_by_key(|p| p.seq);
            }
            if batch.is_empty() {
                break;
            }
            if sampled && deltas_here == 0 {
                mark = self
                    .tel
                    .record_phase(Track::Follower, t.as_picos(), Phase::KernelPop, mark);
            }
            deltas_here += 1;
            self.counters.delta_cycles += 1;
            if deltas_here > self.max_deltas {
                outcome = Err(RtlError::DeltaRunaway {
                    at: t,
                    deltas: deltas_here,
                });
                break;
            }

            // Apply assignments, collect events, then wake processes.
            wake.clear();
            for txn in batch.drain(..) {
                match txn.action {
                    Action::Assign {
                        driver,
                        signal,
                        value,
                    } => {
                        self.counters.transactions += 1;
                        let had_event = self.signals[signal.0].drive(driver, value, t);
                        if had_event {
                            self.counters.events += 1;
                            let pos = self.trace_pos[signal.0];
                            if pos != NOT_TRACED {
                                self.trace_log.push((
                                    t,
                                    pos as usize,
                                    self.signals[signal.0].value.clone(),
                                ));
                            }
                            for &p in &self.watchers[signal.0] {
                                if !self.woken[p.0] && !self.deaf[p.0] {
                                    self.woken[p.0] = true;
                                    wake.push(p);
                                }
                            }
                            let rising = &self.watchers_rising[signal.0];
                            if !rising.is_empty() && self.signals[signal.0].rising_at(t) {
                                for &p in rising {
                                    if !self.woken[p.0] {
                                        self.woken[p.0] = true;
                                        wake.push(p);
                                    }
                                }
                            }
                        }
                    }
                    Action::Wake(p) => {
                        if !self.woken[p.0] {
                            self.woken[p.0] = true;
                            wake.push(p);
                        }
                    }
                }
            }
            for &p in &wake {
                self.run_process(p, false);
            }
            // Reset only the flags we set; the table stays zeroed between
            // deltas without a full clear.
            for &p in &wake {
                self.woken[p.0] = false;
            }
            if sampled && deltas_here == 1 {
                mark =
                    self.tel
                        .record_phase(Track::Follower, t.as_picos(), Phase::KernelEval, mark);
            }
        }
        if sampled && deltas_here > 1 {
            self.tel
                .record_phase(Track::Follower, t.as_picos(), Phase::KernelDelta, mark);
        }
        self.batch = batch;
        self.wake = wake;
        outcome
    }

    /// Publishes the kernel's queue-shape telemetry: the
    /// `rtl.queue_depth` and `rtl.wheel_occupancy` gauges and the wheel's
    /// accumulated cascade tally into `rtl.wheel_cascade`. Called once per
    /// advance window, not per step — the gauges are point-in-time
    /// snapshots either way, the cascade *sum* is preserved exactly, and
    /// keeping these off the per-step path is what holds the
    /// counters-only policy near zero overhead.
    pub fn publish_queue_telemetry(&mut self) {
        self.obs_queue_depth
            .set((self.queue.len() + self.delta.len()) as u64);
        self.obs_wheel_occupancy
            .set(u64::from(self.queue.occupied_slots()));
        let cascaded = self.queue.take_cascaded();
        if cascaded > 0 {
            self.obs_wheel_cascade.add(cascaded);
        }
    }

    /// Runs until no transaction earlier than `horizon` remains. Activity at
    /// exactly `horizon` stays pending — the semantics the conservative
    /// coupling needs ("process all events with a time stamp smaller than
    /// `t_k`, but not equal").
    ///
    /// # Errors
    ///
    /// See [`Simulator::step_time`].
    pub fn run_until(&mut self, horizon: SimTime) -> Result<(), RtlError> {
        // The span guard borrows its `Telemetry`; clone the cheap handle so
        // `self.step_time()` can still borrow `self` mutably underneath.
        let tel = self.tel.clone();
        let _span = tel.span(Track::Follower, horizon.as_picos(), Phase::KernelAdvance);
        while let Some(t) = self.next_time() {
            if t >= horizon {
                break;
            }
            self.step_time()?;
        }
        self.publish_queue_telemetry();
        // Time still advances to just before the horizon conceptually; we
        // leave `now` at the last executed step.
        Ok(())
    }

    /// Runs until the queue drains (finite stimulus only — a free-running
    /// clock never drains).
    ///
    /// # Errors
    ///
    /// See [`Simulator::step_time`].
    pub fn run_to_quiescence(&mut self) -> Result<(), RtlError> {
        while self.step_time()? {}
        self.publish_queue_telemetry();
        Ok(())
    }

    fn run_process(&mut self, id: ProcId, is_init: bool) {
        let Some(slot) = self.processes.get_mut(id.0) else {
            return;
        };
        let Some(mut proc_) = slot.take() else {
            return; // re-entrancy guard
        };
        self.counters.process_runs += 1;
        // Reuse the staging buffers across activations; they move out of
        // `self` so the context can borrow the signal table.
        let mut staged = std::mem::take(&mut self.staged_scratch);
        let mut wakes = std::mem::take(&mut self.wakes_scratch);
        debug_assert!(staged.is_empty() && wakes.is_empty());
        {
            let mut ctx = RtlCtx {
                id,
                now: self.now,
                signals: &self.signals,
                staged: &mut staged,
                wakes: &mut wakes,
                deaf: &mut self.deaf[id.0],
            };
            if is_init {
                proc_.init(&mut ctx);
            } else {
                proc_.run(&mut ctx);
            }
        }
        self.processes[id.0] = Some(proc_);
        for (signal, value, delay) in staged.drain(..) {
            let seq = self.bump_seq();
            let action = Action::Assign {
                driver: id,
                signal,
                value,
            };
            if delay.is_zero() {
                self.delta.push(Pending { seq, action });
            } else {
                self.queue
                    .push((self.now + delay).as_picos(), Pending { seq, action });
            }
        }
        for delay in wakes.drain(..) {
            let seq = self.bump_seq();
            let action = Action::Wake(id);
            if delay.is_zero() {
                self.delta.push(Pending { seq, action });
            } else {
                self.queue
                    .push((self.now + delay).as_picos(), Pending { seq, action });
            }
        }
        self.staged_scratch = staged;
        self.wakes_scratch = wakes;
    }
}

/// The edge grid of [`Simulator::add_clock`] and
/// [`Simulator::add_gated_clock`], in picoseconds: rising edges at
/// `high + k·period`, each followed by a falling edge `high` later, where
/// `high = ⌊period/2⌋`. The low phase is the rest of the period,
/// `⌈period/2⌉`, so the grid keeps the exact period even when it is odd.
#[derive(Debug, Clone, Copy)]
struct ClockGrid {
    period: u64,
    high: u64,
}

impl ClockGrid {
    fn new(period: SimDuration) -> Self {
        let period = period.as_picos();
        assert!(period >= 2, "clock period too short");
        ClockGrid {
            period,
            high: period / 2,
        }
    }

    /// The first rising edge at or after `t`.
    fn rise_at_or_after(self, t: u64) -> u64 {
        if t <= self.high {
            self.high
        } else {
            self.high + (t - self.high).div_ceil(self.period) * self.period
        }
    }

    /// One whole period from a rising edge at `now`: the rising edge now,
    /// the falling edge as a delayed transaction, and a wake at the next
    /// rising-due instant.
    fn rise(self, ctx: &mut RtlCtx, clk: SignalId) {
        ctx.assign_bit(clk, Logic::One);
        ctx.assign_after(
            clk,
            LogicVector::from(Logic::Zero),
            SimDuration::from_picos(self.high),
        );
        ctx.wake_after(SimDuration::from_picos(self.period));
    }
}

/// The API a process sees while running: signal reads, edge tests, staged
/// assignments and wake-ups.
pub struct RtlCtx<'a> {
    id: ProcId,
    now: SimTime,
    signals: &'a [SignalState],
    staged: &'a mut Vec<(SignalId, LogicVector, SimDuration)>,
    wakes: &'a mut Vec<SimDuration>,
    /// This process's "any-edge list switched off" flag.
    deaf: &'a mut bool,
}

impl std::fmt::Debug for RtlCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlCtx")
            .field("process", &self.id.0)
            .field("now", &self.now)
            .finish()
    }
}

impl RtlCtx<'_> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current resolved value of a signal.
    #[must_use]
    pub fn read(&self, signal: SignalId) -> &LogicVector {
        &self.signals[signal.0].value
    }

    /// Bit 0 of a signal.
    #[must_use]
    pub fn read_bit(&self, signal: SignalId) -> Logic {
        self.signals[signal.0].bit0
    }

    /// Unsigned reading, when fully defined.
    #[must_use]
    pub fn read_u64(&self, signal: SignalId) -> Option<u64> {
        self.signals[signal.0].value_u64
    }

    /// `true` when `signal` had an event in the delta cycle that woke this
    /// process.
    #[must_use]
    pub fn event(&self, signal: SignalId) -> bool {
        self.signals[signal.0].event_at(self.now)
    }

    /// `clk'event and clk = '1'`.
    #[must_use]
    pub fn rising(&self, signal: SignalId) -> bool {
        self.signals[signal.0].rising_at(self.now)
    }

    /// `clk'event and clk = '0'`.
    #[must_use]
    pub fn falling(&self, signal: SignalId) -> bool {
        self.signals[signal.0].falling_at(self.now)
    }

    /// Stages a delta-delayed assignment (visible next delta cycle).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn assign(&mut self, signal: SignalId, value: LogicVector) {
        self.assign_after(signal, value, SimDuration::ZERO);
    }

    /// Scalar convenience for [`RtlCtx::assign`].
    pub fn assign_bit(&mut self, signal: SignalId, value: Logic) {
        self.assign(signal, LogicVector::from(value));
    }

    /// Stages an assignment after a transport delay.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn assign_after(&mut self, signal: SignalId, value: LogicVector, delay: SimDuration) {
        assert_eq!(
            value.width(),
            self.signals[signal.0].width,
            "width mismatch assigning {}",
            self.signals[signal.0].name
        );
        self.staged.push((signal, value, delay));
    }

    /// Unsigned convenience for [`RtlCtx::assign`].
    pub fn assign_u64(&mut self, signal: SignalId, value: u64) {
        let width = self.signals[signal.0].width;
        self.assign(signal, LogicVector::from_u64(value, width));
    }

    /// Schedules this process to run again after `delay` without any signal
    /// event (VHDL `wait for`).
    pub fn wake_after(&mut self, delay: SimDuration) {
        self.wakes.push(delay);
    }

    /// Switches this process's any-edge sensitivity list off (`false`) or
    /// back on (`true`); it starts on. While it is off, events on those
    /// signals do not wake the process. Its rising-edge subscriptions and
    /// scheduled wake-ups are unaffected, and so is the registered list
    /// that [`Simulator::netlist`] reports. The switch applies from the
    /// next delta cycle; this activation has already been woken.
    pub fn set_any_sensitivity(&mut self, on: bool) {
        *self.deaf = !on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y <= not a (combinational).
    struct Inverter {
        a: SignalId,
        y: SignalId,
    }
    impl RtlProcess for Inverter {
        fn run(&mut self, ctx: &mut RtlCtx) {
            let v = ctx.read_bit(self.a).not();
            ctx.assign_bit(self.y, v);
        }
    }

    /// q <= d on rising clk.
    struct Dff {
        clk: SignalId,
        d: SignalId,
        q: SignalId,
    }
    impl RtlProcess for Dff {
        fn run(&mut self, ctx: &mut RtlCtx) {
            if ctx.rising(self.clk) {
                let v = ctx.read(self.d).clone();
                ctx.assign(self.q, v);
            }
        }
    }

    #[test]
    fn combinational_chain_settles_in_deltas() {
        // a -> inv -> b -> inv -> c : two deltas after a changes.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        let c = sim.add_signal("c", 1);
        sim.add_process(Box::new(Inverter { a, y: b }), &[a]);
        sim.add_process(Box::new(Inverter { a: b, y: c }), &[b]);
        sim.poke_bit(a, Logic::Zero, SimTime::ZERO).unwrap();
        sim.step_time().unwrap();
        assert_eq!(sim.read_bit(b), Logic::One);
        assert_eq!(sim.read_bit(c), Logic::Zero);
        sim.poke_bit(a, Logic::One, SimTime::from_ns(10)).unwrap();
        sim.step_time().unwrap();
        assert_eq!(sim.read_bit(b), Logic::Zero);
        assert_eq!(sim.read_bit(c), Logic::One);
        assert_eq!(sim.now(), SimTime::from_ns(10));
    }

    #[test]
    fn pending_time_is_next_time_without_elaborating() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.poke_bit(a, Logic::One, SimTime::from_ns(5)).unwrap();
        // Not elaborated yet: `now` conservatively counts as pending.
        assert_eq!(sim.pending_time(), Some(SimTime::ZERO));
        assert_eq!(sim.next_time(), Some(SimTime::from_ns(5)));
        assert_eq!(sim.pending_time(), Some(SimTime::from_ns(5)));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.pending_time(), None);
        assert_eq!(sim.next_time(), None);
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", SimDuration::from_ns(10));
        let d = sim.add_signal("d", 8);
        let q = sim.add_signal("q", 8);
        sim.add_process(Box::new(Dff { clk, d, q }), &[clk]);
        sim.poke(d, LogicVector::from_u64(0x42, 8), SimTime::ZERO)
            .unwrap();
        // First rising edge at 5 ns.
        sim.run_until(SimTime::from_ns(5)).unwrap();
        assert_eq!(sim.read_u64(q), None, "before the edge q is U");
        sim.run_until(SimTime::from_ns(6)).unwrap();
        assert_eq!(sim.read_u64(q), Some(0x42));
        // Change d between edges: q holds.
        sim.poke(d, LogicVector::from_u64(0x99, 8), SimTime::from_ns(8))
            .unwrap();
        sim.run_until(SimTime::from_ns(14)).unwrap();
        assert_eq!(sim.read_u64(q), Some(0x42));
        sim.run_until(SimTime::from_ns(16)).unwrap();
        assert_eq!(sim.read_u64(q), Some(0x99));
    }

    #[test]
    fn run_until_excludes_the_horizon() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.poke_bit(a, Logic::One, SimTime::from_ns(10)).unwrap();
        sim.run_until(SimTime::from_ns(10)).unwrap();
        assert_eq!(
            sim.read_bit(a),
            Logic::U,
            "event at the horizon must stay pending"
        );
        sim.run_until(SimTime::from_ns(11)).unwrap();
        assert_eq!(sim.read_bit(a), Logic::One);
    }

    #[test]
    fn delta_runaway_is_detected() {
        // y <= not y : a zero-delay oscillator.
        struct SelfInverter {
            y: SignalId,
        }
        impl RtlProcess for SelfInverter {
            fn init(&mut self, ctx: &mut RtlCtx) {
                ctx.assign_bit(self.y, Logic::Zero);
            }
            fn run(&mut self, ctx: &mut RtlCtx) {
                let v = ctx.read_bit(self.y).not();
                ctx.assign_bit(self.y, v);
            }
        }
        let mut sim = Simulator::new();
        let y = sim.add_signal("y", 1);
        sim.add_process(Box::new(SelfInverter { y }), &[y]);
        let err = sim.step_time().unwrap_err();
        assert!(matches!(err, RtlError::DeltaRunaway { .. }));
    }

    #[test]
    fn poke_in_past_rejected() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.poke_bit(a, Logic::One, SimTime::from_ns(5)).unwrap();
        sim.step_time().unwrap();
        let err = sim
            .poke_bit(a, Logic::Zero, SimTime::from_ns(1))
            .unwrap_err();
        assert!(matches!(err, RtlError::SchedulingInPast { .. }));
    }

    #[test]
    fn poke_width_checked() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 4);
        let err = sim
            .poke(a, LogicVector::from_u64(1, 2), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            RtlError::WidthMismatch {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn clock_produces_expected_edge_count() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", SimDuration::from_ns(10));
        sim.run_until(SimTime::from_ns(101)).unwrap();
        // Initialization U->0 at t=0 is one event, then edges at
        // 5,10,...,100 are 20 more.
        assert_eq!(sim.signal_info(clk).event_count, 21);
    }

    #[test]
    fn counters_accumulate() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = sim.add_signal("y", 1);
        sim.add_process(Box::new(Inverter { a, y }), &[a]);
        sim.poke_bit(a, Logic::Zero, SimTime::ZERO).unwrap();
        sim.poke_bit(a, Logic::One, SimTime::from_ns(1)).unwrap();
        sim.run_to_quiescence().unwrap();
        let c = sim.counters();
        assert_eq!(c.time_steps, 2);
        assert!(c.events >= 4); // a twice, y twice
        assert!(c.process_runs >= 2);
        assert!(c.delta_cycles >= 4);
    }

    #[test]
    fn vcd_tracing_captures_events() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", SimDuration::from_ns(10));
        sim.trace(clk);
        sim.run_until(SimTime::from_ns(21)).unwrap();
        let mut out = Vec::new();
        sim.write_vcd(&mut out, "bench").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$var wire 1 ! clk $end"));
        assert!(text.contains("#5000"));
        assert!(text.contains("#10000"));
    }

    #[test]
    fn name_lookup_and_duplicate_rejection() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("data", 8);
        assert_eq!(sim.signal_by_name("data"), Some(a));
        assert_eq!(sim.signal_by_name("nope"), None);
        let info = sim.signal_info(a);
        assert_eq!(info.name, "data");
        assert_eq!(info.width, 8);
    }

    #[test]
    #[should_panic(expected = "already declared")]
    fn duplicate_signal_name_panics() {
        let mut sim = Simulator::new();
        sim.add_signal("x", 1);
        sim.add_signal("x", 1);
    }

    #[test]
    fn tristate_bus_with_two_drivers() {
        // Two processes share a bus; each drives only when selected.
        struct BusDriver {
            sel: SignalId,
            bus: SignalId,
            value: u64,
        }
        impl RtlProcess for BusDriver {
            fn init(&mut self, ctx: &mut RtlCtx) {
                ctx.assign(self.bus, LogicVector::high_z(8));
            }
            fn run(&mut self, ctx: &mut RtlCtx) {
                if ctx.read_bit(self.sel).is_one() {
                    ctx.assign_u64(self.bus, self.value);
                } else {
                    ctx.assign(self.bus, LogicVector::high_z(8));
                }
            }
        }
        let mut sim = Simulator::new();
        let sel_a = sim.add_signal("sel_a", 1);
        let sel_b = sim.add_signal("sel_b", 1);
        let bus = sim.add_signal("bus", 8);
        sim.add_process(
            Box::new(BusDriver {
                sel: sel_a,
                bus,
                value: 0x11,
            }),
            &[sel_a],
        );
        sim.add_process(
            Box::new(BusDriver {
                sel: sel_b,
                bus,
                value: 0x22,
            }),
            &[sel_b],
        );
        sim.poke_bit(sel_a, Logic::One, SimTime::ZERO).unwrap();
        sim.poke_bit(sel_b, Logic::Zero, SimTime::ZERO).unwrap();
        sim.step_time().unwrap();
        assert_eq!(sim.read_u64(bus), Some(0x11));
        // Swap ownership.
        sim.poke_bit(sel_a, Logic::Zero, SimTime::from_ns(5))
            .unwrap();
        sim.poke_bit(sel_b, Logic::One, SimTime::from_ns(5))
            .unwrap();
        sim.step_time().unwrap();
        assert_eq!(sim.read_u64(bus), Some(0x22));
    }

    #[test]
    fn duplicate_sensitivity_entries_wake_once() {
        // Regression: a signal listed twice in a sensitivity list must not
        // double-run the process per event.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = sim.add_signal("y", 1);
        sim.add_process(Box::new(Inverter { a, y }), &[a, a, a]);
        sim.poke_bit(a, Logic::Zero, SimTime::ZERO).unwrap();
        sim.step_time().unwrap();
        // One elaboration init + exactly one activation for the event.
        assert_eq!(sim.counters().process_runs, 2);
        assert_eq!(sim.read_bit(y), Logic::One);
    }

    #[test]
    fn far_future_and_near_events_interleave_correctly() {
        // Exercises wheel cascading: events parked in coarse levels must
        // pop in time order as the base sweeps forward.
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 8);
        let times: [u64; 6] = [1, 63, 64, 4_100, 300_000, 70_000_000];
        for (i, &t) in times.iter().enumerate() {
            sim.poke(
                a,
                LogicVector::from_u64(i as u64, 8),
                SimTime::from_picos(t),
            )
            .unwrap();
        }
        for (i, &t) in times.iter().enumerate() {
            assert!(sim.step_time().unwrap());
            assert_eq!(sim.now(), SimTime::from_picos(t));
            assert_eq!(sim.read_u64(a), Some(i as u64));
        }
        assert!(!sim.step_time().unwrap());
    }

    /// Records the time of every rising edge it observes on `clk`.
    struct EdgeRecorder {
        clk: SignalId,
        times: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }
    impl RtlProcess for EdgeRecorder {
        fn run(&mut self, ctx: &mut RtlCtx) {
            if ctx.rising(self.clk) {
                self.times.lock().unwrap().push(ctx.now().as_picos());
            }
        }
    }

    fn gated_fixture() -> (
        Simulator,
        SignalId,
        std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    ) {
        let mut sim = Simulator::new();
        let busy = sim.add_signal("busy", 1);
        let clk = sim.add_gated_clock("clk", SimDuration::from_ns(20), busy);
        let times = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.add_process(
            Box::new(EdgeRecorder {
                clk,
                times: times.clone(),
            }),
            &[clk],
        );
        (sim, busy, times)
    }

    #[test]
    fn gated_clock_tracks_free_running_grid_while_busy() {
        // Held busy, the gated clock is indistinguishable from `add_clock`:
        // rising edges at odd multiples of the half period.
        let (mut sim, busy, times) = gated_fixture();
        sim.poke_bit(busy, Logic::One, SimTime::ZERO).unwrap();
        sim.run_until(SimTime::from_ns(100)).unwrap();
        let ns: Vec<u64> = times.lock().unwrap().iter().map(|t| t / 1000).collect();
        assert_eq!(ns, vec![10, 30, 50, 70, 90]);
    }

    #[test]
    fn gated_clock_parks_when_idle_and_restarts_on_grid() {
        // Drop busy after the first rising edge: the due edge at 30 ns is
        // skipped and nothing further happens until busy rises again —
        // whereupon the clock resumes on the *original* edge grid (90 ns),
        // not at a phase-shifted point.
        let (mut sim, busy, times) = gated_fixture();
        sim.poke_bit(busy, Logic::One, SimTime::ZERO).unwrap();
        sim.poke_bit(busy, Logic::Zero, SimTime::from_ns(12))
            .unwrap();
        sim.poke_bit(busy, Logic::One, SimTime::from_ns(75))
            .unwrap();
        sim.run_until(SimTime::from_ns(120)).unwrap();
        let ns: Vec<u64> = times.lock().unwrap().iter().map(|t| t / 1000).collect();
        assert_eq!(ns, vec![10, 90, 110]);
    }

    #[test]
    fn gated_clock_restarting_on_an_edge_instant_rises_immediately() {
        // Busy rises at exactly a grid rising instant: the edge must land
        // in that very time step (via a zero-delay assign), not one period
        // later.
        let (mut sim, busy, times) = gated_fixture();
        sim.poke_bit(busy, Logic::One, SimTime::ZERO).unwrap();
        sim.poke_bit(busy, Logic::Zero, SimTime::from_ns(12))
            .unwrap();
        sim.poke_bit(busy, Logic::One, SimTime::from_ns(90))
            .unwrap();
        sim.run_until(SimTime::from_ns(115)).unwrap();
        let ns: Vec<u64> = times.lock().unwrap().iter().map(|t| t / 1000).collect();
        assert_eq!(ns, vec![10, 90, 110]);
    }

    #[test]
    fn odd_period_clocks_keep_the_exact_period() {
        // 21 ps: high for 10, low for 11, rising edges at 10 + 21·k on
        // both generators, including a gated restart after a park.
        let mut sim = Simulator::new();
        let free = sim.add_clock("free", SimDuration::from_picos(21));
        let busy = sim.add_signal("busy", 1);
        let gated = sim.add_gated_clock("gated", SimDuration::from_picos(21), busy);
        let recorders: Vec<_> = [free, gated]
            .into_iter()
            .map(|clk| {
                let times = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
                sim.add_process(
                    Box::new(EdgeRecorder {
                        clk,
                        times: times.clone(),
                    }),
                    &[clk],
                );
                times
            })
            .collect();
        sim.poke_bit(busy, Logic::One, SimTime::ZERO).unwrap();
        sim.poke_bit(busy, Logic::Zero, SimTime::from_picos(40))
            .unwrap();
        sim.poke_bit(busy, Logic::One, SimTime::from_picos(100))
            .unwrap();
        sim.run_until(SimTime::from_picos(160)).unwrap();
        assert_eq!(
            *recorders[0].lock().unwrap(),
            vec![10, 31, 52, 73, 94, 115, 136, 157]
        );
        // Busy drops after the edge at 31: the edge due at 52 parks, and
        // busy's return at 100 resumes on the grid at 115.
        assert_eq!(*recorders[1].lock().unwrap(), vec![10, 31, 115, 136, 157]);
        assert_eq!(sim.read_bit(free), sim.read_bit(gated));
    }

    #[test]
    fn rising_only_watchers_skip_falling_edges() {
        // A rising-subscribed process runs for 0->1 transitions only; an
        // any-subscribed process sees both.
        struct RunCounter {
            runs: std::sync::Arc<std::sync::Mutex<u64>>,
        }
        impl RtlProcess for RunCounter {
            fn run(&mut self, _ctx: &mut RtlCtx) {
                *self.runs.lock().unwrap() += 1;
            }
        }
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        let rising_runs = std::sync::Arc::new(std::sync::Mutex::new(0));
        let any_runs = std::sync::Arc::new(std::sync::Mutex::new(0));
        sim.add_process_rising(
            Box::new(RunCounter {
                runs: rising_runs.clone(),
            }),
            &[s],
            &[],
        );
        sim.add_process(
            Box::new(RunCounter {
                runs: any_runs.clone(),
            }),
            &[s],
        );
        for (i, level) in [Logic::One, Logic::Zero, Logic::One, Logic::Zero]
            .into_iter()
            .enumerate()
        {
            sim.poke_bit(s, level, SimTime::from_ns(10 * (i as u64 + 1)))
                .unwrap();
        }
        sim.run_until(SimTime::from_ns(100)).unwrap();
        assert_eq!(*rising_runs.lock().unwrap(), 2, "two rising edges");
        assert_eq!(*any_runs.lock().unwrap(), 4, "four events in total");
    }

    #[test]
    fn switched_off_any_list_skips_wakes_until_switched_back_on() {
        // The listener starts with its any-edge list (`a`) switched off
        // and switches it back on at a rising edge of its other signal,
        // `clk`. A second process's rising-edge subscription on `a` sees
        // every rising edge of `a` throughout.
        struct Listener {
            clk: SignalId,
            runs: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl RtlProcess for Listener {
            fn init(&mut self, ctx: &mut RtlCtx) {
                ctx.set_any_sensitivity(false);
            }
            fn run(&mut self, ctx: &mut RtlCtx) {
                self.runs.lock().unwrap().push(ctx.now().as_picos() / 1000);
                if ctx.rising(self.clk) {
                    ctx.set_any_sensitivity(true);
                }
            }
        }
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let clk = sim.add_signal("clk", 1);
        let listener_runs = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let listener = sim.add_process_rising(
            Box::new(Listener {
                clk,
                runs: listener_runs.clone(),
            }),
            &[clk],
            &[a],
        );
        let (edges, rising_a) = {
            let times = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let p = sim.add_process_rising(
                Box::new(EdgeRecorder {
                    clk: a,
                    times: times.clone(),
                }),
                &[a],
                &[],
            );
            (times, p)
        };
        for (t_ns, signal, level) in [
            (10, a, Logic::One),
            (20, a, Logic::Zero),
            (30, clk, Logic::One),
            (40, a, Logic::One),
            (50, a, Logic::Zero),
        ] {
            sim.poke_bit(signal, level, SimTime::from_ns(t_ns)).unwrap();
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(*listener_runs.lock().unwrap(), vec![30, 40, 50]);
        let ns: Vec<u64> = edges.lock().unwrap().iter().map(|t| t / 1000).collect();
        assert_eq!(ns, vec![10, 40], "rising edges of `a`");
        // The registered lists are static: the netlist still shows them.
        let net = sim.netlist();
        assert_eq!(net.processes[listener.0].sensitivity_any, vec![a]);
        assert_eq!(net.processes[listener.0].sensitivity_rising, vec![clk]);
        assert_eq!(net.processes[rising_a.0].sensitivity_rising, vec![a]);
    }

    #[test]
    fn rising_subscription_is_subsumed_by_an_any_subscription() {
        // A signal in both lists must not wake the process twice per
        // rising edge.
        struct RunCounter {
            runs: std::sync::Arc<std::sync::Mutex<u64>>,
        }
        impl RtlProcess for RunCounter {
            fn run(&mut self, _ctx: &mut RtlCtx) {
                *self.runs.lock().unwrap() += 1;
            }
        }
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        let runs = std::sync::Arc::new(std::sync::Mutex::new(0));
        sim.add_process_rising(Box::new(RunCounter { runs: runs.clone() }), &[s], &[s]);
        sim.poke_bit(s, Logic::One, SimTime::from_ns(10)).unwrap();
        sim.run_until(SimTime::from_ns(20)).unwrap();
        assert_eq!(*runs.lock().unwrap(), 1);
    }
}
