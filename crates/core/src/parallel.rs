//! The parallel coupled-engine executor: originator and follower engines on
//! separate threads, coupled by lock-free SPSC rings.
//!
//! A [`Coupling`] is one type with two `run` policies. Its default
//! [`Serial`](crate::coupling::Serial) executor interleaves both simulators
//! on one thread, so §3.1's protocol — designed so the HDL side can run
//! *while* the network side keeps going — is never exercised as actual
//! parallelism. [`Parallel`] is the concurrent policy, and
//! [`ParallelCoupling`] names a coupling that runs under it:
//!
//! * the **network kernel stays on the calling thread** (it owns the
//!   interface outbox, which is deliberately thread-local);
//! * the **follower and its [`ConservativeSync`] run on a spawned scoped
//!   thread**; they receive *timing windows* — the window's stimulus
//!   messages plus a grant horizon — through a preallocated
//!   [`SpscRing`] of command slots and answer through a second ring of
//!   reply slots. Slot payloads are `mem::swap`ped in and out, so the
//!   steady state moves **no allocations across the thread boundary**,
//!   and a side that cannot make progress spins briefly and then parks
//!   (see the [`ring`](crate::ring) module docs for the slot protocol);
//! * **cell batching** amortizes the ~1:400 cell-to-clock time-scale gap:
//!   instead of one rendezvous per network event, the originator executes a
//!   whole window of events, drains the abstraction interface once, and
//!   ships the batch together with one grant. The follower plays the batch
//!   with a single [`CoupledSimulator::advance_batch`] sweep;
//! * **adaptive grant windows** ([`AdaptiveWindow`]) tune the batch length
//!   at run time: when the window pipeline runs deep (the follower is the
//!   bottleneck) the window widens toward the per-type δ_j headroom the
//!   synchronizer already knows, so each rendezvous carries more work;
//!   when the pipeline idles the window shrinks so responses pipeline back
//!   sooner. The controller observes the in-flight window count, not the
//!   raw ring occupancy — a deterministic input, so widths (and the
//!   network kernel's whole time trajectory) are reproducible run to run.
//!
//! The executor is conservative only: the follower never runs ahead of its
//! grant and never rolls back. The optimistic alternative §3.1 argues
//! against lives in [`crate::sync::optimistic`].
//!
//! Protocol → thread/ring mapping (Fig. 3): every non-null message of the
//! window raises the originator time on the follower's synchronizer; the
//! window's grant is promised through [`ConservativeSync::promise`] (a
//! time-stamped null message when it raises the grant past the stimulus);
//! the follower advances to the grant and settles through
//! [`ConservativeSync::settle`], never past it, so the lag invariant
//! `t_local ≤ grant` holds exactly as in the serial executive.
//! Responses produced while the originator has already raced ahead arrive
//! "behind" the network clock — that pipeline lag is counted in
//! [`CouplingStats::deferred_responses`] and injected at the network's
//! current time through the same `inject_responses` path the serial
//! executive uses, which is sound under the feedforward assumption
//! (responses feed monitors, never new stimulus). Because "the network's
//! current time" depends on *where* in the stream a reply is absorbed,
//! the originator absorbs replies only at deterministic pipeline
//! positions (pipeline-full, and the end-of-stream barrier): injected
//! timestamps, window widths, and `deferred_responses` counts are all
//! pure functions of the scenario and configuration, never of how the OS
//! happened to interleave the two threads.

use crate::coupling::{
    inject_responses, CoupledSimulator, Coupling, CouplingStats, Executor, SyncCounters,
};
use crate::error::CastanetError;
use crate::interface::OutboxHandle;
use crate::message::{Message, MessageTypeId};
use crate::ring::{spin_round, spin_rounds, RingConsumer, RingProducer, SpscRing};
use crate::sync::conservative::ConservativeSync;
use castanet_netsim::event::ModuleId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, EventKind, Gauge, Histogram, Phase, Telemetry, Track};
use std::collections::VecDeque;

/// Run-time controller for the batch-window length, bounded below by an
/// eighth of the configured base window and above by the base window plus
/// the per-type processing-delay headroom δ_j (so a widened window never
/// promises further ahead than the synchronizer's own lookahead allows).
///
/// The policy is multiplicative-increase/multiplicative-decrease on the
/// pipeline occupancy (windows in flight over pipeline capacity): a
/// pipeline at least half full means the follower is the bottleneck and
/// each rendezvous should carry more simulated time; an empty pipeline
/// means the follower is starved and narrower windows pipeline responses
/// back sooner. The executor feeds it the in-flight window count — a pure
/// function of the scenario, never of wall-clock thread scheduling — so
/// the width sequence, and with it the whole simulated-time trajectory,
/// is reproducible run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveWindow {
    base: SimDuration,
    headroom: SimDuration,
    floor: SimDuration,
    current: SimDuration,
}

impl AdaptiveWindow {
    /// A controller starting at `base` with widening headroom `headroom`
    /// (typically the δ_j of the stimulus message type).
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero.
    #[must_use]
    pub fn new(base: SimDuration, headroom: SimDuration) -> Self {
        assert!(!base.is_zero(), "adaptive window base must be non-zero");
        let floor = (base / 8).max(SimDuration::from_picos(1));
        AdaptiveWindow {
            base,
            headroom,
            floor,
            current: base,
        }
    }

    /// Feeds one pipeline-occupancy observation to the controller and
    /// returns the window length to use for the next batch. The result
    /// always satisfies `floor() ≤ width ≤ bound()`.
    pub fn observe(&mut self, occupancy: usize, capacity: usize) -> SimDuration {
        if occupancy * 2 >= capacity {
            self.current = (self.current * 2).min(self.bound());
        } else if occupancy == 0 {
            self.current = (self.current / 2).max(self.floor);
        }
        self.current
    }

    /// The width the next window will use.
    #[must_use]
    pub fn current(&self) -> SimDuration {
        self.current
    }

    /// The upper bound: base window plus the δ_j headroom.
    #[must_use]
    pub fn bound(&self) -> SimDuration {
        self.base + self.headroom
    }

    /// The lower bound: an eighth of the base window (at least 1 ps).
    #[must_use]
    pub fn floor(&self) -> SimDuration {
        self.floor
    }
}

/// What a command slot currently holds. Slots are preallocated, so an
/// explicit `Empty` state marks recycled entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CmdKind {
    #[default]
    Empty,
    Window,
    Drain,
}

/// One preallocated command-ring slot: a timing window (stimulus batch in
/// stamp order plus the grant horizon) or a drain request. The `msgs`
/// buffer is `mem::swap`ped with the producer's scratch on push and the
/// follower's scratch on pop, so its capacity circulates instead of being
/// reallocated per window.
#[derive(Debug, Default)]
struct CmdEntry {
    kind: CmdKind,
    msgs: Vec<Message>,
    grant: SimTime,
    quantum: SimDuration,
    quiet_chunks: u32,
    until: SimTime,
}

/// What a reply slot currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum RepKind {
    #[default]
    Empty,
    /// All responses of one window (exactly one per `CmdKind::Window`).
    Window,
    /// Responses produced during a drain chunk (zero or more per drain).
    Drained,
    /// The drain completed quietly (exactly one per `CmdKind::Drain`).
    DrainDone,
    /// The follower hit an unrecoverable error and exits its loop.
    Fatal,
}

/// One preallocated reply-ring slot.
#[derive(Debug, Default)]
struct RepEntry {
    kind: RepKind,
    msgs: Vec<Message>,
    error: Option<CastanetError>,
}

/// The parallel executor's settings: the batched timing windows it
/// pipelines to the follower thread. The rest of a parallel coupling is a
/// [`Coupling`]'s; tune these with [`Coupling::with_batching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallel {
    /// Simulated-time length of one batched timing window: the
    /// [`AdaptiveWindow`] controller's base.
    batch_window: SimDuration,
    /// Pipeline depth: how many windows may be in flight before the
    /// originator waits for a reply (bounded pipeline lag). The command
    /// ring has at least this many slots.
    channel_depth: usize,
}

impl Default for Parallel {
    /// 100 µs windows, four in flight.
    fn default() -> Self {
        Parallel {
            batch_window: SimDuration::from_us(100),
            channel_depth: 4,
        }
    }
}

/// A coupling on the parallel executor: [`Coupling::run`] executes the
/// two engines concurrently. Build one with [`Coupling::new`] like a
/// serial coupling, or convert a serial one with
/// [`Coupling::into_parallel`].
pub type ParallelCoupling<S> = Coupling<S, Parallel>;

impl<S: CoupledSimulator> Coupling<S, Parallel> {
    /// Tunes the batching: `batch_window` of simulated time per timing
    /// window (larger windows = fewer thread rendezvous but coarser
    /// response pipelining; the [`AdaptiveWindow`] controller starts here),
    /// `channel_depth` windows of bounded run-ahead: at most that many
    /// windows are in flight before the originator waits for a reply.
    ///
    /// # Panics
    ///
    /// Panics if `batch_window` is zero or `channel_depth` is zero.
    #[must_use]
    pub fn with_batching(mut self, batch_window: SimDuration, channel_depth: usize) -> Self {
        assert!(!batch_window.is_zero(), "batch window must be non-zero");
        assert!(channel_depth > 0, "need at least one ring slot");
        self.exec = Parallel {
            batch_window,
            channel_depth,
        };
        self
    }
}

impl<S: CoupledSimulator + Send> Executor<S> for Parallel {
    /// Runs the two engines on separate threads. A follower panic is
    /// re-raised once both rings close.
    fn run(c: &mut ParallelCoupling<S>, until: SimTime) -> Result<CouplingStats, CastanetError> {
        let batch_window = c.exec.batch_window;
        let channel_depth = c.exec.channel_depth;
        let drain_quantum = c.drain_quantum;
        let drain_quiet_chunks = c.drain_quiet_chunks;
        let cell_type = c.cell_type;
        let iface = c.iface;
        // δ_j headroom for the adaptive controller, read before the &mut
        // borrows below freeze `c`.
        let headroom = c.sync.type_delta(cell_type).unwrap_or(SimDuration::ZERO);
        let mut window_ctl = AdaptiveWindow::new(batch_window, headroom);
        let net = &mut c.net;
        let stats = &mut c.stats;
        let outbox = &c.outbox;
        let follower = &mut c.follower;
        let sync = &mut c.sync;
        let follower_tel = c.tel.clone();
        // Separate handle for the originator's phase spans: `SpanGuard`
        // borrows its `Telemetry`, and borrowing it out of `obs` would
        // freeze the `&mut obs` every reply needs.
        let phase_tel = c.tel.clone();
        let mut obs = OriginatorObs::new(&c.tel);

        let mut cmd_ring = SpscRing::<CmdEntry>::new(channel_depth);
        // One reply per in-flight window plus headroom, so the follower
        // can always post a DrainDone or Fatal without waiting on the
        // originator.
        let mut rep_ring = SpscRing::<RepEntry>::new(channel_depth + 2);
        let run_result = {
            let (mut cmd_tx, cmd_rx) = cmd_ring.split();
            let (rep_tx, mut rep_rx) = rep_ring.split();
            std::thread::scope(|scope| -> Result<(), CastanetError> {
                let worker = scope.spawn(move || {
                    let mut cmd_rx = cmd_rx;
                    let mut rep_tx = rep_tx;
                    // Close the rings even if the worker panics (debug
                    // asserts), or the originator blocks forever on a
                    // reply that will never come.
                    let worker = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        follower_worker(
                            follower,
                            sync,
                            cell_type,
                            &mut cmd_rx,
                            &mut rep_tx,
                            &follower_tel,
                        );
                    }));
                    rep_tx.close();
                    cmd_rx.close();
                    if let Err(panic) = worker {
                        std::panic::resume_unwind(panic);
                    }
                });
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    originator_loop(
                        &mut cmd_tx,
                        &mut rep_rx,
                        net,
                        stats,
                        outbox,
                        iface,
                        until,
                        channel_depth,
                        &mut window_ctl,
                        drain_quantum,
                        drain_quiet_chunks,
                        &phase_tel,
                        &mut obs,
                    )
                }));
                // Closing both rings (on success, error, *and* unwind)
                // wakes a parked follower so the join returns. Joined
                // here, not by the scope, so a follower panic is re-raised
                // with its own payload.
                cmd_tx.close();
                rep_rx.close();
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
                match result {
                    Ok(r) => r,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            })
        };
        let cmd_waits = cmd_ring.wait_stats();
        let rep_waits = rep_ring.wait_stats();
        c.tel
            .counter("ring.originator_parks")
            .add(cmd_waits.producer_parks + rep_waits.consumer_parks);
        c.tel
            .counter("ring.follower_parks")
            .add(cmd_waits.consumer_parks + rep_waits.producer_parks);
        run_result?;
        Ok(c.stats)
    }
}

/// The originator's three-phase loop: stream timing windows, barrier on
/// outstanding replies, drain the follower's pipeline. Factored out of
/// [`Parallel`]'s `run` so every early return funnels through the
/// ring-closing epilogue there.
///
/// Replies are absorbed only at deterministic points — one blocking pop
/// when the pipeline is full, the rest at the barrier — because the
/// absorption point fixes the network time deferred responses are
/// injected at (see the module docs on reproducibility).
#[allow(clippy::too_many_arguments)]
fn originator_loop(
    cmd_tx: &mut RingProducer<'_, CmdEntry>,
    rep_rx: &mut RingConsumer<'_, RepEntry>,
    net: &mut Kernel,
    stats: &mut CouplingStats,
    outbox: &OutboxHandle,
    iface: ModuleId,
    until: SimTime,
    channel_depth: usize,
    window_ctl: &mut AdaptiveWindow,
    drain_quantum: SimDuration,
    drain_quiet_chunks: u32,
    phase_tel: &Telemetry,
    obs: &mut OriginatorObs,
) -> Result<(), CastanetError> {
    // Producer-side stimulus scratch: swapped into command slots, slot
    // leftovers swap back out, so capacities circulate across the ring.
    let mut scratch: Vec<Message> = Vec::new();
    // Consumer-side reply scratch, same circulation on the reply ring.
    let mut reply_buf: Vec<Message> = Vec::new();
    // Windows sent but not yet answered.
    let mut in_flight = 0usize;
    // Stimulus delivered as of the last completed drain: if no new
    // message reached the follower since, its pipeline is untouched
    // and provably still quiet — re-draining would only burn
    // simulated (and wall-clock) time on an idle DUT.
    let mut drained_at: Option<u64> = None;
    // Originator-side mirror of the largest grant shipped this run;
    // windows that carry neither stimulus nor a new grant are
    // no-ops on the follower and need not rendezvous at all.
    let mut sent_grant = SimTime::ZERO;
    loop {
        // ---- phase 1: stream timing windows -------------------
        let mut grant_span = phase_tel.span(
            Track::Originator,
            net.now().as_picos(),
            Phase::ParallelGrant,
        );
        while let Some(t0) = net.next_event_time().filter(|t| *t < until) {
            // The pipeline is gated on the configured depth, not on the
            // command ring's capacity: the ring holds at least two slots,
            // so at depth 1 its capacity would let a second window run
            // ahead.
            let width = window_ctl.observe(in_flight, channel_depth);
            obs.grant_width.set(width.as_picos());
            let w = until.min(t0 + width);
            let window_start = obs.tel.now_ns();
            let executed = net.run_grant_window(w)?;
            stats.net_events += executed;
            obs.tel.record_span(
                Track::Originator,
                w.as_picos(),
                window_start,
                EventKind::NetWindow { events: executed },
            );
            debug_assert!(
                scratch.is_empty(),
                "originator stimulus scratch held {} leftover message(s) (first stamp {:?})",
                scratch.len(),
                scratch.first().map(|m| m.stamp)
            );
            outbox.drain_into(&mut scratch);
            stats.messages_to_follower += scratch.len() as u64;
            // Maximal-information grant: every event strictly before
            // `w` has run, and source processes schedule their
            // successors as they execute, so the next pending event
            // bounds all future stimulus from below (injected
            // response events are feedforward — they never produce
            // stimulus). With nothing pending, promise only up to
            // the executed front: granting the rest of the batch
            // window would make the follower simulate an idle tail
            // the drain phase handles far more cheaply.
            let grant = match net.next_event_time() {
                Some(t1) => w.max(t1.min(until)),
                None => net.now().min(w),
            };
            if scratch.is_empty() && grant <= sent_grant {
                continue;
            }
            sent_grant = sent_grant.max(grant);
            // Deterministic absorption: replies are taken only at fixed
            // pipeline positions — exactly one here when the pipeline is
            // full, the rest at the phase-2 barrier — never
            // opportunistically. Which window boundary a reply lands on
            // decides the network time its deferred responses are
            // injected at, so absorbing whenever a reply happens to be
            // available would let wall-clock thread scheduling leak into
            // simulated timestamps and break run-to-run reproducibility
            // (replay traces assert bit- *and* cycle-exact responses).
            if in_flight == channel_depth {
                let stall_start = obs.tel.now_ns();
                obs.stalls.inc();
                let mut error = None;
                match pop_reply_blocking(rep_rx, &mut reply_buf, &mut error) {
                    Some(kind) => handle_reply(
                        kind,
                        &mut reply_buf,
                        error,
                        net,
                        stats,
                        iface,
                        &mut in_flight,
                        obs,
                    )?,
                    None => return Err(fatal_from(rep_rx, &mut reply_buf)),
                }
                obs.tel.record_span(
                    Track::Originator,
                    net.now().as_picos(),
                    stall_start,
                    EventKind::BackpressureStall {
                        in_flight: in_flight as u64,
                    },
                );
            }
            obs.window_msgs.record(scratch.len() as u64);
            obs.tel.record(
                Track::Originator,
                net.now().as_picos(),
                EventKind::WindowGranted {
                    grant_ps: grant.as_picos(),
                    msgs: scratch.len() as u64,
                },
            );
            push_cmd(
                cmd_tx,
                rep_rx,
                &mut reply_buf,
                net,
                stats,
                iface,
                &mut in_flight,
                obs,
                |entry| {
                    entry.kind = CmdKind::Window;
                    entry.grant = grant;
                    std::mem::swap(&mut entry.msgs, &mut scratch);
                },
            )?;
            in_flight += 1;
            obs.occupancy.set(in_flight as u64);
            obs.cmd_occupancy.set(cmd_tx.occupancy() as u64);
            if obs.tel.is_enabled() {
                obs.pending.push_back(obs.tel.now_ns());
            }
        }
        // ---- phase 2: barrier — answer every window ------------
        grant_span.set_t_ps(net.now().as_picos());
        drop(grant_span);
        {
            let _wait_span =
                phase_tel.span(Track::Originator, net.now().as_picos(), Phase::ParallelWait);
            while in_flight > 0 {
                let mut error = None;
                match pop_reply_blocking(rep_rx, &mut reply_buf, &mut error) {
                    Some(kind) => handle_reply(
                        kind,
                        &mut reply_buf,
                        error,
                        net,
                        stats,
                        iface,
                        &mut in_flight,
                        obs,
                    )?,
                    None => return Err(fatal_from(rep_rx, &mut reply_buf)),
                }
            }
        }
        if net.next_event_time().is_some_and(|t| t < until) {
            // Injected responses created fresh network work.
            continue;
        }
        // ---- phase 3: drain the follower's pipeline ------------
        // The follower's state only changes when stimulus reaches
        // it; a drain that found the pipeline quiet stays valid
        // until the next delivery (responses injected after the
        // drain only touch the network side).
        if drained_at == Some(stats.messages_to_follower) {
            return Ok(());
        }
        {
            let _drain_span = phase_tel.span(
                Track::Originator,
                net.now().as_picos(),
                Phase::ParallelDrain,
            );
            push_cmd(
                cmd_tx,
                rep_rx,
                &mut reply_buf,
                net,
                stats,
                iface,
                &mut in_flight,
                obs,
                |entry| {
                    entry.kind = CmdKind::Drain;
                    entry.quantum = drain_quantum;
                    entry.quiet_chunks = drain_quiet_chunks;
                    entry.until = until;
                    entry.msgs.clear();
                },
            )?;
            loop {
                let mut error = None;
                match pop_reply_blocking(rep_rx, &mut reply_buf, &mut error) {
                    Some(RepKind::DrainDone) => break,
                    Some(kind) => handle_reply(
                        kind,
                        &mut reply_buf,
                        error,
                        net,
                        stats,
                        iface,
                        &mut in_flight,
                        obs,
                    )?,
                    None => return Err(fatal_from(rep_rx, &mut reply_buf)),
                }
            }
        }
        drained_at = Some(stats.messages_to_follower);
        if net.next_event_time().is_none_or(|t| t >= until) {
            return Ok(());
        }
    }
}

/// Originator-side observation state: cached metric handles plus the send
/// wall-times of windows still in flight (for the grant-latency histogram).
/// All handles are no-ops when the telemetry is disabled, and `pending`
/// stays empty then, so the disabled path costs one branch per use.
struct OriginatorObs {
    tel: Telemetry,
    occupancy: Gauge,
    grant_latency: Histogram,
    window_msgs: Histogram,
    stalls: Counter,
    grant_width: Gauge,
    cmd_occupancy: Gauge,
    sync_counters: SyncCounters,
    pending: VecDeque<u64>,
}

impl OriginatorObs {
    fn new(tel: &Telemetry) -> Self {
        OriginatorObs {
            tel: tel.clone(),
            occupancy: tel.gauge("channel.in_flight"),
            grant_latency: tel.histogram("channel.grant_latency_ns"),
            window_msgs: tel.histogram("channel.window_msgs"),
            stalls: tel.counter("channel.backpressure_stalls"),
            grant_width: tel.gauge("ring.grant_width_ps"),
            cmd_occupancy: tel.gauge("ring.cmd_occupancy"),
            sync_counters: SyncCounters::new(tel),
            pending: VecDeque::new(),
        }
    }
}

/// Pops one reply into the caller's scratch buffers (swapping the slot's
/// message buffer out, leaving the scratch's old — cleared — buffer in).
/// Returns the reply kind, or `None` when the ring is currently empty.
fn take_reply(
    rep_rx: &mut RingConsumer<'_, RepEntry>,
    msgs: &mut Vec<Message>,
    error: &mut Option<CastanetError>,
) -> Option<RepKind> {
    let mut kind = RepKind::Empty;
    msgs.clear();
    *error = None;
    let popped = rep_rx.try_pop_with(|entry| {
        kind = entry.kind;
        entry.kind = RepKind::Empty;
        std::mem::swap(msgs, &mut entry.msgs);
        *error = entry.error.take();
    });
    popped.then_some(kind)
}

/// Blocking reply pop: spin, then park, until a reply arrives or the ring
/// closes empty (`None` — the follower is gone).
fn pop_reply_blocking(
    rep_rx: &mut RingConsumer<'_, RepEntry>,
    msgs: &mut Vec<Message>,
    error: &mut Option<CastanetError>,
) -> Option<RepKind> {
    let mut rounds = 0u32;
    loop {
        if let Some(kind) = take_reply(rep_rx, msgs, error) {
            return Some(kind);
        }
        if rep_rx.is_closed() && !rep_rx.can_pop() {
            return None;
        }
        spin_round();
        rounds += 1;
        if rounds >= spin_rounds() && !rep_rx.can_pop() {
            rep_rx.park_while_empty();
        }
    }
}

/// Originator-side reply handling: inject responses into the network model
/// (through the executor-shared [`inject_responses`] path, in pipelined
/// mode), settle window accounting.
#[allow(clippy::too_many_arguments)]
fn handle_reply(
    kind: RepKind,
    msgs: &mut Vec<Message>,
    error: Option<CastanetError>,
    net: &mut Kernel,
    stats: &mut CouplingStats,
    iface: ModuleId,
    in_flight: &mut usize,
    obs: &mut OriginatorObs,
) -> Result<(), CastanetError> {
    match kind {
        RepKind::Window => {
            *in_flight = in_flight.saturating_sub(1);
            obs.occupancy.set(*in_flight as u64);
            if let Some(sent_ns) = obs.pending.pop_front() {
                obs.grant_latency
                    .record(obs.tel.now_ns().saturating_sub(sent_ns));
            }
            inject_responses(
                net,
                stats,
                iface,
                std::mem::take(msgs),
                true,
                &obs.tel,
                &obs.sync_counters,
            )
            .map(|_| ())
        }
        RepKind::Drained => inject_responses(
            net,
            stats,
            iface,
            std::mem::take(msgs),
            true,
            &obs.tel,
            &obs.sync_counters,
        )
        .map(|_| ()),
        RepKind::Fatal => Err(error.unwrap_or_else(|| {
            CastanetError::Transport("parallel follower reported an unspecified fatal error".into())
        })),
        RepKind::DrainDone | RepKind::Empty => Ok(()),
    }
}

/// Blocking command push. On a full ring the originator first absorbs any
/// queued replies (freeing the follower to make progress — this is what
/// makes the two blocking pushes deadlock-free), then spins, then parks.
/// `fill` is invoked exactly once, on the successful push.
///
/// Under the originator loop's pipeline discipline (`in_flight` is held
/// strictly below the channel depth, itself at most the command-ring
/// capacity, before every push, and ring occupancy never exceeds
/// `in_flight`) the full-ring path cannot engage;
/// it remains as the deadlock-free backstop for any other call pattern.
#[allow(clippy::too_many_arguments)]
fn push_cmd(
    cmd_tx: &mut RingProducer<'_, CmdEntry>,
    rep_rx: &mut RingConsumer<'_, RepEntry>,
    reply_buf: &mut Vec<Message>,
    net: &mut Kernel,
    stats: &mut CouplingStats,
    iface: ModuleId,
    in_flight: &mut usize,
    obs: &mut OriginatorObs,
    mut fill: impl FnMut(&mut CmdEntry),
) -> Result<(), CastanetError> {
    if cmd_tx.try_push_with(&mut fill) {
        return Ok(());
    }
    // The follower is the bottleneck: every pipeline slot is taken.
    // Record the blocked push as a stall span on the originator's track.
    let stall_start = obs.tel.now_ns();
    obs.stalls.inc();
    let mut rounds = 0u32;
    loop {
        if cmd_tx.is_closed() {
            return Err(fatal_from(rep_rx, reply_buf));
        }
        let mut progressed = false;
        loop {
            let mut error = None;
            let Some(kind) = take_reply(rep_rx, reply_buf, &mut error) else {
                break;
            };
            handle_reply(kind, reply_buf, error, net, stats, iface, in_flight, obs)?;
            progressed = true;
        }
        if cmd_tx.try_push_with(&mut fill) {
            break;
        }
        if progressed {
            rounds = 0;
            continue;
        }
        spin_round();
        rounds += 1;
        if rounds >= spin_rounds() && !cmd_tx.can_push() {
            cmd_tx.park_while_full();
        }
    }
    obs.tel.record_span(
        Track::Originator,
        net.now().as_picos(),
        stall_start,
        EventKind::BackpressureStall {
            in_flight: *in_flight as u64,
        },
    );
    Ok(())
}

/// Scans the reply ring for the fatal error that made the follower thread
/// exit; falls back to a transport error if none surfaced.
fn fatal_from(rep_rx: &mut RingConsumer<'_, RepEntry>, msgs: &mut Vec<Message>) -> CastanetError {
    let mut error = None;
    while let Some(kind) = pop_reply_blocking(rep_rx, msgs, &mut error) {
        if kind == RepKind::Fatal {
            return error.unwrap_or_else(|| {
                CastanetError::Transport(
                    "parallel follower reported an unspecified fatal error".into(),
                )
            });
        }
    }
    CastanetError::Transport("parallel follower thread terminated unexpectedly".into())
}

/// The follower thread: pops commands off the ring (spin-then-park when
/// empty), plays timing windows and drain requests in order, and pushes
/// replies back. The spawn wrapper in [`Parallel`]'s `run` closes
/// both rings after this returns — or unwinds — so a blocked peer wakes
/// and observes termination.
fn follower_worker<S: CoupledSimulator>(
    follower: &mut S,
    sync: &mut ConservativeSync,
    cell_type: MessageTypeId,
    cmd_rx: &mut RingConsumer<'_, CmdEntry>,
    rep_tx: &mut RingProducer<'_, RepEntry>,
    tel: &Telemetry,
) {
    // Consumer-side stimulus scratch: swapped with command slots, drained
    // by `conservative_step`, so one buffer serves the whole run.
    let mut msgs: Vec<Message> = Vec::new();
    let mut idle_rounds = 0u32;
    loop {
        let mut kind = CmdKind::Empty;
        let mut grant = SimTime::ZERO;
        let mut quantum = SimDuration::ZERO;
        let mut quiet_chunks = 0u32;
        let mut until = SimTime::ZERO;
        debug_assert!(
            msgs.is_empty(),
            "follower stimulus scratch leaked {} message(s)",
            msgs.len()
        );
        let popped = cmd_rx.try_pop_with(|entry| {
            kind = entry.kind;
            entry.kind = CmdKind::Empty;
            grant = entry.grant;
            quantum = entry.quantum;
            quiet_chunks = entry.quiet_chunks;
            until = entry.until;
            std::mem::swap(&mut msgs, &mut entry.msgs);
        });
        if !popped {
            if cmd_rx.is_closed() && !cmd_rx.can_pop() {
                break;
            }
            spin_round();
            idle_rounds += 1;
            if idle_rounds >= spin_rounds() && !cmd_rx.can_pop() {
                cmd_rx.park_while_empty();
            }
            continue;
        }
        idle_rounds = 0;
        match kind {
            CmdKind::Empty => {}
            CmdKind::Window => {
                match conservative_step(follower, sync, cell_type, &mut msgs, grant, tel) {
                    Ok(responses) => {
                        if !push_reply(rep_tx, RepKind::Window, responses, None) {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = push_reply(rep_tx, RepKind::Fatal, Vec::new(), Some(e));
                        break;
                    }
                }
            }
            CmdKind::Drain => {
                match drain_step(
                    follower,
                    sync,
                    cell_type,
                    quantum,
                    quiet_chunks,
                    until,
                    rep_tx,
                    tel,
                ) {
                    Ok(true) => {
                        if !push_reply(rep_tx, RepKind::DrainDone, Vec::new(), None) {
                            break;
                        }
                    }
                    Ok(false) => break,
                    Err(e) => {
                        let _ = push_reply(rep_tx, RepKind::Fatal, Vec::new(), Some(e));
                        break;
                    }
                }
            }
        }
    }
}

/// Blocking reply push: spin, then park, until a slot frees up or the
/// ring closes (`false` — the originator is gone). The payload is moved
/// into the slot exactly once, on the successful push.
fn push_reply(
    rep_tx: &mut RingProducer<'_, RepEntry>,
    kind: RepKind,
    msgs: Vec<Message>,
    error: Option<CastanetError>,
) -> bool {
    let mut payload = Some((msgs, error));
    let mut rounds = 0u32;
    loop {
        let pushed = rep_tx.try_push_with(|entry| {
            let (m, e) = payload.take().expect("reply filled exactly once");
            entry.kind = kind;
            entry.msgs = m;
            entry.error = e;
        });
        if pushed {
            return true;
        }
        if rep_tx.is_closed() {
            return false;
        }
        spin_round();
        rounds += 1;
        if rounds >= spin_rounds() && !rep_tx.can_push() {
            rep_tx.park_while_full();
        }
    }
}

/// Plays one timing window on the follower: receive the stimulus (raising
/// the originator clock per message), promise the window's grant (a null
/// message only if the stimulus did not already reach it), sweep the
/// whole window in one batched advance, then settle the local clock —
/// never past the grant. Drains the stimulus scratch so its capacity
/// returns to the ring.
fn conservative_step<S: CoupledSimulator>(
    follower: &mut S,
    sync: &mut ConservativeSync,
    cell_type: MessageTypeId,
    msgs: &mut Vec<Message>,
    grant: SimTime,
    tel: &Telemetry,
) -> Result<Vec<Message>, CastanetError> {
    for msg in msgs.iter() {
        sync.receive(msg.type_id, msg.stamp, false)?;
        tel.record(
            Track::Follower,
            msg.stamp.as_picos(),
            EventKind::StimulusEnqueued {
                type_id: msg.type_id.0,
                port: msg.port as u32,
                stamp_ps: msg.stamp.as_picos(),
            },
        );
    }
    sync.promise(cell_type, grant)?;
    let granted = sync.grant();
    let advance_start = tel.now_ns();
    let mut responses = Vec::new();
    // Play the batch lazily: advance to just before each stamp, then
    // deliver. Handing the whole window to the follower up front would
    // keep its pending-event set large for the window's entire span,
    // which prices every queue operation of an event-driven follower up
    // (and defeats idle skipping between cells); delivered one cell
    // ahead of the sweep, the follower's queue stays as small as under
    // the serial per-event rendezvous.
    for msg in msgs.drain(..) {
        let target = msg.stamp.min(granted);
        if target > follower.now() {
            // `target > now() ≥ 0`, so the 1 ps step back cannot
            // underflow; it keeps the clock edge at the stamp itself
            // ahead of the delivery.
            let play_from = target - SimDuration::from_picos(1);
            if play_from > follower.now() {
                responses.extend(follower.advance_batch(play_from)?);
            }
        }
        follower.deliver(msg)?;
    }
    responses.extend(follower.advance_batch(granted)?);
    tel.record_span(
        Track::Follower,
        granted.as_picos(),
        advance_start,
        EventKind::FollowerAdvance {
            granted_ps: granted.as_picos(),
            responses: responses.len() as u64,
        },
    );
    sync.settle(follower.now());
    Ok(responses)
}

/// Drains the follower's pipeline in `quantum`-sized chunks, forwarding
/// responses as they surface. Returns `Ok(true)` when quiet, `Ok(false)`
/// when the originator went away mid-drain.
#[allow(clippy::too_many_arguments)]
fn drain_step<S: CoupledSimulator>(
    follower: &mut S,
    sync: &mut ConservativeSync,
    cell_type: MessageTypeId,
    quantum: SimDuration,
    quiet_chunks: u32,
    until: SimTime,
    rep_tx: &mut RingProducer<'_, RepEntry>,
    tel: &Telemetry,
) -> Result<bool, CastanetError> {
    let mut quiet = 0u32;
    loop {
        let horizon = (follower.now().max(sync.local_time()) + quantum).min(until);
        sync.promise(cell_type, horizon)?;
        let granted = sync.grant();
        let chunk_start = tel.now_ns();
        let responses = follower.advance_batch(granted)?;
        tel.record_span(
            Track::Follower,
            granted.as_picos(),
            chunk_start,
            EventKind::DrainChunk {
                horizon_ps: granted.as_picos(),
                responses: responses.len() as u64,
            },
        );
        sync.settle(follower.now());
        if responses.is_empty() {
            quiet += 1;
            if quiet >= quiet_chunks || follower.now() >= until {
                return Ok(true);
            }
        } else {
            quiet = 0;
            if !push_reply(rep_tx, RepKind::Drained, responses, None) {
                return Ok(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
    use crate::interface::CastanetInterfaceProcess;
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;
    use castanet_atm::traffic::source::{payload_seq, TrafficSourceProcess};
    use castanet_atm::traffic::Cbr;
    use castanet_netsim::event::PortId;
    use castanet_netsim::process::{CollectorHandle, CollectorProcess};
    use castanet_rtl::compiled::LaneBank;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    const CLK: SimDuration = SimDuration::from_ns(20);

    /// Full co-verification fixture (cycle-based follower): CBR source ->
    /// interface -> 2-port RTL switch (route 1/40 -> line 1 as 7/70) ->
    /// response -> collector. Same shape as the serial coupling's fixture.
    fn build(cells: u64, gap: SimDuration) -> (Coupling<CycleCosim>, CollectorHandle) {
        let mut net = Kernel::new(7);
        let node = net.add_node("coverify");
        let src = net.add_module(
            node,
            "src",
            Box::new(
                TrafficSourceProcess::new(VpiVci::uni(1, 40).unwrap(), Box::new(Cbr::new(gap)))
                    .with_limit(cells),
            ),
        );
        let mut sync = ConservativeSync::new();
        let cell_type = sync.register_type(CLK * 53);
        let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
        let iface = net.add_module(node, "castanet", Box::new(iface_proc));
        net.connect_stream(src, PortId(0), iface, PortId(0))
            .unwrap();
        let (collector, got) = CollectorProcess::new();
        let sink = net.add_module(node, "sink", Box::new(collector));
        net.connect_stream(iface, PortId(1), sink, PortId(0))
            .unwrap();

        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 64,
            table_capacity: 16,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let bank = LaneBank::new(vec![Box::new(switch)]);
        let mut follower = CycleCosim::new(bank, CLK, cell_type, HeaderFormat::Uni);
        follower
            .add_ingress(IngressIndices {
                data: 0,
                sync: 1,
                enable: 2,
            })
            .unwrap();
        follower
            .add_ingress(IngressIndices {
                data: 3,
                sync: 4,
                enable: 5,
            })
            .unwrap();
        follower
            .add_egress(EgressIndices {
                data: 0,
                sync: 1,
                valid: 2,
            })
            .unwrap();
        follower
            .add_egress(EgressIndices {
                data: 3,
                sync: 4,
                valid: 5,
            })
            .unwrap();
        (
            Coupling::new(net, follower, sync, cell_type, iface, outbox),
            got,
        )
    }

    fn collected_cells(got: &CollectorHandle) -> Vec<AtmCell> {
        got.take()
            .into_iter()
            .map(|(_, pkt)| pkt.payload::<AtmCell>().expect("cell payload").clone())
            .collect()
    }

    #[test]
    fn cells_flow_through_the_parallel_executor() {
        let (serial, got) = build(5, SimDuration::from_us(10));
        let mut coupling = serial.into_parallel();
        let stats = coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(stats.messages_to_follower, 5);
        assert_eq!(stats.responses, 5);
        assert_eq!(stats.late_responses, 0);
        assert_eq!(got.len(), 5);
        for (i, cell) in collected_cells(&got).iter().enumerate() {
            assert_eq!(cell.id(), VpiVci::uni(7, 70).unwrap(), "switch retagged");
            assert_eq!(payload_seq(&cell.payload), i as u64, "order preserved");
        }
        assert!(coupling.sync().lag_invariant_holds());
    }

    #[test]
    fn parallel_matches_serial_end_to_end() {
        let (mut serial, got_serial) = build(20, SimDuration::from_us(3));
        let s_stats = serial.run(SimTime::from_ms(2)).unwrap();

        let (parallel, got_parallel) = build(20, SimDuration::from_us(3));
        let mut parallel = parallel.into_parallel();
        let p_stats = parallel.run(SimTime::from_ms(2)).unwrap();

        assert_eq!(p_stats.messages_to_follower, s_stats.messages_to_follower);
        assert_eq!(p_stats.responses, s_stats.responses);
        assert_eq!(
            collected_cells(&got_serial),
            collected_cells(&got_parallel),
            "identical observable cell stream under both executors"
        );
    }

    #[test]
    fn batching_parameters_do_not_change_the_trace() {
        let mut reference: Option<Vec<AtmCell>> = None;
        for (window_us, depth) in [(10u64, 1usize), (50, 2), (100, 4), (500, 8)] {
            let (serial, got) = build(12, SimDuration::from_us(7));
            let mut coupling = serial
                .into_parallel()
                .with_batching(SimDuration::from_us(window_us), depth);
            coupling.run(SimTime::from_ms(2)).unwrap();
            let cells = collected_cells(&got);
            assert_eq!(cells.len(), 12, "window {window_us} us / depth {depth}");
            match &reference {
                None => reference = Some(cells),
                Some(r) => assert_eq!(&cells, r, "window {window_us} us / depth {depth}"),
            }
        }
    }

    #[test]
    fn adaptive_window_respects_floor_and_delta_bound() {
        let base = SimDuration::from_us(100);
        let headroom = SimDuration::from_us(60);
        let mut ctl = AdaptiveWindow::new(base, headroom);
        assert_eq!(ctl.current(), base);
        // Deep ring: widen, capped at base + δ_j.
        for _ in 0..10 {
            let w = ctl.observe(4, 4);
            assert!(w <= ctl.bound());
        }
        assert_eq!(ctl.current(), ctl.bound());
        // Idle ring: shrink, floored at base / 8.
        for _ in 0..20 {
            let w = ctl.observe(0, 4);
            assert!(w >= ctl.floor());
        }
        assert_eq!(ctl.current(), ctl.floor());
        // Moderate occupancy holds steady.
        let w = ctl.observe(1, 4);
        assert_eq!(w, ctl.floor());
    }

    #[test]
    fn run_is_idempotent_after_completion() {
        let (serial, got) = build(2, SimDuration::from_us(10));
        let mut coupling = serial.into_parallel();
        coupling.run(SimTime::from_ms(1)).unwrap();
        let before = coupling.stats();
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(coupling.stats(), before);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_network_terminates_without_deadlock() {
        // No sources at all: the executor must drain and come back.
        let mut net = Kernel::new(3);
        let node = net.add_node("n");
        let mut sync = ConservativeSync::new();
        let cell_type = sync.register_type(CLK * 53);
        let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
        let iface = net.add_module(node, "castanet", Box::new(iface_proc));
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 8,
            table_capacity: 8,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let mut follower = CycleCosim::new(
            LaneBank::new(vec![Box::new(switch)]),
            CLK,
            cell_type,
            HeaderFormat::Uni,
        );
        follower
            .add_ingress(IngressIndices {
                data: 0,
                sync: 1,
                enable: 2,
            })
            .unwrap();
        let mut coupling = ParallelCoupling::new(net, follower, sync, cell_type, iface, outbox);
        let stats = coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(stats.messages_to_follower, 0);
        assert_eq!(stats.responses, 0);
    }

    #[test]
    fn telemetry_captures_both_tracks_and_channel_metrics() {
        let (serial, got) = build(20, SimDuration::from_us(3));
        let tel = Telemetry::enabled();
        let mut coupling = serial.with_telemetry(&tel).into_parallel();
        coupling.run(SimTime::from_ms(2)).unwrap();
        assert_eq!(got.len(), 20);
        let events = tel.events();
        assert!(events.iter().any(|e| e.track == Track::Originator));
        assert!(events.iter().any(|e| e.track == Track::Follower));
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        for expected in [
            "net_window",
            "window_granted",
            "stimulus_enqueued",
            "follower_advance",
            "drain_chunk",
            "response_injected",
        ] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
        // Pipelined lag is deferred, never late.
        assert!(!names.contains("late_response"));
        let snap = tel.metrics_snapshot();
        assert!(snap.histogram("channel.window_msgs").unwrap().count > 0);
        assert!(snap.histogram("channel.grant_latency_ns").unwrap().count > 0);
        assert_eq!(
            snap.gauge("channel.in_flight"),
            Some(0),
            "every window answered by the end of the run"
        );
        assert_eq!(
            snap.counter("originator.net_events"),
            Some(coupling.stats().net_events)
        );
        // Ring instrumentation: the adaptive controller publishes its
        // width, and the park counters exist (zero on fast runs).
        assert!(snap.gauge("ring.grant_width_ps").is_some());
        assert!(snap.counter("ring.originator_parks").is_some());
        assert!(snap.counter("ring.follower_parks").is_some());
    }

    #[test]
    fn deferred_lag_is_not_counted_late() {
        let (serial, _got) = build(20, SimDuration::from_us(3));
        let mut coupling = serial.into_parallel();
        let stats = coupling.run(SimTime::from_ms(2)).unwrap();
        assert_eq!(stats.late_responses, 0, "pipeline lag is never 'late'");
    }

    #[test]
    fn preflight_accepts_the_fixture_and_strict_mode_runs() {
        let (serial, got) = build(3, SimDuration::from_us(10));
        let mut coupling = serial.into_parallel().with_strict(true);
        assert!(coupling.preflight().is_ok());
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(got.len(), 3);
    }
}
