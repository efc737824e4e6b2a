//! The simulator coupling: network simulator ↔ HDL simulator (or board).
//!
//! This is CASTANET's executive. The network kernel is the *originator*;
//! whatever implements [`CoupledSimulator`] is the *follower* whose time
//! always lags. The loop implements §3.1's discipline:
//!
//! 1. before the network executes its next event at `t`, the follower is
//!    granted (via a time-stamped null message) and runs all its events
//!    *strictly before* `t`;
//! 2. responses the follower produced are injected back into the network
//!    model — they carry stamps `< t`, so nothing arrives in anyone's past;
//! 3. the network executes its event; cells the interface process captured
//!    are delivered to the follower as time-stamped messages.
//!
//! Because grants only ever come from the originator's clock, the follower
//! can never overtake it, and because every message raises the grant, the
//! follower can never starve: no causality errors, no deadlock — the
//! properties the conservative protocol promises.

use crate::entity::CosimEntity;
use crate::error::CastanetError;
use crate::interface::{response_packet, OutboxHandle, RESPONSE_PORT_BASE};
use crate::message::{Message, MessagePayload, MessageTypeId};
use crate::sync::conservative::{ConservativeSync, SyncStats};
use castanet_netsim::event::{ModuleId, PortId};
use castanet_netsim::kernel::Kernel;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, EventKind, Phase, Telemetry, Track};
use castanet_rtl::sim::Simulator;

pub use crate::parallel::{Parallel, ParallelCoupling};

/// The follower side of a coupling: an HDL simulation, a hardware test
/// board session, or anything else that can consume time-stamped stimulus
/// and produce time-stamped responses.
pub trait CoupledSimulator {
    /// Accepts one stimulus message (stamped with the originator's time).
    ///
    /// # Errors
    ///
    /// Implementation-specific delivery failures.
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError>;

    /// Advances local time, processing all local events strictly before
    /// `horizon`, and returns the responses produced.
    ///
    /// # Errors
    ///
    /// Implementation-specific simulation failures.
    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError>;

    /// Attaches a telemetry handle so the follower can publish its own
    /// metrics (clock counts, skipped idle stretches, …). The default is a
    /// no-op: followers without internal counters need not care.
    fn set_telemetry(&mut self, tel: &Telemetry) {
        let _ = tel;
    }

    /// Advances local time all the way to `horizon`, returning *every*
    /// response produced along the way — unlike [`advance_until`], which
    /// may stop at the first response so the serial coupling can
    /// re-evaluate its horizon with zero overshoot.
    ///
    /// Batching executors ([`crate::parallel::ParallelCoupling`]) use this
    /// entry point: under the feedforward assumption (responses only feed
    /// monitors, never new stimulus) running past a response is safe, and
    /// doing so amortizes the per-step bookkeeping across the whole grant
    /// window. The default implementation loops [`advance_until`];
    /// followers override it with a cheaper batched sweep.
    ///
    /// [`advance_until`]: CoupledSimulator::advance_until
    ///
    /// # Errors
    ///
    /// Implementation-specific simulation failures.
    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        let mut out = Vec::new();
        loop {
            let responses = self.advance_until(horizon)?;
            if responses.is_empty() {
                return Ok(out);
            }
            out.extend(responses);
        }
    }

    /// The follower's current local time.
    fn now(&self) -> SimTime;

    /// `true` when the follower knows that an advance to `horizon` has
    /// nothing to simulate and so returns at once. The serial coupling
    /// uses it only to skip timing such advances for the trace; the
    /// default `false` is always correct.
    fn idle_before(&self, horizon: SimTime) -> bool {
        let _ = horizon;
        false
    }

    /// Error-level structural findings about the follower itself, each
    /// rendered as a `location: message` string prefixed with its stable
    /// diagnostic code. Strict-mode [`Coupling::run`] refuses to start
    /// while this is non-empty. The default reports nothing — followers
    /// without an introspectable structure (hardware boards, opaque
    /// simulators) are not penalized; [`RtlCosim`] overrides it with the
    /// error-level `CAST1xx` netlist analyses.
    fn structural_preflight(&self) -> Vec<String> {
        Vec::new()
    }

    /// A checkpoint of the follower state. No executor calls it, since both
    /// are conservative, and no follower in this crate overrides the
    /// default `None`; it stays only because the E1 benchmark's adapter
    /// implements it.
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// An event-driven RTL simulation with its co-simulation entity, as one
/// coupled follower.
pub struct RtlCosim {
    sim: Simulator,
    entity: CosimEntity,
}

impl std::fmt::Debug for RtlCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlCosim")
            .field("now", &self.sim.now())
            .field("entity", &self.entity)
            .finish()
    }
}

impl RtlCosim {
    /// Pairs a prepared RTL simulation (clock, DUT, signals) with its
    /// entity (ingress/egress registrations done).
    #[must_use]
    pub fn new(sim: Simulator, entity: CosimEntity) -> Self {
        RtlCosim { sim, entity }
    }

    /// Read access to the RTL simulator (e.g. for counters).
    #[must_use]
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access (e.g. for VCD tracing setup).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Read access to the entity.
    #[must_use]
    pub fn entity(&self) -> &CosimEntity {
        &self.entity
    }
}

impl CoupledSimulator for RtlCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        self.entity.deliver(&mut self.sim, &msg)?;
        Ok(())
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Step one time point at a time and stop at the *first* DUT
        // response: the coupling re-evaluates the network's event horizon
        // after every injection, which keeps the follower's overshoot past
        // a response at zero — important when responses feed back into the
        // network model.
        loop {
            let responses = self.entity.collect();
            if !responses.is_empty() {
                self.sim.publish_queue_telemetry();
                return Ok(responses);
            }
            match self.sim.next_time() {
                Some(t) if t < horizon => {
                    self.sim.step_time()?;
                }
                _ => {
                    self.sim.publish_queue_telemetry();
                    return Ok(self.entity.collect());
                }
            }
        }
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Batched sweep: run the whole window in one kernel call and drain
        // the egress monitors once. The monitors stamp each cell at its
        // completion edge, so collecting late loses no timing information —
        // this skips the per-time-point `collect` (one atomic load per
        // egress line) that `advance_until`'s zero-overshoot loop pays.
        self.sim.run_until(horizon)?;
        Ok(self.entity.collect())
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn idle_before(&self, horizon: SimTime) -> bool {
        self.sim.pending_time().is_none_or(|t| t >= horizon)
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.sim.set_telemetry(tel);
    }

    fn structural_preflight(&self) -> Vec<String> {
        self.sim.netlist().error_findings()
    }
}

/// Counters of one coupling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CouplingStats {
    /// Network-side events executed.
    pub net_events: u64,
    /// Stimulus messages delivered to the follower.
    pub messages_to_follower: u64,
    /// Responses injected back into the network model.
    pub responses: u64,
    /// Responses whose stamp was in the network's past even though the
    /// executor was *not* pipelining — a feedforward-assumption violation.
    /// Must stay 0 when the protocol is obeyed; counted instead of silently
    /// clamped. Always 0 under [`crate::parallel::ParallelCoupling`], whose
    /// behind-the-clock arrivals are expected pipeline lag and land in
    /// [`deferred_responses`](Self::deferred_responses) instead.
    pub late_responses: u64,
    /// Responses injected behind the network clock, whatever the executor:
    /// every late response counts here too, and under
    /// [`crate::parallel::ParallelCoupling`] the originator running ahead
    /// of the follower makes a non-zero value the *normal* case (pipeline
    /// lag, not a protocol violation). Serial and parallel runs of the same
    /// scenario can therefore be compared on this counter directly.
    pub deferred_responses: u64,
}

/// Live counter mirrors of the [`CouplingStats`] deferral fields, under
/// the executor-independent `sync.*` names — serial, parallel and
/// compiled runs of the same scenario expose the same metric namespace,
/// so dashboards and the console exporter need no per-executor casing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncCounters {
    /// `sync.deferred_responses` — responses injected behind the network
    /// clock (pipeline lag under the parallel executor).
    deferred: Counter,
    /// `sync.late_responses` — feedforward violations (must stay 0).
    late: Counter,
}

impl SyncCounters {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        SyncCounters {
            deferred: tel.counter("sync.deferred_responses"),
            late: tel.counter("sync.late_responses"),
        }
    }
}

/// Injects follower responses into the network model — the single
/// bookkeeping path shared by the serial [`Coupling`] and the parallel
/// executor, so the two keep identical counter semantics.
///
/// A response stamped behind the network clock is re-stamped to "now" and
/// counted in `deferred_responses`; when the executor is not `pipelined`
/// (serial coupling: the follower never runs concurrently with the
/// network), the same arrival additionally counts as a `late_response`,
/// because only a feedforward violation can produce it there. A call that
/// deferred anything records one `sync.deferred_window` phase span, from
/// its first deferral to the end of the injection pass.
pub(crate) fn inject_responses(
    net: &mut Kernel,
    stats: &mut CouplingStats,
    iface: ModuleId,
    responses: Vec<Message>,
    pipelined: bool,
    tel: &Telemetry,
    counters: &SyncCounters,
) -> Result<usize, CastanetError> {
    let mut injected = 0;
    // Read the clock only once a response is actually deferred: most
    // passes defer nothing and would discard the stamp.
    let mut pass_start = None;
    for msg in responses {
        let MessagePayload::Cell(cell) = msg.payload else {
            // Undecodable DUT output (raw payload): the network model
            // cannot route it; the comparison layer is where such
            // corruption is detected and reported.
            continue;
        };
        let now = net.now();
        let at = if msg.stamp < now {
            stats.deferred_responses += 1;
            pass_start.get_or_insert_with(|| tel.now_ns());
            counters.deferred.inc();
            let kind = if pipelined {
                EventKind::DeferredResponse {
                    stamp_ps: msg.stamp.as_picos(),
                    net_ps: now.as_picos(),
                }
            } else {
                stats.late_responses += 1;
                counters.late.inc();
                EventKind::LateResponse {
                    stamp_ps: msg.stamp.as_picos(),
                    net_ps: now.as_picos(),
                }
            };
            tel.record(Track::Originator, now.as_picos(), kind);
            now
        } else {
            msg.stamp
        };
        tel.record(
            Track::Originator,
            at.as_picos(),
            EventKind::ResponseInjected {
                stamp_ps: msg.stamp.as_picos(),
                at_ps: at.as_picos(),
                port: msg.port as u32,
            },
        );
        net.inject_packet(
            iface,
            PortId(RESPONSE_PORT_BASE + msg.port),
            response_packet(cell),
            at,
        )?;
        stats.responses += 1;
        injected += 1;
    }
    if let Some(start) = pass_start.filter(|_| tel.micro_gate()) {
        tel.record_phase(
            Track::Originator,
            net.now().as_picos(),
            Phase::SyncDeferredWindow,
            start,
        );
    }
    Ok(injected)
}

/// An execution policy for a [`Coupling`]: how [`Coupling::run`] plays
/// the §3.1 protocol between the two simulators. There are two:
///
/// * [`Serial`] interleaves both simulators on the calling thread and
///   re-evaluates the network's event horizon after every follower
///   response, so the follower never overshoots one;
/// * [`Parallel`] runs the follower on its own thread and pipelines
///   batched timing windows to it (see [`crate::parallel`]).
///
/// Everything else about a coupling — its parts, builders, pre-flight and
/// accessors — is the same under both.
pub trait Executor<S: CoupledSimulator>: Default + std::fmt::Debug + Sized {
    /// Runs `coupling` until no activity remains before `until` on either
    /// side. [`Coupling::run`] has already done the strict pre-flight.
    ///
    /// # Errors
    ///
    /// Propagates simulator, conversion and synchronization errors.
    fn run(
        coupling: &mut Coupling<S, Self>,
        until: SimTime,
    ) -> Result<CouplingStats, CastanetError>;
}

/// The serial executor: both simulators on the calling thread, one
/// network event at a time, with zero follower overshoot past a response
/// (see [`CoupledSimulator::advance_until`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Serial;

/// The coupling executive, run by the executor `X` ([`Serial`] by
/// default, or [`Parallel`] as [`ParallelCoupling`]).
///
/// Construction recipe: build a network model containing a
/// [`crate::interface::CastanetInterfaceProcess`], build a follower (e.g.
/// [`RtlCosim`]), then [`Coupling::new`] with the interface's module id and
/// outbox. A serial coupling moves to the parallel executor with
/// [`Coupling::into_parallel`].
pub struct Coupling<S: CoupledSimulator, X = Serial> {
    pub(crate) net: Kernel,
    pub(crate) follower: S,
    pub(crate) sync: ConservativeSync,
    pub(crate) cell_type: MessageTypeId,
    pub(crate) outbox: OutboxHandle,
    pub(crate) iface: ModuleId,
    pub(crate) stats: CouplingStats,
    /// Largest time-update promise sent to the follower. Promises are
    /// monotone: once the originator has declared "no stimulus before t",
    /// later (injection-created) events may run earlier on the network
    /// side, but they must not generate *stimulus* before t — the
    /// feedforward assumption of the paper's flow. Violations surface as
    /// causality errors from the synchronizer.
    pub(crate) promised: SimTime,
    /// Chunk size of the final drain phase (see [`Coupling::with_drain`]).
    pub(crate) drain_quantum: SimDuration,
    /// Quiet drain chunks required before the run is declared complete.
    pub(crate) drain_quiet_chunks: u32,
    /// When set, [`Coupling::run`] refuses to start until the assembled
    /// configuration passes the static pre-flight checks (see
    /// [`Coupling::preflight`]).
    pub(crate) strict: bool,
    /// Reused drain buffer for the serial per-event outbox pump: once
    /// warm, the stimulus path runs without allocating.
    pub(crate) outbox_scratch: Vec<Message>,
    /// Telemetry handle; disabled (all recording a no-op) by default.
    pub(crate) tel: Telemetry,
    /// Cached `sync.*` counter handles (inert until telemetry attaches).
    pub(crate) sync_counters: SyncCounters,
    /// The executor's own settings.
    pub(crate) exec: X,
}

impl<S: CoupledSimulator, X: std::fmt::Debug> std::fmt::Debug for Coupling<S, X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coupling")
            .field("net_now", &self.net.now())
            .field("follower_now", &self.follower.now())
            .field("executor", &self.exec)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<S: CoupledSimulator, X: Executor<S>> Coupling<S, X> {
    /// Assembles a coupling. `sync` must already have `cell_type`
    /// registered (with the cell's processing delay δ), and `iface`/`outbox`
    /// must belong to the interface process inside `net`.
    #[must_use]
    pub fn new(
        net: Kernel,
        follower: S,
        sync: ConservativeSync,
        cell_type: MessageTypeId,
        iface: ModuleId,
        outbox: OutboxHandle,
    ) -> Self {
        Coupling {
            net,
            follower,
            sync,
            cell_type,
            outbox,
            iface,
            stats: CouplingStats::default(),
            promised: SimTime::ZERO,
            drain_quantum: SimDuration::from_us(50),
            drain_quiet_chunks: 2,
            strict: false,
            outbox_scratch: Vec::new(),
            tel: Telemetry::disabled(),
            sync_counters: SyncCounters::default(),
            exec: X::default(),
        }
    }

    /// Attaches a telemetry handle to every layer of the coupling: the
    /// network kernel, the conservative synchronizer and the follower all
    /// publish into its metrics registry, and [`Coupling::run`] records
    /// structured protocol events into its trace sink. Pass
    /// [`Telemetry::disabled`] (the default) for zero-overhead operation.
    ///
    /// The parallel executor adds its transport metrics: `channel.in_flight`
    /// occupancy, `channel.grant_latency_ns`, `channel.window_msgs`,
    /// `channel.backpressure_stalls`, the ring gauges
    /// `ring.grant_width_ps` / `ring.cmd_occupancy` and the park counters
    /// `ring.originator_parks` / `ring.follower_parks`. Both of its threads
    /// record into the shared trace sink, each on its own track.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self.sync_counters = SyncCounters::new(tel);
        self.net.set_telemetry(tel);
        self.sync.set_telemetry(tel);
        self.follower.set_telemetry(tel);
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`Coupling::with_telemetry`] was called).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Enables (or disables) strict mode: [`Coupling::run`] then executes
    /// [`Coupling::preflight`] before the first event and fails fast with
    /// [`CastanetError::Preflight`] on a rejected configuration, instead of
    /// panicking or corrupting results mid-run.
    #[must_use]
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Whether strict pre-flight mode is enabled.
    #[must_use]
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Static pre-flight verification of the assembled coupling — the
    /// error-level subset of the `castanet-lint` analyses that the core can
    /// check without knowing the follower's concrete type:
    ///
    /// * `CAST001` — the synchronizer has no registered message types, so no
    ///   grant can ever be issued (§3.1 liveness);
    /// * `CAST003` — the coupling's `cell_type` is not registered with the
    ///   synchronizer: every `receive` would fail;
    /// * `CAST010` — the grant-horizon monotonicity predicate does not hold
    ///   on the assembled synchronizer;
    /// * `CAST021` — a declared interface input port collides with the
    ///   `RESPONSE_PORT_BASE..` namespace reserved for response injection;
    /// * `CAST040` — the interface module id does not exist in the kernel;
    ///
    /// plus the follower's own
    /// [`structural_preflight`](CoupledSimulator::structural_preflight) —
    /// for [`RtlCosim`] the error-level `CAST1xx` netlist analyses
    /// (combinational loops, multi-driver conflicts, broken sensitivity
    /// lists, unsafe gated clocks).
    ///
    /// The full analysis (warnings, pin maps, RTL widths) lives in the
    /// `castanet-lint` crate, which layers on top of this one.
    ///
    /// # Errors
    ///
    /// Returns [`CastanetError::Preflight`] listing every finding.
    pub fn preflight(&self) -> Result<(), CastanetError> {
        let (net, sync, iface) = (&self.net, &self.sync, self.iface);
        let mut findings = Vec::new();
        if sync.type_count() == 0 {
            findings.push(
                "CAST001: no message types registered with the synchronizer; \
                 the follower can never be granted simulation time"
                    .to_string(),
            );
        }
        if sync.type_delta(self.cell_type).is_none() {
            findings.push(format!(
                "CAST003: coupling cell type {} is not registered with the synchronizer",
                self.cell_type.0
            ));
        }
        if !sync.grant_horizon_monotone() {
            findings.push(
                "CAST010: grant-horizon monotonicity predicate violated on the \
                 assembled synchronizer"
                    .to_string(),
            );
        }
        if iface.index() >= net.module_count() {
            findings.push(format!(
                "CAST040: interface module id {} does not exist in the kernel \
                 ({} modules registered)",
                iface.index(),
                net.module_count()
            ));
        } else {
            for (_, _, dst, dst_port) in net.connection_edges() {
                if dst == iface && dst_port.0 >= RESPONSE_PORT_BASE {
                    findings.push(format!(
                        "CAST021: interface input port {} collides with the response \
                         injection namespace (RESPONSE_PORT_BASE = {RESPONSE_PORT_BASE})",
                        dst_port.0
                    ));
                }
            }
        }
        findings.extend(self.follower.structural_preflight());
        if findings.is_empty() {
            Ok(())
        } else {
            Err(CastanetError::Preflight(findings))
        }
    }

    /// Tunes the final drain: once the network side has no events left, the
    /// follower advances in chunks of `quantum`; after `quiet_chunks`
    /// consecutive chunks without any response the run is complete. The
    /// defaults (50 µs × 2) tolerate DUT pipelines that stay silent for up
    /// to ~100 µs of simulated time; raise them for deeper pipelines or
    /// slower DUT clocks.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `quiet_chunks` is zero.
    #[must_use]
    pub fn with_drain(mut self, quantum: SimDuration, quiet_chunks: u32) -> Self {
        assert!(!quantum.is_zero(), "drain quantum must be non-zero");
        assert!(quiet_chunks > 0, "need at least one quiet chunk");
        self.drain_quantum = quantum;
        self.drain_quiet_chunks = quiet_chunks;
        self
    }

    /// Runs the coupled simulation until no activity remains before
    /// `until` on either side, under the executor's policy: [`Serial`]
    /// on the calling thread, [`Parallel`] with the follower on a second
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates simulator, conversion and synchronization errors from
    /// either side. A parallel follower's panic is re-raised once both
    /// rings close.
    pub fn run(&mut self, until: SimTime) -> Result<CouplingStats, CastanetError> {
        if self.strict {
            self.preflight()?;
        }
        X::run(self, until)
    }

    /// The network kernel (e.g. for statistics after the run).
    #[must_use]
    pub fn net(&self) -> &Kernel {
        &self.net
    }

    /// The follower (e.g. for RTL counters after the run).
    #[must_use]
    pub fn follower(&self) -> &S {
        &self.follower
    }

    /// Mutable follower access — e.g. to read back DUT registers through
    /// pin pokes once the coupled run has finished.
    pub fn follower_mut(&mut self) -> &mut S {
        &mut self.follower
    }

    /// The conservative synchronizer (e.g. for static pre-flight analysis).
    #[must_use]
    pub fn sync(&self) -> &ConservativeSync {
        &self.sync
    }

    /// The interface process's module id inside the network kernel.
    #[must_use]
    pub fn iface_module(&self) -> ModuleId {
        self.iface
    }

    /// The message type stimulus cells are sent as.
    #[must_use]
    pub fn cell_type(&self) -> MessageTypeId {
        self.cell_type
    }

    /// Coupling counters.
    #[must_use]
    pub fn stats(&self) -> CouplingStats {
        self.stats
    }

    /// Synchronization-protocol statistics.
    #[must_use]
    pub fn sync_stats(&self) -> SyncStats {
        self.sync.stats()
    }

    /// A clone of the interface outbox handle — lets callers observe
    /// stimulus crossing the abstraction interface without dismantling
    /// the coupling.
    #[must_use]
    pub fn outbox(&self) -> OutboxHandle {
        self.outbox.clone()
    }

    /// Dismantles the coupling, returning the network kernel and follower.
    #[must_use]
    pub fn into_parts(self) -> (Kernel, S) {
        (self.net, self.follower)
    }
}

impl<S: CoupledSimulator + Send> Coupling<S, Serial> {
    /// Re-hosts this (not-yet-run) coupling on the parallel executor with
    /// every setting kept. Batching takes the parallel defaults; tune it
    /// with [`Coupling::with_batching`].
    #[must_use]
    pub fn into_parallel(self) -> ParallelCoupling<S> {
        Coupling {
            net: self.net,
            follower: self.follower,
            sync: self.sync,
            cell_type: self.cell_type,
            outbox: self.outbox,
            iface: self.iface,
            stats: self.stats,
            promised: self.promised,
            drain_quantum: self.drain_quantum,
            drain_quiet_chunks: self.drain_quiet_chunks,
            strict: self.strict,
            outbox_scratch: self.outbox_scratch,
            tel: self.tel,
            sync_counters: self.sync_counters,
            exec: Parallel::default(),
        }
    }
}

impl<S: CoupledSimulator> Executor<S> for Serial {
    fn run(c: &mut Coupling<S, Serial>, until: SimTime) -> Result<CouplingStats, CastanetError> {
        let mut quiet_chunks = 0u32;
        loop {
            let t_net = c.net.next_event_time().filter(|t| *t < until);
            // With network events pending, the follower runs exactly to the
            // next one; once the network is drained, the follower advances
            // in bounded chunks until it has been quiet long enough —
            // simulating an idle DUT clock all the way to `until` would be
            // pure waste.
            let horizon = match t_net {
                Some(t) => t,
                None => (c.follower.now().max(c.net.now()) + c.drain_quantum).min(until),
            };

            // Time update: the originator promises no stimulus before
            // `horizon`. Promises only ever grow (see `promised`).
            if horizon > c.promised {
                c.sync.receive(c.cell_type, horizon, true)?;
                c.promised = horizon;
                c.tel.record(
                    Track::Originator,
                    c.net.now().as_picos(),
                    EventKind::WindowGranted {
                        grant_ps: horizon.as_picos(),
                        msgs: 0,
                    },
                );
            }
            // Most turns advance a follower with nothing to simulate
            // before `horizon`; such an advance returns at once, so it is
            // not worth a clock read.
            let advance_start =
                (c.tel.trace_active() && !c.follower.idle_before(horizon)).then(|| c.tel.now_ns());
            let responses = c.follower.advance_until(horizon)?;
            // Response-bearing advances always record; empty ones are
            // per-iteration plumbing (most loop turns return nothing) and
            // are thinned to the micro-sample stride — two clock reads per
            // otherwise-idle turn is what used to dominate the full-trace
            // overhead budget.
            if c.tel.trace_active() && (!responses.is_empty() || c.tel.micro_gate()) {
                c.tel.record_span(
                    Track::Follower,
                    horizon.as_picos(),
                    advance_start.unwrap_or_else(|| c.tel.now_ns()),
                    EventKind::FollowerAdvance {
                        granted_ps: horizon.as_picos(),
                        responses: responses.len() as u64,
                    },
                );
            }
            let local = c.follower.now().max(c.sync.local_time());
            if local <= c.sync.grant() {
                c.sync.advance_local(local)?;
            }

            let had_responses = !responses.is_empty();
            let injected = inject_responses(
                &mut c.net,
                &mut c.stats,
                c.iface,
                responses,
                false,
                &c.tel,
                &c.sync_counters,
            )?;
            if injected > 0 || had_responses {
                quiet_chunks = 0;
                // Injections may have created network events earlier than
                // `t_net`; re-evaluate.
                continue;
            }
            if t_net.is_none() {
                quiet_chunks += 1;
                if quiet_chunks >= c.drain_quiet_chunks || c.follower.now() >= until {
                    break;
                }
            } else {
                c.net.step();
                c.stats.net_events += 1;
                let mut pump = std::mem::take(&mut c.outbox_scratch);
                c.outbox.drain_into(&mut pump);
                for msg in pump.drain(..) {
                    c.sync.receive(msg.type_id, msg.stamp, false)?;
                    c.tel.record(
                        Track::Originator,
                        msg.stamp.as_picos(),
                        EventKind::StimulusEnqueued {
                            type_id: msg.type_id.0,
                            port: msg.port as u32,
                            stamp_ps: msg.stamp.as_picos(),
                        },
                    );
                    // The follower consumes the message immediately (it
                    // is covered by the next grant); mirror that in the
                    // protocol bookkeeping.
                    c.follower.deliver(msg)?;
                    c.stats.messages_to_follower += 1;
                }
                c.outbox_scratch = pump;
            }
        }
        Ok(c.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EgressSignals, IngressSignals};
    use crate::interface::CastanetInterfaceProcess;
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;
    use castanet_atm::traffic::source::{payload_seq, TrafficSourceProcess};
    use castanet_atm::traffic::Cbr;
    use castanet_netsim::process::CollectorProcess;
    use castanet_netsim::time::SimDuration;
    use castanet_rtl::cycle::attach_cycle_dut;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    const CLK: SimDuration = SimDuration::from_ns(20);

    /// Full co-verification fixture: CBR source -> interface -> RTL 2-port
    /// switch (route 1/40 -> port 1 as 7/70) -> response -> collector.
    fn build_coupling(
        cells: u64,
        gap: SimDuration,
    ) -> (
        Coupling<RtlCosim>,
        castanet_netsim::process::CollectorHandle,
    ) {
        // --- network side ---
        let mut net = Kernel::new(11);
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
        // Responses from DUT egress line 1 come back out of output port 1.
        net.connect_stream(iface, PortId(1), sink, PortId(0))
            .unwrap();

        // --- RTL side ---
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", CLK);
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 64,
            table_capacity: 16,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let dut = attach_cycle_dut(&mut sim, "switch", Box::new(switch), clk);
        let mut entity = CosimEntity::new(CLK, HeaderFormat::Uni, cell_type);
        // Ingress line 0: rx_data0/rx_sync0/rx_en0 = inputs 0..3.
        entity.add_ingress(IngressSignals {
            data: dut.inputs[0],
            sync: dut.inputs[1],
            enable: dut.inputs[2],
        });
        // Ingress line 1 registered too (unused) to keep port numbering.
        entity.add_ingress(IngressSignals {
            data: dut.inputs[3],
            sync: dut.inputs[4],
            enable: dut.inputs[5],
        });
        // Egress line 0 and 1: tx_data/tx_sync/tx_valid triples.
        entity.add_egress(
            &mut sim,
            clk,
            &[
                EgressSignals {
                    data: dut.outputs[0],
                    sync: dut.outputs[1],
                    valid: dut.outputs[2],
                },
                EgressSignals {
                    data: dut.outputs[3],
                    sync: dut.outputs[4],
                    valid: dut.outputs[5],
                },
            ],
        );
        let follower = RtlCosim::new(sim, entity);
        (
            Coupling::new(net, follower, sync, cell_type, iface, outbox),
            got,
        )
    }

    #[test]
    fn cells_flow_through_the_dut_and_back() {
        let (mut coupling, got) = build_coupling(5, SimDuration::from_us(10));
        let stats = coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(stats.messages_to_follower, 5);
        assert_eq!(stats.responses, 5);
        assert_eq!(stats.late_responses, 0);
        assert_eq!(got.len(), 5);
        let cells = got.take();
        for (i, (t, pkt)) in cells.iter().enumerate() {
            let cell = pkt.payload::<AtmCell>().expect("cell payload");
            assert_eq!(cell.id(), VpiVci::uni(7, 70).unwrap(), "switch retagged");
            assert_eq!(payload_seq(&cell.payload), i as u64, "order preserved");
            // Response arrives after the stimulus (53 clock transfer +
            // switch latency).
            assert!(*t > SimTime::from_us(10 * (i as u64 + 1)));
        }
    }

    #[test]
    fn follower_always_lags_the_network() {
        let (mut coupling, _got) = build_coupling(3, SimDuration::from_us(10));
        coupling.run(SimTime::from_ms(1)).unwrap();
        let sync = coupling.sync_stats();
        assert!(sync.messages >= 3);
        // The follower accumulated lag but no causality errors occurred
        // (run() would have failed otherwise).
        assert!(sync.max_lag > SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_bursts_serialize_on_the_line() {
        // 5 cells arriving every 1 us but needing 53*20 ns = 1.06 us each:
        // the entity must queue them without loss.
        let (mut coupling, got) = build_coupling(5, SimDuration::from_us(1));
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn run_is_idempotent_after_completion() {
        let (mut coupling, got) = build_coupling(2, SimDuration::from_us(10));
        coupling.run(SimTime::from_ms(1)).unwrap();
        let before = coupling.stats();
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(coupling.stats(), before);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn horizon_cuts_the_run_short() {
        let (mut coupling, got) = build_coupling(10, SimDuration::from_us(10));
        // Only events strictly before 35 us run: cells at 10, 20, 30 us.
        coupling.run(SimTime::from_us(35)).unwrap();
        assert_eq!(coupling.stats().messages_to_follower, 3);
        // Their responses may or may not be complete within the window; no
        // cell after 35 us was sent.
        assert!(got.len() <= 3);
    }

    #[test]
    fn telemetry_records_protocol_events() {
        let (coupling, got) = build_coupling(3, SimDuration::from_us(10));
        let tel = Telemetry::enabled();
        let mut coupling = coupling.with_telemetry(&tel);
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(got.len(), 3);
        let names: std::collections::BTreeSet<&str> =
            tel.events().iter().map(|e| e.kind.name()).collect();
        for expected in [
            "window_granted",
            "stimulus_enqueued",
            "follower_advance",
            "response_injected",
        ] {
            assert!(names.contains(expected), "missing {expected}: {names:?}");
        }
        // A serial run obeying the protocol produces no late/deferred events.
        assert!(!names.contains("late_response"));
        assert!(!names.contains("deferred_response"));
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.counter("originator.net_events"),
            Some(coupling.stats().net_events)
        );
        assert!(snap.histogram("sync.lag_ps").unwrap().count > 0);
    }

    #[test]
    fn disabled_telemetry_observes_nothing() {
        let (coupling, _got) = build_coupling(2, SimDuration::from_us(10));
        let tel = Telemetry::disabled();
        let mut coupling = coupling.with_telemetry(&tel);
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert!(tel.events().is_empty());
        assert!(tel.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn into_parts_returns_components() {
        let (coupling, _got) = build_coupling(1, SimDuration::from_us(10));
        let (net, follower) = coupling.into_parts();
        assert_eq!(net.now(), SimTime::ZERO);
        assert_eq!(follower.now(), SimTime::ZERO);
    }

    #[test]
    fn strict_mode_accepts_the_clean_fixture() {
        let (coupling, got) = build_coupling(2, SimDuration::from_us(10));
        let mut coupling = coupling.with_strict(true);
        assert!(coupling.preflight().is_ok());
        coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn strict_mode_rejects_structural_defects() {
        use castanet_rtl::netlist::ProcessIo;
        use castanet_rtl::sim::{RtlCtx, RtlProcess};

        /// A declared-but-inert process whose dataflow sets form a
        /// combinational self-loop.
        struct SelfLoop {
            io: ProcessIo,
        }
        impl RtlProcess for SelfLoop {
            fn run(&mut self, _ctx: &mut RtlCtx) {}
            fn io(&self) -> Option<ProcessIo> {
                Some(self.io.clone())
            }
        }

        let (coupling, _got) = build_coupling(1, SimDuration::from_us(10));
        let mut coupling = coupling.with_strict(true);
        let sim = coupling.follower_mut().sim_mut();
        let osc = sim.add_signal("osc", 1);
        let io = ProcessIo::combinational("osc_loop")
            .reads([osc])
            .writes([osc]);
        sim.add_process(Box::new(SelfLoop { io }), &[osc]);

        let err = coupling.run(SimTime::from_ms(1)).unwrap_err();
        let CastanetError::Preflight(findings) = err else {
            panic!("expected a preflight rejection, got {err}");
        };
        assert!(
            findings.iter().any(|f| f.contains("combinational loop")),
            "{findings:?}"
        );
    }
}
