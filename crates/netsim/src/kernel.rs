//! The simulation executive: module table, connection table, event dispatch.
//!
//! The kernel realizes the OPNET-style execution model the paper builds on:
//! a single time-ordered event list, modules (process instances) that react
//! to packet arrivals and interrupts, and connections between module ports
//! that are either instantaneous intra-node *streams* or rate/delay-modelled
//! inter-node *links*.

use crate::error::NetsimError;
use crate::event::{EventKind, ModuleId, NodeId, PortId};
use crate::link::LinkParams;
use crate::packet::Packet;
use crate::process::Process;
use crate::scheduler::EventList;
use crate::stats::{ProbeId, StatsRegistry};
use crate::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Telemetry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Why a call to [`Kernel::run`] (or a variant) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event list drained completely.
    EventListEmpty,
    /// A scheduled stop event fired, or a process called
    /// [`Ctx::request_stop`].
    StopRequested,
    /// The time horizon passed to `run_until` was reached.
    HorizonReached,
    /// The event budget passed to `run_events` was exhausted.
    BudgetExhausted,
}

struct ModuleSlot {
    name: String,
    node: NodeId,
    process: Option<Box<dyn Process>>,
    events_handled: u64,
}

#[derive(Debug, Clone)]
struct Connection {
    dst: ModuleId,
    dst_port: PortId,
    link: Option<LinkParams>,
}

struct NodeSlot {
    name: String,
    modules: Vec<ModuleId>,
}

/// The discrete-event simulation kernel.
///
/// Build the model first (nodes, modules, connections), then run. Topology
/// changes after the first event has executed are rejected, matching the
/// static-topology assumption of the network domain.
///
/// # Examples
///
/// A one-module model that ticks three times:
///
/// ```
/// use castanet_netsim::kernel::{Ctx, Kernel};
/// use castanet_netsim::event::PortId;
/// use castanet_netsim::packet::Packet;
/// use castanet_netsim::process::Process;
/// use castanet_netsim::time::SimDuration;
///
/// struct Ticker { remaining: u32 }
/// impl Process for Ticker {
///     fn init(&mut self, ctx: &mut Ctx) {
///         ctx.schedule_self(SimDuration::from_ns(10), 0).expect("schedule");
///     }
///     fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
///     fn on_interrupt(&mut self, ctx: &mut Ctx, _code: u32) {
///         self.remaining -= 1;
///         if self.remaining > 0 {
///             ctx.schedule_self(SimDuration::from_ns(10), 0).expect("schedule");
///         }
///     }
/// }
///
/// let mut kernel = Kernel::new(7);
/// let node = kernel.add_node("nd");
/// kernel.add_module(node, "ticker", Box::new(Ticker { remaining: 3 }));
/// kernel.run()?;
/// assert_eq!(kernel.now(), castanet_netsim::time::SimTime::from_ns(30));
/// # Ok::<(), castanet_netsim::error::NetsimError>(())
/// ```
pub struct Kernel {
    events: EventList,
    modules: Vec<ModuleSlot>,
    nodes: Vec<NodeSlot>,
    connections: HashMap<(ModuleId, PortId), Connection>,
    stats: StatsRegistry,
    rng: SmallRng,
    started: bool,
    stop_requested: bool,
    /// Telemetry handles (no-ops by default — see [`Kernel::set_telemetry`]).
    obs_events: Counter,
    obs_pending: Gauge,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.events.now())
            .field("modules", &self.modules.len())
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel with a deterministic RNG stream derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Kernel {
            events: EventList::new(),
            modules: Vec::new(),
            nodes: Vec::new(),
            connections: HashMap::new(),
            stats: StatsRegistry::new(),
            rng: SmallRng::seed_from_u64(seed),
            started: false,
            stop_requested: false,
            obs_events: Counter::default(),
            obs_pending: Gauge::default(),
        }
    }

    /// Attaches a telemetry handle: the kernel then maintains the
    /// `originator.net_events` counter and the `originator.pending_events`
    /// gauge in `tel`'s metrics registry. The default (detached) state costs
    /// one predictable branch per event.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.obs_events = tel.counter("originator.net_events");
        self.obs_pending = tel.gauge("originator.pending_events");
    }

    // ------------------------------------------------------------------
    // Model construction (network / node domains)
    // ------------------------------------------------------------------

    /// Adds a node (a named grouping of modules) and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            name: name.into(),
            modules: Vec::new(),
        });
        id
    }

    /// Adds a module (process instance) to `node` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or if the simulation already started.
    pub fn add_module(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        process: Box<dyn Process>,
    ) -> ModuleId {
        assert!(
            !self.started,
            "cannot add modules after the simulation started"
        );
        let id = ModuleId(self.modules.len());
        self.modules.push(ModuleSlot {
            name: name.into(),
            node,
            process: Some(process),
            events_handled: 0,
        });
        self.nodes
            .get_mut(node.0)
            .expect("node id out of range")
            .modules
            .push(id);
        id
    }

    /// Connects output port `src_port` of `src` to input port `dst_port` of
    /// `dst` with an instantaneous intra-node stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::PortAlreadyConnected`] if `src_port` already has
    /// a connection, or [`NetsimError::TopologyFrozen`] after start.
    pub fn connect_stream(
        &mut self,
        src: ModuleId,
        src_port: PortId,
        dst: ModuleId,
        dst_port: PortId,
    ) -> Result<(), NetsimError> {
        self.connect(src, src_port, dst, dst_port, None)
    }

    /// Connects two module ports with a link characterized by a data rate and
    /// propagation delay. Packets incur `bit_len / rate` serialization delay
    /// plus the propagation delay.
    ///
    /// # Errors
    ///
    /// Same as [`Kernel::connect_stream`].
    pub fn connect_link(
        &mut self,
        src: ModuleId,
        src_port: PortId,
        dst: ModuleId,
        dst_port: PortId,
        link: LinkParams,
    ) -> Result<(), NetsimError> {
        self.connect(src, src_port, dst, dst_port, Some(link))
    }

    fn connect(
        &mut self,
        src: ModuleId,
        src_port: PortId,
        dst: ModuleId,
        dst_port: PortId,
        link: Option<LinkParams>,
    ) -> Result<(), NetsimError> {
        if self.started {
            return Err(NetsimError::TopologyFrozen);
        }
        if src.0 >= self.modules.len() || dst.0 >= self.modules.len() {
            return Err(NetsimError::UnknownModule);
        }
        if self.connections.contains_key(&(src, src_port)) {
            return Err(NetsimError::PortAlreadyConnected {
                module: src,
                port: src_port,
            });
        }
        self.connections.insert(
            (src, src_port),
            Connection {
                dst,
                dst_port,
                link,
            },
        );
        Ok(())
    }

    /// Registers a statistics probe before the run. Probes can also be
    /// created from process code through [`Ctx::stats`].
    pub fn add_probe(&mut self, name: impl Into<String>) -> ProbeId {
        self.stats.probe(name)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Name given to `module` at construction.
    #[must_use]
    pub fn module_name(&self, module: ModuleId) -> &str {
        &self.modules[module.0].name
    }

    /// The node a module belongs to.
    #[must_use]
    pub fn module_node(&self, module: ModuleId) -> NodeId {
        self.modules[module.0].node
    }

    /// Name given to `node` at construction.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Modules belonging to `node`.
    #[must_use]
    pub fn node_modules(&self, node: NodeId) -> &[ModuleId] {
        &self.nodes[node.0].modules
    }

    /// Number of events `module` has handled so far.
    #[must_use]
    pub fn module_event_count(&self, module: ModuleId) -> u64 {
        self.modules[module.0].events_handled
    }

    /// Total number of events executed by the kernel.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.events.executed_total()
    }

    /// Read access to the collected statistics.
    #[must_use]
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Mutable access to the statistics registry (e.g. to reset between
    /// measurement phases).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Number of modules registered with the kernel.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Iterates every registered module id.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> + '_ {
        (0..self.modules.len()).map(ModuleId)
    }

    /// Iterates the connection graph as
    /// `(source module, source port, destination module, destination port)`
    /// edges. Used by static pre-flight analysis for reachability checks.
    pub fn connection_edges(
        &self,
    ) -> impl Iterator<Item = (ModuleId, PortId, ModuleId, PortId)> + '_ {
        self.connections
            .iter()
            .map(|(&(src, src_port), conn)| (src, src_port, conn.dst, conn.dst_port))
    }

    // ------------------------------------------------------------------
    // External event injection (used by the CASTANET coupling)
    // ------------------------------------------------------------------

    /// Schedules a packet arrival on `module`/`port` at absolute time `at`.
    ///
    /// This is the hook the CASTANET interface process uses to inject
    /// responses coming back from the coupled simulator into the network
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::ScheduleInPast`] if `at` precedes current time.
    pub fn inject_packet(
        &mut self,
        module: ModuleId,
        port: PortId,
        packet: Packet,
        at: SimTime,
    ) -> Result<(), NetsimError> {
        let mut packet = packet;
        packet.stamp_creation(self.events.now());
        self.events
            .schedule(
                at,
                EventKind::Arrival {
                    module,
                    port,
                    packet,
                },
            )
            .map_err(NetsimError::from)
    }

    /// Schedules an interrupt for `module` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::ScheduleInPast`] if `at` precedes current time.
    pub fn inject_interrupt(
        &mut self,
        module: ModuleId,
        code: u32,
        at: SimTime,
    ) -> Result<(), NetsimError> {
        self.events
            .schedule(at, EventKind::Interrupt { module, code })
            .map_err(NetsimError::from)
    }

    /// Schedules the simulation to stop at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::ScheduleInPast`] if `at` precedes current time.
    pub fn schedule_stop(&mut self, at: SimTime) -> Result<(), NetsimError> {
        self.events
            .schedule(at, EventKind::Stop)
            .map_err(NetsimError::from)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs `init` on every module that has not been initialized yet.
    /// Called automatically by the run methods.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.modules.len() {
            self.dispatch(ModuleId(idx), Dispatch::Init);
        }
    }

    /// Time stamp of the earliest pending event, if any. Exposed for the
    /// conservative synchronization protocol, which must know how far it may
    /// safely advance.
    #[must_use]
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.events.next_time()
    }

    /// Executes a single event. Returns `false` when no event was pending.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        if self.stop_requested {
            return false;
        }
        let Some(ev) = self.events.pop() else {
            return false;
        };
        self.obs_events.inc();
        self.obs_pending.set(self.events.len() as u64);
        match ev.kind {
            EventKind::Arrival {
                module,
                port,
                packet,
            } => {
                self.dispatch(module, Dispatch::Packet(port, packet));
            }
            EventKind::Interrupt { module, code } => {
                self.dispatch(module, Dispatch::Interrupt(code));
            }
            EventKind::Stop => {
                self.stop_requested = true;
            }
        }
        true
    }

    /// Runs until the event list drains or a stop is requested.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, but returns `Result` so model errors
    /// surfaced by future hooks keep the same signature.
    pub fn run(&mut self) -> Result<StopReason, NetsimError> {
        loop {
            if self.stop_requested {
                return Ok(StopReason::StopRequested);
            }
            if !self.step() {
                return Ok(if self.stop_requested {
                    StopReason::StopRequested
                } else {
                    StopReason::EventListEmpty
                });
            }
        }
    }

    /// Runs events with time stamps **strictly before** `horizon`, leaving
    /// later events pending. This is the primitive the conservative coupling
    /// uses: "the VHDL simulator is allowed to process all events with a time
    /// stamp smaller than `t_k`, but not equal".
    ///
    /// # Errors
    ///
    /// See [`Kernel::run`].
    pub fn run_until(&mut self, horizon: SimTime) -> Result<StopReason, NetsimError> {
        self.ensure_started();
        loop {
            if self.stop_requested {
                return Ok(StopReason::StopRequested);
            }
            match self.events.next_time() {
                None => return Ok(StopReason::EventListEmpty),
                Some(t) if t >= horizon => return Ok(StopReason::HorizonReached),
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs one grant window: executes all events **strictly before**
    /// `horizon` and reports how many ran. This is the originator-side
    /// entry point of the parallel coupled executor — after the call, the
    /// originator may promise `horizon` to the follower as a timing-window
    /// grant, because every event that could have produced stimulus before
    /// it has been executed.
    ///
    /// # Errors
    ///
    /// See [`Kernel::run`].
    pub fn run_grant_window(&mut self, horizon: SimTime) -> Result<u64, NetsimError> {
        self.ensure_started();
        let mut executed = 0u64;
        loop {
            if self.stop_requested {
                return Ok(executed);
            }
            match self.events.next_time() {
                None => return Ok(executed),
                Some(t) if t >= horizon => return Ok(executed),
                Some(_) => {
                    self.step();
                    executed += 1;
                }
            }
        }
    }

    /// Runs at most `budget` events.
    ///
    /// # Errors
    ///
    /// See [`Kernel::run`].
    pub fn run_events(&mut self, budget: u64) -> Result<StopReason, NetsimError> {
        self.ensure_started();
        for _ in 0..budget {
            if self.stop_requested {
                return Ok(StopReason::StopRequested);
            }
            if !self.step() {
                return Ok(StopReason::EventListEmpty);
            }
        }
        Ok(StopReason::BudgetExhausted)
    }

    fn dispatch(&mut self, module: ModuleId, what: Dispatch) {
        let slot = &mut self.modules[module.0];
        slot.events_handled += 1;
        let mut process = slot
            .process
            .take()
            .expect("process re-entered: a module dispatched an event to itself synchronously");
        {
            let mut ctx = Ctx {
                module,
                events: &mut self.events,
                connections: &self.connections,
                rng: &mut self.rng,
                stats: &mut self.stats,
                stop_requested: &mut self.stop_requested,
            };
            match what {
                Dispatch::Init => process.init(&mut ctx),
                Dispatch::Packet(port, packet) => process.on_packet(&mut ctx, port, packet),
                Dispatch::Interrupt(code) => process.on_interrupt(&mut ctx, code),
            }
        }
        self.modules[module.0].process = Some(process);
    }
}

enum Dispatch {
    Init,
    Packet(PortId, Packet),
    Interrupt(u32),
}

/// The execution context handed to process code — OPNET's "kernel procedures".
///
/// Through the context a process reads the clock, sends packets out of its
/// ports, schedules self-interrupts, draws random numbers and records
/// statistics.
pub struct Ctx<'a> {
    module: ModuleId,
    events: &'a mut EventList,
    connections: &'a HashMap<(ModuleId, PortId), Connection>,
    rng: &'a mut SmallRng,
    stats: &'a mut StatsRegistry,
    stop_requested: &'a mut bool,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("module", &self.module)
            .field("now", &self.events.now())
            .finish()
    }
}

impl Ctx<'_> {
    /// The module this context belongs to.
    #[must_use]
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Sends `packet` out of `port` immediately. Arrival time at the peer is
    /// `now` for streams, or `now + serialization + propagation` for links.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::PortNotConnected`] when `port` has no
    /// connection.
    pub fn send(&mut self, port: PortId, packet: Packet) -> Result<(), NetsimError> {
        self.send_delayed(port, packet, SimDuration::ZERO)
    }

    /// Sends `packet` out of `port` after an additional local delay.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::PortNotConnected`] when `port` has no
    /// connection.
    pub fn send_delayed(
        &mut self,
        port: PortId,
        mut packet: Packet,
        delay: SimDuration,
    ) -> Result<(), NetsimError> {
        let conn =
            self.connections
                .get(&(self.module, port))
                .ok_or(NetsimError::PortNotConnected {
                    module: self.module,
                    port,
                })?;
        packet.stamp_creation(self.events.now());
        let link_delay = conn
            .link
            .as_ref()
            .map_or(SimDuration::ZERO, |l| l.total_delay(packet.bit_len()));
        let at = self.events.now() + delay + link_delay;
        self.events
            .schedule(
                at,
                EventKind::Arrival {
                    module: conn.dst,
                    port: conn.dst_port,
                    packet,
                },
            )
            .map_err(NetsimError::from)?;
        Ok(())
    }

    /// Schedules a self-interrupt with `code` after `delay`.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors (cannot occur for non-negative delays).
    pub fn schedule_self(&mut self, delay: SimDuration, code: u32) -> Result<(), NetsimError> {
        let at = self.events.now() + delay;
        self.events
            .schedule(
                at,
                EventKind::Interrupt {
                    module: self.module,
                    code,
                },
            )
            .map_err(NetsimError::from)
    }

    /// Asks the kernel to stop after the current event completes.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }

    /// The kernel's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The statistics registry, for recording probe samples.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;

    /// Forwards every packet out of port 0 after a fixed processing delay.
    struct Forwarder {
        delay: SimDuration,
    }
    impl Process for Forwarder {
        fn on_packet(&mut self, ctx: &mut Ctx, _port: PortId, packet: Packet) {
            ctx.send_delayed(PortId(0), packet, self.delay).unwrap();
        }
    }

    /// Records packet arrival times into a probe.
    struct Sink {
        probe: ProbeId,
        received: u64,
    }
    impl Process for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx, _port: PortId, _packet: Packet) {
            self.received += 1;
            let t = ctx.now().as_secs_f64();
            ctx.stats().record(self.probe, t);
        }
    }

    /// Emits `count` packets spaced `gap` apart out of port 0.
    struct Source {
        count: u32,
        gap: SimDuration,
    }
    impl Process for Source {
        fn init(&mut self, ctx: &mut Ctx) {
            ctx.schedule_self(self.gap, 0).unwrap();
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
        fn on_interrupt(&mut self, ctx: &mut Ctx, _code: u32) {
            ctx.send(PortId(0), Packet::new(0, 424)).unwrap();
            self.count -= 1;
            if self.count > 0 {
                ctx.schedule_self(self.gap, 0).unwrap();
            }
        }
    }

    fn three_module_pipeline(link: Option<LinkParams>) -> (Kernel, ProbeId) {
        let mut k = Kernel::new(1);
        let n = k.add_node("pipeline");
        let probe = k.add_probe("arrivals");
        let src = k.add_module(
            n,
            "src",
            Box::new(Source {
                count: 5,
                gap: SimDuration::from_ns(100),
            }),
        );
        let fwd = k.add_module(
            n,
            "fwd",
            Box::new(Forwarder {
                delay: SimDuration::from_ns(10),
            }),
        );
        let sink = k.add_module(n, "sink", Box::new(Sink { probe, received: 0 }));
        match link {
            Some(l) => k.connect_link(src, PortId(0), fwd, PortId(0), l).unwrap(),
            None => k.connect_stream(src, PortId(0), fwd, PortId(0)).unwrap(),
        }
        k.connect_stream(fwd, PortId(0), sink, PortId(0)).unwrap();
        (k, probe)
    }

    #[test]
    fn pipeline_delivers_all_packets() {
        let (mut k, probe) = three_module_pipeline(None);
        let reason = k.run().unwrap();
        assert_eq!(reason, StopReason::EventListEmpty);
        assert_eq!(k.stats().summary(probe).count, 5);
        // Last packet: sent at 500 ns, forwarded +10 ns.
        assert_eq!(k.now(), SimTime::from_ns(510));
    }

    #[test]
    fn link_adds_serialization_and_propagation_delay() {
        // 424 bits at 424 Mbit/s = 1 us serialization; +2 us propagation.
        let link = LinkParams::new(424_000_000, SimDuration::from_us(2));
        let (mut k, probe) = three_module_pipeline(Some(link));
        k.run().unwrap();
        let s = k.stats().summary(probe);
        assert_eq!(s.count, 5);
        // First packet: emitted at 100 ns, +1 us ser + 2 us prop + 10 ns fwd.
        let first_arrival =
            SimTime::from_ns(100) + SimDuration::from_us(3) + SimDuration::from_ns(10);
        assert!((s.min - first_arrival.as_secs_f64()).abs() < 1e-15);
    }

    #[test]
    fn run_until_stops_before_horizon_events() {
        let (mut k, _probe) = three_module_pipeline(None);
        let reason = k.run_until(SimTime::from_ns(250)).unwrap();
        assert_eq!(reason, StopReason::HorizonReached);
        // Events at exactly or after 250 ns must still be pending.
        assert!(k.now() < SimTime::from_ns(250));
        assert!(k.next_event_time().unwrap() >= SimTime::from_ns(250));
    }

    #[test]
    fn run_events_respects_budget() {
        let (mut k, _probe) = three_module_pipeline(None);
        let reason = k.run_events(3).unwrap();
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(k.events_executed(), 3);
    }

    #[test]
    fn scheduled_stop_halts_run() {
        let (mut k, probe) = three_module_pipeline(None);
        k.schedule_stop(SimTime::from_ns(250)).unwrap();
        let reason = k.run().unwrap();
        assert_eq!(reason, StopReason::StopRequested);
        assert_eq!(k.now(), SimTime::from_ns(250));
        // Only the first two packets (110 ns, 210 ns) arrived.
        assert_eq!(k.stats().summary(probe).count, 2);
    }

    #[test]
    fn unconnected_port_send_is_an_error() {
        struct Lonely;
        impl Process for Lonely {
            fn init(&mut self, ctx: &mut Ctx) {
                let err = ctx.send(PortId(0), Packet::new(0, 8)).unwrap_err();
                assert!(matches!(err, NetsimError::PortNotConnected { .. }));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
        }
        let mut k = Kernel::new(0);
        let n = k.add_node("n");
        k.add_module(n, "lonely", Box::new(Lonely));
        k.run().unwrap();
    }

    #[test]
    fn double_connect_rejected() {
        let mut k = Kernel::new(0);
        let n = k.add_node("n");
        struct Idle;
        impl Process for Idle {
            fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
        }
        let a = k.add_module(n, "a", Box::new(Idle));
        let b = k.add_module(n, "b", Box::new(Idle));
        k.connect_stream(a, PortId(0), b, PortId(0)).unwrap();
        let err = k.connect_stream(a, PortId(0), b, PortId(1)).unwrap_err();
        assert!(matches!(err, NetsimError::PortAlreadyConnected { .. }));
    }

    #[test]
    fn topology_freezes_after_start() {
        let mut k = Kernel::new(0);
        let n = k.add_node("n");
        struct Idle;
        impl Process for Idle {
            fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
        }
        let a = k.add_module(n, "a", Box::new(Idle));
        let b = k.add_module(n, "b", Box::new(Idle));
        k.step(); // triggers init, freezing topology
        let err = k.connect_stream(a, PortId(0), b, PortId(0)).unwrap_err();
        assert!(matches!(err, NetsimError::TopologyFrozen));
    }

    #[test]
    fn injected_packets_reach_modules() {
        struct CountSink {
            probe: ProbeId,
        }
        impl Process for CountSink {
            fn on_packet(&mut self, ctx: &mut Ctx, _port: PortId, _packet: Packet) {
                ctx.stats().record(self.probe, 1.0);
            }
        }
        let mut k = Kernel::new(0);
        let n = k.add_node("n");
        let probe = k.add_probe("in");
        let m = k.add_module(n, "sink", Box::new(CountSink { probe }));
        k.inject_packet(m, PortId(0), Packet::new(0, 8), SimTime::from_ns(50))
            .unwrap();
        k.inject_interrupt(m, 9, SimTime::from_ns(60)).unwrap();
        k.run().unwrap();
        assert_eq!(k.stats().summary(probe).count, 1);
        assert_eq!(k.module_event_count(m), 3); // init + packet + interrupt
    }

    #[test]
    fn telemetry_counts_executed_events() {
        let (mut k, _probe) = three_module_pipeline(None);
        let tel = Telemetry::enabled();
        k.set_telemetry(&tel);
        k.run().unwrap();
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.counter("originator.net_events"),
            Some(k.events_executed())
        );
        assert_eq!(snap.gauge("originator.pending_events"), Some(0));
    }

    #[test]
    fn names_and_node_membership() {
        let mut k = Kernel::new(0);
        let n = k.add_node("switch");
        struct Idle;
        impl Process for Idle {
            fn on_packet(&mut self, _ctx: &mut Ctx, _port: PortId, _packet: Packet) {}
        }
        let a = k.add_module(n, "port0", Box::new(Idle));
        assert_eq!(k.module_name(a), "port0");
        assert_eq!(k.node_name(n), "switch");
        assert_eq!(k.node_modules(n), &[a]);
        assert_eq!(k.module_node(a), n);
    }
}
