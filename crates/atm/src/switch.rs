//! The ATM switch reference model: port modules plus a global control unit.
//!
//! The paper's headline workload is "an ATM switch consisting of four port
//! modules, one global control unit" (§2). This module provides that switch
//! as an *algorithm reference model* in the network simulator:
//!
//! * [`RoutingTable`] — the shared VPI/VCI translation table;
//! * [`PortModuleProcess`] — one per line: ingress policing (GCRA),
//!   header translation, fabric forwarding, and an output queue served at
//!   line rate;
//! * [`GlobalControlProcess`] — connection admission, table management and
//!   the sink for unroutable cells (answering OAM loopback on request);
//! * [`SwitchNode`] — a builder wiring `N` port modules and the control unit
//!   into one node-domain device.
//!
//! The RTL implementation in `castanet-rtl::dut` realizes the same function
//! at clock level; co-verification compares the two.

use crate::addr::VpiVci;
use crate::cell::{AtmCell, CELL_BITS};
use crate::discard::{DiscardPolicy, DiscardQueue, Verdict};
use crate::error::AtmError;
use crate::gcra::{Conformance, Gcra};
use crate::oam::LoopbackResponder;
use crate::traffic::source::ATM_CELL_FORMAT;
use castanet_netsim::event::{ModuleId, NodeId, PortId};
use castanet_netsim::kernel::{Ctx, Kernel};
use castanet_netsim::packet::Packet;
use castanet_netsim::process::Process;
use castanet_netsim::time::SimDuration;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// One translation entry: where a connection leaves the switch and under
/// which new identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Egress port index.
    pub out_port: usize,
    /// Identifier the cell carries on the egress line.
    pub out_id: VpiVci,
}

/// The VPI/VCI translation table shared by all port modules. Interior
/// mutability (an `RwLock`) models the table memory both the port hardware
/// and the control unit access.
#[derive(Debug, Default)]
pub struct RoutingTable {
    entries: RwLock<HashMap<VpiVci, RouteEntry>>,
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a route.
    ///
    /// # Errors
    ///
    /// Returns [`AtmError::RouteExists`] when `conn` already has an entry.
    ///
    /// # Panics
    ///
    /// Panics if the table lock is poisoned.
    pub fn install(&self, conn: VpiVci, entry: RouteEntry) -> Result<(), AtmError> {
        let mut map = self.entries.write().expect("routing table lock poisoned");
        if map.contains_key(&conn) {
            return Err(AtmError::RouteExists {
                vpi: conn.vpi.value(),
                vci: conn.vci.value(),
            });
        }
        map.insert(conn, entry);
        Ok(())
    }

    /// Removes a route, returning its entry if present.
    ///
    /// # Panics
    ///
    /// Panics if the table lock is poisoned.
    pub fn remove(&self, conn: VpiVci) -> Option<RouteEntry> {
        self.entries
            .write()
            .expect("routing table lock poisoned")
            .remove(&conn)
    }

    /// Looks up the route for `conn`.
    ///
    /// # Panics
    ///
    /// Panics if the table lock is poisoned.
    #[must_use]
    pub fn lookup(&self, conn: VpiVci) -> Option<RouteEntry> {
        self.entries
            .read()
            .expect("routing table lock poisoned")
            .get(&conn)
            .copied()
    }

    /// Number of installed routes.
    ///
    /// # Panics
    ///
    /// Panics if the table lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("routing table lock poisoned")
            .len()
    }

    /// `true` when no routes are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Shared per-switch counters, readable after the run.
#[derive(Debug, Default)]
pub struct SwitchStats {
    inner: Mutex<SwitchCounters>,
}

/// Raw counter block of [`SwitchStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Cells that arrived on ingress lines.
    pub received: u64,
    /// Cells forwarded to an egress queue.
    pub switched: u64,
    /// Cells dropped by UPC policing.
    pub policed: u64,
    /// Cells without a routing entry (handed to the control unit).
    pub unroutable: u64,
    /// Cells dropped because an egress queue overflowed.
    pub queue_dropped: u64,
    /// Cells transmitted on egress lines.
    pub transmitted: u64,
    /// OAM loopback requests answered by the control unit.
    pub oam_answered: u64,
}

impl SwitchStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the counters.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> SwitchCounters {
        *self.inner.lock().expect("switch stats lock poisoned")
    }

    fn update(&self, f: impl FnOnce(&mut SwitchCounters)) {
        f(&mut self.inner.lock().expect("switch stats lock poisoned"));
    }
}

/// Port layout of a [`PortModuleProcess`] with `n` fabric peers:
///
/// * input 0 / output 0 — the external line;
/// * inputs/outputs 1..=n — fabric connections to the other port modules
///   (peer `k` for the module's view of egress port `k`, skipping itself);
/// * output n+1 — stream to the global control unit.
const LINE: PortId = PortId(0);

fn interrupt_code_tx() -> u32 {
    1
}

/// A switch port module: UPC, header translation, fabric forwarding and a
/// line-rate egress queue.
pub struct PortModuleProcess {
    index: usize,
    ports: usize,
    table: Arc<RoutingTable>,
    stats: Arc<SwitchStats>,
    policers: HashMap<VpiVci, Gcra>,
    egress: DiscardQueue,
    cell_time: SimDuration,
    transmitting: bool,
}

impl std::fmt::Debug for PortModuleProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortModuleProcess")
            .field("index", &self.index)
            .field("egress_depth", &self.egress.len())
            .finish()
    }
}

impl PortModuleProcess {
    /// Creates port module `index` of a switch with `ports` lines.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ports` or `egress_capacity` is zero.
    #[must_use]
    pub fn new(
        index: usize,
        ports: usize,
        table: Arc<RoutingTable>,
        stats: Arc<SwitchStats>,
        cell_time: SimDuration,
        egress_capacity: usize,
    ) -> Self {
        Self::with_policy(
            index,
            ports,
            table,
            stats,
            cell_time,
            egress_capacity,
            DiscardPolicy::DropTail,
        )
    }

    /// Like [`PortModuleProcess::new`] with an explicit egress buffer
    /// acceptance policy (CLP-selective or AAL5 frame-aware discard).
    ///
    /// # Panics
    ///
    /// Panics if `index >= ports` or the capacity/policy pair is invalid.
    #[must_use]
    pub fn with_policy(
        index: usize,
        ports: usize,
        table: Arc<RoutingTable>,
        stats: Arc<SwitchStats>,
        cell_time: SimDuration,
        egress_capacity: usize,
        policy: DiscardPolicy,
    ) -> Self {
        assert!(
            index < ports,
            "port index {index} out of range for {ports} ports"
        );
        PortModuleProcess {
            index,
            ports,
            table,
            stats,
            policers: HashMap::new(),
            egress: DiscardQueue::new(egress_capacity, policy),
            cell_time,
            transmitting: false,
        }
    }

    /// Registers a UPC policer for a connection entering on this port.
    pub fn add_policer(&mut self, conn: VpiVci, gcra: Gcra) {
        self.policers.insert(conn, gcra);
    }

    /// The fabric output port on *this* module leading to egress module
    /// `egress_index`.
    fn fabric_out(&self, egress_index: usize) -> PortId {
        debug_assert_ne!(egress_index, self.index, "no self fabric port");
        // Outputs 1..ports map to peers in index order, skipping self.
        let slot = if egress_index < self.index {
            egress_index
        } else {
            egress_index - 1
        };
        PortId(1 + slot)
    }

    fn gcu_out(&self) -> PortId {
        PortId(self.ports) // 1 + (ports-1) fabric slots, then the GCU stream
    }

    fn handle_line_cell(&mut self, ctx: &mut Ctx, mut cell: AtmCell) {
        self.stats.update(|c| c.received += 1);
        if let Some(gcra) = self.policers.get_mut(&cell.id()) {
            if gcra.arrival(ctx.now()) == Conformance::NonConforming {
                self.stats.update(|c| c.policed += 1);
                return;
            }
        }
        if let Some(entry) = self.table.lookup(cell.id()) {
            cell.retag(entry.out_id);
            self.stats.update(|c| c.switched += 1);
            if entry.out_port == self.index {
                self.enqueue_egress(ctx, cell);
            } else {
                let out = self.fabric_out(entry.out_port);
                ctx.send(
                    out,
                    Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(cell),
                )
                .expect("fabric port must be wired");
            }
        } else {
            self.stats.update(|c| c.unroutable += 1);
            ctx.send(
                self.gcu_out(),
                Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(cell),
            )
            .expect("gcu stream must be wired");
        }
    }

    fn enqueue_egress(&mut self, ctx: &mut Ctx, cell: AtmCell) {
        if let Verdict::Dropped(_) = self.egress.offer(cell) {
            self.stats.update(|c| c.queue_dropped += 1);
            return;
        }
        if !self.transmitting {
            self.transmitting = true;
            ctx.schedule_self(self.cell_time, interrupt_code_tx())
                .expect("tx scheduling cannot fail");
        }
    }

    fn transmit_one(&mut self, ctx: &mut Ctx) {
        if let Some(cell) = self.egress.pop() {
            self.stats.update(|c| c.transmitted += 1);
            ctx.send(
                LINE,
                Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(cell),
            )
            .expect("line out must be wired");
        }
        if self.egress.is_empty() {
            self.transmitting = false;
        } else {
            ctx.schedule_self(self.cell_time, interrupt_code_tx())
                .expect("tx scheduling cannot fail");
        }
    }
}

impl Process for PortModuleProcess {
    fn on_packet(&mut self, ctx: &mut Ctx, port: PortId, packet: Packet) {
        let Ok(cell) = packet.into_payload::<AtmCell>() else {
            return; // non-cell packets are ignored by the data path
        };
        if port == LINE {
            self.handle_line_cell(ctx, cell);
        } else {
            // Fabric arrival: already translated; queue for the line.
            self.enqueue_egress(ctx, cell);
        }
    }

    fn on_interrupt(&mut self, ctx: &mut Ctx, code: u32) {
        if code == interrupt_code_tx() {
            self.transmit_one(ctx);
        }
    }
}

/// The global control unit: owns the routing table, performs connection
/// admission, and absorbs unroutable cells.
pub struct GlobalControlProcess {
    table: Arc<RoutingTable>,
    stats: Arc<SwitchStats>,
    absorbed: u64,
    pending_admissions: Vec<(VpiVci, RouteEntry)>,
    loopback: LoopbackResponder,
    answer_loopback: bool,
}

impl std::fmt::Debug for GlobalControlProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalControlProcess")
            .field("absorbed", &self.absorbed)
            .finish()
    }
}

impl GlobalControlProcess {
    /// Creates the control unit over a shared table.
    #[must_use]
    pub fn new(table: Arc<RoutingTable>, stats: Arc<SwitchStats>) -> Self {
        GlobalControlProcess {
            table,
            stats,
            absorbed: 0,
            pending_admissions: Vec::new(),
            loopback: LoopbackResponder::new(),
            answer_loopback: false,
        }
    }

    /// Enables OAM F5 loopback handling: requests reaching the control
    /// unit are answered back out of the port they arrived on (the unit's
    /// output `i` must be wired toward port module `i`; `SwitchNode` does
    /// this automatically).
    #[must_use]
    pub fn answering_loopback(mut self) -> Self {
        self.answer_loopback = true;
        self
    }

    /// Queues a connection admission that the unit will install at
    /// simulation start (models signalling that completed before the
    /// measurement window).
    #[must_use]
    pub fn with_admission(mut self, conn: VpiVci, entry: RouteEntry) -> Self {
        self.pending_admissions.push((conn, entry));
        self
    }
}

impl Process for GlobalControlProcess {
    fn init(&mut self, _ctx: &mut Ctx) {
        for (conn, entry) in self.pending_admissions.drain(..) {
            self.table
                .install(conn, entry)
                .expect("pre-run admissions must not conflict");
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, port: PortId, packet: Packet) {
        self.absorbed += 1;
        let Some(cell) = packet.payload::<AtmCell>() else {
            return;
        };
        // Control-plane traffic: OAM loopback.
        if !self.answer_loopback {
            return;
        }
        if let Some(response) = self.loopback.process(cell) {
            self.stats.update(|c| c.oam_answered += 1);
            // Send the answer back toward the line it came from.
            ctx.send(
                port,
                Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(response),
            )
            .expect("control unit reverse path must be wired");
        }
    }
}

/// Handle to a switch built by [`SwitchNode::build`]: the module ids a
/// caller needs for wiring lines, plus the shared table and counters.
#[derive(Debug)]
pub struct SwitchHandle {
    /// The node that contains the switch.
    pub node: NodeId,
    /// Port-module ids, index `i` = line `i`.
    pub port_modules: Vec<ModuleId>,
    /// The global control unit module.
    pub control_unit: ModuleId,
    /// The shared translation table.
    pub table: Arc<RoutingTable>,
    /// The shared counters.
    pub stats: Arc<SwitchStats>,
}

/// Builder for an `N`-port switch node in a [`Kernel`].
#[derive(Debug)]
pub struct SwitchNode {
    ports: usize,
    cell_time: SimDuration,
    egress_capacity: usize,
    egress_policy: DiscardPolicy,
    answer_loopback: bool,
    admissions: Vec<(VpiVci, RouteEntry)>,
    policers: Vec<(usize, VpiVci, Gcra)>,
}

impl SwitchNode {
    /// A switch with `ports` lines and the given egress cell time
    /// (line rate).
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2` or `cell_time` is zero.
    #[must_use]
    pub fn new(ports: usize, cell_time: SimDuration) -> Self {
        assert!(ports >= 2, "a switch needs at least two ports");
        assert!(!cell_time.is_zero(), "cell time must be non-zero");
        SwitchNode {
            ports,
            cell_time,
            egress_capacity: 128,
            egress_policy: DiscardPolicy::DropTail,
            answer_loopback: false,
            admissions: Vec::new(),
            policers: Vec::new(),
        }
    }

    /// Sets the egress buffer acceptance policy (default drop-tail).
    #[must_use]
    pub fn with_egress_policy(mut self, policy: DiscardPolicy) -> Self {
        self.egress_policy = policy;
        self
    }

    /// Makes the control unit answer OAM F5 loopback requests.
    #[must_use]
    pub fn answering_loopback(mut self) -> Self {
        self.answer_loopback = true;
        self
    }

    /// Overrides the egress queue capacity (cells per port; default 128).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[must_use]
    pub fn with_egress_capacity(mut self, cells: usize) -> Self {
        assert!(cells > 0, "egress capacity must be non-zero");
        self.egress_capacity = cells;
        self
    }

    /// Pre-admits a connection (installed by the control unit at start).
    ///
    /// # Panics
    ///
    /// Panics if `out_port` is out of range.
    #[must_use]
    pub fn with_route(mut self, conn: VpiVci, out_port: usize, out_id: VpiVci) -> Self {
        assert!(out_port < self.ports, "out_port {out_port} out of range");
        self.admissions
            .push((conn, RouteEntry { out_port, out_id }));
        self
    }

    /// Adds a UPC policer on ingress port `port` for `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[must_use]
    pub fn with_policer(mut self, port: usize, conn: VpiVci, gcra: Gcra) -> Self {
        assert!(port < self.ports, "port {port} out of range");
        self.policers.push((port, conn, gcra));
        self
    }

    /// Instantiates the switch in `kernel` under `name`, wiring the fabric
    /// and control streams. Line ports (input/output 0 of each port module)
    /// are left for the caller to connect.
    pub fn build(self, kernel: &mut Kernel, name: &str) -> SwitchHandle {
        let node = kernel.add_node(name);
        let table = Arc::new(RoutingTable::new());
        let stats = Arc::new(SwitchStats::new());

        let mut gcu = GlobalControlProcess::new(Arc::clone(&table), Arc::clone(&stats));
        if self.answer_loopback {
            gcu = gcu.answering_loopback();
        }
        for (conn, entry) in self.admissions {
            gcu = gcu.with_admission(conn, entry);
        }

        let mut port_processes: Vec<PortModuleProcess> = (0..self.ports)
            .map(|i| {
                PortModuleProcess::with_policy(
                    i,
                    self.ports,
                    Arc::clone(&table),
                    Arc::clone(&stats),
                    self.cell_time,
                    self.egress_capacity,
                    self.egress_policy,
                )
            })
            .collect();
        for (port, conn, gcra) in self.policers {
            port_processes[port].add_policer(conn, gcra);
        }

        let port_modules: Vec<ModuleId> = port_processes
            .into_iter()
            .enumerate()
            .map(|(i, p)| kernel.add_module(node, format!("port{i}"), Box::new(p)))
            .collect();
        let control_unit = kernel.add_module(node, "gcu", Box::new(gcu));

        // Fabric wiring: output slot of i toward j connects to an input port
        // on j. Fabric inputs on j use the same slot numbering as outputs,
        // so any input port != 0 is "from fabric"; exact index is irrelevant
        // to the receiving module but must be unique per source.
        for i in 0..self.ports {
            for j in 0..self.ports {
                if i == j {
                    continue;
                }
                let out_slot = if j < i { j } else { j - 1 };
                let in_slot = if i < j { i } else { i - 1 };
                kernel
                    .connect_stream(
                        port_modules[i],
                        PortId(1 + out_slot),
                        port_modules[j],
                        PortId(1 + in_slot),
                    )
                    .expect("fabric wiring cannot conflict");
            }
            kernel
                .connect_stream(port_modules[i], PortId(self.ports), control_unit, PortId(i))
                .expect("gcu wiring cannot conflict");
            // Reverse path: the control unit can queue management responses
            // (e.g. OAM loopback answers) onto port i's egress line.
            kernel
                .connect_stream(control_unit, PortId(i), port_modules[i], PortId(self.ports))
                .expect("gcu reverse wiring cannot conflict");
        }

        SwitchHandle {
            node,
            port_modules,
            control_unit,
            table,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::PAYLOAD_OCTETS;
    use crate::traffic::source::{payload_seq, sequenced_payload, TrafficSourceProcess};
    use crate::traffic::Cbr;
    use castanet_netsim::process::CollectorProcess;
    use castanet_netsim::time::SimTime;

    fn id(vpi: u16, vci: u16) -> VpiVci {
        VpiVci::uni(vpi, vci).unwrap()
    }

    #[test]
    fn routing_table_crud() {
        let t = RoutingTable::new();
        assert!(t.is_empty());
        let e = RouteEntry {
            out_port: 2,
            out_id: id(9, 99),
        };
        t.install(id(1, 40), e).unwrap();
        assert_eq!(t.lookup(id(1, 40)), Some(e));
        assert_eq!(t.len(), 1);
        assert!(matches!(
            t.install(id(1, 40), e),
            Err(AtmError::RouteExists { vpi: 1, vci: 40 })
        ));
        assert_eq!(t.remove(id(1, 40)), Some(e));
        assert_eq!(t.lookup(id(1, 40)), None);
    }

    /// Builds a 4-port switch with a CBR source on port 0 routed to port 2,
    /// and collectors on every egress line.
    fn switch_fixture(
        routes: Vec<(VpiVci, usize, VpiVci)>,
        policer: Option<(usize, VpiVci, Gcra)>,
        cells: u64,
        rate_interval: SimDuration,
    ) -> (
        Kernel,
        SwitchHandle,
        Vec<castanet_netsim::process::CollectorHandle>,
    ) {
        let mut kernel = Kernel::new(3);
        let mut sw = SwitchNode::new(4, SimDuration::from_us(1));
        for (conn, port, out) in routes {
            sw = sw.with_route(conn, port, out);
        }
        if let Some((port, conn, g)) = policer {
            sw = sw.with_policer(port, conn, g);
        }
        let handle = sw.build(&mut kernel, "switch");

        let src_node = kernel.add_node("sources");
        let src = kernel.add_module(
            src_node,
            "cbr",
            Box::new(
                TrafficSourceProcess::new(id(1, 40), Box::new(Cbr::new(rate_interval)))
                    .with_limit(cells),
            ),
        );
        kernel
            .connect_stream(src, PortId(0), handle.port_modules[0], LINE)
            .unwrap();

        let sink_node = kernel.add_node("sinks");
        let mut handles = Vec::new();
        for (i, &pm) in handle.port_modules.iter().enumerate() {
            let (c, h) = CollectorProcess::new();
            let m = kernel.add_module(sink_node, format!("sink{i}"), Box::new(c));
            kernel.connect_stream(pm, LINE, m, PortId(0)).unwrap();
            handles.push(h);
        }
        (kernel, handle, handles)
    }

    #[test]
    fn cells_are_switched_and_retagged() {
        let (mut kernel, handle, sinks) = switch_fixture(
            vec![(id(1, 40), 2, id(7, 70))],
            None,
            10,
            SimDuration::from_us(10),
        );
        kernel.run().unwrap();
        let got = sinks[2].take();
        assert_eq!(got.len(), 10);
        for (i, (_, pkt)) in got.iter().enumerate() {
            let cell = pkt.payload::<AtmCell>().unwrap();
            assert_eq!(cell.id(), id(7, 70), "header translated");
            assert_eq!(payload_seq(&cell.payload), i as u64, "order preserved");
        }
        // Nothing leaked to other ports.
        assert!(sinks[0].is_empty() && sinks[1].is_empty() && sinks[3].is_empty());
        let c = handle.stats.snapshot();
        assert_eq!(c.received, 10);
        assert_eq!(c.switched, 10);
        assert_eq!(c.transmitted, 10);
        assert_eq!(c.unroutable, 0);
    }

    #[test]
    fn unroutable_cells_go_to_the_control_unit() {
        let (mut kernel, handle, sinks) = switch_fixture(vec![], None, 5, SimDuration::from_us(10));
        kernel.run().unwrap();
        let c = handle.stats.snapshot();
        assert_eq!(c.unroutable, 5);
        assert_eq!(c.switched, 0);
        assert!(sinks
            .iter()
            .all(castanet_netsim::process::CollectorHandle::is_empty));
        // The GCU handled 5 packet events (+1 init).
        assert_eq!(kernel.module_event_count(handle.control_unit), 6);
    }

    #[test]
    fn egress_paces_at_line_rate() {
        // Source emits 5 cells back-to-back (every 1 ns) but the line serves
        // one per microsecond, so departures are 1 us apart.
        let (mut kernel, _handle, sinks) = switch_fixture(
            vec![(id(1, 40), 1, id(1, 40))],
            None,
            5,
            SimDuration::from_ns(1),
        );
        kernel.run().unwrap();
        let got = sinks[1].take();
        assert_eq!(got.len(), 5);
        for w in got.windows(2) {
            assert_eq!(w[1].0 - w[0].0, SimDuration::from_us(1));
        }
    }

    #[test]
    fn egress_overflow_drops() {
        let mut kernel = Kernel::new(0);
        let sw = SwitchNode::new(2, SimDuration::from_ms(1)) // very slow line
            .with_egress_capacity(2)
            .with_route(id(1, 40), 1, id(1, 40));
        let handle = sw.build(&mut kernel, "sw");
        let src_node = kernel.add_node("src");
        let src = kernel.add_module(
            src_node,
            "burst",
            Box::new(
                TrafficSourceProcess::new(id(1, 40), Box::new(Cbr::new(SimDuration::from_ns(1))))
                    .with_limit(10),
            ),
        );
        kernel
            .connect_stream(src, PortId(0), handle.port_modules[0], LINE)
            .unwrap();
        let (c, h) = CollectorProcess::new();
        let sink = kernel.add_module(src_node, "sink", Box::new(c));
        kernel
            .connect_stream(handle.port_modules[1], LINE, sink, PortId(0))
            .unwrap();
        kernel.run().unwrap();
        let counters = handle.stats.snapshot();
        // 10 offered; one in service chain: capacity 2 queue + drops.
        assert!(
            counters.queue_dropped > 0,
            "expected drops, got {counters:?}"
        );
        assert_eq!(counters.transmitted as usize, h.len());
        assert_eq!(counters.queue_dropped + counters.transmitted, 10);
    }

    #[test]
    fn policer_discards_nonconforming_cells() {
        // Contract of 1 cell / 10 us with zero tolerance against a source at
        // 1 cell / 5 us: every second cell is non-conforming.
        let g = Gcra::new(SimDuration::from_us(10), SimDuration::ZERO);
        let (mut kernel, handle, sinks) = switch_fixture(
            vec![(id(1, 40), 3, id(2, 50))],
            Some((0, id(1, 40), g)),
            10,
            SimDuration::from_us(5),
        );
        kernel.run().unwrap();
        let c = handle.stats.snapshot();
        assert_eq!(c.received, 10);
        assert_eq!(c.policed, 5);
        assert_eq!(c.switched, 5);
        assert_eq!(sinks[3].len(), 5);
    }

    #[test]
    fn local_turnaround_route_works() {
        // Route back out of the ingress port itself.
        let (mut kernel, _handle, sinks) = switch_fixture(
            vec![(id(1, 40), 0, id(3, 60))],
            None,
            4,
            SimDuration::from_us(10),
        );
        kernel.run().unwrap();
        assert_eq!(sinks[0].len(), 4);
    }

    #[test]
    fn two_sources_interleave_without_loss() {
        let mut kernel = Kernel::new(9);
        let sw = SwitchNode::new(4, SimDuration::from_us(1))
            .with_route(id(1, 40), 2, id(1, 40))
            .with_route(id(1, 41), 2, id(1, 41));
        let handle = sw.build(&mut kernel, "sw");
        let srcs = kernel.add_node("srcs");
        for (i, conn) in [id(1, 40), id(1, 41)].into_iter().enumerate() {
            let m = kernel.add_module(
                srcs,
                format!("s{i}"),
                Box::new(
                    TrafficSourceProcess::new(conn, Box::new(Cbr::new(SimDuration::from_us(7))))
                        .with_limit(20),
                ),
            );
            kernel
                .connect_stream(m, PortId(0), handle.port_modules[i], LINE)
                .unwrap();
        }
        let (c, h) = CollectorProcess::new();
        let sink = kernel.add_module(srcs, "sink", Box::new(c));
        kernel
            .connect_stream(handle.port_modules[2], LINE, sink, PortId(0))
            .unwrap();
        kernel.run().unwrap();
        assert_eq!(h.len(), 40);
        let counters = handle.stats.snapshot();
        assert_eq!(counters.queue_dropped, 0);
        assert_eq!(counters.transmitted, 40);
    }

    #[test]
    fn sequenced_payload_survives_switching() {
        let (mut kernel, _h, sinks) = switch_fixture(
            vec![(id(1, 40), 1, id(9, 90))],
            None,
            3,
            SimDuration::from_us(10),
        );
        kernel.run().unwrap();
        let got = sinks[1].take();
        for (i, (_t, pkt)) in got.iter().enumerate() {
            let cell = pkt.payload::<AtmCell>().unwrap();
            assert_eq!(cell.payload, sequenced_payload(i as u64));
            assert_eq!(cell.payload.len(), PAYLOAD_OCTETS);
        }
    }

    #[test]
    #[should_panic(expected = "at least two ports")]
    fn one_port_switch_rejected() {
        let _ = SwitchNode::new(1, SimDuration::from_us(1));
    }

    #[test]
    fn gcu_answers_oam_loopback_requests() {
        use crate::oam::LoopbackCell;
        let mut kernel = Kernel::new(4);
        let sw = SwitchNode::new(2, SimDuration::from_us(1)).answering_loopback();
        let handle = sw.build(&mut kernel, "sw");
        // Inject a loopback request on line 0 (no route: it reaches the
        // control unit, which answers back out of line 0).
        let request = LoopbackCell::request(id(1, 3), true, 0xC0FFEE).encode();
        kernel
            .inject_packet(
                handle.port_modules[0],
                LINE,
                Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(request),
                castanet_netsim::time::SimTime::from_us(1),
            )
            .unwrap();
        let (c, h) = CollectorProcess::new();
        let node = kernel.add_node("mon");
        let sink = kernel.add_module(node, "sink", Box::new(c));
        kernel
            .connect_stream(handle.port_modules[0], LINE, sink, PortId(0))
            .unwrap();
        kernel.run().unwrap();
        let got = h.take();
        assert_eq!(got.len(), 1, "one loopback answer on the ingress line");
        let cell = got[0].1.payload::<AtmCell>().unwrap();
        let lb = LoopbackCell::decode(cell).unwrap();
        assert!(
            !lb.loopback_indication,
            "indication cleared by the loopback point"
        );
        assert_eq!(lb.correlation_tag, 0xC0FFEE);
        assert_eq!(handle.stats.snapshot().oam_answered, 1);
    }

    #[test]
    fn gcu_without_loopback_support_absorbs_oam() {
        use crate::oam::LoopbackCell;
        let mut kernel = Kernel::new(4);
        let handle = SwitchNode::new(2, SimDuration::from_us(1)).build(&mut kernel, "sw");
        let request = LoopbackCell::request(id(1, 3), true, 1).encode();
        kernel
            .inject_packet(
                handle.port_modules[0],
                LINE,
                Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(request),
                castanet_netsim::time::SimTime::from_us(1),
            )
            .unwrap();
        let (c, h) = CollectorProcess::new();
        let node = kernel.add_node("mon");
        let sink = kernel.add_module(node, "sink", Box::new(c));
        kernel
            .connect_stream(handle.port_modules[0], LINE, sink, PortId(0))
            .unwrap();
        kernel.run().unwrap();
        assert!(h.is_empty());
        assert_eq!(handle.stats.snapshot().oam_answered, 0);
    }

    #[test]
    fn frame_aware_egress_policy_keeps_whole_frames() {
        use crate::aal5;
        use crate::discard::DiscardPolicy;
        // Slow egress + frame-aware buffer: overload discards whole AAL5
        // frames, so whatever leaves the switch reassembles.
        let mut kernel = Kernel::new(8);
        let sw = SwitchNode::new(2, SimDuration::from_us(50)) // slow line
            .with_egress_capacity(8)
            .with_egress_policy(DiscardPolicy::FrameAware { epd_threshold: 5 })
            .with_route(id(1, 40), 1, id(1, 40));
        let handle = sw.build(&mut kernel, "sw");
        // Blast 6 frames of 4 cells back-to-back into line 0.
        let mut t = castanet_netsim::time::SimTime::from_us(1);
        for _ in 0..6 {
            for cell in aal5::segment(id(1, 40), &[0x5A; 150]).unwrap() {
                kernel
                    .inject_packet(
                        handle.port_modules[0],
                        LINE,
                        Packet::new(ATM_CELL_FORMAT, CELL_BITS).with_payload(cell),
                        t,
                    )
                    .unwrap();
                t += SimDuration::from_us(1);
            }
        }
        let (c, h) = CollectorProcess::new();
        let node = kernel.add_node("mon");
        let sink = kernel.add_module(node, "sink", Box::new(c));
        kernel
            .connect_stream(handle.port_modules[1], LINE, sink, PortId(0))
            .unwrap();
        kernel.run().unwrap();
        let counters = handle.stats.snapshot();
        assert!(
            counters.queue_dropped > 0,
            "overload must drop: {counters:?}"
        );
        // Everything that left the switch reassembles into whole frames.
        let mut assembler = aal5::Reassembler::new();
        let mut frames = 0;
        for (_, pkt) in h.take() {
            let cell = pkt.payload::<AtmCell>().unwrap().clone();
            if let Ok(Some(frame)) = assembler.push(cell) {
                assert_eq!(frame, vec![0x5A; 150]);
                frames += 1;
            }
        }
        assert!(frames >= 1, "at least one whole frame survives");
        assert_eq!(assembler.errors(), 0, "no partial frames leaked");
        assert_eq!(assembler.pending_cells(), 0, "no dangling tail");
    }

    #[test]
    fn first_cell_departure_time_includes_service() {
        let (mut kernel, _h, sinks) = switch_fixture(
            vec![(id(1, 40), 1, id(1, 40))],
            None,
            1,
            SimDuration::from_us(10),
        );
        kernel.run().unwrap();
        let got = sinks[1].take();
        // Arrival at 10 us + 1 us service.
        assert_eq!(got[0].0, SimTime::from_us(11));
    }
}
