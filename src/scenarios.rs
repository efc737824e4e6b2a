//! Pre-wired co-verification scenarios.
//!
//! Every experiment of the paper is, at its core, one of a few set-ups:
//! the 4-port switch driven from network-level traffic (the headline
//! throughput measurement), the same switch under a hand-written pure-RTL
//! regression bench (the baseline practice), the accounting-unit case
//! study, and the hardware-in-the-loop variant on the test board. Building
//! them here once means the examples, integration tests, Criterion benches
//! and the `repro` driver all measure identical configurations.

use castanet::compare::StreamComparator;
use castanet::coupling::{Coupling, RtlCosim};
use castanet::entity::{CosimEntity, EgressSignals, IngressSignals};
use castanet::hwloop::{BoardCosim, EgressPorts, IngressPorts};
use castanet::interface::CastanetInterfaceProcess;
use castanet::message::MessageTypeId;
use castanet::sync::ConservativeSync;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_atm::traffic::source::{sequenced_payload, TrafficSourceProcess};
use castanet_atm::traffic::{Cbr, OnOffVbr, TrafficModel};
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::process::{CollectorHandle, CollectorProcess};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::cycle::{attach_cycle_dut, attach_cycle_dut_gated};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use castanet_rtl::sim::Simulator;
use castanet_rtl::testbench::{RegressionTestbench, ScheduledCell};
use castanet_testboard::board::TestBoard;
use castanet_testboard::dut::{MappedCycleDut, PortSubsetDut};
use castanet_testboard::scsi::ScsiBus;

/// Configuration of the switch workload shared by E1/E2/E7.
#[derive(Debug, Clone, Copy)]
pub struct SwitchScenarioConfig {
    /// Number of switch line ports.
    pub ports: usize,
    /// Cells each source emits.
    pub cells_per_source: u64,
    /// DUT clock period.
    pub clock_period: SimDuration,
    /// Mean inter-cell gap per source.
    pub cell_gap: SimDuration,
    /// `true` mixes CBR and on-off sources; `false` is all-CBR
    /// (deterministic).
    pub mixed_traffic: bool,
    /// RNG seed for the network side.
    pub seed: u64,
}

impl Default for SwitchScenarioConfig {
    /// The paper's workload shape: a 4-port switch, 20 ns (50 MHz) DUT
    /// clock, cells every ~5 cell times per source.
    fn default() -> Self {
        SwitchScenarioConfig {
            ports: 4,
            cells_per_source: 2_500, // × 4 sources = the paper's 10 000 cells
            clock_period: SimDuration::from_ns(20),
            cell_gap: SimDuration::from_us(10),
            mixed_traffic: true,
            seed: 1998,
        }
    }
}

impl SwitchScenarioConfig {
    /// Total cells offered across all sources.
    #[must_use]
    pub fn total_cells(&self) -> u64 {
        self.cells_per_source * self.ports as u64
    }

    /// Ingress connection of line `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the VPI range (cannot happen for `ports <= 8`).
    #[must_use]
    pub fn in_conn(&self, i: usize) -> VpiVci {
        VpiVci::uni(1, 40 + i as u16).expect("static connection id")
    }

    /// Egress connection of line `i`'s stream (after translation).
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the VPI range (cannot happen for `ports <= 8`).
    #[must_use]
    pub fn out_conn(&self, i: usize) -> VpiVci {
        VpiVci::uni(7, 70 + i as u16).expect("static connection id")
    }

    /// Egress line of ingress line `i`'s stream.
    #[must_use]
    pub fn out_port(&self, i: usize) -> usize {
        (i + 1) % self.ports
    }

    fn traffic_model(&self, i: usize) -> Box<dyn TrafficModel> {
        if self.mixed_traffic && i % 2 == 1 {
            // Burst mean of 8 cells at line slot spacing; silence tuned so
            // the mean rate matches the CBR sources.
            let slot = SimDuration::from_ns(2726);
            let silence =
                SimDuration::from_picos(8 * self.cell_gap.as_picos() - 8 * slot.as_picos());
            Box::new(OnOffVbr::new(slot, 8.0, silence))
        } else {
            Box::new(Cbr::new(self.cell_gap))
        }
    }

    fn rtl_switch(&self) -> AtmSwitchRtl {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: self.ports,
            fifo_capacity: 256,
            table_capacity: 64,
        });
        for i in 0..self.ports {
            let ic = self.in_conn(i);
            let oc = self.out_conn(i);
            assert!(switch.install_route(
                ic.vpi.value() as u8,
                ic.vci.value(),
                self.out_port(i),
                oc.vpi.value() as u8,
                oc.vci.value(),
            ));
        }
        switch
    }
}

/// A fully assembled switch co-simulation (Fig. 1's left path).
pub struct SwitchCosim {
    /// The coupled simulation, ready to run.
    pub coupling: Coupling<RtlCosim>,
    /// Cells returned on each egress line, via the interface process.
    pub collectors: Vec<CollectorHandle>,
    /// The configuration it was built from.
    pub config: SwitchScenarioConfig,
}

impl std::fmt::Debug for SwitchCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCosim")
            .field("config", &self.config)
            .finish()
    }
}

impl SwitchCosim {
    /// Attaches a telemetry handle to every layer of the coupling.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &castanet::Telemetry) -> Self {
        self.coupling = self.coupling.with_telemetry(tel);
        self
    }
}

/// The network half shared by every switch co-simulation variant: traffic
/// sources into the interface process, one collector per egress line.
struct SwitchNet {
    net: Kernel,
    sync: ConservativeSync,
    cell_type: MessageTypeId,
    iface: castanet_netsim::event::ModuleId,
    outbox: castanet::interface::OutboxHandle,
    collectors: Vec<CollectorHandle>,
}

fn switch_net(config: &SwitchScenarioConfig) -> SwitchNet {
    let mut net = Kernel::new(config.seed);
    let node = net.add_node("coverify");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(config.clock_period * CELL_OCTETS as u64);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    for i in 0..config.ports {
        let src = net.add_module(
            node,
            format!("src{i}"),
            Box::new(
                TrafficSourceProcess::new(config.in_conn(i), config.traffic_model(i))
                    .with_limit(config.cells_per_source),
            ),
        );
        net.connect_stream(src, PortId(0), iface, PortId(i))
            .expect("fresh ports");
    }
    let mut collectors = Vec::new();
    for i in 0..config.ports {
        let (c, h) = CollectorProcess::new();
        let sink = net.add_module(node, format!("sink{i}"), Box::new(c));
        net.connect_stream(iface, PortId(i), sink, PortId(0))
            .expect("fresh ports");
        collectors.push(h);
    }
    SwitchNet {
        net,
        sync,
        cell_type,
        iface,
        outbox,
        collectors,
    }
}

/// The cycle follower of the cycle-based, parallel and multi-lane
/// variants and of the scenario sweep: `lanes` replicated switch
/// instances in one [`castanet_rtl::compiled::LaneBank`], every ingress
/// and egress line on the same pins in every lane.
fn switch_cycle_follower(
    config: &SwitchScenarioConfig,
    cell_type: MessageTypeId,
    lanes: usize,
) -> castanet::CycleCosim {
    use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
    use castanet_rtl::compiled::LaneBank;
    use castanet_rtl::cycle::CycleDut;
    let duts: Vec<Box<dyn CycleDut>> = (0..lanes)
        .map(|_| Box::new(config.rtl_switch()) as Box<dyn CycleDut>)
        .collect();
    let mut follower = CycleCosim::new(
        LaneBank::new(duts),
        config.clock_period,
        cell_type,
        HeaderFormat::Uni,
    );
    for i in 0..config.ports {
        let (data, sync, strobe) = (3 * i, 3 * i + 1, 3 * i + 2);
        let pins = "line pins are within the switch's port lists";
        follower
            .add_ingress(IngressIndices {
                data,
                sync,
                enable: strobe,
            })
            .expect(pins);
        follower
            .add_egress(EgressIndices {
                data,
                sync,
                valid: strobe,
            })
            .expect(pins);
    }
    follower
}

/// Builds the co-simulation of the paper's headline experiment: network
/// traffic sources drive the RTL switch through the CASTANET coupling;
/// egress cells return into the network model.
#[must_use]
pub fn switch_cosim(config: SwitchScenarioConfig) -> SwitchCosim {
    let SwitchNet {
        net,
        sync,
        cell_type,
        iface,
        outbox,
        collectors,
    } = switch_net(&config);

    // RTL side.
    let mut sim = Simulator::new();
    // Gated attachment: the switch reports idle between cells, so the long
    // inter-cell gaps cost zero clock events — the restarted edges land on
    // the same grid (period/2, then every period) the entity pokes against.
    let dut = attach_cycle_dut_gated(
        &mut sim,
        "switch",
        Box::new(config.rtl_switch()),
        config.clock_period,
    );
    let clk = dut.clk;
    let mut entity = CosimEntity::new(config.clock_period, HeaderFormat::Uni, cell_type);
    for i in 0..config.ports {
        entity.add_ingress(IngressSignals {
            data: dut.inputs[3 * i],
            sync: dut.inputs[3 * i + 1],
            enable: dut.inputs[3 * i + 2],
        });
    }
    // One egress sampler for every line: a busy clock costs one monitor
    // run, not one per port.
    let egress: Vec<EgressSignals> = (0..config.ports)
        .map(|i| EgressSignals {
            data: dut.outputs[3 * i],
            sync: dut.outputs[3 * i + 1],
            valid: dut.outputs[3 * i + 2],
        })
        .collect();
    entity.add_egress(&mut sim, clk, &egress);
    let follower = RtlCosim::new(sim, entity);

    SwitchCosim {
        coupling: Coupling::new(net, follower, sync, cell_type, iface, outbox).with_strict(true),
        collectors,
        config,
    }
}

/// The cycle-based variant of [`switch_cosim`]: the same network model and
/// workload, but the follower is the cycle engine with idle skipping — the
/// paper's §5 "integration of cycle-based simulation techniques".
pub struct SwitchCosimCycle {
    /// The coupled simulation, ready to run.
    pub coupling: Coupling<castanet::CycleCosim>,
    /// Cells returned on each egress line.
    pub collectors: Vec<CollectorHandle>,
    /// The configuration it was built from.
    pub config: SwitchScenarioConfig,
}

impl std::fmt::Debug for SwitchCosimCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCosimCycle")
            .field("config", &self.config)
            .finish()
    }
}

impl SwitchCosimCycle {
    /// Attaches a telemetry handle to every layer of the coupling.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &castanet::Telemetry) -> Self {
        self.coupling = self.coupling.with_telemetry(tel);
        self
    }
}

/// Builds the cycle-based co-simulation (see [`SwitchCosimCycle`]).
#[must_use]
pub fn switch_cosim_cycle(config: SwitchScenarioConfig) -> SwitchCosimCycle {
    let SwitchNet {
        net,
        sync,
        cell_type,
        iface,
        outbox,
        collectors,
    } = switch_net(&config);
    let follower = switch_cycle_follower(&config, cell_type, 1);
    SwitchCosimCycle {
        coupling: Coupling::new(net, follower, sync, cell_type, iface, outbox).with_strict(true),
        collectors,
        config,
    }
}

/// The parallel-executor variant: the same network model, workload and
/// cycle-engine follower as [`switch_cosim_cycle`], but hosted on
/// [`castanet::ParallelCoupling`] so the two engines run on separate threads.
pub struct SwitchCosimParallel {
    /// The parallel coupled simulation, ready to run.
    pub coupling: castanet::ParallelCoupling<castanet::CycleCosim>,
    /// Cells returned on each egress line.
    pub collectors: Vec<CollectorHandle>,
    /// The configuration it was built from.
    pub config: SwitchScenarioConfig,
}

impl std::fmt::Debug for SwitchCosimParallel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCosimParallel")
            .field("config", &self.config)
            .finish()
    }
}

impl SwitchCosimParallel {
    /// Attaches a telemetry handle to every layer of the parallel coupling
    /// (both engine threads record into the same sink and registry).
    #[must_use]
    pub fn with_telemetry(mut self, tel: &castanet::Telemetry) -> Self {
        self.coupling = self.coupling.with_telemetry(tel);
        self
    }
}

/// Builds the parallel coupled co-simulation (see [`SwitchCosimParallel`]).
#[must_use]
pub fn switch_cosim_parallel(config: SwitchScenarioConfig) -> SwitchCosimParallel {
    let SwitchNet {
        net,
        sync,
        cell_type,
        iface,
        outbox,
        collectors,
    } = switch_net(&config);
    let follower = switch_cycle_follower(&config, cell_type, 1);
    SwitchCosimParallel {
        coupling: castanet::ParallelCoupling::new(net, follower, sync, cell_type, iface, outbox)
            .with_strict(true),
        collectors,
        config,
    }
}

/// The multi-lane variant of [`switch_cosim_cycle`]: the same network model
/// and workload, with the cycle follower's lane 0 carrying the coupled
/// traffic and the other lanes free for seeded scenarios.
pub struct SwitchCosimCompiled {
    /// The coupled simulation, ready to run.
    pub coupling: Coupling<castanet::CompiledCosim>,
    /// Cells returned on each egress line.
    pub collectors: Vec<CollectorHandle>,
    /// The configuration it was built from.
    pub config: SwitchScenarioConfig,
}

impl std::fmt::Debug for SwitchCosimCompiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchCosimCompiled")
            .field("config", &self.config)
            .finish()
    }
}

impl SwitchCosimCompiled {
    /// Attaches a telemetry handle to every layer of the coupling.
    #[must_use]
    pub fn with_telemetry(mut self, tel: &castanet::Telemetry) -> Self {
        self.coupling = self.coupling.with_telemetry(tel);
        self
    }
}

/// Builds the multi-lane co-simulation (see [`SwitchCosimCompiled`]).
/// `lanes` instances run per sweep; network traffic drives lane 0 only —
/// seed the others through
/// [`castanet::CompiledCosim::seed_cell`] (or use
/// [`switch_compiled_sweep`]).
#[must_use]
pub fn switch_cosim_compiled(config: SwitchScenarioConfig, lanes: usize) -> SwitchCosimCompiled {
    let SwitchNet {
        net,
        sync,
        cell_type,
        iface,
        outbox,
        collectors,
    } = switch_net(&config);
    let follower = castanet::CompiledCosim::new(switch_cycle_follower(&config, cell_type, lanes));
    SwitchCosimCompiled {
        coupling: Coupling::new(net, follower, sync, cell_type, iface, outbox).with_strict(true),
        collectors,
        config,
    }
}

/// xorshift64* — the deterministic per-seed stream generator of the sweep
/// (and of the conformance suite's seeded traffic).
fn sweep_rng(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Runs an N-seed scenario sweep on an N-lane cycle follower: seed `i`'s
/// deterministic traffic lands in lane `i`, one batched advance evaluates
/// every lane together, and each lane's egress trace comes back
/// (egress-port-major, emission order within a port; lane 0's from its
/// responses).
///
/// Traffic per lane: `cells_per_source` cells on every ingress line, cell
/// `k` of line `p` at `k·cell_gap` plus a seed-derived jitter, payload
/// drawn from the same seed stream — so equal seeds produce byte-identical
/// traces and distinct seeds genuinely distinct ones.
///
/// # Panics
///
/// Panics when `seeds` is empty or exceeds
/// [`castanet_rtl::compiled::LANES`], and on cell-encode failures (static
/// headers cannot fail).
#[must_use]
pub fn switch_compiled_sweep(config: &SwitchScenarioConfig, seeds: &[u64]) -> Vec<Vec<AtmCell>> {
    use castanet::coupling::CoupledSimulator;
    assert!(
        !seeds.is_empty() && seeds.len() <= castanet_rtl::compiled::LANES,
        "1..={} seeds per sweep",
        castanet_rtl::compiled::LANES
    );
    let mut follower = switch_cycle_follower(config, MessageTypeId(0), seeds.len());
    let gap = config.cell_gap.as_picos();
    for (lane, &seed) in seeds.iter().enumerate() {
        let mut state = seed | 1;
        for port in 0..config.ports {
            for k in 0..config.cells_per_source {
                let jitter = sweep_rng(&mut state) % (gap / 2).max(1);
                let mut payload = [0u8; 48];
                for b in &mut payload {
                    *b = (sweep_rng(&mut state) & 0xFF) as u8;
                }
                let cell = AtmCell::user_data(config.in_conn(port), payload);
                let stamp = SimTime::from_picos(k * gap + jitter);
                follower
                    .seed_cell(lane, port, stamp, &cell)
                    .expect("static sweep cell");
            }
        }
    }
    let horizon = SimTime::from_picos((config.cells_per_source + 4) * gap);
    let responses = follower.advance_batch(horizon).expect("sweep advance");
    let lane0 = (0..config.ports).flat_map(|port| {
        responses
            .iter()
            .filter(move |m| m.port == port)
            .filter_map(|m| m.as_cell().cloned())
    });
    std::iter::once(lane0.collect())
        .chain((1..seeds.len()).map(|lane| {
            (0..config.ports)
                .flat_map(|port| follower.lane_cells(port, lane).iter().cloned())
                .collect()
        }))
        .collect()
}

/// Builds the pure-RTL baseline of E1: the same switch, but with stimulus
/// generation and response capture done *inside* the event-driven HDL
/// simulation (the hand-written regression bench of §1), driving every
/// clock of the line including idle cells.
#[must_use]
pub fn switch_pure_rtl(config: SwitchScenarioConfig) -> RegressionTestbench {
    let cell_time = config.clock_period * CELL_OCTETS as u64;
    let slot_stride = (config.cell_gap.as_picos() / cell_time.as_picos()).max(1);
    let stimuli: Vec<Vec<ScheduledCell>> = (0..config.ports)
        .map(|i| {
            (0..config.cells_per_source)
                .map(|k| ScheduledCell {
                    slot: k * slot_stride,
                    bytes: AtmCell::user_data(config.in_conn(i), sequenced_payload(k))
                        .encode(HeaderFormat::Uni)
                        .expect("static cells encode"),
                })
                .collect()
        })
        .collect();
    let mut tb = RegressionTestbench::new(
        Box::new(config.rtl_switch()),
        config.ports,
        config.clock_period,
        stimuli,
    );
    // The checker half of the hand-written bench: every egress line gets a
    // per-clock scoreboard expecting the translated streams — this is the
    // work a real regression bench performs on every clock.
    for i in 0..config.ports {
        let expected: Vec<[u8; CELL_OCTETS]> = (0..config.cells_per_source)
            .map(|k| {
                let mut cell = AtmCell::user_data(config.in_conn(i), sequenced_payload(k));
                cell.retag(config.out_conn(i));
                cell.encode(HeaderFormat::Uni).expect("static cells encode")
            })
            .collect();
        let _ = tb.add_scoreboard(config.out_port(i), expected);
    }
    tb
}

/// Clock cycles the pure-RTL bench needs to push the whole workload
/// through (stimulus span plus drain margin).
#[must_use]
pub fn pure_rtl_clocks(config: &SwitchScenarioConfig) -> u64 {
    let cell_time = config.clock_period * CELL_OCTETS as u64;
    let slot_stride = (config.cell_gap.as_picos() / cell_time.as_picos()).max(1);
    (config.cells_per_source * slot_stride + 4) * CELL_OCTETS as u64
}

/// Pre-fills a [`StreamComparator`] with the cells the reference model
/// predicts on the switch egress (translated headers, same payload order)
/// and checks a collector's output against it.
#[must_use]
pub fn compare_switch_output(
    config: &SwitchScenarioConfig,
    collectors: &[CollectorHandle],
) -> castanet::compare::ComparisonReport {
    let mut cmp = StreamComparator::new(None);
    for i in 0..config.ports {
        for k in 0..config.cells_per_source {
            let mut cell = AtmCell::user_data(config.in_conn(i), sequenced_payload(k));
            cell.retag(config.out_conn(i));
            cmp.expect(&cell, SimTime::ZERO);
        }
    }
    for handle in collectors {
        for (t, pkt) in handle.take() {
            match pkt.payload::<AtmCell>() {
                Some(cell) => cmp.observe(cell, t),
                None => cmp.observe_undecodable(t),
            }
        }
    }
    cmp.finish()
}

/// Builds the hardware-in-the-loop variant: the same 2-port data-path
/// subset of the switch behind the test board, coupled like the RTL
/// follower. Returns the follower; wire it into a [`Coupling`] like any
/// other.
#[must_use]
pub fn switch_on_board(cycle_len: u64, response_type: MessageTypeId) -> BoardCosim {
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 128,
        table_capacity: 16,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    assert!(switch.install_route(1, 41, 0, 7, 71));
    let chip = PortSubsetDut::new(Box::new(switch), (0..6).collect(), (0..6).collect());
    let (mapped, lanes) = MappedCycleDut::auto_mapped(Box::new(chip));
    let map = mapped.map().clone();
    let mut board = TestBoard::with_memory_depth(1 << 16);
    board
        .configure(map.clone(), lanes, castanet_testboard::MAX_CLOCK_HZ)
        .expect("static board configuration");
    let mut cosim = BoardCosim::new(
        board,
        Box::new(mapped),
        map,
        ScsiBus::default(),
        cycle_len,
        response_type,
        HeaderFormat::Uni,
    );
    cosim.add_ingress(IngressPorts {
        data: 0,
        sync: 1,
        enable: 2,
    });
    cosim.add_ingress(IngressPorts {
        data: 3,
        sync: 4,
        enable: 5,
    });
    cosim.add_egress(EgressPorts {
        data: 0,
        sync: 1,
        valid: 2,
    });
    cosim.add_egress(EgressPorts {
        data: 3,
        sync: 4,
        valid: 5,
    });
    cosim
}

// ---------------------------------------------------------------------
// E6: the accounting-unit case study
// ---------------------------------------------------------------------

/// A tap module: records `(time, connection)` of passing cells and forwards
/// them unchanged — how the reference model gets to see exactly the stream
/// the DUT sees.
struct TapProcess {
    log: std::sync::Arc<std::sync::Mutex<Vec<(SimTime, VpiVci)>>>,
}

impl castanet_netsim::process::Process for TapProcess {
    fn on_packet(
        &mut self,
        ctx: &mut castanet_netsim::kernel::Ctx,
        _port: PortId,
        packet: castanet_netsim::packet::Packet,
    ) {
        if let Some(cell) = packet.payload::<AtmCell>() {
            self.log
                .lock()
                .expect("tap lock poisoned")
                .push((ctx.now(), cell.id()));
        }
        ctx.send(PortId(0), packet).expect("tap output wired");
    }
}

/// Configuration of the accounting-unit verification (the §4 case study).
#[derive(Debug, Clone)]
pub struct AccountingScenarioConfig {
    /// Connections with their tariffs `(conn, weight, fixed)`.
    pub connections: Vec<(VpiVci, u16, u16)>,
    /// Cells each connection's source emits.
    pub cells_per_conn: u64,
    /// Inter-cell gap per source.
    pub cell_gap: SimDuration,
    /// Tariff-interval spacing; ticks fire at `k·interval + interval/2 +
    /// cell_gap/2` so no cell transfer straddles a tick (see the module
    /// notes on interval attribution).
    pub tick_interval: SimDuration,
    /// DUT clock period.
    pub clock_period: SimDuration,
    /// Network RNG seed.
    pub seed: u64,
}

impl Default for AccountingScenarioConfig {
    fn default() -> Self {
        AccountingScenarioConfig {
            connections: vec![
                (VpiVci::uni(1, 40).expect("static id"), 2, 50),
                (VpiVci::uni(1, 41).expect("static id"), 1, 10),
                (VpiVci::uni(2, 50).expect("static id"), 0, 100),
            ],
            cells_per_conn: 50,
            cell_gap: SimDuration::from_us(10),
            tick_interval: SimDuration::from_us(100),
            clock_period: SimDuration::from_ns(20),
            seed: 7,
        }
    }
}

/// An assembled accounting-unit co-verification.
pub struct AccountingCosim {
    /// The coupled simulation.
    pub coupling: Coupling<RtlCosim>,
    /// Tick times that were scheduled into the RTL side.
    pub ticks: Vec<SimTime>,
    /// The stream tap (time, connection) log.
    pub tap: std::sync::Arc<std::sync::Mutex<Vec<(SimTime, VpiVci)>>>,
    /// Signal map of the attached accounting DUT.
    pub dut: castanet_rtl::cycle::AttachedDut,
    /// The configuration.
    pub config: AccountingScenarioConfig,
}

impl std::fmt::Debug for AccountingCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccountingCosim")
            .field("config", &self.config)
            .finish()
    }
}

/// Builds the §4 case study: multiplexed connection traffic into the RTL
/// accounting unit, tariff ticks pre-scheduled, a tap for the reference.
///
/// # Panics
///
/// Panics on inconsistent static configuration.
#[must_use]
pub fn accounting_cosim(config: AccountingScenarioConfig) -> AccountingCosim {
    let horizon = SimTime::ZERO
        + SimDuration::from_picos(
            config.cell_gap.as_picos() * (config.cells_per_conn + 4)
                + 2 * config.tick_interval.as_picos(),
        );

    // Network side: sources multiplexed through the tap into the interface.
    let mut net = Kernel::new(config.seed);
    let node = net.add_node("accounting");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(config.clock_period * CELL_OCTETS as u64);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let tap = net.add_module(
        node,
        "tap",
        Box::new(TapProcess {
            log: std::sync::Arc::clone(&log),
        }),
    );
    net.connect_stream(tap, PortId(0), iface, PortId(0))
        .expect("fresh port");
    // A shared mux in front of the tap: sources all feed the tap.
    for (i, &(conn, _, _)) in config.connections.iter().enumerate() {
        let src = net.add_module(
            node,
            format!("src{i}"),
            Box::new(
                TrafficSourceProcess::new(conn, Box::new(Cbr::new(config.cell_gap)))
                    .with_limit(config.cells_per_conn),
            ),
        );
        net.connect_stream(src, PortId(0), tap, PortId(i))
            .expect("fresh port");
    }

    // RTL side: the accounting unit, pre-registered, with tick pokes.
    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", config.clock_period);
    let mut unit = castanet_rtl::dut::AccountingUnitRtl::new(64);
    for &(conn, weight, fixed) in &config.connections {
        assert!(unit.register(conn.vpi.value() as u8, conn.vci.value(), weight, fixed));
    }
    let dut = attach_cycle_dut(&mut sim, "acct", Box::new(unit), clk);
    // Tick pulses: one clock wide, offset so no cell transfer straddles
    // them (cells complete ~2 cell times after their network stamp).
    let mut ticks = Vec::new();
    let mut t = SimTime::ZERO + config.tick_interval + config.tick_interval / 2;
    while t < horizon {
        let setup = config.clock_period / 4;
        sim.poke_bit(dut.inputs[3], castanet_rtl::Logic::One, t - setup)
            .expect("tick poke");
        sim.poke_bit(
            dut.inputs[3],
            castanet_rtl::Logic::Zero,
            t + config.clock_period - setup,
        )
        .expect("tick poke");
        ticks.push(t);
        t += config.tick_interval;
    }
    let mut entity = CosimEntity::new(config.clock_period, HeaderFormat::Uni, cell_type);
    entity.add_ingress(IngressSignals {
        data: dut.inputs[0],
        sync: dut.inputs[1],
        enable: dut.inputs[2],
    });
    let follower = RtlCosim::new(sim, entity);

    AccountingCosim {
        coupling: Coupling::new(net, follower, sync, cell_type, iface, outbox).with_strict(true),
        ticks,
        tap: log,
        dut,
        config,
    }
}

impl AccountingCosim {
    /// The simulated horizon that covers all traffic plus two idle
    /// intervals.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO
            + SimDuration::from_picos(
                self.config.cell_gap.as_picos() * (self.config.cells_per_conn + 4)
                    + 2 * self.config.tick_interval.as_picos(),
            )
    }

    /// Computes the reference accounting state from the tapped stream and
    /// the scheduled ticks. Cells are attributed to the interval their
    /// completion (network stamp + 2 cell times) falls into.
    ///
    /// # Panics
    ///
    /// Panics on reference-model registration conflicts (static config).
    #[must_use]
    pub fn reference(&self) -> castanet_atm::accounting::AccountingUnit {
        use castanet_atm::accounting::{AccountingUnit, Tariff};
        let mut reference = AccountingUnit::new();
        for &(conn, weight, fixed) in &self.config.connections {
            reference
                .register(
                    conn,
                    Tariff {
                        weight: u32::from(weight),
                        fixed: u32::from(fixed),
                    },
                )
                .expect("static registration");
        }
        let completion_lag = self.config.clock_period * (2 * CELL_OCTETS as u64);
        let mut events: Vec<(SimTime, Option<VpiVci>)> = self
            .tap
            .lock()
            .expect("tap lock poisoned")
            .iter()
            .map(|&(t, conn)| (t + completion_lag, Some(conn)))
            .collect();
        events.extend(self.ticks.iter().map(|&t| (t, None)));
        events.sort_by_key(|&(t, conn)| (t, conn.is_none()));
        for (_, conn) in events {
            match conn {
                Some(c) => reference.on_cell(c),
                None => reference.interval_tick(),
            }
        }
        reference
    }

    /// Reads one connection's `(cells, charge)` record back from the RTL
    /// DUT through its pin interface. Call after the coupled run finished.
    ///
    /// # Panics
    ///
    /// Panics if the read-back pokes fail (cannot happen after a clean
    /// run).
    pub fn read_rtl_record(&mut self, conn: VpiVci) -> Option<(u64, u64)> {
        let period = self.config.clock_period;
        let setup = period / 4;
        let sim = self.coupling.follower_mut().sim_mut();
        // Find the next clock edge comfortably in the future.
        let now = sim.now();
        let edge_guess = now + period * 3;
        let poke_at = edge_guess - setup;
        sim.poke_bit(self.dut.inputs[9], castanet_rtl::Logic::One, poke_at)
            .expect("rd_valid poke");
        sim.poke(
            self.dut.inputs[10],
            castanet_rtl::LogicVector::from_u64(u64::from(conn.vpi.value()), 8),
            poke_at,
        )
        .expect("rd_vpi poke");
        sim.poke(
            self.dut.inputs[11],
            castanet_rtl::LogicVector::from_u64(u64::from(conn.vci.value()), 16),
            poke_at,
        )
        .expect("rd_vci poke");
        sim.run_until(edge_guess + period * 2)
            .expect("readback run");
        let found = sim.read_u64(self.dut.outputs[0]) == Some(1);
        if !found {
            return None;
        }
        Some((
            sim.read_u64(self.dut.outputs[1]).expect("rd_cells defined"),
            sim.read_u64(self.dut.outputs[2])
                .expect("rd_charge defined"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SwitchScenarioConfig {
        SwitchScenarioConfig {
            cells_per_source: 20,
            mixed_traffic: false,
            ..SwitchScenarioConfig::default()
        }
    }

    #[test]
    fn switch_cosim_runs_and_matches_reference() {
        let scenario = switch_cosim(small());
        let mut coupling = scenario.coupling;
        coupling.run(SimTime::from_ms(10)).unwrap();
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{report}");
        assert_eq!(report.matched, 80);
    }

    #[test]
    fn mixed_traffic_also_matches() {
        let config = SwitchScenarioConfig {
            cells_per_source: 30,
            ..SwitchScenarioConfig::default()
        };
        let scenario = switch_cosim(config);
        let mut coupling = scenario.coupling;
        coupling.run(SimTime::from_ms(50)).unwrap();
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{report}");
        assert_eq!(report.matched, 120);
    }

    #[test]
    fn pure_rtl_baseline_delivers_the_same_cells() {
        let config = SwitchScenarioConfig {
            cells_per_source: 5,
            mixed_traffic: false,
            ..SwitchScenarioConfig::default()
        };
        let mut tb = switch_pure_rtl(config);
        tb.run_clocks(pure_rtl_clocks(&config)).unwrap();
        // Each ingress line i's cells leave on line (i+1)%4 retagged.
        for i in 0..config.ports {
            let out = tb.monitor(config.out_port(i)).take();
            let user: Vec<_> = out
                .iter()
                .filter(|(_, bytes)| !castanet_atm::idle::is_idle_cell(bytes))
                .collect();
            assert_eq!(
                user.len(),
                5,
                "egress line {} of ingress {i}",
                config.out_port(i)
            );
            for (k, (_, bytes)) in user.iter().enumerate() {
                let cell = AtmCell::decode(bytes, HeaderFormat::Uni).unwrap();
                assert_eq!(cell.id(), config.out_conn(i));
                assert_eq!(cell.payload, sequenced_payload(k as u64));
            }
        }
    }

    #[test]
    fn cycle_based_cosim_matches_reference_too() {
        let scenario = switch_cosim_cycle(small());
        let mut coupling = scenario.coupling;
        coupling.run(SimTime::from_ms(10)).unwrap();
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{report}");
        assert_eq!(report.matched, 80);
        // Idle skipping actually fired.
        assert!(coupling.follower().clocks_skipped() > 0);
    }

    #[test]
    fn compiled_cosim_matches_reference_too() {
        let scenario = switch_cosim_compiled(small(), 4);
        let mut coupling = scenario.coupling;
        coupling.run(SimTime::from_ms(10)).unwrap();
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{report}");
        assert_eq!(report.matched, 80);
        // Some clocks were idle in every lane and skipped, and only lane 0
        // carried the coupled traffic.
        let follower = coupling.follower();
        assert!(follower.clocks_skipped() > 0);
        for port in 0..scenario.config.ports {
            assert!(follower.lane_cells(port, 1).is_empty());
        }
    }

    #[test]
    fn compiled_sweep_is_seed_deterministic_and_lane_independent() {
        let config = SwitchScenarioConfig {
            cells_per_source: 6,
            mixed_traffic: false,
            ..SwitchScenarioConfig::default()
        };
        let traces = switch_compiled_sweep(&config, &[11, 22, 11, 33]);
        assert_eq!(traces.len(), 4);
        for (lane, trace) in traces.iter().enumerate() {
            assert_eq!(
                trace.len() as u64,
                config.total_cells(),
                "lane {lane} delivered everything"
            );
        }
        assert_eq!(traces[0], traces[2], "equal seeds, equal traces");
        assert_ne!(traces[0], traces[1], "distinct seeds diverge");
        // Permuting the seed list permutes the traces (no cross-lane bleed).
        let permuted = switch_compiled_sweep(&config, &[33, 11, 22, 11]);
        assert_eq!(permuted[0], traces[3]);
        assert_eq!(permuted[1], traces[0]);
        assert_eq!(permuted[2], traces[1]);
        // At the lane cap, lane 63's trace is that of its seed swept alone.
        let mut seeds = vec![11; castanet_rtl::compiled::LANES];
        seeds[63] = 33;
        let full = switch_compiled_sweep(&config, &seeds);
        assert_eq!(full.len(), 64);
        assert_eq!(full[63], switch_compiled_sweep(&config, &[33])[0]);
    }

    #[test]
    fn parallel_cosim_matches_reference_too() {
        let scenario = switch_cosim_parallel(small());
        let mut coupling = scenario.coupling;
        let stats = coupling.run(SimTime::from_ms(10)).unwrap();
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{report}");
        assert_eq!(report.matched, 80);
        assert_eq!(stats.late_responses, 0);
        assert!(coupling.sync().lag_invariant_holds());
    }

    #[test]
    fn accounting_cosim_matches_reference() {
        let config = AccountingScenarioConfig {
            cells_per_conn: 20,
            ..AccountingScenarioConfig::default()
        };
        let mut scenario = accounting_cosim(config);
        let horizon = scenario.horizon();
        scenario.coupling.run(horizon).unwrap();
        let reference = scenario.reference();
        let conns: Vec<VpiVci> = scenario.config.connections.iter().map(|c| c.0).collect();
        for conn in conns {
            let (cells, charge) = scenario.read_rtl_record(conn).expect("registered");
            let rec = reference.record(conn).expect("registered");
            assert_eq!(cells, rec.cells, "{conn} cells");
            assert_eq!(charge, rec.charge, "{conn} charge");
            assert_eq!(cells, 20);
        }
    }

    #[test]
    fn board_variant_switches_cells() {
        use castanet::coupling::CoupledSimulator;
        use castanet::message::Message;
        let mut cosim = switch_on_board(256, MessageTypeId(3));
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), [1; 48]);
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell))
            .unwrap();
        let responses = cosim
            .advance_until(SimTime::from_picos(400 * 50_000))
            .unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].as_cell().unwrap().id(),
            VpiVci::uni(7, 70).unwrap()
        );
    }
}
