//! The E1 co-verification benchmark: the paper's 10 000-cell switch workload
//! on every engine × executor, plus a 64-lane sweep on the compiled backend.
//!
//! Every repetition builds a fresh scenario through the public
//! `coverify::scenarios` constructors, runs it, checks the egress against
//! the reference model and records the simulated counts the run produced.
//! A traced repetition wraps the follower in [`Timed`] and attaches a
//! counters-only telemetry handle, so each layer is timed from outside, at
//! the calls into it. `README.md` maps every metric to its layer.

use std::collections::BTreeMap;
use std::time::Instant;

use castanet::compare::{ComparisonReport, Mismatch, StreamComparator};
use castanet::coupling::{CoupledSimulator, Coupling, CouplingStats, RtlCosim};
use castanet::sync::conservative::SyncStats;
use castanet::sync::ConservativeSync;
use castanet::{
    CastanetError, CompiledCosim, CycleCosim, Message, MessageTypeId, ParallelCoupling, Telemetry,
};
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_lint::Diagnostic;
use castanet_netsim::process::CollectorHandle;
use castanet_netsim::time::SimTime;
use coverify::scenarios::{self, SwitchScenarioConfig};

/// The scenarios' own seed, used when no `--seed` is given.
pub const DEFAULT_SEED: u64 = 1998;

/// Switch instances in the compiled lane sweep.
pub const LANES: usize = 64;

/// Cells each ingress line of each lane carries in the lane sweep.
pub const LANE_CELLS_PER_SOURCE: u64 = 64;

/// Horizon handed to the couplings; the E1 traffic ends long before it.
const UNTIL: SimTime = SimTime::from_secs(10);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E1 on the event-driven RTL follower under the serial coupling.
    E1Event,
    /// E1 on the cycle engine under the serial coupling.
    E1Cycle,
    /// E1 on the cycle engine under the parallel executor.
    E1CycleParallel,
    /// 64 switch lanes on the compiled backend, seeded directly.
    LaneSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::E1Event,
        Workload::E1Cycle,
        Workload::E1CycleParallel,
        Workload::LaneSweep,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Event => "e1_event",
            Workload::E1Cycle => "e1_cycle",
            Workload::E1CycleParallel => "e1_cycle_parallel",
            Workload::LaneSweep => "lane_sweep",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's E1 workload: 4 × 2 500 cells of mixed CBR/on-off traffic.
#[must_use]
pub fn e1_config(seed: u64) -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        seed,
        ..SwitchScenarioConfig::default()
    }
}

/// The lane sweep's switch: all-CBR line layout, one cell every two cell
/// times (2.12 µs at the 20 ns clock) on every ingress line.
#[must_use]
pub fn lane_config(seed: u64) -> SwitchScenarioConfig {
    let base = SwitchScenarioConfig::default();
    SwitchScenarioConfig {
        cells_per_source: LANE_CELLS_PER_SOURCE,
        cell_gap: base.clock_period * (2 * CELL_OCTETS as u64),
        mixed_traffic: false,
        seed,
        ..base
    }
}

/// What one repetition runs on: the scenario configuration and, for the
/// lane sweep, the per-lane traffic generated from the workload seed.
#[derive(Debug, Clone)]
pub struct Input {
    /// Scenario configuration.
    pub config: SwitchScenarioConfig,
    /// Per-lane traffic (lane sweep only).
    pub lanes: Option<LaneTraffic>,
}

impl Input {
    /// The full-size input of `workload` for `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::LaneSweep => {
                let config = lane_config(seed);
                let lanes = Some(LaneTraffic::generate(&config, seed, LANES));
                Input { config, lanes }
            }
            _ => Input {
                config: e1_config(seed),
                lanes: None,
            },
        }
    }
}

/// Seeded traffic of the lane sweep: `cells[lane][port]` is that line's
/// stream of `(stamp, cell)` in stamp order.
#[derive(Debug, Clone)]
pub struct LaneTraffic {
    /// Per lane, per ingress line, the stamped cells.
    pub cells: Vec<Vec<Vec<(SimTime, AtmCell)>>>,
}

impl LaneTraffic {
    /// Cell `k` of each line lands at `k · cell_gap` plus a jitter below a
    /// quarter gap; the jitter and the payload bytes come from a per-lane
    /// xorshift64* stream keyed by `seed`.
    #[must_use]
    pub fn generate(config: &SwitchScenarioConfig, seed: u64, lanes: usize) -> Self {
        let gap = config.cell_gap.as_picos();
        let cells = (0..lanes as u64)
            .map(|lane| {
                let mut state = splitmix64(seed ^ splitmix64(lane)) | 1;
                (0..config.ports)
                    .map(|port| {
                        (0..config.cells_per_source)
                            .map(|k| {
                                let jitter = xorshift64star(&mut state) % (gap / 4);
                                let mut payload = [0u8; 48];
                                for b in &mut payload {
                                    *b = xorshift64star(&mut state) as u8;
                                }
                                let cell = AtmCell::user_data(config.in_conn(port), payload);
                                (SimTime::from_picos(k * gap + jitter), cell)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        LaneTraffic { cells }
    }

    /// Total cells across lanes and lines.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.cells.iter().flatten().map(|l| l.len() as u64).sum()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Simulated counts of one repetition, by metric name. Every value must
/// repeat exactly between repetitions of one seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// Host time spent inside one follower's calls, accumulated by [`Timed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FollowerTime {
    /// Nanoseconds inside `deliver`.
    pub deliver_ns: u64,
    /// Nanoseconds inside `advance_until` / `advance_batch`.
    pub advance_ns: u64,
    /// `advance_until` / `advance_batch` calls.
    pub advance_calls: u64,
}

/// The timing adapter: a follower that forwards every call to `inner` and
/// adds the host time of `deliver` and of each advance to [`FollowerTime`].
#[derive(Debug)]
pub struct Timed<S> {
    /// The wrapped follower.
    pub inner: S,
    /// Time accumulated so far.
    pub time: FollowerTime,
}

impl<S> Timed<S> {
    /// Wraps `inner` with zeroed timers.
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            time: FollowerTime::default(),
        }
    }

    fn advance(
        &mut self,
        f: impl FnOnce(&mut S) -> Result<Vec<Message>, CastanetError>,
    ) -> Result<Vec<Message>, CastanetError> {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.time.advance_ns += elapsed_ns(start);
        self.time.advance_calls += 1;
        out
    }
}

impl<S: CoupledSimulator> CoupledSimulator for Timed<S> {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let start = Instant::now();
        let out = self.inner.deliver(msg);
        self.time.deliver_ns += elapsed_ns(start);
        out
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance(|s| s.advance_until(horizon))
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance(|s| s.advance_batch(horizon))
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.inner.set_telemetry(tel);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn structural_preflight(&self) -> Vec<String> {
        self.inner.structural_preflight()
    }

    fn fork(&self) -> Option<Self> {
        Some(Timed {
            inner: self.inner.fork()?,
            time: self.time,
        })
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Per-CPU hypervisor steal time so far, in `/proc/stat` clock ticks; empty
/// where `/proc/stat` is unavailable.
fn steal_ticks() -> Vec<u64> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8)?.parse().ok())
        .collect()
}

/// `/proc/stat` counts in `USER_HZ` ticks, 100 per second on Linux.
const TICK_S: f64 = 0.01;

/// Wall time of a window together with the time the hypervisor ran other
/// guests on this machine's CPUs during it.
struct Stopwatch {
    start: Instant,
    steal: Vec<u64>,
}

impl Stopwatch {
    fn start() -> Self {
        let steal = steal_ticks();
        Stopwatch {
            start: Instant::now(),
            steal,
        }
    }

    /// `(wall seconds, steal seconds)` since `start`. Steal is the largest
    /// per-CPU increase: two CPUs stolen at once delay the run by one
    /// stretch, not two.
    fn read(&self) -> (f64, f64) {
        let wall = secs(self.start);
        let stolen = steal_ticks()
            .iter()
            .zip(&self.steal)
            .map(|(now, then)| now.saturating_sub(*then))
            .max()
            .unwrap_or(0);
        (wall, stolen as f64 * TICK_S)
    }
}

/// Follower-side counts and timers the benchmark reads after a run.
trait FollowerStats {
    /// Adds the follower engine's simulated counts.
    fn add_counts(&self, counts: &mut Counts);
    /// DUT outputs that did not decode as cells.
    fn undecodable(&self) -> u64 {
        0
    }
    /// Host time inside the follower's calls (zero unless [`Timed`]).
    fn time(&self) -> FollowerTime {
        FollowerTime::default()
    }
}

impl FollowerStats for RtlCosim {
    fn add_counts(&self, counts: &mut Counts) {
        let c = self.sim().counters();
        counts.insert("rtl.sim.events", c.events);
        counts.insert("rtl.sim.transactions", c.transactions);
        counts.insert("rtl.sim.delta_cycles", c.delta_cycles);
        counts.insert("rtl.sim.process_runs", c.process_runs);
        counts.insert("rtl.sim.time_steps", c.time_steps);
    }
}

impl FollowerStats for CycleCosim {
    fn add_counts(&self, counts: &mut Counts) {
        counts.insert("rtl.cycle.clocks_evaluated", self.clocks_evaluated());
        counts.insert("rtl.cycle.clocks_skipped", self.clocks_skipped());
    }

    fn undecodable(&self) -> u64 {
        self.undecodable()
    }
}

impl FollowerStats for CompiledCosim {
    fn add_counts(&self, counts: &mut Counts) {
        counts.insert("compiled.clocks_evaluated", self.clocks_evaluated());
        counts.insert("compiled.clocks_skipped", self.clocks_skipped());
    }

    fn undecodable(&self) -> u64 {
        self.undecodable()
    }
}

impl<S: FollowerStats> FollowerStats for Timed<S> {
    fn add_counts(&self, counts: &mut Counts) {
        self.inner.add_counts(counts);
    }

    fn undecodable(&self) -> u64 {
        self.inner.undecodable()
    }

    fn time(&self) -> FollowerTime {
        self.time
    }
}

/// Host seconds of the three set-up steps of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Scenario assembly (`coverify::scenarios`).
    pub build_s: f64,
    /// The coupling's `preflight()`.
    pub preflight_s: f64,
    /// `castanet_lint` on the assembled coupling.
    pub lint_s: f64,
}

impl Setup {
    /// Host seconds from nothing to ready-to-run.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.build_s + self.preflight_s + self.lint_s
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up times.
    pub setup: Setup,
    /// Wall seconds of the timed run (for the lane sweep: seeding plus the
    /// batched advance).
    pub run_s: f64,
    /// Wall seconds of the egress comparison.
    pub compare_s: f64,
    /// Steal seconds during the run.
    pub run_steal_s: f64,
    /// Steal seconds during the run and the comparison.
    pub wall_steal_s: f64,
    /// Wall seconds of the `seed_cell` calls (lane sweep only).
    pub seed_s: f64,
    /// Cells offered to the DUT.
    pub cells: u64,
    /// Missing + unexpected + corrupted + out-of-order + undecodable cells.
    pub cell_errors: u64,
    /// Simulated DUT clocks (span ÷ clock period), summed over lanes.
    pub dut_clocks: u64,
    /// Simulated counts; must repeat exactly.
    pub counts: Counts,
    /// Host time inside the follower's calls (traced only).
    pub follower: FollowerTime,
    /// Counters that depend on host timing (`ring.*_parks`; traced only).
    pub host_counts: Counts,
}

impl Rep {
    /// Wall seconds of the timed window plus the comparison.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.compare_s
    }

    /// Host seconds of the run: wall time less steal.
    #[must_use]
    pub fn host_run_s(&self) -> f64 {
        unstolen(self.run_s, self.run_steal_s)
    }

    /// Host seconds of the run plus the comparison: wall time less steal.
    #[must_use]
    pub fn host_wall_s(&self) -> f64 {
        unstolen(self.wall_s(), self.wall_steal_s)
    }
}

/// Wall less steal. The steal counter ticks every 10 ms, so a window far
/// shorter than a tick can read more steal than wall; it keeps its wall.
fn unstolen(wall: f64, steal: f64) -> f64 {
    if steal < wall {
        wall - steal
    } else {
        wall
    }
}

/// Errors in a comparison: each mismatch is one cell, except that a
/// `Missing` entry stands for `count` cells.
fn cell_errors(report: &ComparisonReport) -> u64 {
    report
        .mismatches
        .iter()
        .map(|m| match m {
            Mismatch::Missing { count, .. } => *count,
            _ => 1,
        })
        .sum()
}

fn set_up<T>(
    build: impl FnOnce() -> T,
    preflight: impl FnOnce(&T) -> Result<(), CastanetError>,
    lint: impl FnOnce(&T) -> Vec<Diagnostic>,
) -> Result<(T, Setup), String> {
    let start = Instant::now();
    let built = build();
    let build_s = secs(start);
    let start = Instant::now();
    preflight(&built).map_err(|e| format!("preflight: {e}"))?;
    let preflight_s = secs(start);
    let start = Instant::now();
    let diags = lint(&built);
    let lint_s = secs(start);
    if castanet_lint::has_errors(&diags) {
        return Err(format!(
            "lint: {}",
            castanet_lint::render_human(&diags).trim_end()
        ));
    }
    Ok((
        built,
        Setup {
            build_s,
            preflight_s,
            lint_s,
        },
    ))
}

/// A synchronizer registered like the scenario's: the one registration,
/// the cell type with δ = one cell time.
fn fresh_sync(config: &SwitchScenarioConfig, cell_type: MessageTypeId) -> ConservativeSync {
    let mut sync = ConservativeSync::new();
    let registered = sync.register_type(config.clock_period * CELL_OCTETS as u64);
    assert_eq!(
        registered, cell_type,
        "rebuilt synchronizer must hand out the scenario's cell type"
    );
    sync
}

/// Rebuilds a serial scenario coupling around the timing adapter.
pub fn timed_serial<S: CoupledSimulator>(
    config: &SwitchScenarioConfig,
    coupling: Coupling<S>,
) -> Coupling<Timed<S>> {
    let (ct, iface, outbox) = (
        coupling.cell_type(),
        coupling.iface_module(),
        coupling.outbox(),
    );
    let (net, follower) = coupling.into_parts();
    let sync = fresh_sync(config, ct);
    Coupling::new(net, Timed::new(follower), sync, ct, iface, outbox).with_strict(true)
}

/// Rebuilds a parallel scenario coupling around the timing adapter.
pub fn timed_parallel<S: CoupledSimulator + Send>(
    config: &SwitchScenarioConfig,
    coupling: ParallelCoupling<S>,
) -> ParallelCoupling<Timed<S>> {
    let (ct, iface, outbox) = (
        coupling.cell_type(),
        coupling.iface_module(),
        coupling.outbox(),
    );
    let (net, follower) = coupling.into_parts();
    let sync = fresh_sync(config, ct);
    ParallelCoupling::new(net, Timed::new(follower), sync, ct, iface, outbox).with_strict(true)
}

/// The serial and parallel couplings, seen through what a repetition needs.
trait Executor {
    /// The follower type.
    type Follower: CoupledSimulator + FollowerStats;
    /// Runs to completion.
    fn run_all(&mut self) -> Result<CouplingStats, CastanetError>;
    /// Synchronizer statistics after the run.
    fn sync_stats(&self) -> SyncStats;
    /// The follower after the run.
    fn follower(&self) -> &Self::Follower;
}

impl<S: CoupledSimulator + FollowerStats> Executor for Coupling<S> {
    type Follower = S;
    fn run_all(&mut self) -> Result<CouplingStats, CastanetError> {
        self.run(UNTIL)
    }
    fn sync_stats(&self) -> SyncStats {
        Coupling::sync_stats(self)
    }
    fn follower(&self) -> &S {
        Coupling::follower(self)
    }
}

impl<S: CoupledSimulator + FollowerStats + Send> Executor for ParallelCoupling<S> {
    type Follower = S;
    fn run_all(&mut self) -> Result<CouplingStats, CastanetError> {
        self.run(UNTIL)
    }
    fn sync_stats(&self) -> SyncStats {
        ParallelCoupling::sync_stats(self)
    }
    fn follower(&self) -> &S {
        ParallelCoupling::follower(self)
    }
}

/// Runs one assembled E1 coupling, compares its egress against the
/// reference model and collects its counts. Only `run` and the comparison
/// are inside the timed windows.
fn e1_rep<E: Executor>(
    mut coupling: E,
    config: &SwitchScenarioConfig,
    collectors: &[CollectorHandle],
    setup: Setup,
    tel: Option<&Telemetry>,
) -> Result<Rep, String> {
    let watch = Stopwatch::start();
    let stats = coupling.run_all().map_err(|e| format!("run: {e}"))?;
    let (run_s, run_steal_s) = watch.read();
    let report = scenarios::compare_switch_output(config, collectors);
    let (wall_s, wall_steal_s) = watch.read();

    let follower = coupling.follower();
    let sync = coupling.sync_stats();
    let mut counts = Counts::new();
    counts.insert("netsim.net_events", stats.net_events);
    counts.insert("coupling.messages_to_follower", stats.messages_to_follower);
    counts.insert("coupling.responses", stats.responses);
    counts.insert("coupling.deferred_responses", stats.deferred_responses);
    counts.insert("coupling.late_responses", stats.late_responses);
    counts.insert("sync.messages", sync.messages);
    counts.insert("sync.null_messages", sync.null_messages);
    counts.insert("sync.batches", sync.batches);
    counts.insert("sync.max_lag_ps", sync.max_lag.as_picos());
    counts.insert("compare.matched", report.matched);
    follower.add_counts(&mut counts);
    let span_ps = follower.now().as_picos();
    counts.insert("follower.now_ps", span_ps);
    let mut host_counts = Counts::new();
    if let Some(tel) = tel {
        let m = tel.metrics_snapshot();
        for name in ["ring.originator_parks", "ring.follower_parks"] {
            host_counts.insert(name, m.counter(name).unwrap_or(0));
        }
    }
    Ok(Rep {
        setup,
        run_s,
        compare_s: wall_s - run_s,
        run_steal_s,
        wall_steal_s,
        seed_s: 0.0,
        cells: config.total_cells(),
        cell_errors: cell_errors(&report) + follower.undecodable(),
        dut_clocks: span_ps / config.clock_period.as_picos(),
        counts,
        follower: follower.time(),
        host_counts,
    })
}

/// Runs one repetition of `workload` on `input`: a freshly built scenario,
/// set-up timed step by step, then the timed run and the comparison.
/// `traced` wraps the follower in [`Timed`] and attaches counters-only
/// telemetry.
pub fn run_rep(workload: Workload, input: &Input, traced: bool) -> Result<Rep, String> {
    let config = &input.config;
    let tel = traced.then(Telemetry::counters_only);
    match workload {
        Workload::E1Event => {
            let (sc, setup) = set_up(
                || scenarios::switch_cosim(*config),
                |s| s.coupling.preflight(),
                |s| castanet_lint::check_coupling(&s.coupling),
            )?;
            match &tel {
                Some(t) => {
                    let c = timed_serial(config, sc.coupling).with_telemetry(t);
                    e1_rep(c, config, &sc.collectors, setup, tel.as_ref())
                }
                None => e1_rep(sc.coupling, config, &sc.collectors, setup, None),
            }
        }
        Workload::E1Cycle => {
            let (sc, setup) = set_up(
                || scenarios::switch_cosim_cycle(*config),
                |s| s.coupling.preflight(),
                |s| castanet_lint::check_coupling_setup(&s.coupling),
            )?;
            match &tel {
                Some(t) => {
                    let c = timed_serial(config, sc.coupling).with_telemetry(t);
                    e1_rep(c, config, &sc.collectors, setup, tel.as_ref())
                }
                None => e1_rep(sc.coupling, config, &sc.collectors, setup, None),
            }
        }
        Workload::E1CycleParallel => {
            // `check_coupling_setup` takes the serial coupling; the same two
            // passes run here on the parallel one.
            let (sc, setup) = set_up(
                || scenarios::switch_cosim_parallel(*config),
                |s| s.coupling.preflight(),
                |s| {
                    let mut diags = castanet_lint::passes::sync_liveness::check_sync(
                        s.coupling.sync(),
                        Some(s.coupling.cell_type()),
                    );
                    diags.extend(castanet_lint::passes::topology::check_topology(
                        s.coupling.net(),
                        Some(s.coupling.iface_module()),
                    ));
                    diags
                },
            )?;
            match &tel {
                Some(t) => {
                    let c = timed_parallel(config, sc.coupling).with_telemetry(t);
                    e1_rep(c, config, &sc.collectors, setup, tel.as_ref())
                }
                None => e1_rep(sc.coupling, config, &sc.collectors, setup, None),
            }
        }
        Workload::LaneSweep => {
            let traffic = input
                .lanes
                .as_ref()
                .ok_or("lane_sweep needs lane traffic")?;
            let (sc, setup) = set_up(
                || scenarios::switch_cosim_compiled(*config, traffic.cells.len()),
                |s| s.coupling.preflight(),
                |s| castanet_lint::check_coupling_setup(&s.coupling),
            )?;
            let (net, mut follower) = sc.coupling.into_parts();
            drop(net);
            lane_rep(&mut follower, config, traffic, setup, tel.as_ref())
        }
    }
}

/// The lane sweep's timed part: seed every lane's traffic, one batched
/// advance, then one comparator per lane.
pub fn lane_rep(
    follower: &mut CompiledCosim,
    config: &SwitchScenarioConfig,
    traffic: &LaneTraffic,
    setup: Setup,
    tel: Option<&Telemetry>,
) -> Result<Rep, String> {
    if let Some(t) = tel {
        follower.set_telemetry(t);
    }
    let gap = config.cell_gap.as_picos();
    let horizon = SimTime::from_picos((config.cells_per_source + 4) * gap);
    let watch = Stopwatch::start();
    for (lane, lines) in traffic.cells.iter().enumerate() {
        for (port, line) in lines.iter().enumerate() {
            for (stamp, cell) in line {
                follower
                    .seed_cell(lane, port, *stamp, cell)
                    .map_err(|e| format!("seed_cell: {e}"))?;
            }
        }
    }
    let seed_s = secs(watch.start);
    let advance_start = Instant::now();
    let responses = follower
        .advance_batch(horizon)
        .map_err(|e| format!("advance_batch: {e}"))?;
    let advance_ns = elapsed_ns(advance_start);
    let (run_s, run_steal_s) = watch.read();
    let (cell_errors, matched) = check_lanes(config, traffic, follower);
    let (wall_s, wall_steal_s) = watch.read();

    let mut counts = Counts::new();
    follower.add_counts(&mut counts);
    counts.insert("compare.matched", matched);
    counts.insert("compiled.responses", responses.len() as u64);
    let span_ps = follower.now().as_picos();
    counts.insert("follower.now_ps", span_ps);
    if let Some(t) = tel {
        let m = t.metrics_snapshot();
        for name in ["compiled.schedule_evals", "compiled.fallback_evals"] {
            counts.insert(name, m.counter(name).unwrap_or(0));
        }
    }
    let lanes = traffic.cells.len() as u64;
    Ok(Rep {
        setup,
        run_s,
        compare_s: wall_s - run_s,
        run_steal_s,
        wall_steal_s,
        seed_s,
        cells: traffic.cells(),
        cell_errors: cell_errors + follower.undecodable(),
        dut_clocks: lanes * (span_ps / config.clock_period.as_picos()),
        counts,
        follower: FollowerTime {
            advance_ns,
            advance_calls: 1,
            ..FollowerTime::default()
        },
        host_counts: Counts::new(),
    })
}

/// Checks every lane's egress: one [`StreamComparator`] per lane expects
/// that lane's seeded cells retagged to `out_conn(p)`; a cell seen on any
/// other line than `out_port(p)` counts as misrouted. Returns the cell
/// errors (mismatches plus misrouted cells) and the matched cells.
#[must_use]
pub fn check_lanes(
    config: &SwitchScenarioConfig,
    traffic: &LaneTraffic,
    follower: &CompiledCosim,
) -> (u64, u64) {
    let mut errors = 0;
    let mut matched = 0;
    for (lane, lines) in traffic.cells.iter().enumerate() {
        let mut cmp = StreamComparator::new(None);
        for (port, line) in lines.iter().enumerate() {
            for (_, cell) in line {
                let mut expected = cell.clone();
                expected.retag(config.out_conn(port));
                cmp.expect(&expected, SimTime::ZERO);
            }
        }
        for (port, _) in lines.iter().enumerate() {
            let egress = config.out_port(port);
            for cell in follower.lane_cells(egress, lane) {
                if cell.id() == config.out_conn(port) {
                    cmp.observe(cell, SimTime::ZERO);
                } else {
                    errors += 1;
                }
            }
        }
        let report = cmp.finish();
        errors += cell_errors(&report);
        matched += report.matched;
    }
    (errors, matched)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
