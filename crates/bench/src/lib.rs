//! Shared helpers for the experiment benches.
//!
//! Each Criterion bench target samples one throughput question (E1, E7,
//! E10, E12, E13); the per-experiment index lives in `DESIGN.md` §6 and the
//! measured reference run in `EXPERIMENTS.md`. The benches intentionally
//! keep workloads small enough for Criterion's repeated sampling — the
//! `repro` binary runs the paper-sized workloads of every experiment once
//! instead.

use castanet_netsim::time::SimDuration;
use coverify::scenarios::SwitchScenarioConfig;

/// The small E1-shaped workload every sampled bench uses.
#[must_use]
pub fn small_switch_config(cells_per_source: u64) -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        cells_per_source,
        clock_period: SimDuration::from_ns(20),
        cell_gap: SimDuration::from_us(10),
        mixed_traffic: false,
        seed: 1998,
        ..SwitchScenarioConfig::default()
    }
}
