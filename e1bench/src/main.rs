//! Command-line entry point of the E1 benchmark.
//!
//! ```text
//! e1bench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Runs fresh repetitions of one workload for `--seconds`, checks every one
//! against the reference model and prints one JSON object as the last line
//! of stdout: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1` (alternating untraced and traced repetitions, so the tracing
//! overhead and the traced-vs-untraced count check come from one process).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use e1bench::{peak_rss_mb, run_rep, Counts, Input, Rep, Workload, DEFAULT_SEED};

/// Fewest timed repetitions per kind, whatever `--seconds` says.
const MIN_REPS: usize = 5;

/// A repetition slower than this multiple of the median counts as a spike
/// in `parallel.slow_rep_frac`.
const SLOW_REP_FACTOR: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Outcome of the repetitions of one kind (traced or untraced).
#[derive(Default)]
struct Reps {
    ok: Vec<Rep>,
    attempted: u64,
    failed: u64,
    cells: u64,
    cell_errors: u64,
    /// Counts of the first repetition of this kind: counts only a traced
    /// run has (telemetry counters) must repeat against it.
    reference: Option<Counts>,
}

impl Reps {
    /// Records one repetition; a run error, a cell mismatch or a simulated
    /// count that differs from the warm-up's marks it failed.
    fn record(&mut self, rep: Result<Rep, String>, warmup: &Counts) {
        self.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("repetition failed: {e}");
                self.failed += 1;
                return;
            }
        };
        self.cells += rep.cells;
        self.cell_errors += rep.cell_errors;
        let reference = self.reference.get_or_insert_with(|| rep.counts.clone());
        let drift = differing(&rep.counts, warmup).chain(differing(&rep.counts, reference));
        let drift: Vec<_> = drift.collect();
        if rep.cell_errors > 0 || !drift.is_empty() {
            if rep.cell_errors > 0 {
                eprintln!("repetition failed: {} cell errors", rep.cell_errors);
            }
            for (name, got, want) in drift {
                eprintln!("repetition failed: {name} = {got}, expected {want}");
            }
            self.failed += 1;
            return;
        }
        self.ok.push(rep);
    }

    fn median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(self.ok.iter().map(f).collect())
    }
}

/// The counts present in both maps whose values differ.
fn differing<'a>(
    got: &'a Counts,
    want: &'a Counts,
) -> impl Iterator<Item = (&'static str, u64, u64)> + 'a {
    got.iter().filter_map(|(name, v)| match want.get(name) {
        Some(w) if w != v => Some((*name, *v, *w)),
        _ => None,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e1bench: {e}");
            return ExitCode::from(2);
        }
    };
    let input = Input::new(args.workload, args.seed);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    // Warm-up: lazy set-up (allocator pools, page faults, the first thread
    // spawn) happens here, outside every timed window. Its counts are the
    // reference every later repetition must repeat exactly.
    let warmup = match run_rep(args.workload, &input, false) {
        Ok(rep) if rep.cell_errors == 0 => rep.counts,
        Ok(rep) => {
            eprintln!(
                "e1bench: warm-up repetition had {} cell errors",
                rep.cell_errors
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("e1bench: warm-up repetition failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut plain = Reps::default();
    let mut traced = Reps::default();
    loop {
        plain.record(run_rep(args.workload, &input, false), &warmup);
        if args.trace {
            traced.record(run_rep(args.workload, &input, true), &warmup);
        }
        if plain.attempted >= MIN_REPS as u64 && Instant::now() >= deadline {
            break;
        }
    }

    let metrics = if args.trace {
        per_layer(args.workload, &plain, &traced)
    } else {
        end_to_end(&plain)
    };
    let all = [&plain, &traced];
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

type Metric = (&'static str, &'static str, f64);

fn end_to_end(plain: &Reps) -> Vec<Metric> {
    let error_frac = ratio(plain.cell_errors as f64, plain.cells as f64);
    vec![
        (
            "cells_per_s",
            "cells/s",
            plain.median(|r| r.cells as f64 / r.host_wall_s()),
        ),
        (
            "dut_clocks_per_s",
            "clocks/s",
            plain.median(|r| r.dut_clocks as f64 / r.host_run_s()),
        ),
        ("setup_s", "s", plain.median(|r| r.setup.total_s())),
        ("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(0.0)),
        ("cell_ok_frac", "frac", (1.0 - error_frac).max(0.0)),
    ]
}

fn per_layer(workload: Workload, plain: &Reps, traced: &Reps) -> Vec<Metric> {
    let parallel = workload == Workload::E1CycleParallel;
    let serial = matches!(workload, Workload::E1Event | Workload::E1Cycle);
    let count = |name: &str| {
        traced
            .reference
            .as_ref()
            .and_then(|c| c.get(name).copied())
            .unwrap_or(0) as f64
    };
    let host_count = |name: &'static str| {
        traced.median(|r| r.host_counts.get(name).copied().unwrap_or(0) as f64)
    };
    let per_cell_ns = |f: &dyn Fn(&Rep) -> f64| traced.median(|r| f(r) * 1e9 / r.cells as f64);
    let setup = |f: fn(&Rep) -> f64| median(plain.ok.iter().chain(&traced.ok).map(f).collect());
    let busy_s = |r: &Rep| (r.follower.deliver_ns + r.follower.advance_ns) as f64 / 1e9;
    let advance_s = |r: &Rep| r.follower.advance_ns as f64 / 1e9;

    let plain_wall = plain.median(Rep::wall_s);
    let slow = plain
        .ok
        .iter()
        .filter(|r| r.wall_s() > SLOW_REP_FACTOR * plain_wall)
        .count();
    let evaluated = count("rtl.cycle.clocks_evaluated");
    let lane_clocks = count("compiled.clocks_evaluated") * e1bench::LANES as f64;

    vec![
        ("scenarios.build_s", "s", setup(|r| r.setup.build_s)),
        ("core.preflight_s", "s", setup(|r| r.setup.preflight_s)),
        ("lint.check_coupling_s", "s", setup(|r| r.setup.lint_s)),
        (
            "coupling.residual_ns_per_cell",
            "ns",
            if serial {
                per_cell_ns(&|r| r.run_s - busy_s(r) - r.seed_s)
            } else {
                0.0
            },
        ),
        ("netsim.net_events", "count", count("netsim.net_events")),
        ("sync.messages", "count", count("sync.messages")),
        ("sync.null_messages", "count", count("sync.null_messages")),
        ("sync.batches", "count", count("sync.batches")),
        ("sync.max_lag_ps", "ps", count("sync.max_lag_ps")),
        (
            "coupling.deferred_responses",
            "count",
            count("coupling.deferred_responses"),
        ),
        (
            "coupling.late_responses",
            "count",
            count("coupling.late_responses"),
        ),
        (
            "convert.deliver_ns_per_cell",
            "ns",
            per_cell_ns(&|r| r.follower.deliver_ns as f64 / 1e9),
        ),
        (
            "compiledcosim.seed_ns_per_cell",
            "ns",
            per_cell_ns(&|r| r.seed_s),
        ),
        ("rtl.advance_ns_per_cell", "ns", per_cell_ns(&advance_s)),
        (
            "rtl.advance_calls_per_cell",
            "calls/cell",
            traced.median(|r| r.follower.advance_calls as f64 / r.cells as f64),
        ),
        ("rtl.sim.events", "count", count("rtl.sim.events")),
        (
            "rtl.sim.transactions",
            "count",
            count("rtl.sim.transactions"),
        ),
        (
            "rtl.sim.delta_cycles",
            "count",
            count("rtl.sim.delta_cycles"),
        ),
        (
            "rtl.sim.process_runs",
            "count",
            count("rtl.sim.process_runs"),
        ),
        (
            "rtl.sim.ns_per_event",
            "ns",
            traced.median(|r| ratio(r.follower.advance_ns as f64, count("rtl.sim.events"))),
        ),
        ("rtl.cycle.clocks_evaluated", "count", evaluated),
        (
            "rtl.cycle.clocks_skipped",
            "count",
            count("rtl.cycle.clocks_skipped"),
        ),
        (
            "rtl.cycle.ns_per_evaluated_clock",
            "ns",
            traced.median(|r| ratio(r.follower.advance_ns as f64, evaluated)),
        ),
        (
            "parallel.follower_busy_frac",
            "frac",
            traced.median(|r| ratio(busy_s(r), r.run_s)),
        ),
        (
            "parallel.follower_wait_ns_per_cell",
            "ns",
            if parallel {
                per_cell_ns(&|r| r.run_s - busy_s(r))
            } else {
                0.0
            },
        ),
        (
            "ring.originator_parks",
            "count",
            host_count("ring.originator_parks"),
        ),
        (
            "ring.follower_parks",
            "count",
            host_count("ring.follower_parks"),
        ),
        (
            "parallel.slow_rep_frac",
            "frac",
            ratio(slow as f64, plain.ok.len() as f64),
        ),
        (
            "compiled.advance_ns_per_lane_clock",
            "ns",
            traced.median(|r| ratio(r.follower.advance_ns as f64, lane_clocks)),
        ),
        (
            "compiled.clocks_evaluated",
            "count",
            count("compiled.clocks_evaluated"),
        ),
        (
            "compiled.clocks_skipped",
            "count",
            count("compiled.clocks_skipped"),
        ),
        (
            "compiled.schedule_evals",
            "count",
            count("compiled.schedule_evals"),
        ),
        (
            "compiled.fallback_evals",
            "count",
            count("compiled.fallback_evals"),
        ),
        ("compare.ns_per_cell", "ns", per_cell_ns(&|r| r.compare_s)),
        (
            "cell_error_frac",
            "frac",
            ratio(
                (plain.cell_errors + traced.cell_errors) as f64,
                (plain.cells + traced.cells) as f64,
            ),
        ),
        (
            "host.steal_frac",
            "frac",
            plain.median(|r| r.wall_steal_s / r.wall_s()),
        ),
        (
            "trace.overhead_frac",
            "frac",
            ratio(traced.median(Rep::wall_s), plain_wall) - 1.0,
        ),
    ]
}
