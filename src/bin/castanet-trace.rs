//! `castanet-trace` — run or replay a co-verification scenario with
//! telemetry enabled and export the recorded protocol trace.
//!
//! Two modes:
//!
//! * `--scenario NAME` assembles one of the shipped switch co-simulations
//!   with a [`Telemetry`] handle attached to every layer, runs it, and
//!   exports what was recorded;
//! * `--replay FILE` reads a recorded test-vector trace (the
//!   `# castanet-trace v1` format of `castanet::traceio`) and replays its
//!   stimulus against the cycle-engine switch follower, the binary itself
//!   acting as the originator so the protocol events still appear.
//!
//! Export formats: `jsonl` (one event per line, schema-checked by
//! `castanet-obs-check`), `chrome` (Chrome `trace_event` JSON — open in
//! Perfetto or `chrome://tracing`; originator and follower are separate
//! tracks), `summary` (human console digest of events and metrics).
//!
//! ```text
//! castanet-trace --scenario switch_cosim_parallel --format chrome > trace.json
//! ```
//!
//! Before running, the output path is linted (`CAST050`): an unwritable
//! path or a collision with the replay input is reported up front instead
//! of after the run.

use castanet::coupling::{CoupledSimulator, CouplingStats, Executor};
use castanet::traceio::{read_trace, stimulus_messages};
use castanet::{CastanetError, Message, Telemetry};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::CELL_OCTETS;
use castanet_netsim::time::SimTime;
use castanet_obs::export::{render_summary, write_chrome_trace, write_jsonl};
use castanet_obs::{EventKind, Track};
use coverify::scenarios::{
    switch_cosim, switch_cosim_compiled, switch_cosim_cycle, switch_cosim_parallel, SwitchCosim,
    SwitchScenarioConfig,
};
use std::io::Write;
use std::path::Path;

const USAGE: &str = "usage: castanet-trace (--scenario NAME | --replay FILE) \
                     [--cells N] [--lanes N] [--profile] \
                     [--format jsonl|chrome|summary|profile|profile-json] [--out PATH]\n\
                     scenarios: switch_cosim | switch_cosim_cycle | \
                     switch_cosim_parallel | switch_cosim_compiled\n\
                     --cells N   cells per traffic source in scenario mode (default 100)\n\
                     --lanes N   replicated instances for switch_cosim_compiled (default 4)\n\
                     --profile   print the per-phase timing breakdown after the run\n\
                     --format    export format (default summary)\n\
                     --out PATH  write the export to PATH instead of stdout";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Jsonl,
    Chrome,
    Summary,
    Profile,
    ProfileJson,
}

/// Telemetry ring capacity: large enough to retain every event of the
/// shipped scenarios at their default sizes.
const RING_CAPACITY: usize = 1 << 20;

/// Runs one assembled scenario, whatever its engine and executor, with
/// telemetry attached to every layer.
fn run_traced<F: CoupledSimulator, X: Executor<F>>(
    scenario: SwitchCosim<F, X>,
    tel: &Telemetry,
    until: SimTime,
) -> Result<CouplingStats, CastanetError> {
    scenario.with_telemetry(tel).coupling.run(until)
}

/// Runs one named scenario with telemetry attached to every layer.
fn run_scenario(
    name: &str,
    cells: u64,
    lanes: usize,
    tel: &Telemetry,
) -> Result<String, CastanetError> {
    let config = SwitchScenarioConfig {
        cells_per_source: cells,
        ..Default::default()
    };
    let until = SimTime::from_secs(1);
    let stats = match name {
        "switch_cosim" => run_traced(switch_cosim(config), tel, until)?,
        "switch_cosim_cycle" => run_traced(switch_cosim_cycle(config), tel, until)?,
        "switch_cosim_parallel" => run_traced(switch_cosim_parallel(config), tel, until)?,
        "switch_cosim_compiled" => run_traced(switch_cosim_compiled(config, lanes), tel, until)?,
        other => {
            eprintln!("unknown scenario: {other}");
            usage();
        }
    };
    Ok(format!(
        "{name}: {} cells offered, {} net events, {} stimuli, {} responses \
         ({} deferred, {} late)",
        config.total_cells(),
        stats.net_events,
        stats.messages_to_follower,
        stats.responses,
        stats.deferred_responses,
        stats.late_responses,
    ))
}

fn record_responses(tel: &Telemetry, out: &[Message]) {
    for r in out {
        tel.record(
            Track::Originator,
            r.stamp.as_picos(),
            EventKind::ResponseInjected {
                stamp_ps: r.stamp.as_picos(),
                at_ps: r.stamp.as_picos(),
                port: r.port as u32,
            },
        );
    }
}

/// Replays the stimulus records of a recorded vector trace against the
/// cycle-engine switch follower, acting as the originator: each stimulus
/// gets a one-message timing window of width δ (one cell time), and the
/// tail is drained in δ-sized chunks until quiet.
fn run_replay(path: &str, tel: &Telemetry) -> Result<String, CastanetError> {
    let file = std::fs::File::open(path).map_err(CastanetError::from)?;
    let records = read_trace(std::io::BufReader::new(file), HeaderFormat::Uni)?;
    let max_port = records.iter().map(|r| r.port).max().unwrap_or(0);
    if max_port >= 8 {
        return Err(CastanetError::UnknownPort { port: max_port });
    }
    let config = SwitchScenarioConfig {
        ports: (max_port + 1).max(4),
        cells_per_source: 0,
        ..Default::default()
    };
    let delta = config.clock_period * CELL_OCTETS as u64;
    let scenario = switch_cosim_cycle(config);
    let cell_type = scenario.coupling.cell_type();
    let (_net, mut follower) = scenario.coupling.into_parts();
    follower.set_telemetry(tel);

    let msgs = stimulus_messages(&records, cell_type);
    let stimuli = msgs.len();
    let mut responses = 0usize;
    let mut horizon = SimTime::from_picos(0);
    for msg in msgs {
        let grant = msg.stamp + delta;
        tel.record(
            Track::Originator,
            msg.stamp.as_picos(),
            EventKind::WindowGranted {
                grant_ps: grant.as_picos(),
                msgs: 1,
            },
        );
        tel.record(
            Track::Follower,
            msg.stamp.as_picos(),
            EventKind::StimulusEnqueued {
                type_id: msg.type_id.0,
                port: msg.port as u32,
                stamp_ps: msg.stamp.as_picos(),
            },
        );
        follower.deliver(msg)?;
        let start = tel.now_ns();
        let out = follower.advance_batch(grant)?;
        tel.record_span(
            Track::Follower,
            grant.as_picos(),
            start,
            EventKind::FollowerAdvance {
                granted_ps: grant.as_picos(),
                responses: out.len() as u64,
            },
        );
        record_responses(tel, &out);
        responses += out.len();
        horizon = grant;
    }
    let mut quiet = 0;
    while quiet < 3 {
        horizon += delta;
        let start = tel.now_ns();
        let out = follower.advance_batch(horizon)?;
        tel.record_span(
            Track::Follower,
            horizon.as_picos(),
            start,
            EventKind::DrainChunk {
                horizon_ps: horizon.as_picos(),
                responses: out.len() as u64,
            },
        );
        if out.is_empty() {
            quiet += 1;
        } else {
            quiet = 0;
            record_responses(tel, &out);
            responses += out.len();
        }
    }
    Ok(format!(
        "replay {path}: {} records, {stimuli} stimuli, {responses} follower responses",
        records.len()
    ))
}

fn export(tel: &Telemetry, format: Format, out: Option<&str>) -> std::io::Result<()> {
    let events = tel.events();
    let mut writer: Box<dyn Write> = match out {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::stdout().lock()),
    };
    match format {
        Format::Jsonl => write_jsonl(&mut writer, &events)?,
        Format::Chrome => write_chrome_trace(&mut writer, &events)?,
        Format::Summary => {
            let summary = render_summary(&events, &tel.metrics_snapshot(), tel.dropped_events());
            writer.write_all(summary.as_bytes())?;
        }
        Format::Profile => writer.write_all(tel.profile().render().as_bytes())?,
        Format::ProfileJson => {
            writer.write_all(tel.profile().to_json().as_bytes())?;
            writer.write_all(b"\n")?;
        }
    }
    writer.flush()
}

fn main() {
    let mut scenario: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut cells = 100u64;
    let mut lanes = 4usize;
    let mut profile = false;
    let mut format = Format::Summary;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => match args.next() {
                Some(name) => scenario = Some(name),
                None => usage(),
            },
            "--replay" => match args.next() {
                Some(path) => replay = Some(path),
                None => usage(),
            },
            "--cells" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => cells = n,
                _ => usage(),
            },
            "--lanes" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if (1..=castanet_rtl::compiled::LANES).contains(&n) => lanes = n,
                _ => usage(),
            },
            "--profile" => profile = true,
            "--format" => match args.next().as_deref() {
                Some("jsonl") => format = Format::Jsonl,
                Some("chrome") => format = Format::Chrome,
                Some("summary") => format = Format::Summary,
                Some("profile") => format = Format::Profile,
                Some("profile-json") => format = Format::ProfileJson,
                other => {
                    eprintln!(
                        "unknown format: {}",
                        other.unwrap_or("(missing value after --format)")
                    );
                    usage();
                }
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => usage(),
        }
    }
    if scenario.is_some() == replay.is_some() {
        eprintln!("exactly one of --scenario and --replay is required");
        usage();
    }

    // Pre-flight: lint the export path before spending time on the run.
    let diags = castanet_lint::passes::telemetry::check_export_paths(
        out.as_deref().map(Path::new),
        replay.as_deref().map(Path::new),
    );
    for d in &diags {
        eprintln!("castanet-trace: {d}");
    }

    let tel = Telemetry::with_capacity(RING_CAPACITY);
    let report = match (&scenario, &replay) {
        (Some(name), None) => run_scenario(name, cells, lanes, &tel),
        (None, Some(path)) => run_replay(path, &tel),
        _ => unreachable!("validated above"),
    };
    match report {
        Ok(line) => eprintln!("castanet-trace: {line}"),
        Err(e) => {
            eprintln!("castanet-trace: {e}");
            std::process::exit(1);
        }
    }
    if tel.dropped_events() > 0 {
        eprintln!(
            "castanet-trace: ring overflow, {} oldest events dropped",
            tel.dropped_events()
        );
    }
    if let Err(e) = export(&tel, format, out.as_deref()) {
        eprintln!("castanet-trace: export failed: {e}");
        std::process::exit(1);
    }
    // `--profile` prints the breakdown to stderr so it composes with any
    // `--format`/`--out` export going to stdout.
    if profile && format != Format::Profile {
        eprint!("{}", tel.profile().render());
    }
}
