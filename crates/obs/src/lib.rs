//! # castanet-obs — telemetry for the co-verification loop
//!
//! The conservative synchronization protocol (paper §3.1) and the
//! abstraction interfaces (§3.2) are only debuggable when their moving
//! parts are *visible*: null messages, processing delays `δ_j`,
//! timing-window grants, the follower's lag behind the
//! originator, channel backpressure between the parallel executor's two
//! threads. This crate is the measurement layer the rest of the workspace
//! instruments itself with:
//!
//! * [`event`] — the typed protocol-event taxonomy (window granted,
//!   stimulus enqueued, response injected/deferred/late, drain chunks,
//!   rollbacks, backpressure stalls) plus the closed [`Phase`] taxonomy
//!   of timed execution phases, with sim-time and wall-time stamps;
//! * [`sink`] — the sharded [`sink::TraceSink`]: one lock-free seqlock
//!   ring per producer thread (claimed on first push, recycled on thread
//!   exit), merged on snapshot by epoch-relative wall stamps — the
//!   hot-path `record` is a handful of uncontended atomic stores;
//! * [`metrics`] — a registry of named counters, gauges and log2-bucketed
//!   histograms, snapshotable mid-run from any thread;
//! * [`telemetry`] — the [`Telemetry`] handle the instrumented code holds:
//!   a cheap `Option<Arc<..>>` that is a branch-predictable no-op when
//!   telemetry is disabled (the default), with RAII timing spans
//!   ([`Telemetry::span`]) and sampling policies ([`TraceMode`]:
//!   full / 1-in-N / counters-only);
//! * [`report`] — the self-profiling [`ProfileReport`]: per-phase
//!   wall-time breakdown rendered as a human table or JSON;
//! * [`export`] — exporters: JSONL event dump, human console summary, and
//!   Chrome `trace_event` JSON viewable in Perfetto / `chrome://tracing`,
//!   rendering originator and follower as separate tracks (phase spans
//!   appear as nested slices);
//! * [`schema`] — a dependency-free validator for the JSONL event format
//!   and the profile document, used by the `castanet-obs-check` binary
//!   and the CI smoke job.
//!
//! The crate deliberately depends on nothing (not even the workspace's
//! simulators): times are plain `u64` picoseconds, so every layer of the
//! stack — including `castanet-netsim`, which the core crates sit on — can
//! link against it without a cycle.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod report;
pub mod schema;
pub mod sink;
pub mod telemetry;

pub use event::{EventKind, Phase, TraceEvent, Track};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use report::{PhaseRow, ProfileReport};
pub use sink::TraceSink;
pub use telemetry::{SpanGuard, Telemetry, TraceMode, MICRO_SAMPLE_STRIDE};
