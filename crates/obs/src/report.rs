//! The self-profiling report: per-phase wall-time breakdown.
//!
//! Spans recorded during a run — the protocol spans (`net_window`,
//! `follower_advance`, …) and the telemetry-v2 [`Phase`](crate::Phase) spans — are
//! aggregated into one row per `(track, span name)`: how often the phase
//! ran, how much wall time it cost, and what share of its track's wall
//! extent that is. Sampled micro-phases (recorded once per
//! [`crate::telemetry::MICRO_SAMPLE_STRIDE`] occurrences) are
//! extrapolated by their stride and flagged, so the report stays honest
//! about what was measured versus estimated.
//!
//! Three renderings: [`ProfileReport::render`] (human table, what
//! `castanet-trace --profile` prints), [`ProfileReport::to_json`]
//! (machine-readable, validated by
//! [`crate::schema::validate_profile`]), and the Chrome trace exporter,
//! which already lays the same spans out as slices.

use crate::event::{EventKind, Track};
use crate::telemetry::{Telemetry, TraceMode, MICRO_SAMPLE_STRIDE};
use std::fmt::Write as _;

/// One aggregated `(track, phase)` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// The engine the spans ran on.
    pub track: Track,
    /// The span's stable event name (phase names are dotted).
    pub phase: &'static str,
    /// Spans actually recorded.
    pub count: u64,
    /// Occurrences represented per recorded span (1 = unsampled).
    pub sample_stride: u64,
    /// Wall nanoseconds measured across the recorded spans.
    pub total_ns: u64,
    /// Shortest recorded span.
    pub min_ns: u64,
    /// Longest recorded span.
    pub max_ns: u64,
}

impl PhaseRow {
    /// Estimated occurrences including the sampled-away ones.
    #[must_use]
    pub fn est_count(&self) -> u64 {
        self.count.saturating_mul(self.sample_stride)
    }

    /// Estimated total wall nanoseconds including the sampled-away ones.
    #[must_use]
    pub fn est_total_ns(&self) -> u64 {
        self.total_ns.saturating_mul(self.sample_stride)
    }

    /// Mean recorded span duration.
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The aggregated profile of one run.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Rows sorted by track, then estimated total descending.
    pub rows: Vec<PhaseRow>,
    /// Wall-clock extent (first span start to last event stamp) per
    /// track, nanoseconds: `[originator, follower]`.
    pub track_wall_ns: [u64; 2],
    /// Events the report was built from.
    pub events: usize,
    /// Events evicted before the snapshot.
    pub dropped: u64,
}

fn track_slot(track: Track) -> usize {
    match track {
        Track::Originator => 0,
        Track::Follower => 1,
    }
}

impl ProfileReport {
    /// Aggregates the handle's recorded span events. Empty when the
    /// handle is disabled or recorded no spans.
    #[must_use]
    pub fn build(tel: &Telemetry) -> ProfileReport {
        let events = tel.events();
        let sampled_stride = match tel.mode() {
            Some(TraceMode::Sampled(n)) => u64::from(n.get()),
            _ => 1,
        };
        let mut extent: [Option<(u64, u64)>; 2] = [None; 2];
        let mut rows: Vec<PhaseRow> = Vec::new();
        for ev in &events {
            let slot = track_slot(ev.track);
            let (lo, hi) = extent[slot].get_or_insert((ev.start_ns(), ev.wall_ns));
            *lo = (*lo).min(ev.start_ns());
            *hi = (*hi).max(ev.wall_ns);
            if !ev.kind.is_span() {
                continue;
            }
            let stride = match ev.kind {
                EventKind::PhaseSpan { phase, .. } if phase.is_micro() => MICRO_SAMPLE_STRIDE,
                _ => sampled_stride,
            };
            let name = ev.kind.name();
            let row = match rows
                .iter_mut()
                .find(|r| r.track == ev.track && r.phase == name)
            {
                Some(row) => row,
                None => {
                    rows.push(PhaseRow {
                        track: ev.track,
                        phase: name,
                        count: 0,
                        sample_stride: stride,
                        total_ns: 0,
                        min_ns: u64::MAX,
                        max_ns: 0,
                    });
                    rows.last_mut().expect("row just pushed")
                }
            };
            row.count += 1;
            row.total_ns = row.total_ns.saturating_add(ev.dur_ns);
            row.min_ns = row.min_ns.min(ev.dur_ns);
            row.max_ns = row.max_ns.max(ev.dur_ns);
        }
        rows.sort_by(|a, b| {
            track_slot(a.track)
                .cmp(&track_slot(b.track))
                .then(b.est_total_ns().cmp(&a.est_total_ns()))
                .then(a.phase.cmp(b.phase))
        });
        ProfileReport {
            rows,
            track_wall_ns: extent.map(|e| e.map_or(0, |(lo, hi)| hi.saturating_sub(lo))),
            events: events.len(),
            dropped: tel.dropped_events(),
        }
    }

    /// This row's share of its track's wall extent, in basis points
    /// (extrapolated totals; nested spans can push a track past 100%).
    #[must_use]
    pub fn share_bp(&self, row: &PhaseRow) -> u64 {
        let extent = self.track_wall_ns[track_slot(row.track)];
        row.est_total_ns()
            .saturating_mul(10_000)
            .checked_div(extent)
            .unwrap_or(0)
    }

    /// The human table `castanet-trace --profile` prints. Sampled rows
    /// carry a `~` prefix: their counts and totals are stride-extrapolated
    /// estimates.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== castanet profile ==\n");
        let _ = writeln!(
            out,
            "events retained: {} (dropped: {})",
            self.events, self.dropped
        );
        let _ = writeln!(
            out,
            "wall extent: originator {}, follower {}",
            fmt_ns(self.track_wall_ns[0]),
            fmt_ns(self.track_wall_ns[1]),
        );
        if self.rows.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<11} {:<24} {:>12} {:>12} {:>10} {:>7}",
            "track", "phase", "count", "total", "mean", "share"
        );
        for row in &self.rows {
            let sampled = if row.sample_stride > 1 { "~" } else { "" };
            let _ = writeln!(
                out,
                "{:<11} {:<24} {:>12} {:>12} {:>10} {:>6.1}%",
                row.track.label(),
                row.phase,
                format!("{sampled}{}", row.est_count()),
                format!("{sampled}{}", fmt_ns(row.est_total_ns())),
                fmt_ns(row.mean_ns()),
                self.share_bp(row) as f64 / 100.0,
            );
        }
        out
    }

    /// The machine-readable profile document (schema
    /// `castanet-profile`, version [`crate::schema::SCHEMA_VERSION`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"castanet-profile\",\"version\":{},\
             \"events\":{},\"dropped\":{},",
            crate::schema::SCHEMA_VERSION,
            self.events,
            self.dropped
        );
        let _ = write!(
            out,
            "\"tracks\":[{{\"track\":\"originator\",\"wall_ns\":{}}},\
             {{\"track\":\"follower\",\"wall_ns\":{}}}],\"rows\":[",
            self.track_wall_ns[0], self.track_wall_ns[1]
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"track\":\"{}\",\"phase\":\"{}\",\"count\":{},\
                 \"sample_stride\":{},\"total_ns\":{},\"min_ns\":{},\
                 \"max_ns\":{},\"est_total_ns\":{},\"share_bp\":{}}}",
                row.track.label(),
                row.phase,
                row.count,
                row.sample_stride,
                row.total_ns,
                row.min_ns,
                row.max_ns,
                row.est_total_ns(),
                self.share_bp(row),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Renders nanoseconds with an adaptive unit, 6-character value width.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    #[test]
    fn aggregates_spans_per_track_and_phase() {
        let tel = Telemetry::enabled();
        for i in 0..3u64 {
            let mut span = tel.span(Track::Originator, i, Phase::ParallelGrant);
            span.set_t_ps(i + 1);
        }
        drop(tel.span(Track::Follower, 9, Phase::KernelAdvance));
        tel.record(
            Track::Originator,
            10,
            EventKind::WindowGranted {
                grant_ps: 10,
                msgs: 1,
            },
        );
        let report = tel.profile();
        assert_eq!(report.events, 5);
        let grant = report
            .rows
            .iter()
            .find(|r| r.phase == "parallel.grant")
            .expect("grant row");
        assert_eq!(grant.count, 3);
        assert_eq!(grant.sample_stride, 1);
        assert_eq!(grant.track, Track::Originator);
        let advance = report
            .rows
            .iter()
            .find(|r| r.phase == "kernel.advance")
            .expect("advance row");
        assert_eq!(advance.track, Track::Follower);
        let text = report.render();
        assert!(text.contains("parallel.grant"));
        assert!(text.contains("kernel.advance"));
    }

    #[test]
    fn micro_phases_extrapolate_by_stride() {
        let tel = Telemetry::enabled();
        let start = tel.now_ns();
        tel.record_phase(Track::Follower, 5, Phase::KernelPop, start);
        let report = tel.profile();
        let row = &report.rows[0];
        assert_eq!(row.phase, "kernel.pop");
        assert_eq!(row.sample_stride, MICRO_SAMPLE_STRIDE);
        assert_eq!(row.est_count(), MICRO_SAMPLE_STRIDE);
        assert!(report.render().contains('~'), "sampled rows are flagged");
    }

    #[test]
    fn empty_report_renders() {
        let report = Telemetry::disabled().profile();
        assert!(report.rows.is_empty());
        assert!(report.render().contains("no spans recorded"));
        assert!(report
            .to_json()
            .starts_with("{\"schema\":\"castanet-profile\""));
    }
}
