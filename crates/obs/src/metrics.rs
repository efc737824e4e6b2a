//! The metrics registry: named counters, gauges and log2-bucketed
//! histograms.
//!
//! Instrumented code registers a metric once (getting back a cheap
//! atomically-updatable handle, a no-op when telemetry is disabled) and
//! updates it lock-free on the hot path. Any thread may snapshot the whole
//! registry mid-run — the quantities the paper's protocol lives on
//! (follower lag, window size, queue depth `|I_j|`, channel occupancy) are
//! exactly the ones an engineer needs to watch *while* a coupling stalls,
//! not after.
//!
//! Names are dotted paths (`originator.net_events`, `follower.lag_ps`,
//! `sync.queue_depth.type0`): the prefix is the entity, the suffix the
//! quantity, so the console exporter can group per entity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket count: bucket 0 holds zeros, bucket `b >= 1` holds
/// values in `[2^(b-1), 2^b)`, so 65 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index `value` falls into.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// Inclusive lower bound of bucket `b` (0 for the zero bucket).
#[must_use]
pub fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicU64,
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A monotone counter handle. A disabled handle (the default) is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A last-value gauge handle. A disabled handle (the default) is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed histogram handle. A disabled handle (the default) is a
/// no-op.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            // Release after the bucket bump: a snapshot that reads `count`
            // with Acquire sees at least that many bucket entries.
            cell.count.fetch_add(1, Ordering::Release);
            cell.sum.fetch_add(value, Ordering::Relaxed);
            // `fetch_min`/`fetch_max` lower to compare-exchange loops;
            // most observations move neither bound, and a bound only ever
            // moves one way, so a plain load decides when to pay for one.
            if value < cell.min.load(Ordering::Relaxed) {
                cell.min.fetch_min(value, Ordering::Relaxed);
            }
            if value > cell.max.load(Ordering::Relaxed) {
                cell.max.fetch_max(value, Ordering::Relaxed);
            }
        }
    }

    /// Observations recorded so far (0 for a disabled handle).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the observations (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `p`-th percentile (`0.0..=1.0`): the
    /// floor of the first bucket whose cumulative count covers `p` — a
    /// log2-resolution estimate, which is all the bucketing retains.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(floor, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return floor;
            }
        }
        self.max
    }
}

/// A point-in-time copy of the whole registry, ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// The registry: names to metric cells. Registration takes a lock;
/// updates through the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    /// Registering the same name as a different metric kind panics —
    /// that is a programming error, not a runtime condition.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a gauge or histogram.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCell::default())));
        match metric {
            Metric::Counter(cell) => Counter(Some(Arc::clone(cell))),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell::default())));
        match metric {
            Metric::Gauge(cell) => Gauge(Some(Arc::clone(cell))),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::default())));
        match metric {
            Metric::Histogram(cell) => Histogram(Some(Arc::clone(cell))),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Copies every metric out. Safe to call from any thread mid-run;
    /// values are individually (not mutually) consistent — each atomic is
    /// read once, concurrent updates may land between reads. The one
    /// cross-field guarantee: a histogram's bucket total is never below
    /// its `count`, because `count` is read first.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(cell) => snap
                    .counters
                    .push((name.clone(), cell.value.load(Ordering::Relaxed))),
                Metric::Gauge(cell) => snap
                    .gauges
                    .push((name.clone(), cell.value.load(Ordering::Relaxed))),
                Metric::Histogram(cell) => {
                    let count = cell.count.load(Ordering::Acquire);
                    let buckets: Vec<(u64, u64)> = cell
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(b, n)| {
                            let n = n.load(Ordering::Relaxed);
                            (n > 0).then_some((bucket_floor(b), n))
                        })
                        .collect();
                    snap.histograms.push((
                        name.clone(),
                        HistogramSnapshot {
                            count,
                            sum: cell.sum.load(Ordering::Relaxed),
                            min: cell.min.load(Ordering::Relaxed),
                            max: cell.max.load(Ordering::Relaxed),
                            buckets,
                        },
                    ));
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // The edge cases the log2 scheme must get right: zero has its own
        // bucket, powers of two open a new bucket, the value just below a
        // power stays in the previous one, u64::MAX lands in the last.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of((1 << 32) - 1), 32);
        assert_eq!(bucket_of(1 << 32), 33);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for b in 0..HISTOGRAM_BUCKETS {
            let floor = bucket_floor(b);
            assert_eq!(bucket_of(floor), b, "floor of bucket {b}");
            if floor > 0 {
                assert_eq!(bucket_of(floor - 1), b - 1, "below bucket {b}");
            }
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lag");
        for v in [0u64, 1, 2, 3, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lag").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, u64::MAX);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; MAX -> bucket 64.
        assert_eq!(
            hs.buckets,
            vec![(0, 1), (1, 1), (2, 2), (bucket_floor(64), 1)]
        );
    }

    #[test]
    fn empty_histogram_snapshot() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("empty");
        let snap = reg.snapshot();
        let hs = snap.histogram("empty").unwrap();
        assert_eq!(hs.count, 0);
        assert_eq!(hs.mean(), 0.0);
        assert_eq!(hs.percentile(0.5), 0);
        assert_eq!(hs.min, u64::MAX, "min of nothing is the identity");
    }

    #[test]
    fn percentile_estimates_within_bucket_resolution() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("h").unwrap();
        let p50 = hs.percentile(0.5);
        // True median 500; log2 estimate returns the floor of its bucket.
        assert_eq!(p50, 256, "floor of [256, 512) which covers the median");
        assert_eq!(hs.percentile(1.0), 512, "floor of the last needed bucket");
        assert_eq!(hs.percentile(0.0), 1);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.add(5);
        c.inc();
        let g = reg.gauge("a.depth");
        g.set(7);
        g.set(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(6));
        assert_eq!(snap.gauge("a.depth"), Some(3));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn same_name_returns_same_cell() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("shared");
        let c2 = reg.counter("shared");
        c1.inc();
        c2.inc();
        assert_eq!(reg.snapshot().counter("shared"), Some(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::default();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(10);
        assert_eq!(g.get(), 0);
        let h = Histogram::default();
        h.record(10);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn snapshot_under_concurrent_update() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("concurrent");
        let c = reg.counter("total");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for v in 0..10_000u64 {
                        h.record(v);
                        c.inc();
                    }
                });
            }
            // Snapshot while the writers are live: totals must be monotone
            // and internally sane at every observation.
            let mut last = 0u64;
            for _ in 0..50 {
                let snap = reg.snapshot();
                let n = snap.counter("total").unwrap_or(0);
                assert!(n >= last, "counter went backwards");
                let hs = snap.histogram("concurrent").unwrap();
                let bucket_total: u64 = hs.buckets.iter().map(|&(_, n)| n).sum();
                // count is bumped after the bucket and read before it.
                assert!(bucket_total >= hs.count);
                last = n;
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("total"), Some(40_000));
        assert_eq!(snap.histogram("concurrent").unwrap().count, 40_000);
    }
}
