//! A global, thread-safe registry of counters, gauges, series and
//! histograms.
//!
//! All recording functions are no-ops while collection is disabled, so
//! instrumented hot paths pay one relaxed atomic load when observability is
//! off. Names are free-form; the convention used across the workspace is
//! `crate.metric` (e.g. `cdfg.nodes_built`) and `stage/metric` for series
//! (e.g. `train/GNN_p/loss`).
//!
//! Long-running servers call [`enable_always`] once: it keeps **metrics**
//! recording even when span collection is off, without also turning on the
//! span arena (which grows per span and is only meant for bounded runs).
//!
//! Histograms are log₂-bucketed ([`LogHistogram`]) and additionally keep a
//! bounded window of the most recent raw observations, so
//! [`HistogramDetail::quantile`] returns **exact** p50/p90/p99 over the
//! last [`RECENT_WINDOW`] values rather than bucket-interpolated
//! estimates. The bucket counts feed cumulative `le` exposition for
//! Prometheus scrapers (see the `serve` crate).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::collecting;
use crate::json::Json;

/// Number of power-of-two histogram buckets (covers values up to `2^62`).
const HIST_BUCKETS: usize = 63;

/// Raw observations kept per histogram for exact quantiles (the window is
/// a ring: once full, each new value replaces the oldest).
pub const RECENT_WINDOW: usize = 2048;

static ALWAYS: AtomicBool = AtomicBool::new(false);

/// Keeps metrics recording regardless of `QOR_TRACE`/`QOR_REPORT`.
///
/// Serving processes call this once at startup so `/metrics` is live
/// without enabling the (unbounded) span arena. Memory stays bounded:
/// the registry holds one entry per metric *name* and each histogram
/// window is capped at [`RECENT_WINDOW`] values.
pub fn enable_always() {
    ALWAYS.store(true, Ordering::Relaxed);
}

/// Whether metric recording is active (collection on, or [`enable_always`]).
fn recording() -> bool {
    collecting() || ALWAYS.load(Ordering::Relaxed)
}

/// A log₂-bucketed histogram with an exact-quantile window.
///
/// This is the same structure the global registry uses, exposed so other
/// crates can own instance-local histograms (e.g. the server's per-route
/// latency tracking) and render them through the shared
/// [`HistogramDetail`] machinery.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Bucket `i` counts values `v` with `2^(i-1) <= v < 2^i`
    /// (bucket 0 counts `v < 1`).
    buckets: Box<[u64; HIST_BUCKETS]>,
    /// Ring of the most recent raw observations.
    recent: Vec<f64>,
    /// Next write position in `recent` once it reaches capacity.
    recent_head: usize,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Box::new([0; HIST_BUCKETS]),
            recent: Vec::new(),
            recent_head: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
        if self.recent.len() < RECENT_WINDOW {
            self.recent.push(value);
        } else {
            self.recent[self.recent_head] = value;
            self.recent_head = (self.recent_head + 1) % RECENT_WINDOW;
        }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Point-in-time detail: cumulative buckets plus the sorted quantile
    /// window.
    pub fn detail(&self) -> HistogramDetail {
        // cumulative `le` buckets, eliding leading/trailing all-zero runs
        // but always closing with `+Inf`
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        let last_used = self.buckets.iter().rposition(|&b| b > 0);
        if let Some(last) = last_used {
            for (i, &c) in self.buckets.iter().take(last + 1).enumerate() {
                cumulative += c;
                buckets.push((bucket_upper(i), cumulative));
            }
        }
        buckets.push((f64::INFINITY, self.count));
        let mut window: Vec<f64> = self.recent.clone();
        window.sort_by(f64::total_cmp);
        HistogramDetail {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            buckets,
            window,
        }
    }
}

/// Bucket index of a value (bucket 0: `v < 1`; bucket `i`:
/// `2^(i-1) <= v < 2^i`).
fn bucket_index(value: f64) -> usize {
    if value < 1.0 {
        0
    } else {
        ((value.log2().floor() as usize) + 1).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`le` in Prometheus terms).
fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        1.0
    } else if i >= HIST_BUCKETS - 1 {
        f64::INFINITY
    } else {
        (1u64 << i) as f64
    }
}

/// Point-in-time histogram detail for exporters and SLO checks.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDetail {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Cumulative `(upper_bound, count_le)` pairs; the final entry is
    /// `(+Inf, count)`.
    pub buckets: Vec<(f64, u64)>,
    /// Sorted window of the most recent raw observations (at most
    /// [`RECENT_WINDOW`]).
    pub window: Vec<f64>,
}

impl HistogramDetail {
    /// The `q`-quantile (`0.0..=1.0`) by the nearest-rank method, exact
    /// over the recent window (which is *all* observations while `count`
    /// ≤ [`RECENT_WINDOW`]). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let n = self.window.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.window[rank - 1]
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    /// `(step, value)` pairs in insertion order.
    Series(Vec<(u64, f64)>),
    Histogram(LogHistogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn with_metric(name: &str, make: impl FnOnce() -> Metric, update: impl FnOnce(&mut Metric)) {
    let mut reg = REGISTRY.lock().unwrap();
    // only a metric's first record allocates its name
    match reg.get_mut(name) {
        Some(slot) => update(slot),
        None => update(reg.entry(name.to_string()).or_insert_with(make)),
    }
}

/// Adds `delta` to the named counter (creating it at zero).
pub fn counter_add(name: &str, delta: u64) {
    if !recording() {
        return;
    }
    with_metric(
        name,
        || Metric::Counter(0),
        |m| {
            if let Metric::Counter(v) = m {
                *v += delta;
            } else {
                *m = Metric::Counter(delta);
            }
        },
    );
}

/// Sets the named gauge to `value`.
pub fn gauge_set(name: &str, value: f64) {
    if !recording() {
        return;
    }
    with_metric(name, || Metric::Gauge(value), |m| *m = Metric::Gauge(value));
}

/// Appends `(step, value)` to the named series.
pub fn series_push(name: &str, step: u64, value: f64) {
    if !recording() {
        return;
    }
    with_metric(
        name,
        || Metric::Series(Vec::new()),
        |m| {
            if let Metric::Series(points) = m {
                points.push((step, value));
            } else {
                *m = Metric::Series(vec![(step, value)]);
            }
        },
    );
}

/// Records one observation in the named log-bucketed histogram.
pub fn histogram_record(name: &str, value: f64) {
    if !recording() {
        return;
    }
    with_metric(
        name,
        || Metric::Histogram(LogHistogram::new()),
        |m| {
            if !matches!(m, Metric::Histogram(_)) {
                *m = Metric::Histogram(LogHistogram::new());
            }
            if let Metric::Histogram(h) = m {
                h.record(value);
            }
        },
    );
}

/// Point-in-time value of one metric, for exporters (e.g. the `serve`
/// crate's Prometheus endpoint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Snapshot {
    /// Monotonic counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(f64),
    /// Latest point of a series, as `(step, value)`.
    SeriesLast(u64, f64),
    /// Histogram summary (bucket detail via [`histogram_detail`]).
    Histogram {
        /// Observation count.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
    },
}

/// Snapshots every registered metric in name order.
///
/// Like [`counter_value`], this reads whatever the registry holds
/// regardless of [`crate::collecting`] — when collection is off the
/// registry is simply empty. Empty series are skipped.
pub fn snapshot() -> Vec<(String, Snapshot)> {
    let reg = REGISTRY.lock().unwrap();
    reg.iter()
        .filter_map(|(name, metric)| {
            let snap = match metric {
                Metric::Counter(v) => Snapshot::Counter(*v),
                Metric::Gauge(v) => Snapshot::Gauge(*v),
                Metric::Series(points) => {
                    let &(step, value) = points.last()?;
                    Snapshot::SeriesLast(step, value)
                }
                Metric::Histogram(h) => Snapshot::Histogram {
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                },
            };
            Some((name.clone(), snap))
        })
        .collect()
}

/// Full bucket/quantile detail of a registered histogram (`None` when the
/// name is absent or not a histogram).
pub fn histogram_detail(name: &str) -> Option<HistogramDetail> {
    match REGISTRY.lock().unwrap().get(name) {
        Some(Metric::Histogram(h)) => Some(h.detail()),
        _ => None,
    }
}

/// Reads a counter's current value (0 if absent); test and report support.
pub fn counter_value(name: &str) -> u64 {
    match REGISTRY.lock().unwrap().get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
}

/// Number of points currently in a series (0 if absent).
pub fn series_len(name: &str) -> usize {
    match REGISTRY.lock().unwrap().get(name) {
        Some(Metric::Series(points)) => points.len(),
        _ => 0,
    }
}

/// Serializes the registry as one JSON object keyed by metric name.
pub(crate) fn registry_json() -> Json {
    let reg = REGISTRY.lock().unwrap();
    Json::Obj(
        reg.iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(v) => Json::obj(vec![
                        ("type", Json::str("counter")),
                        ("value", Json::UInt(*v)),
                    ]),
                    Metric::Gauge(v) => Json::obj(vec![
                        ("type", Json::str("gauge")),
                        ("value", Json::Float(*v)),
                    ]),
                    Metric::Series(points) => Json::obj(vec![
                        ("type", Json::str("series")),
                        (
                            "steps",
                            Json::Arr(points.iter().map(|&(s, _)| Json::UInt(s)).collect()),
                        ),
                        (
                            "values",
                            Json::Arr(points.iter().map(|&(_, v)| Json::Float(v)).collect()),
                        ),
                    ]),
                    Metric::Histogram(h) => {
                        // trailing empty buckets are elided
                        let last = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
                        let detail = h.detail();
                        Json::obj(vec![
                            ("type", Json::str("histogram")),
                            ("count", Json::UInt(h.count)),
                            ("sum", Json::Float(h.sum)),
                            ("min", Json::Float(h.min)),
                            ("max", Json::Float(h.max)),
                            ("p50", Json::Float(detail.quantile(0.50))),
                            ("p90", Json::Float(detail.quantile(0.90))),
                            ("p99", Json::Float(detail.quantile(0.99))),
                            (
                                "log2_buckets",
                                Json::Arr(
                                    h.buckets[..last].iter().map(|&b| Json::UInt(b)).collect(),
                                ),
                            ),
                        ])
                    }
                };
                (name.clone(), value)
            })
            .collect(),
    )
}

/// Clears all metrics (test support).
pub(crate) fn reset() {
    REGISTRY.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_over_the_window() {
        let mut h = LogHistogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let d = h.detail();
        assert_eq!(d.quantile(0.50), 50.0);
        assert_eq!(d.quantile(0.90), 90.0);
        assert_eq!(d.quantile(0.99), 99.0);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 100.0);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
    }

    #[test]
    fn empty_histogram_detail_is_well_defined() {
        let d = LogHistogram::new().detail();
        assert_eq!(d.count, 0);
        assert_eq!(d.quantile(0.5), 0.0);
        assert_eq!(d.buckets, vec![(f64::INFINITY, 0)]);
        assert_eq!(d.min, 0.0);
        assert_eq!(d.max, 0.0);
    }

    #[test]
    fn cumulative_buckets_close_with_inf_and_are_monotone() {
        let mut h = LogHistogram::new();
        for v in [0.5, 1.5, 3.0, 3.9, 1000.0] {
            h.record(v);
        }
        let d = h.detail();
        let last = *d.buckets.last().unwrap();
        assert_eq!(last, (f64::INFINITY, 5));
        let mut prev = 0;
        for &(upper, c) in &d.buckets {
            assert!(c >= prev, "cumulative counts must be monotone");
            prev = c;
            assert!(upper > 0.0);
        }
        // v < 1 lands in the le=1 bucket
        assert_eq!(d.buckets[0], (1.0, 1));
        // 1.5 is <= 2
        assert_eq!(d.buckets[1], (2.0, 2));
        // 3.0 and 3.9 are <= 4
        assert_eq!(d.buckets[2], (4.0, 4));
    }

    #[test]
    fn window_overflow_keeps_the_latest_values() {
        let mut h = LogHistogram::new();
        for i in 0..(RECENT_WINDOW + 100) {
            h.record(i as f64);
        }
        let d = h.detail();
        assert_eq!(d.count, (RECENT_WINDOW + 100) as u64);
        assert_eq!(d.window.len(), RECENT_WINDOW);
        // the oldest 100 observations were overwritten
        assert_eq!(d.window[0], 100.0);
        assert_eq!(d.quantile(1.0), (RECENT_WINDOW + 100 - 1) as f64);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.99), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.99), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(1024.0), 11);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1.0);
        assert_eq!(bucket_upper(1), 2.0);
        assert_eq!(bucket_upper(11), 2048.0);
        assert!(bucket_upper(HIST_BUCKETS - 1).is_infinite());
    }
}
