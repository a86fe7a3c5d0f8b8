#![warn(missing_docs)]
//! Observability substrate for the QoR-prediction pipeline.
//!
//! Six pieces, all std-only and thread-safe:
//!
//! * **Spans** — hierarchical wall-clock timing with RAII guards and
//!   per-span attributes ([`span()`], [`span!`]).
//! * **Metrics** — counters, gauges, per-step series and log-bucketed
//!   histograms with exact-quantile windows in a global registry
//!   ([`metrics`]).
//! * **Run reports** — the span forest plus all metrics (and any tables
//!   recorded by benchmark binaries) serialized to JSON by a hand-rolled
//!   writer ([`report`]).
//! * **Trace contexts** — deterministic FNV-derived request/job ids,
//!   thread-propagated and stamped onto every span, log event and flight
//!   record ([`trace`]).
//! * **Structured log** — leveled JSON-lines events to stderr or a file,
//!   controlled by `QOR_LOG` ([`log`], [`logev!`]).
//! * **Flight recorder** — an always-on fixed-capacity ring of the last N
//!   completed request/job traces at bounded memory ([`flight`]).
//!
//! Behaviour is controlled by environment variables, each read once:
//!
//! * `QOR_TRACE=0|1|2` — live stderr verbosity. `0` (default) is fully
//!   silent; `1` prints one line per closed span; `2` adds span-entry lines
//!   and attributes.
//! * `QOR_REPORT=path.json` — write the JSON run report to `path.json` when
//!   the [`report::Session`] returned by [`init`] drops (or on demand via
//!   [`report::write_report`]).
//! * `QOR_LOG=level[:path]` — structured JSON-lines event log (see
//!   [`log`]).
//! * `QOR_FLIGHT_CAP=N` — flight-recorder capacity (see [`flight`]).
//!
//! With none of them set, span/metric collection is disabled and every
//! recording entry point reduces to one relaxed atomic load —
//! instrumentation can stay on in hot paths. Trace contexts and the
//! flight recorder are always on: both are bounded and cost nanoseconds.
//! Long-running servers that want live `/metrics` without the unbounded
//! span arena call [`metrics::enable_always`].
//!
//! # Example
//!
//! ```
//! obs::test_support::force_collection(true);
//! {
//!     let s = obs::span("cdfg_build");
//!     s.attr("nodes", 42u64);
//!     obs::metrics::counter_add("cdfg.nodes_built", 42);
//! }
//! let json = obs::report::report_json().to_string();
//! assert!(json.contains("\"cdfg_build\""));
//! obs::test_support::force_collection(false);
//! ```

pub mod flight;
pub mod hash;
pub mod json;
pub mod log;
pub mod metrics;
pub mod report;
mod span;
pub mod trace;

pub use json::Json;
pub use span::{span, Span};
pub use trace::TraceId;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Tri-state cached flags: `UNSET` until first read.
const UNSET: u8 = 0xff;

static TRACE_LEVEL: AtomicU8 = AtomicU8::new(UNSET);
static COLLECT: AtomicU8 = AtomicU8::new(UNSET);
static REPORT_PATH: OnceLock<Option<String>> = OnceLock::new();

/// The live stderr verbosity from `QOR_TRACE` (0, 1 or 2).
pub fn trace_level() -> u8 {
    let v = TRACE_LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let level = std::env::var("QOR_TRACE")
        .ok()
        .and_then(|v| v.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(2);
    TRACE_LEVEL.store(level, Ordering::Relaxed);
    level
}

/// The run-report path from `QOR_REPORT`, if set.
pub fn report_path() -> Option<&'static str> {
    REPORT_PATH
        .get_or_init(|| std::env::var("QOR_REPORT").ok().filter(|p| !p.is_empty()))
        .as_deref()
}

/// Whether spans and metrics are being recorded.
///
/// True when `QOR_TRACE >= 1`, `QOR_REPORT` is set, or a test forced
/// collection on. This is the fast path gate: when false, all recording
/// entry points return immediately.
pub fn collecting() -> bool {
    let v = COLLECT.load(Ordering::Relaxed);
    if v != UNSET {
        return v != 0;
    }
    let on = trace_level() >= 1 || report_path().is_some();
    COLLECT.store(u8::from(on), Ordering::Relaxed);
    on
}

/// Initializes the observability session for a binary.
///
/// Reads the environment and returns a guard that writes the JSON run
/// report on drop when `QOR_REPORT` is set. Call once at the top of `main`
/// and keep the guard alive for the whole run.
pub fn init() -> report::Session {
    let _ = collecting(); // warm the caches
    report::Session::new(report_path().map(str::to_string))
}

/// Enters a span with attributes attached at entry.
///
/// ```
/// obs::test_support::force_collection(true);
/// let _g = obs::span!("hlsim_evaluate", "kernel" => "gemm", "configs" => 12u64);
/// # drop(_g);
/// # obs::test_support::force_collection(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:expr => $value:expr)* $(,)?) => {{
        let s = $crate::span($name);
        $( s.attr($key, $value); )*
        s
    }};
}

/// Prints a live progress line to stderr iff `QOR_TRACE >= $level`.
///
/// This replaces ad-hoc `eprintln!` progress reporting: with `QOR_TRACE=0`
/// (the default) it emits nothing.
#[macro_export]
macro_rules! tracef {
    ($level:expr, $($arg:tt)*) => {
        if $crate::trace_level() >= $level {
            eprintln!("[obs] {}", format_args!($($arg)*));
        }
    };
}

/// Test hooks: force collection on/off and wipe global state.
///
/// Not for production use — binaries should rely on `QOR_TRACE` /
/// `QOR_REPORT` instead.
pub mod test_support {
    use super::*;

    /// Forces collection on or off, overriding the environment.
    pub fn force_collection(on: bool) {
        // touch the env caches first so they don't overwrite the override
        let _ = trace_level();
        COLLECT.store(u8::from(on), Ordering::Relaxed);
    }

    /// Clears all recorded spans, metrics, tables and flight records.
    pub fn reset() {
        crate::span::reset();
        crate::metrics::reset();
        crate::report::reset();
        crate::flight::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global state is shared across tests in this binary; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        test_support::reset();
        test_support::force_collection(true);
        guard
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let _l = isolated();
        {
            let outer = span("pipeline");
            outer.attr("kernel", "gemm");
            {
                let _parse = span("parse");
            }
            {
                let _build = span!("cdfg_build", "nodes" => 17u64);
            }
        }
        let json = report::report_json().to_string();
        // children nested under the root, in order
        let pipeline = json.find("\"pipeline\"").expect("root span present");
        let parse = json.find("\"parse\"").expect("child span present");
        let build = json.find("\"cdfg_build\"").expect("child span present");
        assert!(pipeline < parse && parse < build, "{json}");
        assert!(json.contains("\"children\""));
        assert!(json.contains(r#""kernel":"gemm""#));
        assert!(json.contains(r#""nodes":17"#));
        test_support::force_collection(false);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let _l = isolated();
        {
            let _a = span("first");
        }
        {
            let _b = span("second");
        }
        let json = report::report_json().to_string();
        assert!(!json.contains("\"children\""), "{json}");
        test_support::force_collection(false);
    }

    #[test]
    fn span_durations_are_recorded() {
        let _l = isolated();
        {
            let _s = span("timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let json = report::report_json().to_string();
        assert!(!json.contains("\"dur_us\":null"), "{json}");
        test_support::force_collection(false);
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        let _l = isolated();
        let threads = 8;
        let per_thread = 1_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        metrics::counter_add("test.hits", 1);
                    }
                });
            }
        });
        assert_eq!(metrics::counter_value("test.hits"), threads * per_thread);
        test_support::force_collection(false);
    }

    #[test]
    fn spans_on_spawned_threads_become_roots() {
        let _l = isolated();
        let _outer = span("main_root");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _inner = span("worker_root");
            });
        });
        drop(_outer);
        let json = report::report_json().to_string();
        // worker_root must not be a child of main_root
        assert!(json.contains("\"worker_root\""));
        assert!(!json.contains("\"children\""), "{json}");
        test_support::force_collection(false);
    }

    #[test]
    fn series_and_gauges_serialize() {
        let _l = isolated();
        metrics::series_push("train/loss", 0, 1.5);
        metrics::series_push("train/loss", 1, 0.75);
        metrics::gauge_set("dse.pareto_size", 9.0);
        metrics::histogram_record("lat", 0.2);
        metrics::histogram_record("lat", 1000.0);
        let json = report::report_json().to_string();
        assert!(
            json.contains(r#""train/loss":{"type":"series","steps":[0,1],"values":[1.5,0.75]}"#)
        );
        assert!(json.contains(r#""dse.pareto_size":{"type":"gauge","value":9}"#));
        assert!(json.contains(r#""type":"histogram","count":2"#));
        test_support::force_collection(false);
    }

    #[test]
    fn metric_snapshot_covers_every_kind() {
        let _l = isolated();
        metrics::counter_add("snap.count", 3);
        metrics::gauge_set("snap.gauge", 2.5);
        metrics::series_push("snap/series", 0, 1.0);
        metrics::series_push("snap/series", 7, 4.0);
        metrics::histogram_record("snap.hist", 2.0);
        let snaps = metrics::snapshot();
        let get = |n: &str| snaps.iter().find(|(k, _)| k == n).map(|(_, s)| *s);
        assert_eq!(get("snap.count"), Some(metrics::Snapshot::Counter(3)));
        assert_eq!(get("snap.gauge"), Some(metrics::Snapshot::Gauge(2.5)));
        assert_eq!(
            get("snap/series"),
            Some(metrics::Snapshot::SeriesLast(7, 4.0))
        );
        assert!(matches!(
            get("snap.hist"),
            Some(metrics::Snapshot::Histogram { count: 1, .. })
        ));
        // names come back sorted (BTreeMap order)
        let names: Vec<&str> = snaps.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        test_support::force_collection(false);
    }

    #[test]
    fn disabled_collection_records_nothing() {
        let _l = isolated();
        test_support::force_collection(false);
        {
            let s = span("ghost");
            s.attr("k", 1u64);
            metrics::counter_add("ghost.count", 5);
        }
        test_support::force_collection(true);
        let json = report::report_json().to_string();
        assert!(!json.contains("ghost"), "{json}");
        test_support::force_collection(false);
    }

    #[test]
    fn tables_appear_in_report() {
        let _l = isolated();
        report::record_table(
            "table3",
            &["conv", "mape"],
            vec![
                vec![Json::str("sage"), Json::Float(4.2)],
                vec![Json::str("gcn")],
            ],
        );
        let json = report::report_json().to_string();
        assert!(
            json.contains(r#""table3":[{"conv":"sage","mape":4.2},{"conv":"gcn","mape":null}]"#)
        );
        test_support::force_collection(false);
    }
}
