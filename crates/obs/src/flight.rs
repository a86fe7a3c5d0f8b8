//! The flight recorder: an always-on, fixed-capacity ring buffer holding
//! the last N *completed* request/job traces, and the units of work that
//! write them.
//!
//! A unit ([`crate::flight()`]) scopes one HTTP request or DSE job to the
//! thread that serves it, the way [`crate::trace::adopt`] scopes a trace
//! id. Every span entered *directly* under it becomes one of its stages,
//! with or without `QOR_TRACE`/`QOR_REPORT`; code below it adds labels
//! with [`attr`] and [`cache`]. On close it writes one [`FlightRecord`]
//! and emits its one Info log event from the same numbers.
//!
//! The recorder does not depend on `QOR_TRACE` or `QOR_REPORT`: a serving
//! process keeps it populated at all times so `GET /debug/requests` can
//! answer "what did the last hundred requests do and where did they spend
//! their time" after the fact. Capacity comes from `QOR_FLIGHT_CAP`
//! (default [`DEFAULT_CAPACITY`]; `0` disables recording). An open unit
//! keeps at most [`MAX_STAGES`] stages, and every record is clamped to
//! [`MAX_STAGES`] stages and [`MAX_LABEL_BYTES`]-byte strings on entry, so
//! the whole buffer is `O(capacity)`. Records are inserted on completion,
//! evicting the oldest entry once full.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::json::Json;
use crate::log::{self, Level};
use crate::span::now_ns;

/// Ring capacity when `QOR_FLIGHT_CAP` is not set.
pub const DEFAULT_CAPACITY: usize = 128;

/// Stages kept per record; extra stages fold into a last `...` stage
/// carrying their time, so totals still add up.
pub const MAX_STAGES: usize = 32;

/// Byte budget for each string field (label, kind, outcome, stage names).
pub const MAX_LABEL_BYTES: usize = 120;

/// One completed request/job trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Trace id (0 when the work ran without a trace context).
    pub trace: u64,
    /// Work class: `"http"`, `"job"`, …
    pub kind: String,
    /// Human-readable identity, e.g. `"POST /predict"` or
    /// `"job-3 fir/genetic"`.
    pub label: String,
    /// Outcome token: an HTTP status (`"200"`) or a job state (`"done"`).
    pub outcome: String,
    /// Start, µs since the process observability epoch.
    pub start_us: u64,
    /// End-to-end duration in µs: the unit's wall time.
    pub total_us: u64,
    /// Request/input payload bytes.
    pub bytes_in: u64,
    /// Response/output payload bytes.
    pub bytes_out: u64,
    /// Session-cache hits attributable to this work.
    pub cache_hits: u64,
    /// Session-cache misses attributable to this work.
    pub cache_misses: u64,
    /// Per-stage `(name, dur_us)` timings, in execution order: the spans
    /// entered directly under the unit.
    pub stages: Vec<(String, u64)>,
    /// Free-form `(key, value)` labels — e.g. which model version served
    /// a prediction (`("model", "default@3")`) or which batch it rode in.
    /// Clamped like every other string field; capped at [`MAX_STAGES`]
    /// entries.
    pub attrs: Vec<(String, String)>,
}

impl FlightRecord {
    /// A record with zeroed optional fields; callers fill what they know.
    pub fn new(kind: &str, label: &str) -> FlightRecord {
        FlightRecord {
            trace: crate::trace::current_raw(),
            kind: kind.to_string(),
            label: label.to_string(),
            outcome: String::new(),
            start_us: 0,
            total_us: 0,
            bytes_in: 0,
            bytes_out: 0,
            cache_hits: 0,
            cache_misses: 0,
            stages: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// Appends a `(key, value)` attribute (builder-style convenience).
    pub fn with_attr(mut self, key: &str, value: &str) -> FlightRecord {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    fn clamp(mut self) -> FlightRecord {
        truncate_in_place(&mut self.kind);
        truncate_in_place(&mut self.label);
        truncate_in_place(&mut self.outcome);
        for (name, _) in &mut self.stages {
            truncate_in_place(name);
        }
        self.attrs.truncate(MAX_STAGES);
        for (key, value) in &mut self.attrs {
            truncate_in_place(key);
            truncate_in_place(value);
        }
        for (name, us) in std::mem::take(&mut self.stages) {
            push_stage(&mut self.stages, name, us);
        }
        self
    }

    /// The part of [`FlightRecord::total_us`] no stage covers.
    pub fn unattributed_us(&self) -> u64 {
        let staged: u64 = self.stages.iter().map(|&(_, us)| us).sum();
        self.total_us.saturating_sub(staged)
    }

    /// Serializes the record for `GET /debug/requests` and tests.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("trace", Json::Str(format!("{:016x}", self.trace)))];
        fields.extend(self.fields());
        Json::obj(fields)
    }

    /// Every field but the trace id (a log event carries its own).
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("kind", Json::str(&self.kind)),
            ("label", Json::str(&self.label)),
            ("outcome", Json::str(&self.outcome)),
            ("start_us", Json::UInt(self.start_us)),
            ("total_us", Json::UInt(self.total_us)),
            ("unattributed_us", Json::UInt(self.unattributed_us())),
            ("bytes_in", Json::UInt(self.bytes_in)),
            ("bytes_out", Json::UInt(self.bytes_out)),
            ("cache_hits", Json::UInt(self.cache_hits)),
            ("cache_misses", Json::UInt(self.cache_misses)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|(name, us)| {
                            Json::obj(vec![("stage", Json::str(name)), ("us", Json::UInt(*us))])
                        })
                        .collect(),
                ),
            ),
            (
                "attrs",
                Json::obj(
                    self.attrs
                        .iter()
                        .map(|(key, value)| (key.as_str(), Json::str(value)))
                        .collect(),
                ),
            ),
        ]
    }
}

/// Truncates a string to [`MAX_LABEL_BYTES`] on a char boundary.
fn truncate_in_place(s: &mut String) {
    if s.len() > MAX_LABEL_BYTES {
        let mut cut = MAX_LABEL_BYTES;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
    }
}

/// Appends a stage, folding those past the first [`MAX_STAGES`] - 1 into
/// a last `...` stage that keeps their time.
fn push_stage(stages: &mut Vec<(String, u64)>, name: String, us: u64) {
    if stages.len() < MAX_STAGES {
        stages.push((name, us));
    } else {
        let last = &mut stages[MAX_STAGES - 1];
        last.0 = "...".to_string();
        last.1 += us;
    }
}

thread_local! {
    /// The record of this thread's open unit.
    static UNIT: RefCell<Option<FlightRecord>> = const { RefCell::new(None) };
    /// Spans open under this thread's unit; `None` when no unit is open
    /// (a plain `Cell`, so the span fast path stays one cheap read).
    static DEPTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Where a span sits under its thread's open unit.
pub(crate) enum Place {
    /// No unit is open.
    Outside,
    /// Directly under the unit: one of its stages.
    Stage(String),
    /// Under another span of the unit.
    Nested,
}

/// Places a span being entered.
pub(crate) fn enter(name: &str) -> Place {
    let Some(depth) = DEPTH.get() else {
        return Place::Outside;
    };
    DEPTH.set(Some(depth + 1));
    if depth == 0 {
        Place::Stage(name.to_string())
    } else {
        Place::Nested
    }
}

/// Closes a span placed by [`enter`] after `dur_ns`.
pub(crate) fn exit(place: Place, dur_ns: u64) {
    if matches!(place, Place::Outside) {
        return;
    }
    DEPTH.set(DEPTH.get().map(|depth| depth.saturating_sub(1)));
    if let Place::Stage(name) = place {
        with_unit(|rec| push_stage(&mut rec.stages, name, dur_ns / 1_000));
    }
}

/// Applies `f` to the record of this thread's open unit, if any.
fn with_unit(f: impl FnOnce(&mut FlightRecord)) {
    UNIT.with(|unit| unit.borrow_mut().as_mut().map(f));
}

/// Labels this thread's open unit with `key = value` (no-op outside one).
pub fn attr(key: &str, value: impl ToString) {
    with_unit(|rec| rec.attrs.push((key.to_string(), value.to_string())));
}

/// Adds session-cache hits and misses to this thread's open unit.
pub fn cache(hits: u64, misses: u64) {
    with_unit(|rec| {
        rec.cache_hits += hits;
        rec.cache_misses += misses;
    });
}

/// An open unit of work; see [`crate::flight()`]. Closing it, by
/// [`Flight::finish`] or by dropping it, writes its flight record.
#[must_use = "a unit records its stages until it closes"]
pub struct Flight {
    start_ns: u64,
    /// A unit closes on the thread that opened it.
    _thread: PhantomData<*const ()>,
}

/// Opens a unit of work of `kind` (`"http"`, `"job"`, …) named `label` on
/// this thread, stamped with the active trace id. It replaces any unit
/// already open on the thread.
pub fn flight(kind: &str, label: &str) -> Flight {
    let start_ns = now_ns();
    let mut rec = FlightRecord::new(kind, label);
    rec.start_us = start_ns / 1_000;
    UNIT.with(|unit| *unit.borrow_mut() = Some(rec));
    DEPTH.set(Some(0));
    Flight {
        start_ns,
        _thread: PhantomData,
    }
}

impl Flight {
    /// Sets the outcome token: an HTTP status (`"200"`) or a job state.
    pub fn outcome(&self, outcome: &str) {
        with_unit(|rec| rec.outcome = outcome.to_string());
    }

    /// Sets the request and response payload sizes.
    pub fn bytes(&self, bytes_in: u64, bytes_out: u64) {
        with_unit(|rec| (rec.bytes_in, rec.bytes_out) = (bytes_in, bytes_out));
    }

    /// Closes the unit: writes its flight record and emits `event` at Info,
    /// carrying `fields` and then the record's own. Returns the unit's
    /// wall time, the record's `total_us`.
    pub fn finish(mut self, event: &str, fields: &[(&str, Json)]) -> Duration {
        self.close(Some((event, fields)))
    }

    fn close(&mut self, event: Option<(&str, &[(&str, Json)])>) -> Duration {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        DEPTH.set(None);
        if let Some(mut rec) = UNIT.with(|unit| unit.borrow_mut().take()) {
            rec.total_us = dur_ns / 1_000;
            if let Some((event, fields)) = event.filter(|_| log::enabled(Level::Info)) {
                let _trace = crate::trace::adopt_raw(rec.trace);
                let mut all = fields.to_vec();
                all.extend(rec.fields());
                log::event(Level::Info, event, &all);
            }
            record(rec);
        }
        Duration::from_nanos(dur_ns)
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        self.close(None);
    }
}

static RING: Mutex<VecDeque<FlightRecord>> = Mutex::new(VecDeque::new());
static CAPACITY: AtomicUsize = AtomicUsize::new(usize::MAX); // MAX = unread

/// The configured ring capacity (reads `QOR_FLIGHT_CAP` once).
pub fn capacity() -> usize {
    let v = CAPACITY.load(Ordering::Relaxed);
    if v != usize::MAX {
        return v;
    }
    let cap = std::env::var("QOR_FLIGHT_CAP")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_CAPACITY)
        .min(usize::MAX - 1);
    CAPACITY.store(cap, Ordering::Relaxed);
    cap
}

/// Records one completed trace, evicting the oldest when full.
pub fn record(rec: FlightRecord) {
    let cap = capacity();
    if cap == 0 {
        return;
    }
    let rec = rec.clamp();
    let mut ring = RING.lock().unwrap();
    while ring.len() >= cap {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// Records currently held, **newest first** (the order `/debug/requests`
/// dumps them in).
pub fn snapshot() -> Vec<FlightRecord> {
    let ring = RING.lock().unwrap();
    ring.iter().rev().cloned().collect()
}

/// Number of records currently held.
pub fn len() -> usize {
    RING.lock().unwrap().len()
}

/// Serializes the whole recorder (capacity + newest-first records).
pub fn to_json() -> Json {
    Json::obj(vec![
        ("capacity", Json::UInt(capacity() as u64)),
        ("count", Json::UInt(len() as u64)),
        (
            "requests",
            Json::Arr(snapshot().iter().map(FlightRecord::to_json).collect()),
        ),
    ])
}

/// Clears the ring (test support; the capacity cache is kept).
pub fn reset() {
    RING.lock().unwrap().clear();
}

/// Overrides the capacity (test support).
pub fn set_capacity_for_tests(cap: usize) {
    CAPACITY.store(cap.min(usize::MAX - 1), Ordering::Relaxed);
}
