//! Flight-recorder contract tests: capacity eviction order, bounded
//! memory (string/stage clamping), trace stamping, and the JSON dump
//! shape served by `GET /debug/requests`.

use std::sync::Mutex;

use obs::flight::{self, FlightRecord, MAX_LABEL_BYTES, MAX_STAGES};
use obs::trace;

/// The ring is process-global; tests in this binary must not overlap.
static ISOLATION: Mutex<()> = Mutex::new(());

fn rec(label: &str) -> FlightRecord {
    let mut r = FlightRecord::new("test", label);
    r.outcome = "200".to_string();
    r.total_us = 7;
    r
}

#[test]
fn capacity_evicts_oldest_first_and_dumps_newest_first() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    for i in 0..10 {
        flight::record(rec(&format!("req-{i}")));
    }
    let snap = flight::snapshot();
    assert_eq!(flight::len(), 4);
    // newest first: 9, 8, 7, 6 — requests 0..=5 were evicted in order
    let labels: Vec<&str> = snap.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["req-9", "req-8", "req-7", "req-6"]);
    flight::reset();
}

#[test]
fn records_are_clamped_to_bounded_memory() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    let mut r = rec(&"x".repeat(10_000));
    r.kind = "k".repeat(5_000);
    // 100 stages of 3 µs each
    r.stages = (0..100).map(|i| (format!("stage-{i}"), 3u64)).collect();
    flight::record(r);
    let snap = flight::snapshot();
    assert_eq!(snap.len(), 1);
    let r = &snap[0];
    assert_eq!(r.label.len(), MAX_LABEL_BYTES);
    assert_eq!(r.kind.len(), MAX_LABEL_BYTES);
    assert_eq!(r.stages.len(), MAX_STAGES);
    // the overflow stage preserves the dropped time, so stage sums hold
    let total: u64 = r.stages.iter().map(|&(_, us)| us).sum();
    assert_eq!(total, 300);
    assert_eq!(r.stages.last().unwrap().0, "...");
    flight::reset();
}

#[test]
fn attrs_are_clamped_and_serialized_as_an_object() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    let mut r = rec("attrs").with_attr("model", "default@3");
    r.attrs.push(("v".repeat(9_000), "w".repeat(9_000)));
    r.attrs
        .extend((0..100).map(|i| (format!("k{i}"), "x".to_string())));
    flight::record(r);
    let snap = flight::snapshot();
    let r = &snap[0];
    assert_eq!(r.attrs.len(), MAX_STAGES);
    assert_eq!(r.attrs[0], ("model".to_string(), "default@3".to_string()));
    assert_eq!(r.attrs[1].0.len(), MAX_LABEL_BYTES);
    assert_eq!(r.attrs[1].1.len(), MAX_LABEL_BYTES);
    let json = flight::to_json().to_string();
    assert!(json.contains(r#""attrs":{"model":"default@3""#), "{json}");
    flight::reset();
}

#[test]
fn zero_capacity_disables_recording() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(0);
    flight::record(rec("dropped"));
    assert_eq!(flight::len(), 0);
    flight::set_capacity_for_tests(4);
}

#[test]
fn records_inherit_the_active_trace_and_serialize_it() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    let id = trace::derive(&[b"flight-test", b"1"]);
    {
        let _g = trace::adopt(id);
        let mut r = FlightRecord::new("http", "POST /predict");
        r.stages = vec![("decode".into(), 2), ("predict".into(), 40)];
        r.cache_hits = 1;
        flight::record(r);
    }
    let snap = flight::snapshot();
    assert_eq!(snap[0].trace, id.0);
    let json = flight::to_json().to_string();
    assert!(
        json.contains(&format!("\"trace\":\"{}\"", id.as_hex())),
        "{json}"
    );
    assert!(json.contains("\"capacity\":4"), "{json}");
    assert!(json.contains(r#"{"stage":"decode","us":2}"#), "{json}");
    flight::reset();
}

fn stage_names(rec: &FlightRecord) -> Vec<&str> {
    rec.stages.iter().map(|(name, _)| name.as_str()).collect()
}

fn adds_up(rec: &FlightRecord) -> bool {
    let staged: u64 = rec.stages.iter().map(|&(_, us)| us).sum();
    staged + rec.unattributed_us() == rec.total_us
}

#[test]
fn a_unit_records_its_direct_spans_as_stages_that_add_up() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    obs::test_support::force_collection(false);
    let id = trace::derive(&[b"flight-test", b"unit"]);
    let total = {
        let _g = trace::adopt(id);
        let unit = obs::flight("job", "job-9");
        {
            let _a = obs::span("first");
            let _nested = obs::span("nested");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        flight::attr("model", "default@1");
        flight::cache(1, 2);
        let second = obs::span("second");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(second.finish() >= std::time::Duration::from_millis(1));
        unit.outcome("done");
        unit.bytes(3, 4);
        unit.finish("test.done", &[])
    };
    // outside the unit, an untimed span reads no clock
    assert_eq!(obs::span("after").finish(), std::time::Duration::ZERO);
    assert!(obs::timer("timed").finish() > std::time::Duration::ZERO);

    let snap = flight::snapshot();
    assert_eq!(snap.len(), 1);
    let rec = &snap[0];
    assert_eq!(rec.trace, id.0);
    assert_eq!((rec.kind.as_str(), rec.label.as_str()), ("job", "job-9"));
    assert_eq!(rec.outcome, "done");
    assert_eq!(stage_names(rec), ["first", "second"], "{rec:?}");
    assert!(rec.stages[0].1 >= 2_000, "{rec:?}");
    assert_eq!(rec.total_us, total.as_micros() as u64);
    assert!(adds_up(rec), "{rec:?}");
    assert_eq!((rec.cache_hits, rec.cache_misses), (1, 2));
    assert_eq!((rec.bytes_in, rec.bytes_out), (3, 4));
    assert_eq!(rec.attrs, [("model".to_string(), "default@1".to_string())]);
    let json = flight::to_json().to_string();
    assert!(
        json.contains(&format!("\"unattributed_us\":{}", rec.unattributed_us())),
        "{json}"
    );
    flight::reset();
}

#[test]
fn an_open_unit_keeps_at_most_max_stages() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    flight::set_capacity_for_tests(4);
    flight::reset();
    {
        let _unit = obs::flight("job", "long");
        for i in 0..100 {
            let _step = obs::span(&format!("step-{i}"));
        }
        // a dropped unit still writes its record
    }
    let snap = flight::snapshot();
    let rec = &snap[0];
    assert_eq!(rec.stages.len(), MAX_STAGES);
    assert_eq!(
        rec.stages[MAX_STAGES - 2].0,
        format!("step-{}", MAX_STAGES - 2)
    );
    assert_eq!(rec.stages.last().unwrap().0, "...");
    assert!(adds_up(rec), "{rec:?}");
    flight::reset();
}
