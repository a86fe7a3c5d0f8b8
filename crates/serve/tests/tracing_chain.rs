//! End-to-end trace propagation: an inbound `x-qor-trace` header must be
//! echoed back, stamped on the request's flight record (with per-stage
//! timings and cache attribution), and written into the `QOR_LOG` event
//! stream; DSE jobs get their own job-scoped trace visible both in
//! `GET /dse/<id>` and in the job's flight record.

use std::sync::{Mutex, Once};

use qor_core::{HierarchicalModel, Session, TrainOptions};
use serve::http::{client_request, client_request_with};
use serve::{json, Server};

/// The flight recorder and the QOR_LOG sink are process-global; tests in
/// this binary must not overlap.
static ISOLATION: Mutex<()> = Mutex::new(());
static LOG_SETUP: Once = Once::new();

/// The event log, in the build's scratch directory for integration tests,
/// so a test run leaves nothing in the system temp dir.
fn log_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("qor-trace-chain.jsonl")
}

/// Clears the log a previous run left and points `QOR_LOG` at it before
/// the first log call in this process (the variable is read once).
fn setup_log() {
    LOG_SETUP.call_once(|| {
        let _ = std::fs::remove_file(log_path());
        std::env::set_var("QOR_LOG", format!("debug:{}", log_path().display()));
    });
}

fn spawn_server() -> serve::ServerHandle {
    let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(4));
    Server::bind("127.0.0.1:0", Session::with_capacity(model, 32))
        .unwrap()
        .spawn()
        .unwrap()
}

/// A server with explicit dispatch, for tests that assert on per-stage
/// timings (direct) or batch composition (pinned flush policy).
fn spawn_server_with(dispatch: serve::DispatchMode) -> serve::ServerHandle {
    let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(4));
    let registry = std::sync::Arc::new(serve::ModelRegistry::with_default(model, 32));
    Server::bind_with(
        "127.0.0.1:0",
        registry,
        serve::ServerConfig {
            dispatch,
            ..serve::ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap()
}

fn find_record(trace_hex: &str) -> Option<obs::flight::FlightRecord> {
    let id = obs::TraceId::parse_hex(trace_hex).unwrap();
    obs::flight::snapshot()
        .into_iter()
        .find(|r| r.trace == id.0)
}

#[test]
fn predict_request_trace_flows_header_to_flight_record_and_log() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    setup_log();
    let trace_hex = "00dead00beef0042";
    // direct dispatch: the request's own thread runs the pipeline, so the
    // flight record carries the per-stage lower/prepare/infer split
    let handle = spawn_server_with(serve::DispatchMode::Direct);
    let body = r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}}"#;
    let (status, headers, _) = client_request_with(
        handle.addr(),
        "POST",
        "/v1/predict",
        Some(body),
        &[("x-qor-trace", trace_hex)],
    )
    .unwrap();
    assert_eq!(status, 200);
    // the trace id is echoed back to the client
    let echoed = headers
        .iter()
        .find(|(n, _)| n == "x-qor-trace")
        .map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some(trace_hex));

    // /debug/requests serves the same record the in-process ring holds
    let (status, dump) = client_request(handle.addr(), "GET", "/debug/requests", None).unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    assert!(
        dump.contains(&format!("\"trace\":\"{trace_hex}\"")),
        "{dump}"
    );

    let rec = find_record(trace_hex).expect("flight record for the traced request");
    assert_eq!(rec.kind, "http");
    assert_eq!(rec.label, "POST /v1/predict");
    assert_eq!(rec.outcome, "200");
    assert!(rec.bytes_in > 0 && rec.bytes_out > 0);
    // a cold single prediction misses both cache layers and reports
    // decode/lower/prepare/infer stages
    assert_eq!(rec.cache_misses, 2, "{rec:?}");
    let stages: Vec<&str> = rec.stages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(stages, ["decode", "lower", "prepare", "infer"], "{rec:?}");
    // the record is labeled with the model version that served it
    assert!(
        rec.attrs
            .iter()
            .any(|(k, v)| k == "model" && v == "default@1"),
        "{rec:?}"
    );

    // the same trace id shows up in the QOR_LOG event stream, on both the
    // request event and the session's cache-layer debug event
    let log = std::fs::read_to_string(log_path()).unwrap();
    let traced: Vec<&str> = log
        .lines()
        .filter(|l| l.contains(&format!("\"trace\":\"{trace_hex}\"")))
        .collect();
    assert!(
        traced
            .iter()
            .any(|l| l.contains("\"event\":\"http.request\"")),
        "{log}"
    );
    assert!(
        traced
            .iter()
            .any(|l| l.contains("\"event\":\"session.predict\"")),
        "{log}"
    );
}

#[test]
fn batch_workers_inherit_the_request_trace() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    setup_log();
    let trace_hex = "0000b007c0ffee01";
    // pin a generous wait so all three items coalesce into one flush
    let handle = spawn_server_with(serve::DispatchMode::Batched(serve::BatchOptions {
        max_batch: 8,
        max_wait: std::time::Duration::from_millis(50),
    }));
    let body = r#"{"requests":[{"kernel":"mvt"},{"kernel":"bicg"},{"kernel":"mvt"}]}"#;
    let (status, _, _) = client_request_with(
        handle.addr(),
        "POST",
        "/v1/predict",
        Some(body),
        &[("x-qor-trace", trace_hex)],
    )
    .unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    let rec = find_record(trace_hex).expect("flight record for the batch");
    // attribution is logical per item: the deduped mvt pair shares one
    // computation but each item reports its design's lookups, so 3 items x
    // 2 cache layers land on the request's trace
    assert_eq!(rec.cache_hits + rec.cache_misses, 6, "{rec:?}");
    let stages: Vec<&str> = rec.stages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(stages, ["decode", "batch"], "{rec:?}");
    // the batcher workers adopted the trace across the queue boundary:
    // their session.predict events carry the request's id
    let log = std::fs::read_to_string(log_path()).unwrap();
    let predicts = log
        .lines()
        .filter(|l| {
            l.contains(&format!("\"trace\":\"{trace_hex}\""))
                && l.contains("\"event\":\"session.predict\"")
        })
        .count();
    assert_eq!(predicts, 2, "one traced cache event per unique design");
}

#[test]
fn requests_without_a_header_get_a_derived_trace() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    setup_log();
    let handle = spawn_server();
    let (status, headers, _) =
        client_request_with(handle.addr(), "GET", "/v1/healthz", None, &[]).unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    let echoed = headers
        .iter()
        .find(|(n, _)| n == "x-qor-trace")
        .map(|(_, v)| v.clone())
        .expect("derived trace echoed");
    assert_eq!(echoed.len(), 16, "{echoed}");
    assert!(obs::TraceId::parse_hex(&echoed).is_some(), "{echoed}");
    assert!(find_record(&echoed).is_some(), "derived trace is recorded");
}

#[test]
fn dse_jobs_carry_a_job_scoped_trace_into_the_flight_recorder() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    setup_log();
    let handle = spawn_server();
    let addr = handle.addr();
    let body = r#"{"kernel":"fir","strategy":"random","budget":6,"seed":7,"batch":3}"#;
    let (status, response) = client_request(addr, "POST", "/v1/dse", Some(body)).unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = json::parse(&response).unwrap();
    let id = json::field(&doc, "id")
        .and_then(json::as_str)
        .unwrap()
        .to_string();

    // poll until done, then read the job's trace from its progress
    let mut job_trace = String::new();
    for _ in 0..1500 {
        let (status, body) = client_request(addr, "GET", &format!("/v1/dse/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        job_trace = json::field(&doc, "trace")
            .and_then(json::as_str)
            .unwrap()
            .to_string();
        if json::field(&doc, "status").and_then(json::as_str) != Some("running") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown();
    assert_eq!(job_trace.len(), 16, "{job_trace}");
    // the job's trace is deterministic: derived from its id alone
    let expected = obs::trace::derive(&[b"dse-job", id.as_bytes()]);
    assert_eq!(job_trace, expected.as_hex());

    let rec = find_record(&job_trace).expect("flight record for the job");
    assert_eq!(rec.kind, "job");
    assert_eq!(rec.label, id);
    assert_eq!(rec.outcome, "done");
    assert!(!rec.stages.is_empty(), "per-step stages recorded: {rec:?}");
    assert!(rec.stages[0].0.starts_with("step-"), "{rec:?}");

    // dse.submit and dse.done log events carry the same trace
    let log = std::fs::read_to_string(log_path()).unwrap();
    let traced: Vec<&str> = log
        .lines()
        .filter(|l| l.contains(&format!("\"trace\":\"{job_trace}\"")))
        .collect();
    assert!(
        traced
            .iter()
            .any(|l| l.contains("\"event\":\"dse.submit\"")),
        "{log}"
    );
    assert!(
        traced.iter().any(|l| l.contains("\"event\":\"dse.done\"")),
        "{log}"
    );
}

#[test]
fn debug_vars_reports_build_and_runtime_configuration() {
    let _lock = ISOLATION.lock().unwrap_or_else(|e| e.into_inner());
    setup_log();
    let handle = spawn_server();
    client_request(
        handle.addr(),
        "POST",
        "/v1/predict",
        Some(r#"{"kernel":"mvt"}"#),
    )
    .unwrap();
    let (status, body) = client_request(handle.addr(), "GET", "/debug/vars", None).unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        json::field(&doc, "version").and_then(json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(json::field(&doc, "uptime_s")
        .and_then(json::as_u64)
        .is_some());
    assert!(json::field(&doc, "threads").and_then(json::as_u64).unwrap() >= 1);
    assert_eq!(
        json::field(&doc, "log_level").and_then(json::as_str),
        Some("debug")
    );
    let status_obj = json::field(&doc, "status").unwrap();
    assert!(
        json::field(status_obj, "2xx")
            .and_then(json::as_u64)
            .unwrap()
            >= 1
    );
    let cache = json::field(&doc, "cache").unwrap();
    assert_eq!(json::field(cache, "misses").and_then(json::as_u64), Some(1));
    // dispatch + batching-queue counters and the model roster are exposed
    assert_eq!(
        json::field(&doc, "dispatch").and_then(json::as_str),
        Some("batched")
    );
    let batcher = json::field(&doc, "batcher").unwrap();
    assert!(
        json::field(batcher, "items")
            .and_then(json::as_u64)
            .unwrap()
            >= 1,
        "{body}"
    );
    assert!(
        json::field(batcher, "max_batch")
            .and_then(json::as_u64)
            .unwrap()
            >= 1
    );
    let models = json::as_array(json::field(&doc, "models").unwrap()).unwrap();
    assert_eq!(json::as_str(&models[0]), Some("default@1"), "{body}");
    let flight = json::field(&doc, "flight").unwrap();
    assert!(
        json::field(flight, "capacity")
            .and_then(json::as_u64)
            .unwrap()
            > 0
    );
}
