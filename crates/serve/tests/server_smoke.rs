//! End-to-end server tests: an in-process `Server` driven over real TCP by
//! the std-only client in `serve::http`. Verifies that HTTP predictions are
//! bit-identical to the library path, that repeated queries hit the session
//! cache, and that error paths return proper statuses.

use std::sync::Arc;

use obs::Json;
use pragma::{LoopId, PragmaConfig};
use qor_core::{HierarchicalModel, Session, TrainOptions};
use serve::http::client_request;
use serve::{json, Server};

fn model() -> HierarchicalModel {
    HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(4))
}

fn pipelined() -> PragmaConfig {
    let mut cfg = PragmaConfig::default();
    cfg.set_pipeline(LoopId::from_path(&[0]), true);
    cfg
}

fn spawn_server() -> serve::ServerHandle {
    Server::bind("127.0.0.1:0", Session::with_capacity(model(), 32))
        .unwrap()
        .spawn()
        .unwrap()
}

fn qor_field(doc: &Json, root: &str) -> (u64, u64, u64, u64) {
    let q = json::field(doc, root).expect("qor object");
    let get = |k: &str| json::as_u64(json::field(q, k).unwrap()).unwrap();
    (get("latency"), get("lut"), get("ff"), get("dsp"))
}

#[test]
fn healthz_reports_ok() {
    let handle = spawn_server();
    let (status, body) = client_request(handle.addr(), "GET", "/v1/healthz", None).unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        json::field(&doc, "status").and_then(json::as_str),
        Some("ok")
    );
}

#[test]
fn single_prediction_matches_library_path_and_repeats_hit_the_cache() {
    // the reference model is a *separate* instance with identical options:
    // weight init is seeded, so predictions must agree bit-for-bit
    let reference = model();
    let func = Arc::new(kernels::lower_kernel("mvt").unwrap());
    let expected = reference.predict(&func, &pipelined());

    let handle = spawn_server();
    let body = r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}}"#;
    let (status, first) = client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    assert_eq!(status, 200, "{first}");
    let (_, second) = client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    let stats = handle.stats();
    handle.shutdown();

    let first = json::parse(&first).unwrap();
    let second = json::parse(&second).unwrap();
    for doc in [&first, &second] {
        assert_eq!(
            qor_field(doc, "qor"),
            (expected.latency, expected.lut, expected.ff, expected.dsp),
            "server prediction diverges from the library path"
        );
    }
    assert_eq!(stats.hits, 1, "second identical query must hit");
    assert_eq!(stats.misses, 1);
    // the response's cache object exposes the same counters
    let cache = json::field(&second, "cache").unwrap();
    assert_eq!(json::field(cache, "hits").and_then(json::as_u64), Some(1));
}

#[test]
fn batched_predictions_preserve_order_and_reuse_the_cache() {
    let reference = model();
    let mvt = Arc::new(kernels::lower_kernel("mvt").unwrap());
    let bicg = Arc::new(kernels::lower_kernel("bicg").unwrap());
    let expect_mvt = reference.predict(&mvt, &pipelined());
    let expect_mvt_plain = reference.predict(&mvt, &PragmaConfig::default());
    let expect_bicg = reference.predict(&bicg, &PragmaConfig::default());

    let handle = spawn_server();
    let body = r#"{"requests":[
        {"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}},
        {"kernel":"bicg"},
        {"kernel":"mvt"},
        {"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}},
        {"kernel":"nope"}
    ]}"#;
    let (status, response) =
        client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    let stats = handle.stats();
    handle.shutdown();

    assert_eq!(status, 200, "{response}");
    let doc = json::parse(&response).unwrap();
    let results = json::as_array(json::field(&doc, "results").unwrap()).unwrap();
    assert_eq!(results.len(), 5);
    for (i, expected) in [expect_mvt, expect_bicg, expect_mvt_plain, expect_mvt]
        .iter()
        .enumerate()
    {
        assert_eq!(
            qor_field(&results[i], "qor"),
            (expected.latency, expected.lut, expected.ff, expected.dsp),
            "batch result {i} diverges"
        );
        // every served item names its model version
        let model = json::field(&results[i], "model").unwrap();
        assert_eq!(
            json::field(model, "name").and_then(json::as_str),
            Some("default")
        );
        assert_eq!(
            json::field(model, "generation").and_then(json::as_u64),
            Some(1)
        );
    }
    // per-item failures do not fail the batch; they carry the typed envelope
    let err = json::field(&results[4], "error").unwrap();
    assert_eq!(
        json::field(err, "code").and_then(json::as_str),
        Some("unknown_kernel")
    );
    assert!(
        json::field(err, "message")
            .and_then(json::as_str)
            .unwrap()
            .contains("nope"),
        "{response}"
    );
    // requests 0 and 3 are the same design: the batcher single-flights them
    // (shared computation, flagged deduped) instead of hitting the cache
    let deduped = |i: usize| {
        json::field(&results[i], "batch")
            .and_then(|b| json::field(b, "deduped"))
            .and_then(json::as_bool)
            .unwrap()
    };
    assert!(deduped(0) && deduped(3), "{response}");
    assert!(!deduped(1) && !deduped(2), "{response}");
    // the three unique designs span two kernels: mvt lowers once then hits
    assert_eq!(stats.kernel_misses, 2, "{stats:?}");
    assert!(stats.kernel_hits >= 1, "{stats:?}");
    assert_eq!(stats.misses, 3, "one miss per unique design: {stats:?}");
}

#[test]
fn inline_source_predictions_work() {
    let handle = spawn_server();
    let body = r#"{"top":"f","source":"void f(float a[16], float b[16]) { for (int i = 0; i < 16; i++) { b[i] = a[i] * 3.0; } }"}"#;
    let (status, response) =
        client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    let (_, repeat) = client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    let stats = handle.stats();
    handle.shutdown();
    assert_eq!(status, 200, "{response}");
    // an untrained model may predict ~0, so assert structure + determinism
    let doc = json::parse(&response).unwrap();
    let again = json::parse(&repeat).unwrap();
    assert_eq!(qor_field(&doc, "qor"), qor_field(&again, "qor"));
    assert_eq!(stats.kernel_misses, 1, "inline source must be cached too");
    assert_eq!(stats.kernel_hits, 1);
}

#[test]
fn metrics_expose_cache_counters_in_prometheus_format() {
    let handle = spawn_server();
    let body = r#"{"kernel":"mvt"}"#;
    for _ in 0..2 {
        client_request(handle.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    }
    let (status, text) = client_request(handle.addr(), "GET", "/v1/metrics", None).unwrap();
    handle.shutdown();
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE qor_session_cache_hits_total counter"),
        "{text}"
    );
    let hits_line = text
        .lines()
        .find(|l| l.starts_with("qor_session_cache_hits_total "))
        .unwrap();
    assert_eq!(hits_line, "qor_session_cache_hits_total 1");
    assert!(text.contains("qor_predictions_total 2"), "{text}");
    // every sample line uses the Prometheus charset (labels in `{}` are
    // stripped before the check)
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let token = line.split_whitespace().next().unwrap();
        let name = token.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name {name:?}"
        );
    }
    // request latency is exposed as a real Prometheus histogram with
    // cumulative le-buckets plus exact-quantile gauges
    assert!(
        text.contains("# TYPE qor_http_request_duration_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("qor_http_request_duration_us_bucket{route=\"predict\",status=\"2xx\",le=\""),
        "{text}"
    );
    assert!(
        text.contains(
            "qor_http_request_duration_us_bucket{route=\"predict\",status=\"2xx\",le=\"+Inf\"} 2"
        ),
        "{text}"
    );
    assert!(
        text.contains("qor_http_request_duration_us_count{route=\"predict\",status=\"2xx\"} 2"),
        "{text}"
    );
    assert!(
        text.contains(
            "qor_http_request_duration_us_quantile{route=\"predict\",status=\"2xx\",q=\"0.99\"}"
        ),
        "{text}"
    );
    // status-class and per-route counters
    assert!(text.contains("qor_http_responses_2xx_total 2"), "{text}");
    assert!(
        text.contains("qor_http_route_requests_total{route=\"predict\"} 2"),
        "{text}"
    );
    // cumulative buckets must be monotonically non-decreasing
    let mut last = 0u64;
    for line in text.lines().filter(|l| {
        l.starts_with("qor_http_request_duration_us_bucket{route=\"predict\",status=\"2xx\"")
    }) {
        let v: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(v >= last, "buckets must be cumulative: {line}");
        last = v;
    }
    assert_eq!(last, 2, "final +Inf bucket equals the count");
}

/// Polls `GET /dse/<id>` until the job leaves `running` (or panics after
/// `tries` attempts).
fn wait_for_job(addr: std::net::SocketAddr, id: &str, tries: u32) -> Json {
    let path = format!("/v1/dse/{id}");
    for _ in 0..tries {
        let (status, body) = client_request(addr, "GET", &path, None).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        let state = json::field(&doc, "status").and_then(json::as_str).unwrap();
        if state != "running" {
            return doc;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!("job {id} still running after {tries} polls");
}

#[test]
fn dse_job_lifecycle_runs_to_done_over_http() {
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

    let done = wait_for_job(addr, &id, 1500);
    assert_eq!(
        json::field(&done, "status").and_then(json::as_str),
        Some("done"),
        "{done:?}"
    );
    assert_eq!(
        json::field(&done, "kernel").and_then(json::as_str),
        Some("fir")
    );
    assert_eq!(
        json::field(&done, "strategy").and_then(json::as_str),
        Some("random")
    );
    let spent = json::field(&done, "spent").and_then(json::as_u64).unwrap();
    assert!((1..=6).contains(&spent), "spent {spent} outside the budget");
    let front = json::as_array(json::field(&done, "front").unwrap()).unwrap();
    assert!(!front.is_empty(), "finished job must publish a front");
    for point in front {
        assert!(json::field(point, "fingerprint").is_some());
        assert!(json::field(point, "latency").is_some());
        assert!(json::field(point, "area").is_some());
    }

    // job counters and throughput reach /metrics
    let (_, metrics) = client_request(addr, "GET", "/v1/metrics", None).unwrap();
    for needle in [
        "qor_dse_jobs_submitted_total 1",
        "qor_dse_jobs_completed_total 1",
        "qor_dse_jobs_failed_total 0",
        "# TYPE qor_dse_evals_per_second gauge",
    ] {
        assert!(metrics.contains(needle), "missing {needle:?} in {metrics}");
    }
    let evals = metrics
        .lines()
        .find(|l| l.starts_with("qor_dse_evaluations_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    assert_eq!(evals, spent, "metrics must count the job's evaluations");

    // delete forgets the job; a second delete and a stale poll both 404
    let path = format!("/v1/dse/{id}");
    let (status, deleted) = client_request(addr, "DELETE", &path, None).unwrap();
    assert_eq!(status, 200, "{deleted}");
    let deleted = json::parse(&deleted).unwrap();
    assert_eq!(
        json::field(&deleted, "deleted").and_then(json::as_bool),
        Some(true)
    );
    let (status, _) = client_request(addr, "DELETE", &path, None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client_request(addr, "GET", &path, None).unwrap();
    assert_eq!(status, 404);

    handle.shutdown();
}

#[test]
fn dse_submission_errors_are_synchronous_400s() {
    let handle = spawn_server();
    let addr = handle.addr();
    let cases = [
        ("{not json", "json"),
        (r#"{"strategy":"random"}"#, "kernel"),
        (r#"{"kernel":"no_such_kernel"}"#, "kernel"),
        (r#"{"kernel":"fir","strategy":"hillclimb"}"#, "strategy"),
        (r#"{"kernel":"fir","batch":0}"#, "batch"),
        (r#"{"kernel":"fir","budget":-3}"#, "budget"),
    ];
    for (body, needle) in cases {
        let (status, response) = client_request(addr, "POST", "/v1/dse", Some(body)).unwrap();
        assert_eq!(status, 400, "{body}: {response}");
        let err = json::parse(&response).unwrap();
        let msg = json::field(&err, "message").and_then(json::as_str).unwrap();
        assert!(
            msg.to_lowercase().contains(needle),
            "{body}: error {msg:?} should mention {needle:?}"
        );
    }
    // nothing was enqueued
    let (_, metrics) = client_request(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.contains("qor_dse_jobs_submitted_total 0"),
        "{metrics}"
    );

    // method guards on both dse routes
    let (status, _) = client_request(addr, "GET", "/v1/dse", None).unwrap();
    assert_eq!(status, 405);
    let (status, _) = client_request(addr, "POST", "/v1/dse/job-1", Some("{}")).unwrap();
    assert_eq!(status, 405);
    let (status, _) = client_request(addr, "GET", "/v1/dse/job-999", None).unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn error_paths_return_the_typed_envelope() {
    let handle = spawn_server();
    let addr = handle.addr();
    let cases = [
        ("POST", "/v1/predict", Some("{not json"), 400, "bad_request"),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"config":{}}"#),
            400,
            "bad_request",
        ),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"unroll":"half"}]}}"#),
            400,
            "bad_request",
        ),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"kernel":"no_such_kernel"}"#),
            400,
            "unknown_kernel",
        ),
        ("GET", "/v1/predict", None, 405, "method_not_allowed"),
        ("POST", "/v1/healthz", None, 405, "method_not_allowed"),
        ("GET", "/no_such_route", None, 404, "not_found"),
        ("GET", "/v1/models/ghost", None, 404, "unknown_model"),
        (
            "POST",
            "/v1/predict",
            Some(r#"{"kernel":"mvt","model":"ghost"}"#),
            404,
            "unknown_model",
        ),
    ];
    for (method, path, body, expected, code) in cases {
        let (status, response) = client_request(addr, method, path, body).unwrap();
        assert_eq!(status, expected, "{method} {path}: {response}");
        // every non-2xx body is the {"code","message","trace"} envelope
        let doc = json::parse(&response).unwrap();
        assert_eq!(
            json::field(&doc, "code").and_then(json::as_str),
            Some(code),
            "{method} {path}: {response}"
        );
        assert!(json::field(&doc, "message").is_some(), "{response}");
        let trace = json::field(&doc, "trace").and_then(json::as_str).unwrap();
        assert_eq!(trace.len(), 16, "{response}");
    }
    handle.shutdown();
}

#[test]
fn v1_routes_serve_and_unversioned_paths_get_a_typed_404() {
    let handle = spawn_server();
    let addr = handle.addr();
    // the /v1 surface serves without deprecation headers
    for (method, path, body) in [
        ("GET", "/v1/healthz", None),
        ("GET", "/v1/metrics", None),
        ("POST", "/v1/predict", Some(r#"{"kernel":"mvt"}"#)),
        ("GET", "/v1/models", None),
    ] {
        let (status, headers, response) =
            serve::http::client_request_with(addr, method, path, body, &[]).unwrap();
        assert_eq!(status, 200, "{method} {path}: {response}");
        assert!(
            !headers.iter().any(|(n, _)| n == "deprecation"),
            "{method} {path} must not be deprecated: {headers:?}"
        );
    }
    // unversioned paths and the removed distributed-search routes match
    // no route: each is a typed 404 envelope
    for (method, path, body) in [
        ("GET", "/healthz", None),
        ("GET", "/metrics", None),
        ("POST", "/predict", Some(r#"{"kernel":"mvt"}"#)),
        ("POST", "/dse", Some(r#"{"kernel":"mvt"}"#)),
        ("GET", "/dse/job-1", None),
        ("DELETE", "/dse/job-1", None),
        ("GET", "/v1/fleet/workers", None),
        ("DELETE", "/v1/fleet/workers/x", None),
        ("POST", "/v1/fleet/eval", Some(r#"{"unit":0}"#)),
    ] {
        let (status, headers, response) =
            serve::http::client_request_with(addr, method, path, body, &[]).unwrap();
        assert_eq!(status, 404, "{method} {path}: {response}");
        assert!(
            !headers
                .iter()
                .any(|(n, _)| n == "deprecation" || n == "link"),
            "{method} {path}: {headers:?}"
        );
        let doc = json::parse(&response).unwrap();
        assert_eq!(
            json::field(&doc, "code").and_then(json::as_str),
            Some("not_found"),
            "{method} {path}: {response}"
        );
        assert!(json::field(&doc, "message").is_some(), "{response}");
        let trace = json::field(&doc, "trace").and_then(json::as_str).unwrap();
        assert_eq!(trace.len(), 16, "{response}");
    }
    handle.shutdown();
}

#[test]
fn model_endpoints_list_inspect_and_guard_the_registry() {
    let handle = spawn_server();
    let addr = handle.addr();
    client_request(addr, "POST", "/v1/predict", Some(r#"{"kernel":"mvt"}"#)).unwrap();

    let (status, body) = client_request(addr, "GET", "/v1/models", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let models = json::as_array(json::field(&doc, "models").unwrap()).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(
        json::field(&models[0], "name").and_then(json::as_str),
        Some("default")
    );
    assert_eq!(
        json::field(&models[0], "generation").and_then(json::as_u64),
        Some(1)
    );
    assert_eq!(
        json::field(&models[0], "predictions").and_then(json::as_u64),
        Some(1),
        "the served prediction must be attributed to the version: {body}"
    );

    let (status, one) = client_request(addr, "GET", "/v1/models/default", None).unwrap();
    assert_eq!(status, 200, "{one}");
    let one = json::parse(&one).unwrap();
    assert_eq!(
        json::field(&one, "source").and_then(json::as_str),
        Some("startup")
    );

    // the last model cannot be removed
    let (status, body) = client_request(addr, "DELETE", "/v1/models/default", None).unwrap();
    assert_eq!(status, 409, "{body}");
    let err = json::parse(&body).unwrap();
    assert_eq!(
        json::field(&err, "code").and_then(json::as_str),
        Some("conflict")
    );

    // a reload needs a real checkpoint path
    let (status, body) = client_request(
        addr,
        "PUT",
        "/v1/models/default",
        Some(r#"{"checkpoint":"/nonexistent/m.qorckpt"}"#),
    )
    .unwrap();
    assert_eq!(status, 500, "{body}");
    let err = json::parse(&body).unwrap();
    assert_eq!(json::field(&err, "code").and_then(json::as_str), Some("io"));

    // per-model metrics are labeled with name and generation
    let (_, metrics) = client_request(addr, "GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.contains("qor_model_generation{model=\"default\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qor_model_predictions_total{model=\"default\",generation=\"1\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE qor_batch_flushes_total counter"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn direct_dispatch_serves_identical_predictions_without_batch_info() {
    use serve::{DispatchMode, ModelRegistry, ServerConfig};
    let registry = Arc::new(ModelRegistry::with_default(model(), 32));
    let direct = Server::bind_with(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            dispatch: DispatchMode::Direct,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let batched = spawn_server();
    let body = r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}}"#;
    let (status, from_direct) =
        client_request(direct.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    assert_eq!(status, 200, "{from_direct}");
    let (_, from_batched) =
        client_request(batched.addr(), "POST", "/v1/predict", Some(body)).unwrap();
    direct.shutdown();
    batched.shutdown();
    let d = json::parse(&from_direct).unwrap();
    let b = json::parse(&from_batched).unwrap();
    assert_eq!(
        qor_field(&d, "qor"),
        qor_field(&b, "qor"),
        "dispatch mode must not change predictions"
    );
    assert!(json::field(&d, "batch").is_none(), "{from_direct}");
    assert!(json::field(&b, "batch").is_some(), "{from_batched}");
    assert!(json::field(&d, "model").is_some(), "{from_direct}");
}

#[test]
fn shutdown_is_clean_and_idempotent_for_clients() {
    let handle = spawn_server();
    let addr = handle.addr();
    let (status, _) = client_request(addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();
    // the listener is gone: clients now fail to connect instead of hanging
    assert!(client_request(addr, "GET", "/v1/healthz", None).is_err());
}

/// Scrapes one counter value from the `/v1/metrics` Prometheus text.
fn scrape_counter(addr: std::net::SocketAddr, name: &str) -> u64 {
    let (status, body) = client_request(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(status, 200);
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn malformed_inline_sources_return_typed_envelopes_and_leave_the_server_alive() {
    let handle = spawn_server();
    let addr = handle.addr();
    let before_4xx = scrape_counter(addr, "qor_http_responses_4xx_total");

    // each case: a broken inline source, the expected stable error code
    let cases: Vec<(String, &str)> = vec![
        // lexer/parser garbage
        ("void f(float a[4]) { a[0] = @#$!; }".into(), "parse"),
        // truncated mid-statement
        ("void f(float a[4]) { for (int i = 0; i <".into(), "parse"),
        // semantic: unknown identifier
        ("void f(float a[4]) { a[0] = ghost; }".into(), "parse"),
        // semantic: resource limit (nest budget)
        (
            "void f(float a[4]) {
                for (int i = 0; i < 1048576; i++) {
                    for (int j = 0; j < 1048576; j++) { a[0] = 1.0; }
                }
            }"
            .into(),
            "parse",
        ),
        // valid program, wrong top name
        (
            "void g(float a[4]) { for (int i = 0; i < 4; i++) { a[i] = 1.0; } }".into(),
            "unknown_kernel",
        ),
    ];
    // plus seeded corruptor output: whatever the mutation did, the server
    // must answer with a typed envelope, never fall over
    let corrupted: Vec<(String, &str)> = kernels::corrupted_corpus(10, 0)
        .into_iter()
        .map(|(_, src)| (src, ""))
        .collect();

    let mut seen_4xx = 0u64;
    for (source, code) in cases.iter().chain(corrupted.iter()) {
        let body = format!(r#"{{"top":"f","source":{}}}"#, Json::str(source.clone()));
        let (status, response) = client_request(addr, "POST", "/v1/predict", Some(&body)).unwrap();
        if status == 200 {
            // rare: a corrupted program can stay valid — fine, not a crash
            assert!(code.is_empty(), "{source}\n{response}");
            continue;
        }
        assert!(
            (400..500).contains(&status),
            "want 4xx for broken source, got {status}: {response}"
        );
        seen_4xx += 1;
        let doc = json::parse(&response).unwrap();
        let got = json::field(&doc, "code").and_then(json::as_str).unwrap();
        if !code.is_empty() {
            assert_eq!(got, *code, "{source}\n{response}");
        }
        assert!(json::field(&doc, "message").is_some(), "{response}");
        let trace = json::field(&doc, "trace").and_then(json::as_str).unwrap();
        assert_eq!(trace.len(), 16, "{response}");
    }
    assert!(seen_4xx >= 10, "only {seen_4xx} rejections");

    // the 4xx counter moved by exactly the rejected count
    let after_4xx = scrape_counter(addr, "qor_http_responses_4xx_total");
    assert_eq!(
        after_4xx - before_4xx,
        seen_4xx,
        "4xx counter must track rejections"
    );

    // and the server still predicts happily
    let (status, response) =
        client_request(addr, "POST", "/v1/predict", Some(r#"{"kernel":"mvt"}"#)).unwrap();
    assert_eq!(
        status, 200,
        "server must survive malformed sources: {response}"
    );
    handle.shutdown();
}
