//! Flight units add up: on every unit the server and the DSE job runner
//! open, the stage timings plus `unattributed_us` equal `total_us`, and a
//! warm repeat of a prediction keeps the cold one's stage list.

use std::sync::Arc;

use obs::flight::FlightRecord;
use qor_core::{HierarchicalModel, TrainOptions};
use serve::http::{client_request, client_request_with};
use serve::{json, DispatchMode, ModelRegistry, Server, ServerConfig, ServerHandle};

fn spawn(dispatch: DispatchMode) -> ServerHandle {
    let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(4));
    let config = ServerConfig {
        dispatch,
        ..ServerConfig::default()
    };
    Server::bind_with(
        "127.0.0.1:0",
        Arc::new(ModelRegistry::with_default(model, 32)),
        config,
    )
    .unwrap()
    .spawn()
    .unwrap()
}

fn record(trace: obs::TraceId) -> FlightRecord {
    obs::flight::snapshot()
        .into_iter()
        .find(|r| r.trace == trace.0)
        .unwrap_or_else(|| panic!("no flight record for {trace}"))
}

/// Posts a traced `/v1/predict` and returns its flight record.
fn predict(handle: &ServerHandle, body: &str, tag: &str) -> FlightRecord {
    let trace = obs::trace::derive(&[b"flight-units", tag.as_bytes()]);
    let (status, _, response) = client_request_with(
        handle.addr(),
        "POST",
        "/v1/predict",
        Some(body),
        &[("x-qor-trace", &trace.as_hex())],
    )
    .unwrap();
    assert_eq!(status, 200, "{response}");
    record(trace)
}

fn stages(rec: &FlightRecord) -> Vec<&str> {
    rec.stages.iter().map(|(name, _)| name.as_str()).collect()
}

fn assert_adds_up(rec: &FlightRecord) {
    let staged: u64 = rec.stages.iter().map(|&(_, us)| us).sum();
    assert_eq!(staged + rec.unattributed_us(), rec.total_us, "{rec:?}");
}

#[test]
fn every_unit_adds_up_to_its_wall_time() {
    let single = r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}}"#;
    let multi = r#"{"requests":[{"kernel":"mvt"},{"kernel":"bicg"}]}"#;

    let direct = spawn(DispatchMode::Direct);
    let cold = predict(&direct, single, "cold");
    let warm = predict(&direct, single, "warm");
    let fanned = predict(&direct, multi, "multi");
    direct.shutdown();
    assert_eq!(stages(&cold), ["decode", "lower", "prepare", "infer"]);
    assert_eq!(stages(&warm), stages(&cold));
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2), "{cold:?}");
    assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0), "{warm:?}");
    assert_eq!(stages(&fanned), ["decode", "predict"]);

    let batched = spawn(DispatchMode::Batched(serve::BatchOptions {
        max_batch: 8,
        max_wait: std::time::Duration::from_millis(1),
    }));
    let queued = predict(&batched, single, "batched");
    assert_eq!(stages(&queued), ["decode", "batch"]);

    let job = r#"{"kernel":"fir","strategy":"random","budget":6,"seed":7,"batch":3}"#;
    let (status, body) = client_request(batched.addr(), "POST", "/v1/dse", Some(job)).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let id = json::field(&doc, "id").and_then(json::as_str).unwrap();
    let mut done = false;
    for _ in 0..1500 {
        let (_, body) =
            client_request(batched.addr(), "GET", &format!("/v1/dse/{id}"), None).unwrap();
        let doc = json::parse(&body).unwrap();
        if json::field(&doc, "status").and_then(json::as_str) != Some("running") {
            done = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    batched.shutdown();
    assert!(done, "job {id} did not finish");
    let job = record(obs::trace::derive(&[b"dse-job", id.as_bytes()]));
    assert_eq!(job.outcome, "done");
    assert!(!job.stages.is_empty());
    assert!(
        job.stages.iter().all(|(name, _)| name.starts_with("step-")),
        "{job:?}"
    );

    for rec in [&cold, &warm, &fanned, &queued, &job] {
        assert_adds_up(rec);
    }
}
