//! `qor-serve` — the QoR-prediction inference server.
//!
//! ```text
//! qor-serve [--addr HOST:PORT] [--checkpoint FILE | --train-quick]
//!           [--model NAME=FILE]... [--save FILE] [--cache-cap KERNELS]
//!           [--batch-max N] [--batch-wait-us N] [--no-batch] [--self-test]
//! ```
//!
//! Default-model source (first match wins):
//!
//! * `--checkpoint FILE` — load a checkpoint written by `--save` or
//!   `serve::checkpoint::save_model_file`.
//! * `--train-quick` — train on the bundled kernels with
//!   `TrainOptions::quick()` (a few minutes), then serve.
//! * neither — serve an untrained model (weights at init); useful only for
//!   smoke tests.
//!
//! `--model NAME=FILE` (repeatable) registers additional named model
//! versions from checkpoints; requests select one with `"model": "NAME"`.
//! All versions can also be hot-reloaded at runtime via
//! `PUT /v1/models/<name>`.
//!
//! `--batch-max` / `--batch-wait-us` tune the cross-request batching
//! queue (defaults 32 items / 500 µs, also settable via `QOR_BATCH_MAX`
//! and `QOR_BATCH_WAIT_US`); `--no-batch` serves every request inline on
//! its connection thread instead.
//!
//! `--cache-cap KERNELS` bounds the session cache: how many kernels
//! (lowered function plus incremental query database each) stay
//! memoized, least recently used first out. It overrides `QOR_CACHE_CAP`
//! (default 256); `0` retains nothing.
//!
//! `--save FILE` writes the default model (after loading/training) as a
//! checkpoint and keeps serving. `--self-test` skips the network-facing
//! loop: it binds an ephemeral port, drives the full request matrix
//! against itself (health, single + batched predictions through the
//! batching queue, both flush triggers, a registry hot-reload cycle,
//! metrics, a `/v1/dse` search-job cycle, clean shutdown) and exits
//! non-zero on any mismatch — this is the CI server gate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use qor_core::{HierarchicalModel, SharedCache, TrainOptions};
use serve::http::client_request;
use serve::{BatchOptions, DispatchMode, ModelRegistry, Server, ServerConfig, DEFAULT_MODEL};

struct Args {
    addr: String,
    checkpoint: Option<String>,
    models: Vec<(String, String)>,
    train_quick: bool,
    save: Option<String>,
    cache_cap: Option<usize>,
    batch_max: Option<usize>,
    batch_wait_us: Option<u64>,
    no_batch: bool,
    self_test: bool,
    jobs_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7845".to_string(),
        checkpoint: None,
        models: Vec::new(),
        train_quick: false,
        save: None,
        cache_cap: None,
        batch_max: None,
        batch_wait_us: None,
        no_batch: false,
        self_test: false,
        jobs_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--model" => {
                let spec = value("--model")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model expects NAME=FILE, got {spec:?}"))?;
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--model expects NAME=FILE, got {spec:?}"));
                }
                args.models.push((name.to_string(), path.to_string()));
            }
            "--train-quick" => args.train_quick = true,
            "--save" => args.save = Some(value("--save")?),
            "--cache-cap" => {
                args.cache_cap = Some(
                    value("--cache-cap")?
                        .parse()
                        .map_err(|_| "--cache-cap must be an integer".to_string())?,
                )
            }
            "--batch-max" => {
                args.batch_max = Some(
                    value("--batch-max")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| v >= 1)
                        .ok_or_else(|| "--batch-max must be a positive integer".to_string())?,
                )
            }
            "--batch-wait-us" => {
                args.batch_wait_us = Some(
                    value("--batch-wait-us")?
                        .parse()
                        .map_err(|_| "--batch-wait-us must be an integer".to_string())?,
                )
            }
            "--no-batch" => args.no_batch = true,
            "--self-test" => args.self_test = true,
            "--jobs-dir" => args.jobs_dir = Some(value("--jobs-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: qor-serve [--addr HOST:PORT] [--checkpoint FILE | --train-quick] \
                     [--model NAME=FILE]... [--save FILE] [--cache-cap KERNELS] \
                     [--batch-max N] [--batch-wait-us N] [--no-batch] [--jobs-dir DIR] \
                     [--self-test]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn build_model(args: &Args) -> Result<HierarchicalModel, String> {
    if let Some(path) = &args.checkpoint {
        eprintln!("loading checkpoint {path}");
        return serve::load_model_file(path).map_err(|e| format!("loading {path}: {e}"));
    }
    if args.train_quick {
        eprintln!("training on bundled kernels (quick profile)");
        let (model, stats) = HierarchicalModel::train_on_kernels(&TrainOptions::quick())
            .map_err(|e| format!("training: {e}"))?;
        eprintln!(
            "trained: GNN_g latency MAPE {:.2}% over {} test designs",
            stats.global.latency_mape, stats.global.n
        );
        return Ok(model);
    }
    eprintln!("serving an UNTRAINED model (pass --checkpoint or --train-quick)");
    Ok(HierarchicalModel::new(&TrainOptions::quick()))
}

fn dispatch_mode(args: &Args) -> DispatchMode {
    if args.no_batch {
        return DispatchMode::Direct;
    }
    let mut opts = BatchOptions::from_env();
    if let Some(max) = args.batch_max {
        opts.max_batch = max;
    }
    if let Some(us) = args.batch_wait_us {
        opts.max_wait = Duration::from_micros(us);
    }
    DispatchMode::Batched(opts)
}

fn main() -> ExitCode {
    let _obs = obs::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qor-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.self_test {
        return match self_test() {
            Ok(()) => {
                println!("self-test ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let model = match build_model(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("qor-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.save {
        if let Err(e) = serve::save_model_file(path, &model) {
            eprintln!("qor-serve: saving {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("checkpoint written to {path}");
    }
    // --cache-cap overrides QOR_CACHE_CAP, which SharedCache::new reads
    let cache = args
        .cache_cap
        .map_or_else(SharedCache::new, SharedCache::with_capacity);
    let registry = Arc::new(ModelRegistry::new(Arc::new(cache)));
    registry.install(DEFAULT_MODEL, model, "startup");
    for (name, path) in &args.models {
        match registry.load_file(name, path) {
            Ok(entry) => eprintln!("registered model {} from {path}", entry.tag()),
            Err(e) => {
                eprintln!("qor-serve: loading --model {name}={path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let config = ServerConfig {
        dispatch: dispatch_mode(&args),
        jobs_dir: args.jobs_dir.clone().map(std::path::PathBuf::from),
    };
    match config.dispatch {
        DispatchMode::Batched(opts) => eprintln!(
            "batching: up to {} items / {} µs",
            opts.max_batch,
            opts.max_wait.as_micros()
        ),
        DispatchMode::Direct => eprintln!("batching disabled (--no-batch)"),
    }
    let server = match Server::bind_with(&args.addr, registry, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qor-serve: binding {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("listening on http://{addr}"),
        Err(_) => eprintln!("listening on {}", args.addr),
    }
    server.run();
    ExitCode::SUCCESS
}

/// End-to-end smoke test against an in-process server (the CI gate; no
/// curl in the build environment).
fn self_test() -> Result<(), String> {
    use pragma::{LoopId, PragmaConfig};
    use serve::json;

    let io = |e: std::io::Error| format!("io: {e}");

    // 1. checkpoint round-trip must be bit-exact
    let opts = TrainOptions::quick().with_hidden(12);
    let model = HierarchicalModel::new(&opts);
    let func =
        std::sync::Arc::new(kernels::lower_kernel("mvt").map_err(|e| format!("lower mvt: {e}"))?);
    let mut cfg = PragmaConfig::default();
    cfg.set_pipeline(LoopId::from_path(&[0]), true);
    let direct = model.predict(&func, &cfg);
    let restored = serve::load_model(&serve::save_model(&model))
        .map_err(|e| format!("checkpoint round-trip: {e}"))?;
    if restored.predict(&func, &cfg) != direct {
        return Err("restored model diverges from the saved one".into());
    }
    println!("checkpoint round-trip: bit-exact");

    // 2. serve the model through the batching queue and drive the surface
    let registry = Arc::new(ModelRegistry::with_default(model, 64));
    let handle = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig {
            dispatch: DispatchMode::Batched(BatchOptions {
                max_batch: 4,
                max_wait: Duration::from_millis(10),
            }),
            ..ServerConfig::default()
        },
    )
    .map_err(io)?
    .spawn()
    .map_err(io)?;
    let addr = handle.addr();
    let result = (|| {
        let (status, body) = client_request(addr, "GET", "/v1/healthz", None).map_err(io)?;
        if status != 200 || !body.contains("\"ok\"") {
            return Err(format!("healthz: status {status}, body {body}"));
        }

        // the response qor must equal the library-path prediction bit-exactly
        let latency_of = |body: &str| -> Result<u64, String> {
            let doc = json::parse(body).map_err(|e| format!("response: {e}"))?;
            json::field(&doc, "qor")
                .and_then(|q| json::field(q, "latency"))
                .and_then(json::as_u64)
                .ok_or_else(|| format!("no qor.latency in {body}"))
        };
        let request = r#"{"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}}"#;
        let (status, first) =
            client_request(addr, "POST", "/v1/predict", Some(request)).map_err(io)?;
        if status != 200 {
            return Err(format!("predict: status {status}, body {first}"));
        }
        if latency_of(&first)? != direct.latency {
            return Err(format!(
                "server prediction diverges from the library path: {} vs {}",
                latency_of(&first)?,
                direct.latency
            ));
        }
        // a lone request is a timeout-flushed batch of one
        let doc = json::parse(&first).map_err(|e| format!("response: {e}"))?;
        let batch_size = json::field(&doc, "batch")
            .and_then(|b| json::field(b, "size"))
            .and_then(json::as_u64);
        if batch_size != Some(1) {
            return Err(format!("lone predict batch size: {first}"));
        }
        let (status, second) =
            client_request(addr, "POST", "/v1/predict", Some(request)).map_err(io)?;
        if status != 200 || latency_of(&second)? != direct.latency {
            return Err(format!("repeat predict: status {status}, body {second}"));
        }
        println!(
            "single predict: matches library path ({} cycles), served as a batch of 1",
            direct.latency
        );

        // a 4-item request fills max_batch and must flush on size, with
        // the duplicate pair single-flighted
        let batch = r#"{"requests":[
            {"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}},
            {"kernel":"bicg"},
            {"kernel":"mvt","config":{"loops":[{"loop":[0],"pipeline":true}]}},
            {"kernel":"gemm"}
        ]}"#;
        let (status, body) =
            client_request(addr, "POST", "/v1/predict", Some(batch)).map_err(io)?;
        if status != 200 || body.matches("\"qor\"").count() != 4 {
            return Err(format!("batch predict: status {status}, body {body}"));
        }
        if body.matches("\"deduped\":true").count() != 2 {
            return Err(format!("duplicate pair must be single-flighted: {body}"));
        }

        // both flush triggers must have fired by now
        let (status, vars) = client_request(addr, "GET", "/debug/vars", None).map_err(io)?;
        if status != 200 {
            return Err(format!("debug/vars: status {status}"));
        }
        let doc = json::parse(&vars).map_err(|e| format!("debug/vars: {e}"))?;
        let batcher = json::field(&doc, "batcher").ok_or("no batcher in /debug/vars")?;
        let stat = |key: &str| {
            json::field(batcher, key)
                .and_then(json::as_u64)
                .ok_or_else(|| format!("no batcher.{key} in {vars}"))
        };
        if stat("flush_timeout")? < 2 {
            return Err(format!("wait-deadline flushes not counted: {vars}"));
        }
        if stat("flush_full")? < 1 {
            return Err(format!("size-triggered flush not counted: {vars}"));
        }
        if stat("deduped")? < 1 {
            return Err(format!("single-flight dedup not counted: {vars}"));
        }
        println!(
            "batcher: {} flushes ({} on deadline, {} on size), {} deduped",
            stat("batches")?,
            stat("flush_timeout")?,
            stat("flush_full")?,
            stat("deduped")?
        );

        // 3. registry hot-reload cycle: save a second model, PUT it under
        // "default", verify the generation bump and the new bits
        let alt = HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(1));
        let alt_direct = alt.predict(&func, &cfg);
        let ckpt =
            std::env::temp_dir().join(format!("qor-selftest-{}.qorckpt", std::process::id()));
        serve::save_model_file(&ckpt, &alt).map_err(|e| format!("saving reload ckpt: {e}"))?;
        let put = format!("{{\"checkpoint\":{:?}}}", ckpt.display().to_string());
        let (status, body) =
            client_request(addr, "PUT", "/v1/models/default", Some(&put)).map_err(io)?;
        let _ = std::fs::remove_file(&ckpt);
        if status != 200 {
            return Err(format!("hot-reload PUT: status {status}, body {body}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("reload response: {e}"))?;
        let generation = json::field(&doc, "model")
            .and_then(|m| json::field(m, "generation"))
            .and_then(json::as_u64)
            .ok_or_else(|| format!("no generation in {body}"))?;
        if generation != 2 {
            return Err(format!("reload must serve generation 2, got {generation}"));
        }
        let (status, body) =
            client_request(addr, "POST", "/v1/predict", Some(request)).map_err(io)?;
        if status != 200 || latency_of(&body)? != alt_direct.latency {
            return Err(format!(
                "post-reload prediction must come from the new weights: {body}"
            ));
        }
        let (_, models) = client_request(addr, "GET", "/v1/models", None).map_err(io)?;
        if !models.contains("\"generation\":2") {
            return Err(format!("/v1/models must list generation 2: {models}"));
        }
        println!("hot-reload: generation 1 -> 2, new weights serving");

        let (status, metrics) = client_request(addr, "GET", "/v1/metrics", None).map_err(io)?;
        if status != 200 || !metrics.contains("qor_session_cache_hits_total") {
            return Err(format!("metrics: status {status}"));
        }
        // real Prometheus histogram exposition for request latency, plus
        // the new per-model and batching-queue series
        for needle in [
            "# TYPE qor_http_request_duration_us histogram",
            "qor_http_request_duration_us_bucket{route=\"predict\",status=\"2xx\",le=\"",
            "le=\"+Inf\"}",
            "qor_http_request_duration_us_count{route=\"predict\",status=\"2xx\"}",
            "qor_http_request_duration_us_quantile{route=\"predict\",status=\"2xx\",q=\"0.99\"}",
            "qor_http_responses_2xx_total",
            "qor_http_route_requests_total{route=\"predict\"}",
            "qor_model_generation{model=\"default\"} 2",
            "qor_model_predictions_total{model=\"default\",generation=\"2\"}",
            "qor_batch_flushes_total",
            "qor_batch_deduped_total",
        ] {
            if !metrics.contains(needle) {
                return Err(format!("metrics missing {needle:?}: {metrics}"));
            }
        }
        println!("metrics: histograms + per-model + batcher series exposed");

        // tracing: an inbound x-qor-trace header must be echoed and show
        // up in the flight recorder via /debug/requests
        let trace_hex = "00000000deadbeef";
        let (status, headers, _) = serve::http::client_request_with(
            addr,
            "POST",
            "/v1/predict",
            Some(request),
            &[("x-qor-trace", trace_hex)],
        )
        .map_err(io)?;
        if status != 200 {
            return Err(format!("traced predict: status {status}"));
        }
        if headers
            .iter()
            .find(|(n, _)| n == "x-qor-trace")
            .map(|(_, v)| v.as_str())
            != Some(trace_hex)
        {
            return Err(format!("x-qor-trace not echoed: {headers:?}"));
        }
        let (status, dump) = client_request(addr, "GET", "/debug/requests", None).map_err(io)?;
        if status != 200 {
            return Err(format!("debug/requests: status {status}"));
        }
        for needle in [
            &format!("\"trace\":\"{trace_hex}\"") as &str,
            "\"kind\":\"http\"",
            "\"label\":\"POST /v1/predict\"",
            "\"stages\":[",
            "\"cache_hits\":",
            "\"attrs\":{\"model\":\"default@2\"",
        ] {
            if !dump.contains(needle) {
                return Err(format!("debug/requests missing {needle:?}: {dump}"));
            }
        }
        println!("tracing: x-qor-trace echoed; /debug/requests + /debug/vars ok");

        // error envelope on every non-2xx
        let (status, body) =
            client_request(addr, "POST", "/v1/predict", Some("{not json")).map_err(io)?;
        if status != 400 || !body.contains("\"code\":\"bad_request\"") {
            return Err(format!(
                "bad body must 400 with envelope, got {status}: {body}"
            ));
        }
        let (status, body) = client_request(addr, "GET", "/nope", None).map_err(io)?;
        if status != 404 || !body.contains("\"code\":\"not_found\"") {
            return Err(format!("unknown route must 404 with envelope: {body}"));
        }

        // 4. dse job cycle: submit, poll to done, check metrics, delete
        let job = r#"{"kernel":"fir","strategy":"genetic","budget":6,"seed":5,"batch":3}"#;
        let (status, body) = client_request(addr, "POST", "/v1/dse", Some(job)).map_err(io)?;
        if status != 200 {
            return Err(format!("dse submit: status {status}, body {body}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("dse submit response: {e}"))?;
        let id = json::field(&doc, "id")
            .and_then(json::as_str)
            .ok_or_else(|| format!("no job id in {body}"))?
            .to_string();
        let path = format!("/v1/dse/{id}");
        let mut final_status = String::new();
        let mut spent = 0u64;
        for _ in 0..1500 {
            let (status, body) = client_request(addr, "GET", &path, None).map_err(io)?;
            if status != 200 {
                return Err(format!("dse poll: status {status}, body {body}"));
            }
            let doc = json::parse(&body).map_err(|e| format!("dse poll response: {e}"))?;
            final_status = json::field(&doc, "status")
                .and_then(json::as_str)
                .ok_or_else(|| format!("no status in {body}"))?
                .to_string();
            if final_status != "running" {
                spent = json::field(&doc, "spent")
                    .and_then(json::as_u64)
                    .ok_or_else(|| format!("no spent in {body}"))?;
                if !body.contains("\"front\"") || body.matches("\"fingerprint\"").count() == 0 {
                    return Err(format!("finished job published no front: {body}"));
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if final_status != "done" {
            return Err(format!("dse job ended as {final_status:?}, expected done"));
        }
        if spent == 0 || spent > 6 {
            return Err(format!("dse spent {spent} outside the budget of 6"));
        }
        let (status, metrics) = client_request(addr, "GET", "/v1/metrics", None).map_err(io)?;
        if status != 200
            || !metrics.contains("qor_dse_jobs_submitted_total 1")
            || !metrics.contains("qor_dse_jobs_completed_total 1")
            || !metrics.contains("qor_dse_evals_per_second")
        {
            return Err(format!("dse metrics missing: {metrics}"));
        }
        let (status, body) = client_request(addr, "DELETE", &path, None).map_err(io)?;
        if status != 200 || !body.contains("true") {
            return Err(format!("dse delete: status {status}, body {body}"));
        }
        let (status, _) = client_request(addr, "GET", &path, None).map_err(io)?;
        if status != 404 {
            return Err(format!("deleted job must 404, got {status}"));
        }
        println!("dse job cycle: submitted, ran to done ({spent}/6 evals), deleted");

        // every flight record adds up: its stages plus the unattributed
        // remainder are its wall time
        let (status, dump) = client_request(addr, "GET", "/debug/requests", None).map_err(io)?;
        let doc = json::parse(&dump).map_err(|e| format!("debug/requests: {e}"))?;
        let records = json::field(&doc, "requests")
            .and_then(json::as_array)
            .filter(|records| status == 200 && !records.is_empty())
            .ok_or_else(|| format!("debug/requests: status {status}: {dump}"))?;
        for rec in records {
            let us = |v: &obs::Json, key: &str| json::field(v, key).and_then(json::as_u64);
            let staged: Option<u64> = json::field(rec, "stages")
                .and_then(json::as_array)
                .and_then(|stages| stages.iter().map(|stage| us(stage, "us")).sum());
            let total = us(rec, "total_us");
            if total.is_none()
                || staged.zip(us(rec, "unattributed_us")).map(|(s, u)| s + u) != total
            {
                return Err(format!("flight record does not add up: {rec}"));
            }
        }
        println!("flight records: {} add up to their total_us", records.len());
        Ok(())
    })();
    let stats = handle.stats();
    handle.shutdown();
    result?;
    if stats.hits == 0 {
        return Err("server session recorded no cache hits".into());
    }
    println!(
        "cache: {} hits / {} misses over {} predictions",
        stats.hits,
        stats.misses,
        stats.hits + stats.misses
    );
    Ok(())
}
