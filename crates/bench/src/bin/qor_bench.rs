//! `qor-bench` — open-loop load generator for the `/v1/predict` serving
//! path, comparing **per-request dispatch** (`--no-batch` baseline) against
//! the **cross-request batching queue** on the same workload.
//!
//! The workload is a duplicate-heavy thundering herd: every round, all
//! `--clients` connections fire simultaneously (a `Barrier` releases the
//! burst regardless of what the server is doing — open-loop within the
//! round), and each request carries `--dup` copies of that round's
//! *previously unseen* pragma configuration. Per-request dispatch pays the
//! full lower→prepare→infer pipeline for every copy on every connection;
//! the batching queue coalesces the burst and single-flights the
//! duplicates, so one computation serves the whole round.
//!
//! Each mode runs against a fresh server with a cold cache and identical
//! model weights, so the predicted QoR stream must be **bit-identical**
//! between modes (the run fails otherwise) — the speedup is measured on
//! provably equal work.
//!
//! Results are printed as a p50/p90/p99 + throughput table and appended to
//! the `BENCH_serve.json` trajectory (`qor_bench::trajectory`). With
//! `--smoke`, counts shrink and every timing-dependent field is nulled so
//! runs against a fresh `--out` are byte-identical at any `QOR_THREADS` —
//! the CI determinism gate.
//!
//! Usage: `cargo run --release -p qor-bench --bin qor-bench --
//!         [--rounds N] [--clients N] [--dup N] [--kernel NAME]
//!         [--batch-wait-us N] [--smoke] [--out FILE]`
//!
//! The `incr_sweep` subcommand instead measures the incremental query
//! engine on pragma-neighbor sweeps (see [`qor_bench::incr_sweep`]):
//! `qor-bench incr_sweep [--steps N] [--breadth N] [--kernels N]
//! [--smoke] [--out FILE]`, appending to `BENCH_incr.json`.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use obs::Json;
use qor_bench::{row, trajectory};
use qor_core::{fnv1a, HierarchicalModel, TrainOptions};
use serve::http::client_request;
use serve::{json, BatchOptions, DispatchMode, ModelRegistry, Server, ServerConfig};

struct Args {
    rounds: usize,
    clients: usize,
    dup: usize,
    kernel: String,
    batch_wait_us: u64,
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut args = Args {
        rounds: 20,
        clients: 8,
        dup: cores.max(8),
        kernel: "mvt".to_string(),
        batch_wait_us: 1000,
        smoke: false,
        out: "BENCH_serve.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let uint = |argv: &[String], i: usize, default: usize| {
            argv.get(i)
                .and_then(|v| v.parse().ok())
                .filter(|&v: &usize| v >= 1)
                .unwrap_or(default)
        };
        match argv[i].as_str() {
            "--rounds" => {
                i += 1;
                args.rounds = uint(&argv, i, args.rounds);
            }
            "--clients" => {
                i += 1;
                args.clients = uint(&argv, i, args.clients);
            }
            "--dup" => {
                i += 1;
                args.dup = uint(&argv, i, args.dup);
            }
            "--kernel" => {
                i += 1;
                args.kernel = argv.get(i).cloned().unwrap_or_else(|| "mvt".to_string());
            }
            "--batch-wait-us" => {
                i += 1;
                args.batch_wait_us = uint(&argv, i, args.batch_wait_us as usize) as u64;
            }
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| "BENCH_serve.json".to_string());
            }
            other => eprintln!("ignoring unknown flag {other:?}"),
        }
        i += 1;
    }
    if args.smoke {
        // smoke is the determinism gate: small and machine-independent
        args.rounds = args.rounds.min(4);
        args.clients = args.clients.min(3);
        args.dup = 4;
    }
    args
}

/// One previously-unseen configuration per round, so every burst starts
/// cold: distinct unroll factors walk a fresh region of the pragma space.
fn round_config(round: usize) -> String {
    let factor = 2 + round as u64;
    if round.is_multiple_of(2) {
        format!(r#"{{"loops":[{{"loop":[0],"unroll":{factor}}}]}}"#)
    } else {
        format!(r#"{{"loops":[{{"loop":[0],"pipeline":true,"unroll":{factor}}}]}}"#)
    }
}

fn request_body(kernel: &str, round: usize, dup: usize) -> String {
    let item = format!(
        r#"{{"kernel":"{kernel}","config":{}}}"#,
        round_config(round)
    );
    let items: Vec<String> = (0..dup).map(|_| item.clone()).collect();
    format!(r#"{{"requests":[{}]}}"#, items.join(","))
}

/// Sends one multi-item request; returns `(latency_us, per-item qor lines
/// in item order)`.
fn send_one(
    addr: std::net::SocketAddr,
    body: &str,
    dup: usize,
) -> Result<(u64, Vec<String>), String> {
    let t0 = Instant::now();
    let (status, response) =
        client_request(addr, "POST", "/v1/predict", Some(body)).map_err(|e| format!("io: {e}"))?;
    let us = t0.elapsed().as_micros() as u64;
    if status != 200 {
        return Err(format!("status {status}: {response}"));
    }
    let doc = json::parse(&response).map_err(|e| format!("response: {e}"))?;
    let results = json::field(&doc, "results")
        .and_then(json::as_array)
        .ok_or_else(|| format!("no results in {response}"))?;
    if results.len() != dup {
        return Err(format!(
            "{} results for {dup} items: {response}",
            results.len()
        ));
    }
    let mut lines = Vec::with_capacity(dup);
    for item in results {
        let q = json::field(item, "qor").ok_or_else(|| format!("item without qor: {response}"))?;
        let get = |k: &str| {
            json::field(q, k)
                .and_then(json::as_u64)
                .ok_or_else(|| format!("no qor.{k} in {response}"))
        };
        lines.push(format!(
            "{},{},{},{}",
            get("latency")?,
            get("lut")?,
            get("ff")?,
            get("dsp")?
        ));
    }
    Ok((us, lines))
}

struct ModeResult {
    latencies_us: Vec<u64>,
    wall: Duration,
    workload_fnv: u64,
}

/// Runs the full burst workload against a fresh server using `dispatch`.
fn run_mode(args: &Args, dispatch: DispatchMode) -> Result<ModeResult, String> {
    // identical weights per mode; a fresh registry means a cold cache
    let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(12).with_seed(4));
    let registry = Arc::new(ModelRegistry::with_default(model, 256));
    let handle = Server::bind_with(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            dispatch,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?
    .spawn()
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();
    let bodies: Vec<String> = (0..args.rounds)
        .map(|r| request_body(&args.kernel, r, args.dup))
        .collect();

    let barrier = Barrier::new(args.clients);
    let wall = Instant::now();
    // (round, client, latency, qor lines) from every request
    type Sample = (usize, usize, u64, Vec<String>);
    let shares: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let bodies = &bodies;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(bodies.len());
                    for (r, body) in bodies.iter().enumerate() {
                        // open the loop: the whole herd fires at once
                        barrier.wait();
                        let (us, lines) = send_one(addr, body, args.dup)
                            .map_err(|e| format!("client {c} round {r}: {e}"))?;
                        out.push((r, c, us, lines));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = wall.elapsed();
    handle.shutdown();

    let mut samples: Vec<Sample> = Vec::with_capacity(args.clients * args.rounds);
    for share in shares {
        samples.extend(share?);
    }
    // checksum in (round, client, item) order — independent of timing
    samples.sort_by_key(|&(r, c, _, _)| (r, c));
    let stream: Vec<String> = samples
        .iter()
        .flat_map(|(_, _, _, lines)| lines.iter().cloned())
        .collect();
    let workload_fnv = fnv1a(stream.join("\n").as_bytes());
    let mut latencies_us: Vec<u64> = samples.iter().map(|&(_, _, us, _)| us).collect();
    latencies_us.sort_unstable();
    Ok(ModeResult {
        latencies_us,
        wall,
        workload_fnv,
    })
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _obs = obs::init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("incr_sweep") {
        let code = qor_bench::incr_sweep::run(&argv[1..])?;
        std::process::exit(code);
    }
    let args = parse_args();
    let requests = args.rounds * args.clients;
    let predictions = requests * args.dup;
    println!(
        "qor-bench: {} rounds x {} clients x {} duplicate items (= {} predictions), kernel {}",
        args.rounds, args.clients, args.dup, predictions, args.kernel
    );

    let direct = run_mode(&args, DispatchMode::Direct)?;
    let batched = run_mode(
        &args,
        DispatchMode::Batched(BatchOptions {
            max_batch: (args.clients * args.dup).max(2),
            max_wait: Duration::from_micros(args.batch_wait_us),
        }),
    )?;

    // equal work or the comparison is meaningless
    if direct.workload_fnv != batched.workload_fnv {
        return Err(format!(
            "dispatch modes diverged: direct fnv {:016x}, batched fnv {:016x}",
            direct.workload_fnv, batched.workload_fnv
        )
        .into());
    }
    println!(
        "modes agree bit-exactly (workload checksum {:016x})\n",
        direct.workload_fnv
    );

    let rps = |m: &ModeResult| predictions as f64 / m.wall.as_secs_f64();
    let widths = [8usize, 8, 10, 10, 10, 12];
    println!(
        "{}",
        row(
            &[
                "Mode".into(),
                "Count".into(),
                "p50 (us)".into(),
                "p90 (us)".into(),
                "p99 (us)".into(),
                "pred/s".into(),
            ],
            &widths
        )
    );
    let mode_row = |name: &str, m: &ModeResult| {
        row(
            &[
                name.into(),
                requests.to_string(),
                percentile(&m.latencies_us, 0.50).to_string(),
                percentile(&m.latencies_us, 0.90).to_string(),
                percentile(&m.latencies_us, 0.99).to_string(),
                format!("{:.0}", rps(m)),
            ],
            &widths,
        )
    };
    println!("{}", mode_row("direct", &direct));
    println!("{}", mode_row("batched", &batched));
    let speedup = rps(&batched) / rps(&direct);
    let p99_ratio = percentile(&batched.latencies_us, 0.99) as f64
        / percentile(&direct.latencies_us, 0.99).max(1) as f64;
    println!("\nbatched/direct throughput: {speedup:.2}x (p99 ratio {p99_ratio:.2})");

    let mode_json = |m: &ModeResult| {
        Json::obj(vec![
            ("p50_us", Json::UInt(percentile(&m.latencies_us, 0.50))),
            ("p90_us", Json::UInt(percentile(&m.latencies_us, 0.90))),
            ("p99_us", Json::UInt(percentile(&m.latencies_us, 0.99))),
            (
                "wall_ms",
                Json::Float((m.wall.as_secs_f64() * 1e6).round() / 1e3),
            ),
            ("predictions_per_s", Json::Float(rps(m).round())),
        ])
    };
    // timing-dependent fields are nulled in smoke so the file is
    // byte-identical across repeated runs at any QOR_THREADS
    let measured = if args.smoke {
        Json::Null
    } else {
        Json::obj(vec![
            ("direct", mode_json(&direct)),
            ("batched", mode_json(&batched)),
            ("speedup", Json::Float((speedup * 100.0).round() / 100.0)),
        ])
    };
    let entry = Json::obj(vec![
        ("bench", Json::str("qor_bench")),
        ("kernel", Json::str(&args.kernel)),
        ("rounds", Json::UInt(args.rounds as u64)),
        ("clients", Json::UInt(args.clients as u64)),
        ("dup", Json::UInt(args.dup as u64)),
        ("requests", Json::UInt(requests as u64)),
        ("predictions", Json::UInt(predictions as u64)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "workload_fnv",
            Json::Str(format!("{:016x}", direct.workload_fnv)),
        ),
        ("measured", measured),
    ]);
    let total = trajectory::append(
        std::path::Path::new(&args.out),
        trajectory::SERVE_SCHEMA,
        &entry,
    )?;
    println!("appended to {} ({total} entries)", args.out);
    Ok(())
}
