//! The traced run: every layer timed from outside, on the workload's own
//! inputs, plus the closed-loop HTTP client loop the serving figures share.
//!
//! A ladder round calls each crate's public entry points in turn on a
//! fixed list of designs, each call inside a span: parse and lower every
//! source, enumerate every bundled space, then per design `hlsim`, the
//! hierarchy split, the whole-design CDFG, `prepare`, the GNN forward and
//! a `Session` predict; then the DSE scorer over the round, and training
//! steps (forward, backward, Adam) over mini-batches of the designs'
//! inner-loop graphs. Rounds alternate untraced and traced, so the run
//! prints what tracing itself costs. A serving phase follows: the same
//! server and clients as `serve_mixed`, with `/v1/metrics` batch counters
//! read before and after.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdfg::{GraphBuilder, GraphOptions};
use gnn::{Batch, EncoderConfig, GraphData, RegressionModel};
use hir::Function;
use pragma::PragmaConfig;
use qor_core::{HierarchicalModel, Session};
use serve::{json, Server};
use tensor::{AdamConfig, Matrix, ParamStore, Tape};

use crate::encode::{self, Target};
use crate::reference;
use crate::serve_mixed::{self, Mix, CLIENTS};
use crate::setup;
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};

/// Designs per ladder round.
pub const ITEMS: usize = 96;

/// Share of `--seconds` spent on ladder rounds; the rest serves.
const LADDER_SHARE: f64 = 0.6;

/// A design pool entry: something to predict and its configurations.
pub struct PoolEntry {
    /// How requests name it.
    pub target: Target,
    /// Its source text.
    pub source: String,
    /// Lowered by the benchmark.
    pub func: Arc<Function>,
    /// Its configurations.
    pub configs: Vec<PragmaConfig>,
}

/// Designs a workload draws from.
#[derive(Default)]
pub struct Pool {
    /// The entries.
    pub entries: Vec<PoolEntry>,
}

/// `(entry, configuration)` index pair.
pub type Key = (usize, usize);

/// One `/v1/predict` request.
pub struct Request {
    /// Its body.
    pub body: String,
    /// The designs it asks for, in order.
    pub keys: Vec<Key>,
    /// Sent as a `"requests"` array.
    pub batched: bool,
}

impl Pool {
    /// Encodes a request for `keys`.
    pub fn request(&self, keys: Vec<Key>, batched: bool) -> Request {
        let items: Vec<String> = keys
            .iter()
            .map(|&(e, c)| encode::item_json(&self.entries[e].target, &self.entries[e].configs[c]))
            .collect();
        let body = if batched {
            encode::batch_json(&items)
        } else {
            items
                .into_iter()
                .next()
                .expect("a single request has one item")
        };
        Request {
            body,
            keys,
            batched,
        }
    }
}

/// One request and its reply.
pub struct Exchange {
    /// The designs asked for.
    pub keys: Vec<Key>,
    /// Sent as a `"requests"` array.
    pub batched: bool,
    /// The request body.
    pub body: String,
    /// HTTP status (0 when the connection failed).
    pub status: u16,
    /// Reply body, or the connection error.
    pub reply: String,
    /// Round trip in µs, connect to last byte.
    pub rtt_us: f64,
    /// When the reply completed, seconds after the first send.
    pub end_s: f64,
}

/// One closed-loop run of the serving clients.
pub struct Driven {
    /// The exchanges, in client order.
    pub exchanges: Vec<Exchange>,
    /// Wall time from the first send to the last reply, in seconds.
    pub wall_s: f64,
    /// Host steal ticks (see [`setup::steal_ticks`]) at each whole second
    /// after the first send, starting at 0 s.
    pub steal: Vec<u64>,
}

/// Closed loop: `clients` threads each send their generator's next request
/// only after the previous reply arrived, until `duration` has passed,
/// while one more thread samples the host's steal time every second.
pub fn drive<G: FnMut() -> Request>(
    tracer: &Tracer,
    addr: SocketAddr,
    clients: usize,
    duration: Duration,
    make: &(impl Fn(usize) -> G + Sync),
) -> Driven {
    let start = Instant::now();
    let done_sending = AtomicBool::new(false);
    let (per_client, steal) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut steal = vec![setup::steal_ticks()];
            while !done_sending.load(Ordering::SeqCst) {
                let next = Duration::from_secs(steal.len() as u64);
                match next.checked_sub(start.elapsed()) {
                    Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(10))),
                    None => steal.push(setup::steal_ticks()),
                }
            }
            steal
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut next = make(c);
                    let mut done = Vec::new();
                    let mut last_end = Duration::ZERO;
                    while start.elapsed() < duration {
                        let req = next();
                        let id = (c * 1_000_000 + done.len()) as u64;
                        let (result, rtt_us) = tracer.span("serve.request", None, id, |_| {
                            setup::http(addr, "POST", "/v1/predict", &req.body)
                        });
                        last_end = start.elapsed();
                        let (status, reply) = result.unwrap_or_else(|e| (0, e.to_string()));
                        done.push(Exchange {
                            keys: req.keys,
                            batched: req.batched,
                            body: req.body,
                            status,
                            reply,
                            rtt_us,
                            end_s: last_end.as_secs_f64(),
                        });
                    }
                    (done, last_end)
                })
            })
            .collect();
        let per_client: Vec<(Vec<Exchange>, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done_sending.store(true, Ordering::SeqCst);
        (per_client, sampler.join().expect("steal sampler panicked"))
    });
    let wall = per_client.iter().map(|(_, d)| *d).max().unwrap_or_default();
    Driven {
        exchanges: per_client.into_iter().flat_map(|(x, _)| x).collect(),
        wall_s: wall.as_secs_f64(),
        steal,
    }
}

/// What a traced run works on.
pub struct Input {
    /// The model checkpoint.
    pub ckpt: Vec<u8>,
    /// Designs to draw from.
    pub pool: Pool,
    /// The ladder's designs, in order.
    pub items: Vec<Key>,
    /// `Some((bundled kernels in the pool, seed))`: serve the
    /// `serve_mixed` mix; `None`: serve the items as single requests.
    pub mix: Option<(usize, u64)>,
}

impl Input {
    /// Serves `items` one per request.
    pub fn single_items(ckpt: Vec<u8>, pool: Pool, items: Vec<Key>) -> Input {
        Input {
            ckpt,
            pool,
            items,
            mix: None,
        }
    }
}

/// One inner loop's training graph and log-space targets.
struct Sample {
    graph: GraphData,
    y: [f32; 5],
}

/// Inner-loop training graphs of the items, built the way the model's
/// training builds them.
fn training_samples(input: &Input) -> Result<Vec<Sample>, String> {
    let opts = setup::train_options();
    let graph_opts = GraphOptions {
        max_nodes: opts.graph_max_nodes,
    };
    let log1p = |v: u64| (v as f64 + 1.0).ln() as f32;
    let mut out = Vec::new();
    for &(e, c) in &input.items {
        let (func, cfg) = (
            &input.pool.entries[e].func,
            &input.pool.entries[e].configs[c],
        );
        let report = hlsim::evaluate(func, cfg).map_err(|e| format!("hlsim: {e}"))?;
        for inner in qor_core::split_hierarchy(func, cfg).inner {
            let Some(lq) = report.loops.get(&inner.id) else {
                continue;
            };
            let graph = GraphBuilder::new(func, cfg)
                .options(graph_opts)
                .subgraph(inner.id.clone())
                .build();
            let mut data = qor_core::graph_to_gnn(&graph);
            data.g_feats = qor_core::loop_level_features(func, cfg, &inner.id, inner.pipelined);
            data.g_feats.extend(qor_core::graph_aggregates(&graph));
            out.push(Sample {
                graph: data,
                y: [
                    log1p(lq.il),
                    log1p(lq.qor.latency),
                    log1p(lq.qor.lut),
                    log1p(lq.qor.ff),
                    log1p(lq.qor.dsp),
                ],
            });
        }
    }
    Ok(out)
}

/// Runs one ladder round; returns the round's session cache statistics
/// and each design's whole-design CDFG nodes and inner loops.
fn round(
    tracer: &Tracer,
    input: &Input,
    model: &HierarchicalModel,
    samples: &[Sample],
    round: usize,
    out: &mut Outcome,
) -> Result<(qor_core::CacheStats, Vec<(f64, f64)>), String> {
    let session = Session::new(setup::load(&input.ckpt)?);
    let base = (round * ITEMS) as u64;
    let opts = setup::train_options();

    let mut used: Vec<usize> = input.items.iter().map(|k| k.0).collect();
    used.sort_unstable();
    used.dedup();
    for &e in &used {
        let entry = &input.pool.entries[e];
        let (program, _) = tracer.span("frontc.parse", None, base + e as u64, |_| {
            frontc::parse(&entry.source)
        });
        let program = program.map_err(|err| format!("parse: {err}"))?;
        let (module, _) = tracer.span("hir.lower", None, base + e as u64, |_| hir::lower(&program));
        module.map_err(|err| format!("lower: {err}"))?;
        if matches!(entry.target, Target::Kernel(_)) {
            let (n, _) = tracer.span("pragma.enumerate", None, base + e as u64, |_| {
                kernels::design_space(&entry.func).enumerate().len()
            });
            out.check(n > 0, || format!("{e}: an empty design space"));
        }
    }

    let graph_opts = GraphOptions {
        max_nodes: opts.graph_max_nodes,
    };
    let mut counts = Vec::with_capacity(input.items.len());
    // per pool entry: true and predicted objectives, for the DSE scorer
    let mut truth_of: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let mut pred_of: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (j, &(e, c)) in input.items.iter().enumerate() {
        let entry = &input.pool.entries[e];
        let (func, cfg) = (&entry.func, &entry.configs[c]);
        let id = base + j as u64;
        out.attempted += 1;
        let (result, _) = tracer.span("design", None, id, |p| {
            let (report, _) = tracer.span("hlsim.evaluate", p, id, |_| hlsim::evaluate(func, cfg));
            tracer.span("core.hierarchy", p, id, |_| {
                qor_core::split_hierarchy(func, cfg)
            });
            let (nodes, _) = tracer.span("cdfg.build", p, id, |_| {
                GraphBuilder::new(func, cfg)
                    .options(graph_opts)
                    .build()
                    .num_nodes()
            });
            let (prepared, _) = tracer.span("core.prepare", p, id, |_| {
                model.prepare(Arc::clone(func), cfg.clone())
            });
            let (forward, _) =
                tracer.span("core.forward", p, id, |_| model.predict_prepared(&prepared));
            let (served, _) = tracer.span("core.session_predict", p, id, |_| match &entry.target {
                Target::Kernel(name) => session.predict_kernel(name, cfg),
                Target::Source { top, text } => session.predict_source(top, text, cfg),
            });
            (report, nodes, prepared.num_inner(), forward, served)
        });
        let (report, nodes, inner, forward, served) = result;
        let truth = match report {
            Ok(r) => r.top,
            Err(err) => {
                out.failed += 1;
                out.check(false, || format!("hlsim: {err}"));
                continue;
            }
        };
        match served {
            Ok(q) => out.check(q == forward, || {
                format!("design {j}: session {q:?} != prepared forward {forward:?}")
            }),
            Err(err) => {
                out.failed += 1;
                out.check(false, || format!("session predict: {err}"));
            }
        }
        counts.push((nodes as f64, inner as f64));
        truth_of
            .entry(e)
            .or_default()
            .push(reference::objective(&truth));
        pred_of
            .entry(e)
            .or_default()
            .push(reference::objective(&forward));
    }

    tracer.span("dse.score", None, base, |_| {
        for (truth, pred) in truth_of.values().zip(pred_of.values()) {
            let front = dse::ParetoFront::from_points(pred);
            let approx: Vec<(f64, f64)> = front.indices().iter().map(|&i| truth[i]).collect();
            std::hint::black_box(dse::Adrs::compute(truth, &approx));
        }
    });

    // training steps at the model's conv, hidden width and batch size
    let mut store = ParamStore::new();
    let enc = EncoderConfig::new(opts.conv, qor_core::FEATURE_DIM, opts.hidden);
    let g_dim = qor_core::LOOP_FEATURE_DIM + qor_core::AGG_DIM;
    let net = RegressionModel::new(&mut store, &enc, g_dim, 5, opts.seed);
    let adam = AdamConfig::with_lr(opts.lr);
    for (b, chunk) in samples.chunks(opts.batch_size.max(1)).enumerate() {
        let id = base + b as u64;
        let (loss, _) = tracer.span("train.step", None, id, |p| {
            let mut t = Tape::new();
            let (loss, _) = tracer.span("gnn.train_forward", p, id, |_| {
                let graphs: Vec<&GraphData> = chunk.iter().map(|s| &s.graph).collect();
                let batch = Batch::from_graphs(&graphs, true);
                let pred = net.forward(&store, &mut t, &batch);
                let ys: Vec<f32> = chunk.iter().flat_map(|s| s.y).collect();
                let target = t.leaf(Matrix::from_vec(chunk.len(), 5, ys));
                t.mse(pred, target)
            });
            tracer.span("tensor.backward", p, id, |_| t.backward(loss));
            tracer.span("tensor.adam_step", p, id, |_| store.adam_step(&t, &adam));
            t.value(loss).item()
        });
        out.check(loss.is_finite(), || {
            format!("training step {b}: loss {loss}")
        });
    }
    Ok((session.stats(), counts))
}

/// Batch counters from `/v1/metrics`: flushes, timeout flushes, items,
/// deduplicated items.
fn batch_counters(addr: SocketAddr) -> Result<[f64; 4], String> {
    let (status, text) =
        setup::http(addr, "GET", "/v1/metrics", "").map_err(|e| format!("metrics: {e}"))?;
    if status != 200 {
        return Err(format!("metrics: status {status}"));
    }
    let get = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or(format!("metrics: no {name}"))
    };
    Ok([
        get("qor_batch_flushes_total")?,
        get("qor_batch_flush_timeout_total")?,
        get("qor_batch_items_total")?,
        get("qor_batch_deduped_total")?,
    ])
}

/// The traced run: ladder rounds for most of `--seconds`, then the serving
/// phase, reporting every per-layer metric.
pub fn run(args: &Args, input: Input) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let model = setup::load(&input.ckpt)?;
    let samples = training_samples(&input)?;
    let traced = Tracer::new(true);
    let untraced = Tracer::new(false);
    let budget = args.seconds * LADDER_SHARE;

    let start = Instant::now();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut stats = qor_core::CacheStats::default();
    let mut counts = Vec::new();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < budget {
        let on = rounds % 2 == 1;
        let t = Instant::now();
        (stats, counts) = round(
            if on { &traced } else { &untraced },
            &input,
            &model,
            &samples,
            rounds,
            &mut out,
        )?;
        walls[usize::from(on)].push(t.elapsed().as_secs_f64());
        rounds += 1;
    }

    // serving phase
    let server = Server::bind("127.0.0.1:0", Session::new(setup::load(&input.ckpt)?))
        .and_then(Server::spawn)
        .map_err(|e| format!("server: {e}"))?;
    let addr = server.addr();
    let before = batch_counters(addr)?;
    let remaining = (args.seconds - start.elapsed().as_secs_f64()).max(1.0);
    let exchanges = match input.mix {
        Some((n_kernels, seed)) => {
            let make = |c: usize| {
                let mut mix = Mix::new(&input.pool, n_kernels, seed, c);
                move || mix.next_request()
            };
            drive(
                &traced,
                addr,
                CLIENTS,
                Duration::from_secs_f64(remaining),
                &make,
            )
        }
        None => {
            let (pool, items) = (&input.pool, &input.items);
            let make = |c: usize| {
                let mut i = c;
                move || {
                    let key = items[i % items.len()];
                    i += CLIENTS;
                    pool.request(vec![key], false)
                }
            };
            drive(
                &traced,
                addr,
                CLIENTS,
                Duration::from_secs_f64(remaining),
                &make,
            )
        }
    }
    .exchanges;
    let after = batch_counters(addr)?;
    server.shutdown();
    serve_mixed::check_replies(&mut out, &input.pool, &exchanges, &model);

    // decode cost of the bodies the server parsed
    let mut parse_us = Vec::with_capacity(exchanges.len());
    for (i, x) in exchanges.iter().enumerate() {
        let (doc, us) = traced.span("serve.json_parse", None, i as u64, |_| json::parse(&x.body));
        out.check(doc.is_ok(), || {
            "a request body the benchmark sent does not parse".into()
        });
        parse_us.push(us);
    }
    // per single-item request: its round trip minus an in-process predict
    // of the same item, on a session that has seen the same items before it
    let probe = Session::new(setup::load(&input.ckpt)?);
    let mut overhead_us = Vec::new();
    for x in exchanges.iter().filter(|x| !x.batched && x.status == 200) {
        let (e, c) = x.keys[0];
        let entry = &input.pool.entries[e];
        let (_, us) = traced.span("serve.inprocess_predict", None, 0, |_| {
            match &entry.target {
                Target::Kernel(name) => probe.predict_kernel(name, &entry.configs[c]),
                Target::Source { top, text } => probe.predict_source(top, text, &entry.configs[c]),
            }
        });
        overhead_us.push(x.rtt_us - us);
    }

    let spans = traced.spans();
    let breakdown = trace::breakdown(&spans);
    out.check(breakdown.is_ok(), || {
        format!("span tree: {:?}", breakdown.as_ref().err())
    });
    let breakdown = breakdown.unwrap_or_default();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = traced.write_jsonl(&path) {
        out.info(format!("could not write spans to {}: {e}", path.display()));
    }

    let self_median = |name: &str, scale: f64| {
        breakdown.self_ns.get(name).map_or(f64::NAN, |v| {
            reference::median(&v.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / scale
        })
    };
    let unattributed = |name: &str| {
        breakdown.unattributed_ns.get(name).map_or(f64::NAN, |v| {
            reference::median(&v.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / 1e3
        })
    };
    for (metric, layer) in [
        ("frontc.parse_us", "frontc.parse"),
        ("hir.lower_us", "hir.lower"),
    ] {
        out.metric(metric, self_median(layer, 1e3), "us");
    }
    out.metric(
        "pragma.enumerate_ms",
        self_median("pragma.enumerate", 1e6),
        "ms",
    );
    for (metric, layer) in [
        ("hlsim.evaluate_us", "hlsim.evaluate"),
        ("core.hierarchy_us", "core.hierarchy"),
        ("cdfg.build_us", "cdfg.build"),
        ("core.prepare_us", "core.prepare"),
        ("core.forward_us", "core.forward"),
        ("core.session_predict_us", "core.session_predict"),
    ] {
        out.metric(metric, self_median(layer, 1e3), "us");
    }
    let mean =
        |f: fn(&(f64, f64)) -> f64| counts.iter().map(f).sum::<f64>() / counts.len().max(1) as f64;
    let (nodes, inner) = (mean(|c| c.0), mean(|c| c.1));
    out.metric("cdfg.nodes_per_design", nodes, "count");
    out.metric("core.inner_per_design", inner, "count");
    out.metric(
        "core.cache_hits",
        (stats.hits + stats.kernel_hits) as f64,
        "count",
    );
    out.metric(
        "core.cache_misses",
        (stats.misses + stats.kernel_misses) as f64,
        "count",
    );
    out.metric("incr.hits", stats.incr_hits as f64, "count");
    out.metric("incr.misses", stats.incr_misses as f64, "count");
    out.metric("incr.recomputes", stats.incr_recomputes as f64, "count");
    out.metric("design.unattributed_us", unattributed("design"), "us");
    for (metric, layer) in [
        ("gnn.train_forward_us", "gnn.train_forward"),
        ("tensor.backward_us", "tensor.backward"),
        ("tensor.adam_step_us", "tensor.adam_step"),
    ] {
        out.metric(metric, self_median(layer, 1e3), "us");
    }
    out.metric(
        "train.step.unattributed_us",
        unattributed("train.step"),
        "us",
    );
    out.metric("dse.score_ms", self_median("dse.score", 1e6), "ms");
    out.metric("serve.json_parse_us", reference::median(&parse_us), "us");
    out.metric(
        "serve.overhead_us",
        if overhead_us.is_empty() {
            f64::NAN
        } else {
            reference::median(&overhead_us)
        },
        "us",
    );
    let [flushes, timeouts, items, deduped] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    out.metric("serve.items_per_flush", items / flushes.max(1.0), "count");
    out.metric(
        "serve.timeout_flush_share",
        timeouts / flushes.max(1.0),
        "ratio",
    );
    out.metric("serve.dedup_share", deduped / items.max(1.0), "ratio");

    let (off, on) = (reference::median(&walls[0]), reference::median(&walls[1]));
    out.info(format!(
        "tracing overhead: traced round {:.1} ms vs untraced {:.1} ms ({:+.2}%), {rounds} rounds of {} designs and {} training graphs",
        on * 1e3,
        off * 1e3,
        100.0 * (on - off) / off,
        input.items.len(),
        samples.len()
    ));
    out.info(format!(
        "serving phase: {} requests, {} spans written to {}",
        exchanges.len(),
        spans.len(),
        path.display()
    ));
    for (name, v) in &breakdown.self_ns {
        let total: u64 = v.iter().sum();
        out.info(format!(
            "self time {name}: {} calls, total {:.3} ms, median {:.1} us",
            v.len(),
            total as f64 / 1e6,
            self_median(name, 1e3)
        ));
    }
    for (name, v) in &breakdown.unattributed_ns {
        out.info(format!(
            "unattributed under {name}: total {:.3} ms over {} spans",
            v.iter().sum::<u64>() as f64 / 1e6,
            v.len()
        ));
    }
    out.info(format!("threads {}", par::threads()));
    Ok(out)
}
