//! `qor` — command-line interface to the full prediction stack.
//!
//! ```text
//! qor parse    <file.c>                       front-end + HIR summary
//! qor graph    <file.c> [--dot out.dot]       pragma-aware CDFG (uses in-source pragmas)
//! qor estimate <file.c>                       oracle QoR (simulated tool flow)
//! qor sweep    <file.c|kernel>                exhaustive Pareto sweep
//! qor train    --out <m.qorckpt> [--paper]    train the hierarchical model, save it
//! qor predict  <file.c> --model <m.qorckpt>   source-to-post-route prediction
//! ```
//!
//! Files are HLS-C; bare names resolve against the bundled kernel suite.

use std::process::ExitCode;

use qor_core::{HierarchicalModel, TrainOptions};

fn main() -> ExitCode {
    let _obs = obs::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("parse") => cmd_parse(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        _ => {
            eprintln!("usage: qor <parse|graph|estimate|sweep|train|predict> ...");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Loads a function from a file path or a bundled kernel name.
fn load_function(spec: &str) -> Result<hir::Function, Box<dyn std::error::Error>> {
    if let Some(src) = kernels::kernel_source(spec) {
        let module = hir::lower(&frontc::parse(src)?)?;
        return Ok(module
            .function(spec)
            .expect("bundled kernel defines its function")
            .clone());
    }
    let src = std::fs::read_to_string(spec)
        .map_err(|e| format!("cannot read {spec:?} (and no bundled kernel has that name): {e}"))?;
    let program = frontc::parse(&src)?;
    let module = hir::lower(&program)?;
    module
        .functions
        .into_iter()
        .next()
        .ok_or_else(|| "no functions in input".into())
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn positional(args: &[String]) -> Option<&str> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = !matches!(a.as_str(), "--paper" | "--quick");
            continue;
        }
        return Some(a);
    }
    None
}

fn cmd_parse(args: &[String]) -> CliResult {
    let spec = positional(args).ok_or("usage: qor parse <file.c|kernel>")?;
    let func = load_function(spec)?;
    println!("{func}");
    println!("arrays:");
    for a in &func.arrays {
        println!("  {} : {:?} {:?}", a.name, a.elem, a.dims);
    }
    let cfg = &func.source_pragmas;
    if !cfg.is_trivial() {
        println!("in-source pragmas:");
        for (id, p) in cfg.loops() {
            println!(
                "  {id}: pipeline={} unroll={:?} flatten={}",
                p.pipeline, p.unroll, p.flatten
            );
        }
    }
    Ok(())
}

fn cmd_graph(args: &[String]) -> CliResult {
    let spec = positional(args).ok_or("usage: qor graph <file.c|kernel> [--dot out.dot]")?;
    let func = load_function(spec)?;
    let cfg = func.source_pragmas.clone();
    let graph = cdfg::GraphBuilder::new(&func, &cfg).build();
    println!(
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for n in &graph.nodes {
        *counts.entry(n.mnemonic).or_insert(0) += 1;
    }
    for (m, c) in counts {
        println!("  {m:<8} x{c}");
    }
    if let Some(path) = value_of(args, "--dot") {
        std::fs::write(path, graph.to_dot(&func.name))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_estimate(args: &[String]) -> CliResult {
    let spec = positional(args).ok_or("usage: qor estimate <file.c|kernel>")?;
    let func = load_function(spec)?;
    let cfg = func.source_pragmas.clone();
    let report = hlsim::evaluate(&func, &cfg)?;
    println!("oracle QoR for {} (with in-source pragmas):", func.name);
    println!("  latency : {:>10} cycles", report.top.latency);
    println!("  LUT     : {:>10}", report.top.lut);
    println!("  FF      : {:>10}", report.top.ff);
    println!("  DSP     : {:>10}", report.top.dsp);
    println!(
        "  est. tool flow time: {:.1} min",
        hlsim::tool_runtime_secs(&report.top) / 60.0
    );
    obs::report::record_table(
        "estimate",
        &["kernel", "latency_cycles", "lut", "ff", "dsp"],
        vec![vec![
            obs::Json::str(func.name.clone()),
            obs::Json::UInt(report.top.latency),
            obs::Json::UInt(report.top.lut),
            obs::Json::UInt(report.top.ff),
            obs::Json::UInt(report.top.dsp),
        ]],
    );
    for (id, lq) in &report.loops {
        println!(
            "  loop {id}: IL={} II={} TC={} {}",
            lq.il,
            lq.ii,
            lq.trip_count,
            if lq.pipelined { "(pipelined)" } else { "" }
        );
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CliResult {
    let spec = positional(args).ok_or("usage: qor sweep <file.c|kernel>")?;
    let func = load_function(spec)?;
    let space = kernels::design_space(&func);
    let configs = space.enumerate();
    println!("{}: {} configurations", func.name, configs.len());
    let mut pts = Vec::new();
    for cfg in &configs {
        let q = hlsim::evaluate(&func, cfg)?.top;
        pts.push((q.latency as f64, dse::area(&q)));
    }
    let front = dse::ParetoFront::from_points(&pts);
    let mut rows: Vec<(u64, f64)> = front.points().iter().map(|&(l, a)| (l as u64, a)).collect();
    rows.sort_by_key(|r| r.0);
    println!("Pareto frontier ({} designs):", rows.len());
    obs::report::record_table(
        "sweep_pareto",
        &["latency_cycles", "area"],
        rows.iter()
            .map(|&(lat, area)| vec![obs::Json::UInt(lat), obs::Json::Float(area)])
            .collect(),
    );
    for (lat, area) in rows {
        println!("  {lat:>10} cycles   area {area:.4}");
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let out = value_of(args, "--out").ok_or("usage: qor train --out <m.qorckpt> [--paper]")?;
    let opts = if args.iter().any(|a| a == "--paper") {
        TrainOptions::paper()
    } else {
        TrainOptions::quick()
    };
    obs::tracef!(
        1,
        "training hierarchical model on the bundled kernel suite..."
    );
    let (model, stats) = HierarchicalModel::train_on_kernels(&opts)?;
    println!(
        "test MAPE: GNN_p lat {:.2}% | GNN_np lat {:.2}% | GNN_g lat {:.2}% LUT {:.2}% FF {:.2}% DSP {:.2}%",
        stats.pipelined.latency_mape,
        stats.non_pipelined.latency_mape,
        stats.global.latency_mape,
        stats.global.lut_mape,
        stats.global.ff_mape,
        stats.global.dsp_mape,
    );
    serve::save_model_file(out, &model)?;
    println!("model saved to {out}");
    Ok(())
}

fn cmd_predict(args: &[String]) -> CliResult {
    let spec = positional(args).ok_or("usage: qor predict <file.c|kernel> --model <m.qorckpt>")?;
    let path = value_of(args, "--model").ok_or("missing --model <m.qorckpt>")?;
    let func = load_function(spec)?;
    let model = serve::load_model_file(path)?;
    let cfg = func.source_pragmas.clone();
    let q = model.predict(&func, &cfg);
    println!(
        "predicted post-route QoR for {} (no tool flow run):",
        func.name
    );
    println!("  latency : {:>10} cycles", q.latency);
    println!("  LUT     : {:>10}", q.lut);
    println!("  FF      : {:>10}", q.ff);
    println!("  DSP     : {:>10}", q.dsp);
    // reference, since we have the oracle handy
    let truth = hlsim::evaluate(&func, &cfg)?.top;
    println!(
        "oracle (for reference): {} cycles, {} LUT, {} FF, {} DSP",
        truth.latency, truth.lut, truth.ff, truth.dsp
    );
    obs::report::record_table(
        "predict",
        &["source", "latency_cycles", "lut", "ff", "dsp"],
        vec![
            vec![
                obs::Json::str("predicted"),
                obs::Json::UInt(q.latency),
                obs::Json::UInt(q.lut),
                obs::Json::UInt(q.ff),
                obs::Json::UInt(q.dsp),
            ],
            vec![
                obs::Json::str("oracle"),
                obs::Json::UInt(truth.latency),
                obs::Json::UInt(truth.lut),
                obs::Json::UInt(truth.ff),
                obs::Json::UInt(truth.dsp),
            ],
        ],
    );
    Ok(())
}
