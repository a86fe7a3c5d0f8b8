//! Differential test for the determinism contract: every parallelized stage
//! (dataset generation, DSE sweeps, GNN training) must produce byte-identical
//! results for any `QOR_THREADS` setting.
//!
//! This is deliberately ONE `#[test]` function: [`par::set_threads`] is a
//! process-wide override (precisely so this comparison is possible without
//! racy `env::set_var` calls), and the default test harness runs `#[test]`s
//! concurrently — splitting the stages into separate tests would let one
//! stage's override leak into another's timing window.

use gnn::{train_regression, EncoderConfig, RegressionModel, TrainConfig};
use hier_hls_qor::prelude::*;
use qor_core::{dataset, graph_aggregates, graph_to_gnn, DataOptions, AGG_DIM, FEATURE_DIM};
use tensor::ParamStore;

/// Runs `f` under an explicit worker-count override, restoring the default
/// (env / available parallelism) afterwards.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    par::set_threads(Some(n));
    let out = f();
    par::set_threads(None);
    out
}

#[test]
fn parallel_matches_sequential() {
    // ---- stage 1: dataset generation (parallel hlsim label evaluation) ----
    let data_opts = DataOptions {
        max_designs_per_kernel: 12,
        seed: 5,
    };
    let ks: Vec<_> = kernels::training_kernels().take(3).collect();
    let gen = |n| with_threads(n, || dataset::generate_for(&ks, &data_opts).unwrap());
    let seq = gen(1);
    let par4 = gen(4);
    for (split, a, b) in [
        ("train", &seq.train, &par4.train),
        ("val", &seq.val, &par4.val),
        ("test", &seq.test, &par4.test),
    ] {
        assert_eq!(a.len(), b.len(), "{split} split size");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.kernel, y.kernel, "{split} kernel order");
            assert_eq!(x.config, y.config, "{split} config order");
            assert_eq!(x.report, y.report, "{split} labels");
        }
    }

    // ---- stage 2: DSE (parallel oracle + predictor sweeps) ----
    let func = kernels::lower_kernel("mvt").unwrap();
    let configs = kernels::design_space(&func).enumerate_capped(48);
    // post-HLS estimates stand in for a trained predictor: cheap, pure, and
    // imperfect enough that the Pareto front is non-trivial
    let sweep = |n| {
        with_threads(n, || {
            dse::explore(
                "mvt",
                &func,
                &configs,
                |f, c| hlsim::evaluate(f, c).unwrap().pre_route,
                0.0,
            )
            .unwrap()
        })
    };
    let o1 = sweep(1);
    let o4 = sweep(4);
    assert_eq!(o1.n_configs, o4.n_configs);
    assert_eq!(o1.pareto.indices(), o4.pareto.indices(), "Pareto front");
    assert_eq!(
        o1.adrs.value().to_bits(),
        o4.adrs.value().to_bits(),
        "ADRS must be bit-identical"
    );
    assert_eq!(
        o1.vivado_secs.to_bits(),
        o4.vivado_secs.to_bits(),
        "accounted oracle time must be bit-identical"
    );
    assert_eq!(o1.points.len(), o4.points.len());
    for (p, q) in o1.points.iter().zip(o4.points.iter()) {
        assert_eq!(p.predicted, q.predicted, "predicted QoR order");
        assert_eq!(p.true_qor, q.true_qor, "oracle QoR order");
    }

    // ---- stage 3: flat GNN training (parallel micro-batch backward) ----
    let samples: Vec<(gnn::GraphData, Vec<f32>)> = seq
        .train
        .iter()
        .map(|s| {
            let f = seq.function_of(s).unwrap();
            let graph = GraphBuilder::new(f, &s.config).build();
            let mut g = graph_to_gnn(&graph);
            g.g_feats = graph_aggregates(&graph);
            let y = vec![(s.report.top.latency as f32 + 1.0).ln()];
            (g, y)
        })
        .collect();
    let run = |n| {
        with_threads(n, || {
            let mut store = ParamStore::new();
            let model = RegressionModel::new(
                &mut store,
                &EncoderConfig::new(ConvKind::Sage, FEATURE_DIM, 16),
                AGG_DIM,
                1,
                7,
            );
            let cfg = TrainConfig {
                epochs: 4,
                batch_size: 16,
                ..TrainConfig::default()
            };
            let mut rng = tensor::init::seeded_rng(7);
            train_regression("flat", &mut store, &model, &samples, &cfg, &mut rng);
            let graphs: Vec<&gnn::GraphData> = samples.iter().map(|(g, _)| g).collect();
            let weights: Vec<u32> = store
                .entries()
                .flat_map(|(_, w)| w.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            let preds: Vec<u32> = model
                .predict(&store, &graphs)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (weights, preds)
        })
    };
    let (w1, p1) = run(1);
    let (w4, p4) = run(4);
    assert_eq!(w1, w4, "trained weights diverged");
    assert_eq!(p1, p4, "predictions diverged");

    // ---- stage 4: the full hierarchy (inner + global heads end to end) ----
    let opts = TrainOptions::quick().with_epochs(4).with_hidden(12);
    let fit = |n| {
        with_threads(n, || {
            HierarchicalModel::train_with_designs(&opts, &seq)
                .unwrap()
                .1
        })
    };
    let s1 = fit(1);
    let s4 = fit(4);
    assert!(s1.global.latency_mape.is_finite());
    assert_eq!(s1, s4, "hierarchical TrainStats must not vary with threads");
}
