//! Differential tests for the condensed-graph skeleton.
//!
//! A prediction no longer builds the condensed whole-design CDFG: it
//! writes the super-node rows and the aggregates into a skeleton built
//! once per condensed structure. These tests prove that path equal, bit
//! for bit, to condensing with `GraphBuilder` and annotating with
//! `graph_to_gnn` + `graph_aggregates`, over every design of the four
//! held-out spaces, a seeded sample of the twelve training kernels and a
//! synthetic corpus, at the quick node budget and at one small enough
//! that the builder folds unroll replicas. They also pin how often a
//! `Session` builds skeletons and that a repeated prediction builds no
//! CDFG at all.
//!
//! Every prediction runs `GNN_g` over one row per colour-refinement class
//! of that graph's nodes; training runs it over every node. On the same
//! designs the tests prove the two forwards' raw outputs
//! `f32::to_bits`-equal for all five conv families (seeded), and on the
//! held-out spaces for one trained quick model too, and pin how far the
//! quotient shrinks the held-out graphs through the `gnn_g/{nodes,rows}`
//! counters.
//!
//! Every test takes `SERIAL`: some read process-wide counters, which the
//! others move.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cdfg::{GraphBuilder, GraphOptions, SuperFeatures};
use gnn::{ConvKind, GraphData};
use hir::Function;
use pragma::{LoopId, PragmaConfig};
use qor_core::{graph_aggregates, graph_to_gnn, split_hierarchy, HierarchicalModel, TrainOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const HELD_OUT: [&str; 4] = ["bicg", "symm", "mvt", "syrk"];

/// Designs sampled from each training kernel's space.
const SAMPLE_PER_KERNEL: usize = 24;

/// Synthetic programs, each at a few configurations.
const SYNTHETIC: usize = 200;

/// A node budget small enough that unrolled nests fold replicas.
const SMALL_BUDGET: usize = 24;

fn model(max_nodes: usize) -> HierarchicalModel {
    let mut opts = TrainOptions::quick().with_hidden(4);
    opts.graph_max_nodes = max_nodes;
    HierarchicalModel::new(&opts)
}

/// One untrained quick model per conv family, seeded.
fn families(max_nodes: usize) -> Vec<HierarchicalModel> {
    ConvKind::all()
        .into_iter()
        .map(|conv| {
            let mut opts = TrainOptions::quick().with_conv(conv).with_seed(31);
            opts.graph_max_nodes = max_nodes;
            HierarchicalModel::new(&opts)
        })
        .collect()
}

/// Seeded, non-default super features for every inner region of `cfg`.
fn supers(func: &Function, cfg: &PragmaConfig, seed: u64) -> BTreeMap<LoopId, SuperFeatures> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = || rng.gen_range(0.0..5000.0f64);
    split_hierarchy(func, cfg)
        .inner
        .into_iter()
        .map(|r| {
            let f = SuperFeatures {
                latency: v(),
                il: v(),
                ii: v(),
                tc: v(),
                lut: v(),
                ff: v(),
                dsp: v(),
            };
            (r.id, f)
        })
        .collect()
}

fn bits(data: &GraphData) -> (Vec<u32>, &[u32], &[u32], Vec<u32>) {
    (
        data.x.as_slice().iter().map(|v| v.to_bits()).collect(),
        &data.src,
        &data.dst,
        data.g_feats.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Whether `model`'s `GNN_g` forward over the quotient of the design
/// `cfg` equals, bit for bit, its forward over `graph`, the design's whole
/// condensed graph.
fn quotient_matches(
    model: &HierarchicalModel,
    func: &Function,
    cfg: &PragmaConfig,
    supers: &BTreeMap<LoopId, SuperFeatures>,
    graph: GraphData,
) -> bool {
    let got = model.global_outputs(func, cfg, supers);
    let want = model.global_outputs_of(graph);
    got.map(f32::to_bits) == want.map(f32::to_bits)
}

/// Checks skeleton + patch against the full condensed build for every
/// configuration, and every family's quotient forward against its
/// forward over that graph; returns how many designs it compared.
fn compare(max_nodes: usize, cases: &[(String, Function, Vec<PragmaConfig>)]) -> usize {
    let model = model(max_nodes);
    let families = families(max_nodes);
    let mut compared = 0;
    for (name, func, configs) in cases {
        let mismatches = par::map("test/condensed_skeleton", configs, |i, cfg| {
            let supers = supers(func, cfg, i as u64);
            let got = model.condensed_graph(func, cfg, &supers);
            let graph = GraphBuilder::new(func, cfg)
                .options(GraphOptions { max_nodes })
                .condense(supers.clone())
                .build();
            let mut want = graph_to_gnn(&graph);
            want.g_feats = graph_aggregates(&graph);
            if bits(&got) != bits(&want) {
                return Some(format!("{i} (graph)"));
            }
            let family = families
                .iter()
                .find(|m| !quotient_matches(m, func, cfg, &supers, got.clone()))?;
            Some(format!("{i} ({} quotient)", family.options().conv))
        });
        let bad: Vec<String> = mismatches.into_iter().flatten().collect();
        assert!(
            bad.is_empty(),
            "{name} at budget {max_nodes}: designs {bad:?}"
        );
        compared += configs.len();
    }
    compared
}

/// The four held-out spaces in full, a seeded sample of the training
/// kernels, and the synthetic corpus at its first few configurations.
fn cases() -> Vec<(String, Function, Vec<PragmaConfig>)> {
    let mut rng = StdRng::seed_from_u64(20);
    let mut out = Vec::new();
    for k in kernels::all() {
        let func = kernels::lower_kernel(k.name).unwrap();
        let mut configs = kernels::design_space(&func).enumerate();
        if !HELD_OUT.contains(&k.name) {
            configs.shuffle(&mut rng);
            configs.truncate(SAMPLE_PER_KERNEL);
        }
        out.push((k.name.to_string(), func, configs));
    }
    for (name, source) in kernels::synthetic_corpus(SYNTHETIC, 7_000) {
        let module = hir::lower(&frontc::parse(&source).unwrap()).unwrap();
        let func = module.function(&name).unwrap().clone();
        let configs = kernels::design_space(&func).enumerate_capped(3);
        out.push((name, func, configs));
    }
    out
}

#[test]
fn skeleton_patch_equals_the_condensed_build() {
    let _serial = serial();
    obs::metrics::enable_always();
    let counter = |name| obs::metrics::counter_value(name);
    let (held, rest): (Vec<_>, Vec<_>) = cases()
        .into_iter()
        .partition(|c| HELD_OUT.contains(&c.0.as_str()));
    let held_out: usize = held.iter().map(|c| c.2.len()).sum();
    assert_eq!(held_out, 4135);
    let quick = TrainOptions::quick().graph_max_nodes;
    let (nodes, rows) = (counter("gnn_g/nodes"), counter("gnn_g/rows"));
    let mut compared = compare(quick, &held);
    // per family, the quotient keeps 205,823 of the 538,238 held-out
    // node rows
    let nodes = counter("gnn_g/nodes") - nodes;
    let rows = counter("gnn_g/rows") - rows;
    assert_eq!((nodes, rows), (5 * 538_238, 5 * 205_823));
    compared += compare(quick, &rest);
    assert!(compared > held_out + 12 * SAMPLE_PER_KERNEL, "{compared}");
}

#[test]
fn skeleton_patch_equals_the_condensed_build_under_a_folding_budget() {
    let _serial = serial();
    compare(SMALL_BUDGET, &cases());
}

/// A trained model's quotient forward, under its own predicted super
/// features, equals its forward over the whole condensed graph on every
/// held-out design.
#[test]
fn trained_quotient_forward_equals_the_full_forward() {
    let _serial = serial();
    let opts = TrainOptions::quick().with_epochs(2).with_max_designs(8);
    let (model, _) = HierarchicalModel::train_on_kernels(&opts).unwrap();
    let mut compared = 0;
    for name in HELD_OUT {
        let func = kernels::lower_kernel(name).unwrap();
        let configs = kernels::design_space(&func).enumerate();
        let mismatches = par::map("test/quotient_trained", &configs, |i, cfg| {
            let supers = model.predict_supers(&func, cfg);
            let graph = model.condensed_graph(&func, cfg, &supers);
            (!quotient_matches(&model, &func, cfg, &supers, graph)).then_some(i)
        });
        let bad: Vec<usize> = mismatches.into_iter().flatten().collect();
        assert!(bad.is_empty(), "{name}: designs {bad:?}");
        compared += configs.len();
    }
    assert_eq!(compared, 4135);
}

/// A session sweep of bicg builds one skeleton per distinct condensed
/// structure (30 of 550 designs), and every prediction equals the
/// uncached one.
#[test]
fn session_sweep_builds_each_skeleton_once() {
    let _serial = serial();
    let session = qor_core::Session::with_capacity(model(320), qor_core::DEFAULT_CACHE_CAP);
    let func = kernels::lower_kernel("bicg").unwrap();
    let configs = kernels::design_space(&func).enumerate();
    assert_eq!(configs.len(), 550);
    let got = par::map("test/condensed_sweep", &configs, |_, cfg| {
        session.predict_kernel("bicg", cfg).unwrap()
    });
    for (i, (cfg, got)) in configs.iter().zip(&got).enumerate() {
        assert_eq!(*got, session.model().predict(&func, cfg), "design {i}");
    }
    assert_eq!(session.stats().skeleton_builds, 30, "{:?}", session.stats());
    // a second sweep builds nothing
    for cfg in &configs {
        session.predict_kernel("bicg", cfg).unwrap();
    }
    assert_eq!(session.stats().skeleton_builds, 30);
}

/// A prepared-cache hit builds no CDFG: neither the inner subgraphs nor
/// the condensed graph.
#[test]
fn repeated_prediction_builds_no_cdfg() {
    let _serial = serial();
    obs::metrics::enable_always();
    let session = qor_core::Session::with_capacity(model(320), 8);
    let func = kernels::lower_kernel("mvt").unwrap();
    let configs = kernels::design_space(&func).enumerate_capped(6);
    let built = || obs::metrics::counter_value("cdfg/graphs_built");
    for (i, cfg) in configs.iter().enumerate() {
        let before = built();
        let first = session.predict_kernel_report("mvt", cfg).unwrap();
        if i == 0 {
            assert!(built() > before, "a cold prediction builds graphs");
        }
        let before = built();
        let again = session.predict_kernel_report("mvt", cfg).unwrap();
        assert_eq!(built(), before, "a repeat builds no graph");
        assert!(again.prepared_cache_hit, "{again:?}");
        assert_eq!(again.qor, first.qor);
    }
}
