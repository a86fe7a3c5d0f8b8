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
//! Every test takes `SERIAL`: one of them reads the process-wide
//! `cdfg/graphs_built` counter, which the others move.

use std::collections::BTreeMap;
use std::sync::Mutex;

use cdfg::{GraphBuilder, GraphOptions, SuperFeatures};
use gnn::GraphData;
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

/// Checks skeleton + patch against the full condensed build for every
/// configuration; returns how many designs it compared.
fn compare(max_nodes: usize, cases: &[(String, Function, Vec<PragmaConfig>)]) -> usize {
    let model = model(max_nodes);
    let mut compared = 0;
    for (name, func, configs) in cases {
        let mismatches = par::map("test/condensed_skeleton", configs, |i, cfg| {
            let supers = supers(func, cfg, i as u64);
            let got = model.condensed_graph(func, cfg, &supers);
            let graph = GraphBuilder::new(func, cfg)
                .options(GraphOptions { max_nodes })
                .condense(supers)
                .build();
            let mut want = graph_to_gnn(&graph);
            want.g_feats = graph_aggregates(&graph);
            (bits(&got) != bits(&want)).then_some(i)
        });
        let bad: Vec<usize> = mismatches.into_iter().flatten().collect();
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
    let cases = cases();
    let held_out: usize = cases
        .iter()
        .filter(|c| HELD_OUT.contains(&c.0.as_str()))
        .map(|c| c.2.len())
        .sum();
    assert_eq!(held_out, 4135);
    let quick = TrainOptions::quick().graph_max_nodes;
    let compared = compare(quick, &cases);
    assert!(compared > held_out + 12 * SAMPLE_PER_KERNEL, "{compared}");
}

#[test]
fn skeleton_patch_equals_the_condensed_build_under_a_folding_budget() {
    let _serial = serial();
    compare(SMALL_BUDGET, &cases());
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
