//! Differential and invalidation-precision tests for the incremental
//! query engine.
//!
//! The engine's contract is to be invisible except for speed: for any
//! sequence of configurations, a [`Session`] routing prepares through the
//! per-model `QueryDb` must produce prepared designs byte-identical
//! (same [`PreparedDesign::digest`]) to `HierarchicalModel::prepare`
//! called from scratch. The invalidation tests pin the *precision* side:
//! editing one loop's pragma may recompute only that loop's region, and
//! returning to a previously seen configuration must be answered from the
//! version cache without re-executing any expensive query.
//!
//! `ci.sh` runs this suite at `QOR_THREADS=1` and `QOR_THREADS=4`; the
//! digests compared here must not depend on the worker count.
//!
//! [`PreparedDesign::digest`]: qor_core::PreparedDesign::digest

use std::collections::BTreeMap;
use std::sync::Arc;

use incr::KindStats;
use pragma::{PragmaConfig, Unroll};
use qor_core::{HierarchicalModel, InnerCategory, Session, TrainOptions};

fn model() -> HierarchicalModel {
    HierarchicalModel::new(&TrainOptions::quick().with_hidden(10).with_seed(7))
}

/// A session retaining every bundled kernel, so each kernel's query
/// database stays warm across the test.
fn incr_session(model: HierarchicalModel) -> Session {
    Session::with_capacity(model, qor_core::DEFAULT_CACHE_CAP)
}

fn kind_stats(s: &Session) -> BTreeMap<&'static str, KindStats> {
    s.shared_cache().incr_kind_stats().into_iter().collect()
}

fn delta(
    before: &BTreeMap<&'static str, KindStats>,
    after: &BTreeMap<&'static str, KindStats>,
    kind: &str,
) -> KindStats {
    let b = before.get(kind).copied().unwrap_or_default();
    let a = after.get(kind).copied().unwrap_or_default();
    KindStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        recomputes: a.recomputes - b.recomputes,
        validated: a.validated - b.validated,
        reused: a.reused - b.reused,
    }
}

/// Every bundled kernel, over its enumerated design space: incremental
/// and from-scratch prepares are byte-identical. One session serves all
/// kernels, so this also exercises kernel-hash separation inside one
/// database.
#[test]
fn enumerated_configs_byte_identical_across_all_kernels() {
    let session = incr_session(model());
    for k in kernels::all() {
        let func = kernels::lower_kernel(k.name).expect("bundled kernel lowers");
        let space = kernels::design_space(&func);
        let arc = Arc::new(func);
        for cfg in space.enumerate_capped(6) {
            let (prepared, report) = session.prepare_kernel(k.name, &cfg).expect(k.name);
            let cold = session.model().prepare(arc.clone(), cfg.clone());
            assert_eq!(
                prepared.digest(),
                cold.digest(),
                "{} diverged at cfg {:016x}",
                k.name,
                cfg.fingerprint()
            );
            assert!(!report.prepared_cache_hit, "a new config executes queries");
        }
    }
}

/// Picks a kernel whose trivial-config hierarchy has at least two inner
/// regions, one of them single-level (so a factor-2 unroll cannot move
/// loops between hierarchy levels).
fn multi_region_kernel() -> (&'static str, pragma::LoopId, usize) {
    for k in kernels::all() {
        let func = kernels::lower_kernel(k.name).unwrap();
        let h = qor_core::split_hierarchy(&func, &PragmaConfig::new());
        if h.inner.len() < 2 {
            continue;
        }
        if let Some(region) = h
            .inner
            .iter()
            .find(|r| r.category == InnerCategory::SingleLevel)
        {
            return (k.name, region.id.clone(), h.inner.len());
        }
    }
    panic!("no bundled kernel offers two regions with a single-level one");
}

/// Invalidation precision: editing one loop's unroll factor re-executes
/// exactly that loop's expensive region query; every other region
/// revalidates green.
#[test]
fn single_region_edit_recomputes_only_that_region() {
    let session = incr_session(model());
    let (name, region_id, regions) = multi_region_kernel();

    let base = PragmaConfig::new();
    session.prepare_kernel(name, &base).unwrap();
    let before = kind_stats(&session);

    let mut edited = base.clone();
    edited.set_unroll(region_id, Unroll::Factor(2));
    let (_, report) = session.prepare_kernel(name, &edited).unwrap();
    let after = kind_stats(&session);

    let lp = delta(&before, &after, "loop_prepared");
    assert_eq!(lp.recomputes, 1, "exactly the edited region re-executes");
    assert_eq!(lp.misses, 0, "no new region keys appear");
    assert_eq!(
        lp.hits,
        regions as u64 - 1,
        "all {} other regions stay green",
        regions - 1
    );
    // only the edited region's restricted config changed
    let rc = delta(&before, &after, "region_cfg");
    assert_eq!(rc.recomputes, 1);
    // and the per-request attribution in the report agrees with the
    // database-wide counters
    assert_eq!(report.incr.recomputes, {
        let all = ["hierarchy", "loop_role", "region_cfg", "loop_prepared"];
        all.iter()
            .map(|k| delta(&before, &after, k).recomputes)
            .sum()
    });
}

/// Returning to a previously seen configuration (A → B → A) is answered
/// from the version cache: no expensive query re-executes.
#[test]
fn version_cache_answers_reverted_edits_without_recompute() {
    let session = incr_session(model());
    let (name, region_id, _) = multi_region_kernel();

    let base = PragmaConfig::new();
    let mut edited = base.clone();
    edited.set_unroll(region_id, Unroll::Factor(2));

    let (a1, _) = session.prepare_kernel(name, &base).unwrap();
    session.prepare_kernel(name, &edited).unwrap();
    let before = kind_stats(&session);
    let (a2, report) = session.prepare_kernel(name, &base).unwrap();
    let after = kind_stats(&session);

    assert_eq!(a1.digest(), a2.digest());
    let lp = delta(&before, &after, "loop_prepared");
    assert_eq!(lp.recomputes, 0, "revert must not rebuild any region");
    assert_eq!(lp.misses, 0);
    assert!(
        lp.reused >= 1,
        "the reverted region comes from the version cache"
    );
    assert_eq!(report.incr.recomputes, 0);
}
