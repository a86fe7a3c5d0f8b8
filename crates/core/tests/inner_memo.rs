//! Differential and isolation tests for the per-region output slots.
//!
//! A [`Session`] keeps each inner region's `GNN_p`/`GNN_np` outputs on the
//! memoized prepared region, tagged with the session's token. The slots
//! must be invisible except for speed: every session prediction equals the
//! uncached `HierarchicalModel::predict`, also when several sessions with
//! different weights share one cache and so one set of regions.
//!
//! `ci.sh` runs this suite at `QOR_THREADS=1` and `QOR_THREADS=4`; the
//! sweeps fan out through `par`, so at four workers threads race for the
//! same regions' slots.

use std::sync::Arc;

use hir::Function;
use hlsim::Qor;
use pragma::PragmaConfig;
use qor_core::{HierarchicalModel, Session, SharedCache, TrainOptions};

fn model(seed: u64) -> HierarchicalModel {
    HierarchicalModel::new(&TrainOptions::quick().with_hidden(10).with_seed(seed))
}

fn space(name: &str) -> (Function, Vec<PragmaConfig>) {
    let func = kernels::lower_kernel(name).unwrap();
    let configs = kernels::design_space(&func).enumerate();
    (func, configs)
}

/// The session's predictions of `configs`, in order.
fn sweep(session: &Session, name: &str, configs: &[PragmaConfig]) -> Vec<Qor> {
    par::map("test/inner_memo", configs, |_, cfg| {
        session.predict_kernel(name, cfg).unwrap()
    })
}

/// One session over the full bicg, symm and syrk spaces (1,110 designs):
/// each prediction equals the uncached one, and regions shared between
/// designs are answered from their slots.
#[test]
fn session_sweep_matches_uncached_predict() {
    let session = Session::with_capacity(model(7), qor_core::DEFAULT_CACHE_CAP);
    let mut designs = 0;
    for name in ["bicg", "symm", "syrk"] {
        let (func, configs) = space(name);
        let got = sweep(&session, name, &configs);
        for (i, (cfg, got)) in configs.iter().zip(&got).enumerate() {
            let want = session.model().predict(&func, cfg);
            assert_eq!(*got, want, "{name} design {i}");
        }
        designs += configs.len();
    }
    assert_eq!(designs, 1110);
    let stats = session.stats();
    assert!(stats.inner_hits > 0, "{stats:?}");
    assert!(stats.inner_misses > 0, "{stats:?}");
    assert!(
        stats.inner_hits > stats.inner_misses,
        "most regions recur across designs: {stats:?}"
    );
}

/// A second sweep of the same space runs no inner forward at all.
#[test]
fn repeated_sweep_is_answered_by_the_slots() {
    let session = Session::with_capacity(model(7), qor_core::DEFAULT_CACHE_CAP);
    let (_, configs) = space("syrk");
    let first = sweep(&session, "syrk", &configs);
    let misses = session.stats().inner_misses;
    assert_eq!(sweep(&session, "syrk", &configs), first);
    assert_eq!(session.stats().inner_misses, misses);
}

/// Two models with different weights, each in its own session over one
/// cache, take turns on the same kernel's designs: per design `a, a, b,
/// b`. Each session's first query finds every region's slot filled by the
/// other session and must run its own forward; its second is answered by
/// the slots. Both must predict exactly their own model's uncached result.
#[test]
fn sessions_sharing_a_cache_never_read_each_others_outputs() {
    let cache = Arc::new(SharedCache::with_capacity(qor_core::DEFAULT_CACHE_CAP));
    let a = Session::with_shared(model(7), cache.clone());
    let b = Session::with_shared(model(99), cache.clone());
    let (func, configs) = space("bicg");
    let mut differ = 0;
    for (i, cfg) in configs.iter().take(120).enumerate() {
        let want_a = a.model().predict(&func, cfg);
        let want_b = b.model().predict(&func, cfg);
        for (tag, s, want) in [("a", &a, want_a), ("b", &b, want_b)] {
            for _ in 0..2 {
                assert_eq!(s.predict_kernel("bicg", cfg).unwrap(), want, "{tag} #{i}");
            }
        }
        differ += usize::from(want_a != want_b);
    }
    assert!(differ > 0, "the two models must predict differently");
    let stats = cache.stats();
    assert_eq!(
        stats.kernel_misses, 1,
        "one database served both: {stats:?}"
    );
    assert!(stats.inner_hits > 0, "{stats:?}");
    assert_eq!(stats.inner_hits, stats.inner_misses, "{stats:?}");
}
