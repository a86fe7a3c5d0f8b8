//! Randomized pragma-neighbor walks on every bundled kernel: the
//! incremental query engine and from-scratch preparation must be
//! byte-identical on the exact candidate stream a DSE strategy emits.
//!
//! The walks use the same [`SpaceModel`] move set as the search engine
//! (pipeline flips forcing full unrolls below, unroll/partition steps,
//! flatten toggles), so cross-loop couplings the pragma space introduces
//! are exercised, not just independent single-pragma edits. `ci.sh` runs
//! this at `QOR_THREADS=1` and `QOR_THREADS=4`.

use std::sync::Arc;

use qor_core::{fnv1a, HierarchicalModel, Session, TrainOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use search::SpaceModel;

#[test]
fn random_walks_byte_identical_on_all_kernels() {
    let opts = TrainOptions::quick().with_hidden(10).with_seed(9);
    // every candidate goes through its kernel's query database
    let session =
        Session::with_capacity(HierarchicalModel::new(&opts), qor_core::DEFAULT_CACHE_CAP);
    let mut walked = 0;
    for k in kernels::all() {
        let func = kernels::lower_kernel(k.name).expect("bundled kernel lowers");
        let space = kernels::design_space(&func);
        let model = match SpaceModel::new(space) {
            Ok(m) => m,
            Err(_) => continue, // no loops to sweep
        };
        let mut rng = StdRng::seed_from_u64(fnv1a(k.name.as_bytes()) ^ 0xD1FF);
        let mut center = model.random_genome(&mut rng);
        let arc = Arc::new(func);
        for step in 0..8 {
            let cand = model.neighbor(&center, &mut rng);
            let cfg = model.decode(&cand);
            let (prepared, _) = session.prepare_kernel(k.name, &cfg).expect(k.name);
            let cold = session.model().prepare(arc.clone(), cfg.clone());
            assert_eq!(
                prepared.digest(),
                cold.digest(),
                "{} diverged at step {step}, cfg {:016x}",
                k.name,
                cfg.fingerprint()
            );
            center = cand;
        }
        walked += 1;
    }
    assert!(
        walked >= 10,
        "expected most bundled kernels to have a space"
    );
}
