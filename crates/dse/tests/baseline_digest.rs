//! Golden digests of the flat baselines' training and inference.
//!
//! Each digest covers the raw `f32` bits of one tiny trained baseline's
//! weights and its predictions for the first designs of the four held-out
//! spaces. The constants were computed with the baselines' original
//! training loop; any change to shuffling, micro-batching, the loss, the
//! learning-rate schedule or the Adam step must leave them bit-identical.
//!
//! `ci.sh` runs this suite at `QOR_THREADS=1` and `QOR_THREADS=4`; the
//! digests must not depend on the worker count either.

use std::hash::Hasher;

use dse::{BaselineOptions, FlatGnnBaseline};
use qor_core::{DataOptions, Fnv1aHasher, LabeledDesigns};

/// Held-out kernels whose designs are predicted, as in Table V.
const HELD_OUT: [&str; 4] = ["bicg", "symm", "mvt", "syrk"];

/// Designs predicted per held-out kernel, from the start of its space.
const DESIGNS_PER_KERNEL: usize = 8;

fn options() -> BaselineOptions {
    BaselineOptions {
        hidden: 8,
        epochs: 3,
        batch_size: 12,
        ..BaselineOptions::default()
    }
}

fn digest(mut baseline: FlatGnnBaseline, designs: &LabeledDesigns) -> u64 {
    baseline.train(designs).unwrap();
    let mut h = Fnv1aHasher::new();
    for (name, value) in baseline.params().entries() {
        h.write(name.as_bytes());
        for v in value.as_slice() {
            h.write_u32(v.to_bits());
        }
    }
    for name in HELD_OUT {
        let func = kernels::lower_kernel(name).unwrap();
        for cfg in kernels::design_space(&func)
            .enumerate()
            .iter()
            .take(DESIGNS_PER_KERNEL)
        {
            let qor = baseline.predict(&func, cfg);
            for v in [qor.latency, qor.lut, qor.ff, qor.dsp] {
                h.write_u64(v);
            }
        }
    }
    h.finish()
}

#[test]
fn every_baseline_trains_and_predicts_bit_identically() {
    let ks: Vec<_> = kernels::training_kernels().take(4).collect();
    let designs = qor_core::dataset::generate_for(
        &ks,
        &DataOptions {
            max_designs_per_kernel: 10,
            seed: 3,
        },
    )
    .unwrap();
    let got = [
        digest(FlatGnnBaseline::wu_accuracy(options()), &designs),
        digest(FlatGnnBaseline::wu_dse(options()), &designs),
        digest(FlatGnnBaseline::gnn_dse(options()), &designs),
    ];
    let want = [
        0x275e_8249_0dd4_389a,
        0x2a0f_aafc_7ffa_d304,
        0x5791_1d0d_f8f8_8258,
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
