//! Golden digests of training and inference, one per conv family.
//!
//! Each digest covers a tiny trained checkpoint (the three parameter
//! stores and their target normalizers) and that model's predictions for
//! the first designs of the four held-out spaces: the rounded `Qor` and
//! the raw inner-model super-node features. The constants were computed
//! before the fused aggregation ops, the row-slice loops and the buffer
//! recycler went into `tensor`; every kernel change since must leave
//! each family's forward and backward bit-identical, so any drift in
//! rounding order fails here.
//!
//! `ci.sh` runs this suite at `QOR_THREADS=1` and `QOR_THREADS=4`; the
//! digests must not depend on the worker count either.

use std::hash::Hasher;

use gnn::ConvKind;
use qor_core::{Fnv1aHasher, HierarchicalModel, LabeledDesigns, TrainOptions, BANKS};

/// Held-out kernels whose designs are predicted, as in Table V.
const HELD_OUT: [&str; 4] = ["bicg", "symm", "mvt", "syrk"];

/// Designs predicted per held-out kernel, from the start of its space.
const DESIGNS_PER_KERNEL: usize = 12;

fn options(conv: ConvKind) -> TrainOptions {
    TrainOptions::quick()
        .with_conv(conv)
        .with_hidden(8)
        .with_epochs(2)
        .with_max_designs(5)
}

fn digest(conv: ConvKind, designs: &LabeledDesigns) -> u64 {
    let (model, _) = HierarchicalModel::train_with_designs(&options(conv), designs).unwrap();
    let mut h = Fnv1aHasher::new();
    for (name, store) in model.banks() {
        let mut text = Vec::new();
        store.save(&mut text).unwrap();
        h.write(name.as_bytes());
        h.write(&text);
    }
    for bank in BANKS {
        let norm = model.normalizer(bank).unwrap();
        for v in norm.mean().iter().chain(norm.std()) {
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
            let qor = model.predict(&func, cfg);
            for v in [qor.latency, qor.lut, qor.ff, qor.dsp] {
                h.write_u64(v);
            }
            for f in model.predict_supers(&func, cfg).values() {
                for v in [f.latency, f.il, f.ii, f.tc, f.lut, f.ff, f.dsp] {
                    h.write_u64(v.to_bits());
                }
            }
        }
    }
    h.finish()
}

#[test]
fn every_conv_family_trains_and_predicts_bit_identically() {
    let designs = qor_core::generate(&options(ConvKind::Sage).data).unwrap();
    let want = [
        (ConvKind::Gcn, 0xf7ba_dacd_c5e6_66f9),
        (ConvKind::Gat, 0xc622_f6db_04a0_3ac3),
        (ConvKind::Sage, 0x4ebc_5873_06b5_3295),
        (ConvKind::Transformer, 0xc625_8692_2fbc_d5d0),
        (ConvKind::Pna, 0xba9f_897e_0dda_f8e1),
    ];
    let got: Vec<(ConvKind, u64)> = want
        .iter()
        .map(|&(conv, _)| (conv, digest(conv, &designs)))
        .collect();
    assert_eq!(got, want, "got {got:#x?}");
}
