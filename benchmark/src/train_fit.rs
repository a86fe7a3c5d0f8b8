//! `train_fit`: `HierarchicalModel::train_with_designs` on the quick
//! dataset at the benchmark's fixed scale, fit after fit. The only
//! workload that runs backward, Adam and the global-sample rebuild; it
//! touches no serving or cache path.

use std::time::Instant;

use qor_core::{HierarchicalModel, LabeledDesigns};

use crate::encode::Target;
use crate::ladder::{self, Pool, PoolEntry};
use crate::reference::{self, Rng, Unit};
use crate::setup;
use crate::{Args, Outcome};

/// Test-split latency MAPE (%) a fit must stay within. Fits at the
/// benchmark's scale score 25–52% across initialisation seeds; an
/// untrained model scores 126%.
const MAPE_BOUND: f64 = 80.0;

/// A witness over every design's label, to compare repeated setups.
fn witness(designs: &LabeledDesigns) -> u64 {
    let mut text = String::new();
    for s in designs
        .train
        .iter()
        .chain(&designs.val)
        .chain(&designs.test)
    {
        text.push_str(&format!(
            "{}:{:x}:{:?};",
            s.kernel,
            s.config.fingerprint(),
            s.report.top
        ));
    }
    setup::fnv(text.as_bytes())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (designs, setup_s, same) = crate::repeated_setup(args, setup::label, witness)?;
    // the seed drives weight initialisation and shuffling; the data, and so
    // the work per fit, stays the same
    let opts = setup::train_options().with_seed(args.seed);
    if args.trace {
        let (model, _) = HierarchicalModel::train_with_designs(&opts, &designs)
            .map_err(|e| format!("training: {e}"))?;
        return ladder::run(
            args,
            ladder_input(&designs, serve::save_model(&model), args.seed)?,
        );
    }
    let mut out = Outcome::default();
    out.check(same, || "repeated setups labelled differently".into());
    let setup_rss = setup::peak_rss_mb();

    let per_fit = (designs.train.len() * setup::EPOCHS) as f64;
    let mut fit_s = Vec::new();
    let mut fit_steal = Vec::new();
    let mut first: Option<Vec<u8>> = None;
    let mut last = None;
    let start = Instant::now();
    while fit_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        let steal0 = setup::steal_ticks();
        let t = Instant::now();
        let fit = HierarchicalModel::train_with_designs(&opts, &designs);
        fit_s.push(t.elapsed().as_secs_f64());
        fit_steal.push(setup::steal_ticks().saturating_sub(steal0));
        match fit {
            Ok((model, _)) => {
                let ckpt = serve::save_model(&model);
                match &first {
                    None => first = Some(ckpt),
                    Some(f) => out.check(*f == ckpt, || "two fits gave different weights".into()),
                }
                last = Some(model);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("fit failed: {e}"));
            }
        }
    }

    if let Some(model) = &last {
        let mape = test_mape(model, &designs, &mut out)?;
        out.info(format!(
            "test latency MAPE {mape:.2}% over {} designs (bound {MAPE_BOUND}%)",
            designs.test.len()
        ));
        out.check(mape <= MAPE_BOUND, || {
            format!("test latency MAPE {mape:.2}% over {MAPE_BOUND}%")
        });
    }

    // each fit is one unit whose only operation is the fit itself
    let units: Vec<Unit> = fit_s
        .iter()
        .zip(&fit_steal)
        .map(|(&s, &steal)| Unit {
            per_s: per_fit / s,
            p50_ms: s * 1e3,
            p90_ms: s * 1e3,
            steal_per_s: steal as f64 / s,
        })
        .collect();
    let calm = reference::calm_median(&units);
    out.metric("setup_s", setup_s, "s");
    out.metric("points_per_s", calm.per_s, "1/s");
    out.metric("latency_p50_ms", calm.p50_ms, "ms");
    out.metric("latency_p90_ms", calm.p90_ms, "ms");
    out.metric("peak_rss_mb", setup::peak_rss_mb(), "MiB");
    out.info(format!(
        "{} fits of {} training designs x {} epochs (hidden {}, batch {}, {:?}), median fit {:.0} ms",
        fit_s.len(),
        designs.train.len(),
        setup::EPOCHS,
        opts.hidden,
        opts.batch_size,
        opts.conv,
        reference::median(&fit_s) * 1e3
    ));
    out.info(format!(
        "peak RSS after setup {setup_rss:.1} MiB; threads {}",
        par::threads()
    ));
    Ok(out)
}

/// Test-split latency MAPE (%) of `model` against labels recomputed with
/// `hlsim` on functions the benchmark lowers itself; a recomputed label
/// that differs from the dataset's fails `out`'s checks.
fn test_mape(
    model: &HierarchicalModel,
    designs: &LabeledDesigns,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut pred = Vec::new();
    let mut truth = Vec::new();
    for s in &designs.test {
        let source = kernels::kernel_source(&s.kernel).ok_or("kernel vanished")?;
        let func = setup::lower(&s.kernel, source)?;
        let label = hlsim::evaluate(&func, &s.config).map_err(|e| format!("hlsim: {e}"))?;
        out.check(label.top == s.report.top, || {
            format!(
                "{}: relabelled {:?} != dataset {:?}",
                s.kernel, label.top, s.report.top
            )
        });
        pred.push(model.predict(&func, &s.config).latency as f64);
        truth.push(label.top.latency as f64);
    }
    Ok(reference::mape(&pred, &truth))
}

/// The traced ladder's inputs: a seeded sample of the dataset's designs.
fn ladder_input(
    designs: &LabeledDesigns,
    ckpt: Vec<u8>,
    seed: u64,
) -> Result<ladder::Input, String> {
    let mut pool = Pool::default();
    let all: Vec<_> = designs.train.iter().chain(&designs.test).collect();
    let mut rng = Rng::new(seed, 4);
    let mut keys = Vec::new();
    for _ in 0..ladder::ITEMS {
        let s = all[rng.below(all.len())];
        let name = kernel_name(&s.kernel)?;
        let e = match pool
            .entries
            .iter()
            .position(|p| p.target == Target::Kernel(name))
        {
            Some(e) => e,
            None => {
                let source = kernels::kernel_source(name).ok_or("kernel vanished")?;
                pool.entries.push(PoolEntry {
                    target: Target::Kernel(name),
                    source: source.to_string(),
                    func: std::sync::Arc::new(setup::lower(name, source)?),
                    configs: Vec::new(),
                });
                pool.entries.len() - 1
            }
        };
        pool.entries[e].configs.push(s.config.clone());
        keys.push((e, pool.entries[e].configs.len() - 1));
    }
    Ok(ladder::Input::single_items(ckpt, pool, keys))
}

/// The bundled kernel's `'static` name.
fn kernel_name(name: &str) -> Result<&'static str, String> {
    kernels::all()
        .iter()
        .map(|k| k.name)
        .find(|k| *k == name)
        .ok_or(format!("{name}: not bundled"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untrained_model_fails_the_mape_bound() {
        let designs = setup::label().unwrap();
        let mut out = Outcome::default();
        let untrained = HierarchicalModel::new(&setup::train_options());
        let mape = test_mape(&untrained, &designs, &mut out).unwrap();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(mape > MAPE_BOUND, "untrained MAPE {mape}%");
    }
}
