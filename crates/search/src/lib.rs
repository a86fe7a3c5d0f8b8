#![warn(missing_docs)]
//! Budgeted heuristic design-space exploration over pragma spaces.
//!
//! The exhaustive sweep in `crates/dse` scores *every* configuration; the
//! paper's larger kernels have thousands, and real spaces grow beyond
//! enumeration. This crate explores the same spaces under an explicit
//! evaluation budget with three seed-deterministic heuristics — uniform
//! random sampling, simulated annealing over pragma-neighbor moves, and a
//! genetic loop — behind one ask/tell [`Strategy`] interface:
//!
//! * [`SpaceModel`] flattens a [`pragma::DesignSpace`] into a genome whose
//!   every decoding lands inside the enumerated space (legality rules are
//!   mirrored exactly, array partitioning stays derived from unroll
//!   factors),
//! * [`SearchRun`] drives ask → evaluate → tell, scores batches through
//!   `par` (bit-identical for any `QOR_THREADS`), answers repeat
//!   proposals from its ledger without spending budget, and tracks the
//!   incumbent front with [`dse::ParetoAccumulator`],
//! * [`job`] freezes a run mid-flight into a checksummed `.qorjob` stream
//!   that resumes to the exact same trajectory,
//! * [`JobRunner`] executes submitted jobs on background threads for the
//!   `qor-serve` HTTP endpoints (`POST /dse`, `GET /dse/<id>`,
//!   `DELETE /dse/<id>`).
//!
//! ```
//! use search::{SearchOptions, SearchRun, SessionEval, StrategyKind};
//! use qor_core::{HierarchicalModel, Session, TrainOptions};
//! use std::sync::Arc;
//!
//! let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(8));
//! let session = Arc::new(Session::with_capacity(model, 64));
//! let opts = SearchOptions::new("fir", StrategyKind::Anneal, 8)
//!     .with_seed(42)
//!     .with_batch(4);
//! let mut run = SearchRun::for_kernel(opts).unwrap();
//! let outcome = run.run(&SessionEval::new(session, "fir")).unwrap();
//! assert!(outcome.spent <= 8 && !outcome.front.is_empty());
//! ```

pub mod engine;
pub mod job;
pub mod runner;
pub mod space;
pub mod strategy;

pub use engine::{
    EvalRecord, Evaluate, OracleEval, SearchOptions, SearchOutcome, SearchRun, SessionEval,
    StepReport,
};
pub use job::{load_job_file, restore, save_job_file, snapshot, JOB_FORMAT_VERSION, JOB_MAGIC};
pub use runner::{JobProgress, JobRunner, JobStatus, RunnerStats};
pub use space::{Genome, SpaceModel};
pub use strategy::{Strategy, StrategyKind};

use qor_core::{HierarchicalModel, QorError, Session, TrainOptions};
use std::sync::Arc;

/// End-to-end smoke test used by `qor-search --self-test` and `ci.sh`.
///
/// On a tiny kernel (`fir`, unroll factors `{1, 2, 4}`) with a fixed seed,
/// for each of the three strategies:
///
/// 1. a budgeted run spends at most its budget and yields a non-empty
///    front,
/// 2. re-running the same seed gives a byte-identical `.qorjob` snapshot,
/// 3. snapshotting mid-run and resuming reaches the same final front and
///    snapshot bytes as the uninterrupted run,
/// 4. corrupting a sampled byte of the snapshot yields a typed error
///    (never a panic or a silently wrong run).
///
/// # Errors
///
/// A human-readable description of the first failed check.
pub fn self_test() -> Result<(), String> {
    let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(8).with_seed(7));
    let session = Arc::new(Session::with_capacity(model, 64));

    for kind in StrategyKind::all() {
        let opts = SearchOptions::new("fir", kind, 12)
            .with_seed(2024)
            .with_batch(4)
            .with_unroll_factors(vec![1, 2, 4]);
        let eval = SessionEval::new(session.clone(), "fir");

        // 1. budget + front
        let mut run = SearchRun::for_kernel(opts.clone()).map_err(|e| e.to_string())?;
        let outcome = run.run(&eval).map_err(|e| e.to_string())?;
        if outcome.spent > 12 {
            return Err(format!("{kind}: overspent budget ({} > 12)", outcome.spent));
        }
        if outcome.front.is_empty() {
            return Err(format!("{kind}: empty front"));
        }

        // 2. same seed, byte-identical snapshot
        let mut rerun = SearchRun::for_kernel(opts.clone()).map_err(|e| e.to_string())?;
        rerun.run(&eval).map_err(|e| e.to_string())?;
        let bytes = snapshot(&run);
        if bytes != snapshot(&rerun) {
            return Err(format!("{kind}: same-seed snapshots differ"));
        }

        // 3. mid-run snapshot resumes to the same end state
        let mut partial = SearchRun::for_kernel(opts.clone()).map_err(|e| e.to_string())?;
        partial.step(&eval).map_err(|e| e.to_string())?;
        let mid = snapshot(&partial);
        let mut resumed = restore(&mid).map_err(|e| e.to_string())?;
        let resumed_outcome = resumed.run(&eval).map_err(|e| e.to_string())?;
        if resumed_outcome != outcome {
            return Err(format!(
                "{kind}: resumed run diverged from uninterrupted run"
            ));
        }
        if snapshot(&resumed) != bytes {
            return Err(format!("{kind}: resumed snapshot bytes diverged"));
        }

        // 4. sampled corruption is typed
        for offset in (0..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0xff;
            match restore(&corrupt) {
                Err(QorError::Corrupt(_))
                | Err(QorError::UnsupportedVersion(_))
                | Err(QorError::Shape(_))
                | Err(QorError::UnknownKernel(_)) => {}
                Ok(_) => return Err(format!("{kind}: corrupt byte {offset} accepted")),
                Err(other) => return Err(format!("{kind}: corrupt byte {offset} gave {other:?}")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().unwrap();
    }
}
