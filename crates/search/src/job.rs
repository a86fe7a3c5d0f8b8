//! Resumable `.qorjob` snapshots of a search run.
//!
//! A snapshot is one `qor_core::wire` stream — magic `QORJOB\0\0`, format
//! version, kind byte, payload, trailing FNV-1a checksum — holding
//! everything a [`SearchRun`] needs to continue: the options, the RNG
//! state, the evaluation ledger in insertion order, and the strategy's
//! internal state. [`restore`] rebuilds the run by replaying the ledger
//! through a fresh [`dse::ParetoAccumulator`], so the incumbent front is
//! reconstructed exactly (never trusted from the file), and the resumed
//! trajectory is byte-identical to an uninterrupted one.
//!
//! Corruption handling mirrors the model checkpoint format: any flipped
//! byte fails the checksum in [`qor_core::wire::open`] *before* parsing,
//! truncations surface as [`QorError::Corrupt`], and future format
//! versions as [`QorError::UnsupportedVersion`].

use std::collections::HashMap;

use dse::ParetoAccumulator;
use qor_core::wire::{self, put_f64, put_str, put_u32, put_u64};
use qor_core::QorError;
use rand::rngs::StdRng;

use crate::engine::{EvalRecord, SearchOptions, SearchRun};
use crate::space::Genome;
use crate::strategy::{self, StrategyKind};

/// Magic bytes of a `.qorjob` stream.
pub const JOB_MAGIC: [u8; 8] = *b"QORJOB\0\0";
/// Current `.qorjob` format version. v3 ends the payload at the strategy
/// state; v2 streams (which carried a trailing fleet section) and v1
/// streams are refused as [`QorError::UnsupportedVersion`].
pub const JOB_FORMAT_VERSION: u32 = 3;
/// Record kind of a full job snapshot.
const KIND_SNAPSHOT: u8 = 0;

/// Serializes the run into a `.qorjob` byte stream (current version).
pub fn snapshot(run: &SearchRun) -> Vec<u8> {
    let mut out = wire::header(&JOB_MAGIC, JOB_FORMAT_VERSION, KIND_SNAPSHOT);
    let opts = &run.opts;
    put_str(&mut out, &opts.kernel);
    out.push(opts.strategy.code());
    put_u64(&mut out, opts.budget);
    put_u64(&mut out, opts.seed);
    put_u32(&mut out, opts.batch as u32);
    match &opts.unroll_factors {
        None => out.push(0),
        Some(factors) => {
            out.push(1);
            put_u32(&mut out, factors.len() as u32);
            for f in factors {
                put_u32(&mut out, *f);
            }
        }
    }
    match &opts.reference {
        None => out.push(0),
        Some(reference) => {
            out.push(1);
            put_u32(&mut out, reference.len() as u32);
            for (lat, area) in reference {
                put_f64(&mut out, *lat);
                put_f64(&mut out, *area);
            }
        }
    }
    put_u64(&mut out, run.iterations);
    for word in run.rng.state() {
        put_u64(&mut out, word);
    }
    put_u64(&mut out, run.evaluated.len() as u64);
    for rec in &run.evaluated {
        put_u64(&mut out, rec.fingerprint);
        rec.genome.encode(&mut out);
        put_f64(&mut out, rec.point.0);
        put_f64(&mut out, rec.point.1);
    }
    run.strategy.save_state(&mut out);
    wire::seal(out)
}

/// Rebuilds a run from a [`snapshot`] stream.
///
/// # Errors
///
/// [`QorError::Corrupt`] for flipped bytes, truncations, trailing bytes,
/// or malformed payloads; [`QorError::UnsupportedVersion`] for any
/// version other than [`JOB_FORMAT_VERSION`];
/// [`QorError::UnknownKernel`] when the snapshot names a kernel outside
/// the bundled set.
pub fn restore(bytes: &[u8]) -> Result<SearchRun, QorError> {
    let (kind, mut c) = wire::open(bytes, &JOB_MAGIC, JOB_FORMAT_VERSION)?;
    if kind != KIND_SNAPSHOT {
        return Err(QorError::Corrupt(format!("unknown job record kind {kind}")));
    }
    let kernel = c.str("job kernel")?.to_string();
    let strategy_kind = StrategyKind::from_code(c.u8("job strategy")?)?;
    let budget = c.u64("job budget")?;
    let seed = c.u64("job seed")?;
    let batch = c.u32("job batch")?.max(1) as usize;
    let unroll_factors = match c.u8("unroll override flag")? {
        0 => None,
        1 => {
            let n = c.u32("unroll override count")?;
            let mut factors = Vec::new();
            for _ in 0..n {
                factors.push(c.u32("unroll factor")?);
            }
            Some(factors)
        }
        other => {
            return Err(QorError::Corrupt(format!(
                "unroll override flag must be 0/1, found {other}"
            )))
        }
    };
    let reference = match c.u8("reference flag")? {
        0 => None,
        1 => {
            let n = c.u32("reference count")?;
            let mut reference = Vec::new();
            for _ in 0..n {
                let lat = c.f64("reference latency")?;
                let area = c.f64("reference area")?;
                reference.push((lat, area));
            }
            Some(reference)
        }
        other => {
            return Err(QorError::Corrupt(format!(
                "reference flag must be 0/1, found {other}"
            )))
        }
    };
    let iterations = c.u64("job iterations")?;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = c.u64("rng state")?;
    }
    let n_evaluated = c.u64("evaluated count")?;

    let opts = SearchOptions {
        kernel,
        strategy: strategy_kind,
        budget,
        seed,
        batch,
        unroll_factors,
        reference,
    };
    let mut run = SearchRun::for_kernel(opts)?;
    run.rng = StdRng::from_state(rng_state);
    run.iterations = iterations;

    // replay the ledger record-at-a-time (no preallocation from the
    // untrusted count), rebuilding the index and the front exactly
    let mut evaluated = Vec::new();
    let mut index = HashMap::default();
    let mut front = ParetoAccumulator::new();
    for _ in 0..n_evaluated {
        let fingerprint = c.u64("record fingerprint")?;
        let genome = Genome::decode_from(&mut c)?;
        let lat = c.f64("record latency")?;
        let area = c.f64("record area")?;
        if index.insert(fingerprint, evaluated.len()).is_some() {
            return Err(QorError::Corrupt(format!(
                "duplicate fingerprint {fingerprint:#018x} in job ledger"
            )));
        }
        front.push(fingerprint, (lat, area));
        evaluated.push(EvalRecord {
            fingerprint,
            genome,
            point: (lat, area),
        });
    }
    run.evaluated = evaluated;
    run.index = index;
    run.front = front;
    run.strategy = strategy::load_state(strategy_kind, &mut c)?;
    if !c.done() {
        return Err(QorError::Corrupt(format!(
            "{} trailing bytes after job payload",
            c.remaining()
        )));
    }
    Ok(run)
}

/// Writes a snapshot to `path` atomically (write temp + rename).
///
/// # Errors
///
/// [`QorError::Io`] on filesystem failures.
pub fn save_job_file(run: &SearchRun, path: &std::path::Path) -> Result<(), QorError> {
    let bytes = snapshot(run);
    let tmp = path.with_extension("qorjob.tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and restores a job from `path`.
///
/// # Errors
///
/// [`QorError::Io`] when the file cannot be read; otherwise as
/// [`restore`].
pub fn load_job_file(path: &std::path::Path) -> Result<SearchRun, QorError> {
    let bytes = std::fs::read(path)?;
    restore(&bytes)
}
