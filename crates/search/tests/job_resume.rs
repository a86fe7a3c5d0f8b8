//! Acceptance tests for `.qorjob` snapshots: mid-run resume equals the
//! uninterrupted run, every byte flip is a typed error, and version
//! mismatches are distinguishable from corruption.

use std::sync::Arc;

use qor_core::{HierarchicalModel, QorError, Session, TrainOptions};
use search::{SearchOptions, SearchRun, SessionEval, StrategyKind};

fn session() -> Arc<Session> {
    let opts = TrainOptions::quick().with_hidden(8).with_seed(13);
    Arc::new(Session::with_capacity(HierarchicalModel::new(&opts), 128))
}

fn opts(strategy: StrategyKind) -> SearchOptions {
    SearchOptions::new("bicg", strategy, 16)
        .with_seed(77)
        .with_batch(4)
        .with_unroll_factors(vec![1, 4])
}

#[test]
fn mid_run_snapshot_resumes_to_the_uninterrupted_front() {
    let session = session();
    for strategy in StrategyKind::all() {
        let eval = SessionEval::new(session.clone(), "bicg");

        let mut uninterrupted = SearchRun::for_kernel(opts(strategy)).unwrap();
        let expected = uninterrupted.run(&eval).unwrap();

        // interrupt after two steps, freeze, thaw, continue
        let mut partial = SearchRun::for_kernel(opts(strategy)).unwrap();
        partial.step(&eval).unwrap();
        partial.step(&eval).unwrap();
        let frozen = search::snapshot(&partial);
        assert!(
            partial.spent() > 0 && !partial.is_done(),
            "{strategy}: interruption point must be mid-run"
        );
        let mut resumed = search::restore(&frozen).unwrap();
        assert_eq!(resumed.spent(), partial.spent());
        assert_eq!(resumed.iterations(), partial.iterations());
        let continued = resumed.run(&eval).unwrap();

        assert_eq!(
            continued, expected,
            "{strategy}: resumed outcome diverged from the uninterrupted run"
        );
        assert_eq!(
            search::snapshot(&resumed),
            search::snapshot(&uninterrupted),
            "{strategy}: final snapshots must be byte-identical"
        );
    }
}

#[test]
fn snapshot_restore_snapshot_is_byte_stable() {
    let session = session();
    let eval = SessionEval::new(session, "bicg");
    let mut run = SearchRun::for_kernel(opts(StrategyKind::Genetic)).unwrap();
    run.run(&eval).unwrap();
    let first = search::snapshot(&run);
    let second = search::snapshot(&search::restore(&first).unwrap());
    assert_eq!(first, second);
}

#[test]
fn every_byte_flip_is_a_typed_error() {
    let session = session();
    let eval = SessionEval::new(session, "bicg");
    let mut run = SearchRun::for_kernel(opts(StrategyKind::Anneal)).unwrap();
    run.step(&eval).unwrap();
    let bytes = search::snapshot(&run);
    for offset in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0xff;
        match search::restore(&corrupt) {
            Err(QorError::Corrupt(_)) | Err(QorError::UnsupportedVersion(_)) => {}
            Ok(_) => panic!("flip at offset {offset} was accepted"),
            Err(other) => panic!("flip at offset {offset} gave {other:?}"),
        }
    }
    for len in 0..bytes.len() {
        assert!(
            matches!(
                search::restore(&bytes[..len]),
                Err(QorError::Corrupt(_) | QorError::UnsupportedVersion(_))
            ),
            "truncation to {len} bytes must be typed"
        );
    }
}

#[test]
fn v3_snapshot_round_trips_and_rejects_every_flip_and_truncation() {
    let session = session();
    let eval = SessionEval::new(session, "bicg");
    let mut run = SearchRun::for_kernel(opts(StrategyKind::Genetic)).unwrap();
    run.step(&eval).unwrap();

    let bytes = search::snapshot(&run);
    assert_eq!(&bytes[8..12], &3u32.to_le_bytes(), "snapshots are v3");
    let restored = search::restore(&bytes).unwrap();
    assert_eq!(search::snapshot(&restored), bytes, "v3 re-snapshot drifted");

    for offset in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0xff;
        match search::restore(&corrupt) {
            Err(QorError::Corrupt(_)) | Err(QorError::UnsupportedVersion(_)) => {}
            Ok(_) => panic!("flip at offset {offset} was accepted"),
            Err(other) => panic!("flip at offset {offset} gave {other:?}"),
        }
    }
    for len in 0..bytes.len() {
        assert!(
            matches!(
                search::restore(&bytes[..len]),
                Err(QorError::Corrupt(_) | QorError::UnsupportedVersion(_))
            ),
            "truncation to {len} bytes must be typed"
        );
    }
}

#[test]
fn future_versions_are_unsupported_not_corrupt() {
    let session = session();
    let eval = SessionEval::new(session, "bicg");
    let mut run = SearchRun::for_kernel(opts(StrategyKind::Random)).unwrap();
    run.step(&eval).unwrap();
    let bytes = search::snapshot(&run);

    // patch the version field and re-seal so only the version differs;
    // the retired v1 and v2 (fleet section) formats and a future version
    // are all refused
    for version in [1, 2, search::JOB_FORMAT_VERSION + 1] {
        let mut patched = bytes[..bytes.len() - 8].to_vec();
        patched[8..12].copy_from_slice(&version.to_le_bytes());
        let sum = qor_core::fnv1a(&patched);
        patched.extend_from_slice(&sum.to_le_bytes());
        match search::restore(&patched) {
            Err(QorError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("expected UnsupportedVersion({version}), got {other:?}"),
        }
    }
}

#[test]
fn file_round_trip_and_missing_files_are_typed() {
    let session = session();
    let eval = SessionEval::new(session, "bicg");
    let mut run = SearchRun::for_kernel(opts(StrategyKind::Genetic)).unwrap();
    run.step(&eval).unwrap();

    let dir = std::env::temp_dir().join(format!("qorjob-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.qorjob");
    search::save_job_file(&run, &path).unwrap();
    let restored = search::load_job_file(&path).unwrap();
    assert_eq!(search::snapshot(&restored), search::snapshot(&run));

    let missing = dir.join("nope.qorjob");
    assert!(matches!(
        search::load_job_file(&missing),
        Err(QorError::Io(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
