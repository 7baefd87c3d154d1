//! Recovery coverage for the snapshot store: every strict truncation
//! prefix of a valid store file (exhaustively) plus randomized single-bit
//! flips and appended garbage (property tests). The contract under test:
//! [`SnapshotStore::open`] never panics, always recovers a valid prefix
//! ending at a real commit boundary, names the dropped byte range exactly,
//! and a second open of the recovered file is clean.
//!
//! The property-case count defaults to 64 and scales with the
//! `PROPTEST_CASES` environment variable (the CI fuzz-smoke job runs an
//! elevated count), as the root fuzz harness does.

mod common;

use common::CaseFile;
use proptest::prelude::*;
use sparqlog_core::analysis::{DatasetAnalysis, Population};
use sparqlog_core::corpus::CorpusCounts;
use sparqlog_core::{ErrorTally, LogSummary, PersistedLog, RecoveryPolicy};
use sparqlog_persist::store::{JobLog, JobRecord};
use sparqlog_persist::{RecoveryReason, SnapshotStore};
use std::sync::OnceLock;

/// The store header (magic + version) — the first commit "boundary".
const HEADER_LEN: u64 = 5;

/// A known-good store file with two commits, plus the byte boundary and
/// the (snapshots, jobs, commits) totals at each commit point.
struct Golden {
    bytes: Vec<u8>,
    /// `(committed_bytes, snapshots, jobs, commits)` per valid recovery
    /// point, ascending (starting at the bare header).
    boundaries: Vec<(u64, u64, u64, u64)>,
}

fn sample(label: &str) -> PersistedLog {
    PersistedLog {
        summary: LogSummary {
            label: label.to_string(),
            counts: CorpusCounts::default(),
            errors: ErrorTally::default(),
        },
        analysis: DatasetAnalysis {
            label: label.to_string(),
            ..DatasetAnalysis::default()
        },
    }
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let case = CaseFile::new("golden");
        let path = case.path();
        let (mut store, report) = SnapshotStore::open(path).expect("create golden store");
        assert_eq!(report.reason, RecoveryReason::Created);
        store.record_snapshot(0xA1, &sample("alpha")).unwrap();
        store.record_snapshot(0xB2, &sample("beta")).unwrap();
        store.commit().unwrap();
        let first = store.committed_bytes();
        store
            .record_job(&JobRecord {
                population: Population::Unique,
                recovery: RecoveryPolicy::Lenient,
                logs: vec![JobLog {
                    key: 0xA1,
                    label: "alpha".to_string(),
                    path: "/logs/alpha.log".to_string(),
                }],
            })
            .unwrap();
        store.record_snapshot(0xC3, &sample("gamma")).unwrap();
        store.commit().unwrap();
        let second = store.committed_bytes();
        drop(store);
        let bytes = std::fs::read(path).expect("read golden store");
        assert_eq!(bytes.len() as u64, second);
        Golden {
            bytes,
            boundaries: vec![(HEADER_LEN, 0, 0, 0), (first, 2, 0, 1), (second, 3, 1, 2)],
        }
    })
}

/// Opens `bytes` as a store file and asserts the recovery contract that
/// holds for *any* input: a commit-boundary prefix is kept, the dropped
/// range is named exactly, and a reopen of the recovered file is clean.
/// Returns what the first open reported.
fn open_and_check(prefix: &str, bytes: &[u8]) -> sparqlog_persist::RecoveryReport {
    let case = CaseFile::new(prefix);
    let path = case.path();
    std::fs::write(path, bytes).expect("write case file");
    let (store, report) = SnapshotStore::open(path).expect("open must not fail");
    let golden = golden();

    // The kept prefix ends at a real commit boundary and matches that
    // boundary's content totals — unless the header itself was damaged, in
    // which case the store was reinitialized.
    if report.reason == RecoveryReason::BadHeader {
        assert_eq!(report.kept_bytes, HEADER_LEN);
        assert_eq!(report.dropped, Some(0..bytes.len() as u64));
        assert_eq!(store.snapshots(), 0);
    } else {
        let boundary = golden
            .boundaries
            .iter()
            .find(|(kept, ..)| *kept == report.kept_bytes)
            .unwrap_or_else(|| panic!("kept {} bytes is not a commit boundary", report.kept_bytes));
        let (_, snapshots, jobs, commits) = *boundary;
        assert_eq!(report.snapshots, snapshots);
        assert_eq!(report.jobs, jobs);
        assert_eq!(report.commits, commits);
        assert_eq!(store.snapshots() as u64, snapshots);
        // Everything kept decodes to exactly what was written.
        for key in store.snapshot_keys() {
            assert!([0xA1, 0xB2, 0xC3].contains(&key));
        }
    }

    // The dropped range is exactly the bytes beyond the kept prefix.
    match &report.dropped {
        // A freshly-created store (empty input) legitimately *grows* to
        // the header length; everything else keeps exactly its prefix.
        None if report.reason == RecoveryReason::Created => {
            assert_eq!(report.kept_bytes, HEADER_LEN)
        }
        None => assert_eq!(report.kept_bytes, bytes.len() as u64),
        Some(range) if report.reason == RecoveryReason::BadHeader => {
            assert_eq!(*range, 0..bytes.len() as u64)
        }
        Some(range) => assert_eq!(*range, report.kept_bytes..bytes.len() as u64),
    }
    assert_eq!(report.file_bytes, bytes.len() as u64);

    // Recovery is durable and convergent: the file now holds exactly the
    // kept prefix, and a second open drops nothing.
    assert_eq!(
        std::fs::metadata(path).expect("recovered file").len(),
        report.kept_bytes
    );
    drop(store);
    let (_, second) = SnapshotStore::open(path).expect("reopen must not fail");
    assert!(second.is_clean(), "second open must be clean: {second}");
    assert_eq!(second.kept_bytes, report.kept_bytes);
    report
}

#[test]
fn every_truncation_prefix_recovers_a_valid_prefix() {
    let golden = golden();
    for len in 0..=golden.bytes.len() {
        let report = open_and_check("truncate", &golden.bytes[..len]);
        // A cut exactly at a commit boundary keeps everything present;
        // any other cut names the loss.
        let at_boundary = golden
            .boundaries
            .iter()
            .any(|(kept, ..)| *kept == len as u64);
        if at_boundary {
            assert!(report.is_clean(), "cut at boundary {len} must be clean");
        } else {
            assert!(
                !report.is_clean() || len == 0,
                "cut mid-record at {len} must name a dropped range"
            );
        }
        if len == 0 {
            assert_eq!(report.reason, RecoveryReason::Created);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single flipped bit anywhere in the file never panics the scan,
    /// never survives into the kept prefix, and recovery converges.
    fn single_bit_flips_recover_a_valid_prefix(
        index in 0usize..1 << 16,
        bit in 0u8..8u8,
    ) {
        let golden = golden();
        let pos = index % golden.bytes.len();
        let mut bytes = golden.bytes.clone();
        bytes[pos] ^= 1 << bit;
        let report = open_and_check("bitflip", &bytes);
        prop_assert!(!report.is_clean(), "a flipped bit must always be detected");
        if (pos as u64) < HEADER_LEN {
            prop_assert_eq!(&report.reason, &RecoveryReason::BadHeader);
        } else {
            // The flipped byte is never inside the kept prefix.
            prop_assert!(
                report.kept_bytes <= pos as u64,
                "kept {} bytes but the flip was at {}",
                report.kept_bytes,
                pos
            );
        }
    }

    /// Arbitrary garbage appended after a valid store is dropped wholesale;
    /// everything committed stays served.
    fn appended_garbage_is_dropped_and_commits_survive(
        garbage in prop::collection::vec(0u8..=255u8, 1..64),
    ) {
        let golden = golden();
        let mut bytes = golden.bytes.clone();
        bytes.extend_from_slice(&garbage);
        let report = open_and_check("garbage", &bytes);
        prop_assert_eq!(report.kept_bytes, golden.bytes.len() as u64);
        prop_assert_eq!(report.snapshots, 3);
        prop_assert_eq!(
            report.dropped,
            Some(golden.bytes.len() as u64..bytes.len() as u64)
        );
    }

    /// A truncation *and* a flip in the surviving part still recovers.
    fn truncation_combined_with_a_flip_recovers(
        cut in 0usize..1 << 16,
        index in 0usize..1 << 16,
        bit in 0u8..8u8,
    ) {
        let golden = golden();
        let len = cut % (golden.bytes.len() + 1);
        let mut bytes = golden.bytes[..len].to_vec();
        if !bytes.is_empty() {
            let pos = index % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        open_and_check("cutflip", &bytes);
    }
}
