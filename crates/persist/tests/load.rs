//! `SnapshotStore::load` against a model of what the store must hold, over
//! random sequences of record / commit / crash-truncate / reopen steps:
//! after every step each committed key loads exactly the log recorded under
//! it, a key appended since the last commit loads too (its frame is in the
//! file), and a key whose record a crash or reopen dropped loads `None`.
//!
//! The case count defaults to 64 and scales with `PROPTEST_CASES` (the CI
//! fuzz-smoke job runs an elevated count).

use proptest::prelude::*;
use sparqlog_core::analysis::DatasetAnalysis;
use sparqlog_core::corpus::CorpusCounts;
use sparqlog_core::{ErrorKind, ErrorTally, LogSummary, PersistedLog};
use sparqlog_persist::SnapshotStore;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A log whose every byte depends on `key` and `seed`, so a load that
/// returned another record's frame could not pass for this one.
fn log_of(key: u128, seed: u64) -> PersistedLog {
    let label = format!("log-{key}-{seed}");
    let mut errors = ErrorTally::default();
    for position in 0..seed % 4 {
        errors.record(
            ErrorKind::ALL[(seed + position) as usize % ErrorKind::ALL.len()],
            position,
        );
    }
    PersistedLog {
        summary: LogSummary {
            label: label.clone(),
            counts: CorpusCounts {
                total: seed,
                valid: seed / 2,
                unique: seed / 3,
                bodyless: seed % 7,
            },
            errors,
        },
        analysis: DatasetAnalysis {
            label,
            ..DatasetAnalysis::default()
        },
    }
}

/// A unique scratch path for one case's store file.
fn case_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("sparqlog-load-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create load scratch dir");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("case-{n}.sqps"))
}

/// What the store must answer: committed and appended-but-uncommitted logs
/// by key, and every key ever recorded.
#[derive(Default)]
struct Model {
    committed: BTreeMap<u128, PersistedLog>,
    pending: BTreeMap<u128, PersistedLog>,
    seen: Vec<u128>,
}

impl Model {
    fn check(&self, store: &SnapshotStore) {
        for &key in &self.seen {
            let expected = self.committed.get(&key).or_else(|| self.pending.get(&key));
            let loaded = store.load(key).expect("a record the store wrote must load");
            assert_eq!(loaded.as_ref(), expected, "key {key}");
        }
        assert_eq!(store.snapshots(), self.committed.len() + self.pending.len());
    }

    /// A crash or reopen: everything not committed is gone.
    fn drop_pending(&mut self) {
        self.pending.clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Steps: 0–3 record, 4 commit, 5 crash that tears the uncommitted
    /// tail at a random byte, 6 clean reopen.
    fn load_returns_each_committed_log_and_nothing_dropped(
        steps in prop::collection::vec((0u8..7, 0u64..6, 0u64..1 << 20), 1..48),
    ) {
        let path = case_path();
        let (mut store, _) = SnapshotStore::open(&path).expect("create store");
        let mut model = Model::default();
        for (op, key, seed) in steps {
            let key = u128::from(key);
            match op {
                0..=3 => {
                    let log = log_of(key, seed);
                    let fresh = !model.committed.contains_key(&key)
                        && !model.pending.contains_key(&key);
                    let appended = store.record_snapshot(key, &log).expect("record");
                    prop_assert_eq!(appended, fresh);
                    if fresh {
                        model.pending.insert(key, log);
                        model.seen.push(key);
                    }
                }
                4 => {
                    store.commit().expect("commit");
                    let pending = std::mem::take(&mut model.pending);
                    model.committed.extend(pending);
                }
                5 => {
                    let (committed, total) = (store.committed_bytes(), store.total_bytes());
                    drop(store);
                    let cut = committed + seed % (total - committed + 1);
                    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    file.set_len(cut).expect("tear the tail");
                    drop(file);
                    let (reopened, report) = SnapshotStore::open(&path).expect("reopen");
                    prop_assert_eq!(report.kept_bytes, committed);
                    store = reopened;
                    model.drop_pending();
                }
                _ => {
                    drop(store);
                    let (reopened, _) = SnapshotStore::open(&path).expect("reopen");
                    store = reopened;
                    model.drop_pending();
                }
            }
            model.check(&store);
        }
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}
