//! Per-log results and their assembly into a corpus.
//!
//! Every table of the paper is one row per log plus a "Total" row, and a
//! log's row never depends on which other logs share the run: its
//! [`LogSummary`] and [`DatasetAnalysis`] — a [`PersistedLog`] — are the same
//! whether the in-process engine, a shard worker or the snapshot store
//! produced them. This module holds what the multi-process paths share:
//!
//! * the **canonical identity** of a log ([`log_identity`],
//!   [`file_identity`]): `bytescan::hash128` of its population, label and
//!   every raw byte, computed *before* any parsing, under which the snapshot
//!   store (`sparqlog-persist`) keys results. Past 256 bytes — any real log
//!   — the hash runs four independent lanes per 64-byte block, so hashing
//!   a resubmitted log is not one chain of multiplies each waiting on the
//!   last;
//! * the **store-hit rule** ([`PersistedLog::usable_under`]);
//! * [`LogSlots`], the one assembly of per-log results: each input-order
//!   slot fills at most once, the error budget is metered once when the last
//!   slot fills, and the corpus renders in input order with the "Total" row
//!   re-merged — byte-identical, once every slot is filled, to the fused
//!   engine's report over the same logs. The shard coordinator and the serve
//!   job table both assemble through it.
//!
//! # Recovery-policy interplay
//!
//! A persisted result is the *lenient* truth about a log: the tallies are
//! identical under every policy, but [`RecoveryPolicy::Strict`] would have
//! failed the run at the log's first defect instead of producing them. So a
//! stored result with defects is reused only under a policy that recovers;
//! under `Strict` the log is re-analysed, which reproduces the exact strict
//! failure. Budgeted runs stream leniently and meter the budget once over
//! the merged tallies of stored and fresh results together.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use crate::fused::LogSummary;
use crate::recover::{enforce_budget, BudgetExceeded, ErrorTally, RecoveryPolicy};
use sparqlog_parser::bytescan::Hasher128;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

/// How many bytes [`file_identity`] reads per chunk while hashing a log.
const IDENTITY_CHUNK: usize = 64 * 1024;

/// A persisted per-log analysis: exactly what a shard worker ships per log
/// and what a job slot merges — the unit of reuse.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedLog {
    /// The fused engine's per-log summary (label, Table-1 counts, error
    /// tally).
    pub summary: LogSummary,
    /// The full per-dataset analysis — every tally of the report.
    pub analysis: DatasetAnalysis,
}

impl PersistedLog {
    /// The store-hit rule: whether this stored result may stand in for a
    /// fresh analysis under `policy` — always under a policy that recovers,
    /// and under a strict one only when the log has no defects (strict would
    /// have failed the run; the re-analysis reproduces that failure).
    pub fn usable_under(&self, policy: RecoveryPolicy) -> bool {
        policy.recovers() || self.summary.errors.defects() == 0
    }
}

/// The canonical identity of a log: `bytescan::hash128` (`sparqlog-parser`)
/// of the population byte, the label (length-prefixed, so `("ab", "c")` and
/// `("a", "bc")` differ) and the raw log bytes.
///
/// The population is part of the key because the per-dataset fold weights
/// differ between [`Population::Unique`] and [`Population::Valid`] — one
/// log legitimately has two distinct persisted analyses. The recovery
/// policy is *not* part of the key: tallies are policy-independent, and the
/// policy interplay is handled at lookup time (see the module docs).
pub fn log_identity(population: Population, label: &str, contents: &[u8]) -> u128 {
    let mut hasher = identity_header(population, label);
    hasher.update(contents);
    hasher.finish()
}

/// [`log_identity`] streamed through `Hasher128` over every byte of a file
/// (no size/mtime shortcut), in fixed-size chunked reads — hashing never
/// loads the log into memory, even for corpora larger than RAM.
///
/// This is the pure hash. The serve daemon memoizes it per submitted path
/// on a stat stamp it trusts only once the file's ctime is old enough
/// (`sparqlog_serve::identity`); every value it uses is this one.
pub fn file_identity(population: Population, label: &str, path: &Path) -> io::Result<u128> {
    identity_of_open_file(population, label, &File::open(path)?)
}

/// [`file_identity`] over a file already open, read from its current
/// offset to the end: a caller that stamps the file with `fstat` hashes
/// the same descriptor, so the stamp and the bytes come from one inode.
pub fn identity_of_open_file(population: Population, label: &str, file: &File) -> io::Result<u128> {
    let mut hasher = identity_header(population, label);
    let mut file = file;
    let mut chunk = vec![0u8; IDENTITY_CHUNK];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return Ok(hasher.finish()),
            Ok(n) => hasher.update(&chunk[..n]),
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        }
    }
}

fn identity_header(population: Population, label: &str) -> Hasher128 {
    let mut hasher = Hasher128::default();
    hasher.update(&[population.code()]);
    hasher.update(&(label.len() as u64).to_le_bytes());
    hasher.update(label.as_bytes());
    hasher
}

/// Why [`LogSlots::fill`] refused a result; a refused fill changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The index names no slot.
    OutOfRange,
    /// The slot already holds a result. A log merges at most once, so no
    /// query occurrence is ever folded twice.
    Filled,
}

/// One run's per-log results in input order: slot `i` holds log `i` once
/// it is filled. Results are held as shared `Arc`s, so a stored hit's slot
/// and the store hold one allocation.
#[derive(Debug)]
pub struct LogSlots {
    slots: Vec<Option<Arc<PersistedLog>>>,
    policy: RecoveryPolicy,
    filled: usize,
    errors: ErrorTally,
    entries: u64,
    over_budget: Option<BudgetExceeded>,
}

impl LogSlots {
    /// `total` empty slots for a run under `policy`.
    pub fn new(total: usize, policy: RecoveryPolicy) -> LogSlots {
        LogSlots {
            slots: vec![None; total],
            policy,
            filled: 0,
            errors: ErrorTally::default(),
            entries: 0,
            over_budget: None,
        }
    }

    /// How many slots there are.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// How many slots are filled.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Whether every slot is filled.
    pub fn is_full(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// The malformed-entry tallies of the filled slots, merged.
    pub fn errors(&self) -> &ErrorTally {
        &self.errors
    }

    /// The run's one budget check: once the last slot fills, the policy's
    /// error budget is metered over every slot's merged tally, and this is
    /// the failure if the run is over it. `None` while a slot is empty.
    pub fn over_budget(&self) -> Option<&BudgetExceeded> {
        self.over_budget.as_ref()
    }

    /// Fills slot `index` with `log`, or refuses; a refused fill changes
    /// nothing. The fill that fills the last slot meters the budget
    /// ([`LogSlots::over_budget`]).
    pub fn fill(&mut self, index: usize, log: Arc<PersistedLog>) -> Result<(), Refused> {
        let slot = self.slots.get_mut(index).ok_or(Refused::OutOfRange)?;
        if slot.is_some() {
            return Err(Refused::Filled);
        }
        self.errors.merge(&log.summary.errors);
        self.entries += log.summary.counts.total;
        *slot = Some(log);
        self.filled += 1;
        if self.is_full() {
            self.over_budget = enforce_budget(self.policy, &self.errors, self.entries).err();
        }
        Ok(())
    }

    /// The results of the slots filled so far, in input order.
    pub fn logs(&self) -> impl Iterator<Item = &Arc<PersistedLog>> {
        self.slots.iter().flatten()
    }

    /// The corpus over the slots filled so far: datasets in input order,
    /// empty slots skipped, the "Total" row merged from the rest.
    pub fn corpus(&self) -> CorpusAnalysis {
        CorpusAnalysis::from_datasets(self.logs().map(|log| log.analysis.clone()).collect())
    }

    /// Takes a full slot set apart into the per-log summaries and the
    /// corpus, both in input order, or names the first empty slot. A result
    /// held only here moves out; one still shared elsewhere is copied.
    pub fn into_parts(self) -> Result<(Vec<LogSummary>, CorpusAnalysis), usize> {
        if let Some(empty) = self.slots.iter().position(Option::is_none) {
            return Err(empty);
        }
        let (summaries, datasets) = self
            .slots
            .into_iter()
            .flatten()
            .map(|log| {
                let log = Arc::unwrap_or_clone(log);
                (log.summary, log.analysis)
            })
            .unzip();
        Ok((summaries, CorpusAnalysis::from_datasets(datasets)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusCounts;
    use crate::fused::{analyze_streams, test_readers};
    use crate::report::full_report;
    use sparqlog_parser::ErrorKind;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sparqlog-incremental-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CLEAN: [&str; 3] = [
        "SELECT ?x WHERE { ?x a <http://C> }",
        "ASK { <http://s> <http://p> <http://o> }",
        "DESCRIBE <http://r>",
    ];

    #[test]
    fn identities_separate_population_label_and_content() {
        let id = log_identity(Population::Unique, "a", b"xyz");
        assert_ne!(id, log_identity(Population::Valid, "a", b"xyz"));
        assert_ne!(id, log_identity(Population::Unique, "b", b"xyz"));
        assert_ne!(id, log_identity(Population::Unique, "a", b"xyw"));
        // Length-prefixed label: shifting bytes between label and content
        // changes the key.
        assert_ne!(
            log_identity(Population::Unique, "ab", b"c"),
            log_identity(Population::Unique, "a", b"bc")
        );
    }

    #[test]
    fn file_identity_matches_in_memory_identity() {
        let dir = scratch("file-id");
        let path = dir.join("log");
        std::fs::write(&path, b"some log bytes\nmore\n").unwrap();
        assert_eq!(
            file_identity(Population::Unique, "lbl", &path).unwrap(),
            log_identity(Population::Unique, "lbl", b"some log bytes\nmore\n")
        );

        // Past several read chunks, with the 12-byte header leaving every
        // read a partial block to carry: one flipped byte on either side of
        // the chunk edge, or at either end, must change the identity.
        let mut bytes: Vec<u8> = (0..200_001u32).map(|i| (i * 31 % 251) as u8).collect();
        let identity = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let from_file = file_identity(Population::Valid, "lbl", &path).unwrap();
            assert_eq!(from_file, log_identity(Population::Valid, "lbl", bytes));
            from_file
        };
        let original = identity(&bytes);
        let last = bytes.len() - 1;
        for offset in [0, IDENTITY_CHUNK - 1, IDENTITY_CHUNK, last] {
            bytes[offset] ^= 0x40;
            assert_ne!(identity(&bytes), original, "flip at {offset}");
            bytes[offset] ^= 0x40;
        }
        assert_eq!(identity(&bytes), original);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_identity_is_pinned() {
        // Store keys are persisted: changing how an identity is computed
        // orphans every stored snapshot, so it must be a deliberate edit
        // here. (Cross-checked against an independent transcription.)
        assert_eq!(
            log_identity(Population::Unique, "lbl", b"some log bytes\nmore\n"),
            0x676b_e95e_a051_769e_a000_ddce_0268_d7df
        );
    }

    #[test]
    fn log_identity_of_a_wide_log_is_pinned() {
        // Past 256 hashed bytes the identity takes the four-lane path of
        // `hash128`: this key pins that path, cross-checked against the same
        // independent transcription.
        let log: Vec<u8> = (0..8)
            .flat_map(|i| {
                format!("SELECT ?x{i} WHERE {{ ?x{i} a <http://example.org/C{i}> }}\n").into_bytes()
            })
            .collect();
        assert_eq!(log.len(), 408);
        assert_eq!(
            log_identity(Population::Unique, "lbl", &log),
            0x47f4_6b2a_c830_71bb_86a2_7da7_f66b_24a4
        );
    }

    /// Three logs' fused results, shareable, and the fused report over them.
    fn fused_logs() -> (Vec<Arc<PersistedLog>>, String) {
        let readers = test_readers(&[
            ("alpha", &CLEAN),
            ("beta", &CLEAN[..2]),
            ("gamma", &["ASK { ?s ?p ?o }"]),
        ]);
        let fused = analyze_streams(readers, Population::Unique).unwrap();
        let report = full_report(&fused.corpus);
        let logs = fused.summaries.into_iter().zip(fused.corpus.datasets);
        let logs = logs.map(|(summary, analysis)| Arc::new(PersistedLog { summary, analysis }));
        (logs.collect(), report)
    }

    /// A log of `total` entries, `defects` of them invalid UTF-8.
    fn log_with(total: u64, defects: u64) -> Arc<PersistedLog> {
        let mut summary = LogSummary {
            label: "log".to_string(),
            counts: CorpusCounts {
                total,
                ..CorpusCounts::default()
            },
            errors: ErrorTally::default(),
        };
        for position in 0..defects {
            summary.errors.record(ErrorKind::InvalidUtf8, position);
        }
        Arc::new(PersistedLog {
            summary,
            analysis: DatasetAnalysis::default(),
        })
    }

    #[test]
    fn slots_refuse_bad_fills_and_name_the_first_empty_slot() {
        let (logs, _) = fused_logs();
        let mut slots = LogSlots::new(3, RecoveryPolicy::Lenient);
        let mut fill = |index, log: &Arc<PersistedLog>| slots.fill(index, Arc::clone(log));
        assert_eq!(fill(3, &logs[0]), Err(Refused::OutOfRange));
        assert_eq!(fill(0, &logs[0]), Ok(()));
        assert_eq!(fill(0, &logs[1]), Err(Refused::Filled));
        assert_eq!(fill(2, &logs[2]), Ok(()));
        // The refused fills changed nothing; the corpus skips the gap.
        assert_eq!(slots.filled(), 2);
        let expected = [&logs[0], &logs[2]].map(|log| log.analysis.clone());
        assert_eq!(
            slots.corpus(),
            CorpusAnalysis::from_datasets(expected.into())
        );
        assert_eq!(slots.into_parts().unwrap_err(), 1);
    }

    #[test]
    fn any_fill_order_renders_the_fused_report() {
        let (logs, reference) = fused_logs();
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut slots = LogSlots::new(3, RecoveryPolicy::Strict);
            for index in order {
                assert_eq!(slots.fill(index, Arc::clone(&logs[index])), Ok(()));
            }
            assert!(slots.is_full());
            assert_eq!(full_report(&slots.corpus()), reference, "{order:?}");
            let (summaries, corpus) = slots.into_parts().unwrap();
            assert_eq!(full_report(&corpus), reference, "{order:?}");
            assert!(summaries.iter().eq(logs.iter().map(|log| &log.summary)));
        }
    }

    #[test]
    fn the_budget_is_metered_once_over_stored_and_fresh_results() {
        // The stored log has 1 defect in 2 entries, the fresh one 0 in 2:
        // 2500 per 10k over the run, 5000 over the stored log alone.
        let store = std::collections::HashMap::from([(7u128, log_with(2, 1))]);
        for (max_per_10k, passes) in [(2500, true), (2499, false)] {
            let policy = RecoveryPolicy::ErrorBudget { max_per_10k };
            let hit = store.get(&7).filter(|hit| hit.usable_under(policy));
            let hit = hit.expect("a budget recovers, so a defective hit is usable");
            let mut slots = LogSlots::new(2, policy);
            // Not judged until the last slot fills.
            assert_eq!(slots.fill(0, Arc::clone(hit)), Ok(()));
            assert_eq!(slots.over_budget(), None);
            assert_eq!(slots.fill(1, log_with(2, 0)), Ok(()));
            assert_eq!(slots.errors().total(), 1);
            match slots.over_budget() {
                None => assert!(passes, "budget {max_per_10k} passed"),
                Some(error) => {
                    assert!(!passes, "budget {max_per_10k} failed");
                    assert_eq!((error.defects, error.total), (1, 4));
                    assert_eq!(error.tally, *slots.errors());
                }
            }
        }
        assert!(!log_with(2, 1).usable_under(RecoveryPolicy::Strict));
        assert!(log_with(2, 0).usable_under(RecoveryPolicy::Strict));
    }
}
