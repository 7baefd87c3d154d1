//! The fingerprint-keyed analysis cache: each distinct canonical form is
//! analysed exactly once per corpus run, and each distinct analysis record
//! is kept once.
//!
//! The source paper's central empirical fact is massive duplication in real
//! SPARQL logs — most entries repeat earlier queries. Re-running the full
//! [`QueryAnalysis`] (AST walk, canonical-graph construction, shape /
//! treewidth classification) per occurrence would waste almost all of the
//! analysis time, so the engine memoizes the per-query record under the
//! 128-bit canonical fingerprint it already computes for duplicate
//! elimination: duplicate occurrences — within a log and across logs —
//! never reach the analyser. The engine creates one cache per run and drops
//! it with the run, so what the cache holds is what the run saw.
//!
//! **Soundness.** The cache key is exactly the dedup key: two queries share a
//! fingerprint iff they share a canonical form (modulo the same 128-bit
//! FNV-1a collision probability the Table-1 "Unique" numbers already accept),
//! and every measure [`QueryAnalysis::of_ref`] computes is a function of the
//! canonical form — the only AST content canonicalization erases is the
//! prologue, which no analysis reads. Caching therefore cannot change any
//! report. Both halves are tested in `tests/cache.rs`: respelled queries
//! with equal fingerprints have equal analyses, and the engine's reports
//! equal those of the oracle ([`crate::baseline::analyze_reference`]), which
//! analyses every occurrence from scratch.
//!
//! The engine applies the same argument one level down. In front of the
//! parser each worker keeps a small entry memo ([`crate::fused`]) keyed by a
//! 128-bit hash of the entry's *bytes*, or of its *token stream*, and
//! holding what that key decides — the fingerprint, or a plain lex/syntax
//! failure. Equal bytes ⇒ equal tokens ⇒ equal parse ⇒ equal fingerprint,
//! modulo the same 128-bit accidental-collision probability accepted above
//! (neither hash is built to resist an adversary who crafts collisions).
//! Outcomes that depend on more than the bytes — resource guards, the panic drill, anything the
//! run's policy makes fatal — are never held there, and a memoized
//! fingerprint is only counted when its record is known to exist here. The
//! oracle has no memo either, so every engine-vs-oracle differential is this
//! memo's differential too; `tests/cache.rs` adds the cases that target it
//! (byte-identical, respelled and invalid repeats, slot thrashing, repeated
//! defects).
//!
//! **Analysis classes.** A record holds only Table 2–4 outcomes — keyword
//! and operator sets, a shape, a few widths and counts — so distinct forms
//! share records heavily: on the seed-1 synthetic corpora the 18 756 forms
//! of an all-distinct run have 2 742 distinct records, and the 7 827 of a
//! duplicate-heavy one 102. The cache keeps each distinct record once, as a
//! *class*: a shard maps a fingerprint to a [`ClassId`] (a `u32`), and one
//! class table holds each record once behind an `Arc`, with an index from
//! record to id. A class is an equality class of records under their
//! derived `Eq`, so the record of a class *is* the record of every
//! fingerprint in it — nothing a report reads can tell two members apart.
//! The engine therefore folds once per (log, class), with the summed
//! weight of the class's fingerprints in that log. That collapse is sound
//! because [`DatasetAnalysis::add_times`](crate::DatasetAnalysis::add_times)
//! is linear in its weight — `add_times(r, a)` then `add_times(r, b)`
//! equals `add_times(r, a + b)`, since both equal `a + b` single folds
//! (`tests/fused.rs::weighted_fold_equals_repeated_folds`) — and every fold
//! is a commutative sum or an idempotent extremum, so the order of classes
//! does not matter either. Ids are handed out in interning order, which
//! depends on the schedule; they never leave a run: no report, summary,
//! stats record, wire frame or store record holds one (`tests/cache.rs`
//! runs the same logs in two orders to show it).
//!
//! The cache is **range-partitioned by the fingerprint's top bits** into 16
//! lock-striped shards: concurrent workers only contend when they touch the
//! same shard, and any single rehash stays O(shard). A cache lives in one
//! run of one process: the shard coordinator and the daemon's job table
//! combine the runs' [`CacheStats`], never their caches.
//!
//! ```
//! use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
//! use sparqlog_core::Population;
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "SELECT   ?x WHERE { ?x a <http://example.org/C> }".to_string(), // duplicate
//!         "ASK { ?x <http://example.org/p> ?y }".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams(readers, Population::Valid)?;
//! assert_eq!(fused.corpus.combined.keywords.total_queries, 3); // occurrences still count
//! let stats = fused.stats.cache.expect("every run has a cache");
//! assert_eq!((stats.distinct, stats.hits), (2, 1)); // but one analysis was reused
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::corpus::{FingerprintBuildHasher, RecordBuildHasher};
use crate::query_analysis::QueryAnalysis;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The shard count of every [`AnalysisCache`] (a power of two).
const CACHE_SHARDS: usize = 16;

/// The id of an analysis class: the index of one distinct
/// [`QueryAnalysis`] record in an [`AnalysisCache`]'s class table. Ids are
/// dense and handed out in interning order, so they depend on the schedule
/// and mean something only next to the cache that issued them.
pub type ClassId = u32;

sparqlog_algebra::tally! {
    /// Cumulative counters of an [`AnalysisCache`]: how many lookups were served
    /// from the cache, how many had to analyse, and how many distinct canonical
    /// forms the cache holds.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheStats {
        /// Lookups that found a memoized analysis.
        sum pub hits: u64,
        /// Lookups that analysed the query (first occurrence of a fingerprint —
        /// or, rarely, a concurrent re-analysis that lost the insert race; the
        /// winning record is identical either way).
        sum pub misses: u64,
        /// Distinct canonical forms currently memoized.
        sum pub distinct: u64,
    }
}

impl CacheStats {
    /// The share of lookups served from the cache — the corpus duplication
    /// rate as seen by the analysis engine.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One lock-striped shard: fingerprint → class, plus its hit/miss counters.
#[derive(Debug, Default)]
struct CacheShard {
    map: Mutex<HashMap<u128, ClassId, FingerprintBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Every distinct record once: class `id` is `records[id]`, and `ids`
/// finds the class of a record.
#[derive(Debug, Default)]
struct ClassTable {
    records: Vec<Arc<QueryAnalysis>>,
    ids: HashMap<Arc<QueryAnalysis>, ClassId, RecordBuildHasher>,
}

/// A sharded, concurrent memo table mapping canonical fingerprints to the
/// classes of their [`QueryAnalysis`] records, with one table holding each
/// class's record once (see the [module docs](self) for the design and the
/// soundness argument).
#[derive(Debug)]
pub struct AnalysisCache {
    shards: [CacheShard; CACHE_SHARDS],
    classes: Mutex<ClassTable>,
}

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache {
            shards: std::array::from_fn(|_| CacheShard::default()),
            classes: Mutex::default(),
        }
    }
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The shard a fingerprint belongs to (its top bits).
    fn shard_of(fingerprint: u128) -> usize {
        (fingerprint >> (128 - CACHE_SHARDS.trailing_zeros())) as usize
    }

    /// Returns the memoized class of `fingerprint`, or computes its record
    /// with `analyze`, interns it and memoizes the class.
    ///
    /// No lock is held while `analyze` runs, so two workers hitting the same
    /// cold fingerprint may both compute it; their records are equal, so
    /// they intern to one class, and the first insert wins either way —
    /// reports stay deterministic for any schedule.
    pub fn class_or_insert_with(
        &self,
        fingerprint: u128,
        analyze: impl FnOnce() -> QueryAnalysis,
    ) -> ClassId {
        let shard = &self.shards[Self::shard_of(fingerprint)];
        if let Some(&class) = shard
            .map
            .lock()
            .expect("analysis cache shard lock")
            .get(&fingerprint)
        {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return class;
        }
        // Counted once the analysis exists: if `analyze` panics the caller
        // tallies the entry as a defect, not as a valid occurrence, and
        // `hits + misses` must keep equalling the valid occurrences.
        let class = self.intern(analyze());
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.map.lock().expect("analysis cache shard lock");
        *map.entry(fingerprint).or_insert(class)
    }

    /// The class of `record`, made if the table has no equal record. Holds
    /// only the table's lock, for one probe (two on a new class); a
    /// duplicate record is dropped after the lock is released.
    fn intern(&self, record: QueryAnalysis) -> ClassId {
        let mut table = self.classes.lock().expect("analysis class table lock");
        if let Some(&class) = table.ids.get(&record) {
            return class;
        }
        let class = ClassId::try_from(table.records.len()).expect("fewer than 2³² classes");
        let record = Arc::new(record);
        table.records.push(Arc::clone(&record));
        table.ids.insert(record, class);
        class
    }

    /// Records `occurrences` additional cache hits that were served without
    /// touching the shared table at all.
    ///
    /// The fused streaming engine ([`crate::fused`]) folds duplicates
    /// occurrence-weighted: workers count occurrences in lock-free local
    /// maps and consult the shared cache only once per distinct form per
    /// worker, so the hit/miss counters alone would not reflect the corpus
    /// duplication rate. Crediting the locally absorbed occurrences here keeps
    /// `hits + misses ==` total valid-occurrence lookups — the invariant
    /// the observability tests and harness banners rely on.
    pub fn record_reused(&self, occurrences: u64) {
        self.shards[0]
            .hits
            .fetch_add(occurrences, Ordering::Relaxed);
    }

    /// The memoized class of a fingerprint, if present. Does not count as a
    /// hit or a miss.
    pub fn class_of(&self, fingerprint: u128) -> Option<ClassId> {
        self.shards[Self::shard_of(fingerprint)]
            .map
            .lock()
            .expect("analysis cache shard lock")
            .get(&fingerprint)
            .copied()
    }

    /// The memoized analysis for a fingerprint, if present. Does not count as
    /// a hit or a miss.
    pub fn get(&self, fingerprint: u128) -> Option<Arc<QueryAnalysis>> {
        let class = self.class_of(fingerprint)?;
        let table = self.classes.lock().expect("analysis class table lock");
        Some(Arc::clone(&table.records[class as usize]))
    }

    /// Every class's record, indexed by [`ClassId`]: one lock, one `Arc`
    /// clone per class. A class issued before the call is in the result.
    pub fn records(&self) -> Vec<Arc<QueryAnalysis>> {
        self.classes
            .lock()
            .expect("analysis class table lock")
            .records
            .clone()
    }

    /// Number of distinct canonical forms memoized.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("analysis cache shard lock").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cumulative hit/miss counters and the entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self
                .shards
                .iter()
                .map(|s| s.hits.load(Ordering::Relaxed))
                .sum(),
            misses: self
                .shards
                .iter()
                .map(|s| s.misses.load(Ordering::Relaxed))
                .sum(),
            distinct: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qa(text: &str) -> QueryAnalysis {
        QueryAnalysis::of_text(text).unwrap()
    }

    #[test]
    fn memoizes_per_fingerprint_and_counts_hits() {
        let cache = AnalysisCache::new();
        let a = cache.class_or_insert_with(7, || qa("SELECT ?x WHERE { ?x a <http://C> }"));
        let b = cache.class_or_insert_with(7, || panic!("must be served from the cache"));
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.distinct), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(cache.class_of(7), Some(a));
        assert!(cache.get(7).is_some());
        assert!(cache.get(8).is_none());
        assert_eq!(cache.class_of(8), None);
    }

    #[test]
    fn equal_records_share_one_class_and_unequal_records_never_do() {
        let cache = AnalysisCache::new();
        // Two canonical forms (other constants, other variable names) with
        // one record; and one more triple, which is another record.
        let texts = [
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT ?y WHERE { ?y a <http://D> }",
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?z }",
        ];
        let fingerprints = [1u128 << 126, 3u128 << 126, 5];
        let classes: Vec<ClassId> = texts
            .iter()
            .zip(fingerprints)
            .map(|(text, fp)| cache.class_or_insert_with(fp, || qa(text)))
            .collect();
        assert_eq!(classes, [0, 0, 1]);
        let [a, b, c] = fingerprints.map(|fp| cache.get(fp).expect("memoized"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a, c);
        assert_eq!(*a, qa(texts[1]));
        assert_eq!(cache.records().len(), 2);
        // Forms, not classes, are what the cache counts.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().distinct, 3);
    }

    #[test]
    fn shard_boundary_fingerprints_land_in_distinct_shards() {
        let cache = AnalysisCache::new();
        assert_eq!(AnalysisCache::shard_of(0), 0);
        assert_eq!(AnalysisCache::shard_of(u128::MAX), CACHE_SHARDS - 1);
        // Fingerprints straddling a shard boundary stay distinct entries.
        let low = (1u128 << 124) - 1; // last fingerprint of shard 0
        let high = 1u128 << 124; // first fingerprint of shard 1
        cache.class_or_insert_with(low, || qa("ASK { ?x <http://p> ?y }"));
        cache.class_or_insert_with(high, || qa("ASK { ?x <http://q> ?y }"));
        assert_eq!(AnalysisCache::shard_of(low), 0);
        assert_eq!(AnalysisCache::shard_of(high), 1);
        assert_eq!(cache.len(), 2);
    }
}
