//! The fingerprint-keyed analysis cache: each distinct canonical form is
//! analysed exactly once per corpus run.
//!
//! The source paper's central empirical fact is massive duplication in real
//! SPARQL logs — most entries repeat earlier queries. Re-running the full
//! [`QueryAnalysis`] (AST walk, canonical-graph construction, shape /
//! treewidth classification) per occurrence would waste almost all of the
//! analysis time, so the engine memoizes the per-query record under the
//! 128-bit canonical fingerprint it already computes for duplicate
//! elimination: duplicate occurrences — within a log, across logs, and
//! across the Unique/Valid population switch — never reach the analyser.
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
//! The cache is **range-partitioned by the fingerprint's top bits** into
//! lock-striped shards: concurrent workers only contend when they touch the
//! same shard, any single rehash stays O(shard), and two caches (e.g. from
//! different processes) combine with a commutative shard-wise
//! [`merge`](AnalysisCache::merge).
//!
//! ```
//! use sparqlog_core::cache::AnalysisCache;
//! use sparqlog_core::corpus::{analyze_streams_cached, FusedOptions, LogReader, MemoryLogReader};
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
//! let cache = AnalysisCache::new();
//! let fused =
//!     analyze_streams_cached(readers, Population::Valid, FusedOptions::default(), &cache)?;
//! assert_eq!(fused.corpus.combined.keywords.total_queries, 3); // occurrences still count
//! let stats = cache.stats();
//! assert_eq!((stats.distinct, stats.hits), (2, 1)); // but one analysis was reused
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::corpus::FingerprintBuildHasher;
use crate::query_analysis::QueryAnalysis;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default shard count for [`AnalysisCache`].
const CACHE_SHARDS: usize = 16;

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

/// One lock-striped shard: the memo table plus its hit/miss counters.
#[derive(Debug, Default)]
struct CacheShard {
    map: Mutex<HashMap<u128, Arc<QueryAnalysis>, FingerprintBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A sharded, concurrent memo table mapping canonical fingerprints to their
/// [`QueryAnalysis`] records (see the [module docs](self) for the design and
/// the soundness argument).
#[derive(Debug)]
pub struct AnalysisCache {
    shards: Vec<CacheShard>,
    bits: u32,
}

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache::with_shards(CACHE_SHARDS)
    }
}

impl AnalysisCache {
    /// Creates a cache with the default shard count.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Creates a cache with `shard_count` shards, rounded up to a power of
    /// two (minimum 1).
    pub fn with_shards(shard_count: usize) -> AnalysisCache {
        let count = shard_count.max(1).next_power_of_two();
        AnalysisCache {
            shards: (0..count).map(|_| CacheShard::default()).collect(),
            bits: count.trailing_zeros(),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint belongs to (its top bits).
    pub fn shard_of(&self, fingerprint: u128) -> usize {
        if self.bits == 0 {
            0
        } else {
            (fingerprint >> (128 - self.bits)) as usize
        }
    }

    /// Returns the memoized analysis for `fingerprint`, or computes it with
    /// `analyze` and memoizes the result.
    ///
    /// The shard lock is **not** held while `analyze` runs, so two workers
    /// hitting the same cold fingerprint may both compute it; the first
    /// insert wins and both fold identical records, keeping reports
    /// deterministic for any schedule.
    pub fn get_or_insert_with(
        &self,
        fingerprint: u128,
        analyze: impl FnOnce() -> QueryAnalysis,
    ) -> Arc<QueryAnalysis> {
        let shard = &self.shards[self.shard_of(fingerprint)];
        if let Some(hit) = shard
            .map
            .lock()
            .expect("analysis cache shard lock")
            .get(&fingerprint)
        {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Counted once the analysis exists: if `analyze` panics the caller
        // tallies the entry as a defect, not as a valid occurrence, and
        // `hits + misses` must keep equalling the valid occurrences.
        let computed = Arc::new(analyze());
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.map.lock().expect("analysis cache shard lock");
        Arc::clone(map.entry(fingerprint).or_insert(computed))
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

    /// The memoized analysis for a fingerprint, if present. Does not count as
    /// a hit or a miss.
    pub fn get(&self, fingerprint: u128) -> Option<Arc<QueryAnalysis>> {
        self.shards[self.shard_of(fingerprint)]
            .map
            .lock()
            .expect("analysis cache shard lock")
            .get(&fingerprint)
            .cloned()
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

    /// Merges another cache into this one (shard-wise map union keeping
    /// existing entries, counters summed). Entries under the same
    /// fingerprint are interchangeable — they memoize the same canonical
    /// form — so the merge is commutative: merging per-process caches in any
    /// order yields a cache serving identical lookups. This is the
    /// cross-process reuse hook for a future sharded deployment.
    pub fn merge(&self, other: AnalysisCache) {
        for other_shard in other.shards {
            self.shards[0]
                .hits
                .fetch_add(other_shard.hits.load(Ordering::Relaxed), Ordering::Relaxed);
            self.shards[0].misses.fetch_add(
                other_shard.misses.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
            let entries = other_shard
                .map
                .into_inner()
                .expect("analysis cache shard lock");
            for (fingerprint, analysis) in entries {
                self.shards[self.shard_of(fingerprint)]
                    .map
                    .lock()
                    .expect("analysis cache shard lock")
                    .entry(fingerprint)
                    .or_insert(analysis);
            }
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
        let cache = AnalysisCache::with_shards(4);
        let a = cache.get_or_insert_with(7, || qa("SELECT ?x WHERE { ?x a <http://C> }"));
        let b = cache.get_or_insert_with(7, || panic!("must be served from the cache"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.distinct), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        assert!(cache.get(7).is_some());
        assert!(cache.get(8).is_none());
    }

    #[test]
    fn shard_boundary_fingerprints_land_in_distinct_shards() {
        let cache = AnalysisCache::with_shards(4);
        assert_eq!(cache.shard_of(0), 0);
        assert_eq!(cache.shard_of(u128::MAX), 3);
        // Fingerprints straddling a shard boundary stay distinct entries.
        let low = (1u128 << 126) - 1; // last fingerprint of shard 0
        let high = 1u128 << 126; // first fingerprint of shard 1
        cache.get_or_insert_with(low, || qa("ASK { ?x <http://p> ?y }"));
        cache.get_or_insert_with(high, || qa("ASK { ?x <http://q> ?y }"));
        assert_eq!(cache.shard_of(low), 0);
        assert_eq!(cache.shard_of(high), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let queries = [
            "SELECT ?x WHERE { ?x a <http://C> }",
            "ASK { ?x <http://p> ?y }",
            "DESCRIBE <http://r>",
            "SELECT ?x WHERE { ?x <http://p> <http://const> }",
        ];
        let build = |indices: &[usize]| {
            let cache = AnalysisCache::with_shards(4);
            for &i in indices {
                // Spread the keys over every shard.
                let fp = (i as u128) << 126 | i as u128;
                cache.get_or_insert_with(fp, || qa(queries[i]));
            }
            cache
        };
        let ab = build(&[0, 1]);
        ab.merge(build(&[2, 3, 0]));
        let ba = build(&[2, 3, 0]);
        ba.merge(build(&[0, 1]));
        assert_eq!(ab.len(), 4);
        assert_eq!(ab.len(), ba.len());
        for i in 0..queries.len() {
            let fp = (i as u128) << 126 | i as u128;
            let left = ab.get(fp).expect("entry present after merge");
            let right = ba.get(fp).expect("entry present after merge");
            assert_eq!(format!("{left:?}"), format!("{right:?}"), "fingerprint {i}");
        }
    }
}
