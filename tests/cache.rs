//! The fingerprint-keyed analysis cache and the interned-term allocation
//! diet: differential proof that cache-on vs cache-off (and interned vs
//! string-term) runs render byte-identical reports, duplicate handling at
//! shard boundaries, cross-call cache reuse, and the commutative merge.

use proptest::prelude::*;
use sparqlog::core::analysis::{CachePolicy, EngineOptions};
use sparqlog::core::baseline::analyze_multiwalk;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{ingest_all, IngestedLog, RawLog};
use sparqlog::core::report::full_report;
use sparqlog::core::{CorpusAnalysis, Population, QueryAnalysis};
use sparqlog::synth::{generate_single_day_log, Dataset, DatasetProfile, Synthesizer};

fn cached_options() -> EngineOptions {
    EngineOptions {
        recovery: Default::default(),
        cache: CachePolicy::Enabled,
        ..EngineOptions::default()
    }
}

fn uncached_options() -> EngineOptions {
    EngineOptions {
        recovery: Default::default(),
        cache: CachePolicy::Disabled,
        ..EngineOptions::default()
    }
}

/// A fixed duplicate-heavy corpus: three synthesized day logs, each tiled
/// three times so every canonical form occurs at least three times.
fn duplicate_heavy_corpus() -> Vec<IngestedLog> {
    let mut raw = Vec::new();
    for (i, dataset) in [Dataset::DBpedia15, Dataset::WikiData17, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 80, 400 + i as u64);
        let mut entries = Vec::new();
        for _ in 0..3 {
            entries.extend(day.entries.iter().cloned());
        }
        raw.push(RawLog::new(day.dataset.label(), entries));
    }
    ingest_all(&raw)
}

#[test]
fn cache_on_and_cache_off_reports_are_byte_identical_on_a_fixed_corpus() {
    let logs = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let (cached, stats) = CorpusAnalysis::analyze_stats(&logs, population, cached_options());
        let (uncached, _) = CorpusAnalysis::analyze_stats(&logs, population, uncached_options());
        assert_eq!(
            full_report(&cached),
            full_report(&uncached),
            "cache-on vs cache-off report mismatch on {population:?}"
        );
        // The debug representation (every tally field) must agree too.
        assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
        let cache_stats = stats.cache.expect("cached run reports cache stats");
        if population == Population::Valid {
            assert!(cache_stats.hits > 0, "duplicates must hit the cache");
        }
        assert!(stats.interner.bytes_saved > 0, "interner must save bytes");
    }
}

#[test]
fn interned_term_analysis_matches_the_string_term_baseline() {
    // The baseline multi-walk path compares projection and visibility on
    // strings and hands the canonical graph a throwaway interner per query;
    // the engine threads one long-lived interner per worker through all of
    // it. Byte-identical corpus reports prove no result depends on the
    // interner's state.
    let logs = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = analyze_multiwalk(&logs, population);
        let (interned, _) = CorpusAnalysis::analyze_stats(&logs, population, cached_options());
        assert_eq!(
            format!("{reference:?}"),
            format!("{interned:?}"),
            "interned vs string-term mismatch on {population:?}"
        );
    }
}

#[test]
fn shared_cache_survives_the_population_switch_and_duplicates_across_logs() {
    let logs = duplicate_heavy_corpus();
    let cache = AnalysisCache::new();
    let (valid_run, _) =
        CorpusAnalysis::analyze_cached(&logs, Population::Valid, EngineOptions::default(), &cache);
    let after_valid = cache.stats();
    let (unique_run, _) =
        CorpusAnalysis::analyze_cached(&logs, Population::Unique, EngineOptions::default(), &cache);
    let after_unique = cache.stats();
    // Every unique-population query is a canonical form the Valid run
    // already memoized: the switch must not analyse anything new.
    assert_eq!(after_valid.misses, after_unique.misses);
    assert_eq!(after_valid.distinct, after_unique.distinct);
    assert!(after_unique.hits > after_valid.hits);
    // And the shared-cache runs agree with fresh uncached runs.
    let (valid_ref, _) =
        CorpusAnalysis::analyze_stats(&logs, Population::Valid, uncached_options());
    let (unique_ref, _) =
        CorpusAnalysis::analyze_stats(&logs, Population::Unique, uncached_options());
    assert_eq!(full_report(&valid_run), full_report(&valid_ref));
    assert_eq!(full_report(&unique_run), full_report(&unique_ref));
}

#[test]
fn duplicates_straddling_cache_shard_boundaries_are_memoized_once() {
    // Single-shard and many-shard caches must agree: a fingerprint's shard
    // assignment never affects what is memoized.
    let logs = duplicate_heavy_corpus();
    let lookups: u64 = logs.iter().map(|l| l.counts.valid).sum();
    let single = AnalysisCache::with_shards(1);
    let many = AnalysisCache::with_shards(64);
    for cache in [&single, &many] {
        CorpusAnalysis::analyze_cached(&logs, Population::Valid, EngineOptions::default(), cache);
        // Every valid occurrence is exactly one lookup. Exact hit counts are
        // schedule-dependent under concurrency (a cold fingerprint may be
        // analysed by two racing workers), but the duplicate-dominated shape
        // is not: hits must far exceed the distinct-form count.
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        assert!(stats.hits > stats.distinct);
    }
    assert_eq!(single.len(), many.len());
    for log in &logs {
        for &fp in &log.fingerprints {
            let a = single.get(fp).expect("memoized in the single shard");
            let b = many.get(fp).expect("memoized across 64 shards");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

#[test]
fn merged_worker_caches_serve_identical_lookups() {
    // Split the corpus in two, analyse each half into its own cache, merge
    // both ways: every fingerprint of the full corpus resolves identically.
    let logs = duplicate_heavy_corpus();
    let (first_half, second_half) = logs.split_at(1);
    let build = |part: &[IngestedLog]| {
        let cache = AnalysisCache::new();
        CorpusAnalysis::analyze_cached(part, Population::Valid, EngineOptions::default(), &cache);
        cache
    };
    let ab = build(first_half);
    ab.merge(build(second_half));
    let ba = build(second_half);
    ba.merge(build(first_half));
    assert_eq!(ab.len(), ba.len());
    for log in &logs {
        for &fp in &log.fingerprints {
            let a = ab.get(fp).expect("merged cache covers the corpus");
            let b = ba.get(fp).expect("merge is commutative");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache-on and cache-off reports agree on any synthesized corpus, for
    /// any worker count and chunk size, on both populations.
    #[test]
    fn cached_reports_match_uncached_on_synthesized_corpora(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        workers in 1usize..5,
        chunk_size in 0usize..16,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..40).map(|_| synth.fresh_query()).collect();
        // Force duplicates, including across what will be chunk boundaries.
        let tiled: Vec<String> = entries.iter().take(20).cloned().collect();
        entries.extend(tiled);
        entries.push("garbage entry".to_string());
        let logs = ingest_all(&[RawLog::new("prop", entries)]);
        for population in [Population::Unique, Population::Valid] {
            let cached = CorpusAnalysis::analyze_with(
                &logs,
                population,
                EngineOptions { workers, chunk_size, cache: CachePolicy::Enabled, recovery: Default::default() },
            );
            let uncached = CorpusAnalysis::analyze_with(
                &logs,
                population,
                EngineOptions { workers: 1, chunk_size: 0, cache: CachePolicy::Disabled, recovery: Default::default() },
            );
            prop_assert_eq!(
                full_report(&cached),
                full_report(&uncached),
                "cache differential diverged: {:?}, {} workers, chunk {}",
                population, workers, chunk_size
            );
        }
    }

    /// The memoized record equals a fresh analysis for every query the
    /// synthesizer produces — the per-query version of the differential.
    #[test]
    fn memoized_record_equals_fresh_analysis(seed in 0u64..5_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let cache = AnalysisCache::with_shards(4);
        for _ in 0..8 {
            let text = synth.fresh_query();
            let query = sparqlog::parser::parse_query(&text).expect("synthesized queries parse");
            let fp = sparqlog::parser::canonical_fingerprint_of(&query);
            let memoized = cache.get_or_insert_with(fp, || QueryAnalysis::of(&query));
            let fresh = QueryAnalysis::of(&query);
            prop_assert_eq!(
                format!("{:?}", memoized),
                format!("{fresh:?}"),
                "memoized record diverges for {}", text
            );
        }
    }
}
