//! The engine: one fused ingest→analyze pass in which each batch is
//! analysed as it parses and no query AST outlives its batch.
//!
//! [`analyze_streams`] runs one self-scheduling worker pool: workers pull
//! batches from [`LogReader`]s and resolve every entry to an occurrence of a
//! canonical form (or to a tallied error) at the cheapest level that knows
//! it. An entry meets one of three fates:
//!
//! * a **memo hit** — these exact bytes were resolved by this worker
//!   before. A fixed-size, direct-mapped, per-worker entry memo maps a
//!   128-bit hash of the raw bytes ([`hash128`]) to what the bytes alone
//!   decide: the canonical fingerprint of a valid entry, or the `Lex` /
//!   `Syntax` kind of an invalid one. The entry is counted (or tallied at
//!   its own position) without being lexed, parsed or fingerprinted. Real
//!   logs repeat byte-identical lines far more often than they respell a
//!   query, so this is the common case on the paper's corpora;
//! * a **duplicate form** — new bytes, known canonical form (a respelling,
//!   or a line another worker or an evicted slot saw). The entry is parsed
//!   into the worker's arena and fingerprinted by streaming the canonical
//!   walk into a 128-bit FNV-1a state (no canonical string is built); the
//!   fingerprint bumps a lock-free per-worker occurrence counter and the
//!   AST is dropped right there — never pushed into a corpus-wide vec,
//!   never re-folded;
//! * a **first occurrence** — parsed and fingerprinted as above, then
//!   analysed on the spot (one [`QueryAnalysis`] through the worker's term
//!   [`Interner`](sparqlog_parser::intern)) and memoized in the shared
//!   [`AnalysisCache`] under its fingerprint — only the fingerprint and the
//!   analysis survive.
//!
//! The memo holds only outcomes that are functions of the bytes: resource
//! guard trips, caught panics and anything fatal under
//! [`RecoveryPolicy::Strict`] always take the guarded parse, and a valid hit
//! is used only when the form's record is already known to exist. It is
//! always on, has one size ([`ENTRY_MEMO_SLOTS`]) and overwrites on
//! collision, so it can forget but never mislead: a forgotten line is a
//! duplicate form again.
//!
//! After the stream drains, per-worker occurrence maps merge into per-log
//! [`LogSummary`] records (Table-1 counts plus the distinct fingerprints
//! with their occurrence counts), and one **occurrence-weighted fold**
//! ([`DatasetAnalysis::add_times`]) builds the corpus analysis: the Unique
//! population folds each distinct fingerprint once per log, the Valid
//! population folds it with its occurrence count. Peak residency is
//! O(in-flight batches + distinct analyses), and each worker holds at most
//! one AST at a time.
//!
//! **Determinism and parity.** Every fold is a commutative sum or an
//! idempotent extremum over exact integers, so reports are byte-identical
//! for any worker count, batch size or schedule — and byte-identical to
//! the sequential oracle [`crate::baseline::analyze_reference`], which
//! shares nothing with this module above the guarded per-entry parse and
//! the tallies, and has no memo of either kind
//! (`tests/{differential,fused,cache}.rs`). The soundness of folding a
//! memoized record for every occurrence is the cache-key argument of
//! [`crate::cache`]: the fingerprint *is* the canonical form — and one level
//! down, equal bytes parse equally.
//!
//! ```
//! use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
//! use sparqlog_core::{report, Population};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "SELECT   ?x WHERE { ?x a <http://example.org/C> }".to_string(), // duplicate
//!         "ASK { ?x <http://example.org/p> ?y }".to_string(),
//!         "not a query".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams(readers, Population::Valid).expect("in-memory streams");
//! assert_eq!(fused.summaries[0].counts.valid, 3);
//! assert_eq!(fused.summaries[0].counts.unique, 2);
//! assert_eq!(fused.corpus.combined.keywords.total_queries, 3);
//! println!("{}", report::table1(&fused.corpus));
//! ```

use crate::analysis::{
    chunked_fold_pool, AnalysisStats, CorpusAnalysis, DatasetAnalysis, Population,
};
use crate::cache::AnalysisCache;
use crate::corpus::{
    clamp_workers, default_workers, BatchSource, CorpusCounts, FingerprintBuildHasher, LogReader,
    INGEST_CHUNK,
};
use crate::query_analysis::QueryAnalysis;
use crate::recover::{enforce_budget, ErrorTally, RecoveryContext, RecoveryPolicy};
use serde::{Deserialize, Serialize};
use sparqlog_obs as obs;
use sparqlog_parser::bytescan::hash128;
use sparqlog_parser::intern::{InternStats, Interner};
use sparqlog_parser::{canonical_fingerprint_of_ref, Arena, ErrorKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for the fused engine. The report never depends on them —
/// only the schedule and the memory profile do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedOptions {
    /// Worker threads; `0` uses [`default_workers`] (which honours the
    /// `SPARQLOG_WORKERS` environment override).
    pub workers: usize,
    /// Entries per batch pulled from a reader; `0` picks the default (512).
    pub batch: usize,
    /// What to do on defective entries (invalid UTF-8 lines, tripped
    /// resource guards, caught panics); see [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
}

impl FusedOptions {
    fn resolve(&self) -> (usize, usize) {
        (
            if self.workers > 0 {
                self.workers
            } else {
                default_workers()
            },
            if self.batch > 0 {
                self.batch
            } else {
                INGEST_CHUNK
            },
        )
    }
}

/// What the fused engine keeps per log instead of the ASTs: the Table-1
/// counts and the distinct canonical fingerprints with their occurrence
/// counts. Two summaries of the same log shards merge by summing matching
/// fingerprints, which is what a future cross-process deployment combines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogSummary {
    /// The dataset label.
    pub label: String,
    /// Table-1 counts (`unique` is the number of distinct fingerprints,
    /// `valid` the sum of their occurrence counts).
    pub counts: CorpusCounts,
    /// `(fingerprint, occurrences)` for every distinct canonical form, in
    /// ascending fingerprint order (deterministic for any schedule).
    pub occurrences: Vec<(u128, u64)>,
    /// The malformed-entry tally of this log: per-kind counts and the
    /// earliest offending entry positions, identical for every engine,
    /// worker count and batch schedule.
    pub errors: ErrorTally,
}

impl LogSummary {
    /// Merges another summary of the **same log** (e.g. one produced by a
    /// different process over a different slice of the log's entries):
    /// `total`, `valid` and `bodyless` add, matching fingerprints sum their
    /// occurrence counts, and `unique` is recomputed from the merged
    /// distinct set. The operation is commutative and keeps the sorted-order
    /// invariant of [`LogSummary::occurrences`], so per-shard summaries can
    /// be combined in any order with identical results — the cross-process
    /// merge hook of the `sparqlog-shard` subsystem.
    pub fn merge(&mut self, other: &LogSummary) {
        debug_assert_eq!(
            self.label, other.label,
            "LogSummary::merge combines shards of one log"
        );
        let mut merged = Vec::with_capacity(self.occurrences.len() + other.occurrences.len());
        let (mut left, mut right) = (self.occurrences.iter(), other.occurrences.iter());
        let (mut a, mut b) = (left.next(), right.next());
        loop {
            match (a, b) {
                (Some(&(fa, ca)), Some(&(fb, cb))) => {
                    if fa < fb {
                        merged.push((fa, ca));
                        a = left.next();
                    } else if fb < fa {
                        merged.push((fb, cb));
                        b = right.next();
                    } else {
                        merged.push((fa, ca + cb));
                        a = left.next();
                        b = right.next();
                    }
                }
                (Some(&pair), None) => {
                    merged.push(pair);
                    a = left.next();
                }
                (None, Some(&pair)) => {
                    merged.push(pair);
                    b = right.next();
                }
                (None, None) => break,
            }
        }
        self.occurrences = merged;
        self.counts.merge(&other.counts);
        self.counts.unique = self.occurrences.len() as u64;
        self.errors.merge(&other.errors);
    }

    /// The occurrence count of a fingerprint, or 0 if the log never saw it.
    pub fn occurrences_of(&self, fingerprint: u128) -> u64 {
        self.occurrences
            .binary_search_by_key(&fingerprint, |&(fp, _)| fp)
            .map(|i| self.occurrences[i].1)
            .unwrap_or(0)
    }
}

sparqlog_algebra::tally! {
    /// Residency observability of one fused run — evidence for the
    /// O(in-flight + distinct) memory claim. Never part of the corpus report.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct FusedStats {
        /// Batches pulled from the readers.
        sum pub batches: u64,
        /// The largest number of raw entries resident in worker batches at any
        /// instant — the in-flight bound (≤ workers × batch size). Each worker
        /// additionally holds at most **one** parsed AST at a time.
        max pub peak_inflight_entries: usize,
        /// Distinct canonical forms seen by *this run's* streams (what survives
        /// the stream) — not the size of the backing cache, which may carry
        /// entries from other corpora when the caller shares it across runs.
        sum pub distinct_forms: u64,
    }
}

/// The result of a fused run: per-log summaries (counts + fingerprints),
/// the corpus analysis over the requested population, and the run's
/// cache/interner/residency counters.
#[derive(Debug, Clone)]
pub struct FusedAnalysis {
    /// Per-log summaries, in reader order.
    pub summaries: Vec<LogSummary>,
    /// The corpus analysis over the requested population.
    pub corpus: CorpusAnalysis,
    /// Cache and interner counters of the run.
    pub stats: AnalysisStats,
    /// Residency counters of the run.
    pub fused: FusedStats,
}

/// Slots in each worker's entry memo. An entry's slot is the low bits of
/// [`hash128`] of its bytes; a slot is 32 bytes, so a worker's table is
/// 128 KiB, allocated zeroed and paged in only where entries land.
pub const ENTRY_MEMO_SLOTS: usize = 1 << 12;

/// What the bytes of an entry decide on their own, whatever the run's
/// policy: the canonical fingerprint of a valid entry, or the kind of a
/// plain lex/syntax failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryOutcome {
    Valid(u128),
    Invalid(ErrorKind),
}

/// The per-worker raw-entry memo: a direct-mapped table from the 128-bit
/// hash of an entry's bytes to its [`EntryOutcome`]. A collision overwrites;
/// there is no eviction bookkeeping.
///
/// A slot is `[tagged key, fingerprint]`. The key's two low bits are
/// replaced by the outcome tag (0 = empty, so an all-zero table is an empty
/// one); they are part of the slot index, so matching the tagged word in the
/// key's own slot still compares all 128 bits.
struct EntryMemo {
    slots: Vec<[u128; 2]>,
}

impl EntryMemo {
    const TAG_BITS: u128 = 0b11;
    const VALID: u128 = 1;
    const LEX: u128 = 2;
    const SYNTAX: u128 = 3;

    fn new() -> EntryMemo {
        EntryMemo {
            slots: vec![[0; 2]; ENTRY_MEMO_SLOTS],
        }
    }

    fn get(&self, key: u128) -> Option<EntryOutcome> {
        let [tagged, fingerprint] = self.slots[key as usize % ENTRY_MEMO_SLOTS];
        if (tagged ^ key) & !Self::TAG_BITS != 0 {
            return None;
        }
        match tagged & Self::TAG_BITS {
            Self::VALID => Some(EntryOutcome::Valid(fingerprint)),
            Self::LEX => Some(EntryOutcome::Invalid(ErrorKind::Lex)),
            Self::SYNTAX => Some(EntryOutcome::Invalid(ErrorKind::Syntax)),
            _ => None,
        }
    }

    /// Memoizes `outcome` if it is one the bytes decide (any other error
    /// kind is left to the guarded parse every time).
    fn put(&mut self, key: u128, outcome: EntryOutcome) {
        let (tag, fingerprint) = match outcome {
            EntryOutcome::Valid(fingerprint) => (Self::VALID, fingerprint),
            EntryOutcome::Invalid(ErrorKind::Lex) => (Self::LEX, 0),
            EntryOutcome::Invalid(ErrorKind::Syntax) => (Self::SYNTAX, 0),
            EntryOutcome::Invalid(_) => return,
        };
        self.slots[key as usize % ENTRY_MEMO_SLOTS] = [key & !Self::TAG_BITS | tag, fingerprint];
    }
}

/// A worker's occurrence counts for one log.
type OccurrenceMap = HashMap<u128, u64, FingerprintBuildHasher>;

/// Counts one occurrence of `fingerprint` in a worker's map for one log. A
/// key enters the map only once `record_exists` has said its analysis is in
/// the shared cache — by putting it there (a parsed entry) or by finding it
/// (a memo hit, which has no AST to analyse; `false` sends that entry down
/// the full path). The order matters: memoizing may panic inside the
/// analysis (the caller catches it and tallies the entry as a worker panic),
/// and a key must never sit in the map without a record behind it — the
/// epilogue fetches one for every key, and `counts.unique` is the number of
/// keys.
fn count_occurrence(
    map: &mut OccurrenceMap,
    fingerprint: u128,
    record_exists: impl FnOnce() -> bool,
) -> bool {
    match map.entry(fingerprint) {
        Entry::Occupied(mut count) => *count.get_mut() += 1,
        Entry::Vacant(vacancy) => {
            if !record_exists() {
                return false;
            }
            vacancy.insert(1);
        }
    }
    true
}

/// One worker's private state: lock-free per-log occurrence maps, the
/// raw-entry memo in front of the parser, the term interner threaded through
/// every analysis, the bump arena every AST is parsed into, and the number
/// of shared-cache consultations (first-local-occurrence lookups).
struct FusedWorker {
    counts: Vec<OccurrenceMap>,
    tallies: Vec<ErrorTally>,
    memo: EntryMemo,
    /// Entries looked up in the memo (all but the oversize ones), and how
    /// many of those it resolved.
    memo_probes: u64,
    memo_hits: u64,
    interner: Interner,
    arena: Arena,
    lookups: u64,
    /// Analyze-stage latency, recorded only on cache misses (first
    /// occurrence of a canonical form), so duplicates stay untimed.
    analyze_us: &'static obs::LatencyHistogram,
}

impl FusedWorker {
    fn new(log_count: usize) -> FusedWorker {
        FusedWorker {
            counts: (0..log_count).map(|_| HashMap::default()).collect(),
            tallies: vec![ErrorTally::default(); log_count],
            memo: EntryMemo::new(),
            memo_probes: 0,
            memo_hits: 0,
            interner: Interner::new(),
            arena: Arena::new(),
            lookups: 0,
            analyze_us: obs::global().histogram("pipeline_analyze_us"),
        }
    }

    /// Resolves one batch. An entry whose bytes the memo knows is counted or
    /// tallied from the memo alone. Every other entry's AST is
    /// bump-allocated into the worker's arena and lives exactly as long as
    /// this loop's iteration: the arena is reset before the next entry
    /// parses, so a first occurrence is analysed into the cache (fingerprint
    /// and analysis own their data), a duplicate only bumps the local
    /// counter, and steady-state parsing touches the global allocator only
    /// when a canonical form is new.
    ///
    /// Those entries parse through the shared guarded helper
    /// ([`RecoveryContext::parse_entry`]): resource-guard trips and caught
    /// panics either abort with a structured error (strict mode) or are
    /// tallied at the entry's batch-assigned position; plain lex/syntax
    /// failures are tallied in every mode. Only a fingerprint or a plain
    /// lex/syntax failure is memoized, so a defect — the panic drill
    /// included — meets the guard at every repeat, and an entry over the
    /// byte cap is not even hashed.
    fn process_batch(
        &mut self,
        log_index: usize,
        start: u64,
        batch: &[String],
        cache: &AnalysisCache,
        ctx: &RecoveryContext,
        label: &str,
    ) -> io::Result<()> {
        for (offset, entry) in batch.iter().enumerate() {
            let position = start + offset as u64;
            let map = &mut self.counts[log_index];
            let key = (!ctx.limits.oversize(entry.len())).then(|| hash128(entry.as_bytes()));
            if let Some(key) = key {
                self.memo_probes += 1;
                let hit = match self.memo.get(key) {
                    Some(EntryOutcome::Valid(fingerprint)) => {
                        count_occurrence(map, fingerprint, || cache.get(fingerprint).is_some())
                    }
                    Some(EntryOutcome::Invalid(kind)) => {
                        self.tallies[log_index].record(kind, position);
                        true
                    }
                    None => false,
                };
                if hit {
                    self.memo_hits += 1;
                    continue;
                }
            }

            self.arena.reset();
            let interner = &mut self.interner;
            let lookups = &mut self.lookups;
            let analyze_us = self.analyze_us;
            let parsed = ctx.parse_entry(entry, &self.arena, |query| {
                let fingerprint = canonical_fingerprint_of_ref(&query);
                count_occurrence(map, fingerprint, || {
                    cache.get_or_insert_with(fingerprint, || {
                        let _span = analyze_us.span();
                        QueryAnalysis::of_ref(&query, interner)
                    });
                    *lookups += 1;
                    true
                });
                fingerprint
            });
            let outcome = match parsed {
                Ok(fingerprint) => EntryOutcome::Valid(fingerprint),
                Err(error) => {
                    if error.kind == ErrorKind::WorkerPanic {
                        // The unwind may have left a partially filled chunk;
                        // release the arena's memory entirely.
                        self.arena.trim();
                    }
                    if ctx.fatal(error.kind) {
                        return Err(ctx.fatal_error(label, position, &error));
                    }
                    self.tallies[log_index].record(error.kind, position);
                    EntryOutcome::Invalid(error.kind)
                }
            };
            if let Some(key) = key {
                self.memo.put(key, outcome);
            }
        }
        Ok(())
    }
}

/// Streams every reader through the fused ingest→analyze pipeline with
/// default options and a run-scoped [`AnalysisCache`].
pub fn analyze_streams(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
) -> io::Result<FusedAnalysis> {
    analyze_streams_with(readers, population, FusedOptions::default())
}

/// [`analyze_streams`] with explicit options. The output is identical for
/// any worker count or batch size.
pub fn analyze_streams_with(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
    options: FusedOptions,
) -> io::Result<FusedAnalysis> {
    let cache = AnalysisCache::new();
    analyze_streams_cached(readers, population, options, &cache)
}

/// [`analyze_streams`] against a caller-owned [`AnalysisCache`]: analyses
/// memoized by earlier runs — other logs, the other population — are
/// reused, so switching populations over the same streams re-analyses
/// nothing.
pub fn analyze_streams_cached(
    readers: Vec<Box<dyn LogReader + '_>>,
    population: Population,
    options: FusedOptions,
    cache: &AnalysisCache,
) -> io::Result<FusedAnalysis> {
    let (workers, batch_size) = options.resolve();
    let workers = clamp_workers(&readers, workers, batch_size).max(1);
    let ctx = RecoveryContext::new(options.recovery);
    let labels: Vec<String> = readers.iter().map(|r| r.label().to_string()).collect();
    let log_count = readers.len();
    let mut source = BatchSource::new(readers, batch_size, ctx.policy.recovers());

    // Observability handles, hoisted once: spans are batch-granular (one
    // clock pair per batch, never per entry) and counters flush totals in
    // the epilogue below, so instrumentation stays inside the overhead
    // the benchmark reports as `obs.overhead_pct` — and is entirely free
    // when disabled.
    let metrics_on = obs::enabled();
    let cache_before = cache.stats();
    let read_us = obs::global().histogram("pipeline_read_us");
    let parse_us = obs::global().histogram("pipeline_parse_us");
    let read_bytes = obs::global().counter("pipeline_read_bytes_total");

    let batches = AtomicU64::new(0);
    let inflight = AtomicUsize::new(0);
    let peak_inflight = AtomicUsize::new(0);
    let note_claimed = |entries: usize| {
        batches.fetch_add(1, Ordering::Relaxed);
        let now = inflight.fetch_add(entries, Ordering::Relaxed) + entries;
        peak_inflight.fetch_max(now, Ordering::Relaxed);
    };
    let note_done = |entries: usize| {
        inflight.fetch_sub(entries, Ordering::Relaxed);
    };

    // The one claim loop: take the next batch under the source lock, resolve
    // it outside the lock, until the source drains or an entry is fatal. A
    // lone worker runs it on the calling thread.
    let states: Vec<FusedWorker> = {
        let source = Mutex::new(&mut source);
        let run_worker = || -> io::Result<FusedWorker> {
            let mut worker = FusedWorker::new(log_count);
            let mut batch = Vec::new();
            loop {
                batch.clear();
                let claimed = {
                    let _read_span = read_us.span();
                    source
                        .lock()
                        .expect("fused workers must not panic")
                        .next_batch(&mut batch)?
                };
                let Some((log_index, _sequence, start)) = claimed else {
                    return Ok(worker);
                };
                note_claimed(batch.len());
                if metrics_on {
                    read_bytes.add(batch.iter().map(|entry| entry.len() as u64).sum());
                }
                let processed = {
                    let _parse_span = parse_us.span();
                    worker.process_batch(log_index, start, &batch, cache, &ctx, &labels[log_index])
                };
                note_done(batch.len());
                processed?;
            }
        };
        if workers == 1 {
            vec![run_worker()?]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("fused workers must not panic"))
                    .collect::<io::Result<_>>()
            })?
        }
    };

    // Merge the per-worker occurrence maps and error tallies per log
    // (commutative, so worker order is irrelevant), collect counters. The
    // reader-level defect tallies accumulated at the batch source seed the
    // per-log totals. The merge span covers everything from here to the
    // folded corpus: per-worker state union, summary construction, the
    // budget check and the occurrence-weighted fold.
    let _merge_span = obs::global().histogram("pipeline_merge_us").span();
    let mut merged: Vec<OccurrenceMap> = (0..log_count).map(|_| HashMap::default()).collect();
    let mut tallies: Vec<ErrorTally> = std::mem::take(&mut source.tallies);
    let mut interner_stats = InternStats::default();
    let mut lookups = 0u64;
    let (mut memo_probes, mut memo_hits) = (0u64, 0u64);
    for state in states {
        interner_stats.merge(&state.interner.stats());
        lookups += state.lookups;
        memo_probes += state.memo_probes;
        memo_hits += state.memo_hits;
        for (log_index, tally) in state.tallies.iter().enumerate() {
            tallies[log_index].merge(tally);
        }
        for (log_index, map) in state.counts.into_iter().enumerate() {
            let target = &mut merged[log_index];
            if target.is_empty() {
                *target = map;
            } else {
                for (fingerprint, count) in map {
                    *target.entry(fingerprint).or_insert(0) += count;
                }
            }
        }
    }

    // Fetch each distinct record from the shared cache exactly once; the
    // summary pass and the fold below then read this lock-free map. Its
    // size is also this run's distinct-form count — correct even when a
    // caller-owned cache carries entries from other corpora.
    let mut records: HashMap<u128, Arc<QueryAnalysis>, FingerprintBuildHasher> = HashMap::default();
    for map in &merged {
        for &fingerprint in map.keys() {
            records.entry(fingerprint).or_insert_with(|| {
                cache
                    .get(fingerprint)
                    .expect("every streamed fingerprint is memoized")
            });
        }
    }

    // Per-log summaries: sorted occurrence lists make every downstream
    // iteration deterministic; `bodyless` folds the memoized records'
    // occurrence counts (body-ness is a function of the canonical form).
    let mut summaries = Vec::with_capacity(log_count);
    for (log_index, (label, map)) in labels.into_iter().zip(merged).enumerate() {
        let mut occurrences: Vec<(u128, u64)> = map.into_iter().collect();
        occurrences.sort_unstable_by_key(|&(fingerprint, _)| fingerprint);
        let mut valid = 0u64;
        let mut bodyless = 0u64;
        for &(fingerprint, count) in &occurrences {
            valid += count;
            if !records[&fingerprint].features.has_body {
                bodyless += count;
            }
        }
        summaries.push(LogSummary {
            label,
            counts: CorpusCounts {
                total: source.totals[log_index],
                valid,
                unique: occurrences.len() as u64,
                bodyless,
            },
            occurrences,
            errors: std::mem::take(&mut tallies[log_index]),
        });
    }

    // The budget check runs once, over the merged end-of-run tallies. The
    // shard workers and the serve path stream as Lenient and leave this
    // check to their coordinator, so every deployment reaches the same
    // verdict over the same merged tallies.
    let mut combined_errors = ErrorTally::default();
    let mut total_entries = 0u64;
    for summary in &summaries {
        combined_errors.merge(&summary.errors);
        total_entries += summary.counts.total;
    }
    enforce_budget(ctx.policy, &combined_errors, total_entries)?;

    // Duplicate occurrences — memo hits and duplicate forms alike — were
    // absorbed by the local maps without touching the shared cache; credit
    // them so `hits + misses` still equals the number of valid occurrences.
    let valid_total: u64 = summaries.iter().map(|s| s.counts.valid).sum();
    cache.record_reused(valid_total - lookups);

    let corpus = fold_populations(&summaries, population, &records, workers);
    let stats = AnalysisStats {
        cache: Some(cache.stats()),
        interner: interner_stats,
    };
    let fused = FusedStats {
        batches: batches.into_inner(),
        peak_inflight_entries: peak_inflight.into_inner(),
        distinct_forms: records.len() as u64,
    };

    // The per-entry facts flush as whole-run totals here — one counter add
    // per run per fact, instead of one per entry on the hot path. Cache
    // counters flush as this run's delta, so a caller-owned cache shared
    // across runs is not double-counted.
    if metrics_on {
        let registry = obs::global();
        registry.counter("pipeline_runs_total").incr();
        registry
            .counter("pipeline_batches_total")
            .add(fused.batches);
        registry
            .counter("pipeline_entries_total")
            .add(total_entries);
        registry.counter("pipeline_valid_total").add(valid_total);
        registry
            .counter("pipeline_errors_total")
            .add(combined_errors.total());
        registry
            .counter("pipeline_distinct_forms_total")
            .add(fused.distinct_forms);
        let cache_after = stats.cache.unwrap_or_default();
        registry
            .counter("cache_hits_total")
            .add(cache_after.hits.saturating_sub(cache_before.hits));
        registry
            .counter("cache_misses_total")
            .add(cache_after.misses.saturating_sub(cache_before.misses));
        registry
            .gauge("cache_distinct_forms")
            .set(cache_after.distinct as i64);
        registry.counter("memo_probes_total").add(memo_probes);
        registry.counter("memo_hits_total").add(memo_hits);
    }

    Ok(FusedAnalysis {
        summaries,
        corpus,
        stats,
        fused,
    })
}

/// The occurrence-weighted fold: each distinct fingerprint of each log folds
/// its memoized analysis exactly once — with weight 1 on the Unique
/// population ("distinct fingerprints") and with its occurrence count on the
/// Valid population. O(distinct) tally work regardless of duplication,
/// parallelised over a chunked self-scheduling pool; the weighted adds are
/// exact integer sums, so any schedule yields the same bytes.
fn fold_populations(
    summaries: &[LogSummary],
    population: Population,
    records: &HashMap<u128, Arc<QueryAnalysis>, FingerprintBuildHasher>,
    workers: usize,
) -> CorpusAnalysis {
    let items: Vec<(usize, u128, u64)> = summaries
        .iter()
        .enumerate()
        .flat_map(|(log_index, summary)| {
            summary
                .occurrences
                .iter()
                .map(move |&(fingerprint, count)| (log_index, fingerprint, count))
        })
        .collect();
    let chunk_size = (items.len() / (workers * 8).max(1)).clamp(16, 1024);
    let accumulators = chunked_fold_pool(
        &items,
        summaries.len(),
        workers,
        chunk_size,
        |acc, &(log_index, fingerprint, count)| {
            let weight = match population {
                Population::Unique => 1,
                Population::Valid => count,
            };
            acc[log_index].add_times(&records[&fingerprint], weight);
        },
    );

    // Per-worker accumulators merge into the per-log headers.
    let mut datasets: Vec<DatasetAnalysis> = summaries
        .iter()
        .map(|summary| DatasetAnalysis {
            label: summary.label.clone(),
            counts: summary.counts,
            errors: summary.errors.clone(),
            ..DatasetAnalysis::default()
        })
        .collect();
    for acc in &accumulators {
        for (dataset, partial) in datasets.iter_mut().zip(acc) {
            dataset.merge(partial);
        }
    }
    CorpusAnalysis::from_datasets(datasets)
}

/// The fixture of this crate's unit tests: in-memory readers over
/// `(label, entries)` pairs.
#[cfg(test)]
pub(crate) fn test_readers(logs: &[(&str, &[&str])]) -> Vec<Box<dyn LogReader + 'static>> {
    logs.iter()
        .map(|(label, entries)| {
            let entries = entries.iter().map(|s| s.to_string()).collect();
            Box::new(crate::corpus::MemoryLogReader::new(*label, entries)) as Box<dyn LogReader>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::analyze_reference;
    use crate::corpus::RawLog;
    use crate::report::full_report;

    fn readers_of(entries: &[&str]) -> Vec<Box<dyn LogReader + 'static>> {
        test_readers(&[("test", entries)])
    }

    const ENTRIES: [&str; 6] = [
        "SELECT ?x WHERE { ?x a <http://C> }",
        "SELECT   ?x   WHERE { ?x a <http://C> }", // duplicate modulo whitespace
        "not a sparql query at all",
        "ASK { <http://s> <http://p> <http://o> }",
        "DESCRIBE <http://r>",
        "SELECT ?x WHERE { ?x a <http://C> }", // duplicate again
    ];

    fn reference(population: Population) -> CorpusAnalysis {
        let entries = ENTRIES.iter().map(|s| s.to_string()).collect();
        analyze_reference(&[RawLog::new("test", entries)], population)
    }

    #[test]
    fn summary_counts_match_the_reference() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Unique).unwrap();
        assert_eq!(
            fused.summaries[0].counts,
            reference(Population::Unique).datasets[0].counts
        );
        let summary = &fused.summaries[0];
        assert_eq!(summary.occurrences.len(), 3);
        let total: u64 = summary.occurrences.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, summary.counts.valid);
        assert!(summary
            .occurrences
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0));
        let (fp, count) = summary.occurrences[0];
        assert_eq!(summary.occurrences_of(fp), count);
        let absent = summary
            .occurrences
            .iter()
            .map(|&(f, _)| f)
            .max()
            .expect("non-empty summary")
            .wrapping_add(1);
        assert_eq!(summary.occurrences_of(absent), 0);
    }

    #[test]
    fn split_log_summaries_merge_back_to_the_whole_log() {
        // Split the log's entries at a point that separates duplicates of
        // one canonical form, summarize each half independently (the
        // cross-process scenario), and merge: the result must equal the
        // whole-log summary, in either merge order.
        let whole = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        let first = analyze_streams(readers_of(&ENTRIES[..3]), Population::Valid).unwrap();
        let second = analyze_streams(readers_of(&ENTRIES[3..]), Population::Valid).unwrap();
        let mut ab = first.summaries[0].clone();
        ab.merge(&second.summaries[0]);
        let mut ba = second.summaries[0].clone();
        ba.merge(&first.summaries[0]);
        assert_eq!(ab, whole.summaries[0]);
        assert_eq!(ba, whole.summaries[0]);
        assert!(ab.occurrences.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn fused_reports_match_the_reference_on_both_populations() {
        for population in [Population::Unique, Population::Valid] {
            let fused = analyze_streams(readers_of(&ENTRIES), population).unwrap();
            assert_eq!(
                full_report(&fused.corpus),
                full_report(&reference(population)),
                "fused vs reference mismatch on {population:?}"
            );
        }
    }

    #[test]
    fn table1_from_summaries_matches_the_analysis_rendering() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Unique).unwrap();
        assert_eq!(
            crate::report::table1_from_summaries(&fused.summaries),
            crate::report::table1(&fused.corpus)
        );
    }

    #[test]
    fn occurrence_accounting_covers_every_valid_entry() {
        let fused = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        let cache_stats = fused.stats.cache.expect("fused runs always use a cache");
        assert_eq!(cache_stats.hits + cache_stats.misses, 5);
        assert_eq!(cache_stats.distinct, 3);
        assert_eq!(fused.fused.distinct_forms, 3);
        assert!(fused.fused.batches >= 1);
        assert!(fused.fused.peak_inflight_entries >= ENTRIES.len().min(INGEST_CHUNK));
    }

    #[test]
    fn distinct_forms_counts_this_run_not_the_shared_cache() {
        let cache = AnalysisCache::new();
        let first = analyze_streams_cached(
            readers_of(&ENTRIES),
            Population::Valid,
            FusedOptions::default(),
            &cache,
        )
        .unwrap();
        assert_eq!(first.fused.distinct_forms, 3);
        // A second, smaller corpus on the same cache: its stats must count
        // its own two distinct forms, not the cache's accumulated four.
        let second = analyze_streams_cached(
            readers_of(&["ASK { ?a <http://q> ?b }", "DESCRIBE <http://r>"]),
            Population::Valid,
            FusedOptions::default(),
            &cache,
        )
        .unwrap();
        assert_eq!(second.fused.distinct_forms, 2);
        assert_eq!(cache.len(), 4); // DESCRIBE <http://r> was already memoized
    }

    #[test]
    fn a_panicking_analysis_leaves_no_key_in_the_occurrence_map() {
        // The caller catches the unwind and tallies the entry as a worker
        // panic; a key left behind (even at count 0) would be counted as a
        // unique form and looked up in the cache by the epilogue.
        let cache = AnalysisCache::new();
        let mut map = OccurrenceMap::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            count_occurrence(&mut map, 7, || {
                cache.get_or_insert_with(7, || panic!("analysis panicked"));
                true
            })
        }));
        assert!(unwound.is_err());
        assert!(map.is_empty(), "{map:?}");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.distinct), (0, 0, 0));

        // Nor does a refused memo hit; and once the record exists, the
        // first occurrence enters at 1 and a repeat only bumps the counter.
        assert!(!count_occurrence(&mut map, 7, || cache.get(7).is_some()));
        assert!(map.is_empty(), "{map:?}");
        cache.get_or_insert_with(7, || QueryAnalysis::of_text(ENTRIES[0]).unwrap());
        assert!(count_occurrence(&mut map, 7, || cache.get(7).is_some()));
        assert!(count_occurrence(&mut map, 7, || unreachable!()));
        assert_eq!(map.get(&7), Some(&2));
    }

    #[test]
    fn entry_memo_is_direct_mapped_lossy_and_never_wrong() {
        let mut memo = EntryMemo::new();
        assert_eq!(
            memo.slots.len() * std::mem::size_of::<[u128; 2]>(),
            128 << 10
        );
        // An empty table answers nothing — not even for keys whose every
        // compared bit is zero.
        for key in [0u128, 1, 2, 3, ENTRY_MEMO_SLOTS as u128] {
            assert_eq!(memo.get(key), None, "key {key}");
        }
        let key = 0xfeed_0000_0000_0000_0000_0000_0000_0abc_u128;
        memo.put(key, EntryOutcome::Valid(42));
        assert_eq!(memo.get(key), Some(EntryOutcome::Valid(42)));
        // The tag replaces the key's two low bits in the slot; they are
        // still compared, through the slot index.
        for neighbour in [key ^ 1, key ^ 2, key ^ 3, key ^ (1 << 127), key ^ (1 << 12)] {
            assert_eq!(memo.get(neighbour), None, "key {neighbour:#x}");
        }
        // Same slot, different key: the newcomer overwrites, the old key
        // is forgotten, nobody reads the other's outcome.
        let rival = key ^ (1 << 64);
        memo.put(rival, EntryOutcome::Invalid(ErrorKind::Syntax));
        assert_eq!(
            memo.get(rival),
            Some(EntryOutcome::Invalid(ErrorKind::Syntax))
        );
        assert_eq!(memo.get(key), None);
        memo.put(key, EntryOutcome::Invalid(ErrorKind::Lex));
        assert_eq!(memo.get(key), Some(EntryOutcome::Invalid(ErrorKind::Lex)));
        // Outcomes the bytes do not decide are not kept.
        for kind in [
            ErrorKind::InvalidUtf8,
            ErrorKind::OversizeEntry,
            ErrorKind::DepthExceeded,
            ErrorKind::WorkerPanic,
        ] {
            memo.put(rival, EntryOutcome::Invalid(kind));
            assert_eq!(memo.get(rival), None, "{kind:?}");
        }
        assert_eq!(memo.get(key), Some(EntryOutcome::Invalid(ErrorKind::Lex)));
    }

    #[test]
    fn byte_identical_repeats_hit_the_memo_and_defects_never_do() {
        let deep = format!("SELECT * WHERE {}{}", "{ ".repeat(300), "} ".repeat(300));
        let batch: Vec<String> = [
            ENTRIES[0], ENTRIES[1], // same form, new bytes: a duplicate form, not a hit
            ENTRIES[2], // plain syntax failure: memoized
            &deep,      // a defect: guarded every time
            ENTRIES[0], ENTRIES[2], &deep, ENTRIES[1],
        ]
        .iter()
        .map(|entry| entry.to_string())
        .collect();
        let cache = AnalysisCache::new();
        let ctx = RecoveryContext::new(RecoveryPolicy::Lenient);
        let mut worker = FusedWorker::new(2);
        worker
            .process_batch(0, 100, &batch, &cache, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_probes, worker.memo_hits), (8, 3));
        assert_eq!(worker.lookups, 1);
        assert_eq!(worker.counts[0].values().copied().collect::<Vec<_>>(), [4]);
        let tally = &worker.tallies[0];
        assert_eq!(
            (tally.syntax, tally.depth_exceeded, tally.total()),
            (2, 2, 4)
        );
        let positions: Vec<u64> = tally.exemplars.iter().map(|&(_, at)| at).collect();
        assert_eq!(positions, [102, 103, 105, 106]);

        // Another log, same worker: the bytes are memoized but this log has
        // not counted the form yet. The shared cache has the record, so the
        // hit stands and no lookup is spent.
        worker
            .process_batch(1, 0, &batch[..1], &cache, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_hits, worker.lookups), (4, 1));
        assert_eq!(worker.counts[1].values().copied().collect::<Vec<_>>(), [1]);

        // A cache that never saw the form (cannot happen within one run; the
        // guard is what makes that not matter): the hit is refused, the
        // entry takes the full path and its record is made.
        let cold = AnalysisCache::new();
        worker.counts[1].clear();
        worker
            .process_batch(1, 1, &batch[..1], &cold, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_hits, worker.lookups), (4, 2));
        assert_eq!(worker.counts[1].values().copied().collect::<Vec<_>>(), [1]);
        assert_eq!(cold.len(), 1);

        // Under Strict the repeated defect is fatal where it first stands.
        let strict = RecoveryContext::new(RecoveryPolicy::Strict);
        let error = FusedWorker::new(1)
            .process_batch(0, 100, &batch, &cache, &strict, "test")
            .unwrap_err();
        assert!(error.to_string().contains("entry 103"), "{error}");
    }

    #[test]
    fn tiny_batches_and_worker_counts_agree() {
        let reference = analyze_streams(readers_of(&ENTRIES), Population::Valid).unwrap();
        for workers in [1, 2, 8] {
            for batch in [1, 2, 64] {
                let fused = analyze_streams_with(
                    readers_of(&ENTRIES),
                    Population::Valid,
                    FusedOptions {
                        workers,
                        batch,
                        recovery: RecoveryPolicy::default(),
                    },
                )
                .unwrap();
                assert_eq!(
                    full_report(&fused.corpus),
                    full_report(&reference.corpus),
                    "workers {workers}, batch {batch}"
                );
                assert_eq!(fused.summaries, reference.summaries);
            }
        }
    }
}
