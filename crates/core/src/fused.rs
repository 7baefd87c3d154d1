//! The engine: one fused ingest→analyze pass in which each batch is
//! analysed as it parses and no query AST outlives its batch.
//!
//! [`analyze_streams`] runs one self-scheduling worker pool: workers pull
//! batches from [`LogReader`]s and resolve every entry to an occurrence of a
//! canonical form (or to a tallied error) at the cheapest level that knows
//! it.
//!
//! Each log is a **lane** with its own lock. A worker takes a log no other
//! worker has taken and claims that log's batches; once every log is taken,
//! a worker whose log has run dry joins an unfinished one, searching onward
//! from its last log so the joiners spread out. Workers on different logs
//! never wait for each other. A claim reads the batch, under the lane's
//! lock, into the worker's one [`EntryBlock`] — the entries back to back in
//! one `String` — which is cleared and reused on every claim, so
//! steady-state reading allocates nothing per entry. The lane assigns the
//! batch's entry positions in log order, so error positions do not depend on
//! the schedule. A reader error that fails the run stops its log and the
//! later ones while the earlier logs drain, so the run reports the first
//! failing log's error, as reading the logs in order would.
//!
//! An entry meets one of three fates:
//!
//! * a **memo hit** — this worker resolved these bytes, or these tokens,
//!   before. A fixed-size, direct-mapped, per-worker entry memo maps a
//!   128-bit key to what the key alone decides: the canonical fingerprint
//!   of a valid entry, or the `Lex` / `Syntax` kind of an invalid one. It
//!   has two kinds of key in one table:
//!   - the **raw key**, [`hash128`] of the entry's bytes, probed first: a
//!     hit is counted (or tallied at its own position) without being lexed,
//!     parsed or fingerprinted. Real logs repeat byte-identical lines far
//!     more often than they respell a query, so this is the common case on
//!     the paper's corpora;
//!   - the **token key**, [`token_key`] of the entry's token stream,
//!     probed after a raw miss, once the entry is lexed: a hit skips parse,
//!     fingerprint and analysis, and installs the raw key so a byte-identical
//!     repeat hits that next time. Keywords arrive case-folded and
//!     whitespace and comments are not tokens, so this catches the layout
//!     variants of a query (other whitespace, keyword case, comments,
//!     quoting and escape style). The serialization starts with a byte no
//!     UTF-8 text holds, so no raw key can meet a token key; only `Valid`
//!     and `Syntax` go under it, since a token stream that lexed cannot
//!     fail to lex;
//! * a **duplicate form** — a key the memo does not hold, a known canonical
//!   form (a respelling through `PREFIX`, or a query another worker or an
//!   evicted slot saw). The tokens are parsed into the worker's arena and
//!   fingerprinted by streaming the canonical walk into a 128-bit FNV-1a
//!   state (no canonical string is built); the fingerprint bumps a
//!   lock-free per-worker occurrence counter and the AST is dropped right
//!   there — never pushed into a corpus-wide vec, never re-folded;
//! * a **first occurrence** — parsed and fingerprinted as above, then
//!   analysed on the spot (one [`QueryAnalysis`] through the worker's term
//!   [`Interner`](sparqlog_parser::intern)) and memoized in the shared
//!   [`AnalysisCache`]: the record joins its *class* (one per distinct
//!   record) and the fingerprint maps to the class's `u32` id — only the
//!   fingerprint, the id and, for a new class, the record survive.
//!
//! The memo holds only outcomes that are functions of its keys: resource
//! guard trips, caught panics and anything fatal under
//! [`RecoveryPolicy::Strict`] always take the guarded parse — whose drill
//! check runs before the token key is probed — and a valid hit is used
//! only when the form's record is already known to exist. It is always on,
//! has one size ([`ENTRY_MEMO_SLOTS`]) and overwrites on collision, so it
//! can forget but never mislead: a forgotten line is a duplicate form
//! again.
//!
//! Every per-form structure carries the class id, never the record: a
//! worker's per-log occurrence map holds `fingerprint → (class, count)`.
//! After the stream drains, those maps merge into per-log [`LogSummary`]
//! records (Table-1 counts and error tallies; the fingerprints are counted,
//! not kept), and one **occurrence-weighted fold**
//! ([`DatasetAnalysis::add_times`]) builds the corpus analysis once per
//! (log, class): the Unique population weighs a class by how many of the
//! log's distinct fingerprints fall into it, the Valid population by their
//! summed occurrence counts. The epilogue looks nothing up per form: it
//! reads the class table once. Peak residency is O(in-flight batches +
//! distinct fingerprints + classes), and each worker holds at most one AST
//! at a time.
//!
//! **Determinism and parity.** Every fold is a commutative sum or an
//! idempotent extremum over exact integers, so reports are byte-identical
//! for any worker count, batch size or schedule — and byte-identical to
//! the sequential oracle [`crate::baseline::analyze_reference`], which
//! shares nothing with this module above the guarded per-entry parse and
//! the tallies, and has no memo of either kind
//! (`tests/{differential,fused,cache}.rs`). The soundness of folding a
//! memoized record for every occurrence, and one class's record for every
//! fingerprint in the class, is the argument of [`crate::cache`]: the
//! fingerprint *is* the canonical form, a class is an equality class of
//! records, and the weighted fold is linear in its weight — and one level
//! down, equal bytes lex equally and equal token streams parse equally (the
//! parser reads nothing but the tokens; spans only place error messages).
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
use crate::cache::{AnalysisCache, ClassId};
use crate::corpus::{
    clamp_workers, default_workers, BatchSource, CorpusCounts, EntryBlock, FingerprintBuildHasher,
    LogReader, RecordBuildHasher, INGEST_CHUNK,
};
use crate::query_analysis::QueryAnalysis;
use crate::recover::{enforce_budget, ErrorTally, RecoveryContext, RecoveryPolicy};
use serde::{Deserialize, Serialize};
use sparqlog_obs as obs;
use sparqlog_parser::bytescan::hash128;
use sparqlog_parser::intern::{InternStats, Interner};
use sparqlog_parser::token::token_key;
use sparqlog_parser::{canonical_fingerprint_of_ref, Arena, ErrorKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// What the fused engine keeps per log instead of the ASTs: the label, the
/// Table-1 counts and the malformed-entry tally. The distinct fingerprints
/// themselves do not survive the run; only their number does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogSummary {
    /// The dataset label.
    pub label: String,
    /// Table-1 counts (`unique` is the number of distinct fingerprints,
    /// `valid` the sum of their occurrence counts).
    pub counts: CorpusCounts,
    /// The malformed-entry tally of this log: per-kind counts and the
    /// earliest offending entry positions, identical for every engine,
    /// worker count and batch schedule.
    pub errors: ErrorTally,
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

/// The result of a fused run: per-log summaries (counts + error tallies),
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

/// Slots in each worker's entry memo. An entry's slot is the low bits of its
/// key — [`hash128`] of its bytes, or [`token_key`] of its tokens; a slot
/// is 32 bytes, so a worker's table is 128 KiB, allocated zeroed and paged
/// in only where entries land.
pub const ENTRY_MEMO_SLOTS: usize = 1 << 12;

/// What the bytes (or the tokens) of an entry decide on their own, whatever
/// the run's policy: the canonical fingerprint of a valid entry, or the kind
/// of a plain lex/syntax failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryOutcome {
    Valid(u128),
    Invalid(ErrorKind),
}

/// The per-worker entry memo: a direct-mapped table from a 128-bit key — the
/// hash of an entry's bytes or of its token stream — to its
/// [`EntryOutcome`]. A collision overwrites; there is no eviction
/// bookkeeping.
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

/// A worker's occurrences for one log: each fingerprint's analysis class
/// and occurrence count.
type OccurrenceMap = HashMap<u128, (ClassId, u64), FingerprintBuildHasher>;

/// Counts one occurrence of `fingerprint` in a worker's map for one log. A
/// key enters the map only once `class_of` has named the class of its
/// analysis in the shared cache — by putting it there (a parsed entry) or
/// by finding it (a memo hit, which has no AST to analyse; `None` sends
/// that entry down the full path). The order matters: memoizing may panic
/// inside the analysis (the caller catches it and tallies the entry as a
/// worker panic), and a key must never sit in the map without a class
/// behind it — the epilogue reads the class's record for every key, and
/// `counts.unique` is the number of keys.
fn count_occurrence(
    map: &mut OccurrenceMap,
    fingerprint: u128,
    class_of: impl FnOnce() -> Option<ClassId>,
) -> bool {
    match map.entry(fingerprint) {
        Entry::Occupied(mut entry) => entry.get_mut().1 += 1,
        Entry::Vacant(vacancy) => {
            let Some(class) = class_of() else {
                return false;
            };
            vacancy.insert((class, 1));
        }
    }
    true
}

/// One worker's private state: lock-free per-log occurrence maps, the
/// entry memo in front of the parser, the term interner threaded through
/// every analysis, the bump arena every AST is parsed into, and the number
/// of shared-cache consultations (first-local-occurrence lookups).
struct FusedWorker {
    counts: Vec<OccurrenceMap>,
    tallies: Vec<ErrorTally>,
    memo: EntryMemo,
    /// Entries looked up in the memo (all but the oversize ones), and how
    /// many of those it resolved, by either key.
    memo_probes: u64,
    memo_hits: u64,
    /// The hits that came from the token key (a layout variant of an entry
    /// already resolved), and the buffer the token stream is serialized in.
    memo_token_hits: u64,
    token_bytes: Vec<u8>,
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
            memo_token_hits: 0,
            token_bytes: Vec::new(),
            interner: Interner::new(),
            arena: Arena::new(),
            lookups: 0,
            analyze_us: obs::global().histogram("pipeline_analyze_us"),
        }
    }

    /// Resolves one batch. An entry whose bytes the memo knows is counted or
    /// tallied from the memo alone; one whose tokens it knows is lexed and
    /// then counted or tallied, and its bytes join the memo. Every other
    /// entry's AST is
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
    /// lex/syntax failure is memoized (a lex failure only under the raw key:
    /// it has no tokens), so a defect — the panic drill included, in any
    /// layout — meets the guard at every repeat, and an entry over the byte
    /// cap is not even hashed.
    fn process_batch(
        &mut self,
        log_index: usize,
        start: u64,
        batch: &EntryBlock,
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
                        count_occurrence(map, fingerprint, || cache.class_of(fingerprint))
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
            let memo = &mut self.memo;
            let token_bytes = &mut self.token_bytes;
            let interner = &mut self.interner;
            let lookups = &mut self.lookups;
            let analyze_us = self.analyze_us;
            let resolved = ctx.parse_entry(entry, &self.arena, |lexed| {
                let token_key = token_key(lexed.tokens(), token_bytes);
                match memo.get(token_key) {
                    Some(EntryOutcome::Valid(fingerprint))
                        if count_occurrence(map, fingerprint, || cache.class_of(fingerprint)) =>
                    {
                        return Ok((EntryOutcome::Valid(fingerprint), true));
                    }
                    Some(invalid @ EntryOutcome::Invalid(_)) => return Ok((invalid, true)),
                    _ => {}
                }
                let outcome = match lexed.parse() {
                    Ok(query) => {
                        let fingerprint = canonical_fingerprint_of_ref(&query);
                        count_occurrence(map, fingerprint, || {
                            let class = cache.class_or_insert_with(fingerprint, || {
                                let _span = analyze_us.span();
                                QueryAnalysis::of_ref(&query, interner)
                            });
                            *lookups += 1;
                            Some(class)
                        });
                        EntryOutcome::Valid(fingerprint)
                    }
                    Err(error) if error.kind == ErrorKind::Syntax => {
                        EntryOutcome::Invalid(ErrorKind::Syntax)
                    }
                    Err(error) => return Err(error),
                };
                memo.put(token_key, outcome);
                Ok((outcome, false))
            });
            let outcome = match resolved {
                Ok((outcome, token_hit)) => {
                    if token_hit {
                        self.memo_hits += 1;
                        self.memo_token_hits += 1;
                    }
                    if let EntryOutcome::Invalid(kind) = outcome {
                        self.tallies[log_index].record(kind, position);
                    }
                    outcome
                }
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
    let source = BatchSource::new(readers, batch_size, ctx.policy.recovers());

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

    // The one claim loop: read the next batch into the worker's block under
    // its log's lane lock, resolve it outside the lock, until every lane
    // drains or an entry is fatal. A lone worker runs it on the calling
    // thread.
    let states: Vec<FusedWorker> = {
        let run_worker = || -> io::Result<FusedWorker> {
            let mut worker = FusedWorker::new(log_count);
            let mut block = EntryBlock::new();
            let mut lane = None;
            loop {
                block.clear();
                let claimed = {
                    let _read_span = read_us.span();
                    source.next_batch(&mut lane, &mut block)
                };
                let Some((log_index, start)) = claimed else {
                    return Ok(worker);
                };
                note_claimed(block.len());
                if metrics_on {
                    read_bytes.add(block.text_len() as u64);
                }
                let processed = {
                    let _parse_span = parse_us.span();
                    worker.process_batch(log_index, start, &block, cache, &ctx, &labels[log_index])
                };
                note_done(block.len());
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
    let (totals, mut tallies): (Vec<u64>, Vec<ErrorTally>) = source.finish()?.into_iter().unzip();
    let mut interner_stats = InternStats::default();
    let mut lookups = 0u64;
    let (mut memo_probes, mut memo_hits, mut memo_token_hits) = (0u64, 0u64, 0u64);
    for state in states {
        interner_stats.merge(&state.interner.stats());
        lookups += state.lookups;
        memo_probes += state.memo_probes;
        memo_hits += state.memo_hits;
        memo_token_hits += state.memo_token_hits;
        for (log_index, tally) in state.tallies.iter().enumerate() {
            tallies[log_index].merge(tally);
        }
        for (log_index, map) in state.counts.into_iter().enumerate() {
            let target = &mut merged[log_index];
            if target.is_empty() {
                *target = map;
            } else {
                for (fingerprint, (class, count)) in map {
                    target.entry(fingerprint).or_insert((class, 0)).1 += count;
                }
            }
        }
    }

    // Per-log summaries: `bodyless` folds the classes' occurrence counts
    // (body-ness is a function of the record). Each log's fingerprints are
    // summed per class, weighted for the population, into the fold's items.
    // The records come from the cache under one lock.
    let records = cache.records();
    let mut in_run = vec![false; records.len()];
    let mut items: Vec<(usize, ClassId, u64)> = Vec::new();
    let mut fingerprints: Vec<u128> = Vec::new();
    let mut summaries = Vec::with_capacity(log_count);
    for (log_index, (label, map)) in labels.into_iter().zip(merged).enumerate() {
        let mut weights: HashMap<ClassId, u64, RecordBuildHasher> = HashMap::default();
        let mut valid = 0u64;
        let mut bodyless = 0u64;
        for &(class, count) in map.values() {
            valid += count;
            if !records[class as usize].features.has_body {
                bodyless += count;
            }
            in_run[class as usize] = true;
            *weights.entry(class).or_insert(0) += match population {
                Population::Unique => 1,
                Population::Valid => count,
            };
        }
        items.extend(
            weights
                .into_iter()
                .map(|(class, weight)| (log_index, class, weight)),
        );
        fingerprints.extend(map.keys());
        summaries.push(LogSummary {
            label,
            counts: CorpusCounts {
                total: totals[log_index],
                valid,
                unique: map.len() as u64,
                bodyless,
            },
            errors: std::mem::take(&mut tallies[log_index]),
        });
    }
    // Forms seen by more than one log count once.
    fingerprints.sort_unstable();
    fingerprints.dedup();

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

    let corpus = fold_populations(&summaries, &items, &records, workers);
    let stats = AnalysisStats {
        cache: Some(cache.stats()),
        interner: interner_stats,
    };
    let fused = FusedStats {
        batches: batches.into_inner(),
        peak_inflight_entries: peak_inflight.into_inner(),
        distinct_forms: fingerprints.len() as u64,
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
        registry
            .counter("pipeline_analysis_classes_total")
            .add(in_run.iter().filter(|&&used| used).count() as u64);
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
        registry
            .counter("memo_token_hits_total")
            .add(memo_token_hits);
    }

    Ok(FusedAnalysis {
        summaries,
        corpus,
        stats,
        fused,
    })
}

/// The occurrence-weighted fold over `(log, class, weight)` items: each
/// analysis class of each log folds its record exactly once, with the
/// summed weight of the log's fingerprints in that class — one per
/// fingerprint on the Unique population ("distinct fingerprints"), its
/// occurrence count on the Valid population. Sound because
/// [`DatasetAnalysis::add_times`] is linear in the weight (see
/// [`crate::cache`]). O(classes per log) tally work regardless of
/// duplication or distinct forms, parallelised over a chunked
/// self-scheduling pool; the weighted adds are exact integer sums, so any
/// schedule yields the same bytes.
fn fold_populations(
    summaries: &[LogSummary],
    items: &[(usize, ClassId, u64)],
    records: &[Arc<QueryAnalysis>],
    workers: usize,
) -> CorpusAnalysis {
    let chunk_size = (items.len() / (workers * 8).max(1)).clamp(16, 1024);
    let accumulators = chunked_fold_pool(
        items,
        summaries.len(),
        workers,
        chunk_size,
        |acc, &(log_index, class, weight)| {
            acc[log_index].add_times(&records[class as usize], weight);
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
        assert_eq!(fused.summaries[0].counts.unique, 3);
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
    fn forms_sharing_a_class_fold_once_per_log_and_match_the_reference() {
        // Three canonical forms with one record (other constants, other
        // variable names) and one form with its own: four fingerprints, two
        // classes. The second log repeats two forms of the first.
        let first = [
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT ?y WHERE { ?y a <http://D> }",
            "SELECT ?y WHERE { ?y a <http://D> }",
            "DESCRIBE <http://r>",
        ];
        let second = [
            "SELECT ?z WHERE { ?z a <http://E> }",
            "DESCRIBE <http://r>",
            "SELECT ?x WHERE { ?x a <http://C> }",
        ];
        let logs: [(&str, &[&str]); 2] = [("first", &first), ("second", &second)];
        let raw: Vec<RawLog> = logs
            .iter()
            .map(|(label, entries)| {
                RawLog::new(*label, entries.iter().map(|s| s.to_string()).collect())
            })
            .collect();
        for population in [Population::Unique, Population::Valid] {
            for workers in [1, 2] {
                let cache = AnalysisCache::new();
                let options = FusedOptions {
                    workers,
                    batch: 1,
                    ..FusedOptions::default()
                };
                let fused =
                    analyze_streams_cached(test_readers(&logs), population, options, &cache)
                        .unwrap();
                assert_eq!((cache.len(), cache.records().len()), (4, 2));
                assert_eq!(fused.fused.distinct_forms, 4);
                let unique: Vec<u64> = fused.summaries.iter().map(|s| s.counts.unique).collect();
                assert_eq!(unique, [3, 3]);
                let reference = analyze_reference(&raw, population);
                assert_eq!(
                    full_report(&fused.corpus),
                    full_report(&reference),
                    "{population:?}, {workers} workers"
                );
                assert_eq!(format!("{:?}", fused.corpus), format!("{reference:?}"));
            }
        }
    }

    #[test]
    fn a_panicking_analysis_leaves_no_key_in_the_occurrence_map() {
        // The caller catches the unwind and tallies the entry as a worker
        // panic; a key left behind (even at count 0) would be counted as a
        // unique form, with no class whose record the epilogue could read.
        let cache = AnalysisCache::new();
        let mut map = OccurrenceMap::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            count_occurrence(&mut map, 7, || {
                Some(cache.class_or_insert_with(7, || panic!("analysis panicked")))
            })
        }));
        assert!(unwound.is_err());
        assert!(map.is_empty(), "{map:?}");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.distinct), (0, 0, 0));
        assert!(cache.records().is_empty());

        // Nor does a refused memo hit; and once the record exists, the
        // first occurrence enters at 1 and a repeat only bumps the counter.
        assert!(!count_occurrence(&mut map, 7, || cache.class_of(7)));
        assert!(map.is_empty(), "{map:?}");
        let class = cache.class_or_insert_with(7, || QueryAnalysis::of_text(ENTRIES[0]).unwrap());
        assert!(count_occurrence(&mut map, 7, || cache.class_of(7)));
        assert!(count_occurrence(&mut map, 7, || unreachable!()));
        assert_eq!(map.get(&7), Some(&(class, 2)));
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
        let batch = batch_of(&[
            ENTRIES[0], ENTRIES[1], // same tokens, new layout: the token key resolves it
            ENTRIES[2], // plain syntax failure: memoized
            &deep,      // a defect: guarded every time
            ENTRIES[0], ENTRIES[2], &deep, ENTRIES[1],
        ]);
        let first = batch_of(&ENTRIES[..1]);
        let cache = AnalysisCache::new();
        let ctx = RecoveryContext::new(RecoveryPolicy::Lenient);
        let mut worker = FusedWorker::new(2);
        worker
            .process_batch(0, 100, &batch, &cache, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_probes, worker.memo_hits), (8, 4));
        assert_eq!((worker.memo_token_hits, worker.lookups), (1, 1));
        assert_eq!(
            worker.counts[0]
                .values()
                .map(|&(_, count)| count)
                .collect::<Vec<_>>(),
            [4]
        );
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
            .process_batch(1, 0, &first, &cache, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_hits, worker.lookups), (5, 1));
        assert_eq!(
            worker.counts[1]
                .values()
                .map(|&(_, count)| count)
                .collect::<Vec<_>>(),
            [1]
        );

        // A cache that never saw the form (cannot happen within one run; the
        // guard is what makes that not matter): the raw hit and then the
        // token hit are refused, the entry takes the full path and its
        // record is made.
        let cold = AnalysisCache::new();
        worker.counts[1].clear();
        worker
            .process_batch(1, 1, &first, &cold, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_hits, worker.lookups), (5, 2));
        assert_eq!(
            worker.counts[1]
                .values()
                .map(|&(_, count)| count)
                .collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(cold.len(), 1);

        // Under Strict the repeated defect is fatal where it first stands.
        let strict = RecoveryContext::new(RecoveryPolicy::Strict);
        let error = FusedWorker::new(1)
            .process_batch(0, 100, &batch, &cache, &strict, "test")
            .unwrap_err();
        assert!(error.to_string().contains("entry 103"), "{error}");
    }

    fn batch_of(entries: &[&str]) -> EntryBlock {
        let mut block = EntryBlock::new();
        for entry in entries {
            block.push(entry);
        }
        block
    }

    #[test]
    fn layout_variants_resolve_through_the_token_key_and_install_their_bytes() {
        let base = "SELECT ?x WHERE { ?x a <http://C> }";
        let tabs = "SELECT\t?x\tWHERE\t{\t?x a <http://C>\t}";
        let cased = "select ?x Where { ?x a <http://C> } # trailing comment";
        let invalid = "SELECT WHERE { ?x }";
        let invalid_variant = "select  where {?x}  # still invalid";
        // Another token stream, the same canonical form: two keys, one
        // fingerprint.
        let prefixed = "PREFIX c: <http://> SELECT ?x WHERE { ?x a c:C }";
        let entries = [
            base,
            tabs,
            cased,
            invalid,
            invalid_variant,
            tabs,
            invalid_variant,
            prefixed,
            prefixed,
        ];
        let batch = batch_of(&entries);
        let cache = AnalysisCache::new();
        let ctx = RecoveryContext::new(RecoveryPolicy::Lenient);
        let mut worker = FusedWorker::new(1);
        worker
            .process_batch(0, 10, &batch, &cache, &ctx, "test")
            .unwrap();
        // Token hits: `tabs`, `cased` and `invalid_variant` on first sight.
        // Raw hits: their byte-identical repeats — the token hit installed
        // the raw key — and the second `prefixed`.
        assert_eq!(worker.memo_probes, 9);
        assert_eq!((worker.memo_hits, worker.memo_token_hits), (6, 3));
        assert_eq!(worker.lookups, 1);
        assert_eq!(
            worker.counts[0]
                .values()
                .map(|&(_, count)| count)
                .collect::<Vec<_>>(),
            [6]
        );
        let tally = &worker.tallies[0];
        assert_eq!((tally.syntax, tally.total()), (3, 3));
        let positions: Vec<u64> = tally.exemplars.iter().map(|&(_, at)| at).collect();
        assert_eq!(positions, [13, 14, 16]);
        for entry in [tabs, cased, invalid_variant] {
            assert!(
                worker.memo.get(hash128(entry.as_bytes())).is_some(),
                "{entry}"
            );
        }

        // The same log through the oracle: the same counts and tallies.
        let raw = batch.iter().map(str::to_owned).collect();
        let oracle = analyze_reference(&[RawLog::new("test", raw)], Population::Valid);
        let fused = analyze_streams(readers_of(&entries), Population::Valid).unwrap();
        assert_eq!(fused.summaries[0].counts, oracle.datasets[0].counts);
        assert_eq!(fused.summaries[0].errors, oracle.datasets[0].errors);
    }

    #[test]
    fn a_drill_needle_in_a_layout_variant_of_a_memoized_entry_still_trips() {
        // The needle sits only where the tokens cannot see it — in a
        // comment, in a keyword's case — so the variant's token key is the
        // memoized entry's; the drill is checked before the key is probed.
        let base = "ASK { ?s <http://p> ?o }";
        let commented = "ASK { ?s <http://p> ?o } # Needle";
        let cased = "Needle { ?s <http://p> ?o }".replace("Needle", "ask");
        let ctx = RecoveryContext::drilled(RecoveryPolicy::Lenient, "Needle");
        let cased_ctx = RecoveryContext::drilled(RecoveryPolicy::Lenient, "ask");
        let cache = AnalysisCache::new();
        let mut worker = FusedWorker::new(1);
        let batch = batch_of(&[base, commented, commented]);
        worker
            .process_batch(0, 0, &batch, &cache, &ctx, "test")
            .unwrap();
        worker
            .process_batch(
                0,
                3,
                &batch_of(&[&cased, &cased]),
                &cache,
                &cased_ctx,
                "test",
            )
            .unwrap();
        assert_eq!((worker.memo_hits, worker.memo_token_hits), (0, 0));
        assert_eq!(
            worker.counts[0]
                .values()
                .map(|&(_, count)| count)
                .collect::<Vec<_>>(),
            [1]
        );
        let tally = &worker.tallies[0];
        assert_eq!((tally.worker_panic, tally.total()), (4, 4));

        let strict = RecoveryContext::drilled(RecoveryPolicy::Strict, "Needle");
        let error = worker
            .process_batch(0, 10, &batch, &cache, &strict, "test")
            .unwrap_err();
        assert!(error.to_string().contains("entry 11"), "{error}");
    }

    #[test]
    fn guard_trips_are_never_resolved_by_either_key() {
        let mut ctx = RecoveryContext::new(RecoveryPolicy::Lenient);
        ctx.limits.max_entry_bytes = 200;
        ctx.limits.max_tokens = 24;
        ctx.limits.max_depth = 8;
        // 21 tokens nested 10 deep; 26 tokens; over 200 bytes.
        let deep = format!("ASK {}{}", "{ ".repeat(10), "} ".repeat(10));
        let deep_variant = format!("ask{}{}", "{\t".repeat(10), "}\t".repeat(10));
        let many = format!("ASK {{ {} }}", ["?s <http://p> ?o"; 6].join(" . "));
        let many_variant = format!("ask{{{}}}", ["?s <http://p> ?o"; 6].join("."));
        let (many, many_variant) = (many.as_str(), many_variant.as_str());
        let long = format!("ASK {{ ?s <http://{}> ?o }}", "p".repeat(200));
        let long_variant = long.replace(' ', "  ");
        let entries = [
            deep.as_str(),
            &deep_variant,
            &deep,
            many,
            many_variant,
            many,
            &long,
            &long_variant,
            &long,
        ];
        let cache = AnalysisCache::new();
        let mut worker = FusedWorker::new(1);
        worker
            .process_batch(0, 0, &batch_of(&entries), &cache, &ctx, "test")
            .unwrap();
        assert_eq!((worker.memo_hits, worker.memo_token_hits), (0, 0));
        let tally = &worker.tallies[0];
        assert_eq!((tally.depth_exceeded, tally.oversize_entry), (3, 6));
        assert!(worker.counts[0].is_empty());
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
