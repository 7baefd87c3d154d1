//! The fingerprint-keyed analysis cache, stated as tests. Cache soundness
//! has two halves: equal canonical fingerprint ⇒ equal analysis (respelled
//! queries), and the engine's reports — every duplicate served from the
//! memo — equal those of the oracle (`baseline::analyze_reference`), which
//! analyses every occurrence from scratch through throwaway interners. The
//! cache keeps each distinct
//! record once, as a class, and the class ids it hands out depend on the
//! schedule: runs over the same logs in opposite orders show they never
//! reach a report, summary or tally.
//!
//! The same two halves one level down, for the entry memo in front of the
//! parser and its two keys (equal bytes ⇒ equal outcome, equal tokens ⇒
//! equal parse): byte-identical, layout-variant, `PREFIX`-respelled and
//! invalid repeats at every worker count and batch size, slots fought over
//! by more lines than the table holds, and defects that must meet the
//! guarded parse at every repeat — all against the oracle, which has no
//! memo of any kind.

mod common;

use common::{duplicate_heavy_corpus, memory_readers, Scratch, WORKER};
use proptest::prelude::*;
use sparqlog::core::baseline::analyze_reference;
use sparqlog::core::cache::AnalysisCache;
use sparqlog::core::corpus::{analyze_streams_with, FusedAnalysis, FusedOptions, RawLog};
use sparqlog::core::fused::ENTRY_MEMO_SLOTS;
use sparqlog::core::report::full_report;
use sparqlog::core::{CorpusAnalysis, ErrorKind, Population, QueryAnalysis, RecoveryPolicy};
use sparqlog::obs::env;
use sparqlog::parser::bytescan::hash128;
use sparqlog::parser::token::{token_key, Keyword, Token};
use sparqlog::parser::{
    canonical_fingerprint_of_ref, lexer, parse_query_in, Arena, Interner, ParseError,
};
use sparqlog::shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};

fn engine_at(
    logs: &[RawLog],
    population: Population,
    workers: usize,
    batch: usize,
    recovery: RecoveryPolicy,
) -> FusedAnalysis {
    let options = FusedOptions {
        workers,
        batch,
        recovery,
    };
    analyze_streams_with(memory_readers(logs), population, options)
        .expect("in-memory streams cannot fail")
}

fn fused_at(
    logs: &[RawLog],
    population: Population,
    workers: usize,
    batch: usize,
) -> FusedAnalysis {
    engine_at(logs, population, workers, batch, RecoveryPolicy::default())
}

/// The engine under Lenient recovery (the oracle's semantics), so corpora
/// may carry defects as well as plain invalid entries.
fn lenient_at(
    logs: &[RawLog],
    population: Population,
    workers: usize,
    batch: usize,
) -> FusedAnalysis {
    engine_at(logs, population, workers, batch, RecoveryPolicy::Lenient)
}

#[test]
fn cache_on_and_cache_off_reports_are_byte_identical_on_a_fixed_corpus() {
    let raw = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let uncached = analyze_reference(&raw, population);
        for workers in [1, 2, 8] {
            let cached = fused_at(&raw, population, workers, 0);
            assert_eq!(
                full_report(&cached.corpus),
                full_report(&uncached),
                "cache-on vs cache-off report mismatch on {population:?}, {workers} workers"
            );
            // The debug representation (every tally field) must agree too.
            assert_eq!(format!("{:?}", cached.corpus), format!("{uncached:?}"));
            let cache_stats = cached.stats.cache.expect("fused runs report cache stats");
            assert!(cache_stats.hits > 0, "duplicates must hit the cache");
            assert!(
                cached.stats.interner.bytes_saved > 0,
                "interner must save bytes"
            );
        }
    }
}

#[test]
fn interned_term_analysis_matches_the_string_term_baseline() {
    // The oracle's multi-walk path compares projection and visibility on
    // strings and hands the canonical graph a throwaway interner per query;
    // the engine threads one long-lived interner per worker through all of
    // it, and with eight workers on five-entry batches each interner has
    // seen a different slice of the corpus. Byte-identical tallies prove no
    // result depends on an interner's state.
    let raw = duplicate_heavy_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = analyze_reference(&raw, population);
        let interned = fused_at(&raw, population, 8, 5);
        assert_eq!(
            format!("{reference:?}"),
            format!("{:?}", interned.corpus),
            "interned vs string-term mismatch on {population:?}"
        );
    }
}

/// Everything the engine reports must equal the memo-less oracle's: Table-1
/// counts and error tallies (counts *and* first positions) per log, the
/// full report, and the cache accounting of one lookup per valid occurrence.
fn assert_matches_oracle(fused: &FusedAnalysis, oracle: &CorpusAnalysis, context: &str) {
    assert_eq!(fused.summaries.len(), oracle.datasets.len(), "{context}");
    for (summary, dataset) in fused.summaries.iter().zip(&oracle.datasets) {
        assert_eq!(
            summary.counts, dataset.counts,
            "{context}: {}",
            summary.label
        );
        assert_eq!(
            summary.errors, dataset.errors,
            "{context}: {}",
            summary.label
        );
    }
    assert_eq!(full_report(&fused.corpus), full_report(oracle), "{context}");
    let stats = fused.stats.cache.expect("fused runs report cache stats");
    assert_eq!(
        stats.hits + stats.misses,
        oracle.combined.counts.valid,
        "{context}"
    );
}

/// One spelling of a pool line. 0–6 keep its token stream (so the token
/// key must resolve them): a doubled space, trailing blanks, tabs between
/// tokens, title-case keywords (`Select`), a trailing `# comment`, `'x'`
/// for `"x"`, and `"\u0061"` for `"a"`. 7 abbreviates its IRIs through
/// `PREFIX` declarations: another token stream, the same canonical form —
/// two keys, one fingerprint. Anything else is the line itself. Lines that
/// do not lex get the plain-text variants only.
fn respelled_as(line: &str, spelling: u8) -> String {
    match spelling {
        0 => line.replacen(' ', "  ", 1),
        1 => format!("{line} \t"),
        2 => retokened(line, "\t", |_, text| text.to_string()),
        3 => retokened(line, " ", |token, text| match token {
            Token::Keyword(_) => {
                let lower = text.to_ascii_lowercase();
                lower[..1].to_ascii_uppercase() + &lower[1..]
            }
            _ => text.to_string(),
        }),
        4 => format!("{line} # comment"),
        5 => retokened(line, " ", |token, text| {
            match (token, short_string_body(text)) {
                (Token::String(_), Some(body)) if text.starts_with('"') && !body.contains('\'') => {
                    format!("'{body}'")
                }
                _ => text.to_string(),
            }
        }),
        6 => retokened(line, " ", |token, text| {
            match (token, short_string_body(text)) {
                (Token::String(_), Some(body)) if !body.contains('\\') => {
                    match body.find(|c: char| c.is_ascii_alphanumeric()) {
                        Some(at) => format!(
                            "{quote}{}\\u{:04X}{}{quote}",
                            &body[..at],
                            u32::from(body.as_bytes()[at]),
                            &body[at + 1..],
                            quote = &text[..1]
                        ),
                        None => text.to_string(),
                    }
                }
                _ => text.to_string(),
            }
        }),
        7 if lexer::tokenize_in(line, &Arena::new()).is_ok() => respell(line),
        _ => line.to_string(),
    }
}

/// Rewrites a line token by token: each token's source text (its trailing
/// layout dropped) through `piece`, joined by `separator`. Inserting layout
/// between two tokens never changes either, so with `piece` the identity
/// the token stream is unchanged. A line that does not lex is returned as
/// it is.
fn retokened(line: &str, separator: &str, piece: impl Fn(&Token<'_>, &str) -> String) -> String {
    let arena = Arena::new();
    let Ok(tokens) = lexer::tokenize_in(line, &arena) else {
        return line.to_string();
    };
    let pieces: Vec<String> = tokens
        .iter()
        .enumerate()
        .map(|(i, spanned)| {
            let end = tokens.get(i + 1).map_or(line.len(), |next| next.offset);
            piece(&spanned.token, line[spanned.offset..end].trim_end())
        })
        .collect();
    pieces.join(separator)
}

/// The body of a short-quoted string literal's source text (`"…"` or
/// `'…'`), or `None` for a long-quoted one.
fn short_string_body(text: &str) -> Option<&str> {
    let quote = text.chars().next()?;
    let long = text.len() >= 6 && text.starts_with(&quote.to_string().repeat(3));
    (!long && text.len() >= 2).then(|| &text[1..text.len() - 1])
}

/// A line the recursion guard rejects: a defect, never a memoized outcome.
fn too_deep() -> String {
    format!("SELECT * WHERE {}{}", "{ ".repeat(300), "} ".repeat(300))
}

/// The memo slot a line's bytes map to.
fn slot_of(line: &str) -> usize {
    hash128(line.as_bytes()) as usize % ENTRY_MEMO_SLOTS
}

#[test]
fn more_distinct_lines_than_memo_slots_still_match_the_oracle() {
    // Two passes over more distinct lines than a worker's memo has slots:
    // by the second pass lines have been overwritten by their slot's later
    // tenants. Overwriting may cost a re-parse; it must never serve one
    // line another line's outcome.
    let mut lines: Vec<String> = (0..ENTRY_MEMO_SLOTS * 3 / 4)
        .map(|i| format!("log noise {i}"))
        .collect();
    lines.extend(
        (0..ENTRY_MEMO_SLOTS / 2).map(|i| format!("ASK {{ ?s <http://example.org/p{i}> ?o }}")),
    );
    assert!(lines.len() > ENTRY_MEMO_SLOTS);
    let mut entries = lines.clone();
    entries.extend(lines.iter().rev().cloned());
    let raw = [RawLog::new("crowded", entries)];
    let oracle = analyze_reference(&raw, Population::Unique);
    assert_eq!(oracle.combined.counts.unique, ENTRY_MEMO_SLOTS as u64 / 2);
    for workers in [1, 2] {
        let fused = lenient_at(&raw, Population::Unique, workers, 0);
        assert_matches_oracle(&fused, &oracle, &format!("{workers} workers"));
    }
}

#[test]
fn lines_sharing_a_memo_slot_evict_each_other_and_still_match_the_oracle() {
    // Three lines with different outcomes forced into one slot — two valid
    // forms and one syntax failure — interleaved so each probe finds the
    // slot held by someone else.
    let valid = |i: usize| format!("SELECT ?x WHERE {{ ?x <http://example.org/q{i}> ?y }}");
    let first = valid(0);
    let second = (1..)
        .map(valid)
        .find(|line| slot_of(line) == slot_of(&first))
        .expect("some line shares the slot");
    let invalid = (0..)
        .map(|i| format!("SELECT WHERE {i}"))
        .find(|line| slot_of(line) == slot_of(&first))
        .expect("some line shares the slot");
    let pattern = [
        &first, &second, &first, &invalid, &second, &invalid, &first, &first,
    ];
    let entries: Vec<String> = pattern
        .iter()
        .cycle()
        .take(64)
        .map(|s| s.to_string())
        .collect();
    let raw = [RawLog::new("thrash", entries)];
    let oracle = analyze_reference(&raw, Population::Valid);
    assert_eq!(oracle.combined.counts.unique, 2);
    assert_eq!(oracle.datasets[0].errors.syntax, 16);
    for (workers, batch) in [(1, 0), (1, 1), (2, 3)] {
        let fused = lenient_at(&raw, Population::Valid, workers, batch);
        assert_matches_oracle(
            &fused,
            &oracle,
            &format!("{workers} workers, batch {batch}"),
        );
    }
}

#[test]
fn a_repeated_defect_is_guarded_at_every_repeat() {
    // The drill line is byte-identical every time; if its first outcome
    // were memoized the repeats would skip the check that trips it.
    const REPEATS: u64 = 12;
    let drill = "SELECT ?drill WHERE { ?drill a <http://example.org/MemoDrill> }";
    let valid = "ASK { ?a <http://example.org/p> ?b }";
    let mut lines = vec![valid, valid];
    for _ in 0..REPEATS {
        lines.extend([drill, valid]);
    }
    // The panic drill is armed through the worker process's environment,
    // never this process's.
    let scratch = Scratch::new("drill");
    let path = scratch.path().join("drill.log");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write log");
    let logs = vec![LogSpec::new("drill", path)];
    let run = |worker_threads, recovery| {
        let options = ShardOptions {
            shards: 1,
            worker_threads,
            worker: WorkerCommand::new(WORKER).env(env::PANIC_DRILL, "MemoDrill"),
            recovery,
        };
        analyze_sharded(&logs, Population::Valid, &options)
    };

    for worker_threads in [1, 2] {
        let lenient = run(worker_threads, RecoveryPolicy::Lenient).expect("panics are contained");
        let summary = &lenient.summaries[0];
        assert_eq!(summary.errors.count(ErrorKind::WorkerPanic), REPEATS);
        assert_eq!(summary.errors.total(), REPEATS);
        let first_positions: Vec<(u8, u64)> = (0..8)
            .map(|i| (ErrorKind::WorkerPanic.wire_code(), 2 + 2 * i))
            .collect();
        assert_eq!(summary.errors.exemplars, first_positions);
        assert_eq!(summary.counts.valid, REPEATS + 2);
        assert_eq!(summary.counts.unique, 1);
    }

    let strict = run(1, RecoveryPolicy::Strict).expect_err("strict mode fails on the drill");
    let message = strict.to_string();
    assert!(message.contains("entry 2:"), "{message}");
}

/// Respells a query without changing its canonical form: keywords swap
/// case, `<ns/local>` IRIs are abbreviated through freshly declared
/// prefixes, and whitespace is added where the grammar cannot care. Works
/// on the token stream (a token's text runs from its offset to the next
/// token's), so literals and IRIs that merely look like keywords are left
/// alone.
fn respell(text: &str) -> String {
    let arena = Arena::new();
    let tokens = lexer::tokenize_in(text, &arena).expect("synthesized queries lex");
    let mut namespaces: Vec<&str> = Vec::new();
    let mut body = String::new();
    for (i, spanned) in tokens.iter().enumerate() {
        let end = tokens.get(i + 1).map_or(text.len(), |next| next.offset);
        let chunk = &text[spanned.offset..end];
        let declares = i > 0
            && matches!(
                tokens[i - 1].token,
                Token::Keyword(Keyword::Base) | Token::PrefixedName(_, "")
            );
        match spanned.token {
            Token::Keyword(_) => {
                body.extend(chunk.chars().map(|c| {
                    if c.is_ascii_lowercase() {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                }));
                body.push_str("\n\t ");
            }
            Token::IriRef(iri) if !declares => match split_iri(iri) {
                Some((namespace, local)) => {
                    let n = namespaces
                        .iter()
                        .position(|known| *known == namespace)
                        .unwrap_or_else(|| {
                            namespaces.push(namespace);
                            namespaces.len() - 1
                        });
                    // The space keeps a following `.` out of the local name.
                    body.push_str(&format!("ns{n}:{local} {}", &chunk[iri.len() + 2..]));
                }
                None => body.push_str(chunk),
            },
            Token::LBrace | Token::RBrace | Token::Dot => {
                body.push_str(chunk);
                body.push_str("  \n");
            }
            _ => body.push_str(chunk),
        }
    }
    let mut respelled = String::from("  ");
    for (n, namespace) in namespaces.iter().enumerate() {
        respelled.push_str(&format!("prefix ns{n}: <{namespace}>\n"));
    }
    respelled + &body
}

/// Splits an IRI after its last `/` or `#` when what follows can be written
/// as the local part of a prefixed name.
fn split_iri(iri: &str) -> Option<(&str, &str)> {
    let (namespace, local) = iri.split_at(iri.rfind(['/', '#'])? + 1);
    let plain = local.starts_with(|c: char| c.is_ascii_alphabetic())
        && local.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    plain.then_some((namespace, local))
}

/// What a worker computes for one entry on a cache miss: the arena is reset,
/// the entry parsed into it, and the streamed fingerprint and the analysis
/// both read the borrowed AST.
fn fingerprint_and_analysis(
    text: &str,
    arena: &mut Arena,
    interner: &mut Interner,
) -> Result<(u128, QueryAnalysis), ParseError> {
    arena.reset();
    let query = parse_query_in(text, arena)?;
    Ok((
        canonical_fingerprint_of_ref(&query),
        QueryAnalysis::of_ref(&query, interner),
    ))
}

/// Pairs that read alike once written canonically unless a relative IRI
/// keeps its angle brackets: `<?x>` beside the variable `?x` in subject,
/// predicate and object position, `<_:b>` beside the blank node `_:b`, and a
/// 3-cycle that is only a cycle of variables when `<?y>` is read as `?y`.
const NEAR_COLLISIONS: [(&str, &str); 5] = [
    (
        "SELECT ?y WHERE { <?x> <http://p> ?y }",
        "SELECT ?y WHERE { ?x <http://p> ?y }",
    ),
    ("ASK { ?s <?p> ?o }", "ASK { ?s ?p ?o }"),
    (
        "SELECT ?x WHERE { ?x <http://p> <?y> }",
        "SELECT ?x WHERE { ?x <http://p> ?y }",
    ),
    (
        "SELECT * WHERE { ?x <http://p> <_:b> . <_:b> <http://q> ?z }",
        "SELECT * WHERE { ?x <http://p> _:b . _:b <http://q> ?z }",
    ),
    (
        "ASK { ?x <http://p> <?y> . <?y> <http://p> ?z . ?z <http://p> ?x }",
        "ASK { ?x <http://p> ?y . ?y <http://p> ?z . ?z <http://p> ?x }",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine — every duplicate occurrence served from the memo — and
    /// the oracle — every occurrence analysed from scratch — agree on any
    /// synthesized duplicate-heavy log at 1, 2 and 8 workers.
    #[test]
    fn cached_reports_match_uncached_on_synthesized_corpora(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        batch in 1usize..16,
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut entries: Vec<String> = (0..40).map(|_| synth.fresh_query()).collect();
        // Force duplicates, including across what will be batch boundaries.
        let tiled: Vec<String> = entries.iter().take(20).cloned().collect();
        entries.extend(tiled);
        entries.push("garbage entry".to_string());
        let raw = [RawLog::new("prop", entries)];
        let uncached = full_report(&analyze_reference(&raw, Population::Valid));
        for workers in [1, 2, 8] {
            let cached = fused_at(&raw, Population::Valid, workers, batch);
            prop_assert_eq!(
                &full_report(&cached.corpus),
                &uncached,
                "cache differential diverged: {} workers, batch {}",
                workers, batch
            );
        }
    }

    /// The entry memo, both keys, against the memo-less oracle: a log drawn
    /// from a pool of synthesized queries, twins that differ in one token's
    /// text, plain invalid lines and one defect, each draw spelled byte-identically or as one of the
    /// [`respelled_as`] variants — layout variants the token key must
    /// resolve, and a `PREFIX` spelling it must not — read forwards as one
    /// log and backwards as another (so every line also repeats across
    /// logs, at different positions).
    #[test]
    fn memoized_entries_match_the_oracle_on_repeat_heavy_logs(
        seed in 0u64..5_000,
        dataset_idx in 0usize..13,
        draws in proptest::collection::vec((0usize..44, 0u8..12), 120..200),
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut pool: Vec<String> = (0..35).map(|_| synth.fresh_query()).collect();
        // Twins whose token streams differ in one payload only: one key
        // each, or a lossy serialization would count one as the other.
        pool.extend([
            "SELECT ?x WHERE { ?x <http://example.org/p> \"x\" }".to_string(),
            "SELECT ?x WHERE { ?x <http://example.org/p> \"y\" }".to_string(),
            "ASK { ?x <http://example.org/p> 1 }".to_string(),
            "ASK { ?x <http://example.org/p> 2 }".to_string(),
        ]);
        pool.extend([
            "garbage entry".to_string(),
            "SELECT ?x WHERE { ?x <http://example.org/p> \"unterminated }".to_string(),
            "ASK { ?s ?p".to_string(),
            "SELECT ?x WHERE { ?x <http://example.org/\u{0}> ?y }".to_string(),
            too_deep(),
        ]);
        // The spellings are what they claim: 0–6 keep a query's token
        // stream, 7 changes it but keeps its canonical form.
        let arena = Arena::new();
        let key_of = |line: &str| {
            let tokens = lexer::tokenize_in(line, &arena).expect("synthesized queries lex");
            token_key(tokens, &mut Vec::new())
        };
        let fingerprint_of = |line: &str| {
            canonical_fingerprint_of_ref(&parse_query_in(line, &arena).expect("queries parse"))
        };
        for line in &pool[..39] {
            for spelling in 0..7 {
                let respelled = respelled_as(line, spelling);
                prop_assert_eq!(key_of(&respelled), key_of(line), "{:?} vs {:?}", respelled, line);
            }
            let prefixed = respelled_as(line, 7);
            prop_assert_eq!(fingerprint_of(&prefixed), fingerprint_of(line), "{}", prefixed);
        }
        let entries: Vec<String> = draws
            .iter()
            .map(|&(pick, spelling)| respelled_as(&pool[pick], spelling))
            .collect();
        let backwards: Vec<String> = entries.iter().rev().cloned().collect();
        let raw = [RawLog::new("forwards", entries), RawLog::new("backwards", backwards)];
        let population = if seed % 2 == 0 { Population::Valid } else { Population::Unique };
        let oracle = analyze_reference(&raw, population);
        for workers in [1, 2, 8] {
            for batch in [1, 64] {
                let fused = lenient_at(&raw, population, workers, batch);
                assert_matches_oracle(
                    &fused,
                    &oracle,
                    &format!("{population:?}, {workers} workers, batch {batch}"),
                );
            }
        }
    }

    /// Equal fingerprint ⇒ equal analysis: a query and a respelling of it
    /// (whitespace, keyword case, prefix abbreviation) share a canonical
    /// fingerprint, and what the cache would memoize for one is exactly
    /// what a fresh analysis of the other computes. In the other direction,
    /// the hand-written [`NEAR_COLLISIONS`] differ in their analyses, so
    /// they must differ in their fingerprints.
    #[test]
    fn equal_fingerprints_mean_equal_analyses(seed in 0u64..5_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let (mut arena, mut interner) = (Arena::new(), Interner::new());
        for (a, b) in NEAR_COLLISIONS {
            let (fp_a, analysis_a) = fingerprint_and_analysis(a, &mut arena, &mut interner)
                .unwrap_or_else(|error| panic!("{a}: {error}"));
            let (fp_b, analysis_b) = fingerprint_and_analysis(b, &mut arena, &mut interner)
                .unwrap_or_else(|error| panic!("{b}: {error}"));
            prop_assert!(
                format!("{analysis_a:?}") != format!("{analysis_b:?}"),
                "fixture pair no longer differs in analysis:\n{}\n{}", a, b
            );
            prop_assert!(
                fp_a != fp_b,
                "different analyses, one fingerprint:\n{}\n{}", a, b
            );
        }
        for _ in 0..8 {
            let text = synth.fresh_query();
            let respelled = respell(&text);
            let (fp, analysis) = fingerprint_and_analysis(&text, &mut arena, &mut interner)
                .expect("synthesized queries parse");
            let (twin_fp, twin) = fingerprint_and_analysis(&respelled, &mut arena, &mut interner)
                .unwrap_or_else(|error| panic!("respelling must parse: {error}\n{respelled}"));
            prop_assert_eq!(
                fp,
                twin_fp,
                "respelling changed the canonical form:\n{}\n{}", text, respelled
            );
            prop_assert_eq!(
                format!("{analysis:?}"),
                format!("{twin:?}"),
                "equal fingerprints, different analyses:\n{}\n{}", text, respelled
            );
        }
    }

    /// The memoized record equals a fresh analysis for every query the
    /// synthesizer produces — the per-query version of the differential.
    #[test]
    fn memoized_record_equals_fresh_analysis(seed in 0u64..5_000, dataset_idx in 0usize..13) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let cache = AnalysisCache::new();
        let (mut arena, mut interner) = (Arena::new(), Interner::new());
        for _ in 0..8 {
            let text = synth.fresh_query();
            let (fp, analysis) = fingerprint_and_analysis(&text, &mut arena, &mut interner)
                .expect("synthesized queries parse");
            let class = cache.class_or_insert_with(fp, || analysis);
            let memoized = cache.get(fp).expect("just memoized");
            prop_assert_eq!(cache.class_of(fp), Some(class));
            let (_, fresh) = fingerprint_and_analysis(&text, &mut arena, &mut interner)
                .expect("synthesized queries parse");
            prop_assert_eq!(
                format!("{:?}", memoized),
                format!("{fresh:?}"),
                "memoized record diverges for {}", text
            );
        }
    }
    /// Class ids never leak: a corpus with one log per dataset profile runs
    /// forwards and backwards, each order a run with its own cache, so the
    /// ids one run issues first the other issues last. Every run must equal
    /// the oracle over its own log order — report, per-log summaries and
    /// error tallies — at 1, 2 and 8 workers, and the two orders must
    /// produce the same summaries, reversed.
    #[test]
    fn analysis_classes_never_leak(
        seed in 0u64..5_000,
        fresh in 6usize..24,
        population_idx in 0usize..2,
    ) {
        let population = [Population::Unique, Population::Valid][population_idx];
        let forwards: Vec<RawLog> = Dataset::ALL
            .iter()
            .enumerate()
            .map(|(i, dataset)| {
                let profile = DatasetProfile::of(*dataset);
                let mut synth = Synthesizer::new(profile, seed.wrapping_add(i as u64));
                let mut entries: Vec<String> = (0..fresh).map(|_| synth.fresh_query()).collect();
                let repeats: Vec<String> = entries.iter().step_by(3).cloned().collect();
                entries.extend(repeats);
                entries.push("garbage entry".to_string());
                RawLog::new(dataset.label(), entries)
            })
            .collect();
        let backwards: Vec<RawLog> = forwards.iter().rev().cloned().collect();
        for workers in [1, 2, 8] {
            let mut runs = Vec::new();
            for logs in [&forwards, &backwards] {
                let options = FusedOptions {
                    workers,
                    batch: 7,
                    recovery: RecoveryPolicy::Lenient,
                };
                let fused = analyze_streams_with(memory_readers(logs), population, options)
                    .expect("in-memory streams cannot fail");
                let oracle = analyze_reference(logs, population);
                for (summary, dataset) in fused.summaries.iter().zip(&oracle.datasets) {
                    prop_assert_eq!(&summary.counts, &dataset.counts, "{}", &summary.label);
                    prop_assert_eq!(&summary.errors, &dataset.errors, "{}", &summary.label);
                }
                prop_assert_eq!(
                    full_report(&fused.corpus),
                    full_report(&oracle),
                    "{:?}, {} workers", population, workers
                );
                runs.push(fused.summaries);
            }
            let mut reversed = runs.pop().expect("two runs");
            reversed.reverse();
            prop_assert_eq!(&runs[0], &reversed, "{} workers", workers);
        }
    }
}
