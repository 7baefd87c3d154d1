//! Malformed-input recovery: the per-log error tally, the run-wide
//! [`RecoveryPolicy`], and the guarded per-entry parse the engine and the
//! oracle share.
//!
//! The paper's corpora are real production logs: HTTP noise, truncated
//! strings, invalid UTF-8 and the occasional adversarially deep query all
//! show up between valid entries. This module gives every deployment of the
//! engine — in-process, sharded, served — and the oracle one error model:
//!
//! * **Taxonomy.** Every per-entry failure is classified as a stable
//!   [`ErrorKind`] (defined in the parser crate, wire codes append-only).
//! * **Tally.** Each log carries an [`ErrorTally`]: a count per kind plus
//!   the first few exemplar entry positions. Tallies merge commutatively,
//!   so per-worker, per-shard and per-process tallies combine in any order
//!   with identical results — the same contract as every other fold in the
//!   pipeline.
//! * **Policy.** A [`RecoveryPolicy`] decides what happens on a *defect*
//!   (invalid UTF-8 from a reader, a tripped resource guard, a caught
//!   panic): `Strict` fails the run, `Lenient` tallies and moves on,
//!   `ErrorBudget` tallies and fails the run at the end if the error rate
//!   exceeds the budget. Plain lex/syntax failures are *invalid entries*,
//!   not defects: they are tallied in every mode and never fatal, exactly
//!   as the Table-1 accounting has always treated them.
//!
//! Determinism: entry positions are assigned at the single-lock batch
//! source, so exemplar positions — like every other report byte — are
//! identical for any worker count, batch size or engine.

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::Query;
use sparqlog_parser::lexer::tokenize_in_limited;
use sparqlog_parser::token::Spanned;
use sparqlog_parser::{parse_tokens_in, Arena, ErrorKind, ParseError, ParseLimits};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many exemplar positions an [`ErrorTally`] retains per log: enough to
/// point a log owner at the first few offending entries, small enough to
/// bound snapshot frames on a pathological corpus.
pub const EXEMPLAR_CAP: usize = 8;

sparqlog_algebra::tally! {
    /// The per-log malformed-entry tally: one counter per [`ErrorKind`] plus
    /// the earliest [`EXEMPLAR_CAP`] offending entry positions.
    ///
    /// Positions are 0-based entry indices within the log (a reader-level
    /// defect, e.g. an invalid-UTF-8 line, occupies an entry position of its
    /// own and is counted in the log's `total`). Exemplars are kept sorted by
    /// `(position, wire code)` and truncated to the cap; because each
    /// producer keeps its *earliest* cap-many positions, merging any
    /// partition of the log reproduces the exact same exemplar set — the
    /// merge is commutative and associative like every other fold in the
    /// pipeline.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ErrorTally {
        /// Entries that failed lexical analysis.
        sum pub lex: u64,
        /// Entries that tokenized but did not parse.
        sum pub syntax: u64,
        /// Log lines that were not valid UTF-8 (never reached the lexer).
        sum pub invalid_utf8: u64,
        /// Entries that tripped the byte or token cap.
        sum pub oversize_entry: u64,
        /// Entries that nested deeper than the recursion guard.
        sum pub depth_exceeded: u64,
        /// Entries whose parse panicked; the panic was caught and recorded.
        sum pub worker_panic: u64,
        /// The earliest offending positions, as `(wire code, entry position)`
        /// sorted by `(position, code)`, at most [`EXEMPLAR_CAP`] of them.
        list(EXEMPLAR_CAP) pub exemplars: Vec<(u8, u64)>,
    }
}

impl ErrorTally {
    /// Records one failure of `kind` at the 0-based entry `position`.
    pub fn record(&mut self, kind: ErrorKind, position: u64) {
        *self.slot(kind) += 1;
        let key = (position, kind.wire_code());
        let at = self
            .exemplars
            .partition_point(|&(code, pos)| (pos, code) < key);
        if at < EXEMPLAR_CAP {
            self.exemplars.insert(at, (kind.wire_code(), position));
            self.exemplars.truncate(EXEMPLAR_CAP);
        }
    }

    fn slot(&mut self, kind: ErrorKind) -> &mut u64 {
        match kind {
            ErrorKind::Lex => &mut self.lex,
            ErrorKind::Syntax => &mut self.syntax,
            ErrorKind::InvalidUtf8 => &mut self.invalid_utf8,
            ErrorKind::OversizeEntry => &mut self.oversize_entry,
            ErrorKind::DepthExceeded => &mut self.depth_exceeded,
            ErrorKind::WorkerPanic => &mut self.worker_panic,
        }
    }

    /// The count for one kind.
    pub fn count(&self, kind: ErrorKind) -> u64 {
        match kind {
            ErrorKind::Lex => self.lex,
            ErrorKind::Syntax => self.syntax,
            ErrorKind::InvalidUtf8 => self.invalid_utf8,
            ErrorKind::OversizeEntry => self.oversize_entry,
            ErrorKind::DepthExceeded => self.depth_exceeded,
            ErrorKind::WorkerPanic => self.worker_panic,
        }
    }

    /// Total failures of every kind.
    pub fn total(&self) -> u64 {
        ErrorKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Failures that are *defects* under the recovery policy (everything
    /// except plain lex/syntax invalidity) — what [`RecoveryPolicy::Strict`]
    /// fails on and what an error budget meters.
    pub fn defects(&self) -> u64 {
        self.invalid_utf8 + self.oversize_entry + self.depth_exceeded + self.worker_panic
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.exemplars.is_empty()
    }
}

/// What the pipeline does when an entry is a *defect* — invalid UTF-8 from
/// the reader, a tripped resource guard, or a caught panic. Plain
/// lex/syntax failures are invalid entries in every mode and are only
/// tallied, never fatal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Follow the `SPARQLOG_RECOVERY` environment variable (`strict`,
    /// `lenient` or `budget:<max-per-10k>`); unset or unparsable means
    /// [`RecoveryPolicy::Strict`]. The same pattern as the
    /// `SPARQLOG_WORKERS` override.
    #[default]
    Auto,
    /// Fail the run on the first defect (the historical reader behaviour,
    /// now with a structured, position-carrying error).
    Strict,
    /// Recover per entry: tally the defect, count the entry as invalid and
    /// keep streaming. Never fails on malformed *content* (real I/O errors
    /// still abort).
    Lenient,
    /// Stream like [`RecoveryPolicy::Lenient`], then fail the run at the
    /// end if defects exceed `max_per_10k` per 10 000 log entries. The
    /// check runs once, over the merged end-of-run tallies, so every
    /// engine reaches the identical verdict.
    ErrorBudget {
        /// Permitted defects per 10 000 entries (e.g. `10` ≈ 0.1 %).
        max_per_10k: u32,
    },
}

impl RecoveryPolicy {
    /// Resolves [`RecoveryPolicy::Auto`] against the `SPARQLOG_RECOVERY`
    /// environment variable; the other variants resolve to themselves.
    pub fn resolve(self) -> RecoveryPolicy {
        match self {
            RecoveryPolicy::Auto => std::env::var("SPARQLOG_RECOVERY")
                .ok()
                .and_then(|v| RecoveryPolicy::parse(&v))
                .unwrap_or(RecoveryPolicy::Strict),
            other => other,
        }
    }

    /// Parses a policy spelling: `strict`, `lenient` or `budget:<n>`
    /// (defects per 10 000 entries). Returns `None` for anything else.
    pub fn parse(value: &str) -> Option<RecoveryPolicy> {
        let value = value.trim().to_ascii_lowercase();
        match value.as_str() {
            "strict" => Some(RecoveryPolicy::Strict),
            "lenient" => Some(RecoveryPolicy::Lenient),
            _ => {
                let rate = value.strip_prefix("budget:")?;
                rate.trim()
                    .parse::<u32>()
                    .ok()
                    .map(|max_per_10k| RecoveryPolicy::ErrorBudget { max_per_10k })
            }
        }
    }

    /// Whether a resolved policy recovers from defects (Lenient or budget).
    pub fn recovers(self) -> bool {
        !matches!(self.resolve(), RecoveryPolicy::Strict)
    }

    /// The defect budget of a resolved policy, if it has one.
    pub fn budget(self) -> Option<u32> {
        match self.resolve() {
            RecoveryPolicy::ErrorBudget { max_per_10k } => Some(max_per_10k),
            _ => None,
        }
    }

    /// The canonical spelling accepted back by [`RecoveryPolicy::parse`] —
    /// the form the shard worker command line and the serve protocol carry.
    pub fn spelling(self) -> String {
        match self {
            RecoveryPolicy::Auto => RecoveryPolicy::Strict.spelling(),
            RecoveryPolicy::Strict => "strict".to_string(),
            RecoveryPolicy::Lenient => "lenient".to_string(),
            RecoveryPolicy::ErrorBudget { max_per_10k } => format!("budget:{max_per_10k}"),
        }
    }
}

/// The error a budgeted run fails with when the end-of-run defect rate
/// exceeds the budget. Carried as the payload of an
/// [`io::Error`] of kind `InvalidData`; downcast to get the
/// preserved tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Defects observed across the whole run.
    pub defects: u64,
    /// Total log entries across the whole run.
    pub total: u64,
    /// The budget that was exceeded (defects per 10 000 entries).
    pub max_per_10k: u32,
    /// The merged end-of-run tally, preserved for postmortems.
    pub tally: ErrorTally,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error budget exceeded: {} defects in {} entries (budget {} per 10k)",
            self.defects, self.total, self.max_per_10k
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The payload of the [`io::Error`] a [`LogReader`](crate::corpus::LogReader)
/// (crate::corpus::LogReader) raises on a malformed stream, carrying the
/// log label and the 1-based line number so a strict-mode failure names
/// the offending line and a lenient run can tally it.
#[derive(Debug, Clone)]
pub struct ReaderDefect {
    /// The label of the log whose stream was malformed.
    pub label: String,
    /// The 1-based line number of the malformed line.
    pub line: u64,
}

impl fmt::Display for ReaderDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log {:?}, line {}: stream did not contain valid UTF-8",
            self.label, self.line
        )
    }
}

impl std::error::Error for ReaderDefect {}

/// Whether an I/O error is a recoverable reader defect (a malformed line,
/// as opposed to a real I/O failure, which no policy recovers from).
pub(crate) fn reader_defect(error: &io::Error) -> bool {
    error
        .get_ref()
        .is_some_and(|payload| payload.is::<ReaderDefect>())
}

impl From<BudgetExceeded> for io::Error {
    fn from(error: BudgetExceeded) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, error)
    }
}

/// Checks a merged end-of-run tally against a resolved policy's budget.
/// Called exactly once per run, at the top-level merge point: the
/// in-process engine checks its own totals, and
/// [`LogSlots`](crate::incremental::LogSlots) checks the merged per-log
/// results of the shard coordinator and the serve job table.
pub fn enforce_budget(
    policy: RecoveryPolicy,
    tally: &ErrorTally,
    total: u64,
) -> Result<(), BudgetExceeded> {
    let Some(max_per_10k) = policy.budget() else {
        return Ok(());
    };
    let defects = tally.defects();
    // defects / total > max_per_10k / 10_000, in exact integer arithmetic.
    if u128::from(defects) * 10_000 > u128::from(max_per_10k) * u128::from(total) {
        return Err(BudgetExceeded {
            defects,
            total,
            max_per_10k,
            tally: tally.clone(),
        });
    }
    Ok(())
}

/// The per-run recovery context threaded through every parse worker: the
/// resolved policy, the hard resource guards, and the panic-drill needle
/// (resolved once per run from `SPARQLOG_PANIC_DRILL`, so the drill fires
/// identically on every engine and worker count).
#[derive(Debug, Clone)]
pub(crate) struct RecoveryContext {
    pub(crate) policy: RecoveryPolicy,
    pub(crate) limits: ParseLimits,
    drill: Option<String>,
}

impl RecoveryContext {
    /// Resolves the policy and the panic drill for one run.
    pub(crate) fn new(policy: RecoveryPolicy) -> RecoveryContext {
        RecoveryContext {
            policy: policy.resolve(),
            limits: ParseLimits::default(),
            drill: std::env::var("SPARQLOG_PANIC_DRILL")
                .ok()
                .filter(|needle| !needle.is_empty()),
        }
    }

    /// A context with the panic drill armed on `needle`, whatever the
    /// environment says.
    #[cfg(test)]
    pub(crate) fn drilled(policy: RecoveryPolicy, needle: &str) -> RecoveryContext {
        RecoveryContext {
            drill: Some(needle.to_string()),
            ..RecoveryContext::new(policy)
        }
    }

    /// Whether a parse failure of `kind` aborts the run under this policy.
    pub(crate) fn fatal(&self, kind: ErrorKind) -> bool {
        !matches!(kind, ErrorKind::Lex | ErrorKind::Syntax) && !self.policy.recovers()
    }

    /// The one guarded per-entry parse, shared by the engine and the oracle.
    /// In order: the panic drill, the byte cap, then lexing under the token
    /// cap; `resolve` gets the [`Lexed`] entry and may parse it, under the
    /// depth cap, or settle it from its tokens alone (the engine's token
    /// key). The drill comes first, so it trips on any spelling of an entry.
    ///
    /// All of it runs inside one panic-isolation boundary: the drill and
    /// any genuine panic — while lexing, parsing, fingerprinting or
    /// analysing in `resolve` — are caught here, at the batch boundary, and
    /// surface as a structured [`ErrorKind::WorkerPanic`] error instead of
    /// unwinding into the worker pool (which would poison the lane locks
    /// of the batch source). After a caught panic the caller must
    /// [`Arena::trim`] the arena it passed, since the unwind may have left a
    /// partially filled chunk.
    pub(crate) fn parse_entry<'a, T>(
        &self,
        entry: &'a str,
        arena: &'a Arena,
        resolve: impl FnOnce(Lexed<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            if let Some(needle) = &self.drill {
                if entry.contains(needle.as_str()) {
                    panic!("SPARQLOG_PANIC_DRILL tripped");
                }
            }
            if self.limits.oversize(entry.len()) {
                return Err(ParseError::with_kind(
                    ErrorKind::OversizeEntry,
                    format!(
                        "entry of {} bytes exceeds the {}-byte cap",
                        entry.len(),
                        self.limits.max_entry_bytes
                    ),
                    1,
                    1,
                ));
            }
            let tokens = tokenize_in_limited(entry, arena, self.limits.max_tokens)?;
            resolve(Lexed {
                tokens,
                arena,
                limits: self.limits,
            })
        }));
        match guarded {
            Ok(resolved) => resolved,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "parser panicked".to_string());
                Err(ParseError::with_kind(ErrorKind::WorkerPanic, message, 0, 0))
            }
        }
    }

    /// The structured error a strict-mode run fails with: the log label,
    /// the 0-based entry position and the underlying parse error.
    pub(crate) fn fatal_error(&self, label: &str, position: u64, error: &ParseError) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("log {label:?}, entry {position}: {error}"),
        )
    }
}

/// An entry that passed the drill, the byte cap and the token cap, handed
/// to [`RecoveryContext::parse_entry`]'s `resolve`: its tokens, and a parse
/// of them under the depth cap.
pub(crate) struct Lexed<'a> {
    tokens: &'a [Spanned<'a>],
    arena: &'a Arena,
    limits: ParseLimits,
}

impl<'a> Lexed<'a> {
    /// The entry's tokens, in the arena.
    pub(crate) fn tokens(&self) -> &'a [Spanned<'a>] {
        self.tokens
    }

    /// Parses the tokens into the arena under the depth cap.
    pub(crate) fn parse(&self) -> Result<Query<'a>, ParseError> {
        parse_tokens_in(self.tokens, self.arena, &self.limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_records_counts_and_sorted_exemplars() {
        let mut tally = ErrorTally::default();
        tally.record(ErrorKind::Syntax, 7);
        tally.record(ErrorKind::Lex, 2);
        tally.record(ErrorKind::Syntax, 2);
        assert_eq!(tally.syntax, 2);
        assert_eq!(tally.lex, 1);
        assert_eq!(tally.total(), 3);
        assert_eq!(tally.defects(), 0);
        // Sorted by (position, code): lex (0) before syntax (1) at pos 2.
        assert_eq!(tally.exemplars, vec![(0, 2), (1, 2), (1, 7)]);
    }

    #[test]
    fn tally_keeps_the_earliest_cap_exemplars() {
        let mut tally = ErrorTally::default();
        for position in (0..32).rev() {
            tally.record(ErrorKind::DepthExceeded, position);
        }
        assert_eq!(tally.depth_exceeded, 32);
        assert_eq!(tally.defects(), 32);
        let expected: Vec<(u8, u64)> = (0..EXEMPLAR_CAP as u64)
            .map(|p| (ErrorKind::DepthExceeded.wire_code(), p))
            .collect();
        assert_eq!(tally.exemplars, expected);
    }

    #[test]
    fn tally_merge_is_commutative_and_matches_the_whole() {
        // Partition one log's failures arbitrarily; merging the partitions
        // must reproduce the whole-log tally in either order.
        let failures: Vec<(ErrorKind, u64)> = (0..40)
            .map(|i| (ErrorKind::ALL[i % ErrorKind::COUNT], (i * 7 % 29) as u64))
            .collect();
        let mut whole = ErrorTally::default();
        let mut left = ErrorTally::default();
        let mut right = ErrorTally::default();
        for (i, &(kind, position)) in failures.iter().enumerate() {
            whole.record(kind, position);
            if i % 3 == 0 {
                left.record(kind, position);
            } else {
                right.record(kind, position);
            }
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right;
        ba.merge(&left);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), whole.total());
        assert_eq!(ab.exemplars, whole.exemplars);
    }

    #[test]
    fn policy_parsing_and_spelling_round_trip() {
        assert_eq!(
            RecoveryPolicy::parse("strict"),
            Some(RecoveryPolicy::Strict)
        );
        assert_eq!(
            RecoveryPolicy::parse(" Lenient "),
            Some(RecoveryPolicy::Lenient)
        );
        assert_eq!(
            RecoveryPolicy::parse("budget:25"),
            Some(RecoveryPolicy::ErrorBudget { max_per_10k: 25 })
        );
        assert_eq!(RecoveryPolicy::parse("budget:"), None);
        assert_eq!(RecoveryPolicy::parse("nonsense"), None);
        for policy in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Lenient,
            RecoveryPolicy::ErrorBudget { max_per_10k: 3 },
        ] {
            assert_eq!(RecoveryPolicy::parse(&policy.spelling()), Some(policy));
        }
    }

    #[test]
    fn budget_enforcement_is_an_exact_rate_check() {
        let mut tally = ErrorTally::default();
        tally.record(ErrorKind::WorkerPanic, 0);
        // 1 defect in 1000 entries = 10 per 10k: at the boundary, passes.
        let policy = RecoveryPolicy::ErrorBudget { max_per_10k: 10 };
        assert!(enforce_budget(policy, &tally, 1000).is_ok());
        // 1 defect in 999 entries exceeds 10 per 10k.
        let payload = enforce_budget(policy, &tally, 999).unwrap_err();
        assert_eq!(payload.defects, 1);
        assert_eq!(payload.total, 999);
        assert_eq!(payload.tally.worker_panic, 1);
        // Lex/syntax invalidity never counts against the budget.
        let mut noisy = ErrorTally::default();
        for position in 0..500 {
            noisy.record(ErrorKind::Syntax, position);
        }
        assert!(enforce_budget(policy, &noisy, 500).is_ok());
    }

    #[test]
    fn context_classifies_guard_trips_and_catches_the_drill() {
        let ctx = RecoveryContext {
            policy: RecoveryPolicy::Lenient,
            limits: ParseLimits {
                max_entry_bytes: 64,
                ..ParseLimits::default()
            },
            drill: Some("DRILL-ME".to_string()),
        };
        let mut arena = Arena::new();
        let ok = ctx.parse_entry("ASK { ?x <http://p> ?y }", &arena, |lexed| lexed.parse());
        assert!(ok.is_ok());

        arena.reset();
        let oversize = format!("SELECT ?x WHERE {{ ?x <http://{}> ?y }}", "p".repeat(80));
        let error = ctx
            .parse_entry(&oversize, &arena, |lexed| lexed.parse())
            .unwrap_err();
        assert_eq!(error.kind, ErrorKind::OversizeEntry);

        arena.reset();
        let error = ctx
            .parse_entry("ASK { ?x <http://DRILL-ME> ?y }", &arena, |lexed| {
                lexed.parse()
            })
            .unwrap_err();
        assert_eq!(error.kind, ErrorKind::WorkerPanic);
        assert!(error.message.contains("SPARQLOG_PANIC_DRILL"));

        assert!(!ctx.fatal(ErrorKind::Syntax));
        assert!(!ctx.fatal(ErrorKind::WorkerPanic));
        let strict = RecoveryContext {
            policy: RecoveryPolicy::Strict,
            limits: ParseLimits::default(),
            drill: None,
        };
        assert!(!strict.fatal(ErrorKind::Lex));
        assert!(strict.fatal(ErrorKind::DepthExceeded));
        assert!(strict.fatal(ErrorKind::WorkerPanic));
    }
}
