//! # sparqlog-parser
//!
//! A from-scratch SPARQL 1.1 lexer, AST and recursive-descent parser tailored
//! to query-log analysis. It plays the role that Apache Jena 3.0.1 played in
//! the original study (*An Analytical Study of Large SPARQL Query Logs*,
//! Bonifati–Martens–Timm, VLDB 2017): deciding validity of log entries and
//! exposing the syntactic structure of each query to the analysis passes.
//!
//! The crate is organised as:
//!
//! * [`bytescan`] — SWAR word-at-a-time byte classification shared by the
//!   lexer and the corpus line readers.
//! * [`token`] / [`lexer`] — zero-copy tokenization: [`Token`](token::Token)
//!   borrows `&str` slices of the input, and the token buffer lives in an
//!   [`Arena`].
//! * [`arena`] — the bump [`Arena`] that owns every token, AST node and
//!   expanded string for one parse batch; one [`Arena::reset`] call retires
//!   the whole batch.
//! * [`ast_ref`] — the AST: `Copy` nodes borrowing the source text and the
//!   arena, close to the surface syntax. The one tree every analysis reads.
//! * [`parser`] — the recursive-descent parser, entry point
//!   [`parse_query_in`].
//! * [`display`] — canonical serialization, entry point
//!   [`to_canonical_string_ref`], used for duplicate elimination and streak
//!   similarity, plus the zero-materialization [`CanonicalHasher`] /
//!   [`canonical_fingerprint_of_ref`] used by the streaming corpus pipeline.
//! * [`intern`] — the per-worker term [`Interner`] mapping IRIs, prefixed
//!   names and variables to dense `u32` [`Symbol`]s, so the analysis passes
//!   hash and compare integers instead of strings.
//!
//! # Arena lifetime rules
//!
//! A [`parse_query_in`] result borrows both the input string and the arena:
//! nothing derived from it (terms, slices, the query itself) may outlive the
//! next [`Arena::reset`]. Compute anything long-lived — fingerprints,
//! interned symbols, analysis records — *before* resetting. The fused
//! pipeline follows exactly this discipline: one arena per worker, reset once
//! per log entry.
//!
//! # Example
//!
//! ```
//! use sparqlog_parser::{parse_query_in, to_canonical_string_ref, Arena, QueryForm};
//!
//! let text = "PREFIX wdt: <http://www.wikidata.org/prop/direct/>
//!      PREFIX wd:  <http://www.wikidata.org/entity/>
//!      SELECT ?label ?coord ?subj WHERE {
//!        ?subj wdt:P31/wdt:P279* wd:Q839954 .
//!        ?subj wdt:P625 ?coord .
//!        ?subj <http://www.w3.org/2000/01/rdf-schema#label> ?label
//!        FILTER(lang(?label) = \"en\")
//!      }";
//! let arena = Arena::new();
//! let q = parse_query_in(text, &arena).unwrap();
//! assert_eq!(q.form, QueryForm::Select);
//! // `parse ∘ display` is a fixpoint: the canonical form parses to itself.
//! let canonical = to_canonical_string_ref(&q);
//! let again = parse_query_in(&canonical, &arena).unwrap();
//! assert_eq!(to_canonical_string_ref(&again), canonical);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod ast_ref;
pub mod bytescan;
pub mod display;
pub mod error;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod token;

pub use arena::Arena;
pub use ast_ref::{Query, QueryForm};
pub use display::{
    canonical_fingerprint, canonical_fingerprint_of_ref, to_canonical_string_ref, CanonicalHasher,
};
pub use error::{ErrorKind, ParseError};
pub use intern::{InternStats, Interner, Symbol};
pub use parser::{parse_query_in, parse_query_in_with_limits, ParseLimits};
