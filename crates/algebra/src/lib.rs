//! # sparqlog-algebra
//!
//! Shallow syntactic analysis and query-fragment classification for SPARQL
//! query logs, implementing Sections 4 and 5 of *"An Analytical Study of
//! Large SPARQL Query Logs"* (Bonifati–Martens–Timm, VLDB 2017):
//!
//! * [`features`] — per-query feature extraction ([`QueryFeatures`]).
//! * [`keywords`] — keyword census (Table 2 / Table 7).
//! * [`triples`] — triples-per-query histograms (Figure 1 / Figure 8).
//! * [`opsets`] — operator-set classification and CPF roll-ups (Table 3 / 8).
//! * [`projection`] — projection usage per SPARQL 1.1 §18.2.1 (Section 4.4).
//! * [`fragments`] — CQ / CPF / CQF / AOF / well-designed / CQOF membership.
//! * [`pattern_tree`] — well-designed pattern trees and interface width.
//! * [`walk`] — the single-pass walker every engine-side measure is derived
//!   from ([`QueryWalkRef`]) and the per-measure reference walkers.
//! * [`tally`](mod@tally) — [`tally!`], the one field list behind every
//!   tally's struct, `merge`, `scale` and wire layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod fragments;
pub mod keywords;
pub mod opsets;
pub mod pattern_tree;
pub mod projection;
pub mod tally;
pub mod triples;
pub mod walk;

pub use features::{AggregateUse, QueryFeatures};
pub use fragments::{
    classify_fragments, classify_fragments_from_walk_ref, CqLikeClass, FragmentReport,
    FragmentTally,
};
pub use keywords::KeywordTally;
pub use opsets::{classify_opset, OpSetClass, OpSetTally, OperatorSet};
pub use pattern_tree::{PatternNode, PatternTree};
pub use projection::{
    projection_use, projection_use_from_walk_ref, ProjectionTally, ProjectionUse,
};
pub use triples::TripleHistogram;
pub use walk::{collect_property_paths, BodyOps, QueryWalkRef};
