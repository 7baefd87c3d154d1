//! Triples-per-query histograms (Figure 1 / Figure 8 of the paper).

use crate::features::QueryFeatures;
use serde::{Deserialize, Serialize};

/// Number of explicit histogram buckets: 0, 1, …, 10 triples; larger counts
/// fall into the `eleven_plus` bucket, mirroring Figure 1's legend.
pub const EXPLICIT_BUCKETS: usize = 11;

/// A histogram of the number of triple patterns per query, restricted to
/// SELECT and ASK queries exactly as in Section 4.2 of the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TripleHistogram {
    /// Counts for exactly 0..=10 triples.
    pub buckets: [u64; EXPLICIT_BUCKETS],
    /// Count for 11 or more triples.
    pub eleven_plus: u64,
    /// Total number of SELECT/ASK queries observed.
    pub select_ask_queries: u64,
    /// Total number of queries observed (any form), used for the S/A share.
    pub all_queries: u64,
    /// Sum of triple counts over all SELECT/ASK queries (for the average).
    pub triple_sum: u64,
    /// The largest triple count observed.
    pub max_triples: u32,
}

impl TripleHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a query. Only SELECT and ASK queries contribute to the
    /// histogram buckets, but every query contributes to `all_queries`.
    pub fn add(&mut self, f: &QueryFeatures) {
        self.all_queries += 1;
        if !f.is_select_or_ask() {
            return;
        }
        self.select_ask_queries += 1;
        let n = f.total_triples();
        self.triple_sum += u64::from(n);
        self.max_triples = self.max_triples.max(n);
        if (n as usize) < EXPLICIT_BUCKETS {
            self.buckets[n as usize] += 1;
        } else {
            self.eleven_plus += 1;
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &TripleHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.eleven_plus += other.eleven_plus;
        self.select_ask_queries += other.select_ask_queries;
        self.all_queries += other.all_queries;
        self.triple_sum += other.triple_sum;
        self.max_triples = self.max_triples.max(other.max_triples);
    }

    /// Multiplies every additive counter by `times` while leaving the
    /// `max_triples` extremum untouched: a histogram built from one
    /// [`TripleHistogram::add`] and then scaled equals `times` repeated adds
    /// of the same features (the maximum is idempotent under repetition).
    /// Used by the fused engine's occurrence-weighted fold.
    pub fn scale(&mut self, times: u64) {
        for bucket in &mut self.buckets {
            *bucket *= times;
        }
        self.eleven_plus *= times;
        self.select_ask_queries *= times;
        self.all_queries *= times;
        self.triple_sum *= times;
    }

    /// The share of SELECT/ASK queries among all queries (the "S/A" row at the
    /// bottom of Figure 1), as a fraction in `[0, 1]`.
    pub fn select_ask_share(&self) -> f64 {
        if self.all_queries == 0 {
            0.0
        } else {
            self.select_ask_queries as f64 / self.all_queries as f64
        }
    }

    /// The average number of triples per SELECT/ASK query (the "Avg#T" row).
    pub fn average_triples(&self) -> f64 {
        if self.select_ask_queries == 0 {
            0.0
        } else {
            self.triple_sum as f64 / self.select_ask_queries as f64
        }
    }

    /// The fraction of SELECT/ASK queries with at most `n` triples, used for
    /// the corpus-level statements in Section 4.2 (e.g. "56.45% use at most
    /// one triple").
    pub fn cumulative_share_at_most(&self, n: u32) -> f64 {
        if self.select_ask_queries == 0 {
            return 0.0;
        }
        let mut acc = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            if i as u32 <= n {
                acc += c;
            }
        }
        if n as usize >= EXPLICIT_BUCKETS {
            acc += self.eleven_plus;
        }
        acc as f64 / self.select_ask_queries as f64
    }

    /// The per-bucket shares (0, 1, …, 10, 11+) as fractions of the
    /// SELECT/ASK queries — the stacked bars of Figure 1.
    pub fn shares(&self) -> Vec<f64> {
        let total = self.select_ask_queries.max(1) as f64;
        let mut out: Vec<f64> = self.buckets.iter().map(|&c| c as f64 / total).collect();
        out.push(self.eleven_plus as f64 / total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::QueryFeatures;
    use sparqlog_parser::{parse_query_in, Arena};

    fn add(h: &mut TripleHistogram, q: &str) {
        let arena = Arena::new();
        h.add(&QueryFeatures::of(&parse_query_in(q, &arena).unwrap()));
    }

    #[test]
    fn buckets_and_average() {
        let mut h = TripleHistogram::new();
        add(&mut h, "SELECT ?x WHERE { ?x a <http://C> }");
        add(
            &mut h,
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y }",
        );
        add(&mut h, "ASK { <http://s> <http://p> <http://o> }");
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert!((h.average_triples() - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(h.max_triples, 2);
    }

    #[test]
    fn describe_and_construct_do_not_enter_buckets() {
        let mut h = TripleHistogram::new();
        add(&mut h, "DESCRIBE <http://r>");
        add(
            &mut h,
            "CONSTRUCT { ?x a <http://D> } WHERE { ?x a <http://C> }",
        );
        add(&mut h, "SELECT ?x WHERE { ?x a <http://C> }");
        assert_eq!(h.all_queries, 3);
        assert_eq!(h.select_ask_queries, 1);
        assert!((h.select_ask_share() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn eleven_plus_bucket() {
        let mut h = TripleHistogram::new();
        let triples: Vec<String> = (0..15)
            .map(|i| format!("?x{} <http://p{}> ?x{}", i, i, i + 1))
            .collect();
        let q = format!("SELECT * WHERE {{ {} }}", triples.join(" . "));
        add(&mut h, &q);
        assert_eq!(h.eleven_plus, 1);
        assert_eq!(h.max_triples, 15);
        assert!((h.cumulative_share_at_most(20) - 1.0).abs() < 1e-9);
        assert_eq!(h.cumulative_share_at_most(10), 0.0);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut h = TripleHistogram::new();
        add(&mut h, "SELECT ?x WHERE { ?x a <http://C> }");
        add(
            &mut h,
            "ASK { ?x a <http://C> . ?x <http://p> ?y . ?y <http://q> ?z }",
        );
        let s: f64 = h.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(h.shares().len(), EXPLICIT_BUCKETS + 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = TripleHistogram::new();
        add(&mut a, "SELECT ?x WHERE { ?x a <http://C> }");
        let mut b = TripleHistogram::new();
        add(&mut b, "ASK { ?x a <http://C> . ?x <http://p> ?y }");
        a.merge(&b);
        assert_eq!(a.select_ask_queries, 2);
        assert_eq!(a.buckets[1], 1);
        assert_eq!(a.buckets[2], 1);
    }
}
