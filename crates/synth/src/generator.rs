//! The seeded query-log synthesizer.
//!
//! Given a [`DatasetProfile`], the synthesizer emits a stream of log entries
//! (SPARQL query strings plus a calibrated share of non-query garbage and
//! duplicates) whose marginal statistics match the published per-dataset
//! numbers: query-form mix, triples-per-query distribution, operator,
//! modifier and aggregate usage, shape mix, and refinement streaks.

use crate::profile::{Dataset, DatasetProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Synthesizes the log of a single dataset.
#[derive(Debug)]
pub struct Synthesizer {
    profile: DatasetProfile,
    rng: StdRng,
    /// Recently emitted queries, used for duplicates and streak seeds.
    recent: VecDeque<String>,
    /// Remaining entries of an active refinement streak.
    streak: Option<(String, u32)>,
    counter: u64,
}

/// Predicate local names used to mint dataset-specific vocabulary.
const PREDICATES: &[&str] = &[
    "label",
    "name",
    "type",
    "birthPlace",
    "deathPlace",
    "genre",
    "nationality",
    "location",
    "partOf",
    "subClassOf",
    "seeAlso",
    "creator",
    "author",
    "date",
    "population",
    "abstract",
    "homepage",
    "starring",
    "director",
    "influencedBy",
];

/// Class local names.
const CLASSES: &[&str] = &[
    "Person", "Place", "Film", "Museum", "City", "Gene", "Protein", "Event", "Work", "Species",
];

impl Synthesizer {
    /// Creates a synthesizer for a dataset with an explicit seed.
    pub fn new(profile: DatasetProfile, seed: u64) -> Synthesizer {
        Synthesizer {
            profile,
            rng: StdRng::seed_from_u64(seed),
            recent: VecDeque::with_capacity(64),
            streak: None,
            counter: 0,
        }
    }

    /// Convenience constructor from a [`Dataset`].
    pub fn for_dataset(dataset: Dataset, seed: u64) -> Synthesizer {
        Synthesizer::new(DatasetProfile::of(dataset), seed)
    }

    /// Generates `count` log entries.
    pub fn generate_log(&mut self, count: u64) -> Vec<String> {
        (0..count).map(|_| self.next_entry()).collect()
    }

    /// Generates the next log entry: an invalid line, a duplicate, a streak
    /// refinement, or a fresh query.
    pub fn next_entry(&mut self) -> String {
        self.counter += 1;
        // Continue an active streak first.
        if let Some((seed, remaining)) = self.streak.take() {
            if remaining > 0 {
                let refined = self.refine(&seed);
                self.streak = Some((refined.clone(), remaining - 1));
                self.remember(refined.clone());
                return refined;
            }
        }
        // Invalid (non-query) log entries.
        if self.rng.gen_bool(1.0 - self.profile.valid_share) {
            return self.garbage();
        }
        // Duplicates of earlier queries.
        let dup_prob = (1.0 - self.profile.unique_share).clamp(0.0, 0.95);
        if !self.recent.is_empty() && self.rng.gen_bool(dup_prob) {
            let idx = self.rng.gen_range(0..self.recent.len());
            return self.recent[idx].clone();
        }
        let query = self.fresh_query();
        // Possibly start a refinement streak from this query.
        if self.profile.streak_start > 0.0 && self.rng.gen_bool(self.profile.streak_start) {
            let mut len = 1u32;
            while self.rng.gen_bool(self.profile.streak_continue) && len < 120 {
                len += 1;
            }
            self.streak = Some((query.clone(), len));
        }
        self.remember(query.clone());
        query
    }

    fn remember(&mut self, q: String) {
        self.recent.push_back(q);
        if self.recent.len() > 64 {
            self.recent.pop_front();
        }
    }

    fn garbage(&mut self) -> String {
        match self.rng.gen_range(0..3) {
            0 => format!(
                "GET /sparql?query=SELECT%20?x%20WHERE%20%7B%7D&id={} HTTP/1.1\"",
                self.counter
            ),
            1 => format!(
                "INSERT DATA {{ <http://x/{}> <http://p> <http://o> }}",
                self.counter
            ),
            _ => format!("SELECT ?x WHERE {{ ?x <http://broken/{}> ", self.counter),
        }
    }

    /// A small textual refinement of a previous query: the kind of change a
    /// user makes while iterating on a query at an endpoint.
    fn refine(&mut self, seed: &str) -> String {
        let mut q = seed.to_string();
        match self.rng.gen_range(0..4) {
            0 => {
                // Add or bump a LIMIT.
                if let Some(pos) = q.rfind("LIMIT") {
                    q.truncate(pos);
                    q.push_str(&format!("LIMIT {}", self.rng.gen_range(1..500)));
                } else {
                    q.push_str(&format!(" LIMIT {}", self.rng.gen_range(1..500)));
                }
            }
            1 => {
                // Toggle DISTINCT.
                if q.contains("SELECT DISTINCT") {
                    q = q.replacen("SELECT DISTINCT", "SELECT", 1);
                } else {
                    q = q.replacen("SELECT", "SELECT DISTINCT", 1);
                }
            }
            2 => {
                // Change a numeric constant.
                q = q.replace("100", &format!("{}", self.rng.gen_range(2..999)));
                if !q.contains("OFFSET") {
                    q.push_str(&format!(" OFFSET {}", self.rng.gen_range(1..50)));
                }
            }
            _ => {
                // Change a resource identifier.
                let new_id = self.rng.gen_range(0..10_000);
                if let Some(start) = q.find("/resource/R") {
                    let end = q[start + 11..]
                        .find(|c: char| !c.is_ascii_digit())
                        .map(|e| start + 11 + e)
                        .unwrap_or(q.len());
                    q.replace_range(start + 11..end, &new_id.to_string());
                } else {
                    q.push(' ');
                }
            }
        }
        q
    }

    // ------------------------------------------------------------------
    // Vocabulary helpers
    // ------------------------------------------------------------------

    fn predicate(&mut self) -> String {
        let ns = self.profile.dataset.namespace();
        let p = PREDICATES[self.rng.gen_range(0..PREDICATES.len())];
        format!("<{ns}{p}>")
    }

    fn class(&mut self) -> String {
        let ns = self.profile.dataset.namespace();
        let c = CLASSES[self.rng.gen_range(0..CLASSES.len())];
        format!("<{ns}{c}>")
    }

    fn resource(&mut self) -> String {
        let ns = self.profile.dataset.namespace();
        format!("<{ns}resource/R{}>", self.rng.gen_range(0..10_000))
    }

    fn literal(&mut self) -> String {
        match self.rng.gen_range(0..3) {
            0 => format!("\"value{}\"", self.rng.gen_range(0..1000)),
            1 => format!("\"label {}\"@en", self.rng.gen_range(0..1000)),
            _ => format!("{}", self.rng.gen_range(0..5000)),
        }
    }

    // ------------------------------------------------------------------
    // Query generation
    // ------------------------------------------------------------------

    /// Generates a fresh SPARQL query following the profile.
    pub fn fresh_query(&mut self) -> String {
        let mix = self.profile.form_mix;
        let roll: f64 = self.rng.gen();
        if roll < mix.describe {
            self.describe_query()
        } else if roll < mix.describe + mix.construct {
            self.construct_query()
        } else if roll < mix.describe + mix.construct + mix.ask {
            self.ask_query()
        } else {
            self.select_query()
        }
    }

    fn describe_query(&mut self) -> String {
        if self.rng.gen_bool(self.profile.describe_bodyless) {
            format!("DESCRIBE {}", self.resource())
        } else {
            let class = self.class();
            format!(
                "DESCRIBE ?x WHERE {{ ?x a {class} }} LIMIT {}",
                self.rng.gen_range(1..100)
            )
        }
    }

    fn construct_query(&mut self) -> String {
        let p = self.predicate();
        let q = self.predicate();
        if self.rng.gen_bool(0.5) {
            format!("CONSTRUCT {{ ?s {q} ?o }} WHERE {{ ?s {p} ?o }}")
        } else {
            let r = self.resource();
            format!(
                "CONSTRUCT {{ ?s ?p ?o }} WHERE {{ ?s ?p ?o . ?s {p} {r} }} LIMIT {}",
                self.rng.gen_range(10..1000)
            )
        }
    }

    fn ask_query(&mut self) -> String {
        // Most ASK queries in real logs check a concrete triple.
        if self.rng.gen_bool(0.7) {
            let s = self.resource();
            let p = self.predicate();
            let o = if self.rng.gen_bool(0.5) {
                self.resource()
            } else {
                self.literal()
            };
            format!("ASK {{ {s} {p} {o} }}")
        } else {
            let (body, _) = self.body();
            format!("ASK {{ {body} }}")
        }
    }

    fn select_query(&mut self) -> String {
        let (body, vars) = self.body();
        let m = self.profile.modifiers;
        let ops = self.profile.operators;

        // Projection: star, all variables, or a strict subset (projection).
        let use_aggregate = self.rng.gen_bool(ops.aggregate) && !vars.is_empty();
        let group_by = use_aggregate || self.rng.gen_bool(m.group_by);
        let projection = if use_aggregate {
            let agg_var = &vars[self.rng.gen_range(0..vars.len())];
            let kind =
                ["COUNT", "COUNT", "COUNT", "MAX", "MIN", "AVG", "SUM"][self.rng.gen_range(0..7)];
            if group_by && vars.len() > 1 {
                format!("?{} ({kind}({agg_var}) AS ?agg)", grouping_var(&vars))
            } else {
                format!("({kind}({agg_var}) AS ?agg)")
            }
        } else {
            // Calibrated so that roughly 15 % of SELECT queries project a
            // strict subset of their variables (Section 4.4 of the paper).
            match self.rng.gen_range(0..20) {
                0..=6 => "*".to_string(),
                7..=15 => vars.join(" "),
                _ => {
                    let keep = self.rng.gen_range(1..=vars.len());
                    vars[..keep].join(" ")
                }
            }
        };

        let distinct = if self.rng.gen_bool(m.distinct) {
            "DISTINCT "
        } else {
            ""
        };
        let mut query = format!("SELECT {distinct}{projection} WHERE {{ {body} }}");

        if group_by && use_aggregate && vars.len() > 1 {
            query.push_str(&format!(" GROUP BY ?{}", grouping_var(&vars)));
            // HAVING is rare in the logs (0.02 % of queries, Table 2) but
            // present; attach one to a small share of grouped queries.
            if self.rng.gen_bool(0.05) {
                let agg_var = &vars[vars.len() - 1];
                query.push_str(&format!(
                    " HAVING (COUNT({agg_var}) > {})",
                    self.rng.gen_range(1..20)
                ));
            }
        }
        if self.rng.gen_bool(m.order_by) && !vars.is_empty() {
            let dir = if self.rng.gen_bool(0.5) {
                "ASC"
            } else {
                "DESC"
            };
            query.push_str(&format!(" ORDER BY {dir}({})", vars[0]));
        }
        if self.rng.gen_bool(m.limit) {
            query.push_str(&format!(" LIMIT {}", self.rng.gen_range(1..1000)));
            if self.rng.gen_bool(m.offset / m.limit.max(1e-9)) {
                query.push_str(&format!(" OFFSET {}", self.rng.gen_range(1..100)));
            }
        }
        query
    }

    /// Generates a WHERE-clause body and returns it with its variable list.
    fn body(&mut self) -> (String, Vec<String>) {
        let triples = self.sample_triple_count();
        let ops = self.profile.operators;
        let shape = self.sample_shape(triples);
        let (mut parts, mut vars) = self.shaped_triples(triples.max(1), shape);

        // FILTER
        if self.rng.gen_bool(ops.filter) && !vars.is_empty() {
            parts.push(self.filter(&vars));
        }
        // OPTIONAL
        if self.rng.gen_bool(ops.optional) && !vars.is_empty() {
            let p = self.predicate();
            let anchor = vars[self.rng.gen_range(0..vars.len())].clone();
            if vars.len() >= 2 && self.rng.gen_bool(0.03) {
                // Rarely, the OPTIONAL shares *two* variables with the outer
                // pattern — such queries have interface width 2 and fall
                // outside CQOF (the paper found 310 of them).
                let other = vars[(self.rng.gen_range(1..vars.len())
                    + vars.iter().position(|v| *v == anchor).unwrap_or(0))
                    % vars.len()]
                .clone();
                parts.push(format!("OPTIONAL {{ {anchor} {p} {other} }}"));
            } else {
                let opt_var = format!("?opt{}", self.rng.gen_range(0..9));
                parts.push(format!("OPTIONAL {{ {anchor} {p} {opt_var} }}"));
                // The optionally-bound variable is in scope, so queries
                // selecting "all variables" should list it too (keeps the
                // projection share close to the paper's Section 4.4 numbers).
                vars.push(opt_var);
            }
        }
        // FILTER EXISTS (rare, Table 2 reports 0.01 %).
        if self.rng.gen_bool(0.002) && !vars.is_empty() {
            let p = self.predicate();
            parts.push(format!("FILTER EXISTS {{ {} {p} ?ex }}", vars[0]));
        }
        // UNION
        if self.rng.gen_bool(ops.union) && !vars.is_empty() {
            let p1 = self.predicate();
            let p2 = self.predicate();
            let v = &vars[0];
            let o = self.resource();
            parts.push(format!("{{ {v} {p1} {o} }} UNION {{ {v} {p2} {o} }}"));
        }
        // GRAPH: wrap the whole body.
        let mut body = parts.join(" ");
        if self.rng.gen_bool(ops.graph) {
            let g = self.resource();
            body = format!("GRAPH {g} {{ {body} }}");
        }
        // MINUS
        if self.rng.gen_bool(ops.minus) && !vars.is_empty() {
            let p = self.predicate();
            let c = self.class();
            body.push_str(&format!(" MINUS {{ {} {p} {c} }}", vars[0]));
        }
        // NOT EXISTS
        if self.rng.gen_bool(ops.not_exists) && !vars.is_empty() {
            let p = self.predicate();
            body.push_str(&format!(" FILTER NOT EXISTS {{ {} {p} ?ne }}", vars[0]));
        }
        // BIND
        if self.rng.gen_bool(ops.bind) && !vars.is_empty() {
            body.push_str(&format!(" BIND(STR({}) AS ?bound)", vars[0]));
        }
        // Subquery
        if self.rng.gen_bool(ops.subquery) && !vars.is_empty() {
            let p = self.predicate();
            let v = &vars[0];
            body.push_str(&format!(
                " {{ SELECT {v} (COUNT(?inner) AS ?n) WHERE {{ {v} {p} ?inner }} GROUP BY {v} }}"
            ));
        }
        (body, vars)
    }

    fn filter(&mut self, vars: &[String]) -> String {
        let v = &vars[self.rng.gen_range(0..vars.len())];
        if vars.len() >= 2 && self.rng.gen_bool(self.profile.operators.complex_filter) {
            let w = &vars[(self.rng.gen_range(0..vars.len() - 1) + 1) % vars.len()];
            if self.rng.gen_bool(0.4) {
                format!("FILTER({v} = {w})")
            } else {
                format!("FILTER({v} < {w})")
            }
        } else {
            match self.rng.gen_range(0..4) {
                0 => format!("FILTER({v} > 100)"),
                1 => format!("FILTER(lang({v}) = \"en\")"),
                2 => format!(
                    "FILTER(regex(str({v}), \"pattern{}\"))",
                    self.rng.gen_range(0..50)
                ),
                _ => format!("FILTER({v} != {})", self.resource()),
            }
        }
    }

    fn sample_triple_count(&mut self) -> usize {
        let buckets = self.profile.triple_buckets;
        let total: f64 = buckets.iter().sum();
        let mut roll = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, b) in buckets.iter().enumerate() {
            if roll < *b {
                if i < 11 {
                    return i;
                }
                // Heavy tail: 11 .. ~3 × mean, geometric-ish around the mean.
                let mean = self.profile.heavy_tail_mean.max(12.0);
                let extra = self.rng.gen_range(0.0..(2.0 * (mean - 11.0)).max(1.0));
                return 11 + extra as usize;
            }
            roll -= b;
        }
        1
    }

    /// The shape of the body for the given triple count.
    fn sample_shape(&mut self, triples: usize) -> BodyShape {
        if triples <= 1 {
            return BodyShape::Chain;
        }
        let s = self.profile.shapes;
        let total = s.chain + s.star + s.tree + s.cycle + s.flower;
        let mut roll = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (shape, weight) in [
            (BodyShape::Chain, s.chain),
            (BodyShape::Star, s.star),
            (BodyShape::Tree, s.tree),
            (BodyShape::Cycle, s.cycle),
            (BodyShape::Flower, s.flower),
        ] {
            if roll < weight {
                // Cycles and flowers need at least 3 triples.
                if matches!(shape, BodyShape::Cycle | BodyShape::Flower) && triples < 3 {
                    return BodyShape::Chain;
                }
                return shape;
            }
            roll -= weight;
        }
        BodyShape::Chain
    }

    /// Emits `n` triple patterns of the given shape. Returns the rendered
    /// triple block (one string per `.`-joined group) and the variables used.
    fn shaped_triples(&mut self, n: usize, shape: BodyShape) -> (Vec<String>, Vec<String>) {
        let ops = self.profile.operators;
        let mut triples: Vec<(String, String, String)> = Vec::with_capacity(n);
        let var = |i: usize| format!("?x{i}");
        match shape {
            BodyShape::Chain => {
                for i in 0..n {
                    triples.push((var(i), String::new(), var(i + 1)));
                }
            }
            BodyShape::Star => {
                for i in 0..n {
                    triples.push((var(0), String::new(), var(i + 1)));
                }
            }
            BodyShape::Tree => {
                for i in 0..n {
                    let parent = if i == 0 { 0 } else { self.rng.gen_range(0..=i) };
                    triples.push((var(parent), String::new(), var(i + 1)));
                }
            }
            BodyShape::Cycle => {
                for i in 0..n {
                    triples.push((var(i), String::new(), var((i + 1) % n)));
                }
            }
            BodyShape::Flower => {
                // A petal of length 3-4 through the centre plus stamens.
                let petal = 3.min(n);
                for i in 0..petal {
                    triples.push((var(i), String::new(), var((i + 1) % petal)));
                }
                for i in petal..n {
                    triples.push((var(0), String::new(), var(i + 1)));
                }
            }
        }
        // Fill predicates, possibly variable predicates, possibly constant
        // objects (only for non-join positions: the last variable of a chain
        // or the leaves of a star keep shapes intact when replaced).
        let mut vars_used: Vec<String> = Vec::new();
        let mut rendered = Vec::with_capacity(triples.len());
        let path_roll = self.rng.gen_bool(ops.property_path);
        for (i, (s, _, o)) in triples.iter().enumerate() {
            let predicate = if self.rng.gen_bool(ops.var_predicate) {
                format!("?p{i}")
            } else if path_roll && i == 0 {
                self.property_path()
            } else if self.rng.gen_bool(0.15) {
                "a".to_string()
            } else {
                self.predicate()
            };
            let object = if self.rng.gen_bool(0.35) && is_leaf(&triples, o) {
                if predicate == "a" {
                    self.class()
                } else {
                    self.object_constant()
                }
            } else {
                o.clone()
            };
            for t in [s, &object] {
                if t.starts_with('?') && !vars_used.contains(t) {
                    vars_used.push(t.clone());
                }
            }
            rendered.push(format!("{s} {predicate} {object} ."));
        }
        if vars_used.is_empty() {
            vars_used.push("?x0".to_string());
            rendered.push(format!("?x0 {} {} .", self.predicate(), self.resource()));
        }
        (rendered, vars_used)
    }

    fn object_constant(&mut self) -> String {
        if self.rng.gen_bool(0.6) {
            self.resource()
        } else {
            self.literal()
        }
    }

    /// A property-path expression drawn from the Table-5 mix.
    fn property_path(&mut self) -> String {
        let p1 = self.predicate();
        let p2 = self.predicate();
        let p3 = self.predicate();
        match self.rng.gen_range(0..120) {
            0..=14 => format!("!{p1}"),
            15 => format!("^{p1}"),
            16..=54 => format!("({p1}|{p2})*"),
            55..=80 => format!("{p1}*"),
            81..=91 => format!("{p1}/{p2}"),
            92..=101 => format!("{p1}/{p2}*"),
            102..=109 => format!("{p1}|{p2}|{p3}"),
            110..=112 => format!("{p1}+"),
            113..=115 => format!("{p1}?/{p2}?"),
            116..=117 => format!("^{p1}/{p2}"),
            _ => format!("({p1}/{p2})*"),
        }
    }
}

fn grouping_var(vars: &[String]) -> String {
    vars[0].trim_start_matches('?').to_string()
}

fn is_leaf(triples: &[(String, String, String)], var: &str) -> bool {
    // A variable is a leaf if it occurs exactly once across all triples.
    let occurrences = triples
        .iter()
        .flat_map(|(s, _, o)| [s.as_str(), o.as_str()])
        .filter(|t| *t == var)
        .count();
    occurrences <= 1
}

/// The internal body shapes the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyShape {
    Chain,
    Star,
    Tree,
    Cycle,
    Flower,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_algebra::QueryFeatures;
    use sparqlog_parser::{parse_query_in, Arena, QueryForm};

    fn parses(text: &str) -> bool {
        parse_query_in(text, &Arena::new()).is_ok()
    }

    /// The features of `text`, or `None` when it does not parse.
    fn features(text: &str) -> Option<QueryFeatures> {
        let arena = Arena::new();
        let query = parse_query_in(text, &arena).ok()?;
        Some(QueryFeatures::of(&query))
    }

    #[test]
    fn generated_valid_queries_parse() {
        // Garbage entries are expected to fail, but fresh queries must parse.
        for dataset in Dataset::ALL {
            let mut synth = Synthesizer::for_dataset(dataset, 99);
            for i in 0..300 {
                let q = synth.fresh_query();
                assert!(
                    parses(&q),
                    "dataset {dataset:?} query #{i} failed to parse: {q}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = Synthesizer::for_dataset(Dataset::DBpedia15, 7);
        let mut b = Synthesizer::for_dataset(Dataset::DBpedia15, 7);
        assert_eq!(a.generate_log(200), b.generate_log(200));
        let mut c = Synthesizer::for_dataset(Dataset::DBpedia15, 8);
        assert_ne!(a.generate_log(200), c.generate_log(200));
    }

    #[test]
    fn log_contains_expected_share_of_invalid_entries() {
        let mut synth = Synthesizer::for_dataset(Dataset::Lgd13, 3);
        let log = synth.generate_log(4000);
        let invalid = log.iter().filter(|e| !parses(e)).count();
        let share = invalid as f64 / log.len() as f64;
        // LGD13 has ~18% invalid entries; allow a generous tolerance.
        assert!(share > 0.10 && share < 0.28, "invalid share {share}");
    }

    #[test]
    fn form_mix_roughly_matches_the_profile() {
        let mut synth = Synthesizer::for_dataset(Dataset::BioMed13, 5);
        let mut describe = 0usize;
        let mut total = 0usize;
        for _ in 0..1500 {
            let q = synth.fresh_query();
            if let Some(f) = features(&q) {
                total += 1;
                if f.form == QueryForm::Describe {
                    describe += 1;
                }
            }
        }
        let share = describe as f64 / total as f64;
        assert!(
            share > 0.75,
            "BioMed13 should be DESCRIBE-dominated, got {share}"
        );
    }

    #[test]
    fn operator_probabilities_show_up() {
        let mut synth = Synthesizer::for_dataset(Dataset::BioP13, 11);
        let mut graph = 0usize;
        let mut total = 0usize;
        for _ in 0..800 {
            let q = synth.fresh_query();
            if let Some(f) = features(&q) {
                total += 1;
                if f.uses_graph {
                    graph += 1;
                }
            }
        }
        let share = graph as f64 / total as f64;
        assert!(
            share > 0.6,
            "BioPortal13 queries should be GRAPH-heavy, got {share}"
        );
    }

    #[test]
    fn duplicates_reduce_unique_share() {
        let mut synth = Synthesizer::for_dataset(Dataset::BioMed13, 13);
        let log = synth.generate_log(3000);
        let valid: Vec<&String> = log.iter().filter(|e| parses(e)).collect();
        let unique: std::collections::BTreeSet<&String> = valid.iter().copied().collect();
        let share = unique.len() as f64 / valid.len() as f64;
        // BioMed13's unique share is ~3%; synthetic duplicates use a small
        // window so the share is higher, but must be far below 1.
        assert!(share < 0.5, "unique share {share}");
    }

    #[test]
    fn streaks_emit_similar_consecutive_queries() {
        let mut profile = DatasetProfile::of(Dataset::DBpedia14);
        profile.streak_start = 1.0;
        profile.streak_continue = 0.9;
        profile.valid_share = 1.0;
        profile.unique_share = 1.0;
        let mut synth = Synthesizer::new(profile, 21);
        let log = synth.generate_log(50);
        // With guaranteed streaks, consecutive entries are frequently small
        // textual modifications of each other.
        let mut similar_pairs = 0;
        for pair in log.windows(2) {
            let a = &pair[0];
            let b = &pair[1];
            let dist = strsim_like(a, b);
            if dist < 0.25 {
                similar_pairs += 1;
            }
        }
        assert!(
            similar_pairs > 10,
            "expected many near-duplicate neighbours, got {similar_pairs}"
        );
    }

    /// A crude normalized edit-distance approximation sufficient for the test
    /// (prefix/suffix agreement), avoiding a dev-dependency cycle on the
    /// streaks crate.
    fn strsim_like(a: &str, b: &str) -> f64 {
        let common_prefix = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
        let longer = a.len().max(b.len());
        1.0 - common_prefix as f64 / longer as f64
    }

    #[test]
    fn wikidata_profile_yields_paths_and_order_by() {
        let mut synth = Synthesizer::for_dataset(Dataset::WikiData17, 17);
        let mut paths = 0usize;
        let mut order_by = 0usize;
        let mut total = 0usize;
        for _ in 0..400 {
            let q = synth.fresh_query();
            if let Some(f) = features(&q) {
                total += 1;
                if f.uses_property_path {
                    paths += 1;
                }
                if f.uses_order_by {
                    order_by += 1;
                }
            }
        }
        assert!(paths as f64 / total as f64 > 0.1);
        assert!(order_by as f64 / total as f64 > 0.25);
    }
}
