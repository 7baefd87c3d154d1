//! Property-based tests of the parser and canonicalizer, using the
//! profile-driven synthesizer as a generator of realistic SPARQL queries.

use proptest::prelude::*;
use sparqlog::algebra::QueryFeatures;
use sparqlog::parser::{parse_query_in, to_canonical_string_ref, Arena};
use sparqlog::synth::{Dataset, DatasetProfile, Synthesizer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every query the synthesizer produces (for any dataset profile and any
    /// seed) parses, and canonicalization is a fixpoint: parse → print →
    /// parse → print yields the same string. So it is for a query whose
    /// literal and `SEPARATOR` are drawn over arbitrary Unicode scalars.
    #[test]
    fn synthesized_queries_parse_and_canonicalize(
        seed in 0u64..10_000,
        dataset_idx in 0usize..13,
        scalars in prop::collection::vec(0u32..0x11_0000, 0..16),
    ) {
        let dataset = Dataset::ALL[dataset_idx];
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), seed);
        let mut arena = Arena::new();
        let literal = sparql_string(&scalars.iter().filter_map(|&c| char::from_u32(c)).collect::<String>());
        let drawn = format!(
            "SELECT (GROUP_CONCAT(?o; SEPARATOR={literal}) AS ?g) WHERE {{ \
             ?s <http://example.org/p> ?o , {literal}@en FILTER(?o != {literal}) }} GROUP BY ?s"
        );
        for text in (0..5).map(|_| synth.fresh_query()).chain([drawn]) {
            arena.reset();
            let parsed = parse_query_in(&text, &arena);
            prop_assert!(parsed.is_ok(), "failed to parse {text:?}: {:?}", parsed.err());
            let parsed = parsed.unwrap();
            let canon = to_canonical_string_ref(&parsed);
            let reparsed = parse_query_in(&canon, &arena);
            prop_assert!(reparsed.is_ok(), "canonical form unparseable: {canon:?}");
            let recanon = to_canonical_string_ref(&reparsed.unwrap());
            prop_assert_eq!(&canon, &recanon, "canonicalization is not a fixpoint for {}", text);
        }
    }

    /// Feature extraction is invariant under canonicalization: the features
    /// of a query and of its canonical re-parse agree on every flag the
    /// shallow analysis uses.
    #[test]
    fn features_survive_canonicalization(seed in 0u64..10_000) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::DBpedia15), seed);
        let mut arena = Arena::new();
        for _ in 0..5 {
            let text = synth.fresh_query();
            arena.reset();
            let q1 = parse_query_in(&text, &arena).expect("synthesized queries parse");
            let canon = to_canonical_string_ref(&q1);
            let q2 = parse_query_in(&canon, &arena).expect("canonical form parses");
            let f1 = QueryFeatures::of(&q1);
            let f2 = QueryFeatures::of(&q2);
            prop_assert_eq!(f1.form, f2.form);
            prop_assert_eq!(f1.total_triples(), f2.total_triples());
            prop_assert_eq!(f1.uses_filter, f2.uses_filter);
            prop_assert_eq!(f1.uses_optional, f2.uses_optional);
            prop_assert_eq!(f1.uses_union, f2.uses_union);
            prop_assert_eq!(f1.uses_graph, f2.uses_graph);
            prop_assert_eq!(f1.uses_distinct, f2.uses_distinct);
            prop_assert_eq!(f1.uses_limit, f2.uses_limit);
            prop_assert_eq!(f1.uses_property_path, f2.uses_property_path);
            prop_assert_eq!(f1.uses_subquery, f2.uses_subquery);
        }
    }

    /// The lexer/parser never panic on arbitrary input — garbage is rejected
    /// with an error, not a crash.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = parse_query_in(&input, &Arena::new());
    }

    /// Arbitrary mutations of a valid query (truncations) never panic either.
    #[test]
    fn parser_never_panics_on_truncated_queries(cut in 0usize..200, seed in 0u64..1000) {
        let mut synth = Synthesizer::new(DatasetProfile::of(Dataset::DBpedia14), seed);
        let text = synth.fresh_query();
        let cut = cut.min(text.len());
        // Truncate at a character boundary.
        let mut boundary = cut;
        while !text.is_char_boundary(boundary) {
            boundary -= 1;
        }
        let _ = parse_query_in(&text[..boundary], &Arena::new());
    }
}

/// `text` as a double-quoted SPARQL string: the characters a short string
/// cannot hold raw get their short escapes, and every third character is
/// written as a `\u` / `\U` escape so the lexer's unescaping is drawn too.
fn sparql_string(text: &str) -> String {
    let mut out = String::from("\"");
    for (i, c) in text.chars().enumerate() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ if i % 3 == 2 && u32::from(c) <= 0xFFFF => {
                out.push_str(&format!("\\u{:04X}", u32::from(c)))
            }
            _ if i % 3 == 2 => out.push_str(&format!("\\U{:08X}", u32::from(c))),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}
