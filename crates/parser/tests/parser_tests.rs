//! Integration tests for the SPARQL parser on realistic queries, including
//! the example queries that appear in the paper.

use sparqlog_parser::ast_ref::*;
use sparqlog_parser::{parse_query_in, to_canonical_string_ref, Arena};

fn count_triples(g: &GroupGraphPattern<'_>) -> usize {
    let mut n = 0;
    for el in g.elements {
        match el {
            GroupElement::Triples(ts) => n += ts.len(),
            GroupElement::Optional(g)
            | GroupElement::Minus(g)
            | GroupElement::Group(g)
            | GroupElement::Graph { pattern: g, .. }
            | GroupElement::Service { pattern: g, .. } => n += count_triples(g),
            GroupElement::Union(bs) => n += bs.iter().map(count_triples).sum::<usize>(),
            GroupElement::SubSelect(q) => {
                if let Some(w) = &q.where_clause {
                    n += count_triples(w);
                }
            }
            _ => {}
        }
    }
    n
}

#[test]
fn parses_wikidata_archaeological_sites_example() {
    let arena = Arena::new();
    // The "Locations of archaeological sites" query quoted in Section 3.
    let q = parse_query_in(
        r#"
        PREFIX wdt: <http://www.wikidata.org/prop/direct/>
        PREFIX wd: <http://www.wikidata.org/entity/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?label ?coord ?subj
        WHERE
        { ?subj wdt:P31/wdt:P279* wd:Q839954 .
          ?subj wdt:P625 ?coord .
          ?subj rdfs:label ?label filter(lang(?label)="en")
        }"#,
        &arena,
    )
    .unwrap();
    assert_eq!(q.form, QueryForm::Select);
    let body = q.where_clause.as_ref().unwrap();
    // One property-path pattern + two triple patterns.
    let GroupElement::Triples(ts) = &body.elements[0] else {
        panic!("expected triples")
    };
    assert_eq!(ts.len(), 3);
    assert!(matches!(ts[0], TripleOrPath::Path(_)));
    assert!(matches!(ts[1], TripleOrPath::Triple(_)));
    // The filter is attached after the triples block.
    assert!(body
        .elements
        .iter()
        .any(|e| matches!(e, GroupElement::Filter(_))));
}

#[test]
fn parses_example_5_1_chain_and_variable_predicate_queries() {
    let arena = Arena::new();
    let chain = parse_query_in(
        "ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}",
        &arena,
    )
    .unwrap();
    assert_eq!(chain.form, QueryForm::Ask);
    assert_eq!(count_triples(chain.where_clause.as_ref().unwrap()), 3);

    let varpred = parse_query_in(
        "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}",
        &arena,
    )
    .unwrap();
    let body = varpred.where_clause.unwrap();
    let GroupElement::Triples(ts) = &body.elements[0] else {
        panic!()
    };
    let TripleOrPath::Triple(t0) = &ts[0] else {
        panic!()
    };
    assert!(t0.predicate.is_var());
}

#[test]
fn parses_example_5_4_nested_optionals() {
    let arena = Arena::new();
    let p1 = parse_query_in(
        "SELECT * WHERE { { ?A <name> ?N OPTIONAL { ?A <email> ?E } } OPTIONAL { ?A <webPage> ?W } }", &arena,
    )
    .unwrap();
    let p2 = parse_query_in(
        "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E OPTIONAL { ?A <webPage> ?W } } }",
        &arena,
    )
    .unwrap();
    assert_eq!(count_triples(p1.where_clause.as_ref().unwrap()), 3);
    assert_eq!(count_triples(p2.where_clause.as_ref().unwrap()), 3);
}

#[test]
fn parses_predicate_object_lists_and_object_lists() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?p WHERE { ?p a <http://ex.org/Person> ; <http://ex.org/name> ?n , ?m ; <http://ex.org/age> 42 . }", &arena,
    )
    .unwrap();
    assert_eq!(count_triples(q.where_clause.as_ref().unwrap()), 4);
}

#[test]
fn parses_blank_node_property_lists() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?n WHERE { ?x <http://ex.org/knows> [ <http://ex.org/name> ?n ; a <http://ex.org/Person> ] }", &arena,
    )
    .unwrap();
    // [ name ?n ; a Person ] expands to 2 triples + the outer knows triple.
    assert_eq!(count_triples(q.where_clause.as_ref().unwrap()), 3);
}

#[test]
fn parses_rdf_collections() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?x WHERE { ?x <http://ex.org/list> (1 2 3) }",
        &arena,
    )
    .unwrap();
    // 3 first/rest pairs + 1 outer triple.
    assert_eq!(count_triples(q.where_clause.as_ref().unwrap()), 7);
}

#[test]
fn parses_union_chains() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?x WHERE { { ?x a <http://A> } UNION { ?x a <http://B> } UNION { ?x a <http://C> } }", &arena,
    )
    .unwrap();
    let body = q.where_clause.unwrap();
    let GroupElement::Union(branches) = &body.elements[0] else {
        panic!("expected union")
    };
    assert_eq!(branches.len(), 3);
}

#[test]
fn parses_graph_and_service_blocks() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } SERVICE SILENT <http://endpoint> { ?s a ?c } }",
        &arena,
    )
    .unwrap();
    let body = q.where_clause.unwrap();
    assert!(matches!(body.elements[0], GroupElement::Graph { .. }));
    assert!(matches!(
        body.elements[1],
        GroupElement::Service { silent: true, .. }
    ));
}

#[test]
fn parses_minus_bind_values() {
    let arena = Arena::new();
    let q = parse_query_in(
        r#"SELECT ?x WHERE {
             ?x a <http://A> .
             MINUS { ?x a <http://B> }
             BIND(<http://f>(?x) AS ?y)
             VALUES ?z { <http://v1> <http://v2> UNDEF }
           }"#,
        &arena,
    )
    .unwrap();
    let body = q.where_clause.unwrap();
    assert!(body
        .elements
        .iter()
        .any(|e| matches!(e, GroupElement::Minus(_))));
    assert!(body
        .elements
        .iter()
        .any(|e| matches!(e, GroupElement::Bind { .. })));
    let values = body
        .elements
        .iter()
        .find_map(|e| match e {
            GroupElement::Values(d) => Some(d),
            _ => None,
        })
        .unwrap();
    assert_eq!(values.variables, ["z"]);
    assert_eq!(values.rows.len(), 3);
    assert_eq!(values.rows[2], [None]);
}

#[test]
fn parses_subqueries() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?x WHERE { ?x a <http://A> . { SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?x } }", &arena,
    )
    .unwrap();
    let body = q.where_clause.unwrap();
    let sub = body
        .elements
        .iter()
        .find_map(|e| match e {
            GroupElement::SubSelect(q) => Some(q),
            _ => None,
        })
        .expect("subquery");
    assert_eq!(sub.form, QueryForm::Select);
    assert_eq!(sub.modifiers.group_by.len(), 1);
}

#[test]
fn parses_aggregates_and_having() {
    let arena = Arena::new();
    let q = parse_query_in(
        "SELECT ?g (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE { ?x <http://in> ?g ; <http://val> ?v } GROUP BY ?g HAVING (SUM(?v) > 10) ORDER BY DESC(?total) LIMIT 5 OFFSET 2", &arena,
    )
    .unwrap();
    assert_eq!(q.modifiers.group_by.len(), 1);
    assert_eq!(q.modifiers.having.len(), 1);
    assert_eq!(q.modifiers.order_by.len(), 1);
    assert_eq!(q.modifiers.limit, Some(5));
    assert_eq!(q.modifiers.offset, Some(2));
    let Projection::Items(items) = &q.projection else {
        panic!()
    };
    assert_eq!(items.len(), 3);
    let mut variables = Vec::new();
    items[1]
        .expr
        .unwrap()
        .for_each_variable(&mut |v| variables.push(v));
    assert_eq!(variables, ["v"]);
}

#[test]
fn parses_filter_builtins_exists_regex_in() {
    let arena = Arena::new();
    let q = parse_query_in(
        r#"SELECT ?x WHERE {
             ?x <http://p> ?v .
             FILTER(REGEX(STR(?v), "^foo", "i") && ?v != "bar"@en)
             FILTER NOT EXISTS { ?x a <http://Hidden> }
             FILTER(?x IN (<http://a>, <http://b>))
           }"#,
        &arena,
    )
    .unwrap();
    let body = q.where_clause.unwrap();
    let filters: Vec<_> = body
        .elements
        .iter()
        .filter_map(|e| match e {
            GroupElement::Filter(f) => Some(f),
            _ => None,
        })
        .collect();
    assert_eq!(filters.len(), 3);
    assert!(filters[1].contains_exists());
    assert!(matches!(filters[2], Expression::In(_, list) if list.len() == 2));
}

#[test]
fn parses_property_path_forms() {
    let arena = Arena::new();
    for (path, expect_trivial) in [
        ("<http://a>", true),
        ("^<http://a>", false),
        ("!<http://a>", false),
        ("!(<http://a>|^<http://b>)", false),
        ("<http://a>/<http://b>/<http://c>", false),
        ("<http://a>|<http://b>", false),
        ("<http://a>*", false),
        ("<http://a>+", false),
        ("<http://a>?", false),
        ("(<http://a>/<http://b>)*", false),
        ("<http://a>*/<http://b>", false),
    ] {
        let text = format!("ASK {{ ?s {path} ?o }}");
        let q = parse_query_in(&text, &arena).unwrap();
        let body = q.where_clause.unwrap();
        let GroupElement::Triples(ts) = &body.elements[0] else {
            panic!()
        };
        match &ts[0] {
            TripleOrPath::Triple(_) => assert!(expect_trivial, "{path} should not be trivial"),
            TripleOrPath::Path(_) => assert!(!expect_trivial, "{path} should be trivial"),
        }
    }
}

#[test]
fn parses_describe_variants() {
    let arena = Arena::new();
    let q = parse_query_in("DESCRIBE <http://example.org/thing>", &arena).unwrap();
    assert_eq!(q.form, QueryForm::Describe);
    assert!(!q.has_body());

    let q = parse_query_in("DESCRIBE ?x WHERE { ?x a <http://C> } LIMIT 1", &arena).unwrap();
    assert!(q.has_body());
    assert_eq!(q.modifiers.limit, Some(1));
}

#[test]
fn parses_construct_variants() {
    let arena = Arena::new();
    let q = parse_query_in(
        "CONSTRUCT { ?s <http://p2> ?o } FROM <http://graph> WHERE { ?s <http://p> ?o }",
        &arena,
    )
    .unwrap();
    assert_eq!(q.form, QueryForm::Construct);
    assert_eq!(q.construct_template.as_ref().unwrap().len(), 1);
    assert_eq!(q.dataset.len(), 1);
}

#[test]
fn parses_ask_without_variables() {
    let arena = Arena::new();
    // Most ASK queries in the logs ask for a concrete triple (Section 4.4).
    let q = parse_query_in("ASK { <http://s> <http://p> <http://o> }", &arena).unwrap();
    let mut variables = 0;
    q.where_clause
        .unwrap()
        .for_each_variable(&mut |_| variables += 1);
    assert_eq!(variables, 0);
}

#[test]
fn parses_from_named_and_prefixes_with_base() {
    let arena = Arena::new();
    let q = parse_query_in(
        "BASE <http://base.org/> PREFIX : <http://ex.org/> SELECT * FROM <http://g1> FROM NAMED <http://g2> WHERE { ?s :p ?o }", &arena,
    )
    .unwrap();
    assert_eq!(q.dataset.len(), 2);
    assert!(q.dataset[1].named);
    assert_eq!(q.prologue.prefixes.len(), 1);
    // The empty-prefix name expands against the declared prefix.
    let body = q.where_clause.unwrap();
    let GroupElement::Triples(ts) = &body.elements[0] else {
        panic!()
    };
    let TripleOrPath::Triple(t) = &ts[0] else {
        panic!()
    };
    assert_eq!(t.predicate, Term::Iri("http://ex.org/p"));
}

#[test]
fn parses_language_and_datatype_literals() {
    let arena = Arena::new();
    let q = parse_query_in(
        r#"SELECT ?x WHERE { ?x <http://p> "label"@en-GB ; <http://q> "3.14"^^<http://www.w3.org/2001/XMLSchema#double> }"#, &arena,
    )
    .unwrap();
    assert_eq!(count_triples(q.where_clause.as_ref().unwrap()), 2);
}

#[test]
fn parses_case_insensitive_keywords() {
    let arena = Arena::new();
    let q = parse_query_in("select ?x where { ?x a <http://C> } limit 3", &arena).unwrap();
    assert_eq!(q.form, QueryForm::Select);
    assert_eq!(q.modifiers.limit, Some(3));
}

#[test]
fn rejects_garbage_and_updates() {
    let arena = Arena::new();
    for bad in [
        "",
        "this is not sparql",
        "GET /sparql?query=SELECT HTTP/1.1",
        "INSERT DATA { <http://s> <http://p> <http://o> }",
        "SELECT ?x WHERE { ?x a <http://C>", // missing closing brace
        "SELECT WHERE { ?x ?y ?z }",         // missing projection
        "ASK { ?x <http://p> }",             // missing object
    ] {
        assert!(
            parse_query_in(bad, &arena).is_err(),
            "should reject: {bad:?}"
        );
    }
}

#[test]
fn rejects_malformed_wikidata_public_art_style_query() {
    let arena = Arena::new();
    // Mirrors the one unparseable WikiData query mentioned in Section 2
    // (missing closing braces and a bad aggregate).
    let bad = r#"SELECT (COUNT(?item) AS ) ?place WHERE {
        ?item <http://www.wikidata.org/prop/direct/P31> ?type .
        ?item <http://www.wikidata.org/prop/direct/P131> ?place
    "#;
    assert!(parse_query_in(bad, &arena).is_err());
}

#[test]
fn canonical_roundtrip_on_complex_query() {
    let arena = Arena::new();
    let q = parse_query_in(
        r#"PREFIX dbo: <http://dbpedia.org/ontology/>
           SELECT DISTINCT ?film ?director WHERE {
             ?film a dbo:Film ;
                   dbo:director ?director .
             OPTIONAL { ?director dbo:birthPlace ?place }
             FILTER(?director != dbo:UnknownDirector)
             { ?film dbo:releaseDate ?d } UNION { ?film dbo:premiereDate ?d }
           } ORDER BY ?film LIMIT 100"#,
        &arena,
    )
    .unwrap();
    let canon = to_canonical_string_ref(&q);
    let q2 = parse_query_in(&canon, &arena).unwrap();
    assert_eq!(canon, to_canonical_string_ref(&q2));
    assert_eq!(count_triples(q.where_clause.as_ref().unwrap()), 5);
}

#[test]
fn trailing_semicolons_and_dots_are_tolerated() {
    let arena = Arena::new();
    assert!(parse_query_in("SELECT ?x WHERE { ?x a <http://C> ; }", &arena).is_ok());
    assert!(parse_query_in("SELECT ?x WHERE { ?x a <http://C> . } .", &arena).is_ok());
}
