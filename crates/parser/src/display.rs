//! Canonical serialization of parsed queries back to SPARQL text, and the
//! zero-materialization canonical fingerprint built on top of it.
//!
//! The serializer produces a *canonical form*: prefixed names are written as
//! fully expanded IRIs, whitespace is normalized, and keywords are
//! upper-cased. Two syntactically different but token-identical queries
//! therefore serialize to the same string, which is what the corpus pipeline
//! uses to detect duplicates (Table 1 "Unique") and what the streak detector
//! measures Levenshtein distance on (Section 8).
//!
//! Every writer in this module writes `&str` pieces into a private byte
//! sink with two implementations: a `String` ([`to_canonical_string_ref`])
//! and the 128-bit FNV-1a state of a [`CanonicalHasher`]
//! ([`canonical_fingerprint_of_ref`]), which folds the canonical form into
//! the fingerprint without ever materializing it — the duplicate-elimination
//! hot path at corpus scale. Nothing here goes through `core::fmt`: numbers
//! have a digit writer, literals an escape writer, and the `Display` impls
//! of [`Term`] and [`PropertyPath`] call the writers below, so a term has
//! one spelling wherever it is printed.
//!
//! The canonical form re-parses to itself. Literals are written with
//! SPARQL's escapes (`\"`, `\\`, `\n`, `\r`, `\t`, and `\uXXXX` for the
//! other control characters), everything else raw; a function name is
//! written bare only if its bare spelling reads back as the same name.

use crate::ast_ref::{
    self, AggregateKind, OrderDirection, PropertyPath, QueryForm, Term, TripleOrPath,
};
use crate::bytescan;
use crate::token::Keyword;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit FNV-1a fingerprint of a canonical form given as a string, used
/// for duplicate elimination without retaining the canonical string. At 128
/// bits a corpus of 10⁹ queries has a collision probability below 10⁻²⁰, far
/// under the parse-ambiguity noise floor of any real log study.
pub fn canonical_fingerprint(canonical: &str) -> u128 {
    let mut hasher = CanonicalHasher::new();
    hasher.put(canonical);
    hasher.finish()
}

/// Serializes a query into its canonical textual form.
pub fn to_canonical_string_ref(q: &ast_ref::Query<'_>) -> String {
    let mut out = String::new();
    write_query_ref(&mut out, q);
    out
}

/// The 128-bit FNV-1a fingerprint of a query's canonical form, computed by
/// streaming the canonical-form walk directly into the hash state — no
/// canonical `String` is ever allocated. The engine's duplicate key; equal,
/// byte for byte, to `canonical_fingerprint(&to_canonical_string_ref(q))`.
pub fn canonical_fingerprint_of_ref(q: &ast_ref::Query<'_>) -> u128 {
    let mut hasher = CanonicalHasher::new();
    write_query_ref(&mut hasher, q);
    hasher.finish()
}

/// A sink that folds every byte written into a 128-bit FNV-1a state.
/// Feeding it the canonical-form walk yields the same fingerprint as hashing
/// [`to_canonical_string_ref`]'s output, minus the allocation, the copy and
/// the second pass over the bytes. It also implements [`std::fmt::Write`],
/// for callers outside this module.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u128,
}

impl CanonicalHasher {
    /// Creates a hasher seeded with the FNV-1a offset basis.
    pub fn new() -> CanonicalHasher {
        CanonicalHasher { state: FNV_OFFSET }
    }

    /// The current fingerprint.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for CanonicalHasher {
    fn default() -> CanonicalHasher {
        CanonicalHasher::new()
    }
}

impl std::fmt::Write for CanonicalHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.put(s);
        Ok(())
    }
}

/// Where the canonical writers put their text: a `String` or a
/// [`CanonicalHasher`]. Writing cannot fail, so there is no result to drop.
pub(crate) trait Sink {
    fn put(&mut self, s: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for CanonicalHasher {
    #[inline]
    fn put(&mut self, s: &str) {
        let mut state = self.state;
        for &byte in s.as_bytes() {
            state ^= u128::from(byte);
            state = state.wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }
}

/// Writes `n` in decimal.
fn put_u64<S: Sink>(out: &mut S, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `text` as a double-quoted SPARQL string the lexer reads back as
/// `text`: the quote, the backslash, line feed, carriage return and tab get
/// their short escapes, every other control character a `\uXXXX` escape
/// (all of them are below U+00A0), and everything else is written raw.
fn put_quoted<S: Sink>(out: &mut S, text: &str) {
    const HEX: &str = "0123456789ABCDEF";
    out.put("\"");
    let mut from = 0;
    for (at, c) in text.char_indices() {
        let short = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            _ if c.is_control() => "",
            _ => continue,
        };
        out.put(&text[from..at]);
        if short.is_empty() {
            out.put("\\u00");
            let code = c as usize;
            out.put(&HEX[code >> 4..(code >> 4) + 1]);
            out.put(&HEX[code & 0xF..(code & 0xF) + 1]);
        } else {
            out.put(short);
        }
        from = at + c.len_utf8();
    }
    out.put(&text[from..]);
    out.put("\"");
}

/// Whether an IRI written bare reads back as this IRI: only an undeclared
/// `prefix:local`. Anything else keeps its brackets, or `<?x>` would print
/// as the variable `?x`, `<_:b>` as a blank node, `<a>` as the keyword `a`
/// and `<UNDEF>` as `UNDEF`. Absolute IRIs, nearly all there are, leave at
/// the first test.
fn bare_iri(i: &str) -> bool {
    !(i.contains("://")
        || i.starts_with("urn:")
        || i.starts_with("mailto:")
        || !i.contains(':')
        || i.starts_with(['?', '$'])
        || i.starts_with("_:"))
}

/// Whether a function name written bare reads back as this name: only a
/// built-in's spelling — one identifier token, already upper case (the
/// parser upper-cases identifiers), that is neither a keyword nor a
/// boolean. `STR` and `SHA256` qualify; the relative IRI `<f>` does not
/// (bare, it would read back as the built-in `F`), and nor does any name
/// with a `:`.
fn bare_function_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    bytes
        .first()
        .is_some_and(|&b| bytescan::is_name_start_char(b))
        && bytescan::scan_name(bytes, 0) == bytes.len()
        && !bytes.iter().any(u8::is_ascii_lowercase)
        && Keyword::from_str_ci(name).is_none()
        && !name.eq_ignore_ascii_case("true")
        && !name.eq_ignore_ascii_case("false")
}

/// Writes one term in its canonical spelling (also `Term`'s `Display`).
pub(crate) fn write_term<S: Sink>(out: &mut S, t: &Term<'_>) {
    match t {
        Term::Iri(i) => {
            if bare_iri(i) {
                out.put(i);
            } else {
                put_bracketed(out, i);
            }
        }
        Term::Literal {
            lexical,
            datatype,
            lang,
        } => {
            put_quoted(out, lexical);
            if let Some(dt) = datatype {
                out.put("^^<");
                out.put(dt);
                out.put(">");
            }
            if let Some(l) = lang {
                out.put("@");
                out.put(l);
            }
        }
        Term::BlankNode(b) => {
            out.put("_:");
            out.put(b);
        }
        Term::Var(v) => put_var(out, v),
    }
}

/// Writes one property path, fully parenthesized (also `PropertyPath`'s
/// `Display`).
pub(crate) fn write_path<S: Sink>(out: &mut S, p: &PropertyPath<'_>) {
    match p {
        PropertyPath::Iri(i) => put_bracketed(out, i),
        PropertyPath::Inverse(p) => {
            out.put("^(");
            write_path(out, p);
            out.put(")");
        }
        PropertyPath::Sequence(a, b) => {
            out.put("(");
            write_path(out, a);
            out.put("/");
            write_path(out, b);
            out.put(")");
        }
        PropertyPath::Alternative(a, b) => {
            out.put("(");
            write_path(out, a);
            out.put("|");
            write_path(out, b);
            out.put(")");
        }
        PropertyPath::ZeroOrMore(p) => {
            out.put("(");
            write_path(out, p);
            out.put(")*");
        }
        PropertyPath::OneOrMore(p) => {
            out.put("(");
            write_path(out, p);
            out.put(")+");
        }
        PropertyPath::ZeroOrOne(p) => {
            out.put("(");
            write_path(out, p);
            out.put(")?");
        }
        PropertyPath::NegatedPropertySet(items) => {
            out.put("!(");
            for (i, (iri, inverse)) in items.iter().enumerate() {
                if i > 0 {
                    out.put("|");
                }
                if *inverse {
                    out.put("^");
                }
                put_bracketed(out, iri);
            }
            out.put(")");
        }
    }
}

fn put_bracketed<S: Sink>(out: &mut S, iri: &str) {
    out.put("<");
    out.put(iri);
    out.put(">");
}

fn put_var<S: Sink>(out: &mut S, v: &str) {
    out.put("?");
    out.put(v);
}

/// Writes ` AS ?var)`, the tail of every aliased expression.
fn put_alias<S: Sink>(out: &mut S, v: &str) {
    out.put(" AS ?");
    out.put(v);
    out.put(")");
}

fn write_triple_ref<S: Sink>(out: &mut S, t: &TripleOrPath<'_>) {
    write_term(out, t.subject());
    out.put(" ");
    match t {
        TripleOrPath::Triple(t) => write_term(out, &t.predicate),
        TripleOrPath::Path(p) => write_path(out, &p.path),
    }
    out.put(" ");
    write_term(out, t.object());
    out.put(" . ");
}

fn write_query_ref<S: Sink>(out: &mut S, q: &ast_ref::Query<'_>) {
    match q.form {
        QueryForm::Select => {
            out.put("SELECT ");
            if q.modifiers.distinct {
                out.put("DISTINCT ");
            }
            if q.modifiers.reduced {
                out.put("REDUCED ");
            }
            write_projection_ref(out, &q.projection);
        }
        QueryForm::Ask => out.put("ASK"),
        QueryForm::Construct => {
            out.put("CONSTRUCT");
            if let Some(template) = q.construct_template {
                out.put(" { ");
                for t in template {
                    write_triple_ref(out, &TripleOrPath::Triple(*t));
                }
                out.put("}");
            }
        }
        QueryForm::Describe => {
            out.put("DESCRIBE ");
            write_projection_ref(out, &q.projection);
        }
    }
    for d in q.dataset {
        out.put(if d.named { " FROM NAMED " } else { " FROM " });
        put_bracketed(out, d.iri);
    }
    if let Some(body) = &q.where_clause {
        out.put(" WHERE ");
        write_group_ref(out, body);
    }
    write_modifiers_ref(out, &q.modifiers);
    if let Some(values) = &q.values {
        out.put(" VALUES ");
        write_inline_data_ref(out, values);
    }
}

fn write_projection_ref<S: Sink>(out: &mut S, p: &ast_ref::Projection<'_>) {
    match p {
        ast_ref::Projection::All => out.put("*"),
        ast_ref::Projection::Items(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.put(" ");
                }
                match &item.expr {
                    Some(e) => {
                        out.put("(");
                        write_expr_ref(out, e);
                        put_alias(out, item.var);
                    }
                    None => put_var(out, item.var),
                }
            }
        }
        ast_ref::Projection::Terms(terms) => {
            for (i, t) in terms.iter().enumerate() {
                if i > 0 {
                    out.put(" ");
                }
                write_term(out, t);
            }
        }
        ast_ref::Projection::None => {}
    }
}

fn write_modifiers_ref<S: Sink>(out: &mut S, m: &ast_ref::SolutionModifiers<'_>) {
    if !m.group_by.is_empty() {
        out.put(" GROUP BY");
        for g in m.group_by {
            out.put(" ");
            match &g.alias {
                Some(a) => {
                    out.put("(");
                    write_expr_ref(out, &g.expr);
                    put_alias(out, a);
                }
                None => write_expr_ref(out, &g.expr),
            }
        }
    }
    if !m.having.is_empty() {
        out.put(" HAVING");
        for h in m.having {
            out.put(" (");
            write_expr_ref(out, h);
            out.put(")");
        }
    }
    if !m.order_by.is_empty() {
        out.put(" ORDER BY");
        for o in m.order_by {
            out.put(match o.direction {
                OrderDirection::Asc => " ASC(",
                OrderDirection::Desc => " DESC(",
            });
            write_expr_ref(out, &o.expr);
            out.put(")");
        }
    }
    if let Some(l) = m.limit {
        out.put(" LIMIT ");
        put_u64(out, l);
    }
    if let Some(o) = m.offset {
        out.put(" OFFSET ");
        put_u64(out, o);
    }
}

/// Writes a group graph pattern, braces included.
fn write_group_ref<S: Sink>(out: &mut S, g: &ast_ref::GroupGraphPattern<'_>) {
    out.put("{ ");
    for el in g.elements {
        match el {
            ast_ref::GroupElement::Triples(ts) => {
                for t in *ts {
                    write_triple_ref(out, t);
                }
            }
            ast_ref::GroupElement::Filter(e) => {
                out.put("FILTER(");
                write_expr_ref(out, e);
                out.put(") ");
            }
            ast_ref::GroupElement::Bind { expr, var } => {
                out.put("BIND(");
                write_expr_ref(out, expr);
                put_alias(out, var);
                out.put(" ");
            }
            ast_ref::GroupElement::Optional(g) => {
                out.put("OPTIONAL ");
                write_group_ref(out, g);
                out.put(" ");
            }
            ast_ref::GroupElement::Union(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        out.put("UNION ");
                    }
                    write_group_ref(out, b);
                    out.put(" ");
                }
            }
            ast_ref::GroupElement::Graph { name, pattern } => {
                out.put("GRAPH ");
                write_term(out, name);
                out.put(" ");
                write_group_ref(out, pattern);
                out.put(" ");
            }
            ast_ref::GroupElement::Minus(g) => {
                out.put("MINUS ");
                write_group_ref(out, g);
                out.put(" ");
            }
            ast_ref::GroupElement::Service {
                silent,
                name,
                pattern,
            } => {
                out.put(if *silent {
                    "SERVICE SILENT "
                } else {
                    "SERVICE "
                });
                write_term(out, name);
                out.put(" ");
                write_group_ref(out, pattern);
                out.put(" ");
            }
            ast_ref::GroupElement::Values(d) => {
                out.put("VALUES ");
                write_inline_data_ref(out, d);
                out.put(" ");
            }
            ast_ref::GroupElement::SubSelect(q) => {
                out.put("{ ");
                write_query_ref(out, q);
                out.put(" } ");
            }
            ast_ref::GroupElement::Group(g) => {
                write_group_ref(out, g);
                out.put(" ");
            }
        }
    }
    out.put("}");
}

fn write_inline_data_ref<S: Sink>(out: &mut S, d: &ast_ref::InlineData<'_>) {
    out.put("(");
    for (i, v) in d.variables.iter().enumerate() {
        if i > 0 {
            out.put(" ");
        }
        put_var(out, v);
    }
    out.put(") { ");
    for row in d.rows {
        out.put("(");
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.put(" ");
            }
            match cell {
                Some(t) => write_term(out, t),
                None => out.put("UNDEF"),
            }
        }
        out.put(") ");
    }
    out.put("}");
}

fn write_expr_ref<S: Sink>(out: &mut S, e: &ast_ref::Expression<'_>) {
    use ast_ref::Expression as E;
    match e {
        E::Var(v) => put_var(out, v),
        E::Term(t) => write_term(out, t),
        E::Or(a, b) => write_binary_ref(out, a, " || ", b),
        E::And(a, b) => write_binary_ref(out, a, " && ", b),
        E::Equal(a, b) => write_binary_ref(out, a, " = ", b),
        E::NotEqual(a, b) => write_binary_ref(out, a, " != ", b),
        E::Less(a, b) => write_binary_ref(out, a, " < ", b),
        E::Greater(a, b) => write_binary_ref(out, a, " > ", b),
        E::LessEq(a, b) => write_binary_ref(out, a, " <= ", b),
        E::GreaterEq(a, b) => write_binary_ref(out, a, " >= ", b),
        E::Add(a, b) => write_binary_ref(out, a, " + ", b),
        E::Subtract(a, b) => write_binary_ref(out, a, " - ", b),
        E::Multiply(a, b) => write_binary_ref(out, a, " * ", b),
        E::Divide(a, b) => write_binary_ref(out, a, " / ", b),
        E::In(a, list) => {
            write_expr_ref(out, a);
            out.put(" IN (");
            write_expr_list_ref(out, list);
            out.put(")");
        }
        E::NotIn(a, list) => {
            write_expr_ref(out, a);
            out.put(" NOT IN (");
            write_expr_list_ref(out, list);
            out.put(")");
        }
        E::Not(a) => {
            out.put("!");
            write_expr_parens_ref(out, a);
        }
        E::UnaryMinus(a) => {
            out.put("-");
            write_expr_parens_ref(out, a);
        }
        E::UnaryPlus(a) => {
            out.put("+");
            write_expr_parens_ref(out, a);
        }
        E::FunctionCall(name, args) => {
            if bare_function_name(name) {
                out.put(name);
            } else {
                put_bracketed(out, name);
            }
            out.put("(");
            write_expr_list_ref(out, args);
            out.put(")");
        }
        E::Exists(g) => {
            out.put("EXISTS ");
            write_group_ref(out, g);
        }
        E::NotExists(g) => {
            out.put("NOT EXISTS ");
            write_group_ref(out, g);
        }
        E::Aggregate(agg) => {
            out.put(match agg.kind {
                AggregateKind::Count => "COUNT(",
                AggregateKind::Sum => "SUM(",
                AggregateKind::Min => "MIN(",
                AggregateKind::Max => "MAX(",
                AggregateKind::Avg => "AVG(",
                AggregateKind::Sample => "SAMPLE(",
                AggregateKind::GroupConcat => "GROUP_CONCAT(",
            });
            if agg.distinct {
                out.put("DISTINCT ");
            }
            match agg.expr {
                Some(e) => write_expr_ref(out, e),
                None => out.put("*"),
            }
            if let Some(sep) = &agg.separator {
                out.put("; SEPARATOR = ");
                put_quoted(out, sep);
            }
            out.put(")");
        }
    }
}

/// Writes `a op b`, `op` with its surrounding spaces.
fn write_binary_ref<S: Sink>(
    out: &mut S,
    a: &ast_ref::Expression<'_>,
    op: &str,
    b: &ast_ref::Expression<'_>,
) {
    write_expr_parens_ref(out, a);
    out.put(op);
    write_expr_parens_ref(out, b);
}

fn write_expr_parens_ref<S: Sink>(out: &mut S, e: &ast_ref::Expression<'_>) {
    let atomic = matches!(
        e,
        ast_ref::Expression::Var(_)
            | ast_ref::Expression::Term(_)
            | ast_ref::Expression::FunctionCall(_, _)
            | ast_ref::Expression::Aggregate(_)
    );
    if atomic {
        write_expr_ref(out, e);
    } else {
        out.put("(");
        write_expr_ref(out, e);
        out.put(")");
    }
}

fn write_expr_list_ref<S: Sink>(out: &mut S, list: &[ast_ref::Expression<'_>]) {
    for (i, e) in list.iter().enumerate() {
        if i > 0 {
            out.put(", ");
        }
        write_expr_ref(out, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::parse_query_in;

    fn canonical(text: &str) -> String {
        let arena = Arena::new();
        to_canonical_string_ref(&parse_query_in(text, &arena).unwrap())
    }

    #[test]
    fn canonical_form_is_reparseable() {
        let queries = [
            "SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> . FILTER(?x != <http://ex.org/y>) } LIMIT 10",
            "ASK { ?s <http://p> ?o . OPTIONAL { ?o <http://q> ?z } }",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ASC(?n)",
            "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://example.org/resource>",
            // All four forms with dataset clauses.
            "SELECT REDUCED ?s FROM <http://g> FROM NAMED <http://n> WHERE { GRAPH <http://n> { ?s ?p ?o } }",
            "ASK FROM <http://g> FROM NAMED <http://n> { ?s ?p ?o }",
            "CONSTRUCT { ?s <http://q> ?o } FROM <http://g> FROM NAMED <http://n> WHERE { ?s <http://p> ?o } LIMIT 3",
            "CONSTRUCT WHERE { ?s <http://p> ?o }",
            "CONSTRUCT FROM <http://g> WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://r> FROM <http://g>",
            "DESCRIBE ?x <http://r> FROM NAMED <http://n> WHERE { ?x <http://p> <http://r> }",
            "DESCRIBE *",
            "DESCRIBE * WHERE { ?s ?p ?o } LIMIT 1",
            // VALUES at query level and inline, with UNDEF.
            "SELECT ?x ?y WHERE { ?x <http://p> ?y } VALUES (?x ?y) { (<http://v> UNDEF) (UNDEF 2) }",
            "SELECT ?x WHERE { VALUES ?x { <http://v> UNDEF \"w\"@en } ?x <http://p> ?y }",
            // The six path operators and negated property sets.
            "SELECT * WHERE { ?s ^<http://a>/(<http://b>|<http://c>)*/<http://d>+/<http://e>? ?o }",
            "ASK { ?s !(<http://a>|^<http://b>) ?o . ?o !<http://c> ?z }",
            "SELECT ?x WHERE { ?x <http://p> ?v FILTER(?v IN (1, 2.5, \"three\")) FILTER(?x NOT IN (<http://a>, <http://b>)) }",
            "SELECT ?x WHERE { ?x <http://a> ?y . SERVICE SILENT <http://e> { ?y <http://b> ?z } SERVICE ?ep { ?z <http://c> ?w } }",
            "SELECT (GROUP_CONCAT(DISTINCT ?y; SEPARATOR=\", \") AS ?g) (COUNT(*) AS ?n) WHERE { ?x <http://p> ?y } GROUP BY ?x",
            "SELECT ?x WHERE { { SELECT DISTINCT ?x (MAX(?v) AS ?m) WHERE { ?x <http://p> ?v } \
             GROUP BY ?x HAVING (MAX(?v) > 1) ORDER BY DESC(?m) LIMIT 5 OFFSET 2 } ?x <http://q> ?w }",
            // `[]` and collection sugar.
            "SELECT ?n WHERE { ?x <http://knows> [ <http://name> ?n ; a <http://Person> ] . [] <http://p> ?x }",
            "SELECT ?x WHERE { ?x <http://list> (1 ?y <http://z>) }",
            // Escaped and long-quoted literals.
            r#"SELECT ?x WHERE { ?x <http://p> "tab\there \"quoted\" back\\slash" , 'single' , "typed"^^<http://dt> }"#,
            "SELECT ?x WHERE { ?x <http://p> \"\"\"long \"quoted\"\nover two lines\"\"\" , '''it's''' }",
            "SELECT ?x WHERE { ?x <http://p> ?y MINUS { ?x <http://q> ?y } BIND(<http://f>(?y) + 1 AS ?z) \
             FILTER(!BOUND(?w) && EXISTS { ?x <http://r> ?w } || NOT EXISTS { ?x <http://s> -3 }) }",
            // Relative IRIs: written bare they come back as the keyword `a`,
            // as some other token, or not at all.
            "ASK { ?x <a> ?y }",
            "BASE <http://b/> SELECT * WHERE { <x> <y> <z> }",
            // Characters Rust's `{:?}` escapes as `\u{…}`, which the lexer
            // rejects: a combining accent, a control character, and both
            // in a separator.
            "SELECT ?x WHERE { ?x <http://p> \"caf\u{e9}\u{301}\" , \"a\u{1}b\" , \"\u{0}\u{7f}\u{85}\" }",
            "SELECT (GROUP_CONCAT(?y; SEPARATOR=\"\u{301}\") AS ?g) WHERE { ?x <http://p> ?y }",
            r#"SELECT ?x WHERE { ?x <http://p> "a\u0001b\u0000" }"#,
            // Function names that bare would read back as another name.
            "SELECT ?x WHERE { ?x <http://p> ?y FILTER(<f>(?y) && <count>(?y) && <TRUE>(?y)) }",
            "SELECT ?x WHERE { ?x <http://p> ?y FILTER(<f-1/x>(?y) && <COUNT>(?y) && <>(?y) && <2x>(?y)) }",
        ];
        for q in queries {
            let arena = Arena::new();
            let parsed = parse_query_in(q, &arena).unwrap_or_else(|e| panic!("{q:?}: {e}"));
            let canon = to_canonical_string_ref(&parsed);
            let reparsed = parse_query_in(&canon, &arena).unwrap_or_else(|e| {
                panic!("canonical form of {q:?} not reparseable: {canon:?}: {e}")
            });
            assert_eq!(
                canon,
                to_canonical_string_ref(&reparsed),
                "canonicalization must be a fixpoint for {q:?}"
            );
        }
    }

    /// The canonical writer pinned byte for byte: literal canonical text and
    /// FNV-1a fingerprint for queries that between them take every branch
    /// of the writer — the four query forms with dataset clauses, every
    /// group element and expression variant, every path operator and
    /// negated sets, aggregates with `SEPARATOR`, `VALUES` with `UNDEF`,
    /// `LIMIT`/`OFFSET` above 2³², relative IRIs and IRIs that look like
    /// prefixed names, and literals with escapes, a language tag and a
    /// datatype. Every canonical form here re-parses to itself, so no
    /// change to the writer may move any of these bytes.
    #[test]
    fn canonical_writer_is_pinned_byte_for_byte() {
        const GOLDEN: [(&str, &str, u128); 20] = [
            (
                r#"SELECT DISTINCT ?s (COUNT(DISTINCT ?o) AS ?n) FROM <http://g> FROM NAMED <http://n> WHERE { ?s <http://p> ?o } GROUP BY ?s (STR(?o) AS ?k) HAVING (COUNT(*) > 1) ORDER BY ASC(?s) DESC(?n) LIMIT 4294967297 OFFSET 18446744073709551615"#,
                r#"SELECT DISTINCT ?s (COUNT(DISTINCT ?o) AS ?n) FROM <http://g> FROM NAMED <http://n> WHERE { ?s <http://p> ?o . } GROUP BY ?s (STR(?o) AS ?k) HAVING (COUNT(*) > "1"^^<http://www.w3.org/2001/XMLSchema#integer>) ORDER BY ASC(?s) DESC(?n) LIMIT 4294967297 OFFSET 18446744073709551615"#,
                0x6228aaf70f12c6c2cd2398d5eebd35b9,
            ),
            (
                r#"SELECT REDUCED * WHERE { ?s ?p ?o } LIMIT 0 OFFSET 10"#,
                r#"SELECT REDUCED * WHERE { ?s ?p ?o . } LIMIT 0 OFFSET 10"#,
                0x79f3aae356354b6f55614ed7d2181c86,
            ),
            (
                r#"ASK FROM <http://g> FROM NAMED <http://n> { GRAPH ?g { ?s ?p ?o } GRAPH <http://n> { ?s <http://q> ?z } }"#,
                r#"ASK FROM <http://g> FROM NAMED <http://n> WHERE { GRAPH ?g { ?s ?p ?o . } GRAPH <http://n> { ?s <http://q> ?z . } }"#,
                0x80943efb06298218223f85cb0c5e1f1c,
            ),
            (
                r#"CONSTRUCT { ?s <http://q> ?o . ?o a <http://C> } FROM <http://g> WHERE { ?s <http://p> ?o }"#,
                r#"CONSTRUCT { ?s <http://q> ?o . ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://C> . } FROM <http://g> WHERE { ?s <http://p> ?o . }"#,
                0x5a6f99aef2bede4a889be2a51009ba24,
            ),
            (
                r#"CONSTRUCT WHERE { ?s <http://p> ?o }"#,
                r#"CONSTRUCT WHERE { ?s <http://p> ?o . }"#,
                0x5f754ea3aeb0207cbe8b3aacf1d328ef,
            ),
            (
                r#"DESCRIBE ?x <http://r> <ex:local> FROM NAMED <http://n> WHERE { ?x <http://p> <http://r> }"#,
                r#"DESCRIBE ?x <http://r> ex:local FROM NAMED <http://n> WHERE { ?x <http://p> <http://r> . }"#,
                0xec9b765524f0425320658cc5b9f2788a,
            ),
            (
                r#"DESCRIBE *"#,
                r#"DESCRIBE *"#,
                0xd2b7df10616a682802cec6136525b65e,
            ),
            (
                r#"SELECT * WHERE { ?s ^<http://a>/(<http://b>|<http://c>)*/<http://d>+/<http://e>? ?o . ?o !(<http://a>|^<http://b>) ?z . ?z !<http://c> ?w . ?w !^<http://d> ?v }"#,
                r#"SELECT * WHERE { ?s (((^(<http://a>)/((<http://b>|<http://c>))*)/(<http://d>)+)/(<http://e>)?) ?o . ?o !(<http://a>|^<http://b>) ?z . ?z !(<http://c>) ?w . ?w !(^<http://d>) ?v . }"#,
                0x42e49bc30faa7dfd7e30f5db63feb087,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://p> ?y OPTIONAL { ?y <http://q> ?z } { ?x <http://a> ?b } UNION { ?x <http://c> ?b } UNION { ?x <http://d> ?b } MINUS { ?x <http://e> ?y } { ?x <http://f> ?g } }"#,
                r#"SELECT ?x WHERE { ?x <http://p> ?y . OPTIONAL { ?y <http://q> ?z . } { ?x <http://a> ?b . } UNION { ?x <http://c> ?b . } UNION { ?x <http://d> ?b . } MINUS { ?x <http://e> ?y . } { ?x <http://f> ?g . } }"#,
                0x9b07c4974526a77c6430d5968231a609,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://a> ?y . SERVICE SILENT <http://e> { ?y <http://b> ?z } SERVICE ?ep { ?z <http://c> ?w } BIND(?y + 1 AS ?k) }"#,
                r#"SELECT ?x WHERE { ?x <http://a> ?y . SERVICE SILENT <http://e> { ?y <http://b> ?z . } SERVICE ?ep { ?z <http://c> ?w . } BIND(?y + "1"^^<http://www.w3.org/2001/XMLSchema#integer> AS ?k) }"#,
                0xf2d8fb240a7fb13b911f4e2270f82051,
            ),
            (
                r#"SELECT ?x ?y WHERE { VALUES ?x { <http://v> UNDEF "w"@en 3 } ?x <http://p> ?y } VALUES (?x ?y) { (<http://v> UNDEF) (UNDEF 2.5) (true 1e3) }"#,
                r#"SELECT ?x ?y WHERE { VALUES (?x) { (<http://v>) (UNDEF) ("w"@en) ("3"^^<http://www.w3.org/2001/XMLSchema#integer>) } ?x <http://p> ?y . } VALUES (?x ?y) { (<http://v> UNDEF) (UNDEF "2.5"^^<http://www.w3.org/2001/XMLSchema#decimal>) ("true"^^<http://www.w3.org/2001/XMLSchema#boolean> "1e3"^^<http://www.w3.org/2001/XMLSchema#double>) }"#,
                0x4e78bf905cb4b083342766a3d0bf700a,
            ),
            (
                r#"SELECT ?x WHERE { { SELECT DISTINCT ?x (MAX(?v) AS ?m) WHERE { ?x <http://p> ?v } GROUP BY ?x HAVING (MAX(?v) > 1) ORDER BY DESC(?m) LIMIT 5 OFFSET 2 } ?x <http://q> ?w }"#,
                r#"SELECT ?x WHERE { { SELECT DISTINCT ?x (MAX(?v) AS ?m) WHERE { ?x <http://p> ?v . } GROUP BY ?x HAVING (MAX(?v) > "1"^^<http://www.w3.org/2001/XMLSchema#integer>) ORDER BY DESC(?m) LIMIT 5 OFFSET 2 } ?x <http://q> ?w . }"#,
                0xa8fb732deac82684e631cfebfdf10fa9,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://p> ?v FILTER(?v = 1 || ?v != 2 && ?v < 3) FILTER(?v > 4 && ?v <= 5 || ?v >= 6) FILTER((?v + 1) - 2 * 3 / 4 > 0) }"#,
                r#"SELECT ?x WHERE { ?x <http://p> ?v . FILTER((?v = "1"^^<http://www.w3.org/2001/XMLSchema#integer>) || ((?v != "2"^^<http://www.w3.org/2001/XMLSchema#integer>) && (?v < "3"^^<http://www.w3.org/2001/XMLSchema#integer>))) FILTER(((?v > "4"^^<http://www.w3.org/2001/XMLSchema#integer>) && (?v <= "5"^^<http://www.w3.org/2001/XMLSchema#integer>)) || (?v >= "6"^^<http://www.w3.org/2001/XMLSchema#integer>)) FILTER(((?v + "1"^^<http://www.w3.org/2001/XMLSchema#integer>) - (("2"^^<http://www.w3.org/2001/XMLSchema#integer> * "3"^^<http://www.w3.org/2001/XMLSchema#integer>) / "4"^^<http://www.w3.org/2001/XMLSchema#integer>)) > "0"^^<http://www.w3.org/2001/XMLSchema#integer>) }"#,
                0xa7c19f90caf41638a03d9c863eb07931,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://p> ?v FILTER(?v IN (1, 2.5, "three")) FILTER(?x NOT IN (<http://a>, <http://b>)) FILTER(!BOUND(?w)) FILTER(-?v < +?v) FILTER(!(?v = 1)) }"#,
                r#"SELECT ?x WHERE { ?x <http://p> ?v . FILTER(?v IN ("1"^^<http://www.w3.org/2001/XMLSchema#integer>, "2.5"^^<http://www.w3.org/2001/XMLSchema#decimal>, "three")) FILTER(?x NOT IN (<http://a>, <http://b>)) FILTER(!BOUND(?w)) FILTER((-?v) < (+?v)) FILTER(!(?v = "1"^^<http://www.w3.org/2001/XMLSchema#integer>)) }"#,
                0xedf119eea709efa384c79e8deb5acb53,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://p> ?v FILTER(EXISTS { ?x <http://r> ?w } || NOT EXISTS { ?x <http://s> -3 }) FILTER(<http://f/g>(?v, ?x) && <ex:fn>(?v) && REGEX(STR(?x), "^a", "i") && SHA256(?v) != "") }"#,
                r#"SELECT ?x WHERE { ?x <http://p> ?v . FILTER((EXISTS { ?x <http://r> ?w . }) || (NOT EXISTS { ?x <http://s> "-3"^^<http://www.w3.org/2001/XMLSchema#integer> . })) FILTER(((<http://f/g>(?v, ?x) && <ex:fn>(?v)) && REGEX(STR(?x), "^a", "i")) && (SHA256(?v) != "")) }"#,
                0x6341304a0746899ffc0c05df3672e205,
            ),
            (
                r#"SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?mi) (AVG(DISTINCT ?v) AS ?a) (SAMPLE(?v) AS ?sa) (GROUP_CONCAT(DISTINCT ?v; SEPARATOR=", ") AS ?g) (GROUP_CONCAT(?v) AS ?h) (COUNT(?v) AS ?c) WHERE { ?x <http://p> ?v } GROUP BY ?x"#,
                r#"SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?mi) (AVG(DISTINCT ?v) AS ?a) (SAMPLE(?v) AS ?sa) (GROUP_CONCAT(DISTINCT ?v; SEPARATOR = ", ") AS ?g) (GROUP_CONCAT(?v) AS ?h) (COUNT(?v) AS ?c) WHERE { ?x <http://p> ?v . } GROUP BY ?x"#,
                0x2bcab392c5647065edde29958e85e19e,
            ),
            (
                r#"ASK { ?x <a> ?y . <x> <y> <z> . <ex:pn> <http://p> <?v> . <_:b> <UNDEF> <mailto:me@ex.org> . <urn:isbn:1> <http://p> ?x }"#,
                r#"ASK WHERE { ?x <a> ?y . <x> <y> <z> . ex:pn <http://p> <?v> . <_:b> <UNDEF> <mailto:me@ex.org> . <urn:isbn:1> <http://p> ?x . }"#,
                0xcaf6fd420e53dd8ac3bfe201b71af451,
            ),
            (
                r#"BASE <http://b/> PREFIX ex: <http://ex.org/ns#> SELECT ?n WHERE { ?p ex:name ?n . ?p <rel> ex: }"#,
                r#"SELECT ?n WHERE { ?p <http://ex.org/ns#name> ?n . ?p <rel> <http://ex.org/ns#> . }"#,
                0xec1b02a91f22a6cb08871539b3ad2e62,
            ),
            (
                r#"SELECT ?x WHERE { ?x <http://p> "tab\there \"quoted\" back\\slash\nnew\rret" , 'single' , "typed"^^<http://dt> , "chat"@fr-BE , """long "quoted" text""" , "café ünï 漢字" }"#,
                r#"SELECT ?x WHERE { ?x <http://p> "tab\there \"quoted\" back\\slash\nnew\rret" . ?x <http://p> "single" . ?x <http://p> "typed"^^<http://dt> . ?x <http://p> "chat"@fr-BE . ?x <http://p> "long \"quoted\" text" . ?x <http://p> "café ünï 漢字" . }"#,
                0xb034422872a01fa7f440cf907d85e0c0,
            ),
            (
                r#"SELECT ?n WHERE { ?x <http://knows> [ <http://name> ?n ; a <http://Person> ] . [] <http://p> ?x . ?x <http://list> (1 ?y <http://z>) . ?x <http://q> _:b1 . _:b1 <http://r> false }"#,
                r#"SELECT ?n WHERE { _:gen1 <http://name> ?n . _:gen1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://Person> . ?x <http://knows> _:gen1 . _:gen2 <http://p> ?x . _:gen3 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://z> . _:gen3 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> . _:gen4 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> ?y . _:gen4 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:gen3 . _:gen5 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> "1"^^<http://www.w3.org/2001/XMLSchema#integer> . _:gen5 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:gen4 . ?x <http://list> _:gen5 . ?x <http://q> _:b1 . _:b1 <http://r> "false"^^<http://www.w3.org/2001/XMLSchema#boolean> . }"#,
                0x17886654a14d84e04447b0b0951f270e,
            ),
        ];
        for (query, text, fingerprint) in GOLDEN {
            let arena = Arena::new();
            let parsed = parse_query_in(query, &arena).unwrap_or_else(|e| panic!("{query}: {e}"));
            assert_eq!(to_canonical_string_ref(&parsed), text, "{query}");
            assert_eq!(
                canonical_fingerprint_of_ref(&parsed),
                fingerprint,
                "{query}: {:#034x}",
                canonical_fingerprint_of_ref(&parsed)
            );
            assert_eq!(canonical_fingerprint(text), fingerprint, "{query}");
        }
    }

    #[test]
    fn literals_take_sparql_escapes_and_function_names_bare_only_if_they_read_back() {
        assert_eq!(
            canonical("ASK { ?x <http://p> \"\t\u{1}caf\u{e9}\u{301}\\\u{7f}\u{9f}\u{a0}\" }"),
            "ASK WHERE { ?x <http://p> \"\\t\\u0001caf\u{e9}\u{301}\\\\\\u007F\\u009F\u{a0}\" . }"
        );
        assert_eq!(
            canonical(
                "SELECT ?x WHERE { ?x <http://p> ?y FILTER(<f>(?y) && str(?y) && SHA256(?y)) }"
            ),
            "SELECT ?x WHERE { ?x <http://p> ?y . FILTER((<f>(?y) && STR(?y)) && SHA256(?y)) }"
        );
    }

    #[test]
    fn canonical_form_identifies_whitespace_variants() {
        assert_eq!(
            canonical("SELECT ?x WHERE { ?x a <http://ex.org/C> }"),
            canonical("SELECT   ?x\nWHERE {\n  ?x a <http://ex.org/C> .\n}")
        );
    }

    #[test]
    fn canonical_form_distinguishes_distinct() {
        assert_ne!(
            canonical("SELECT ?x WHERE { ?x a <http://ex.org/C> }"),
            canonical("SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> }")
        );
    }

    #[test]
    fn hasher_matches_materialized_fingerprint() {
        let queries = [
            "SELECT DISTINCT ?x WHERE { ?x a <http://ex.org/C> . FILTER(?x != <http://ex.org/y>) } LIMIT 10",
            "ASK { ?s <http://p> ?o . OPTIONAL { ?o <http://q> ?z } }",
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ASC(?n)",
            "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://p> ?o }",
            "DESCRIBE <http://example.org/resource>",
            "SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?y HAVING (AVG(?y) > 2)",
            "SELECT ?x WHERE { ?x <http://a> ?y VALUES ?x { <http://v> <http://w> } }",
            "SELECT ?x WHERE { { SELECT ?x WHERE { ?x ^(<http://a>/<http://b>)* ?z } } \
             VALUES (?x ?y) { (<http://v> UNDEF) } }",
            "SELECT ?x WHERE { ?x <http://a> ?y . SERVICE SILENT <http://e> { ?y !(^<http://b>|<http://c>) ?z } \
             MINUS { ?x <http://d> \"lit\"@en } BIND(GROUP_CONCAT(DISTINCT ?y; SEPARATOR = \",\") AS ?g) }",
        ];
        let arena = Arena::new();
        for q in queries {
            let parsed = parse_query_in(q, &arena).unwrap();
            assert_eq!(
                canonical_fingerprint_of_ref(&parsed),
                canonical_fingerprint(&to_canonical_string_ref(&parsed)),
                "streamed fingerprint diverges for {q:?}"
            );
        }
    }

    #[test]
    fn fingerprints_distinguish_nearby_strings() {
        let a = canonical_fingerprint("SELECT ?x WHERE { ?x <http://p> ?y }");
        let b = canonical_fingerprint("SELECT ?x WHERE { ?x <http://q> ?y }");
        assert_ne!(a, b);
        assert_eq!(
            a,
            canonical_fingerprint("SELECT ?x WHERE { ?x <http://p> ?y }")
        );
    }

    #[test]
    fn hasher_streams_multibyte_chars_like_the_string_pass() {
        // write_char on a multibyte char must hash its UTF-8 bytes exactly
        // as the string pass does.
        use std::fmt::Write;
        let mut h = CanonicalHasher::new();
        let _ = h.write_char('é');
        let _ = h.write_str("αβ");
        assert_eq!(h.finish(), canonical_fingerprint("éαβ"));
    }
}
