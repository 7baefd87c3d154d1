//! Recursive-descent parser for SPARQL 1.1 queries.
//!
//! The parser covers the query-language subset relevant to log analysis:
//! all four query forms, basic graph patterns with predicate-object and
//! object lists, blank-node property lists and RDF collections, property
//! paths, `FILTER` / `OPTIONAL` / `UNION` / `GRAPH` / `MINUS` / `BIND` /
//! `VALUES` / `SERVICE`, subqueries, the SPARQL expression grammar including
//! `EXISTS` and aggregates, and all solution modifiers.
//!
//! It builds the borrowed [`ast_ref`](crate::ast_ref) representation
//! directly in a caller-supplied [`Arena`]: every node, list and expanded
//! IRI is bump-allocated, so parsing performs no steady-state global
//! allocation.
//!
//! Update requests (`INSERT` / `DELETE` / `LOAD` …) are *not* supported: the
//! paper's corpus consists of queries, and update entries count as invalid.

use crate::arena::{Arena, ArenaVec};
use crate::ast_ref::*;
use crate::error::{ErrorKind, ParseError, Result};
use crate::lexer::tokenize_in;
use crate::token::{Keyword, Spanned, Token};

/// Hard resource guards for parsing adversarial input. Each field is a cap;
/// `0` disables that guard. The corpus pipeline parses every entry under
/// [`ParseLimits::default`], so a pathological log line trips a structured
/// [`ErrorKind::OversizeEntry`] / [`ErrorKind::DepthExceeded`] error instead
/// of exhausting a worker's memory or stack; the plain [`parse_query_in`]
/// entry point stays unguarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Per-entry byte cap (`0` = unlimited).
    pub max_entry_bytes: usize,
    /// Token-count cap (`0` = unlimited).
    pub max_tokens: usize,
    /// Parser recursion-depth cap (`0` = unlimited).
    pub max_depth: usize,
}

impl ParseLimits {
    /// Default per-entry byte cap: 1 MiB. Real log entries top out around a
    /// few hundred KiB; a multi-MiB "entry" is a corrupt or adversarial line.
    pub const DEFAULT_MAX_ENTRY_BYTES: usize = 1 << 20;
    /// Default token cap: 256 Ki tokens (several tokens per byte is
    /// impossible, so this binds the token buffer well under the byte cap).
    pub const DEFAULT_MAX_TOKENS: usize = 1 << 18;
    /// Default recursion-depth cap. Generous for real queries (which nest a
    /// handful of levels) while keeping worst-case stack usage far from the
    /// 2 MiB spawned-thread default.
    pub const DEFAULT_MAX_DEPTH: usize = 128;

    /// No guards at all — the behavior of [`parse_query_in`].
    pub fn none() -> ParseLimits {
        ParseLimits {
            max_entry_bytes: 0,
            max_tokens: 0,
            max_depth: 0,
        }
    }

    /// Whether an entry of `len` bytes trips the byte cap — known before a
    /// single byte of it is read.
    pub fn oversize(&self, len: usize) -> bool {
        self.max_entry_bytes > 0 && len > self.max_entry_bytes
    }
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits {
            max_entry_bytes: ParseLimits::DEFAULT_MAX_ENTRY_BYTES,
            max_tokens: ParseLimits::DEFAULT_MAX_TOKENS,
            max_depth: ParseLimits::DEFAULT_MAX_DEPTH,
        }
    }
}

/// The `rdf:type` IRI that the keyword `a` abbreviates.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// `rdf:first`, used when desugaring collections.
pub const RDF_FIRST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
/// `rdf:rest`, used when desugaring collections.
pub const RDF_REST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
/// `rdf:nil`, used when desugaring collections.
pub const RDF_NIL: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";

/// Parses a complete SPARQL query string into a [`Query`], allocating every
/// node into `arena`.
///
/// The returned query borrows both `input` and `arena`; see the
/// [`ast_ref`](crate::ast_ref) module docs for the lifetime rules (nothing
/// may outlive the next [`Arena::reset`]).
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a syntactically valid SPARQL
/// 1.1 query (of the supported query subset).
///
/// # Examples
///
/// ```
/// use sparqlog_parser::{parse_query_in, Arena};
/// let arena = Arena::new();
/// let q = parse_query_in("SELECT * WHERE { ?s ?p ?o }", &arena).unwrap();
/// assert!(q.has_body());
/// ```
pub fn parse_query_in<'a>(input: &'a str, arena: &'a Arena) -> Result<Query<'a>> {
    parse_tokens_in(tokenize_in(input, arena)?, arena, &ParseLimits::none())
}

/// Parses a token stream from [`tokenize_in`] (or its capped form
/// [`tokenize_in_limited`](crate::lexer::tokenize_in_limited)) into a
/// [`Query`], under the recursion-depth cap of `limits`; the byte and token
/// caps are the caller's to check before and while lexing. A trip surfaces
/// as a structured [`ErrorKind::DepthExceeded`] error.
///
/// The parser reads nothing but the [`Token`]s: spans only place error
/// messages. Two equal token streams therefore parse to equal queries —
/// the soundness argument of the engine's token-keyed entry memo.
///
/// # Errors
///
/// Returns a [`ParseError`] if the tokens do not form a syntactically valid
/// SPARQL 1.1 query (of the supported query subset) or nest deeper than
/// `limits` allow.
pub fn parse_tokens_in<'a>(
    tokens: &'a [Spanned<'a>],
    arena: &'a Arena,
    limits: &ParseLimits,
) -> Result<Query<'a>> {
    let mut p = Parser::new(tokens, arena, limits.max_depth);
    let q = p.parse_query_unit()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser<'a> {
    tokens: &'a [Spanned<'a>],
    pos: usize,
    arena: &'a Arena,
    prefixes: Vec<(&'a str, &'a str)>,
    base: Option<&'a str>,
    blank_counter: u32,
    /// Current nesting depth of the guarded recursion sites.
    depth: usize,
    /// Recursion-depth cap (`0` = unlimited).
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Spanned<'a>], arena: &'a Arena, max_depth: usize) -> Self {
        Parser {
            tokens,
            pos: 0,
            arena,
            prefixes: Vec::new(),
            base: None,
            blank_counter: 0,
            depth: 0,
            max_depth,
        }
    }

    /// Enters one level of guarded recursion (group patterns, bracketed
    /// terms, path groups, parenthesized expressions). Paired with
    /// [`Parser::leave`]; trips [`ErrorKind::DepthExceeded`] past the cap.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.max_depth > 0 && self.depth > self.max_depth {
            let (line, column) = self.here();
            return Err(ParseError::with_kind(
                ErrorKind::DepthExceeded,
                format!("entry nests deeper than the {}-level cap", self.max_depth),
                line,
                column,
            ));
        }
        Ok(())
    }

    /// Leaves one level of guarded recursion.
    fn leave(&mut self) {
        self.depth -= 1;
    }

    // ------------------------------------------------------------------
    // Token-stream helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|s| s.token)
    }

    fn peek_at(&self, off: usize) -> Option<Token<'a>> {
        self.tokens.get(self.pos + off).map(|s| s.token)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).map(|s| s.token);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> (u32, u32) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| (s.line, s.column))
            .unwrap_or((1, 1))
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let (line, column) = self.here();
        ParseError::new(msg, line, column)
    }

    fn eat(&mut self, expected: Token<'a>) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: Token<'a>) -> Result<()> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {expected}, found {}",
                self.peek()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek() == Some(Token::Keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw:?}")))
        }
    }

    fn at_keyword(&self, kw: Keyword) -> bool {
        self.peek() == Some(Token::Keyword(kw))
    }

    fn expect_eof(&self) -> Result<()> {
        // Allow a trailing dot or semicolon — seen in real logs.
        let mut p = self.pos;
        while matches!(
            self.tokens.get(p).map(|s| s.token),
            Some(Token::Dot) | Some(Token::Semicolon)
        ) {
            p += 1;
        }
        if p == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing content after query"))
        }
    }

    fn fresh_blank(&mut self) -> Term<'a> {
        self.blank_counter += 1;
        // "gen" + up to 10 decimal digits, formatted without allocating.
        let mut buf = [0u8; 13];
        buf[..3].copy_from_slice(b"gen");
        let mut n = self.blank_counter;
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let len = 3 + (digits.len() - i);
        buf[3..len].copy_from_slice(&digits[i..]);
        let label = std::str::from_utf8(&buf[..len]).expect("ascii digits");
        Term::BlankNode(self.arena.alloc_str(label))
    }

    // ------------------------------------------------------------------
    // Prologue
    // ------------------------------------------------------------------

    fn parse_prologue(&mut self) -> Result<Prologue<'a>> {
        loop {
            if self.eat_keyword(Keyword::Prefix) {
                let (prefix, local) = match self.bump() {
                    Some(Token::PrefixedName(p, l)) => (p, l),
                    _ => return Err(self.error("expected prefix name after PREFIX")),
                };
                if !local.is_empty() {
                    return Err(self.error("prefix declaration must end with ':'"));
                }
                let iri = match self.bump() {
                    Some(Token::IriRef(i)) => i,
                    _ => return Err(self.error("expected IRI in PREFIX declaration")),
                };
                // Later declarations override earlier ones for the same prefix.
                self.prefixes.retain(|(p, _)| *p != prefix);
                self.prefixes.push((prefix, iri));
            } else if self.eat_keyword(Keyword::Base) {
                let iri = match self.bump() {
                    Some(Token::IriRef(i)) => i,
                    _ => return Err(self.error("expected IRI in BASE declaration")),
                };
                self.base = Some(iri);
            } else {
                break;
            }
        }
        Ok(Prologue {
            base: self.base,
            prefixes: self.arena.alloc_slice(&self.prefixes),
        })
    }

    fn expand_prefixed(&self, prefix: &'a str, local: &'a str) -> &'a str {
        for (p, iri) in self.prefixes.iter().rev() {
            if *p == prefix {
                return self.arena.alloc_str_concat(iri, local);
            }
        }
        let head = self.arena.alloc_str_concat(prefix, ":");
        self.arena.alloc_str_concat(head, local)
    }

    // ------------------------------------------------------------------
    // Query forms
    // ------------------------------------------------------------------

    fn parse_query_unit(&mut self) -> Result<Query<'a>> {
        let prologue = self.parse_prologue()?;
        let q = match self.peek() {
            Some(Token::Keyword(Keyword::Select)) => self.parse_select(prologue, true)?,
            Some(Token::Keyword(Keyword::Ask)) => self.parse_ask(prologue)?,
            Some(Token::Keyword(Keyword::Construct)) => self.parse_construct(prologue)?,
            Some(Token::Keyword(Keyword::Describe)) => self.parse_describe(prologue)?,
            _ => return Err(self.error("expected SELECT, ASK, CONSTRUCT or DESCRIBE")),
        };
        Ok(q)
    }

    /// Parses a SELECT query. `top_level` controls whether dataset clauses and
    /// a trailing VALUES block are allowed (they are not in subqueries).
    fn parse_select(&mut self, prologue: Prologue<'a>, top_level: bool) -> Result<Query<'a>> {
        self.expect_keyword(Keyword::Select)?;
        let mut modifiers = SolutionModifiers::default();
        if self.eat_keyword(Keyword::Distinct) {
            modifiers.distinct = true;
        } else if self.eat_keyword(Keyword::Reduced) {
            modifiers.reduced = true;
        }
        let projection = self.parse_select_items()?;
        let dataset = if top_level {
            self.parse_dataset_clauses()?
        } else {
            &[]
        };
        self.eat_keyword(Keyword::Where);
        let body = self.parse_group_graph_pattern()?;
        self.parse_solution_modifiers(&mut modifiers)?;
        let values = if top_level {
            self.parse_values_clause()?
        } else {
            None
        };
        Ok(Query {
            prologue,
            form: QueryForm::Select,
            projection,
            construct_template: None,
            dataset,
            where_clause: Some(body),
            modifiers,
            values,
        })
    }

    fn parse_select_items(&mut self) -> Result<Projection<'a>> {
        if self.eat(Token::Star) {
            return Ok(Projection::All);
        }
        let mut items = ArenaVec::new(self.arena);
        loop {
            match self.peek() {
                Some(Token::Var(v)) => {
                    self.bump();
                    items.push(SelectItem { expr: None, var: v });
                }
                Some(Token::LParen) => {
                    self.bump();
                    let expr = self.parse_expression()?;
                    self.expect_keyword(Keyword::As)?;
                    let var = match self.bump() {
                        Some(Token::Var(v)) => v,
                        _ => return Err(self.error("expected variable after AS")),
                    };
                    self.expect(Token::RParen)?;
                    items.push(SelectItem {
                        expr: Some(expr),
                        var,
                    });
                }
                _ => break,
            }
        }
        if items.is_empty() {
            return Err(self.error("SELECT clause requires '*' or at least one variable"));
        }
        Ok(Projection::Items(items.finish()))
    }

    fn parse_ask(&mut self, prologue: Prologue<'a>) -> Result<Query<'a>> {
        self.expect_keyword(Keyword::Ask)?;
        let dataset = self.parse_dataset_clauses()?;
        self.eat_keyword(Keyword::Where);
        let body = self.parse_group_graph_pattern()?;
        let mut modifiers = SolutionModifiers::default();
        self.parse_solution_modifiers(&mut modifiers)?;
        let values = self.parse_values_clause()?;
        Ok(Query {
            prologue,
            form: QueryForm::Ask,
            projection: Projection::None,
            construct_template: None,
            dataset,
            where_clause: Some(body),
            modifiers,
            values,
        })
    }

    fn parse_construct(&mut self, prologue: Prologue<'a>) -> Result<Query<'a>> {
        self.expect_keyword(Keyword::Construct)?;
        if self.peek() == Some(Token::LBrace) {
            // CONSTRUCT { template } dataset* WHERE { pattern } modifiers
            let template = self.parse_construct_template()?;
            let dataset = self.parse_dataset_clauses()?;
            self.eat_keyword(Keyword::Where);
            let body = self.parse_group_graph_pattern()?;
            let mut modifiers = SolutionModifiers::default();
            self.parse_solution_modifiers(&mut modifiers)?;
            Ok(Query {
                prologue,
                form: QueryForm::Construct,
                projection: Projection::None,
                construct_template: Some(template),
                dataset,
                where_clause: Some(body),
                modifiers,
                values: None,
            })
        } else {
            // Short form: CONSTRUCT dataset* WHERE { triples }
            let dataset = self.parse_dataset_clauses()?;
            self.expect_keyword(Keyword::Where)?;
            let body = self.parse_group_graph_pattern()?;
            let mut modifiers = SolutionModifiers::default();
            self.parse_solution_modifiers(&mut modifiers)?;
            Ok(Query {
                prologue,
                form: QueryForm::Construct,
                projection: Projection::None,
                construct_template: None,
                dataset,
                where_clause: Some(body),
                modifiers,
                values: None,
            })
        }
    }

    fn parse_construct_template(&mut self) -> Result<&'a [TriplePattern<'a>]> {
        self.expect(Token::LBrace)?;
        let mut triples = ArenaVec::new(self.arena);
        if self.peek() != Some(Token::RBrace) {
            let items = self.parse_triples_block()?;
            for item in items {
                match item {
                    TripleOrPath::Triple(t) => triples.push(*t),
                    TripleOrPath::Path(p) => {
                        // A trivial path is still a triple; anything else is
                        // illegal in a CONSTRUCT template.
                        if let PropertyPath::Iri(iri) = p.path {
                            triples.push(TriplePattern {
                                subject: p.subject,
                                predicate: Term::Iri(iri),
                                object: p.object,
                            });
                        } else {
                            return Err(
                                self.error("property paths are not allowed in CONSTRUCT templates")
                            );
                        }
                    }
                }
            }
        }
        self.expect(Token::RBrace)?;
        Ok(triples.finish())
    }

    fn parse_describe(&mut self, prologue: Prologue<'a>) -> Result<Query<'a>> {
        self.expect_keyword(Keyword::Describe)?;
        let projection = if self.eat(Token::Star) {
            Projection::All
        } else {
            let mut terms = ArenaVec::new(self.arena);
            while matches!(
                self.peek(),
                Some(Token::Var(_)) | Some(Token::IriRef(_)) | Some(Token::PrefixedName(_, _))
            ) {
                let term = self.parse_var_or_iri()?;
                terms.push(term);
            }
            if terms.is_empty() {
                return Err(self.error("DESCRIBE requires '*' or at least one resource"));
            }
            Projection::Terms(terms.finish())
        };
        let dataset = self.parse_dataset_clauses()?;
        let where_clause = if self.at_keyword(Keyword::Where) || self.peek() == Some(Token::LBrace)
        {
            self.eat_keyword(Keyword::Where);
            Some(self.parse_group_graph_pattern()?)
        } else {
            None
        };
        let mut modifiers = SolutionModifiers::default();
        self.parse_solution_modifiers(&mut modifiers)?;
        Ok(Query {
            prologue,
            form: QueryForm::Describe,
            projection,
            construct_template: None,
            dataset,
            where_clause,
            modifiers,
            values: None,
        })
    }

    fn parse_dataset_clauses(&mut self) -> Result<&'a [DatasetClause<'a>]> {
        let mut out = ArenaVec::new(self.arena);
        while self.eat_keyword(Keyword::From) {
            let named = self.eat_keyword(Keyword::Named);
            let iri = match self.parse_iri()? {
                Term::Iri(i) => i,
                _ => return Err(self.error("expected IRI in FROM clause")),
            };
            out.push(DatasetClause { named, iri });
        }
        Ok(out.finish())
    }

    // ------------------------------------------------------------------
    // Group graph patterns
    // ------------------------------------------------------------------

    fn parse_group_graph_pattern(&mut self) -> Result<GroupGraphPattern<'a>> {
        self.enter()?;
        let result = self.parse_group_graph_pattern_inner();
        self.leave();
        result
    }

    fn parse_group_graph_pattern_inner(&mut self) -> Result<GroupGraphPattern<'a>> {
        self.expect(Token::LBrace)?;
        // Subquery?
        if self.at_keyword(Keyword::Select) {
            let mut sub = self.parse_select(Prologue::default(), false)?;
            // An optional VALUES clause may follow the subquery.
            let values = self.parse_values_clause()?;
            self.expect(Token::RBrace)?;
            sub.values = values;
            let elements = self
                .arena
                .alloc_slice(&[GroupElement::SubSelect(self.arena.alloc(sub))]);
            return Ok(GroupGraphPattern { elements });
        }
        let mut elements = ArenaVec::new(self.arena);
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                None => return Err(self.error("unterminated group graph pattern")),
                Some(Token::Keyword(Keyword::Filter)) => {
                    self.bump();
                    let e = self.parse_constraint()?;
                    elements.push(GroupElement::Filter(e));
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Optional)) => {
                    self.bump();
                    let g = self.parse_group_graph_pattern()?;
                    elements.push(GroupElement::Optional(g));
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Minus)) => {
                    self.bump();
                    let g = self.parse_group_graph_pattern()?;
                    elements.push(GroupElement::Minus(g));
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Graph)) => {
                    self.bump();
                    let name = self.parse_var_or_iri()?;
                    let pattern = self.parse_group_graph_pattern()?;
                    elements.push(GroupElement::Graph { name, pattern });
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Service)) => {
                    self.bump();
                    let silent = self.eat_keyword(Keyword::Silent);
                    let name = self.parse_var_or_iri()?;
                    let pattern = self.parse_group_graph_pattern()?;
                    elements.push(GroupElement::Service {
                        silent,
                        name,
                        pattern,
                    });
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Bind)) => {
                    self.bump();
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect_keyword(Keyword::As)?;
                    let var = match self.bump() {
                        Some(Token::Var(v)) => v,
                        _ => return Err(self.error("expected variable after AS in BIND")),
                    };
                    self.expect(Token::RParen)?;
                    elements.push(GroupElement::Bind { expr, var });
                    self.eat(Token::Dot);
                }
                Some(Token::Keyword(Keyword::Values)) => {
                    self.bump();
                    let data = self.parse_data_block()?;
                    elements.push(GroupElement::Values(data));
                    self.eat(Token::Dot);
                }
                Some(Token::LBrace) => {
                    // Group or union chain.
                    let first = self.parse_group_graph_pattern()?;
                    if self.at_keyword(Keyword::Union) {
                        let mut branches = ArenaVec::new(self.arena);
                        branches.push(first);
                        while self.eat_keyword(Keyword::Union) {
                            branches.push(self.parse_group_graph_pattern()?);
                        }
                        elements.push(GroupElement::Union(branches.finish()));
                    } else if first.elements.len() == 1
                        && matches!(first.elements[0], GroupElement::SubSelect(_))
                    {
                        // `{ SELECT … }` used directly as a group element: the
                        // braces belong to the subquery, so do not wrap it in
                        // an extra Group.
                        elements.push(first.elements[0]);
                    } else {
                        elements.push(GroupElement::Group(first));
                    }
                    self.eat(Token::Dot);
                }
                _ => {
                    let triples = self.parse_triples_block()?;
                    if triples.is_empty() {
                        return Err(self.error(format!(
                            "unexpected token {} in group graph pattern",
                            self.peek().map(|t| t.to_string()).unwrap_or_default()
                        )));
                    }
                    elements.push(GroupElement::Triples(triples));
                }
            }
        }
        Ok(GroupGraphPattern {
            elements: elements.finish(),
        })
    }

    /// Parses a block of triples-same-subject productions separated by dots.
    /// Stops before any token that cannot begin a triple.
    fn parse_triples_block(&mut self) -> Result<&'a [TripleOrPath<'a>]> {
        let mut out = ArenaVec::new(self.arena);
        loop {
            if !self.at_triple_start() {
                break;
            }
            self.parse_triples_same_subject(&mut out)?;
            if self.eat(Token::Dot) {
                continue;
            }
            break;
        }
        Ok(out.finish())
    }

    fn at_triple_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Var(_))
                | Some(Token::IriRef(_))
                | Some(Token::PrefixedName(_, _))
                | Some(Token::BlankNodeLabel(_))
                | Some(Token::Anon)
                | Some(Token::LBracket)
                | Some(Token::String(_))
                | Some(Token::Integer(_))
                | Some(Token::Decimal(_))
                | Some(Token::Double(_))
                | Some(Token::Boolean(_))
                | Some(Token::Nil)
                | Some(Token::LParen)
                | Some(Token::Minus)
                | Some(Token::Plus)
        )
    }

    fn parse_triples_same_subject(
        &mut self,
        out: &mut ArenaVec<'a, TripleOrPath<'a>>,
    ) -> Result<()> {
        // Subject: a term, a blank-node property list, or a collection.
        let subject = match self.peek() {
            Some(Token::LBracket) => {
                let node = self.parse_blank_node_property_list(out)?;
                // A blank-node property list may be the whole triple.
                if !self.at_verb_start() {
                    return Ok(());
                }
                node
            }
            Some(Token::LParen) | Some(Token::Nil) => self.parse_collection(out)?,
            _ => self.parse_graph_node(out)?,
        };
        self.parse_property_list(subject, out, true)
    }

    fn at_verb_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::A)
                | Some(Token::Var(_))
                | Some(Token::IriRef(_))
                | Some(Token::PrefixedName(_, _))
                | Some(Token::Caret)
                | Some(Token::Bang)
                | Some(Token::LParen)
        )
    }

    /// Parses a predicate-object list for `subject`, appending triples to
    /// `out`. `required` demands at least one verb.
    fn parse_property_list(
        &mut self,
        subject: Term<'a>,
        out: &mut ArenaVec<'a, TripleOrPath<'a>>,
        required: bool,
    ) -> Result<()> {
        if !self.at_verb_start() {
            if required {
                return Err(self.error("expected predicate"));
            }
            return Ok(());
        }
        loop {
            // Verb: variable, 'a', or property path.
            enum Verb<'v> {
                Var(&'v str),
                Path(PropertyPath<'v>),
            }
            let verb = match self.peek() {
                Some(Token::Var(v)) => {
                    self.bump();
                    Verb::Var(v)
                }
                _ => Verb::Path(self.parse_path()?),
            };
            // Object list.
            loop {
                let object = match self.peek() {
                    Some(Token::LBracket) => self.parse_blank_node_property_list(out)?,
                    Some(Token::LParen) | Some(Token::Nil) => self.parse_collection(out)?,
                    _ => self.parse_graph_node(out)?,
                };
                let item = match verb {
                    Verb::Var(v) => TripleOrPath::Triple(TriplePattern {
                        subject,
                        predicate: Term::Var(v),
                        object,
                    }),
                    Verb::Path(PropertyPath::Iri(iri)) => TripleOrPath::Triple(TriplePattern {
                        subject,
                        predicate: Term::Iri(iri),
                        object,
                    }),
                    Verb::Path(p) => TripleOrPath::Path(PathPattern {
                        subject,
                        path: p,
                        object,
                    }),
                };
                out.push(item);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            // ';' continues with another verb for the same subject; a dangling
            // ';' before '.' or '}' is tolerated (common in real logs).
            if self.eat(Token::Semicolon) {
                while self.eat(Token::Semicolon) {}
                if self.at_verb_start() {
                    continue;
                }
            }
            break;
        }
        Ok(())
    }

    /// Parses `[ predicate-object-list ]`, returning the fresh blank node.
    fn parse_blank_node_property_list(
        &mut self,
        out: &mut ArenaVec<'a, TripleOrPath<'a>>,
    ) -> Result<Term<'a>> {
        self.enter()?;
        let result = self.parse_blank_node_property_list_inner(out);
        self.leave();
        result
    }

    fn parse_blank_node_property_list_inner(
        &mut self,
        out: &mut ArenaVec<'a, TripleOrPath<'a>>,
    ) -> Result<Term<'a>> {
        self.expect(Token::LBracket)?;
        let node = self.fresh_blank();
        self.parse_property_list(node, out, true)?;
        self.expect(Token::RBracket)?;
        Ok(node)
    }

    /// Parses an RDF collection `( n1 n2 … )`, desugaring to `rdf:first` /
    /// `rdf:rest` triples; returns the head node (or `rdf:nil` when empty).
    fn parse_collection(&mut self, out: &mut ArenaVec<'a, TripleOrPath<'a>>) -> Result<Term<'a>> {
        self.enter()?;
        let result = self.parse_collection_inner(out);
        self.leave();
        result
    }

    fn parse_collection_inner(
        &mut self,
        out: &mut ArenaVec<'a, TripleOrPath<'a>>,
    ) -> Result<Term<'a>> {
        if self.eat(Token::Nil) {
            return Ok(Term::Iri(RDF_NIL));
        }
        self.expect(Token::LParen)?;
        let mut nodes = ArenaVec::new(self.arena);
        while self.peek() != Some(Token::RParen) {
            let node = match self.peek() {
                Some(Token::LBracket) => self.parse_blank_node_property_list(out)?,
                Some(Token::LParen) | Some(Token::Nil) => self.parse_collection(out)?,
                None => return Err(self.error("unterminated collection")),
                _ => self.parse_graph_node(out)?,
            };
            nodes.push(node);
        }
        self.expect(Token::RParen)?;
        // Desugar.
        let mut head = Term::Iri(RDF_NIL);
        for node in nodes.finish().iter().rev() {
            let cell = self.fresh_blank();
            out.push(TripleOrPath::Triple(TriplePattern {
                subject: cell,
                predicate: Term::Iri(RDF_FIRST),
                object: *node,
            }));
            out.push(TripleOrPath::Triple(TriplePattern {
                subject: cell,
                predicate: Term::Iri(RDF_REST),
                object: head,
            }));
            head = cell;
        }
        Ok(head)
    }

    /// Parses a simple graph node: a variable, IRI, literal or blank node.
    fn parse_graph_node(&mut self, _out: &mut ArenaVec<'a, TripleOrPath<'a>>) -> Result<Term<'a>> {
        self.parse_term()
    }

    fn parse_var_or_iri(&mut self) -> Result<Term<'a>> {
        match self.peek() {
            Some(Token::Var(v)) => {
                self.bump();
                Ok(Term::Var(v))
            }
            _ => self.parse_iri(),
        }
    }

    fn parse_iri(&mut self) -> Result<Term<'a>> {
        match self.bump() {
            Some(Token::IriRef(i)) => Ok(Term::Iri(i)),
            Some(Token::PrefixedName(p, l)) => Ok(Term::Iri(self.expand_prefixed(p, l))),
            Some(Token::A) => Ok(Term::Iri(RDF_TYPE)),
            other => Err(self.error(format!(
                "expected IRI, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    /// Parses an RDF term (no blank node property lists / collections).
    fn parse_term(&mut self) -> Result<Term<'a>> {
        // Optional numeric sign.
        let negative = if self.peek() == Some(Token::Minus) {
            self.bump();
            true
        } else {
            if self.peek() == Some(Token::Plus) {
                self.bump();
            }
            false
        };
        let tok = self
            .bump()
            .ok_or_else(|| self.error("expected term, found end of input"))?;
        let term = match tok {
            Token::Var(v) => Term::Var(v),
            Token::IriRef(i) => Term::Iri(i),
            Token::PrefixedName(p, l) => Term::Iri(self.expand_prefixed(p, l)),
            Token::A => Term::Iri(RDF_TYPE),
            Token::BlankNodeLabel(b) => Term::BlankNode(b),
            Token::Anon => self.fresh_blank(),
            Token::Boolean(b) => Term::Literal {
                lexical: if b { "true" } else { "false" },
                datatype: Some("http://www.w3.org/2001/XMLSchema#boolean"),
                lang: None,
            },
            Token::Integer(s) => Term::Literal {
                lexical: self.signed_lexical(s, negative),
                datatype: Some("http://www.w3.org/2001/XMLSchema#integer"),
                lang: None,
            },
            Token::Decimal(s) => Term::Literal {
                lexical: self.signed_lexical(s, negative),
                datatype: Some("http://www.w3.org/2001/XMLSchema#decimal"),
                lang: None,
            },
            Token::Double(s) => Term::Literal {
                lexical: self.signed_lexical(s, negative),
                datatype: Some("http://www.w3.org/2001/XMLSchema#double"),
                lang: None,
            },
            Token::String(s) => {
                // Optional language tag or datatype.
                match self.peek() {
                    Some(Token::LangTag(tag)) => {
                        self.bump();
                        Term::Literal {
                            lexical: s,
                            datatype: None,
                            lang: Some(tag),
                        }
                    }
                    Some(Token::DoubleCaret) => {
                        self.bump();
                        let dt = match self.parse_iri()? {
                            Term::Iri(i) => i,
                            _ => return Err(self.error("expected datatype IRI after ^^")),
                        };
                        Term::Literal {
                            lexical: s,
                            datatype: Some(dt),
                            lang: None,
                        }
                    }
                    _ => Term::Literal {
                        lexical: s,
                        datatype: None,
                        lang: None,
                    },
                }
            }
            Token::Nil => Term::Iri(RDF_NIL),
            other => {
                return Err(self.error(format!("expected term, found {other}")));
            }
        };
        if negative && !matches!(term, Term::Literal { .. }) {
            return Err(self.error("'-' must be followed by a numeric literal"));
        }
        Ok(term)
    }

    fn signed_lexical(&self, s: &'a str, negative: bool) -> &'a str {
        if negative {
            self.arena.alloc_str_concat("-", s)
        } else {
            s
        }
    }

    // ------------------------------------------------------------------
    // Property paths
    // ------------------------------------------------------------------

    fn parse_path(&mut self) -> Result<PropertyPath<'a>> {
        self.parse_path_alternative()
    }

    fn path_ref(&self, p: PropertyPath<'a>) -> &'a PropertyPath<'a> {
        self.arena.alloc(p)
    }

    fn parse_path_alternative(&mut self) -> Result<PropertyPath<'a>> {
        let mut left = self.parse_path_sequence()?;
        while self.eat(Token::Pipe) {
            let right = self.parse_path_sequence()?;
            left = PropertyPath::Alternative(self.path_ref(left), self.path_ref(right));
        }
        Ok(left)
    }

    fn parse_path_sequence(&mut self) -> Result<PropertyPath<'a>> {
        let mut left = self.parse_path_elt_or_inverse()?;
        while self.eat(Token::Slash) {
            let right = self.parse_path_elt_or_inverse()?;
            left = PropertyPath::Sequence(self.path_ref(left), self.path_ref(right));
        }
        Ok(left)
    }

    fn parse_path_elt_or_inverse(&mut self) -> Result<PropertyPath<'a>> {
        if self.eat(Token::Caret) {
            let p = self.parse_path_elt()?;
            Ok(PropertyPath::Inverse(self.path_ref(p)))
        } else {
            self.parse_path_elt()
        }
    }

    fn parse_path_elt(&mut self) -> Result<PropertyPath<'a>> {
        let primary = self.parse_path_primary()?;
        Ok(match self.peek() {
            Some(Token::Star) => {
                self.bump();
                PropertyPath::ZeroOrMore(self.path_ref(primary))
            }
            Some(Token::Plus) => {
                self.bump();
                PropertyPath::OneOrMore(self.path_ref(primary))
            }
            Some(Token::Question) => {
                self.bump();
                PropertyPath::ZeroOrOne(self.path_ref(primary))
            }
            _ => primary,
        })
    }

    fn parse_path_primary(&mut self) -> Result<PropertyPath<'a>> {
        self.enter()?;
        let result = self.parse_path_primary_inner();
        self.leave();
        result
    }

    fn parse_path_primary_inner(&mut self) -> Result<PropertyPath<'a>> {
        match self.peek() {
            Some(Token::IriRef(_)) | Some(Token::PrefixedName(_, _)) | Some(Token::A) => {
                let Term::Iri(iri) = self.parse_iri()? else {
                    unreachable!()
                };
                Ok(PropertyPath::Iri(iri))
            }
            Some(Token::Bang) => {
                self.bump();
                self.parse_negated_property_set()
            }
            Some(Token::LParen) => {
                self.bump();
                let p = self.parse_path()?;
                self.expect(Token::RParen)?;
                Ok(p)
            }
            _ => Err(self.error("expected property path")),
        }
    }

    fn parse_negated_property_set(&mut self) -> Result<PropertyPath<'a>> {
        let mut items = ArenaVec::new(self.arena);
        if self.eat(Token::LParen) {
            loop {
                let inverse = self.eat(Token::Caret);
                let Term::Iri(iri) = self.parse_iri()? else {
                    unreachable!()
                };
                items.push((iri, inverse));
                if !self.eat(Token::Pipe) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
        } else {
            let inverse = self.eat(Token::Caret);
            let Term::Iri(iri) = self.parse_iri()? else {
                unreachable!()
            };
            items.push((iri, inverse));
        }
        Ok(PropertyPath::NegatedPropertySet(items.finish()))
    }

    // ------------------------------------------------------------------
    // VALUES
    // ------------------------------------------------------------------

    fn parse_values_clause(&mut self) -> Result<Option<InlineData<'a>>> {
        if self.eat_keyword(Keyword::Values) {
            Ok(Some(self.parse_data_block()?))
        } else {
            Ok(None)
        }
    }

    fn parse_data_block(&mut self) -> Result<InlineData<'a>> {
        // Single variable or parenthesised variable list.
        let mut variables = ArenaVec::new(self.arena);
        let single = match self.peek() {
            Some(Token::Var(v)) => {
                self.bump();
                variables.push(v);
                true
            }
            Some(Token::LParen) | Some(Token::Nil) => {
                if self.eat(Token::Nil) {
                    // no variables
                } else {
                    self.bump();
                    while let Some(Token::Var(v)) = self.peek() {
                        self.bump();
                        variables.push(v);
                    }
                    self.expect(Token::RParen)?;
                }
                false
            }
            _ => return Err(self.error("expected variable list in VALUES")),
        };
        self.expect(Token::LBrace)?;
        let mut rows: ArenaVec<'a, ValuesRow<'a>> = ArenaVec::new(self.arena);
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                None => return Err(self.error("unterminated VALUES block")),
                _ => {
                    if single {
                        let term = self.parse_data_value()?;
                        rows.push(self.arena.alloc_slice(&[term]));
                    } else {
                        if self.eat(Token::Nil) {
                            rows.push(&[]);
                            continue;
                        }
                        self.expect(Token::LParen)?;
                        let mut row = ArenaVec::new(self.arena);
                        while self.peek() != Some(Token::RParen) {
                            row.push(self.parse_data_value()?);
                        }
                        self.expect(Token::RParen)?;
                        rows.push(row.finish());
                    }
                }
            }
        }
        Ok(InlineData {
            variables: variables.finish(),
            rows: rows.finish(),
        })
    }

    fn parse_data_value(&mut self) -> Result<Option<Term<'a>>> {
        if self.eat_keyword(Keyword::Undef) {
            return Ok(None);
        }
        Ok(Some(self.parse_term()?))
    }

    // ------------------------------------------------------------------
    // Solution modifiers
    // ------------------------------------------------------------------

    fn parse_solution_modifiers(&mut self, m: &mut SolutionModifiers<'a>) -> Result<()> {
        // GROUP BY
        if self.at_keyword(Keyword::Group) && self.peek_at(1) == Some(Token::Keyword(Keyword::By)) {
            self.bump();
            self.bump();
            let mut group_by = ArenaVec::new(self.arena);
            loop {
                match self.peek() {
                    Some(Token::Var(v)) => {
                        self.bump();
                        group_by.push(GroupCondition {
                            expr: Expression::Var(v),
                            alias: None,
                        });
                    }
                    Some(Token::LParen) => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        let alias = if self.eat_keyword(Keyword::As) {
                            match self.bump() {
                                Some(Token::Var(v)) => Some(v),
                                _ => return Err(self.error("expected variable after AS")),
                            }
                        } else {
                            None
                        };
                        self.expect(Token::RParen)?;
                        group_by.push(GroupCondition { expr, alias });
                    }
                    Some(Token::Ident(_))
                    | Some(Token::IriRef(_))
                    | Some(Token::PrefixedName(_, _)) => {
                        let expr = self.parse_unary_expression()?;
                        group_by.push(GroupCondition { expr, alias: None });
                    }
                    _ => break,
                }
            }
            if group_by.is_empty() {
                return Err(self.error("expected GROUP BY condition"));
            }
            m.group_by = group_by.finish();
        }
        // HAVING
        if self.eat_keyword(Keyword::Having) {
            let mut having = ArenaVec::new(self.arena);
            loop {
                let e = self.parse_constraint()?;
                having.push(e);
                if !matches!(self.peek(), Some(Token::LParen) | Some(Token::Ident(_))) {
                    break;
                }
            }
            m.having = having.finish();
        }
        // ORDER BY
        if self.at_keyword(Keyword::Order) && self.peek_at(1) == Some(Token::Keyword(Keyword::By)) {
            self.bump();
            self.bump();
            let mut order_by = ArenaVec::new(self.arena);
            loop {
                let cond = match self.peek() {
                    Some(Token::Keyword(Keyword::Asc)) | Some(Token::Keyword(Keyword::Desc)) => {
                        let dir = if self.eat_keyword(Keyword::Asc) {
                            OrderDirection::Asc
                        } else {
                            self.bump();
                            OrderDirection::Desc
                        };
                        self.expect(Token::LParen)?;
                        let expr = self.parse_expression()?;
                        self.expect(Token::RParen)?;
                        Some(OrderCondition {
                            direction: dir,
                            expr,
                        })
                    }
                    Some(Token::Var(v)) => {
                        self.bump();
                        Some(OrderCondition {
                            direction: OrderDirection::Asc,
                            expr: Expression::Var(v),
                        })
                    }
                    Some(Token::LParen) => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        self.expect(Token::RParen)?;
                        Some(OrderCondition {
                            direction: OrderDirection::Asc,
                            expr,
                        })
                    }
                    Some(Token::Ident(_)) => {
                        let expr = self.parse_unary_expression()?;
                        Some(OrderCondition {
                            direction: OrderDirection::Asc,
                            expr,
                        })
                    }
                    _ => None,
                };
                match cond {
                    Some(c) => order_by.push(c),
                    None => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.error("expected ORDER BY condition"));
            }
            m.order_by = order_by.finish();
        }
        // LIMIT / OFFSET in either order.
        loop {
            if self.eat_keyword(Keyword::Limit) {
                let n = self.parse_integer()?;
                m.limit = Some(n);
            } else if self.eat_keyword(Keyword::Offset) {
                let n = self.parse_integer()?;
                m.offset = Some(n);
            } else {
                break;
            }
        }
        Ok(())
    }

    fn parse_integer(&mut self) -> Result<u64> {
        match self.bump() {
            Some(Token::Integer(s)) => s
                .parse::<u64>()
                .map_err(|_| self.error(format!("integer out of range: {s}"))),
            other => Err(self.error(format!(
                "expected integer, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr_ref(&self, e: Expression<'a>) -> &'a Expression<'a> {
        self.arena.alloc(e)
    }

    /// A FILTER / HAVING constraint: a bracketted expression, a built-in call,
    /// or a function call.
    fn parse_constraint(&mut self) -> Result<Expression<'a>> {
        match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.parse_expression()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            _ => self.parse_unary_expression(),
        }
    }

    fn parse_expression(&mut self) -> Result<Expression<'a>> {
        self.enter()?;
        let result = self.parse_or_expression();
        self.leave();
        result
    }

    fn parse_or_expression(&mut self) -> Result<Expression<'a>> {
        let mut left = self.parse_and_expression()?;
        while self.eat(Token::OrOr) {
            let right = self.parse_and_expression()?;
            left = Expression::Or(self.expr_ref(left), self.expr_ref(right));
        }
        Ok(left)
    }

    fn parse_and_expression(&mut self) -> Result<Expression<'a>> {
        let mut left = self.parse_relational_expression()?;
        while self.eat(Token::AndAnd) {
            let right = self.parse_relational_expression()?;
            left = Expression::And(self.expr_ref(left), self.expr_ref(right));
        }
        Ok(left)
    }

    fn parse_relational_expression(&mut self) -> Result<Expression<'a>> {
        let left = self.parse_additive_expression()?;
        let expr = match self.peek() {
            Some(Token::Equal) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::Equal(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::NotEqual) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::NotEqual(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::Less) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::Less(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::Greater) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::Greater(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::LessEq) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::LessEq(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::GreaterEq) => {
                self.bump();
                let right = self.parse_additive_expression()?;
                Expression::GreaterEq(self.expr_ref(left), self.expr_ref(right))
            }
            Some(Token::Keyword(Keyword::In)) => {
                self.bump();
                let list = self.parse_expression_list()?;
                Expression::In(self.expr_ref(left), list)
            }
            Some(Token::Keyword(Keyword::Not))
                if self.peek_at(1) == Some(Token::Keyword(Keyword::In)) =>
            {
                self.bump();
                self.bump();
                let list = self.parse_expression_list()?;
                Expression::NotIn(self.expr_ref(left), list)
            }
            _ => left,
        };
        Ok(expr)
    }

    fn parse_expression_list(&mut self) -> Result<&'a [Expression<'a>]> {
        if self.eat(Token::Nil) {
            return Ok(&[]);
        }
        self.expect(Token::LParen)?;
        let mut out = ArenaVec::new(self.arena);
        out.push(self.parse_expression()?);
        while self.eat(Token::Comma) {
            out.push(self.parse_expression()?);
        }
        self.expect(Token::RParen)?;
        Ok(out.finish())
    }

    fn parse_additive_expression(&mut self) -> Result<Expression<'a>> {
        let mut left = self.parse_multiplicative_expression()?;
        loop {
            if self.eat(Token::Plus) {
                let right = self.parse_multiplicative_expression()?;
                left = Expression::Add(self.expr_ref(left), self.expr_ref(right));
            } else if self.eat(Token::Minus) {
                let right = self.parse_multiplicative_expression()?;
                left = Expression::Subtract(self.expr_ref(left), self.expr_ref(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn parse_multiplicative_expression(&mut self) -> Result<Expression<'a>> {
        let mut left = self.parse_unary_expression()?;
        loop {
            if self.eat(Token::Star) {
                let right = self.parse_unary_expression()?;
                left = Expression::Multiply(self.expr_ref(left), self.expr_ref(right));
            } else if self.eat(Token::Slash) {
                let right = self.parse_unary_expression()?;
                left = Expression::Divide(self.expr_ref(left), self.expr_ref(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn parse_unary_expression(&mut self) -> Result<Expression<'a>> {
        if self.eat(Token::Bang) {
            let e = self.parse_unary_expression()?;
            Ok(Expression::Not(self.expr_ref(e)))
        } else if self.eat(Token::Minus) {
            let e = self.parse_unary_expression()?;
            Ok(Expression::UnaryMinus(self.expr_ref(e)))
        } else if self.eat(Token::Plus) {
            let e = self.parse_unary_expression()?;
            Ok(Expression::UnaryPlus(self.expr_ref(e)))
        } else {
            self.parse_primary_expression()
        }
    }

    fn parse_primary_expression(&mut self) -> Result<Expression<'a>> {
        self.enter()?;
        let result = self.parse_primary_expression_inner();
        self.leave();
        result
    }

    fn parse_primary_expression_inner(&mut self) -> Result<Expression<'a>> {
        match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.parse_expression()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Var(v)) => {
                self.bump();
                Ok(Expression::Var(v))
            }
            Some(Token::Keyword(Keyword::Exists)) => {
                self.bump();
                let g = self.parse_group_graph_pattern()?;
                Ok(Expression::Exists(self.arena.alloc(g)))
            }
            Some(Token::Keyword(Keyword::Not)) => {
                self.bump();
                self.expect_keyword(Keyword::Exists)?;
                let g = self.parse_group_graph_pattern()?;
                Ok(Expression::NotExists(self.arena.alloc(g)))
            }
            Some(Token::Keyword(kw)) if aggregate_kind(kw).is_some() => {
                self.bump();
                self.parse_aggregate(aggregate_kind(kw).expect("checked"))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                let args = self.parse_arg_list()?;
                // Built-in names are canonicalized to upper case; skip the
                // copy when the source already is.
                let canonical = if name.bytes().any(|b| b.is_ascii_lowercase()) {
                    self.arena.alloc_str_ascii_uppercase(name)
                } else {
                    name
                };
                Ok(Expression::FunctionCall(canonical, args))
            }
            Some(Token::IriRef(_)) | Some(Token::PrefixedName(_, _)) | Some(Token::A) => {
                let iri = self.parse_iri()?;
                if matches!(self.peek(), Some(Token::LParen) | Some(Token::Nil)) {
                    let args = self.parse_arg_list()?;
                    let Term::Iri(name) = iri else { unreachable!() };
                    Ok(Expression::FunctionCall(name, args))
                } else {
                    Ok(Expression::Term(iri))
                }
            }
            Some(Token::String(_))
            | Some(Token::Integer(_))
            | Some(Token::Decimal(_))
            | Some(Token::Double(_))
            | Some(Token::Boolean(_)) => Ok(Expression::Term(self.parse_term()?)),
            other => Err(self.error(format!(
                "expected expression, found {}",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn parse_arg_list(&mut self) -> Result<&'a [Expression<'a>]> {
        if self.eat(Token::Nil) {
            return Ok(&[]);
        }
        self.expect(Token::LParen)?;
        // DISTINCT may appear in e.g. custom aggregate calls; skip it.
        self.eat_keyword(Keyword::Distinct);
        if self.eat(Token::RParen) {
            return Ok(&[]);
        }
        let mut args = ArenaVec::new(self.arena);
        args.push(self.parse_expression()?);
        while self.eat(Token::Comma) {
            args.push(self.parse_expression()?);
        }
        self.expect(Token::RParen)?;
        Ok(args.finish())
    }

    fn parse_aggregate(&mut self, kind: AggregateKind) -> Result<Expression<'a>> {
        self.expect(Token::LParen)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let expr = if self.eat(Token::Star) {
            None
        } else {
            let e = self.parse_expression()?;
            Some(self.expr_ref(e))
        };
        let mut separator = None;
        if self.eat(Token::Semicolon) {
            self.expect_keyword(Keyword::Separator)?;
            self.expect(Token::Equal)?;
            match self.bump() {
                Some(Token::String(s)) => separator = Some(s),
                _ => return Err(self.error("expected string SEPARATOR value")),
            }
        }
        self.expect(Token::RParen)?;
        Ok(Expression::Aggregate(Aggregate {
            kind,
            distinct,
            expr,
            separator,
        }))
    }
}

fn aggregate_kind(kw: Keyword) -> Option<AggregateKind> {
    Some(match kw {
        Keyword::Count => AggregateKind::Count,
        Keyword::Sum => AggregateKind::Sum,
        Keyword::Min => AggregateKind::Min,
        Keyword::Max => AggregateKind::Max,
        Keyword::Avg => AggregateKind::Avg,
        Keyword::Sample => AggregateKind::Sample,
        Keyword::GroupConcat => AggregateKind::GroupConcat,
        _ => return None,
    })
}
