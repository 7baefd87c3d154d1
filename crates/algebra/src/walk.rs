//! Structural walks over a query body.
//!
//! Two readers of the one AST ([`ast_ref`](sparqlog_parser::ast_ref)) live
//! here, and every per-query measure exists once on each side:
//!
//! * [`BodyOps`] and [`collect_property_paths`] are *per-measure* walkers:
//!   each entry point traverses the query on its own. They are the reference
//!   ("multi-walk") path the oracle (`sparqlog_core::baseline`) is built from
//!   and the differential tests compare against.
//! * [`QueryWalkRef`] is the *single-pass* walker: one traversal of the body
//!   collecting everything the corpus pipeline needs — the [`BodyOps`]
//!   counters, aggregate usage, property paths, projection-visibility data
//!   and the AOF pattern tree. All `*_from_walk_ref` entry points in this
//!   crate and `StructuralReport::from_walk_interned` in `sparqlog-graph`
//!   consume it instead of re-traversing the query.

use crate::features::AggregateUse;
use crate::pattern_tree::{PatternNode, PatternTree};
use sparqlog_parser::ast_ref::*;
use sparqlog_parser::intern::{Interner, Symbol};
use std::collections::BTreeSet;

/// Counters describing which syntactic constructs a query body uses and how
/// often. All downstream classifications (keyword census, operator sets,
/// fragments) are derived from these counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyOps {
    /// Number of plain triple patterns (including those inside OPTIONAL,
    /// UNION branches, GRAPH, MINUS and subqueries; excluding FILTER
    /// EXISTS patterns and CONSTRUCT templates).
    pub triples: u32,
    /// Number of non-trivial property-path patterns.
    pub paths: u32,
    /// Number of triple patterns whose predicate is a variable.
    pub var_predicates: u32,
    /// Number of conjunction (`And` / join) combinations: within every group,
    /// the number of joined pattern elements minus one (triples in a BGP each
    /// count as one element).
    pub joins: u32,
    /// Number of `FILTER` constraints.
    pub filters: u32,
    /// Number of `OPTIONAL` blocks.
    pub optionals: u32,
    /// Number of `UNION` operators (a chain of *k* branches counts *k − 1*).
    pub unions: u32,
    /// Number of `GRAPH` blocks.
    pub graphs: u32,
    /// Number of `MINUS` blocks.
    pub minuses: u32,
    /// Number of `BIND` assignments.
    pub binds: u32,
    /// Number of inline `VALUES` blocks inside the body.
    pub values_blocks: u32,
    /// Number of `SERVICE` blocks.
    pub services: u32,
    /// Number of subqueries (nested SELECTs).
    pub subqueries: u32,
    /// Number of `EXISTS` expressions inside filters.
    pub exists: u32,
    /// Number of `NOT EXISTS` expressions inside filters.
    pub not_exists: u32,
    /// Number of aggregate expressions used inside the body (subquery
    /// projections, having clauses of subqueries, …).
    pub aggregates_in_body: u32,
}

impl BodyOps {
    /// Computes the counters for a query body. Returns the default (all-zero)
    /// value for body-less queries.
    pub fn of_query(q: &Query<'_>) -> BodyOps {
        let mut ops = BodyOps::default();
        if let Some(body) = &q.where_clause {
            ops.walk_group(body);
        }
        ops
    }

    /// True if the body uses the `And` operator (at least one join).
    pub fn uses_and(&self) -> bool {
        self.joins > 0
    }

    /// Total number of triple-like patterns (plain triples plus paths).
    pub fn total_triples(&self) -> u32 {
        self.triples + self.paths
    }

    /// True if the body uses any construct outside the operator set
    /// {And, Filter, Opt, Graph, Union} studied in Table 3 of the paper
    /// (property paths, MINUS, BIND, VALUES, SERVICE, subqueries,
    /// (NOT) EXISTS).
    pub fn uses_non_table3_features(&self) -> bool {
        self.paths > 0
            || self.minuses > 0
            || self.binds > 0
            || self.values_blocks > 0
            || self.services > 0
            || self.subqueries > 0
            || self.exists > 0
            || self.not_exists > 0
            || self.aggregates_in_body > 0
    }

    /// True if the body uses only triple patterns combined with `And`,
    /// `Filter` and `Opt` — the *AOF patterns* of Section 5.
    pub fn is_aof(&self) -> bool {
        !self.uses_non_table3_features() && self.unions == 0 && self.graphs == 0
    }

    fn walk_group(&mut self, g: &GroupGraphPattern<'_>) {
        // Count the pattern elements that combine via Join within this group.
        let mut joined_elements: u32 = 0;
        for el in g.elements {
            match el {
                GroupElement::Triples(ts) => {
                    for t in *ts {
                        match t {
                            TripleOrPath::Triple(t) => {
                                self.triples += 1;
                                if t.predicate.is_var() {
                                    self.var_predicates += 1;
                                }
                            }
                            TripleOrPath::Path(_) => self.paths += 1,
                        }
                        joined_elements += 1;
                    }
                }
                GroupElement::Filter(e) => {
                    self.filters += 1;
                    self.walk_expression(e);
                }
                GroupElement::Bind { expr, .. } => {
                    self.binds += 1;
                    self.walk_expression(expr);
                }
                GroupElement::Optional(inner) => {
                    self.optionals += 1;
                    self.walk_group(inner);
                }
                GroupElement::Union(branches) => {
                    self.unions += (branches.len().saturating_sub(1)) as u32;
                    for b in *branches {
                        self.walk_group(b);
                    }
                    joined_elements += 1;
                }
                GroupElement::Graph { pattern, .. } => {
                    self.graphs += 1;
                    self.walk_group(pattern);
                    joined_elements += 1;
                }
                GroupElement::Minus(inner) => {
                    self.minuses += 1;
                    self.walk_group(inner);
                }
                GroupElement::Service { pattern, .. } => {
                    self.services += 1;
                    self.walk_group(pattern);
                    joined_elements += 1;
                }
                GroupElement::Values(_) => {
                    self.values_blocks += 1;
                    joined_elements += 1;
                }
                GroupElement::SubSelect(q) => {
                    self.subqueries += 1;
                    if let Some(inner) = &q.where_clause {
                        self.walk_group(inner);
                    }
                    if let Projection::Items(items) = &q.projection {
                        for e in items.iter().filter_map(|i| i.expr.as_ref()) {
                            self.walk_expression(e);
                        }
                    }
                    joined_elements += 1;
                }
                GroupElement::Group(inner) => {
                    self.walk_group(inner);
                    joined_elements += 1;
                }
            }
        }
        self.joins += joined_elements.saturating_sub(1);
    }

    fn walk_expression(&mut self, e: &Expression<'_>) {
        match e {
            Expression::Exists(g) => {
                self.exists += 1;
                self.walk_group(g);
            }
            Expression::NotExists(g) => {
                self.not_exists += 1;
                self.walk_group(g);
            }
            Expression::Aggregate(agg) => {
                self.aggregates_in_body += 1;
                if let Some(inner) = agg.expr {
                    self.walk_expression(inner);
                }
            }
            Expression::Var(_) | Expression::Term(_) => {}
            Expression::Or(a, b)
            | Expression::And(a, b)
            | Expression::Equal(a, b)
            | Expression::NotEqual(a, b)
            | Expression::Less(a, b)
            | Expression::Greater(a, b)
            | Expression::LessEq(a, b)
            | Expression::GreaterEq(a, b)
            | Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => {
                self.walk_expression(a);
                self.walk_expression(b);
            }
            Expression::In(a, list) | Expression::NotIn(a, list) => {
                self.walk_expression(a);
                for x in *list {
                    self.walk_expression(x);
                }
            }
            Expression::Not(a) | Expression::UnaryMinus(a) | Expression::UnaryPlus(a) => {
                self.walk_expression(a)
            }
            Expression::FunctionCall(_, args) => {
                for a in *args {
                    self.walk_expression(a);
                }
            }
        }
    }
}

/// Collects every property path used anywhere in the query body (including
/// nested groups and subqueries), in source order.
pub fn collect_property_paths<'q>(q: &Query<'q>) -> Vec<PropertyPath<'q>> {
    let mut out = Vec::new();
    if let Some(body) = &q.where_clause {
        collect_paths_group(body, &mut out);
    }
    out
}

fn collect_paths_group<'q>(g: &GroupGraphPattern<'q>, out: &mut Vec<PropertyPath<'q>>) {
    for el in g.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in *ts {
                    if let TripleOrPath::Path(p) = t {
                        out.push(p.path);
                    }
                }
            }
            GroupElement::Optional(inner)
            | GroupElement::Minus(inner)
            | GroupElement::Group(inner)
            | GroupElement::Graph { pattern: inner, .. }
            | GroupElement::Service { pattern: inner, .. } => collect_paths_group(inner, out),
            GroupElement::Union(branches) => {
                for b in *branches {
                    collect_paths_group(b, out);
                }
            }
            GroupElement::SubSelect(q) => {
                if let Some(inner) = &q.where_clause {
                    collect_paths_group(inner, out);
                }
            }
            GroupElement::Filter(e) => collect_paths_expr(e, out),
            GroupElement::Bind { expr, .. } => collect_paths_expr(expr, out),
            GroupElement::Values(_) => {}
        }
    }
}

fn collect_paths_expr<'q>(e: &Expression<'q>, out: &mut Vec<PropertyPath<'q>>) {
    if let Expression::Exists(g) | Expression::NotExists(g) = e {
        collect_paths_group(g, out);
    }
}

/// Channel flags threaded through the group recursion.
#[derive(Debug, Clone, Copy)]
struct GroupCtx {
    /// Record aggregate kinds (off inside `EXISTS` subtrees).
    aggs: bool,
    /// Record visible variables (off inside filters, `EXISTS` subtrees and
    /// projected subqueries).
    visible: bool,
    /// Record "body mentions a variable" (off inside subquery projections).
    vars: bool,
    /// Detect BIND for the projection test (off inside `EXISTS` subtrees).
    bindscan: bool,
    /// Collect property paths (off inside non-top-level `EXISTS` groups and
    /// subquery projections).
    paths: bool,
}

/// Channel flags for the expression recursion.
#[derive(Debug, Clone, Copy)]
struct ExprCtx {
    /// Count into [`BodyOps`] and walk `EXISTS` groups (off in subquery
    /// HAVING clauses, which only the aggregate scan visits).
    ops: bool,
    /// Record aggregate kinds.
    aggs: bool,
    /// Record "body mentions a variable".
    vars: bool,
    /// Collect property paths from a top-level `EXISTS` group.
    paths: bool,
    /// Whether this node is the root of a filter/bind expression (path
    /// collection only enters `EXISTS` at the top level).
    top: bool,
}

/// Everything the corpus pipeline needs from one query body, collected in a
/// **single traversal** of a [`Query`].
///
/// The collected channels replicate the per-measure walkers exactly:
///
/// * `ops` — the [`BodyOps`] counters ([`BodyOps::of_query`]);
/// * `aggregates` — aggregate-function usage inside the body, with the same
///   coverage as the scan in [`crate::features::QueryFeatures::of`] (it does
///   not descend into `EXISTS` groups);
/// * `paths` — the property paths [`collect_property_paths`] returns, in the
///   same order;
/// * `visible_vars` / `body_has_var` / `has_bind` — the in-scope-variable and
///   BIND data [`crate::projection::projection_use`] needs;
/// * `tree` — the AOF pattern tree [`PatternTree::build`] would produce
///   (`None` when the body is not an AOF pattern or the query has no body).
///
/// The per-channel scoping rules differ subtly (e.g. visible variables stop
/// at filters, aggregate scanning stops at `EXISTS`, path collection only
/// enters an `EXISTS` group when it is the top-level filter expression), so
/// the walk threads a small set of channel flags through the recursion
/// instead of traversing once per channel.
///
/// Variable names are interned into the caller-supplied [`Interner`] as the
/// walk encounters them, so the visible-variable set holds `u32` [`Symbol`]s
/// (integer ordering and comparison) instead of string slices, and repeated
/// variable names across the queries a worker analyses share one stored
/// string.
///
/// Everything extracted is either `Copy` nodes of the query (`paths`, the
/// triples and filters of `tree`) or interned symbols (`visible_vars`): the
/// walk copies no string, and its result lives as long as the query it read.
#[derive(Debug, Default)]
pub struct QueryWalkRef<'q> {
    /// The structural counters.
    pub ops: BodyOps,
    /// Aggregate functions used inside the body.
    pub aggregates: AggregateUse,
    /// Every property path, in source order.
    pub paths: Vec<PropertyPath<'q>>,
    /// The variables in scope at the top level of the body (SPARQL 1.1
    /// §18.2.1, as approximated by the projection analysis), as symbols of
    /// the interner the walk ran with.
    pub visible_vars: BTreeSet<Symbol>,
    /// Whether the body mentions any variable at all (the test for ASK
    /// projection).
    pub body_has_var: bool,
    /// Whether the body uses BIND outside `EXISTS` groups (the
    /// `projection::uses_bind` test).
    pub has_bind: bool,
    /// The AOF pattern tree, when the body is an AOF pattern.
    pub tree: Option<PatternTree<'q>>,
    /// Whether the tree under construction is still valid.
    tree_valid: bool,
}

impl<'q> QueryWalkRef<'q> {
    /// Walks the body of `q` once, collecting every channel. Variable names
    /// are interned into `interner` (typically the calling worker's
    /// long-lived table) so the visibility set works over symbols.
    pub fn of(q: &Query<'q>, interner: &mut Interner) -> QueryWalkRef<'q> {
        let mut walk = QueryWalkRef {
            tree_valid: true,
            ..QueryWalkRef::default()
        };
        let Some(body) = &q.where_clause else {
            walk.tree_valid = false;
            return walk;
        };
        let mut root = PatternNode::default();
        let ctx = GroupCtx {
            aggs: true,
            visible: true,
            vars: true,
            bindscan: true,
            paths: true,
        };
        walk.walk_group(body, ctx, Some(&mut root), interner);
        if walk.tree_valid {
            walk.tree = Some(PatternTree { root });
        }
        walk
    }

    fn walk_group(
        &mut self,
        g: &GroupGraphPattern<'q>,
        ctx: GroupCtx,
        mut node: Option<&mut PatternNode<'q>>,
        interner: &mut Interner,
    ) {
        let mut joined_elements: u32 = 0;
        for el in g.elements {
            match el {
                GroupElement::Triples(ts) => {
                    for t in *ts {
                        match t {
                            TripleOrPath::Triple(t) => {
                                self.ops.triples += 1;
                                if t.predicate.is_var() {
                                    self.ops.var_predicates += 1;
                                }
                                for term in [&t.subject, &t.predicate, &t.object] {
                                    self.record_term_var(term, ctx, interner);
                                }
                                if let Some(node) = node.as_deref_mut() {
                                    if self.tree_valid {
                                        node.triples.push(*t);
                                    }
                                }
                            }
                            TripleOrPath::Path(p) => {
                                self.ops.paths += 1;
                                self.tree_valid = false;
                                if ctx.paths {
                                    self.paths.push(p.path);
                                }
                                for term in [&p.subject, &p.object] {
                                    self.record_term_var(term, ctx, interner);
                                }
                            }
                        }
                        joined_elements += 1;
                    }
                }
                GroupElement::Filter(e) => {
                    self.ops.filters += 1;
                    let saw_exists = self.walk_expr(
                        e,
                        ExprCtx {
                            ops: true,
                            aggs: ctx.aggs,
                            vars: ctx.vars,
                            paths: ctx.paths,
                            top: true,
                        },
                        interner,
                    );
                    if saw_exists {
                        self.tree_valid = false;
                    } else if let Some(node) = node.as_deref_mut() {
                        if self.tree_valid {
                            node.filters.push(*e);
                        }
                    }
                }
                GroupElement::Bind { var, expr } => {
                    self.ops.binds += 1;
                    self.tree_valid = false;
                    if ctx.bindscan {
                        self.has_bind = true;
                    }
                    if ctx.visible {
                        let symbol = interner.intern(var);
                        self.visible_vars.insert(symbol);
                    }
                    if ctx.vars {
                        self.body_has_var = true;
                    }
                    self.walk_expr(
                        expr,
                        ExprCtx {
                            ops: true,
                            aggs: ctx.aggs,
                            vars: ctx.vars,
                            paths: ctx.paths,
                            top: true,
                        },
                        interner,
                    );
                }
                GroupElement::Optional(inner) => {
                    self.ops.optionals += 1;
                    match node.as_deref_mut().filter(|_| self.tree_valid) {
                        Some(parent) => {
                            let mut child = PatternNode::default();
                            self.walk_group(inner, ctx, Some(&mut child), interner);
                            if self.tree_valid {
                                parent.children.push(child);
                            }
                        }
                        None => self.walk_group(inner, ctx, None, interner),
                    }
                }
                GroupElement::Union(branches) => {
                    self.ops.unions += (branches.len().saturating_sub(1)) as u32;
                    self.tree_valid = false;
                    for b in *branches {
                        self.walk_group(b, ctx, None, interner);
                    }
                    joined_elements += 1;
                }
                GroupElement::Graph { name, pattern } => {
                    self.ops.graphs += 1;
                    self.tree_valid = false;
                    self.record_term_var(name, ctx, interner);
                    self.walk_group(pattern, ctx, None, interner);
                    joined_elements += 1;
                }
                GroupElement::Minus(inner) => {
                    self.ops.minuses += 1;
                    self.tree_valid = false;
                    self.walk_group(inner, ctx, None, interner);
                }
                GroupElement::Service { name, pattern, .. } => {
                    self.ops.services += 1;
                    self.tree_valid = false;
                    self.record_term_var(name, ctx, interner);
                    self.walk_group(pattern, ctx, None, interner);
                    joined_elements += 1;
                }
                GroupElement::Values(d) => {
                    self.ops.values_blocks += 1;
                    self.tree_valid = false;
                    if ctx.visible {
                        for v in d.variables {
                            let symbol = interner.intern(v);
                            self.visible_vars.insert(symbol);
                        }
                    }
                    if ctx.vars && !d.variables.is_empty() {
                        self.body_has_var = true;
                    }
                    joined_elements += 1;
                }
                GroupElement::SubSelect(q) => {
                    self.ops.subqueries += 1;
                    self.tree_valid = false;
                    // Only the variables the subquery projects are visible.
                    let inner_visible = ctx.visible && matches!(q.projection, Projection::All);
                    if ctx.visible {
                        if let Projection::Items(items) = &q.projection {
                            for item in *items {
                                let symbol = interner.intern(item.var);
                                self.visible_vars.insert(symbol);
                            }
                        }
                    }
                    if let Some(inner) = &q.where_clause {
                        self.walk_group(
                            inner,
                            GroupCtx {
                                visible: inner_visible,
                                ..ctx
                            },
                            None,
                            interner,
                        );
                    }
                    // Projection expressions feed the ops counters and the
                    // aggregate scan; HAVING clauses only the aggregate scan.
                    if let Projection::Items(items) = &q.projection {
                        for item in *items {
                            if let Some(e) = &item.expr {
                                self.walk_expr(
                                    e,
                                    ExprCtx {
                                        ops: true,
                                        aggs: ctx.aggs,
                                        vars: false,
                                        paths: false,
                                        top: false,
                                    },
                                    interner,
                                );
                            }
                        }
                    }
                    for h in q.modifiers.having {
                        self.walk_expr(
                            h,
                            ExprCtx {
                                ops: false,
                                aggs: ctx.aggs,
                                vars: false,
                                paths: false,
                                top: false,
                            },
                            interner,
                        );
                    }
                    joined_elements += 1;
                }
                GroupElement::Group(inner) => {
                    match node.as_deref_mut().filter(|_| self.tree_valid) {
                        // A nested plain group merges into the current tree
                        // node (Currying / Opt-normal-form flattening).
                        Some(parent) => self.walk_group(inner, ctx, Some(parent), interner),
                        None => self.walk_group(inner, ctx, None, interner),
                    }
                    joined_elements += 1;
                }
            }
        }
        self.ops.joins += joined_elements.saturating_sub(1);
    }

    fn record_term_var(&mut self, term: &Term<'q>, ctx: GroupCtx, interner: &mut Interner) {
        if let Term::Var(v) = term {
            if ctx.visible {
                let symbol = interner.intern(v);
                self.visible_vars.insert(symbol);
            }
            if ctx.vars {
                self.body_has_var = true;
            }
        }
    }

    /// Walks one expression; returns whether the subtree contains
    /// `(NOT) EXISTS` (the `Expression::contains_exists` test, needed to
    /// decide whether a filter may enter the pattern tree).
    fn walk_expr(&mut self, e: &Expression<'q>, ctx: ExprCtx, interner: &mut Interner) -> bool {
        use Expression as E;
        let inner = ExprCtx { top: false, ..ctx };
        match e {
            E::Var(_) => {
                if ctx.vars {
                    self.body_has_var = true;
                }
                false
            }
            E::Term(_) => false,
            E::Exists(g) | E::NotExists(g) => {
                // The aggregate scan and the BIND/visibility tests stop at
                // EXISTS; the ops counters and the variable census descend.
                if ctx.ops {
                    match e {
                        E::Exists(_) => self.ops.exists += 1,
                        _ => self.ops.not_exists += 1,
                    }
                    let group_ctx = GroupCtx {
                        aggs: false,
                        visible: false,
                        vars: ctx.vars,
                        bindscan: false,
                        paths: ctx.paths && ctx.top,
                    };
                    self.walk_group(g, group_ctx, None, interner);
                }
                true
            }
            E::Aggregate(agg) => {
                if ctx.ops {
                    self.ops.aggregates_in_body += 1;
                }
                if ctx.aggs {
                    self.aggregates.record(agg.kind);
                }
                match agg.expr {
                    Some(inner_expr) => self.walk_expr(inner_expr, inner, interner),
                    None => false,
                }
            }
            E::Or(a, b)
            | E::And(a, b)
            | E::Equal(a, b)
            | E::NotEqual(a, b)
            | E::Less(a, b)
            | E::Greater(a, b)
            | E::LessEq(a, b)
            | E::GreaterEq(a, b)
            | E::Add(a, b)
            | E::Subtract(a, b)
            | E::Multiply(a, b)
            | E::Divide(a, b) => {
                let sa = self.walk_expr(a, inner, interner);
                let sb = self.walk_expr(b, inner, interner);
                sa || sb
            }
            E::In(a, list) | E::NotIn(a, list) => {
                let mut saw = self.walk_expr(a, inner, interner);
                for x in *list {
                    saw |= self.walk_expr(x, inner, interner);
                }
                saw
            }
            E::Not(a) | E::UnaryMinus(a) | E::UnaryPlus(a) => self.walk_expr(a, inner, interner),
            E::FunctionCall(_, args) => {
                let mut saw = false;
                for a in *args {
                    saw |= self.walk_expr(a, inner, interner);
                }
                saw
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    #[test]
    fn counts_triples_and_joins() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c }",
            &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.triples, 2);
        assert_eq!(ops.joins, 1);
        assert!(ops.uses_and());
    }

    #[test]
    fn single_triple_has_no_join() {
        let arena = Arena::new();
        let q = parse_query_in("SELECT * WHERE { ?a <http://p> ?b }", &arena).unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.triples, 1);
        assert!(!ops.uses_and());
    }

    #[test]
    fn optional_does_not_count_as_join() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { ?a <http://p> ?b OPTIONAL { ?b <http://q> ?c } }",
            &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.optionals, 1);
        assert_eq!(ops.joins, 0);
        assert!(ops.is_aof());
    }

    #[test]
    fn union_counts_branches_minus_one() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { { ?a <http://p> ?b } UNION { ?a <http://q> ?b } UNION { ?a <http://r> ?b } }", &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.unions, 2);
        assert!(!ops.is_aof());
    }

    #[test]
    fn var_predicates_are_counted() {
        let arena = Arena::new();
        let q = parse_query_in("ASK { ?x ?p ?y . ?y <http://q> ?z }", &arena).unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.var_predicates, 1);
    }

    #[test]
    fn exists_and_aggregates_are_found_in_expressions() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { ?x <http://p> ?y FILTER NOT EXISTS { ?x a <http://C> } FILTER EXISTS { ?y a <http://D> } }", &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.not_exists, 1);
        assert_eq!(ops.exists, 1);
        assert!(!ops.is_aof());
    }

    #[test]
    fn path_and_graph_detection() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { GRAPH ?g { ?x <http://a>/<http://b> ?y } }",
            &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.graphs, 1);
        assert_eq!(ops.paths, 1);
        assert_eq!(collect_property_paths(&q).len(), 1);
    }

    #[test]
    fn subquery_triples_are_included() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT ?x WHERE { { SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z } } ?x <http://r> ?w }", &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert_eq!(ops.subqueries, 1);
        assert_eq!(ops.triples, 3);
        // Subquery + triples block join at the outer level.
        assert!(ops.joins >= 1);
    }

    #[test]
    fn joined_graph_blocks_count_as_and() {
        let arena = Arena::new();
        let q = parse_query_in(
            "SELECT * WHERE { ?a <http://p> ?b . GRAPH <http://g> { ?b <http://q> ?c } }",
            &arena,
        )
        .unwrap();
        let ops = BodyOps::of_query(&q);
        assert!(ops.uses_and());
    }
}
