//! Join planning: one cost model of a SELECT block's FROM items and WHERE
//! conjuncts picks the order of the FROM items and shapes the join tree
//! over that order ([`order_joins`]; [`plan_joins`] keeps FROM order).
//!
//! **Steps.** The model walks the left-deep plan of an order one step at a
//! time (`CostModel::step`). The next relation is hash-joined to the tree
//! when an equality keys it to the tree; else it opens a run, and the
//! relations after it keyed only to the run, by plain columns, are
//! hash-joined into the run (Rule 1). The run meets the tree by an index
//! join when an `&&` or `tstzspan @> timestamptz` conjunct links them
//! (Rule 2), else by a cross product. Each step carries its estimate: a
//! table's row count times the [`selectivity`] of its own conjuncts, times
//! [`JOIN_KEY_SELECTIVITY`] per hash key or the link's selectivity, and
//! every other conjunct scales the first join that covers it.
//!
//! **Order.** An order costs the rows its joins produce plus the rows each
//! index join indexes. A block of 2 to 8 tables that the order contract
//! admits ([`order_insensitive`]) is searched depth-first, FROM order
//! first, pruning any prefix no cheaper than an earlier one with the same
//! joined relations and open run: a dynamic program over at most 3^8
//! states. An order replaces FROM order only when it is strictly cheaper
//! (DESIGN.md §12). The tree replays the steps over the final order,
//! taking each step's conjuncts from [`JoinConjuncts`]. The model is built
//! once per block: a reordered block permutes it along with its FROM
//! items.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mduck_sql::plan::{
    index_pattern, order_insensitive, permute_from, selectivity, JoinConjuncts,
    JOIN_KEY_SELECTIVITY,
};
use mduck_sql::{BinaryOp, BoundExpr, BoundFrom, BoundSelect, LogicalType, SqlError, SqlResult};

use crate::exec::{plan_block, EngineCtx, Fold, PhysOp, ScanFilters};
use crate::index::IndexTypeRegistry;

/// The most FROM items a block may have for the pass to order it.
const MAX_RELATIONS: usize = 8;
const _: () = assert!(MAX_RELATIONS <= 64, "the search keys its states by their first words");

/// Relative margin by which an order must beat FROM order.
const MARGIN: f64 = 1e-9;

/// Put the FROM items of block `plan` in the cheapest order, when the
/// order contract holds and the cost model finds an order cheaper than
/// FROM order, then build its join tree ([`plan_joins`]); its FROM
/// subqueries are ordered the same way.
pub fn order_joins(
    ctx: &EngineCtx<'_>,
    plan: &mut BoundSelect,
) -> SqlResult<(PhysOp, Vec<BoundExpr>)> {
    let mut conj = JoinConjuncts::new(plan);
    let mut model = CostModel::new(ctx, plan, &conj)?;
    if (2..=MAX_RELATIONS).contains(&plan.from.len()) && order_insensitive(plan) {
        if let Some(order) = model.best_order() {
            permute_from(plan, &order);
            model.permute(&order);
            conj = JoinConjuncts::new(plan);
        }
    }
    join_tree(ctx, plan, conj, &model, true)
}

/// An operator with its estimated rows.
type Planned = (PhysOp, Option<f64>);

/// Build the physical join tree for a plan's FROM + WHERE by replaying
/// the model's steps over the FROM order; its FROM subqueries are planned
/// in FROM order too. Returns the tree, every node of which hands on
/// every column, and the conjuncts left for above it (those with
/// subqueries).
pub fn plan_joins(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<(PhysOp, Vec<BoundExpr>)> {
    let conj = JoinConjuncts::new(plan);
    let model = CostModel::new(ctx, plan, &conj)?;
    join_tree(ctx, plan, conj, &model, false)
}

/// The join tree of `plan` over its FROM order, from its conjuncts
/// `conj` and its cost `model`; `reorder` lets the join-order pass order
/// its FROM subqueries.
fn join_tree(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    mut conj: JoinConjuncts,
    model: &CostModel,
    reorder: bool,
) -> SqlResult<(PhysOp, Vec<BoundExpr>)> {
    let from = plan.from.iter().enumerate();
    let relations =
        from.map(|(ri, f)| relation(ctx, f, conj.take_local(ri), model.base[ri], reorder));
    let mut relations = relations.collect::<SqlResult<Vec<_>>>()?.into_iter().enumerate();
    let Some((_, mut tree)) = relations.next() else {
        return Err(SqlError::execution("cannot plan joins for a FROM-less select"));
    };
    let mut at = At::new(model, 0);
    // The tree covers input columns `0..width`; the open run, right after
    // it, keeps the column end of each of its FROM items.
    let mut width = conj.span(0).end;
    let mut run: Option<(Planned, Vec<usize>)> = None;
    for (ri, rel) in relations {
        let mut step = model.step(&at, Some(ri));
        if let Some((Step::Close { link, pairs }, next)) = step {
            if let Some(right) = run.take() {
                (tree, width) = close_run(ctx, &mut conj, (tree, width), right, link, pairs);
            }
            at = At { tree_rows: tree.1, ..next };
            step = model.step(&at, Some(ri));
        }
        let Some((step, next)) = step else { continue };
        let span = conj.span(ri);
        match step {
            Step::Hash { keys, rows } => {
                let taken = conj.take_keys(0..width, span.clone(), 0);
                debug_assert_eq!(taken.0.len(), keys, "the model's keys are the keys taken");
                width = span.end;
                tree = filtered(hash_join(tree, rel, taken, rows), conj.take_covered(width));
            }
            Step::Absorb { keys, rows } => {
                let taken = conj.take_keys(0..span.start, span.clone(), width);
                debug_assert_eq!(taken.0.len(), keys, "the model's keys are the keys taken");
                run = run.map(|(right, ends)| (hash_join(right, rel, taken, rows), ends));
                run.iter_mut().for_each(|(_, ends)| ends.push(span.end));
            }
            Step::Open => run = Some((rel, vec![span.end])),
            Step::Close { .. } => {}
        }
        at = At { tree_rows: tree.1, ..next };
    }
    if let (Some((Step::Close { link, pairs }, _)), Some(right)) = (model.step(&at, None), run) {
        (tree, _) = close_run(ctx, &mut conj, (tree, width), right, link, pairs);
    }
    // Anything left (complex predicates with subqueries) runs on top.
    Ok((tree.0, conj.into_remaining()))
}

/// FROM item `f` with its own conjuncts `preds` (written order) and its
/// estimated `rows`. A table fuses them into its scan: an index scan when
/// one is `column <op> constant` (or a commuted `&&`) over an indexed
/// column, else a sequential scan. An equality (`Compare =`) is declined:
/// the index scan does not re-check its hits. Any other item gets them as
/// Filters above it. A subquery is planned here ([`plan_block`]), its FROM
/// items ordered when `reorder` says.
fn relation(
    ctx: &EngineCtx<'_>,
    f: &BoundFrom,
    mut preds: Vec<BoundExpr>,
    rows: Option<f64>,
    reorder: bool,
) -> SqlResult<Planned> {
    let types = || f.schema().fields.iter().map(|fl| fl.ty.clone()).collect();
    let columns: Vec<usize> = (0..f.schema().len()).collect();
    let leaf = match f {
        BoundFrom::Table { name, .. } => {
            let t = ctx.catalog.get(name)?;
            let t = t.read();
            let indexed = preds.iter().enumerate().find_map(|(pos, p)| {
                let (column, op, constant) =
                    index_pattern(p).filter(|_| matches!(p, BoundExpr::Call { .. }))?;
                let index = t.indexes.iter().find(|i| i.column() == column)?.name().to_string();
                Some((pos, index, column, op.to_string(), constant.clone()))
            });
            let table = name.clone();
            let scan = match indexed {
                Some((pos, index, column, op, constant)) => {
                    let indexed = preds.remove(pos);
                    let fallback = std::iter::once(indexed).chain(preds.iter().cloned()).collect();
                    let (filters, fallback) = (ScanFilters::new(preds), ScanFilters::new(fallback));
                    PhysOp::IndexScan {
                        table,
                        index,
                        column,
                        op,
                        constant,
                        filters,
                        fallback,
                        columns,
                    }
                }
                None => PhysOp::SeqScan { table, filters: ScanFilters::new(preds), columns },
            };
            return Ok((scan, rows));
        }
        BoundFrom::Cte { index, alias, .. } => {
            PhysOp::CteScan { index: *index, name: alias.clone(), columns }
        }
        BoundFrom::Subquery { plan, .. } => {
            let mut plan = plan.clone();
            let planned = Box::new(plan_block(ctx, &mut plan, reorder)?);
            PhysOp::SubqueryScan { plan, planned, types: types(), columns }
        }
        BoundFrom::Series { args, .. } => PhysOp::Series { args: args.clone(), columns },
        BoundFrom::Introspect { function, .. } => {
            PhysOp::Introspect { function: *function, types: types(), columns }
        }
    };
    Ok(filtered((leaf, None), preds))
}

/// Join the open run (its tree and its FROM items' column ends, right
/// after the tree's columns `0..width`) to `tree` as the model's close
/// step says: an index join on `link`, else a cross product. The
/// conjuncts the join covers go into Filters above it in the stages the
/// one-relation-at-a-time plan applies them: each FROM position of the
/// run in turn. A folded link gets no Filter, and neither do the `&&`
/// conjuncts right after it when nothing comes before it; the conjuncts
/// ahead of it go with it into the join. Returns the tree and its width.
fn close_run(
    ctx: &EngineCtx<'_>,
    conj: &mut JoinConjuncts,
    ((left, _), width): (Planned, usize),
    ((right, _), ends): (Planned, Vec<usize>),
    link: Option<&Conjunct>,
    pairs: Option<f64>,
) -> (Planned, usize) {
    let end = ends.last().copied().unwrap_or(width);
    let owned = link.filter(|c| c.link == Some(true));
    let link = link.and_then(|c| {
        let found = conj.links(0..width, width..end).find(|l| l.conjunct == c.written);
        debug_assert!(found.is_some(), "the model's link links the tree and the run");
        let l = found?;
        let method = link_method(&ctx.index_types.read(), l.call)?.0.to_owned();
        let build = l.build.map_columns(&|i| i - width);
        Some((c.sel, method, l.probe.clone(), build, l.call.clone()))
    });
    let owned = owned.filter(|_| link.is_some());
    // The covered conjuncts by stage, in written order within each; the
    // folded link's `before` are those ahead of it, its `after` the strict
    // `&&` run right behind it when nothing is ahead.
    let mut covered = Vec::new();
    for (stage, &end) in ends.iter().enumerate() {
        covered.extend(conj.take_covered_indexed(end).into_iter().map(|(ci, c)| (stage, ci, c)));
    }
    let at = covered.iter().position(|&(_, ci, _)| owned.is_some_and(|c| c.written == ci));
    let after = match at {
        Some(0) => covered[1..].iter().take_while(|(_, _, c)| is_strict_overlap(c)).count(),
        _ => 0,
    };
    let expr = |(_, _, c): &(usize, usize, BoundExpr)| c.clone();
    let folded = at.map(|at| Fold {
        before: covered[..at].iter().map(expr).collect(),
        after: covered.drain(at..=at + after).skip(1).map(|(_, _, c)| c).collect(),
    });
    let mut stages = vec![Vec::new(); ends.len()];
    covered.into_iter().for_each(|(stage, _, c)| stages[stage].push(c));
    let columns = every_column(&left, &right);
    let (left, right) = (Box::new(left), Box::new(right));
    let tree = match link {
        Some((sel, method, probe, build, cond)) => {
            let sel = folded.iter().flat_map(|f| &f.after).fold(sel, |s, c| s * selectivity(c));
            let est = pairs.map(|n| n * sel);
            let join =
                PhysOp::IndexJoin { left, right, method, probe, build, cond, folded, est, columns };
            (join, est)
        }
        None => (PhysOp::CrossJoin { left, right, est: pairs, columns }, pairs),
    };
    (stages.into_iter().fold(tree, filtered), end)
}

fn is_strict_overlap(c: &BoundExpr) -> bool {
    matches!(c, BoundExpr::Call { name, strict: true, .. } if name == "&&")
}

/// `child` under one Filter per predicate, the first innermost, with its
/// row estimate carried up through each predicate's selectivity.
fn filtered((child, est): Planned, preds: Vec<BoundExpr>) -> Planned {
    preds.into_iter().fold((child, est), |(child, est), pred| {
        let est = est.map(|n| n * selectivity(&pred));
        let columns = (0..child.columns().len()).collect();
        (PhysOp::Filter { pred, child: Box::new(child), est, columns }, est)
    })
}

/// Every column of a join of `left` and `right`: the left child's, then
/// the right child's.
fn every_column(left: &PhysOp, right: &PhysOp) -> Vec<usize> {
    (0..left.columns().len() + right.columns().len()).collect()
}

/// Hash-join `left` with `right` on `(left keys, right keys)`.
fn hash_join(
    (left, _): Planned,
    (right, _): Planned,
    (left_keys, right_keys): (Vec<BoundExpr>, Vec<BoundExpr>),
    est: Option<f64>,
) -> Planned {
    let columns = every_column(&left, &right);
    let (left, right) = (Box::new(left), Box::new(right));
    (PhysOp::HashJoin { left, right, left_keys, right_keys, est, columns }, est)
}

/// The index method an index join can answer conjunct `c` through, and
/// whether the join folds `c` in:
/// - a strict `&&` whose argument types the method can index: the index
///   answers it exactly, so the join owns it;
/// - a strict `tstzspan @> timestamptz` or `timestamptz <@ tstzspan`,
///   through the method that indexes `tstzspan`: a timestamp is indexed
///   and probed as its singleton time-only box `[t, t]`, and the
///   conjunct's Filter re-checks the candidates.
///
/// Only strict overloads qualify, so a NULL on either side can safely
/// yield no candidates. Nothing is allocated.
fn link_method<'t>(types: &'t IndexTypeRegistry, c: &BoundExpr) -> Option<(&'t str, bool)> {
    let BoundExpr::Call { name, strict: true, args, .. } = c else { return None };
    let [a, b] = args.as_slice() else { return None };
    let (indexed, folds) = match name.as_str() {
        "&&" => ([a.ty(), b.ty()], true),
        "@>" | "<@" => {
            let span = LogicalType::ext("tstzspan");
            let (container, element) = if name == "@>" { (a, b) } else { (b, a) };
            if container.ty() != span || element.ty() != LogicalType::Timestamp {
                return None;
            }
            ([span.clone(), span], false)
        }
        _ => return None,
    };
    // The first method, by name, that can index both argument types.
    let method = types.find(|t| indexed.iter().all(|i| t.can_index(i)))?;
    Some((method, folds))
}

// ------------------------------------------------------------ the model

/// A set of FROM items, by position, a bit each: items 0 to 63 in the
/// word, so the sets of a block that small never allocate, and the set of
/// the rest, less 64, behind it. That set is there only when it holds an
/// item, so equal sets compare equal.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Set(u64, Option<Box<Set>>);

impl Set {
    fn one(ri: usize) -> Set {
        let mut set = Set::default();
        set.insert(ri);
        set
    }

    fn insert(&mut self, ri: usize) {
        match ri.checked_sub(64) {
            None => self.0 |= 1 << ri,
            Some(ri) => self.1.get_or_insert_default().insert(ri),
        }
    }

    fn contains(&self, ri: usize) -> bool {
        match ri.checked_sub(64) {
            None => (self.0 >> ri) & 1 == 1,
            Some(ri) => self.1.as_ref().is_some_and(|high| high.contains(ri)),
        }
    }

    fn union(&self, other: &Set) -> Set {
        let high = match (&self.1, &other.1) {
            (Some(a), Some(b)) => Some(Box::new(a.union(b))),
            (a, b) => a.clone().or_else(|| b.clone()),
        };
        Set(self.0 | other.0, high)
    }

    fn is_subset(&self, of: &Set) -> bool {
        self.0 & !of.0 == 0
            && match (&self.1, &of.1) {
                (None, _) => true,
                (Some(a), Some(b)) => a.is_subset(b),
                (Some(_), None) => false,
            }
    }

    fn len(&self) -> u32 {
        self.0.count_ones() + self.1.as_ref().map_or(0, |high| high.len())
    }
}

/// One argument of a two-argument conjunct: the relations it reads and,
/// when it is a plain column, that column's relation.
type Side = (Set, Option<usize>);

/// What the model needs of one simple WHERE conjunct over two or more
/// relations.
struct Conjunct {
    /// Its position in [`JoinConjuncts::conjuncts`].
    written: usize,
    rels: Set,
    sel: f64,
    /// The arguments of a comparison or of a two-argument call.
    sides: Option<[Side; 2]>,
    eq: bool,
    /// Whether the join owns it, when an index join can answer it through
    /// an index method ([`link_method`]).
    link: Option<bool>,
}

/// The cost model of one block's FROM items and WHERE conjuncts.
struct CostModel {
    /// Estimated rows of each FROM item after its own conjuncts; `None`
    /// for an item that is not a table.
    base: Vec<Option<f64>>,
    /// The simple conjuncts over two or more relations, in written order.
    conjuncts: Vec<Conjunct>,
}

/// A left-deep plan after a prefix of its order: the relations joined
/// into the tree, the open run (Rule 1), and their estimated rows.
#[derive(Clone)]
struct At {
    tree: Set,
    run: Set,
    tree_rows: Option<f64>,
    run_rows: Option<f64>,
}

impl At {
    /// The plan of relation `ri` alone.
    fn new(model: &CostModel, ri: usize) -> At {
        At { tree: Set::one(ri), run: Set::default(), tree_rows: model.base[ri], run_rows: None }
    }

    fn joined(&self, ri: usize) -> bool {
        self.tree.contains(ri) || self.run.contains(ri)
    }
}

/// One step of a left-deep plan, with the model's estimate of the rows
/// its join produces.
enum Step<'m> {
    /// Join the open run to the tree (Rule 2): by an index join on `link`,
    /// else by a cross product, over `pairs` (tree rows times run rows).
    Close { link: Option<&'m Conjunct>, pairs: Option<f64> },
    /// Hash-join the next relation to the tree on `keys` equalities.
    Hash { keys: usize, rows: Option<f64> },
    /// Hash-join the next relation into the open run on `keys` equalities
    /// (Rule 1).
    Absorb { keys: usize, rows: Option<f64> },
    /// Open a run with the next relation.
    Open,
}

impl CostModel {
    fn new(ctx: &EngineCtx<'_>, plan: &BoundSelect, conj: &JoinConjuncts) -> SqlResult<CostModel> {
        let (mut base, mut owner) = (Vec::new(), Vec::new());
        for (ri, f) in plan.from.iter().enumerate() {
            base.push(match f {
                BoundFrom::Table { name, .. } => {
                    let rows = ctx.catalog.get(name)?.read().row_count();
                    // A block of one table estimates no join.
                    if let Some(counts) = ctx.counts.as_ref().filter(|_| plan.from.len() > 1) {
                        counts.borrow_mut().push((name.clone(), rows));
                    }
                    Some(rows as f64)
                }
                _ => None,
            });
            owner.extend(std::iter::repeat_n(ri, f.schema().len()));
        }
        let side = |e: &BoundExpr| {
            let mut rels = Set::default();
            e.for_each_column(&mut |i| {
                rels.insert(owner[i]);
            });
            let plain = match e {
                BoundExpr::ColumnRef { index, .. } => Some(owner[*index]),
                _ => None,
            };
            (rels, plain)
        };
        let mut conjuncts = Vec::new();
        let types = ctx.index_types.read();
        for (written, c) in conj.conjuncts().iter().enumerate().filter(|(_, c)| !c.is_complex()) {
            let (rels, sel) = (side(c).0, selectivity(c));
            match rels.len() {
                0 => {}
                1 => {
                    if let Some(ri) = (0..base.len()).find(|&ri| rels.contains(ri)) {
                        base[ri] = base[ri].map(|n| n * sel);
                    }
                }
                _ => {
                    let sides = match c {
                        BoundExpr::Compare { left, right, .. } => Some([side(left), side(right)]),
                        BoundExpr::Call { args, .. } if args.len() == 2 => {
                            Some([side(&args[0]), side(&args[1])])
                        }
                        _ => None,
                    };
                    let eq = matches!(c, BoundExpr::Compare { op: BinaryOp::Eq, .. });
                    let link = link_method(&types, c).map(|(_, folds)| folds);
                    conjuncts.push(Conjunct { written, rels, sel, sides, eq, link });
                }
            }
        }
        Ok(CostModel { base, conjuncts })
    }

    /// The model of the block with its FROM items in `order` (`order[k]`
    /// moves to position `k`), as [`permute_from`] puts them.
    fn permute(&mut self, order: &[usize]) {
        let mut rank = vec![0; order.len()];
        for (k, &ri) in order.iter().enumerate() {
            rank[ri] = k;
        }
        self.base = order.iter().map(|&ri| self.base[ri]).collect();
        let moved = |set: &Set| {
            let mut out = Set::default();
            (0..rank.len()).filter(|&ri| set.contains(ri)).for_each(|ri| out.insert(rank[ri]));
            out
        };
        for c in &mut self.conjuncts {
            c.rels = moved(&c.rels);
            for (set, plain) in c.sides.iter_mut().flatten() {
                *set = moved(set);
                *plain = plain.map(|ri| rank[ri]);
            }
        }
    }

    /// Estimated rows of the relations `set` joined, every conjunct over
    /// them applied.
    fn rows(&self, set: &Set) -> Option<f64> {
        let joined = (0..self.base.len()).filter(|&ri| set.contains(ri));
        let product = joined.map(|ri| self.base[ri]).product::<Option<f64>>()?;
        let covered = self.conjuncts.iter().filter(|c| c.rels.is_subset(set));
        Some(covered.fold(product, |n, c| n * c.sel))
    }

    /// The equalities keying relation `ri` to the relations `to`: per key,
    /// its side over `to` then its side over `ri`.
    fn keys<'m>(&'m self, to: &'m Set, ri: usize) -> impl Iterator<Item = [&'m Side; 2]> + 'm {
        let keys =
            move |t: &Side, r: &Side| t.0.len() > 0 && t.0.is_subset(to) && r.0 == Set::one(ri);
        self.conjuncts.iter().filter(|c| c.eq).filter_map(move |c| match c.sides.as_ref()? {
            [a, b] if keys(a, b) => Some([a, b]),
            [a, b] if keys(b, a) => Some([b, a]),
            _ => None,
        })
    }

    /// The next step from `at` towards joining relation `next` or, with
    /// `None`, towards the end of the order, with the plan after it (the
    /// caller sets its tree rows); `None` when there is nothing left to do.
    fn step(&self, at: &At, next: Option<usize>) -> Option<(Step<'_>, At)> {
        if next.is_some_and(|ri| at.joined(ri)) {
            return None;
        }
        let mut after = at.clone();
        let hash_rows = |rows: Option<f64>, ri: usize, keys: usize| {
            rows.zip(self.base[ri]).map(|(l, r)| l * r * JOIN_KEY_SELECTIVITY.powi(keys as i32))
        };
        if at.run.len() > 0 {
            // Rule 1: `next` joins the run when every key from the
            // relations so far to it is a plain column of the run equal to
            // a plain column of `next`.
            if let Some(ri) = next {
                let (so_far, mut keys, mut plain) = (at.tree.union(&at.run), 0, true);
                for [t, r] in self.keys(&so_far, ri) {
                    keys += 1;
                    plain &= t.1.is_some_and(|rel| at.run.contains(rel)) && r.1.is_some();
                }
                if keys > 0 && plain {
                    after.run.insert(ri);
                    after.run_rows = hash_rows(at.run_rows, ri, keys);
                    return Some((Step::Absorb { keys, rows: after.run_rows }, after));
                }
            }
            // Rule 2: the first link, in written order, between the tree
            // and the run.
            let linked = |a: &Side, b: &Side| {
                a.0.len() > 0 && b.0.len() > 0 && a.0.is_subset(&at.tree) && b.0.is_subset(&at.run)
            };
            let link = self
                .conjuncts
                .iter()
                .filter(|c| c.link.is_some())
                .find(|c| c.sides.as_ref().is_some_and(|[a, b]| linked(a, b) || linked(b, a)));
            let pairs = at.tree_rows.zip(at.run_rows).map(|(l, r)| l * r);
            (after.tree, after.run) = (at.tree.union(&at.run), Set::default());
            return Some((Step::Close { link, pairs }, after));
        }
        let ri = next?;
        let keys = self.keys(&at.tree, ri).count();
        if keys == 0 {
            after.run = Set::one(ri);
            after.run_rows = self.base[ri];
            return Some((Step::Open, after));
        }
        after.tree.insert(ri);
        Some((Step::Hash { keys, rows: hash_rows(at.tree_rows, ri, keys) }, after))
    }

    /// The cheapest order, when every relation's rows are known and the
    /// order is not FROM order.
    fn best_order(&self) -> Option<Vec<usize>> {
        if self.base.iter().any(Option::is_none) {
            return None;
        }
        let mut search = Search::default();
        for ri in 0..self.base.len() {
            search.order = vec![ri];
            self.visit(&mut search, At::new(self, ri), 0.0);
        }
        let (_, order) = search.best?;
        order.iter().enumerate().any(|(k, &ri)| k != ri).then_some(order)
    }

    /// Extend the order of `search`, whose plan is `at` at `cost`, by every
    /// relation not joined yet, depth-first (see the module comment).
    fn visit(&self, search: &mut Search, at: At, cost: f64) {
        let bound = search.best.as_ref().map_or(f64::INFINITY, |(best, _)| best * (1.0 - MARGIN));
        let seen = search.memo.entry((at.tree.0, at.run.0)).or_insert(f64::INFINITY);
        if cost >= bound || *seen <= cost {
            return;
        }
        *seen = cost;
        let mut rest = (0..self.base.len()).filter(|&ri| !at.joined(ri)).peekable();
        if rest.peek().is_none() {
            let total = self.advance(&mut at.clone(), None, cost);
            if total < bound || search.best.is_none() {
                search.best = Some((total, search.order.clone()));
            }
        }
        for ri in rest {
            let mut next = at.clone();
            let cost = self.advance(&mut next, Some(ri), cost);
            search.order.push(ri);
            self.visit(search, next, cost);
            search.order.pop();
        }
    }

    /// Take the steps from `at` that join relation `next` or, with `None`,
    /// end the order, adding to `cost` the rows each step's join produces
    /// and, for an index join, the run rows it indexes.
    fn advance(&self, at: &mut At, next: Option<usize>, mut cost: f64) -> f64 {
        while let Some((step, after)) = self.step(at, next) {
            cost += match step {
                Step::Close { link: Some(c), pairs } => {
                    pairs.zip(at.run_rows).map(|(pairs, run)| pairs * c.sel + run)
                }
                Step::Close { link: None, pairs } => pairs,
                Step::Hash { rows, .. } | Step::Absorb { rows, .. } => rows,
                Step::Open => Some(0.0),
            }
            .unwrap_or(f64::INFINITY);
            let grew = after.tree != at.tree;
            *at =
                At { tree_rows: if grew { self.rows(&after.tree) } else { at.tree_rows }, ..after };
        }
        cost
    }
}

/// The state of the walk over orders: the cheapest cost seen for each
/// (joined relations, open run), by their first words as it orders at most
/// [`MAX_RELATIONS`] items, the order so far, and the cheapest complete
/// order with its cost.
#[derive(Default)]
struct Search {
    memo: HashMap<(u64, u64), f64, BuildHasherDefault<StateHasher>>,
    order: Vec<usize>,
    best: Option<(f64, Vec<usize>)>,
}

/// The hasher of the search's memo: a multiply-rotate round per word.
/// The keys are relation bit sets the planner makes, so the default
/// hasher's protection against chosen keys buys nothing, and it costs
/// about as much as the rest of a step.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}
