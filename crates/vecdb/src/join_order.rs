//! The join-order pass: a rewrite of the bound SELECT that permutes its
//! FROM items into the order the cost model likes best, before
//! [`plan_joins`](crate::exec::plan_joins) builds the join tree from it.
//!
//! The pass only reorders a block the order contract admits
//! ([`order_insensitive`]): its ORDER BY names every output column, so
//! the result does not depend on the order the join produces rows in.
//! It also needs a known row count for every FROM item, so blocks that
//! read a CTE, a subquery or a table function keep their FROM order.
//!
//! **Cost model.** The cost of an order is the sum of the estimated rows
//! its joins produce, plus the rows each index join indexes (its
//! transient index is built per statement). A relation's rows are the
//! table's exact row count
//! times the selectivity of its own conjuncts; every other conjunct
//! multiplies the rows of the first join that covers it by its
//! [`selectivity`]. The model follows the joins `plan_joins` builds for
//! the order: a hash join when an equality keys the next relation to the
//! tree; otherwise the run of relations keyed only to that relation is
//! hash-joined first (Rule 1) and the run meets the tree through an
//! index join when an `&&` conjunct links them (Rule 2), else through a
//! cross product.
//!
//! **Search.** A depth-first walk over left-deep orders, FROM order
//! first, that prunes any prefix no cheaper than a prefix seen before
//! with the same joined relations and the same open run — the state the
//! rest of the plan depends on — so it is a dynamic program over at most
//! 3^8 states. An order replaces FROM order only when it is strictly
//! cheaper (DESIGN.md §12).

use std::collections::HashMap;

use mduck_sql::plan::{order_insensitive, permute_from, selectivity};
use mduck_sql::{split_conjuncts, BoundExpr, BoundFrom, BoundSelect, SqlResult};

use crate::exec::{index_method, EngineCtx};

/// The most FROM items a block may have for the pass to order it.
const MAX_RELATIONS: usize = 8;

/// Relative margin by which an order must beat FROM order.
const MARGIN: f64 = 1e-9;

/// Reorder the FROM items of `plan`, of its CTE bodies and of its FROM
/// subqueries, each block where the order contract holds and the cost
/// model finds a cheaper order.
pub fn reorder_joins(ctx: &EngineCtx<'_>, plan: &mut BoundSelect) -> SqlResult<()> {
    for cte in &mut plan.ctes {
        reorder_joins(ctx, &mut cte.plan)?;
    }
    for f in &mut plan.from {
        if let BoundFrom::Subquery { plan: sub, .. } = f {
            reorder_joins(ctx, sub)?;
        }
    }
    if plan.from.len() < 2 || plan.from.len() > MAX_RELATIONS || !order_insensitive(plan) {
        return Ok(());
    }
    if let Some(model) = CostModel::new(ctx, plan)? {
        if let Some(order) = model.best_order() {
            permute_from(plan, &order);
        }
    }
    Ok(())
}

/// A set of FROM items, by position.
type Set = u32;

fn bit(ri: usize) -> Set {
    1 << ri
}

fn subset(a: Set, b: Set) -> bool {
    a & !b == 0
}

/// What the model needs of one WHERE conjunct over two or more relations.
struct Conjunct {
    rels: Set,
    sel: f64,
    /// An equality: per side, the relations it reads and, when it is a
    /// plain column, that column's relation.
    eq: Option<[(Set, Option<usize>); 2]>,
    /// A strict `&&` whose argument types an index method covers: the
    /// relations each argument reads.
    link: Option<[Set; 2]>,
}

/// The cost model of one block's FROM items and WHERE conjuncts.
struct CostModel {
    /// Estimated rows of each FROM item after its own conjuncts.
    base: Vec<f64>,
    /// The conjuncts over two or more relations, in written order.
    conjuncts: Vec<Conjunct>,
}

impl CostModel {
    /// The model of `plan`, or `None` when a FROM item has no known row
    /// count.
    fn new(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<Option<CostModel>> {
        let mut base = Vec::with_capacity(plan.from.len());
        let mut owner = Vec::new();
        for (ri, f) in plan.from.iter().enumerate() {
            let BoundFrom::Table { name, .. } = f else { return Ok(None) };
            base.push(ctx.catalog.get(name)?.read().row_count() as f64);
            owner.extend(std::iter::repeat_n(ri, f.schema().len()));
        }
        let rels = |e: &BoundExpr| {
            let mut set = 0;
            e.for_each_column(&mut |i| set |= bit(owner[i]));
            set
        };
        let plain = |e: &BoundExpr| match e {
            BoundExpr::ColumnRef { index, .. } => Some(owner[*index]),
            _ => None,
        };
        let mut all = Vec::new();
        if let Some(f) = &plan.filter {
            split_conjuncts(f, &mut all);
        }
        let mut conjuncts = Vec::new();
        for c in all.iter().filter(|c| !c.is_complex()) {
            let set = rels(c);
            let sel = selectivity(c);
            if set.count_ones() == 1 {
                base[set.trailing_zeros() as usize] *= sel;
                continue;
            }
            if set == 0 {
                continue;
            }
            let eq = match c {
                BoundExpr::Compare { op: mduck_sql::BinaryOp::Eq, left, right } => {
                    Some([(rels(left), plain(left)), (rels(right), plain(right))])
                }
                _ => None,
            };
            let link = match c {
                BoundExpr::Call { name, strict: true, args, .. } if name == "&&" => {
                    match args.as_slice() {
                        [a, b] if index_method(ctx, &a.ty(), &b.ty()).is_some() => {
                            Some([rels(a), rels(b)])
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            conjuncts.push(Conjunct { rels: set, sel, eq, link });
        }
        Ok(Some(CostModel { base, conjuncts }))
    }

    /// The product of the rows of the relations in `set`.
    fn product(&self, set: Set) -> f64 {
        (0..self.base.len()).filter(|&r| set & bit(r) != 0).map(|r| self.base[r]).product()
    }

    /// Estimated rows of the relations `set` joined, every conjunct over
    /// them applied.
    fn rows(&self, set: Set) -> f64 {
        let covered = self.conjuncts.iter().filter(|c| subset(c.rels, set));
        covered.fold(self.product(set), |n, c| n * c.sel)
    }

    /// The equalities keying relation `ri` to the relations `tree`: per
    /// key, the conjunct and its tree side then its relation side.
    fn keys(
        &self,
        tree: Set,
        ri: usize,
    ) -> impl Iterator<Item = (&Conjunct, [(Set, Option<usize>); 2])> + '_ {
        self.conjuncts.iter().filter_map(move |c| {
            let [a, b] = c.eq?;
            if a.0 != 0 && subset(a.0, tree) && b.0 == bit(ri) {
                Some((c, [a, b]))
            } else if b.0 != 0 && subset(b.0, tree) && a.0 == bit(ri) {
                Some((c, [b, a]))
            } else {
                None
            }
        })
    }

    /// Rule 1: does relation `ri` join the open `run` before the run meets
    /// `tree`? Only when every key from the relations so far to `ri` is a
    /// plain column of the run equal to a plain column of `ri`.
    fn absorbs(&self, tree: Set, run: Set, ri: usize) -> bool {
        let mut keys = self.keys(tree | run, ri).peekable();
        keys.peek().is_some()
            && keys.all(|(_, [t, r])| t.1.is_some_and(|rel| run & bit(rel) != 0) && r.1.is_some())
    }

    /// Estimated rows of an absorbed run: its relations hash-joined on
    /// their keys, before any other conjunct.
    fn run_rows(&self, run: Set) -> f64 {
        let keys = self.conjuncts.iter().filter(|c| {
            subset(c.rels, run)
                && c.eq.is_some_and(|[a, b]| a.0.count_ones() == 1 && b.0.count_ones() == 1)
        });
        keys.fold(self.product(run), |n, c| n * c.sel)
    }

    /// Rule 2: the cost of joining `tree` and the open `run`. An index
    /// join on the first `&&` conjunct linking them costs the pairs it
    /// returns plus the run's rows it indexes; a cross product costs
    /// every pair.
    fn close(&self, tree: Set, run: Set) -> f64 {
        if run == 0 {
            return 0.0;
        }
        let linked = |a: Set, b: Set| a != 0 && b != 0 && subset(a, tree) && subset(b, run);
        let link = self
            .conjuncts
            .iter()
            .find(|c| c.link.is_some_and(|[a, b]| linked(a, b) || linked(b, a)));
        let run_rows = self.run_rows(run);
        let pairs = self.rows(tree) * run_rows;
        match link {
            Some(c) => pairs * c.sel + run_rows,
            None => pairs,
        }
    }

    /// The cheapest order, when it is not FROM order.
    fn best_order(&self) -> Option<Vec<usize>> {
        let mut search = Search {
            model: self,
            all: bit(self.base.len()) - 1,
            memo: HashMap::new(),
            order: Vec::with_capacity(self.base.len()),
            best: f64::INFINITY,
            best_order: Vec::new(),
        };
        search.visit(0, 0, 0.0);
        let from_order = search.best_order.iter().enumerate().all(|(k, &ri)| k == ri);
        (!from_order).then_some(search.best_order)
    }
}

/// The depth-first walk over orders (see the module comment).
struct Search<'m> {
    model: &'m CostModel,
    all: Set,
    /// The cheapest cost seen for each (joined relations, open run).
    memo: HashMap<(Set, Set), f64>,
    order: Vec<usize>,
    best: f64,
    best_order: Vec<usize>,
}

impl Search<'_> {
    fn visit(&mut self, tree: Set, run: Set, cost: f64) {
        if cost >= self.best * (1.0 - MARGIN) {
            return;
        }
        match self.memo.get(&(tree, run)) {
            Some(&seen) if seen <= cost => return,
            _ => {
                self.memo.insert((tree, run), cost);
            }
        }
        let m = self.model;
        if tree | run == self.all {
            let total = cost + m.close(tree, run);
            if total < self.best * (1.0 - MARGIN) || self.best.is_infinite() {
                self.best = total;
                self.best_order = self.order.clone();
            }
            return;
        }
        for ri in 0..m.base.len() {
            if (tree | run) & bit(ri) != 0 {
                continue;
            }
            self.order.push(ri);
            if tree == 0 {
                self.visit(bit(ri), 0, cost);
            } else if run != 0 && m.absorbs(tree, run, ri) {
                let run = run | bit(ri);
                self.visit(tree, run, cost + m.run_rows(run));
            } else {
                let cost = cost + m.close(tree, run);
                let tree = tree | run;
                let mut keys = m.keys(tree, ri).peekable();
                if keys.peek().is_some() {
                    let out = keys.fold(m.rows(tree) * m.base[ri], |n, (c, _)| n * c.sel);
                    self.visit(tree | bit(ri), 0, cost + out);
                } else {
                    self.visit(tree, bit(ri), cost);
                }
            }
            self.order.pop();
        }
    }
}
