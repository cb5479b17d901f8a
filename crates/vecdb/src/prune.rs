//! The pruning pass: after [`crate::join_order`] has planned a block's
//! join tree, every node of it hands on only the columns something above
//! it reads (DESIGN.md §11), as DuckDB's `RemoveUnusedColumns` does.
//!
//! The pass walks the tree top-down with the columns the node's parent
//! reads. A scan copies only those table columns (its fused conjuncts
//! read their own); a Filter or a join hands on only those, and its
//! children hand on those plus what it reads itself: the predicate, the
//! hash keys, the probe and build of an index join and the conjuncts it
//! runs on its pairs. Each expression of the tree is renumbered onto the
//! pruned output of the child it reads, and the block's own expressions
//! that read the tree's rows onto the pruned output of the tree: the
//! conjuncts left above it, the group keys and aggregate arguments, and,
//! in a block without aggregation, the projections and ORDER BY input
//! keys. HAVING, and the projections and ORDER BY keys of an aggregated
//! block, read group rows and keep their numbering.
//!
//! A block with a subquery or an outer reference in any expression is
//! left as it is ([`prunable`]): such an expression is evaluated row by
//! row over the whole row, and a correlated subquery reads the row's
//! columns by their position in it.

use mduck_sql::plan::block_exprs;
use mduck_sql::{BoundExpr, BoundSelect, SortKey};

use crate::exec::PhysOp;

/// May the pass prune `plan`'s join tree? Not when an expression of the
/// block holds a subquery or an outer reference.
pub fn prunable(plan: &BoundSelect) -> bool {
    !block_exprs(plan).any(BoundExpr::is_complex)
}

/// Prune the join tree `tree` of block `plan` (`remaining`: the conjuncts
/// left above it) to the columns the block reads from it, and renumber
/// the block's expressions that read them. Does nothing to a block the
/// pass may not prune.
pub fn prune_block(plan: &mut BoundSelect, tree: &mut PhysOp, remaining: &mut [BoundExpr]) {
    if !prunable(plan) {
        return;
    }
    let mut above: Vec<&mut BoundExpr> = remaining.iter_mut().collect();
    above.extend(&mut plan.group_by);
    above.extend(plan.aggregates.iter_mut().flat_map(|a| &mut a.args));
    if !plan.aggregated {
        above.extend(&mut plan.projections);
        above.extend(plan.order_by.iter_mut().filter_map(|o| match &mut o.key {
            SortKey::Input(e) => Some(e),
            SortKey::Output(_) => None,
        }));
    }
    let reads = read_by(Vec::new(), above.iter().map(|e| &**e));
    prune(tree, &reads);
    above.into_iter().for_each(|e| renumber(e, &reads));
}

/// Make `op` hand on only its output columns `needed` (ascending, in its
/// output's numbering before the pass), in that order.
fn prune(op: &mut PhysOp, needed: &[usize]) {
    match op {
        PhysOp::SeqScan { columns, .. }
        | PhysOp::IndexScan { columns, .. }
        | PhysOp::CteScan { columns, .. }
        | PhysOp::SubqueryScan { columns, .. }
        | PhysOp::Series { columns, .. }
        | PhysOp::Introspect { columns, .. } => {
            // In place: `needed` ascends, so `needed[k] >= k`.
            needed.iter().enumerate().for_each(|(k, &i)| columns[k] = columns[i]);
            columns.truncate(needed.len());
        }
        PhysOp::Filter { pred, child, columns, .. } => {
            let below = read_by(needed.to_vec(), [&*pred]);
            prune(child, &below);
            renumber(pred, &below);
            columns.clear();
            columns.extend(needed.iter().map(|&i| position(&below, i)));
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, columns, .. } => {
            let sides = (left_keys.iter_mut().collect(), right_keys.iter_mut().collect());
            prune_join(left, right, columns, needed, sides, Vec::new());
        }
        PhysOp::CrossJoin { left, right, columns, .. } => {
            prune_join(left, right, columns, needed, (Vec::new(), Vec::new()), Vec::new());
        }
        PhysOp::IndexJoin { left, right, probe, build, cond, folded, columns, .. } => {
            let folded = folded.iter_mut().flat_map(|f| f.before.iter_mut().chain(&mut f.after));
            let pairs = std::iter::once(cond).chain(folded).collect();
            prune_join(left, right, columns, needed, (vec![probe], vec![build]), pairs);
        }
    }
}

/// [`prune`] for a join of `left` and `right` that hands on `columns`:
/// its children keep the `needed` columns on their side, plus those its
/// one-side expressions (`sides`: over the left child, over the right
/// child) and its `pairs` expressions (over the left child's columns
/// followed by the right child's) read; every expression is renumbered
/// onto the pruned children.
fn prune_join(
    left: &mut PhysOp,
    right: &mut PhysOp,
    columns: &mut Vec<usize>,
    needed: &[usize],
    (lexprs, rexprs): (Vec<&mut BoundExpr>, Vec<&mut BoundExpr>),
    pairs: Vec<&mut BoundExpr>,
) {
    let lw = left.columns().len();
    let (mut l, mut r): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for &i in needed {
        match i.checked_sub(lw) {
            None => l.push(i),
            Some(i) => r.push(i),
        }
    }
    for e in &pairs {
        e.for_each_column(&mut |i| match i.checked_sub(lw) {
            None => l.push(i),
            Some(i) => r.push(i),
        });
    }
    let l = read_by(l, lexprs.iter().map(|e| &**e));
    let r = read_by(r, rexprs.iter().map(|e| &**e));
    prune(left, &l);
    prune(right, &r);
    lexprs.into_iter().for_each(|e| renumber(e, &l));
    rexprs.into_iter().for_each(|e| renumber(e, &r));
    let onto = |i: usize| match i.checked_sub(lw) {
        None => position(&l, i),
        Some(i) => l.len() + position(&r, i),
    };
    pairs.into_iter().for_each(|e| e.remap_columns(&onto));
    columns.clear();
    columns.extend(needed.iter().map(|&i| onto(i)));
}

/// `columns` and the columns `exprs` read, ascending, each once.
fn read_by<'e>(
    mut columns: Vec<usize>,
    exprs: impl IntoIterator<Item = &'e BoundExpr>,
) -> Vec<usize> {
    exprs.into_iter().for_each(|e| e.collect_columns(&mut columns));
    columns.sort_unstable();
    columns.dedup();
    columns
}

/// The position of column `i` in `within` (ascending, holding it).
fn position(within: &[usize], i: usize) -> usize {
    within.partition_point(|&x| x < i)
}

/// Renumber `e` onto a chunk of the columns `onto` (ascending, holding
/// every column `e` reads).
fn renumber(e: &mut BoundExpr, onto: &[usize]) {
    e.remap_columns(&|i| position(onto, i));
}
