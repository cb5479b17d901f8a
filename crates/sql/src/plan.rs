//! The SELECT skeleton both executors share: the FROM/WHERE bookkeeping
//! their join planners place conjuncts with, and the row tail (HAVING,
//! projection, DISTINCT, ORDER BY, OFFSET/LIMIT) they finish with.
//!
//! Each engine builds its own physical plan on top of [`JoinConjuncts`] —
//! operator choice, join order and index use stay engine policy — but
//! which conjuncts are local to a relation, which equalities key a join,
//! which conjuncts a join covers, and what is left over are decided here
//! once, so the two engines cannot drift apart on them (DESIGN.md §12).
//! So is the one FROM item both evaluate from its arguments,
//! `generate_series`.

use std::ops::Range;
use std::time::Instant;

use crate::ast::BinaryOp;
use crate::bound::{cmp_order_keys, split_conjuncts, BoundExpr, BoundSelect, SortKey};
use crate::error::{SqlError, SqlResult};
use crate::eval::{eval, OuterStack, SubqueryExec};
use crate::guard::ExecGuard;
use crate::value::{LogicalType, Value};

type Row = Vec<Value>;

/// Does `e` read at least one column, and only columns in `range`?
fn reads_only(e: &BoundExpr, range: &Range<usize>) -> bool {
    let (mut any, mut all) = (false, true);
    e.for_each_column(&mut |i| {
        any = true;
        all &= range.contains(&i);
    });
    any && all
}

/// `column <op> constant` over one relation's columns: a two-argument
/// call with the column first (either way round for the commuting `&&`),
/// or an equality comparison either way round. Returns the column, the
/// operator and the constant, a literal or a template's slot.
pub fn index_pattern(c: &BoundExpr) -> Option<(usize, &str, &BoundExpr)> {
    let constant = |e: &BoundExpr| matches!(e, BoundExpr::Literal(_) | BoundExpr::Param { .. });
    match c {
        BoundExpr::Call { name, args, .. } => match args.as_slice() {
            [BoundExpr::ColumnRef { index, .. }, k] if constant(k) => Some((*index, name, k)),
            [k, BoundExpr::ColumnRef { index, .. }] if name == "&&" && constant(k) => {
                Some((*index, name, k))
            }
            _ => None,
        },
        BoundExpr::Compare { op: BinaryOp::Eq, left, right } => match (&**left, &**right) {
            (BoundExpr::ColumnRef { index, .. }, k) | (k, BoundExpr::ColumnRef { index, .. })
                if constant(k) =>
            {
                Some((*index, "=", k))
            }
            _ => None,
        },
        _ => None,
    }
}

/// [`index_pattern`] with a literal constant, its value.
pub fn index_literal(c: &BoundExpr) -> Option<(usize, &str, &Value)> {
    match index_pattern(c)? {
        (column, op, BoundExpr::Literal(v)) => Some((column, op, v)),
        _ => None,
    }
}

/// The share of pairs an equality between two relations' columns keeps
/// (a join key), as the join-order cost model guesses it.
pub const JOIN_KEY_SELECTIVITY: f64 = 0.005;

/// The share of rows a WHERE conjunct keeps, as the join-order cost model
/// guesses it: a fixed figure per kind of conjunct (DESIGN.md §12) — an
/// equality between columns, any other equality, `&&`, anything else.
pub fn selectivity(c: &BoundExpr) -> f64 {
    match c {
        BoundExpr::Compare { op: BinaryOp::Eq, left, right } => {
            let reads = |e: &BoundExpr| e.any(&mut |x| matches!(x, BoundExpr::ColumnRef { .. }));
            if reads(left) && reads(right) {
                JOIN_KEY_SELECTIVITY
            } else {
                0.1
            }
        }
        BoundExpr::Call { name, .. } if name == "&&" => 0.1,
        _ => 0.25,
    }
}

/// Every expression of one SELECT block, at its own depth: WHERE, GROUP
/// BY, aggregate arguments, HAVING, projections and ORDER BY keys.
pub fn block_exprs(plan: &BoundSelect) -> impl Iterator<Item = &BoundExpr> {
    let order = plan.order_by.iter().filter_map(|o| match &o.key {
        SortKey::Input(e) => Some(e),
        SortKey::Output(_) => None,
    });
    plan.filter
        .iter()
        .chain(&plan.group_by)
        .chain(plan.aggregates.iter().flat_map(|a| &a.args))
        .chain(&plan.having)
        .chain(&plan.projections)
        .chain(order)
}

/// Values of this type that compare equal are the same value and render
/// the same (no `0.0`/`-0.0`, no `1 mon`/`30 days`, no extension types).
pub(crate) fn compares_by_identity(ty: &LogicalType) -> bool {
    matches!(
        ty,
        LogicalType::Bool
            | LogicalType::Int
            | LogicalType::Text
            | LogicalType::Blob
            | LogicalType::Timestamp
            | LogicalType::Date
    )
}

/// The order contract of the join-order pass: may `plan`'s FROM items be
/// joined in any order without changing its result?
///
/// - ORDER BY names every output column, so rows it ties are identical
///   and the sorted result does not depend on the join's row order;
/// - every output column has a type whose compare-equal values render
///   identically;
/// - the join feeds no order-sensitive aggregate: only `count`, and `min`
///   / `max` over such types, grouped by such types;
/// - no expression holds a subquery, whose body may read this block's
///   columns by position.
pub fn order_insensitive(plan: &BoundSelect) -> bool {
    let outputs = plan.output_schema.len();
    let mut sorted = vec![false; outputs];
    for o in &plan.order_by {
        if let SortKey::Output(j) = o.key {
            if let Some(s) = sorted.get_mut(j) {
                *s = true;
            }
        }
    }
    let aggregates_ok = plan.group_by.iter().all(|g| compares_by_identity(&g.ty()))
        && plan.aggregates.iter().all(|a| match a.name.as_str() {
            "count" => true,
            "min" | "max" => a.args.iter().all(|e| compares_by_identity(&e.ty())),
            _ => false,
        });
    outputs > 0
        && sorted.iter().all(|s| *s)
        && plan.output_schema.fields.iter().all(|f| compares_by_identity(&f.ty))
        && (!plan.aggregated || aggregates_ok)
        && !block_exprs(plan).any(BoundExpr::has_subquery)
}

/// Rewrite `plan` to join its FROM items in `order` (`order[k]` is the
/// item that moves to position `k`): permute `from` and the input schema,
/// and renumber every expression that reads input columns. The output is
/// unchanged. Only for blocks whose expressions hold no subquery
/// ([`order_insensitive`] checks that).
pub fn permute_from(plan: &mut BoundSelect, order: &[usize]) {
    let widths: Vec<usize> = plan.from.iter().map(|f| f.schema().len()).collect();
    let starts = |seq: &mut dyn Iterator<Item = usize>| {
        let mut at = 0;
        let mut out = vec![0; widths.len()];
        for ri in seq {
            out[ri] = at;
            at += widths[ri];
        }
        out
    };
    let old_start = starts(&mut (0..widths.len()));
    let new_start = starts(&mut order.iter().copied());
    let mut owner = Vec::new();
    for (ri, w) in widths.iter().enumerate() {
        owner.extend(std::iter::repeat_n(ri, *w));
    }
    let map = |i: usize| {
        let ri = owner[i];
        new_start[ri] + (i - old_start[ri])
    };
    let mut from: Vec<_> = std::mem::take(&mut plan.from).into_iter().enumerate().collect();
    let mut rank = vec![0; order.len()];
    for (k, &ri) in order.iter().enumerate() {
        rank[ri] = k;
    }
    from.sort_by_key(|(ri, _)| rank[*ri]);
    plan.from = from.into_iter().map(|(_, f)| f).collect();
    let mut fields: Vec<_> =
        std::mem::take(&mut plan.input_schema.fields).into_iter().enumerate().collect();
    fields.sort_by_key(|(i, _)| map(*i));
    plan.input_schema.fields = fields.into_iter().map(|(_, f)| f).collect();
    if let Some(f) = &plan.filter {
        plan.filter = Some(f.map_columns(&map));
    }
    for g in &mut plan.group_by {
        *g = g.map_columns(&map);
    }
    for a in &mut plan.aggregates {
        for arg in &mut a.args {
            *arg = arg.map_columns(&map);
        }
    }
    if !plan.aggregated {
        // The projections and ORDER BY read the input row itself.
        plan.env_schema = plan.input_schema.clone();
        for p in &mut plan.projections {
            *p = p.map_columns(&map);
        }
        for o in &mut plan.order_by {
            if let SortKey::Input(e) = &o.key {
                o.key = SortKey::Input(e.map_columns(&map));
            }
        }
    }
}

/// The values of `generate_series(start[, stop[, step]])`, its arguments
/// evaluated once. The series ends at `stop`, or short of overflow when
/// `stop` is an `i64` bound.
pub fn series(
    args: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<impl Iterator<Item = i64>> {
    let int = |i: usize| args.get(i).map(|a| eval(a, &[], outer, exec)?.as_int()).transpose();
    let start = int(0)?.ok_or_else(|| SqlError::execution("generate_series requires arguments"))?;
    let stop = int(1)?.unwrap_or(start);
    let step = int(2)?.unwrap_or(1);
    if step == 0 {
        return Err(SqlError::execution("generate_series step must be nonzero"));
    }
    let more = move |v: &i64| if step > 0 { *v <= stop } else { *v >= stop };
    Ok(std::iter::successors(Some(start), move |v| v.checked_add(step)).take_while(more))
}

/// A two-argument call conjunct with one argument over the join tree and
/// the other over the relation joining it.
pub struct Link<'c> {
    pub conjunct: usize,
    /// The call itself.
    pub call: &'c BoundExpr,
    /// The argument over the tree's columns.
    pub probe: &'c BoundExpr,
    /// The argument over the relation's columns (input numbering).
    pub build: &'c BoundExpr,
    /// `build` is the call's first argument.
    pub build_first: bool,
}

/// A SELECT's WHERE conjuncts over its concatenated FROM columns, and
/// which of them a join plan has placed so far.
///
/// Only *simple* conjuncts (no subqueries, no outer references) are ever
/// placed below the top of the plan; the others stay in
/// [`JoinConjuncts::into_remaining`].
pub struct JoinConjuncts {
    /// Input columns of each FROM item.
    spans: Vec<Range<usize>>,
    conjuncts: Vec<BoundExpr>,
    used: Vec<bool>,
}

impl JoinConjuncts {
    pub fn new(plan: &BoundSelect) -> Self {
        let mut spans = Vec::with_capacity(plan.from.len());
        let mut end = 0;
        for f in &plan.from {
            spans.push(end..end + f.schema().len());
            end += f.schema().len();
        }
        let mut conjuncts = Vec::new();
        if let Some(f) = &plan.filter {
            split_conjuncts(f, &mut conjuncts);
        }
        let used = vec![false; conjuncts.len()];
        JoinConjuncts { spans, conjuncts, used }
    }

    /// The input columns of FROM item `ri`.
    pub fn span(&self, ri: usize) -> Range<usize> {
        self.spans[ri].clone()
    }

    /// The WHERE conjuncts in written order, placed or not: the numbering
    /// of [`Link::conjunct`] and [`take_covered_indexed`](Self::take_covered_indexed).
    pub fn conjuncts(&self) -> &[BoundExpr] {
        &self.conjuncts
    }

    /// The unplaced simple conjuncts, in written order.
    fn unused(&self) -> impl Iterator<Item = (usize, &BoundExpr)> {
        self.conjuncts
            .iter()
            .enumerate()
            .filter(|(ci, c)| !self.used[*ci] && !c.is_complex())
    }

    /// Place conjunct `ci`.
    pub fn take(&mut self, ci: usize) {
        self.used[ci] = true;
    }

    /// Place FROM item `ri`'s own conjuncts (reading its columns only), in
    /// written order, renumbered to the item's column space.
    pub fn take_local(&mut self, ri: usize) -> Vec<BoundExpr> {
        let span = self.span(ri);
        let mut local = Vec::new();
        for ci in 0..self.conjuncts.len() {
            let c = &self.conjuncts[ci];
            if !self.used[ci] && !c.is_complex() && reads_only(c, &span) {
                self.used[ci] = true;
                local.push(c.map_columns(&|i| i - span.start));
            }
        }
        local
    }

    /// Place the hash-join keys between the columns `left` and the
    /// relation at `right`: the unplaced simple equalities with one side
    /// over each, in written order. The left sides are renumbered so column
    /// `left_lo` is 0, the relation sides so `right.start` is. Empty when
    /// there are none.
    pub fn take_keys(
        &mut self,
        left: Range<usize>,
        right: Range<usize>,
        left_lo: usize,
    ) -> (Vec<BoundExpr>, Vec<BoundExpr>) {
        let mut sides = (Vec::new(), Vec::new());
        for (ci, c) in self.conjuncts.iter().enumerate() {
            let BoundExpr::Compare { op: BinaryOp::Eq, left: a, right: b } = c else { continue };
            if self.used[ci] || c.is_complex() {
                continue;
            }
            let (l, r) = if reads_only(a, &left) && reads_only(b, &right) {
                (a, b)
            } else if reads_only(b, &left) && reads_only(a, &right) {
                (b, a)
            } else {
                continue;
            };
            sides.0.push(l.map_columns(&|i| i - left_lo));
            sides.1.push(r.map_columns(&|i| i - right.start));
            self.used[ci] = true;
        }
        sides
    }

    /// The unplaced two-argument calls linking an expression over the
    /// tree (columns `tree`) with one over the relation at `right`, in
    /// written order.
    pub fn links(&self, tree: Range<usize>, right: Range<usize>) -> impl Iterator<Item = Link<'_>> {
        self.unused().filter_map(move |(conjunct, c)| {
            let BoundExpr::Call { args, .. } = c else { return None };
            let [a, b] = args.as_slice() else { return None };
            let (probe, build, build_first) = if reads_only(a, &tree) && reads_only(b, &right) {
                (a, b, false)
            } else if reads_only(b, &tree) && reads_only(a, &right) {
                (b, a, true)
            } else {
                return None;
            };
            Some(Link { conjunct, call: c, probe, build, build_first })
        })
    }

    /// Place the conjuncts the first `width` input columns cover, in
    /// written order.
    pub fn take_covered(&mut self, width: usize) -> Vec<BoundExpr> {
        self.take_covered_indexed(width).into_iter().map(|(_, c)| c).collect()
    }

    /// [`take_covered`](Self::take_covered), each conjunct with its
    /// written position (the `conjunct` of a [`Link`]).
    pub fn take_covered_indexed(&mut self, width: usize) -> Vec<(usize, BoundExpr)> {
        let mut covered = Vec::new();
        for ci in 0..self.conjuncts.len() {
            let c = &self.conjuncts[ci];
            if self.used[ci] || c.is_complex() {
                continue;
            }
            let mut within = true;
            c.for_each_column(&mut |i| within &= i < width);
            if within {
                self.used[ci] = true;
                covered.push((ci, c.clone()));
            }
        }
        covered
    }

    /// The conjuncts no join placed (subquery-bearing ones among them), in
    /// written order, to run above the whole join tree.
    pub fn into_remaining(self) -> Vec<BoundExpr> {
        self.conjuncts.into_iter().zip(self.used).filter(|(_, u)| !u).map(|(c, _)| c).collect()
    }
}

/// A SELECT's output rows on their way out, with the environment row
/// each came from while ORDER BY still needs it (`SortKey::Input`).
pub struct RowTail {
    rows: Vec<Row>,
    /// One per row when `keep_env`, else empty.
    env: Vec<Row>,
    keep_env: bool,
}

impl RowTail {
    pub fn new(plan: &BoundSelect) -> Self {
        let keep_env = plan.order_by.iter().any(|o| matches!(o.key, SortKey::Input(_)));
        RowTail { rows: Vec::new(), env: Vec::new(), keep_env }
    }

    /// The output rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add an output row; `env` makes the environment row it came from,
    /// and is called only when ORDER BY needs that row.
    pub fn push(&mut self, row: Row, env: impl FnOnce() -> Row) {
        self.rows.push(row);
        if self.keep_env {
            self.env.push(env());
        }
    }

    /// Add `other`'s rows after these (`other` made for the same plan).
    pub fn append(&mut self, mut other: RowTail) {
        self.rows.append(&mut other.rows);
        self.env.append(&mut other.env);
    }

    /// HAVING, then the projections, over environment rows. Only
    /// aggregated plans carry a HAVING: the binder rejects it elsewhere.
    pub fn project(
        &mut self,
        plan: &BoundSelect,
        env_rows: Vec<Row>,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<()> {
        self.rows.reserve(env_rows.len());
        for row in env_rows {
            if let Some(h) = &plan.having {
                if !matches!(eval(h, &row, outer, exec)?, Value::Bool(true)) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(plan.projections.len());
            for p in &plan.projections {
                out.push(eval(p, &row, outer, exec)?);
            }
            self.push(out, || row);
        }
        Ok(())
    }

    /// DISTINCT, ORDER BY and OFFSET/LIMIT, each only when the plan asks
    /// for it. `stage(name, start, rows out, bytes charged)` is told about
    /// each step that ran. ORDER BY charges its sort keys to `guard`.
    pub fn finish(
        mut self,
        plan: &BoundSelect,
        guard: &ExecGuard,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
        mut stage: impl FnMut(&'static str, Instant, usize, u64),
    ) -> SqlResult<Vec<Row>> {
        if plan.distinct {
            let t = Instant::now();
            self.distinct();
            stage("distinct", t, self.rows.len(), 0);
        }
        if !plan.order_by.is_empty() {
            let t = Instant::now();
            let bytes = self.order_by(plan, guard, outer, exec)?;
            stage("order_by", t, self.rows.len(), bytes);
        }
        if plan.offset.is_some() || plan.limit.is_some() {
            let t = Instant::now();
            if let Some(off) = plan.offset {
                let off = (off as usize).min(self.rows.len());
                self.rows = self.rows.split_off(off);
            }
            if let Some(lim) = plan.limit {
                self.rows.truncate(lim as usize);
            }
            stage("limit", t, self.rows.len(), 0);
        }
        Ok(self.rows)
    }

    /// Keep the first occurrence of each output row.
    fn distinct(&mut self) {
        let mut seen = std::collections::HashSet::new();
        let mut kept = Vec::with_capacity(self.rows.len());
        let mut kept_env = Vec::new();
        let mut env = std::mem::take(&mut self.env).into_iter();
        for row in std::mem::take(&mut self.rows) {
            let row_env = env.next();
            let mut key = Vec::new();
            for v in &row {
                v.hash_key(&mut key);
            }
            if seen.insert(key) {
                kept_env.extend(row_env);
                kept.push(row);
            }
        }
        self.rows = kept;
        self.env = kept_env;
    }

    /// Stable sort by the ORDER BY keys. Rows are moved into the keyed
    /// vector and back out, never cloned; the key vectors are the step's
    /// own allocation, charged to `guard`. Returns the bytes charged.
    fn order_by(
        &mut self,
        plan: &BoundSelect,
        guard: &ExecGuard,
        outer: &OuterStack<'_>,
        exec: &dyn SubqueryExec,
    ) -> SqlResult<u64> {
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(self.rows.len());
        let mut key_bytes = 0u64;
        for (i, row) in std::mem::take(&mut self.rows).into_iter().enumerate() {
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for o in &plan.order_by {
                let v = match &o.key {
                    SortKey::Output(j) => row[*j].clone(),
                    SortKey::Input(e) => eval(e, &self.env[i], outer, exec)?,
                };
                key_bytes += 32 + v.approx_bytes();
                keys.push(v);
            }
            keyed.push((keys, row));
        }
        if key_bytes > 0 {
            guard.charge_mem(key_bytes)?;
        }
        let mut cmp_err = None;
        keyed.sort_by(|(a, _), (b, _)| cmp_order_keys(a, b, &plan.order_by, &mut cmp_err));
        if let Some(e) = cmp_err {
            return Err(e);
        }
        self.rows = keyed.into_iter().map(|(_, row)| row).collect();
        Ok(key_bytes)
    }
}
