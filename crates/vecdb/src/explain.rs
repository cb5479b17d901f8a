//! EXPLAIN rendering in DuckDB's boxed-tree style (the paper's Figure 1).
//!
//! `EXPLAIN ANALYZE` renders the same tree annotated with actuals from an
//! execution [`Profile`]: per-operator exclusive wall time, input/output
//! cardinalities, and chunk counts for the vectorized pipeline. Each CTE
//! body follows the main plan under its own `──── CTE <name> ────` header.

use std::collections::BTreeMap;

use mduck_sql::{BoundSelect, SortKey};

use crate::exec::{op_key, op_name, plan_key, PhysOp, PlannedSelect, Profile, ScanFilters};

const BOX_WIDTH: usize = 29;

/// Actuals attached to an `EXPLAIN ANALYZE` rendering.
pub struct AnalyzeData<'a> {
    pub profile: &'a Profile,
    /// End-to-end execution wall time.
    pub total_ms: f64,
    /// Rows in the final result.
    pub result_rows: usize,
}

/// Render the full plan (post-join stages plus the join/scan tree; a
/// FROM-less SELECT renders a `DUMMY_SCAN` leaf), then each CTE body.
pub fn render_plan(plan: &BoundSelect, planned: &PlannedSelect) -> String {
    let mut out = String::new();
    render_select(&mut out, plan, planned, None);
    out
}

/// Render the plan annotated with actuals (`EXPLAIN ANALYZE`).
pub fn render_plan_analyzed(
    plan: &BoundSelect,
    planned: &PlannedSelect,
    analyze: &AnalyzeData<'_>,
) -> String {
    let mut out = format!(
        "Total Time: {:.3} ms\nRows Returned: {}\n",
        analyze.total_ms, analyze.result_rows
    );
    render_select(&mut out, plan, planned, Some(analyze));
    out
}

fn render_select(
    out: &mut String,
    plan: &BoundSelect,
    planned: &PlannedSelect,
    analyze: Option<&AnalyzeData<'_>>,
) {
    let remaining = planned.tree.as_ref().map_or(&[][..], |(_, remaining)| remaining.as_slice());
    // (title, detail, stage-profile name)
    let mut nodes: Vec<(String, Vec<String>, Option<&'static str>)> = Vec::new();
    if plan.limit.is_some() || plan.offset.is_some() {
        let mut d = Vec::new();
        if let Some(l) = plan.limit {
            d.push(format!("LIMIT {l}"));
        }
        if let Some(o) = plan.offset {
            d.push(format!("OFFSET {o}"));
        }
        nodes.push(("LIMIT".into(), d, Some("limit")));
    }
    if !plan.order_by.is_empty() {
        let keys: Vec<String> = plan
            .order_by
            .iter()
            .map(|o| {
                let k = match &o.key {
                    SortKey::Output(i) => format!("#{i}"),
                    SortKey::Input(e) => format!("{e:?}"),
                };
                format!("{k} {}", if o.asc { "ASC" } else { "DESC" })
            })
            .collect();
        nodes.push(("ORDER_BY".into(), keys, Some("order_by")));
    }
    if plan.distinct {
        nodes.push(("DISTINCT".into(), vec![], Some("distinct")));
    }
    nodes.push((
        "PROJECTION".into(),
        plan.projections.iter().map(|p| format!("{p:?}")).collect(),
        Some("projection"),
    ));
    if plan.aggregated {
        let mut detail: Vec<String> =
            plan.group_by.iter().map(|g| format!("group: {g:?}")).collect();
        detail.extend(plan.aggregates.iter().map(|a| format!("{a:?}")));
        nodes.push(("HASH_GROUP_BY".into(), detail, Some("aggregate")));
    }
    for (i, pred) in remaining.iter().enumerate() {
        // The "filter" stage times all remaining predicates together;
        // attach it to the first box only.
        let stage = (i == 0).then_some("filter");
        nodes.push(("FILTER".into(), vec![format!("{pred:?}")], stage));
    }

    for (name, mut detail, stage) in nodes {
        if let (Some(a), Some(stage)) = (analyze, stage) {
            detail.extend(stage_lines(a, plan_key(plan), stage));
        }
        push_box(out, &name, &detail, true);
    }
    match &planned.tree {
        Some((tree, _)) => render_op(out, tree, analyze),
        None => push_box(out, "DUMMY_SCAN", &[], false),
    }
    for (cte, cte_planned) in plan.ctes.iter().zip(&planned.ctes) {
        push_divider(out, &format!("CTE {}", cte.name));
        render_select(out, &cte.plan, cte_planned, analyze);
    }
}

/// A centred `──── label ────` line between rendered sections.
fn push_divider(out: &mut String, label: &str) {
    out.push_str(&format!("{:^width$}\n", format!("──── {label} ────"), width = BOX_WIDTH + 2));
}

fn stage_lines(a: &AnalyzeData<'_>, key: usize, stage: &'static str) -> Vec<String> {
    let mut lines = match a.profile.stages.borrow().get(&(key, stage)) {
        Some(s) => {
            let mut l = vec![
                format!("actual: {:.3} ms", s.elapsed_ns as f64 / 1e6),
                format!("rows: {}", s.rows_out),
            ];
            if s.mem_bytes > 0 {
                l.push(format!("mem: {}", mduck_obs::format_bytes(s.mem_bytes)));
            }
            l
        }
        None => Vec::new(),
    };
    lines.extend(par_lines(a.profile, key, stage));
    lines
}

/// Worker-pool actual lines for one parallel stage — emitted only when the
/// stage actually fanned out, so serial plans render unchanged.
fn par_lines(profile: &Profile, key: usize, stage: &'static str) -> Vec<String> {
    match profile.parallel.borrow().get(&(key, stage)) {
        Some(p) => vec![
            format!("parallel: {} workers", p.workers),
            format!("morsels: {} {:?}", p.morsels, p.per_worker),
            format!(
                "busy: {:.3} ms (max {:.3})",
                p.busy_ns as f64 / 1e6,
                p.max_worker_ns as f64 / 1e6
            ),
        ],
        None => Vec::new(),
    }
}

fn op_children(op: &PhysOp) -> Vec<&PhysOp> {
    match op {
        PhysOp::Filter { child, .. } => vec![child],
        PhysOp::HashJoin { left, right, .. }
        | PhysOp::CrossJoin { left, right, .. }
        | PhysOp::IndexJoin { left, right, .. } => vec![left, right],
        _ => Vec::new(),
    }
}

/// Actual-value detail lines for one operator box: exclusive wall time
/// (children's inclusive time subtracted), input/output rows, chunks.
fn op_lines(a: &AnalyzeData<'_>, op: &PhysOp) -> Vec<String> {
    let ops = a.profile.ops.borrow();
    let Some(p) = ops.get(&op_key(op)) else {
        return vec!["actual: not executed".into()];
    };
    let children = op_children(op);
    let child_ns: u64 = children
        .iter()
        .filter_map(|c| ops.get(&op_key(c)))
        .map(|c| c.elapsed_ns)
        .sum();
    let rows_in: u64 = if children.is_empty() {
        p.rows_scanned
    } else {
        children
            .iter()
            .filter_map(|c| ops.get(&op_key(c)))
            .map(|c| c.rows_out)
            .sum()
    };
    let est = match op.est() {
        Some(n) if n < 10.0 => format!(" (est: {n:.1})"),
        Some(n) => format!(" (est: {n:.0})"),
        None => String::new(),
    };
    let mut lines = vec![
        format!("actual: {:.3} ms", p.elapsed_ns.saturating_sub(child_ns) as f64 / 1e6),
        format!("rows: {} → {}{est}", rows_in, p.rows_out),
        format!("chunks: {}", p.chunks_out),
    ];
    if p.mem_bytes > 0 {
        lines.push(format!("mem: {}", mduck_obs::format_bytes(p.mem_bytes)));
    }
    if p.execs > 1 {
        lines.push(format!("execs: {}", p.execs));
    }
    if let PhysOp::IndexJoin { .. } = op {
        lines.push(format!("build rows: {}", p.build_rows));
        lines.push(format!("probes: {}", p.probes));
        lines.push(format!("candidates: {}", p.candidates));
    }
    // Operator-level parallel stages: scans (fused conjuncts included)
    // run window by window in parallel; filters above joins chunk by
    // chunk, and joins left chunk by left chunk; a transient index's
    // build values and a split stage's chunks go range by range.
    for stage in ["scan", "filter", "build", "pairs"] {
        lines.extend(par_lines(a.profile, op_key(op), stage));
    }
    lines
}

/// A scan box's detail lines followed by its fused conjuncts, one per
/// line in evaluation order (DuckDB lists a scan's filters the same way).
fn with_filters(mut detail: Vec<String>, filters: &ScanFilters) -> Vec<String> {
    if !filters.is_empty() {
        detail.push("Filters:".into());
        detail.extend(filters.conjuncts.iter().map(|c| format!("{c:?}")));
    }
    detail
}

/// A scan box's line listing the columns of its source it copies.
fn copies(columns: &[usize]) -> String {
    format!("columns: {columns:?}")
}

fn render_op(out: &mut String, op: &PhysOp, analyze: Option<&AnalyzeData<'_>>) {
    let introspect_title;
    let (title, mut detail, has_child): (&str, Vec<String>, bool) = match op {
        PhysOp::SeqScan { table, filters, columns } => {
            ("SEQ_SCAN", with_filters(vec![table.clone(), copies(columns)], filters), false)
        }
        PhysOp::IndexScan { table, index, op, filters, columns, .. } => (
            "TRTREE_INDEX_SCAN",
            with_filters(
                vec![
                    table.clone(),
                    format!("index: {index}"),
                    format!("op: {op}"),
                    copies(columns),
                ],
                filters,
            ),
            false,
        ),
        PhysOp::CteScan { name, columns, .. } => {
            ("CTE_SCAN", vec![name.clone(), copies(columns)], false)
        }
        PhysOp::SubqueryScan { .. } => ("SUBQUERY_SCAN", vec![], false),
        PhysOp::Series { .. } => ("GENERATE_SERIES", vec![], false),
        PhysOp::Introspect { function, .. } => {
            introspect_title = op_name(op).to_ascii_uppercase();
            (&introspect_title, vec![format!("{}()", function.name())], false)
        }
        PhysOp::Filter { pred, .. } => ("FILTER", vec![format!("{pred:?}")], true),
        PhysOp::HashJoin { left_keys, right_keys, .. } => (
            "HASH_JOIN",
            left_keys
                .iter()
                .zip(right_keys)
                .map(|(l, r)| format!("{l:?} = {r:?}"))
                .collect(),
            true,
        ),
        PhysOp::CrossJoin { .. } => ("CROSS_PRODUCT", vec![], true),
        PhysOp::IndexJoin { method, probe, build, cond, folded, .. } => {
            let mut detail = vec![
                format!("index: {method}"),
                format!("probe: {probe:?}"),
                format!("build: {build:?}"),
            ];
            match folded {
                Some(fold) => {
                    let conds = [cond].into_iter().chain(&fold.after);
                    detail.extend(conds.map(|c| format!("cond: {c:?}")));
                }
                None => detail.push(format!("link: {cond:?} (re-checked above)")),
            }
            ("INDEX_JOIN", detail, true)
        }
    };
    if let Some(a) = analyze {
        detail.extend(op_lines(a, op));
    }
    push_box(out, title, &detail, has_child);
    match op {
        PhysOp::Filter { child, .. } => render_op(out, child, analyze),
        PhysOp::HashJoin { left, right, .. } | PhysOp::IndexJoin { left, right, .. } => {
            // Render children sequentially (left above right) with a
            // divider — a readable simplification of DuckDB's 2-D layout.
            render_op(out, left, analyze);
            push_divider(out, "build side");
            render_op(out, right, analyze);
        }
        PhysOp::CrossJoin { left, right, .. } => {
            render_op(out, left, analyze);
            push_divider(out, "right side");
            render_op(out, right, analyze);
        }
        _ => {}
    }
}

/// One flattened per-operator row of an analyzed plan (bench exports).
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    pub op: &'static str,
    pub detail: String,
    pub execs: u64,
    /// Exclusive wall time (children subtracted).
    pub elapsed_ms: f64,
    pub rows_out: u64,
    pub chunks_out: u64,
    pub rows_scanned: u64,
    /// Bytes of output/state this operator materialized (charged against
    /// the statement's memory scope).
    pub mem_bytes: u64,
}

/// One post-join stage's actuals, summed over the blocks of a plan (bench
/// exports, stage-timing assertions in tests).
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    pub stage: &'static str,
    pub execs: u64,
    pub elapsed_ms: f64,
    pub rows_out: u64,
    /// Bytes of state this stage materialized (sort keys, group states).
    pub mem_bytes: u64,
}

/// The stage actuals of every block of a plan — the main block, its CTE
/// bodies and its FROM subqueries, at every depth — summed per stage and
/// sorted by stage name.
pub fn stage_breakdown(
    plan: &BoundSelect,
    planned: &PlannedSelect,
    profile: &Profile,
) -> Vec<StageBreakdown> {
    let mut keys = Vec::new();
    block_keys(plan, planned, &mut keys);
    let stages = profile.stages.borrow();
    let mut out: BTreeMap<&'static str, StageBreakdown> = BTreeMap::new();
    for ((_, stage), s) in stages.iter().filter(|((key, _), _)| keys.contains(key)) {
        let b = out.entry(stage).or_insert(StageBreakdown {
            stage,
            execs: 0,
            elapsed_ms: 0.0,
            rows_out: 0,
            mem_bytes: 0,
        });
        b.execs += s.execs;
        b.elapsed_ms += s.elapsed_ns as f64 / 1e6;
        b.rows_out += s.rows_out;
        b.mem_bytes += s.mem_bytes;
    }
    out.into_values().collect()
}

/// The stage-profile keys of `plan` and of the blocks planned with it.
fn block_keys(plan: &BoundSelect, planned: &PlannedSelect, out: &mut Vec<usize>) {
    out.push(plan_key(plan));
    for (cte, cte_planned) in plan.ctes.iter().zip(&planned.ctes) {
        block_keys(&cte.plan, cte_planned, out);
    }
    let mut stack: Vec<&PhysOp> = planned.tree.iter().map(|(tree, _)| tree).collect();
    while let Some(op) = stack.pop() {
        if let PhysOp::SubqueryScan { plan, planned, .. } = op {
            block_keys(plan, planned, out);
        }
        stack.extend(op_children(op));
    }
}

/// Flatten an analyzed plan into per-operator actuals: the main tree
/// preorder, then each CTE body's the same way.
pub fn op_breakdown(planned: &PlannedSelect, profile: &Profile) -> Vec<OpBreakdown> {
    let mut out = Vec::new();
    push_breakdown(&mut out, planned, profile);
    out
}

fn push_breakdown(out: &mut Vec<OpBreakdown>, planned: &PlannedSelect, profile: &Profile) {
    let ops = profile.ops.borrow();
    let mut stack: Vec<&PhysOp> = planned.tree.iter().map(|(tree, _)| tree).collect();
    while let Some(op) = stack.pop() {
        let detail = match op {
            PhysOp::SeqScan { table, .. } => table.clone(),
            PhysOp::IndexScan { table, index, .. } => format!("{table}.{index}"),
            PhysOp::CteScan { name, .. } => name.clone(),
            PhysOp::IndexJoin { method, .. } => method.clone(),
            _ => String::new(),
        };
        let p = ops.get(&op_key(op)).cloned().unwrap_or_default();
        let child_ns: u64 = op_children(op)
            .iter()
            .filter_map(|c| ops.get(&op_key(c)))
            .map(|c| c.elapsed_ns)
            .sum();
        out.push(OpBreakdown {
            op: op_name(op),
            detail,
            execs: p.execs,
            elapsed_ms: p.elapsed_ns.saturating_sub(child_ns) as f64 / 1e6,
            rows_out: p.rows_out,
            chunks_out: p.chunks_out,
            rows_scanned: p.rows_scanned,
            mem_bytes: p.mem_bytes,
        });
        // Preorder: children pushed right-to-left.
        for c in op_children(op).into_iter().rev() {
            stack.push(c);
        }
    }
    for cte in &planned.ctes {
        push_breakdown(out, cte, profile);
    }
}

fn push_box(out: &mut String, title: &str, detail: &[String], has_child: bool) {
    let top = format!("┌{}┐", "─".repeat(BOX_WIDTH));
    let bot = if has_child {
        format!("└{}┬{}┘", "─".repeat(BOX_WIDTH / 2), "─".repeat(BOX_WIDTH - BOX_WIDTH / 2 - 1))
    } else {
        format!("└{}┘", "─".repeat(BOX_WIDTH))
    };
    out.push_str(&top);
    out.push('\n');
    out.push_str(&format!("│{:^width$}│\n", truncate(title), width = BOX_WIDTH));
    if !detail.is_empty() {
        out.push_str(&format!("│{}│\n", "─".repeat(BOX_WIDTH)));
        for d in detail {
            out.push_str(&format!("│{:^width$}│\n", truncate(d), width = BOX_WIDTH));
        }
    }
    out.push_str(&bot);
    out.push('\n');
}

fn truncate(s: &str) -> String {
    let max = BOX_WIDTH - 2;
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let mut t: String = s.chars().take(max - 1).collect();
        t.push('…');
        t
    }
}
