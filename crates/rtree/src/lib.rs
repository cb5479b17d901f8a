//! # mduck-rtree — a 3-D (x, y, t) R-tree
//!
//! The index structure beneath the paper's TRTREE index (§4): a classic
//! Guttman R-tree with quadratic split for incremental insertion
//! (the *index-first* path, §4.2.1) and Sort-Tile-Recursive bulk loading
//! (the *data-first* `CREATE INDEX` path, §4.2.2). Entries are 3-D
//! axis-aligned boxes — two spatial axes plus time — with a `u64` payload
//! (a row identifier).

mod node;

pub use node::Rect3;

use node::{Entry, Node, MAX_ENTRIES, MIN_ENTRIES};

/// A 3-D R-tree mapping boxes to `u64` row identifiers.
#[derive(Debug, Clone)]
pub struct RTree {
    root: Node,
    len: usize,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        RTree { root: Node::new_leaf(), len: 0 }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Insert one entry (`rtree_insert` in MEOS terms).
    pub fn insert(&mut self, rect: Rect3, id: u64) {
        let new_entry = Entry::Leaf { rect, id };
        if let Some((e1, e2)) = self.root.insert(new_entry) {
            // Root split: grow the tree.
            let mut new_root = Node::new_inner();
            new_root.entries.push(e1);
            new_root.entries.push(e2);
            self.root = new_root;
        }
        self.len += 1;
    }

    /// Bulk-load with Sort-Tile-Recursive packing. Much faster and better
    /// packed than repeated insertion; used by the data-first `CREATE
    /// INDEX` path after the parallel Sink/Combine phases collected all
    /// rows.
    pub fn bulk_load(items: Vec<(Rect3, u64)>) -> Self {
        let len = items.len();
        if len == 0 {
            return RTree::new();
        }
        let mut leaves: Vec<Entry> = items
            .into_iter()
            .map(|(rect, id)| Entry::Leaf { rect, id })
            .collect();
        // STR: sort by x-center, tile, sort each tile by y-center, then cut
        // into nodes (time is the minor axis: mobility data clusters
        // spatially first).
        let axes = tiling_axes(&leaves);
        let mut level: Vec<Node> = str_pack_level(&mut leaves, true, axes);
        while level.len() > 1 {
            let mut entries: Vec<Entry> = level
                .into_iter()
                .map(|n| Entry::Node { rect: n.bounding_rect(), child: Box::new(n) })
                .collect();
            level = str_pack_level(&mut entries, false, axes);
        }
        let root = level.pop().expect("non-empty input yields a root");
        RTree { root, len }
    }

    /// All ids whose boxes intersect `query` (closed-interval semantics,
    /// matching the `&&` overlap operator).
    pub fn search(&self, query: &Rect3) -> Vec<u64> {
        let mut out = Vec::new();
        self.root.search(query, &mut out);
        out
    }

    /// Visit matching ids without allocating the result vector.
    pub fn search_with(&self, query: &Rect3, f: &mut impl FnMut(u64)) {
        self.root.search_with(query, f);
    }

    /// Remove an entry by exact rect + id; returns whether it was found.
    /// (Simplified deletion: nodes are not re-condensed, matching how the
    /// paper's extension handles deletes via vacuuming.)
    pub fn remove(&mut self, rect: &Rect3, id: u64) -> bool {
        if self.root.remove(rect, id) {
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Check structural invariants (used by tests).
    pub fn check_invariants(&self) {
        self.root.check_invariants(true);
        assert_eq!(self.root.count_leaves(), self.len, "leaf count matches len");
    }
}

/// The two axes STR tiles on: x then y, unless no entry has a finite
/// extent on one of them. Time-only boxes (infinite x and y, whose
/// centers all coincide) then tile on time, so they still prune.
fn tiling_axes(entries: &[Entry]) -> (usize, usize) {
    let bounded = |d: usize, r: &Rect3| r.min[d].is_finite() || r.max[d].is_finite();
    let finite: Vec<usize> =
        (0..3).filter(|&d| entries.iter().any(|e| bounded(d, e.rect()))).collect();
    match finite[..] {
        [] => (0, 1),
        [a] => (a, a),
        [a, b, ..] => (a, b),
    }
}

/// Pack a flat list of entries into nodes of ≤ `MAX_ENTRIES` using STR,
/// slabs cut along `axes.0` and each slab sorted along `axes.1`.
fn str_pack_level(entries: &mut Vec<Entry>, leaf: bool, axes: (usize, usize)) -> Vec<Node> {
    let n = entries.len();
    let node_cap = MAX_ENTRIES;
    let num_nodes = n.div_ceil(node_cap);
    // Number of vertical slabs ≈ sqrt(num_nodes).
    let slabs = (num_nodes as f64).sqrt().ceil() as usize;
    let per_slab = (n.div_ceil(slabs.max(1))).div_ceil(node_cap) * node_cap;

    // total_cmp: degenerate input rects (e.g. infinite extents whose
    // center is NaN) must not panic index construction.
    entries.sort_by(|a, b| a.rect().center(axes.0).total_cmp(&b.rect().center(axes.0)));
    let mut nodes = Vec::with_capacity(num_nodes);
    let mut rest: &mut [Entry] = entries.as_mut_slice();
    while !rest.is_empty() {
        let take = per_slab.min(rest.len()).max(1);
        let (slab, tail) = rest.split_at_mut(take);
        slab.sort_by(|a, b| a.rect().center(axes.1).total_cmp(&b.rect().center(axes.1)));
        for chunk in slab.chunks_mut(node_cap) {
            let mut node = if leaf { Node::new_leaf() } else { Node::new_inner() };
            for e in chunk.iter_mut() {
                node.entries.push(e.clone());
            }
            nodes.push(node);
        }
        rest = tail;
    }
    // Guard the minimum-fill invariant of the last node by borrowing from
    // its left sibling when necessary.
    let k = nodes.len();
    if k >= 2 {
        let last_len = nodes[k - 1].entries.len();
        if last_len < MIN_ENTRIES {
            let need = MIN_ENTRIES - last_len;
            let donor_len = nodes[k - 2].entries.len();
            if donor_len > need && donor_len - need >= MIN_ENTRIES {
                let moved: Vec<Entry> =
                    nodes[k - 2].entries.drain(donor_len - need..).collect();
                for (i, e) in moved.into_iter().enumerate() {
                    nodes[k - 1].entries.insert(i, e);
                }
            }
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect3 {
        Rect3::new([x0, y0, 0.0], [x1, y1, 1.0])
    }

    #[test]
    fn insert_and_search() {
        let mut t = RTree::new();
        for i in 0..100u64 {
            let x = i as f64;
            t.insert(r(x, x, x + 0.5, x + 0.5), i);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants();
        let mut hits = t.search(&r(10.0, 10.0, 12.0, 12.0));
        hits.sort();
        assert_eq!(hits, vec![10, 11, 12]);
        assert!(t.search(&r(1000.0, 1000.0, 1001.0, 1001.0)).is_empty());
    }

    #[test]
    fn bulk_load_matches_insert() {
        let items: Vec<(Rect3, u64)> = (0..500u64)
            .map(|i| {
                let x = (i % 37) as f64 * 3.0;
                let y = (i % 23) as f64 * 5.0;
                (r(x, y, x + 1.0, y + 1.0), i)
            })
            .collect();
        let bulk = RTree::bulk_load(items.clone());
        bulk.check_invariants();
        let mut incr = RTree::new();
        for (rect, id) in &items {
            incr.insert(*rect, *id);
        }
        incr.check_invariants();
        let q = r(0.0, 0.0, 20.0, 20.0);
        let mut a = bulk.search(&q);
        let mut b = incr.search(&q);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(bulk.len(), 500);
    }

    #[test]
    fn time_axis_filters() {
        let mut t = RTree::new();
        t.insert(Rect3::new([0.0, 0.0, 0.0], [1.0, 1.0, 10.0]), 1);
        t.insert(Rect3::new([0.0, 0.0, 20.0], [1.0, 1.0, 30.0]), 2);
        let hits = t.search(&Rect3::new([0.0, 0.0, 5.0], [1.0, 1.0, 6.0]));
        assert_eq!(hits, vec![1]);
        // Touching boundaries count (closed intervals).
        let hits = t.search(&Rect3::new([0.0, 0.0, 10.0], [1.0, 1.0, 20.0]));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn remove_entries() {
        let mut t = RTree::new();
        for i in 0..50u64 {
            t.insert(r(i as f64, 0.0, i as f64 + 0.5, 0.5), i);
        }
        assert!(t.remove(&r(7.0, 0.0, 7.5, 0.5), 7));
        assert!(!t.remove(&r(7.0, 0.0, 7.5, 0.5), 7));
        assert_eq!(t.len(), 49);
        assert!(t.search(&r(7.0, 0.0, 7.5, 0.5)).iter().all(|&id| id != 7));
    }

    #[test]
    fn empty_and_degenerate() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert!(t.search(&r(0.0, 0.0, 1.0, 1.0)).is_empty());
        let t = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        let t = RTree::bulk_load(vec![(r(0.0, 0.0, 0.0, 0.0), 42)]);
        assert_eq!(t.search(&r(0.0, 0.0, 0.0, 0.0)), vec![42]);
    }

    #[test]
    fn large_bulk_load_height_is_logarithmic() {
        let items: Vec<(Rect3, u64)> = (0..10_000u64)
            .map(|i| {
                let x = (i as f64).sin() * 1000.0;
                let y = (i as f64).cos() * 1000.0;
                (r(x, y, x + 1.0, y + 1.0), i)
            })
            .collect();
        let t = RTree::bulk_load(items);
        t.check_invariants();
        assert!(t.height() <= 4, "height {} too tall for 10k entries", t.height());
        let hits = t.search(&r(-2000.0, -2000.0, 2000.0, 2000.0));
        assert_eq!(hits.len(), 10_000);
    }

    #[test]
    fn time_only_bulk_load_tiles_on_time() {
        // Time-only boxes, loaded out of time order: each leaf must cover
        // a narrow time range, or a probe visits every leaf.
        let n = 1024u64;
        let items: Vec<(Rect3, u64)> = (0..n)
            .map(|i| {
                let t = ((i * 389) % n) as f64 * 10.0;
                let inf = f64::INFINITY;
                (Rect3::new([-inf, -inf, t], [inf, inf, t + 5.0]), i)
            })
            .collect();
        let t = RTree::bulk_load(items);
        t.check_invariants();
        let mut leaves = Vec::new();
        fn collect<'a>(node: &'a Node, out: &mut Vec<&'a Node>) {
            if node.leaf {
                out.push(node);
            }
            for e in &node.entries {
                if let Entry::Node { child, .. } = e {
                    collect(child, out);
                }
            }
        }
        collect(&t.root, &mut leaves);
        let probe = Rect3::new([0.0, 0.0, 5000.0], [1.0, 1.0, 5001.0]);
        let touched = leaves.iter().filter(|l| l.bounding_rect().intersects(&probe)).count();
        assert!(touched <= 2, "{touched} of {} leaves overlap one instant", leaves.len());
        assert_eq!(t.search(&probe).len(), 1);
    }

    #[test]
    fn infinite_axes_supported() {
        // Time-only stboxes map to infinite spatial extents.
        let mut t = RTree::new();
        t.insert(
            Rect3::new([f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0], [f64::INFINITY, f64::INFINITY, 5.0]),
            1,
        );
        t.insert(r(100.0, 100.0, 101.0, 101.0), 2);
        let hits = t.search(&Rect3::new([0.0, 0.0, 3.0], [1.0, 1.0, 4.0]));
        assert_eq!(hits, vec![1]);
    }
}
