//! Nodes, entries, and the Guttman quadratic-split insertion algorithm.

/// Fan-out bounds. 16/6 keeps nodes around a cache line's worth of boxes
/// while staying close to MEOS's defaults.
pub(crate) const MAX_ENTRIES: usize = 16;
pub(crate) const MIN_ENTRIES: usize = 6;

/// An axis-aligned 3-D box (x, y, t).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect3 {
    pub min: [f64; 3],
    pub max: [f64; 3],
}

impl Rect3 {
    /// Build, normalizing per-axis min/max order.
    pub fn new(a: [f64; 3], b: [f64; 3]) -> Self {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for d in 0..3 {
            min[d] = a[d].min(b[d]);
            max[d] = a[d].max(b[d]);
        }
        Rect3 { min, max }
    }

    /// Closed-interval overlap on all three axes.
    #[inline]
    pub fn intersects(&self, other: &Rect3) -> bool {
        (0..3).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &Rect3) -> Rect3 {
        let mut min = [0.0; 3];
        let mut max = [0.0; 3];
        for d in 0..3 {
            min[d] = self.min[d].min(other.min[d]);
            max[d] = self.max[d].max(other.max[d]);
        }
        Rect3 { min, max }
    }

    /// True when `other` fits entirely inside `self`.
    pub fn contains(&self, other: &Rect3) -> bool {
        (0..3).all(|d| self.min[d] <= other.min[d] && self.max[d] >= other.max[d])
    }

    /// Volume with infinite axes clamped (used only for split heuristics,
    /// where relative comparisons are what matters).
    pub fn volume(&self) -> f64 {
        (0..3)
            .map(|d| {
                // An axis whose bounds are the same infinity has a NaN
                // length, which counts as the cap.
                let len = self.max[d] - self.min[d];
                if len.is_nan() {
                    1e18
                } else {
                    len.clamp(0.0, 1e18)
                }
            })
            .product()
    }

    /// Volume increase if `other` were merged in.
    pub fn enlargement(&self, other: &Rect3) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Center along axis `d` (finite fallback for infinite bounds).
    pub fn center(&self, d: usize) -> f64 {
        let lo = if self.min[d].is_finite() { self.min[d] } else { -1e18 };
        let hi = if self.max[d].is_finite() { self.max[d] } else { 1e18 };
        (lo + hi) * 0.5
    }
}

/// A node entry: either a data row (leaf level) or a child node.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    Leaf { rect: Rect3, id: u64 },
    Node { rect: Rect3, child: Box<Node> },
}

impl Entry {
    pub(crate) fn rect(&self) -> &Rect3 {
        match self {
            Entry::Leaf { rect, .. } => rect,
            Entry::Node { rect, .. } => rect,
        }
    }
}

/// An R-tree node.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) leaf: bool,
    pub(crate) entries: Vec<Entry>,
}

impl Node {
    pub(crate) fn new_leaf() -> Self {
        Node { leaf: true, entries: Vec::with_capacity(MAX_ENTRIES + 1) }
    }

    pub(crate) fn new_inner() -> Self {
        Node { leaf: false, entries: Vec::with_capacity(MAX_ENTRIES + 1) }
    }

    pub(crate) fn bounding_rect(&self) -> Rect3 {
        let mut it = self.entries.iter();
        let first = *it.next().expect("node never empty when asked for bounds").rect();
        it.fold(first, |acc, e| acc.union(e.rect()))
    }

    pub(crate) fn height(&self) -> usize {
        if self.leaf {
            1
        } else {
            1 + match &self.entries[0] {
                Entry::Node { child, .. } => child.height(),
                Entry::Leaf { .. } => 0,
            }
        }
    }

    /// Insert; on overflow split and return the two replacement entries for
    /// the parent.
    pub(crate) fn insert(&mut self, new_entry: Entry) -> Option<(Entry, Entry)> {
        if self.leaf {
            self.entries.push(new_entry);
            if self.entries.len() > MAX_ENTRIES {
                return Some(self.split());
            }
            return None;
        }
        // Choose the subtree needing least enlargement (ties: smallest).
        let target_rect = *new_entry.rect();
        let mut best = 0usize;
        let mut best_enlarge = f64::INFINITY;
        let mut best_vol = f64::INFINITY;
        for (i, e) in self.entries.iter().enumerate() {
            let enlarge = e.rect().enlargement(&target_rect);
            let vol = e.rect().volume();
            if enlarge < best_enlarge || (enlarge == best_enlarge && vol < best_vol) {
                best = i;
                best_enlarge = enlarge;
                best_vol = vol;
            }
        }
        let split = match &mut self.entries[best] {
            Entry::Node { rect, child } => {
                let s = child.insert(new_entry);
                if s.is_none() {
                    *rect = child.bounding_rect();
                }
                s
            }
            Entry::Leaf { .. } => unreachable!("inner nodes hold node entries"),
        };
        if let Some((e1, e2)) = split {
            // Replace the split child with its two halves.
            self.entries.swap_remove(best);
            self.entries.push(e1);
            self.entries.push(e2);
            if self.entries.len() > MAX_ENTRIES {
                return Some(self.split());
            }
        }
        None
    }

    /// Guttman quadratic split of an overflowing node.
    fn split(&mut self) -> (Entry, Entry) {
        let entries = std::mem::take(&mut self.entries);
        // Pick the two seeds wasting the most volume together.
        let (mut s1, mut s2) = (0usize, 1usize);
        let mut worst = f64::NEG_INFINITY;
        for i in 0..entries.len() {
            for j in i + 1..entries.len() {
                let waste = entries[i].rect().union(entries[j].rect()).volume()
                    - entries[i].rect().volume()
                    - entries[j].rect().volume();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        let mut g1 = if self.leaf { Node::new_leaf() } else { Node::new_inner() };
        let mut g2 = if self.leaf { Node::new_leaf() } else { Node::new_inner() };
        let mut r1 = *entries[s1].rect();
        let mut r2 = *entries[s2].rect();
        let mut remaining: Vec<Entry> = Vec::with_capacity(entries.len());
        for (i, e) in entries.into_iter().enumerate() {
            if i == s1 {
                g1.entries.push(e);
            } else if i == s2 {
                g2.entries.push(e);
            } else {
                remaining.push(e);
            }
        }
        // Distribute, honouring the minimum-fill guarantee.
        while let Some(e) = remaining.pop() {
            let need1 = MIN_ENTRIES.saturating_sub(g1.entries.len());
            let need2 = MIN_ENTRIES.saturating_sub(g2.entries.len());
            let left = remaining.len() + 1;
            let into_g1 = if need1 >= left {
                true
            } else if need2 >= left {
                false
            } else {
                let e1 = r1.enlargement(e.rect());
                let e2 = r2.enlargement(e.rect());
                e1 < e2 || (e1 == e2 && g1.entries.len() <= g2.entries.len())
            };
            if into_g1 {
                r1 = r1.union(e.rect());
                g1.entries.push(e);
            } else {
                r2 = r2.union(e.rect());
                g2.entries.push(e);
            }
        }
        (
            Entry::Node { rect: g1.bounding_rect(), child: Box::new(g1) },
            Entry::Node { rect: g2.bounding_rect(), child: Box::new(g2) },
        )
    }

    pub(crate) fn search(&self, query: &Rect3, out: &mut Vec<u64>) {
        for e in &self.entries {
            if !e.rect().intersects(query) {
                continue;
            }
            match e {
                Entry::Leaf { id, .. } => out.push(*id),
                Entry::Node { child, .. } => child.search(query, out),
            }
        }
    }

    pub(crate) fn search_with(&self, query: &Rect3, f: &mut impl FnMut(u64)) {
        for e in &self.entries {
            if !e.rect().intersects(query) {
                continue;
            }
            match e {
                Entry::Leaf { id, .. } => f(*id),
                Entry::Node { child, .. } => child.search_with(query, f),
            }
        }
    }

    pub(crate) fn remove(&mut self, rect: &Rect3, id: u64) -> bool {
        if self.leaf {
            if let Some(pos) = self.entries.iter().position(|e| match e {
                Entry::Leaf { rect: r, id: i } => i == &id && r == rect,
                Entry::Node { .. } => false,
            }) {
                self.entries.swap_remove(pos);
                return true;
            }
            return false;
        }
        for e in &mut self.entries {
            if let Entry::Node { rect: r, child } = e {
                if r.contains(rect) && child.remove(rect, id) {
                    if !child.entries.is_empty() {
                        *r = child.bounding_rect();
                    }
                    return true;
                }
            }
        }
        false
    }

    pub(crate) fn count_leaves(&self) -> usize {
        if self.leaf {
            self.entries.len()
        } else {
            self.entries
                .iter()
                .map(|e| match e {
                    Entry::Node { child, .. } => child.count_leaves(),
                    Entry::Leaf { .. } => 1,
                })
                .sum()
        }
    }

    pub(crate) fn check_invariants(&self, is_root: bool) {
        assert!(self.entries.len() <= MAX_ENTRIES, "node over capacity");
        if !is_root && !self.entries.is_empty() {
            // Deletion without condensing can drop below MIN; only freshly
            // built structure is held to the strict bound.
        }
        if !self.leaf {
            for e in &self.entries {
                match e {
                    Entry::Node { rect, child } => {
                        assert!(!child.entries.is_empty(), "empty child node");
                        let actual = child.bounding_rect();
                        assert!(
                            rect.contains(&actual),
                            "stored rect {rect:?} does not cover child {actual:?}"
                        );
                        child.check_invariants(false);
                    }
                    Entry::Leaf { .. } => panic!("leaf entry in inner node"),
                }
            }
        }
    }
}
