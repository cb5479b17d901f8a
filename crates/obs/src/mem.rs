//! Hierarchical memory accounting: scoped byte trackers (query →
//! operator) with atomic current/peak.
//!
//! A [`MemTracker`] is a node in a small tree: the *root* tracker scopes
//! one query, children scope operators inside it. [`MemTracker::charge`]
//! adds bytes to the node and every ancestor with one relaxed `fetch_add`
//! per level (trees are two levels deep in practice), so charging from a
//! morsel worker's hot loop is safe and cheap. Root trackers additionally
//! mirror their movement into the process-wide `mem_current` / `mem_peak`
//! gauges, so `PRAGMA metrics` reports engine-wide memory pressure across
//! all in-flight queries.
//!
//! Accounting is *allocation-cumulative within a query*: operators charge
//! buffers as they materialize them and the whole balance is released in
//! one step when the query finishes ([`MemTracker::close`]). That keeps
//! the hot path free of free-tracking bookkeeping while still giving an
//! honest per-query peak — the number `PRAGMA memory_limit` is enforced
//! against (see `ExecGuard` in `mduck-sql`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::metrics;

/// One node of scoped byte accounting. Create roots with
/// [`MemTracker::root`], operator scopes with [`MemTracker::child`].
#[derive(Debug, Default)]
pub struct MemTracker {
    current: AtomicU64,
    peak: AtomicU64,
    parent: Option<Arc<MemTracker>>,
    /// Roots mirror into the global `mem_current` / `mem_peak` gauges.
    is_root: bool,
}

impl MemTracker {
    /// A query-scoped root tracker.
    pub fn root() -> Arc<MemTracker> {
        Arc::new(MemTracker {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            parent: None,
            is_root: true,
        })
    }

    /// An operator-scoped child; charges propagate to `self`.
    pub fn child(self: &Arc<Self>) -> Arc<MemTracker> {
        Arc::new(MemTracker {
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            parent: Some(Arc::clone(self)),
            is_root: false,
        })
    }

    /// Account `bytes` against this scope and every ancestor.
    #[inline]
    pub fn charge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut node = self;
        loop {
            let cur = node.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
            node.peak.fetch_max(cur, Ordering::Relaxed);
            if node.is_root {
                let m = metrics();
                m.mem_current.add(bytes as i64);
                let total = m.mem_current.get();
                if total > m.mem_peak.get() {
                    m.mem_peak.set(total);
                }
            }
            match &node.parent {
                Some(p) => node = p,
                None => break,
            }
        }
    }

    /// Return `bytes` to this scope and every ancestor (saturating).
    pub fn release(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut node = self;
        loop {
            let released = sub_saturating(&node.current, bytes);
            if node.is_root {
                metrics().mem_current.add(-(released as i64));
            }
            match &node.parent {
                Some(p) => node = p,
                None => break,
            }
        }
    }

    /// Release the entire outstanding balance (query teardown). Returns
    /// the peak observed over the scope's lifetime.
    pub fn close(&self) -> u64 {
        let outstanding = self.current.swap(0, Ordering::Relaxed);
        if self.is_root {
            metrics().mem_current.add(-(outstanding as i64));
        } else if let Some(p) = &self.parent {
            p.release(outstanding);
        }
        self.peak()
    }

    /// Bytes currently accounted to this scope.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of [`MemTracker::current`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Saturating atomic subtraction; returns how much was actually removed.
fn sub_saturating(a: &AtomicU64, bytes: u64) -> u64 {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let take = cur.min(bytes);
        match a.compare_exchange_weak(
            cur,
            cur - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(actual) => cur = actual,
        }
    }
}

/// Render a byte count the way `PRAGMA memory_limit` accepts it.
pub fn format_bytes(bytes: u64) -> String {
    const KB: u64 = 1 << 10;
    const MB: u64 = 1 << 20;
    const GB: u64 = 1 << 30;
    if bytes >= GB && bytes.is_multiple_of(GB) {
        format!("{}GB", bytes / GB)
    } else if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}MB", bytes / MB)
    } else if bytes >= KB && bytes.is_multiple_of(KB) {
        format!("{}KB", bytes / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Parse a human byte size: `8MB`, `512KB`, `1GB`, `1024`, `64B`.
/// Case-insensitive; fractional values are rejected.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let upper = s.to_ascii_uppercase();
    let (digits, mult) = if let Some(d) = upper.strip_suffix("GB") {
        (d, 1u64 << 30)
    } else if let Some(d) = upper.strip_suffix("MB") {
        (d, 1 << 20)
    } else if let Some(d) = upper.strip_suffix("KB") {
        (d, 1 << 10)
    } else if let Some(d) = upper.strip_suffix('B') {
        (d, 1)
    } else {
        (upper.as_str(), 1)
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that makes a root: roots move the process-wide
    /// gauges, which `root_mirrors_into_gauges` reads.
    static GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn gauges() -> std::sync::MutexGuard<'static, ()> {
        GAUGES.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn charge_release_and_peak() {
        let _gauges = gauges();
        let root = MemTracker::root();
        root.charge(100);
        root.charge(50);
        assert_eq!(root.current(), 150);
        assert_eq!(root.peak(), 150);
        root.release(120);
        assert_eq!(root.current(), 30);
        assert_eq!(root.peak(), 150);
        // Saturating: over-release clamps to zero.
        root.release(1000);
        assert_eq!(root.current(), 0);
        assert_eq!(root.close(), 150);
    }

    #[test]
    fn children_propagate_to_root() {
        let _gauges = gauges();
        let root = MemTracker::root();
        let scan = root.child();
        let agg = root.child();
        scan.charge(64);
        agg.charge(32);
        assert_eq!(scan.current(), 64);
        assert_eq!(agg.current(), 32);
        assert_eq!(root.current(), 96);
        assert_eq!(root.peak(), 96);
        agg.release(32);
        assert_eq!(root.current(), 64);
        root.close();
        assert_eq!(root.current(), 0);
    }

    #[test]
    fn root_mirrors_into_gauges() {
        let _gauges = gauges();
        let before = metrics().mem_current.get();
        let root = MemTracker::root();
        root.charge(4096);
        assert!(metrics().mem_current.get() >= before + 4096);
        assert!(metrics().mem_peak.get() >= before + 4096);
        root.close();
        assert!(metrics().mem_current.get() <= before + 4096);
    }

    #[test]
    fn concurrent_charges_balance() {
        let _gauges = gauges();
        let root = MemTracker::root();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let child = root.child();
                s.spawn(move || {
                    for _ in 0..1000 {
                        child.charge(8);
                    }
                    child.release(4000);
                });
            }
        });
        assert_eq!(root.current(), 4 * 4000);
        assert!(root.peak() >= root.current());
        root.close();
    }

    #[test]
    fn byte_size_round_trip() {
        assert_eq!(parse_bytes("8MB"), Some(8 << 20));
        assert_eq!(parse_bytes("8mb"), Some(8 << 20));
        assert_eq!(parse_bytes(" 512 KB "), Some(512 << 10));
        assert_eq!(parse_bytes("2GB"), Some(2 << 30));
        assert_eq!(parse_bytes("64B"), Some(64));
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("8.5MB"), None);
        assert_eq!(parse_bytes("lots"), None);
        assert_eq!(parse_bytes(""), None);
        for v in [64, 1 << 10, 8 << 20, 2 << 30, 1500] {
            assert_eq!(parse_bytes(&format_bytes(v)), Some(v), "{v}");
        }
    }
}
