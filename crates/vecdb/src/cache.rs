//! The statement cache (DESIGN.md "Statement cache"): SELECT and EXPLAIN
//! templates keyed by their statement's [`Shape`](mduck_sql::Shape), so a
//! repeat of a shape with other literal values skips parse, bind and
//! plan. A template is the statement bound and planned with each literal
//! a slot ([`mduck_sql::template`]); a statement instantiates it by
//! cloning the plan with each slot replaced by its value. A shape is
//! cached on its second sighting: a statement whose shape was not seen
//! before runs its template's plan, instantiated in place, and keeps no
//! copy.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mduck_sql::{BoundSelect, Slots, Value};
use mduck_sync::{Mutex, RwLock};

use crate::catalog::DbCatalog;
use crate::exec::PlannedSelect;

/// Most templates one database keeps.
pub const CAPACITY: usize = 256;

/// Most shapes seen once that one database remembers; past it they are
/// forgotten, so a shape is cached once it repeats within about this many
/// statements of other shapes seen once.
const SEEN_CAPACITY: usize = 4 * CAPACITY;

/// A SELECT bound and planned.
#[derive(Clone)]
pub struct Plan {
    pub bound: BoundSelect,
    pub planned: PlannedSelect,
}

impl Plan {
    /// The plan with each slot replaced by its value in `values`.
    pub fn instantiated(mut self, values: &[Value]) -> Plan {
        self.bound.set_params(values);
        self.planned.set_params(values);
        self
    }
}

/// What a statement of a cached shape runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    Explain,
    ExplainAnalyze,
}

/// One shape's bound and planned statement.
pub struct Template {
    pub kind: Kind,
    /// The catalog's schema epoch the template was planned at.
    pub epoch: u64,
    pub slots: Slots,
    pub plan: Plan,
    /// The row count of each table a join estimate read, when planned.
    pub counts: Vec<(String, usize)>,
    /// Used since the eviction sweep last passed it.
    used: AtomicBool,
}

impl Template {
    pub fn new(kind: Kind, epoch: u64, slots: Slots, plan: Plan, counts: Vec<(String, usize)>) -> Self {
        Template { kind, epoch, slots, plan, counts, used: AtomicBool::new(true) }
    }

    /// The plan of the statement the template was built from.
    pub fn own_plan(&self) -> Plan {
        self.plan.clone().instantiated(self.slots.values())
    }

    /// The plan for a statement of this shape whose placeholders and
    /// literals are `written`, or `None` when it needs a template of its
    /// own ([`Slots::instantiate`]) or this one is stale: a table whose
    /// count fed a join estimate has since doubled or halved — with
    /// `exact` (where the estimates are shown), changed at all.
    pub fn instantiate(&self, written: &[Value], catalog: &DbCatalog, exact: bool) -> Option<Plan> {
        let fresh = |(name, then): &(String, usize)| {
            let Ok(t) = catalog.get(name) else { return false };
            let (then, now) = (*then, t.read().row_count());
            match exact {
                true => now == then,
                false => now < 2 * then.max(1) && (then == 0 || 2 * now > then),
            }
        };
        if !self.counts.iter().all(fresh) {
            return None;
        }
        let values = self.slots.instantiate(written)?;
        Some(self.plan.clone().instantiated(&values))
    }
}

/// The templates of one database, by shape key.
#[derive(Default)]
pub struct StatementCache {
    templates: RwLock<HashMap<String, Arc<Template>>>,
    /// The key hashes of shapes seen once and not cached.
    seen: Mutex<HashSet<u64>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What one database's statement cache has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Statements that ran an instantiated template.
    pub hits: u64,
    /// Statements that bound and planned a template (none cached, a
    /// stale one, or one whose structural slots or folds came out
    /// otherwise), whether or not it was then cached.
    pub misses: u64,
    /// Templates cached now.
    pub templates: usize,
}

impl StatementCache {
    /// The template cached for `key` at schema epoch `epoch`. A hit takes
    /// the map's shared lock only.
    pub fn get(&self, key: &str, epoch: u64) -> Option<Arc<Template>> {
        let t = self.templates.read().get(key).filter(|t| t.epoch == epoch).cloned()?;
        t.used.store(true, Ordering::Relaxed);
        Some(t)
    }

    /// Is this the second sighting of `key`'s shape, so its template is
    /// worth caching? A first sighting is remembered (up to
    /// `SEEN_CAPACITY` shapes, then all are forgotten) and answers no.
    pub fn admit(&self, key: &str) -> bool {
        let hash = self.hasher.hash_one(key);
        let mut seen = self.seen.lock();
        if seen.remove(&hash) {
            return true;
        }
        if seen.len() >= SEEN_CAPACITY {
            seen.clear();
        }
        seen.insert(hash);
        false
    }

    /// Cache `template` for `key`. A full cache first evicts one template
    /// by a clock sweep: the first not used since the sweep last passed
    /// it (clearing the marks it passes), else the first.
    pub fn insert(&self, key: String, template: Arc<Template>) {
        let mut templates = self.templates.write();
        if templates.len() >= CAPACITY && !templates.contains_key(&key) {
            let victim = templates
                .iter()
                .find(|(_, t)| !t.used.swap(false, Ordering::Relaxed))
                .or_else(|| templates.iter().next())
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                templates.remove(&victim);
            }
        }
        templates.insert(key, template);
    }

    /// Count a hit (`true`) or a miss, here and in `mduck_obs`.
    pub fn count(&self, hit: bool) {
        let m = mduck_obs::metrics();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            m.plan_cache_hits.inc(1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            m.plan_cache_misses.inc(1);
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            templates: self.templates.read().len(),
        }
    }
}
