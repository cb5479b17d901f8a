//! Deterministic fault injection for the durability path.
//!
//! Every durability-critical I/O site calls [`check`] with its site
//! name before performing the operation. A site can be armed to fire on
//! its `n`-th hit with one of three actions:
//!
//! * `error` — the operation reports an I/O failure; the WAL rolls the
//!   file back to the pre-operation length and the statement fails
//!   cleanly (the engine stays usable).
//! * `short` — a short write: a PRNG-chosen strict prefix of the bytes
//!   reaches the file before the failure; the WAL rolls back as above.
//! * `crash` — a simulated process death mid-operation: a strict prefix
//!   of the in-flight bytes is left on disk (the unsynced suffix is
//!   "lost in the page cache"), the manager is poisoned so every later
//!   durability call fails, and the test must reopen from disk.
//!
//! Arming is either programmatic ([`set`]) or via the environment:
//!
//! ```text
//! MDUCK_FAILPOINTS="wal.append.payload=crash@3,ckpt.rename=error@1"
//! MDUCK_FAILPOINT_SEED=42   # optional; defaults to 0xD0C5EED
//! ```
//!
//! Short-write lengths are derived from the in-repo PRNG seeded by
//! `(seed, site hash, hit index)`, so a given configuration replays the
//! same torn bytes on every run. Triggers are one-shot: after firing,
//! the site disarms itself so recovery on reopen is not re-injected.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use mduck_prng::{RngCore, SeedableRng, SplitMix64};

/// The full catalog of durability failpoint sites.
pub const SITES: &[&str] = &[
    "wal.open.read",
    "wal.recover.truncate",
    "wal.append.header",
    "wal.append.payload",
    "wal.append.sync",
    "ckpt.write",
    "ckpt.sync",
    "ckpt.rename",
    "ckpt.truncate_wal",
];

const DEFAULT_SEED: u64 = 0xD0C5EED;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Plain I/O error; nothing reaches the file.
    Error,
    /// A strict prefix of the bytes reaches the file, then an error.
    ShortWrite,
    /// Simulated process death: torn bytes stay on disk, the manager is
    /// poisoned, and only a reopen recovers.
    Crash,
}

/// The verdict [`check`] hands back to the I/O site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailDecision {
    Proceed,
    /// Fire with `action`; `raw` is the deterministic PRNG draw the
    /// site uses to pick a torn-prefix length (`raw % len`).
    Fail { action: FailAction, raw: u64 },
}

struct SiteState {
    /// `(action, fire_on_hit)` — 1-based hit index; one-shot.
    armed: Option<(FailAction, u64)>,
    hits: u64,
}

struct FailRegistry {
    sites: HashMap<String, SiteState>,
    seed: u64,
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_action(s: &str) -> Option<FailAction> {
    match s {
        "error" => Some(FailAction::Error),
        "short" => Some(FailAction::ShortWrite),
        "crash" => Some(FailAction::Crash),
        _ => None,
    }
}

fn registry() -> MutexGuard<'static, FailRegistry> {
    static REG: OnceLock<Mutex<FailRegistry>> = OnceLock::new();
    let m = REG.get_or_init(|| {
        let seed = std::env::var("MDUCK_FAILPOINT_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(DEFAULT_SEED);
        let mut reg = FailRegistry { sites: HashMap::new(), seed };
        if let Ok(spec) = std::env::var("MDUCK_FAILPOINTS") {
            apply_spec(&mut reg, &spec);
        }
        Mutex::new(reg)
    });
    // A panic while holding the lock cannot corrupt this plain map.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn apply_spec(reg: &mut FailRegistry, spec: &str) {
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let Some((site, rest)) = entry.split_once('=') else { continue };
        let (action_str, at) = match rest.split_once('@') {
            Some((a, n)) => (a, n.parse::<u64>().unwrap_or(1).max(1)),
            None => (rest, 1),
        };
        if let Some(action) = parse_action(action_str.trim()) {
            reg.sites.insert(
                site.trim().to_string(),
                SiteState { armed: Some((action, at)), hits: 0 },
            );
        }
    }
}

/// Consult (and count) the failpoint at `site`. Never blocks on I/O.
pub fn check(site: &str) -> FailDecision {
    let mut reg = registry();
    let seed = reg.seed;
    let state = reg
        .sites
        .entry(site.to_string())
        .or_insert(SiteState { armed: None, hits: 0 });
    state.hits += 1;
    if let Some((action, at)) = state.armed {
        if state.hits == at {
            state.armed = None; // one-shot
            let mut rng = SplitMix64::seed_from_u64(seed ^ fnv1a(site) ^ state.hits);
            let raw = rng.next_u64();
            mduck_obs::metrics::metrics().wal_failpoint_trips.inc(1);
            return FailDecision::Fail { action, raw };
        }
    }
    FailDecision::Proceed
}

/// Arm `site` to fire `action` on its `after`-th hit (1-based, one-shot).
pub fn set(site: &str, action: FailAction, after: u64) {
    let mut reg = registry();
    reg.sites.insert(
        site.to_string(),
        SiteState { armed: Some((action, after.max(1))), hits: 0 },
    );
}

/// Disarm every site and zero all hit counters.
pub fn clear_all() {
    registry().sites.clear();
}

/// Zero hit counters without touching armed triggers.
pub fn reset_hits() {
    for s in registry().sites.values_mut() {
        s.hits = 0;
    }
}

/// Per-site hit totals since the last clear/reset, sorted by name.
pub fn hit_counts() -> Vec<(String, u64)> {
    let reg = registry();
    let mut out: Vec<(String, u64)> =
        reg.sites.iter().map(|(k, v)| (k.clone(), v.hits)).collect();
    out.sort();
    out
}

/// Override the PRNG seed (tests); env `MDUCK_FAILPOINT_SEED` sets the
/// initial value.
pub fn set_seed(seed: u64) {
    registry().seed = seed;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global registry, so each test clears it
    // and uses site names no other test (or the WAL) uses. Every test
    // that touches the registry also holds `SERIAL`: `clear_all` in one
    // test would otherwise disarm a site another test armed between its
    // `set` and the `check` that expects it to fire.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn one_shot_fires_on_exact_hit() {
        let _lock = serial();
        clear_all();
        set("test.site.a", FailAction::Error, 3);
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        match check("test.site.a") {
            FailDecision::Fail { action, .. } => assert_eq!(action, FailAction::Error),
            other => panic!("expected fire, got {other:?}"),
        }
        // One-shot: disarmed afterwards.
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        clear_all();
    }

    #[test]
    fn raw_draw_is_deterministic_in_seed_site_and_hit() {
        let _lock = serial();
        clear_all();
        set_seed(99);
        set("test.site.b", FailAction::ShortWrite, 2);
        let _ = check("test.site.b");
        let first = check("test.site.b");
        clear_all();
        set_seed(99);
        set("test.site.b", FailAction::ShortWrite, 2);
        let _ = check("test.site.b");
        let second = check("test.site.b");
        assert_eq!(first, second);
        clear_all();
        set_seed(DEFAULT_SEED);
    }

    #[test]
    fn spec_parsing() {
        let mut reg = FailRegistry { sites: HashMap::new(), seed: 0 };
        apply_spec(&mut reg, "a.b=crash@3, c.d=error ,bogus,e=nope@2");
        assert_eq!(reg.sites.len(), 2);
        assert_eq!(reg.sites["a.b"].armed, Some((FailAction::Crash, 3)));
        assert_eq!(reg.sites["c.d"].armed, Some((FailAction::Error, 1)));
    }
}
