//! Shared helpers for the integration and fuzz test suites.

#![forbid(unsafe_code)]

pub mod fuzz {
    //! Deterministic fuzzing support: a regression corpus on disk plus a
    //! no-panic runner.
    //!
    //! Every fuzz target follows the same protocol:
    //!   1. replay every input in `tests/corpus/<surface>/` (regressions),
    //!   2. generate ≥ 1000 fresh inputs from a fixed PRNG seed,
    //!   3. feed each through [`check_no_panic`] — a panic (or an
    //!      `Internal` error from an engine backstop) records the input as
    //!      a crasher file and fails the test.
    //!
    //! Because the PRNG is seeded, a failure reproduces exactly; because
    //! crashers are persisted, fixed bugs stay fixed.

    use std::fs;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;

    /// The on-disk regression corpus for one fuzz surface.
    pub fn corpus_dir(surface: &str) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")).join(surface)
    }

    /// Run `f` over every previously recorded crasher for `surface`.
    pub fn replay_corpus(surface: &str, mut f: impl FnMut(&[u8])) -> usize {
        let dir = corpus_dir(surface);
        let Ok(entries) = fs::read_dir(&dir) else {
            return 0;
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_none_or(|x| x != "md"))
            .collect();
        paths.sort();
        let n = paths.len();
        for p in paths {
            let data = fs::read(&p).unwrap_or_default();
            f(&data);
        }
        n
    }

    /// Persist a crashing input so it becomes a regression test.
    pub fn record_crasher(surface: &str, data: &[u8], label: &str) -> PathBuf {
        let dir = corpus_dir(surface);
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("crash-{label}"));
        let _ = fs::write(&path, data);
        path
    }

    /// Run one fuzz case. `f` must return without panicking; a panic is
    /// recorded to the corpus and converted into a test failure that
    /// names the reproducer file.
    pub fn check_no_panic(surface: &str, label: &str, data: &[u8], f: impl FnOnce()) {
        if catch_unwind(AssertUnwindSafe(f)).is_err() {
            let path = record_crasher(surface, data, label);
            panic!(
                "fuzz target {surface} panicked on input {label}; reproducer saved to {}",
                path.display()
            );
        }
    }

    /// Byte-level mutation of a seed input: flips, splices, truncations,
    /// duplications. Output is arbitrary bytes; callers wanting text run
    /// it through `String::from_utf8_lossy`.
    pub fn mutate(rng: &mut mduck_prng::StdRng, seed: &[u8]) -> Vec<u8> {
        use mduck_prng::RngExt;
        let mut out = seed.to_vec();
        let rounds = rng.random_range(1..5usize);
        for _ in 0..rounds {
            if out.is_empty() {
                out.push(rng.random_range(0..=255u8));
                continue;
            }
            match rng.random_range(0..6u32) {
                // Flip one bit.
                0 => {
                    let i = rng.random_range(0..out.len());
                    out[i] ^= 1 << rng.random_range(0..8u32);
                }
                // Overwrite with a random byte (biased toward syntax).
                1 => {
                    let i = rng.random_range(0..out.len());
                    out[i] = if rng.random_bool(0.7) {
                        *rng.choose(b"()[]{},;:'\"@.-+eE0123456789 ").unwrap_or(&b'!')
                    } else {
                        rng.random_range(0..=255u8)
                    };
                }
                // Truncate.
                2 => {
                    let i = rng.random_range(0..out.len());
                    out.truncate(i);
                }
                // Duplicate a short slice somewhere else.
                3 => {
                    let a = rng.random_range(0..out.len());
                    let b = (a + rng.random_range(1..16usize)).min(out.len());
                    let slice = out[a..b].to_vec();
                    let at = rng.random_range(0..=out.len());
                    for (k, byte) in slice.into_iter().enumerate() {
                        out.insert(at + k, byte);
                    }
                }
                // Delete a slice.
                4 => {
                    let a = rng.random_range(0..out.len());
                    let b = (a + rng.random_range(1..8usize)).min(out.len());
                    out.drain(a..b);
                }
                // Insert random bytes.
                _ => {
                    let at = rng.random_range(0..=out.len());
                    for k in 0..rng.random_range(1..4usize) {
                        out.insert(at + k, rng.random_range(0..=255u8));
                    }
                }
            }
            if out.len() > 4096 {
                out.truncate(4096);
            }
        }
        out
    }
}
