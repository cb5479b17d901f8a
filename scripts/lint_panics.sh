#!/usr/bin/env bash
# Panic-lint gate: fail if library source (crates/*/src) gains new
# panicking constructs reachable from user input.
#
# What counts: .unwrap() / .expect(...) / panic!(...) / unreachable!(...) /
# todo!(...) / unimplemented!(...) outside in-file `#[cfg(test)]` modules.
#
# What doesn't:
#   - test code (anything after the first `#[cfg(test)]` in a file; by
#     convention test modules sit at the bottom),
#   - `crates/bench` (benchmark driver binaries — aborting on a broken
#     setup is the right behaviour there),
#   - sites vetted in scripts/panic_allowlist.txt.
#
# The allowlist keys each vetted site as "<file>:<normalized code>", so
# entries survive unrelated line-number drift but a *new* unwrap — even
# in an already-listed file — fails the gate. So does a *stale* entry, one
# that no longer matches a site: the list stays exactly the set of vetted
# sites, and a removed site cannot silently re-enter. Every entry is an audited
# invariant (e.g. a slice whose bounds were checked on the previous
# line, or "non-empty by construction"); see the comments in the file.
#
# Usage:
#   scripts/lint_panics.sh                    # gate (CI / verify path)
#   scripts/lint_panics.sh --update-allowlist # re-vet after an audit

set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST="scripts/panic_allowlist.txt"

# Emit "file:normalized-code" for every panic site in non-test library
# source, sorted (duplicates preserved so the multiset comparison below
# catches a second copy of an already-allowed line).
scan() {
  local f
  for f in $(find crates -path '*/src/*.rs' ! -path 'crates/bench/*' | sort); do
    awk -v file="$f" '
      # Skip `#[cfg(test)] mod ... { ... }` blocks by brace depth; code
      # after the test module (unusual but legal) is still scanned.
      pending && /\{/ { skipping = 1; pending = 0 }
      skipping {
        n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
        depth += n - m
        if (depth <= 0) { skipping = 0; depth = 0 }
        next
      }
      /#\[cfg\(test\)\]/ { pending = 1; depth = 0; next }
      $0 ~ /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ {
        line = $0
        gsub(/^[ \t]+|[ \t]+$/, "", line)
        if (line ~ /^\/\//) next
        printf "%s:%s\n", file, line
      }
    ' "$f"
  done | sort
}

# The durability crate gets a stricter rule with NO allowlist escape:
# every file/sync/rename result feeds crash recovery, so an unchecked
# `.unwrap()` / `.expect(` outside tests is always a bug there — a torn
# write must surface as a typed SqlError, never a panic mid-commit.
# (`unwrap_or_else`/`unwrap_or_default` are combinators, not panics,
# and are deliberately not matched.)
wal_gate() {
  local f hits=""
  for f in $(find crates/wal/src -name '*.rs' | sort); do
    local found
    found=$(awk -v file="$f" '
      pending && /\{/ { skipping = 1; pending = 0 }
      skipping {
        n = gsub(/\{/, "{"); m = gsub(/\}/, "}")
        depth += n - m
        if (depth <= 0) { skipping = 0; depth = 0 }
        next
      }
      /#\[cfg\(test\)\]/ { pending = 1; depth = 0; next }
      /\.unwrap\(\)|\.expect\(/ {
        line = $0
        gsub(/^[ \t]+|[ \t]+$/, "", line)
        if (line ~ /^\/\//) next
        printf "%s:%d:%s\n", file, NR, line
      }
    ' "$f")
    [[ -n "$found" ]] && hits+="$found"$'\n'
  done
  if [[ -n "${hits//$'\n'/}" ]]; then
    echo
    echo "Unchecked unwrap()/expect() in crates/wal (no allowlist applies):"
    printf '%s' "$hits"
    echo "Durability I/O must return typed SqlError, not panic."
    exit 1
  fi
}
wal_gate

CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT
scan > "$CURRENT"

if [[ "${1:-}" == "--update-allowlist" ]]; then
  {
    echo "# Vetted panic sites in library source (see scripts/lint_panics.sh)."
    echo "# Each line is <file>:<code>. Regenerate with --update-allowlist"
    echo "# ONLY after auditing that every new entry is an unreachable"
    echo "# invariant, not a user-input-reachable panic."
    cat "$CURRENT"
  } > "$ALLOWLIST"
  echo "panic-lint: allowlist updated ($(grep -c . "$CURRENT") sites)"
  exit 0
fi

VETTED="$(mktemp)"
trap 'rm -f "$CURRENT" "$VETTED"' EXIT
grep -v -e '^#' -e '^$' "$ALLOWLIST" 2>/dev/null | sort > "$VETTED" || true

NEW="$(comm -23 "$CURRENT" "$VETTED" || true)"
STALE="$(comm -13 "$CURRENT" "$VETTED" || true)"

TOTAL=$(grep -c . "$CURRENT" || true)
echo "panic-lint: $TOTAL panic sites in library source, $(printf '%s' "$NEW" | grep -c . || true) unvetted, $(printf '%s' "$STALE" | grep -c . || true) stale"

if [[ -n "$NEW" ]]; then
  echo
  echo "New panicking constructs in crates/*/src (outside tests):"
  echo "$NEW"
  echo
  echo "Convert them to typed errors (SqlError / TemporalError / GeoError)."
  echo "If a site is a genuinely unreachable invariant, audit it and run"
  echo "scripts/lint_panics.sh --update-allowlist."
fi
if [[ -n "$STALE" ]]; then
  echo
  echo "Stale entries in $ALLOWLIST (no such site in crates/*/src):"
  echo "$STALE"
  echo
  echo "Delete them from the allowlist."
fi
if [[ -n "$NEW" || -n "$STALE" ]]; then
  exit 1
fi
