#!/usr/bin/env bash
# A/A check: run the full set twice on one build, same seed, and pipe
# both records through `compare`. Exact metrics (rounds, per-op rounds,
# digests) must be identical; wall-class metrics must hold their bounds.
# Usage: benchmark/aa_check.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
seed="${1:-11}"
bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}
bench run --seed "$seed" --out "$here/out/aa_a/run.json"
bench run --seed "$seed" --out "$here/out/aa_b/run.json"
bench compare "$here/out/aa_a/run.json" "$here/out/aa_b/run.json"
