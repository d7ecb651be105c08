#!/usr/bin/env bash
# Check that the working tree prints byte-identical experiment output to
# another revision — the check for changes that must not move a single
# bit (kernel rewrites, refactors):
#
#   scripts/same_output.sh <rev>        # e.g. scripts/same_output.sh HEAD~
#
# Builds <rev> in a temporary `git worktree` (its own target directory)
# and the working tree in the usual `target/`, then runs on both:
#
#   table1            JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_TRAIN_EPOCHS=2
#   fig2_convergence  JOCL_SCALE=0.02 JOCL_SEED=42
#
# and compares each stdout with `cmp`. Exits 0 only if both are
# identical; the worktree is removed on exit. Set TMPDIR to choose where
# the worktree and its build go (~1 GB).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/tree" 2>/dev/null || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/tree" "$rev"
bins=(--bin table1 --bin fig2_convergence)
echo "building $rev ..." >&2
(cd "$work/tree" && CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet -p jocl_bench "${bins[@]}")
echo "building the working tree ..." >&2
cargo build --release --offline --quiet -p jocl_bench "${bins[@]}"
here=${CARGO_TARGET_DIR:-target}

run() { # <side> <bin dir>
    JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_TRAIN_EPOCHS=2 "$2/release/table1" >"$work/$1.table1"
    JOCL_SCALE=0.02 JOCL_SEED=42 "$2/release/fig2_convergence" >"$work/$1.fig2_convergence"
}
echo "running $rev ..." >&2
run rev "$work/target"
echo "running the working tree ..." >&2
run tree "$here"

status=0
for bin in table1 fig2_convergence; do
    if cmp "$work/rev.$bin" "$work/tree.$bin"; then
        echo "$bin: byte-identical ($(wc -c <"$work/tree.$bin") bytes)"
    else
        echo "$bin: DIFFERS from $rev"
        diff "$work/rev.$bin" "$work/tree.$bin" | head -20 || true
        status=1
    fi
done
exit $status
