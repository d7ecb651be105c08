#!/usr/bin/env bash
# Check that the working tree prints byte-identical experiment output to
# another revision — the check for changes that must not move a single
# bit (kernel rewrites, refactors):
#
#   scripts/same_output.sh <rev>        # e.g. scripts/same_output.sh HEAD~
#
# Exports <rev> with `git archive` into a temporary directory (built in
# its own target directory) and builds the working tree in the usual
# `target/`, then runs on both:
#
#   table1            JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_TRAIN_EPOCHS=2
#   fig2_convergence  JOCL_SCALE=0.02 JOCL_SEED=42
#   serve             JOCL_SCALE=0.02 JOCL_SEED=42, a fixed stdin script:
#                     a cold ingest, then warm writes (ingest 8 three
#                     times, add, revise and retract of one triple,
#                     retract by id, snapshot + restore, one more
#                     ingest 8) with query / link frames after each,
#                     then compact; then a second serve process on the
#                     same JOCL_SNAPSHOT_DIR runs `restore` and the
#                     query / link lines that follow `restore` in the
#                     first script, so a snapshot written by one process
#                     is read by another
#   stream            JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_STREAM_BATCH=4
#
# and compares each stdout with `cmp`. For `serve` only the `query.v1` /
# `link.v1` frame lines are compared; the delta and stats lines carry
# timings. For `stream` the per-batch rows (without their `ms` column)
# and the `PARITY` line are compared; its timing and heap lines are
# left out. Exits 0 only if all four are identical; the temporary
# directory is removed on exit. Set TMPDIR to choose where the export and
# its build go (~1 GB).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/tree"
git archive "$rev" | tar -x -C "$work/tree"
bins=(--bin table1 --bin fig2_convergence --bin serve --bin stream)
echo "building $rev ..." >&2
(cd "$work/tree" && CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet -p jocl_bench "${bins[@]}")
echo "building the working tree ..." >&2
cargo build --release --offline --quiet -p jocl_bench "${bins[@]}"
here=${CARGO_TARGET_DIR:-target}

serve_script='ingest 200
query tarrazu group
link Tarrazu Group
link brisharo by
link jocl://np/3
link ckb://entity/34
ingest 8
query tarrazu group
link jocl://np/3
ingest 8
query tarrazu group
link brisharo by
ingest 8
query tarrazu group
link Tarrazu Group
add acme robotics | acquired | tarrazu group
query acme robotics
link acme robotics
revise acme robotics | acquired | tarrazu group => acme robotics | bought | tarrazu group
query acme robotics
link acme robotics
retract acme robotics | bought | tarrazu group
query tarrazu group
link acme robotics
retract #7
query tarrazu group
snapshot
restore
query tarrazu group
link jocl://np/3
ingest 8
query tarrazu group
link Tarrazu Group
compact
link tarrazu group
link jocl://np/3
quit'
restore_script="restore
$(printf '%s\n' "$serve_script" | sed -n '/^restore$/,$p' | grep -E '^(query|link) ')
quit"

run() { # <side> <bin dir>
    JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_TRAIN_EPOCHS=2 "$2/release/table1" >"$work/$1.table1"
    JOCL_SCALE=0.02 JOCL_SEED=42 "$2/release/fig2_convergence" >"$work/$1.fig2_convergence"
    rm -rf "$work/snap"
    printf '%s\n' "$serve_script" |
        JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_SNAPSHOT_DIR="$work/snap" "$2/release/serve" |
        grep -E '^(query\.v1|mention |link\.v1|np |rp )' >"$work/$1.serve"
    printf '%s\n' "$restore_script" |
        JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_SNAPSHOT_DIR="$work/snap" "$2/release/serve" |
        grep -E '^(query\.v1|mention |link\.v1|np |rp )' >>"$work/$1.serve"
    # The stream bin exits 1 on a parity mismatch; its PARITY line is
    # part of the comparison either way.
    { JOCL_SCALE=0.02 JOCL_SEED=42 JOCL_STREAM_BATCH=4 "$2/release/stream" || true; } |
        awk '/^ *[0-9]+ / { NF--; print } /^PARITY/' >"$work/$1.stream"
}
echo "running $rev ..." >&2
run rev "$work/target"
echo "running the working tree ..." >&2
run tree "$here"

status=0
for bin in table1 fig2_convergence serve stream; do
    if cmp "$work/rev.$bin" "$work/tree.$bin"; then
        echo "$bin: byte-identical ($(wc -c <"$work/tree.$bin") bytes)"
    else
        echo "$bin: DIFFERS from $rev"
        diff "$work/rev.$bin" "$work/tree.$bin" | head -20 || true
        status=1
    fi
done
exit $status
