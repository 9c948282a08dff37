#!/bin/sh
# A/B of the `benchmark/` package: <parent-ref> is side a, the working tree
# side b. Exports both beside a scratch result directory (under $TMPDIR,
# default /tmp): the parent to $work/parent, the working tree to
# $work/change — tracked files as they are on disk, uncommitted edits
# included, plus untracked files git does not ignore. The two paths have the
# same length, so the binaries do not differ by where they were built.
# Builds each side's benchmark/ into its own target directory, alternates the
# two binaries on shared seeds (SEED, SEED+1, ...; SEED defaults to 1) for as
# long as BENCHMARK.json's run_seconds says, and ends with `compare`: one row
# per (workload, metric) with the verdict from BENCHMARK.json's bounds, plus
# whether every shared seed's sim_fingerprint matches. Exit status is
# compare's. Run from anywhere inside the repo.
# Usage: scripts/ab.sh <parent-ref> [pairs=10] [workload...]
set -eu
usage="usage: scripts/ab.sh <parent-ref> [pairs=10] [workload...]"
ref=${1:?$usage}
pairs=${2:-10}
shift
[ $# -gt 0 ] && shift
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- smr-small smr-batched-1k smr-durable-crash store-txn
seed=${SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/forty-ab.XXXXXX")
mkdir "$work/parent" "$work/change"
git archive "$ref" | tar -x -C "$work/parent"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done; :' sh |
    tar -c --null -T - | tar -x -C "$work/change"
echo "ab: building $ref (a) and the working tree (b) under $work" >&2
CARGO_TARGET_DIR=$work/target-a cargo build --release --offline --quiet \
    --manifest-path "$work/parent/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$work/target-b cargo build --release --offline --quiet \
    --manifest-path "$work/change/benchmark/Cargo.toml"

r=0
while [ "$r" -lt "$pairs" ]; do
    if [ $((r % 2)) -eq 0 ]; then sides="a b"; else sides="b a"; fi
    for side in $sides; do
        for w in "$@"; do
            echo "ab: pair $r side $side $w" >&2
            "$work/target-$side/release/forty-benchmark" run --workload "$w" \
                --seed $((seed + r)) --seconds "$seconds" \
                --out "$work/$side" --tag "run$r" >"$work/$side.$w.run$r.log"
        done
    done
    r=$((r + 1))
done
"$work/target-b/release/forty-benchmark" compare "$work/a" "$work/b"
