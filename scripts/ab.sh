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
# whether every shared seed's sim_fingerprint matches. Then one line per
# (workload, end-to-end metric) with the inputs of the rule for claiming a
# gain, read from the result files: the pairs (runs of one seed) the working
# tree won, ties counting for neither side; the ratio of the medians; and
# whether the medians lie further apart than the parent's q1..q3 distance.
# Exit status is compare's. Run from anywhere inside the repo.
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
status=0
"$work/target-b/release/forty-benchmark" compare "$work/a" "$work/b" || status=$?
python3 - "$work/a" "$work/b" BENCHMARK.json <<'EOF'
import glob, json, statistics, sys

a_dir, b_dir, spec = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}


def load(side):
    """(workload, seed) -> {metric: value}, untraced runs only."""
    runs = {}
    for path in glob.glob(side + "/*.json"):
        doc = json.load(open(path))
        if doc.get("trace") is False:
            runs[doc["workload"], doc["seed"]] = {
                k: m["value"] for k, m in doc["metrics"].items() if "value" in m
            }
    return runs


a, b = load(a_dir), load(b_dir)
print("\nclaim rule: pairs won by the working tree (ties count for neither), "
      "median b/a, medians further apart than the parent's q1..q3")
for workload in sorted({w for w, _ in a}):
    seeds = sorted(s for w, s in a if w == workload and (w, s) in b)
    for metric, way in better.items():
        pairs = [(a[workload, s].get(metric), b[workload, s].get(metric)) for s in seeds]
        pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
        if not pairs:
            continue
        sign = 1 if way == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in pairs)
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        ma, mb = statistics.median(xs), statistics.median(ys)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (ma, ma, ma)
        ratio = mb / ma if ma else float("nan")
        beyond = "yes" if abs(mb - ma) > q3 - q1 else "no"
        print(f"{workload:<18} {metric:<22} won {won:>2} of {len(pairs):<2} "
              f"b/a {ratio:7.4f}  beyond parent q1..q3: {beyond}")
EOF
exit $status
