#!/bin/sh
# One command for a host profile of a benchmark workload: builds prof.so and
# a debuginfo benchmark/ under $TMPDIR (default /tmp; never benchmark/target),
# runs the workload under LD_PRELOAD and prints report.py's tables for the
# timed part (`Cluster<P>::run`, or `Store<E>::run` for store-txn). Extra
# arguments replace report.py's default filters.
# Usage: scripts/hostprof/run.sh <workload> [seconds=12] [report.py args...]
set -eu
usage="usage: scripts/hostprof/run.sh <workload> [seconds=12] [report.py args...]"
workload=${1:?$usage}
seconds=${2:-12}
shift
[ $# -gt 0 ] && shift
# The timed part: the SMR workloads drive a `Cluster`, store-txn a `Store`.
case $workload in store-*) timed='Store<E>::run' ;; *) timed='Cluster<P>::run' ;; esac
[ $# -gt 0 ] || set -- --under "$timed" --top 15
here=$(cd "$(dirname "$0")" && pwd)
work=${TMPDIR:-/tmp}/forty-hostprof
mkdir -p "$work"

gcc -O2 -shared -fPIC -o "$work/prof.so" "$here/prof.c"
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR=$work/target \
    cargo build --release --offline --quiet --manifest-path "$here/../../benchmark/Cargo.toml"
PROF_OUT=$work/$workload.prof LD_PRELOAD=$work/prof.so \
    "$work/target/release/forty-benchmark" run --workload "$workload" --seed "${SEED:-1}" \
    --seconds "$seconds" --out "$work/out" >"$work/$workload.log"
"$here/report.py" "$work/$workload.prof" "$@"
