#!/usr/bin/env bash
# A/A check: the same build measured as two interleaved sets of runs
# (A B B A ...). Fails if any end-to-end metric's set medians differ by
# more than its bound, if a metric's spread exceeds its bound, or if a
# count that must repeat exactly differs. If setup_s fails, raise the
# fixed warm-up count of that workload, never the bound.
#
#   RUNS=5 benchmark/aa.sh      # runs per set per workload (at least 5)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-5}
WINDOW=${WINDOW:-20}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN=$CARGO_TARGET_DIR/release/e2e_budget
OUT=benchmark/out/aa
rm -rf "$OUT"
mkdir -p "$OUT"
: >"$OUT/A.json"
: >"$OUT/B.json"

# one <workload> <seed> <trace> <set>: one run, its record appended to the set.
one() {
    local suffix=""
    [ "$3" = 1 ] && suffix=".traced"
    "$BIN" --workload "$1" --seed "$2" --seconds "$WINDOW" --trace "$3" --out "$OUT" |
        tail -n 1 | sed "s/^/$4 $1 seed $2 trace $3: /"
    cat "$OUT/$1.$2$suffix.json" >>"$OUT/$4.json"
}

for workload in mm_grid lu_grid chol_qr_star plan_serve; do
    for ((i = 0; i < RUNS; i++)); do
        seed=$((1 + i % 2))
        if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
        for set in $order; do
            one "$workload" "$seed" 0 "$set"
        done
    done
    for seed in 1 2; do
        one "$workload" "$seed" 1 A
        one "$workload" "$seed" 1 B
    done
done

"$BIN" compare "$OUT/A.json" "$OUT/B.json"
