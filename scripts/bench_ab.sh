#!/usr/bin/env bash
# A/B of two checkouts on the repo's benchmark (BENCHMARK.json), the way
# choosing-metrics §8 asks for it: one seed at a time, sides alternating by
# seed parity (odd seeds parent first, even seeds change first), every
# workload per seed through each checkout's own `benchmark/sweep`; then
# `benchmark/compare` over all runs, a per-seed pairs table for the two
# timing metrics, a bit-identity check of the four counted metrics, and one
# traced run per side on one workload for the per-layer rows.
#
#   scripts/bench_ab.sh PARENT_DIR CHANGE_DIR OUT_DIR [FIRST_SEED] [SEEDS] [TRACED_WORKLOAD]
#
# Uses `benchmark/` of each checkout as is and changes nothing in it. Both
# benchmarks are built before the first timed run. Everything is printed to
# stdout; the raw runs stay in OUT_DIR/{parent,change}.jsonl (appended to,
# so delete them to start over).
set -euo pipefail

parent=$(realpath "$1")
change=$(realpath "$2")
out=$(realpath -m "$3")
first=${4:-1}
seeds=${5:-10}
traced=${6:-gist-pq}
mkdir -p "$out"

bench() { # checkout, extra arguments of the benchmark command
    (cd "$1" && shift && cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --bin gass-benchmark -- "$@")
}

for side in "$parent" "$change"; do
    (cd "$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

echo "parent = $(git -C "$parent" rev-parse --short HEAD)  change = $(git -C "$change" rev-parse --short HEAD)" \
    "$(git -C "$change" diff --quiet HEAD -- . ':!benchmark' || echo '+ uncommitted edits')"
echo "host: available_parallelism = $(nproc), $(uname -sr)"
echo "cpu: $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//');" \
    "SIMD flags: $(grep -m1 -o -w -E 'avx2|fma|avx512f|avx512bw|avx512vbmi' /proc/cpuinfo | tr '\n' ' ')"
echo "seeds $first..$((first + seeds - 1)), odd seeds parent first, even seeds change first"
echo

for ((seed = first; seed < first + seeds; seed++)); do
    order=(parent change)
    ((seed % 2 == 0)) && order=(change parent)
    for side in "${order[@]}"; do
        python3 "${!side}/benchmark/sweep" --out "$out/$side.jsonl" --first-seed "$seed" --seeds 1 \
            | sed "s/^/$side  /"
    done
done

echo
status=0
python3 "$change/benchmark/compare" "$out/parent.jsonl" "$out/change.jsonl" || status=$?
echo "(compare exit status $status)"
echo

python3 - "$out/parent.jsonl" "$out/change.jsonl" <<'EOF'
import json, sys

COUNTED = ["recall_at_10", "dists_per_query", "dists_p99", "bytes_per_vector"]
TIMED = {"qps_norm": "higher", "setup_s": "lower"}


def load(path):
    runs = {}
    for line in open(path):
        rec = json.loads(line)
        if not rec.get("trace"):
            runs[(rec["workload"], rec["seed"])] = {
                k: v["value"] for k, v in rec["result"]["metrics"].items()
            }
    return runs


a, b = load(sys.argv[1]), load(sys.argv[2])
pairs = sorted(set(a) & set(b))
workloads = sorted({w for w, _ in pairs}, key=[w for w, _ in pairs].index)

print("counted metrics, change vs parent per (workload, seed):")
for w in workloads:
    moved = [
        f"{m} seed {s}: {a[(w, s)][m]} -> {b[(w, s)][m]}"
        for (ww, s) in pairs if ww == w for m in COUNTED if a[(w, s)][m] != b[(w, s)][m]
    ]
    n = sum(1 for ww, _ in pairs if ww == w)
    print(f"  {w:<13} {'bit-identical on all ' + str(n) + ' seeds' if not moved else '; '.join(moved)}")

print("\npairs (change / parent, base parent; a win is the change reading better):")
for w in workloads:
    for m, better in TIMED.items():
        cells, wins, ties = [], 0, 0
        for (ww, s) in pairs:
            if ww != w:
                continue
            pa, ch = a[(w, s)][m], b[(w, s)][m]
            won = ch > pa if better == "higher" else ch < pa
            wins += won
            ties += ch == pa
            cells.append(f"{s}:{ch / pa:.3f}{'+' if won else '-'}")
        print(f"  {w:<13} {m:<9} wins {wins}/{len(cells)} ties {ties}   " + " ".join(cells))
EOF

echo
echo "per-layer, one traced run per side on $traced (seed $first; parent | change):"
for side in parent change; do
    bench "${!side}" --workload "$traced" --seed "$first" --seconds 12 --trace 1 \
        | awk '$1 == "metric" { print $2, $3, $4 }' | sort > "$out/trace.$side.txt"
done
join "$out/trace.parent.txt" "$out/trace.change.txt" \
    | awk '{ printf "  %-30s %14.6g | %14.6g %s\n", $1, $2, $4, $3 }'
exit "$status"
