#!/usr/bin/env bash
# Regenerates every table and figure of the paper. Outputs land in
# results/*.tsv and on stdout. Scale with GASS_SCALE / GASS_QUERIES.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(
  fig04_complexity
  table1_pruning
  fig05_nd
  fig06_ss
  table2_ss_indexing
  fig07_index_time
  fig11_beam_width
  fig12_search_1m
  fig13_search_25g
  fig15_hardness
  fig17_impl_opt
  table3_summary
  fig01_bsf_race
  fig08_index_memory
  fig09_index_size
  fig10_query_memory
  fig14_search_100g
  fig16_search_1b
  fig18_recommend
)

cargo build --release -p gass-bench --bins
for bin in "${BINS[@]}"; do
  echo "================================================================"
  echo "== $bin"
  echo "================================================================"
  cargo run --release -q -p gass-bench --bin "$bin"
done
