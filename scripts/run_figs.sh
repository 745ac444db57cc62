#!/usr/bin/env bash
# Regenerates the figure and ablation tables: builds every bench bin
# offline, then runs the 16 bins EXPERIMENTS.md reads, each once, into
# results/<bin>.txt.
#
#   scripts/run_figs.sh
#
# The build runs from benchmark/, whose .cargo/config.toml resolves the
# external crates to the in-tree stand-ins, into the target directory
# benchmark/run.sh uses (CARGO_TARGET_DIR, default benchmark/target).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
[[ $target == /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target" CARGO_HOME="$target/cargo-home"
(cd "$root/benchmark" && cargo build --release --offline -p bench --bins)
cd "$root"
mkdir -p results

# run <repeats> <bin>...: one run per bin at 100 slots.
run() {
  local repeats=$1
  shift
  for bin in "$@"; do
    echo "=== $bin start $(date +%T) ==="
    LEXCACHE_REPEATS=$repeats LEXCACHE_SLOTS=100 \
      "$target/release/$bin" >"results/$bin.txt" 2>&1
    echo "=== $bin done $(date +%T) ==="
  done
}

run 8 fig3 fig4 fig5 fig6 fig7 regret_bound summary prediction_mae
run 5 ablation_epsilon ablation_lambda ablation_predictor \
  ablation_delay_model ablation_estimator ablation_cache
run 6 ablation_topology
