#!/usr/bin/env bash
# Ablation matrix over similarity function and loss terms, multiple seeds.
# Runs the code of the checkout the script is in, with one BLAS thread.
# Usage: scripts/run_ablations.sh [output-root] [seeds]
set -euo pipefail

OUT="${1:-runs/ablation}"
SEEDS="${2:-3}"

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1
protoreg() { python3 -m protoreg.cli "$@"; }

if [[ ! -f "$OUT/data/train.insd" ]]; then
  protoreg gen-data --out "$OUT/data"
fi
protoreg ablate --data "$OUT/data" --out "$OUT/ablate" --seeds "$SEEDS"
