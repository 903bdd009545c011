#!/usr/bin/env bash
# Ablation matrix over similarity function and loss terms, multiple seeds.
# Usage: scripts/run_ablations.sh [output-root] [seeds]
set -euo pipefail

OUT="${1:-runs/ablation}"
SEEDS="${2:-3}"

if [[ ! -f "$OUT/data/train.insd" ]]; then
  protoreg gen-data --out "$OUT/data"
fi
protoreg ablate --data "$OUT/data" --out "$OUT/ablate" --seeds "$SEEDS"
