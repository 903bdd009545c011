#!/usr/bin/env bash
# Full pipeline on the default synthetic config:
# data generation -> training -> evaluation -> explanations -> embedding.
# Runs the code of the checkout the script is in, with one BLAS thread.
# Usage: scripts/run_experiment.sh [output-root] [extra config JSON path]
set -euo pipefail

OUT="${1:-runs/experiment}"
CONFIG_ARGS=()
if [[ $# -ge 2 ]]; then
  CONFIG_ARGS=(--config "$2")
fi

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1
protoreg() { python3 -m protoreg.cli "$@"; }

protoreg grad-check

protoreg gen-data "${CONFIG_ARGS[@]}" --out "$OUT/data"
protoreg train "${CONFIG_ARGS[@]}" --data "$OUT/data" --out "$OUT/run"
protoreg eval --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" --out "$OUT/eval"
protoreg explain --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" \
  --sample-ids 0,50,100,150,200 --out "$OUT/explain"
protoreg embed --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" --out "$OUT/embed"

echo "artifacts in $OUT"
