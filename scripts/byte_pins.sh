#!/usr/bin/env bash
# Byte pins of the default pipeline: gen-data, train, eval, explain and embed on
# the default config with one BLAS thread, then a short training run with
# augmentation and continuous labels, a small ablation matrix, an eval and
# embed on a 1000-image test split, a dataset off the default sizes, the
# grad-check suites and explanations on the 1000-image split, then the sha256
# of every output that the numerics decide. A change that leaves the numerics
# alone prints the same lines before and after it. Ends by writing
# "digest <sha256 of those lines>" to stderr, the one value to compare. Runs
# the code of the checkout the script is in.
# Usage: scripts/byte_pins.sh [out-root], where out-root is new or empty.
set -euo pipefail

OUT="${1:-runs/byte_pins}"
# the globs below would also hash files that an earlier run left there
if [ -e "$OUT" ] && [ -n "$(ls -A "$OUT")" ]; then
  echo "error: out-root $OUT is not empty; give a new or empty one" >&2
  exit 2
fi
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1

protoreg() { python3 -m protoreg.cli "$@" > /dev/null; }

protoreg gen-data --out "$OUT/data"
protoreg train --data "$OUT/data" --out "$OUT/run"
protoreg eval --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" --out "$OUT/eval"
protoreg explain --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" \
  --sample-ids 0,7,123 --out "$OUT/explain"
protoreg embed --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" --out "$OUT/embed"
# every one of the m = 10 default prototypes' maps, not only the top three
protoreg explain --checkpoint "$OUT/run/checkpoint.bin" --data "$OUT/data" \
  --sample-ids 0 --top-k 10 --out "$OUT/explain_all"

# data.augment and data.continuous on the ablation-sized split with one short
# cycle, so augmented batches and continuous labels are pinned as well
mkdir -p "$OUT/augment"
cat > "$OUT/augment/config.json" <<'EOF'
{"data": {"train_per_grade": 10, "test_per_grade": 10, "augment": true, "continuous": true},
 "train": {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 1, "lastlayer_epochs": 1}}
EOF
protoreg gen-data --config "$OUT/augment/config.json" --out "$OUT/augment/data"
protoreg train --config "$OUT/augment/config.json" --data "$OUT/augment/data" \
  --out "$OUT/augment/run"

# the six ablation cells on a small split, so the log-similarity, k=1 and
# zero-weight loss branches are pinned as well
mkdir -p "$OUT/ablate"
cat > "$OUT/ablate/config.json" <<'EOF'
{"data": {"train_per_grade": 10, "test_per_grade": 10},
 "train": {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 1, "lastlayer_epochs": 1}}
EOF
protoreg gen-data --config "$OUT/ablate/config.json" --out "$OUT/ablate/data"
protoreg ablate --config "$OUT/ablate/config.json" --data "$OUT/ablate/data" \
  --out "$OUT/ablate/out"

# eval and embed at the size the benchmark's explain workload measures: a
# 1000-image test split, scored by a model of one short cycle
mkdir -p "$OUT/large"
cat > "$OUT/large/config.json" <<'EOF'
{"data": {"test_per_grade": 200},
 "train": {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 1, "lastlayer_epochs": 1}}
EOF
protoreg gen-data --config "$OUT/large/config.json" --out "$OUT/large/data"
protoreg train --config "$OUT/large/config.json" --data "$OUT/large/data" \
  --out "$OUT/large/run"
protoreg eval --checkpoint "$OUT/large/run/checkpoint.bin" --data "$OUT/large/data" \
  --out "$OUT/large/eval"
protoreg embed --checkpoint "$OUT/large/run/checkpoint.bin" --data "$OUT/large/data" \
  --out "$OUT/large/embed"
# explanations read image by image: both edges of the first chunk boundary and
# the last image, pinned as one line, the sha256 list of every file written
protoreg explain --checkpoint "$OUT/large/run/checkpoint.bin" --data "$OUT/large/data" \
  --sample-ids 0,63,64,999 --out "$OUT/large/explain"
(cd "$OUT/large/explain" && sha256sum explanation_*.json *.pgm) > "$OUT/large/explain.sha256"

# a dataset off the defaults that every run above keeps: a non-square image,
# one channel, other grade and blob counts, a narrower radius and no noise
mkdir -p "$OUT/offdefault"
cat > "$OUT/offdefault/config.json" <<'EOF'
{"data": {"image_hw": [24, 40], "channels": 1, "grades": 4, "train_per_grade": 10,
          "test_per_grade": 5, "blobs_per_grade": 3, "blob_radius": [1.5, 2.5],
          "noise_sigma": 0.0, "seed": 5}}
EOF
protoreg gen-data --config "$OUT/offdefault/config.json" --out "$OUT/offdefault/data"

# the finite-difference suites' report, so the ops and losses they run are pinned too
python3 -m protoreg.cli grad-check > "$OUT/grad_check.txt"

cd "$OUT"
PINS="$(sha256sum run/checkpoint.bin eval/metrics.json run/training_log.csv eval/per_sample.csv \
  explain/explanation_*.json explain/*.pgm \
  embed/embedding.csv embed/embedding.svg embed/usage_histogram.svg \
  run/checkpoint_c*_*.bin run/projection_report.json ablate/out/ablation.csv \
  large/eval/metrics.json large/eval/per_sample.csv \
  large/embed/embedding.csv large/embed/embedding.svg large/embed/usage_histogram.svg \
  data/*.insd ablate/data/*.insd large/data/*.insd \
  explain_all/explanation_*.json explain_all/*.pgm \
  augment/run/checkpoint.bin augment/run/training_log.csv \
  offdefault/data/*.insd grad_check.txt large/explain.sha256)"
printf '%s\n' "$PINS"
echo "digest $(printf '%s\n' "$PINS" | sha256sum | cut -d' ' -f1)" >&2
