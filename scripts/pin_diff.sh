#!/usr/bin/env bash
# Byte pins of a git revision against those of this checkout: git-archives the
# revision under out-root, runs that tree's own scripts/byte_pins.sh and this
# checkout's into fresh out-roots beside it, and prints one line per pinned
# file name, "equal", "moved" (another sha256), "added" (pinned here only) or
# "removed" (pinned at the revision only), then both digests. Exits 0 when
# every line is equal, 1 otherwise, and 2 on a usage error, a non-empty
# out-root, an unknown revision or a byte_pins.sh run that fails (its stderr is
# kept in out-root). Needs git and the checkout's history, no network.
# Usage: scripts/pin_diff.sh <rev> <out-root>, where out-root is new or empty.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/pin_diff.sh <rev> <out-root>, where out-root is new or empty" >&2
  exit 2
fi
REV="$1"
OUT="$2"
if [ -e "$OUT" ] && [ -n "$(ls -A "$OUT")" ]; then
  echo "error: out-root $OUT is not empty; give a new or empty one" >&2
  exit 2
fi
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if ! git -C "$HERE" rev-parse --verify --quiet "$REV^{commit}" > /dev/null; then
  echo "error: $REV is not a commit of $HERE" >&2
  exit 2
fi
mkdir -p "$OUT/tree"
OUT="$(cd "$OUT" && pwd)"
git -C "$HERE" archive "$REV" | tar -x -C "$OUT/tree"

# pins <tree> <name>: <name>.txt holds the tree's pin lines, <name>.err its stderr
pins() {
  if ! "$1/scripts/byte_pins.sh" "$OUT/$2" > "$OUT/$2.txt" 2> "$OUT/$2.err"; then
    echo "error: byte_pins.sh failed in $1; its stderr is in $OUT/$2.err" >&2
    exit 2
  fi
}
pins "$OUT/tree" rev
pins "$HERE" here

status=0
awk 'FNR == NR { old[$2] = $1; names[++n] = $2; next }
     { new[$2] = $1; if (!($2 in old)) names[++n] = $2 }
     END {
       for (i = 1; i <= n; i++) {
         f = names[i]
         s = !(f in new) ? "removed" : !(f in old) ? "added" : old[f] == new[f] ? "equal" : "moved"
         if (s != "equal") bad = 1
         print s, f
       }
       exit bad
     }' "$OUT/rev.txt" "$OUT/here.txt" || status=1
echo "$REV $(grep '^digest ' "$OUT/rev.err")"
echo "checkout $(grep '^digest ' "$OUT/here.err")"
exit "$status"
