#!/usr/bin/env python3
"""Quality block for the benchmark README (not a timed workload).

    python3 perfbench/quality.py

Trains the default config, and the same config with ``loss.k = 1``, once for
each of 20 seeds, with every program seed set from the workload seed as
``run.py`` does, and prints a Markdown block: MAE, mean sparsity and
diversity as mean ± sd, whether the k=1 trend (sparser and less diverse than
k=3) holds on average, and the MAE margin the ``train`` workload's check
uses. It takes about five minutes on a 2-core machine.
"""

from __future__ import annotations

import statistics
import sys

import run  # pins BLAS threads before numpy loads
import reference

SEEDS = range(1, 21)
FIELDS = ("mae", "s_spars_mean", "diversity")
SIGMAS = 5  # the margin leaves this many MAE standard deviations of room


def train_and_evaluate(pr, override: dict, seed: int) -> dict:
    cfg = pr.config.resolve_config(run.seeded(override, seed))
    train, test = pr.data.make_splits(pr.config.synth_config_from(cfg))
    model, _ = pr.cli.train_run(cfg, train)
    result = pr.metrics.evaluate(model, test, grades=cfg["data"]["grades"])
    result["constant_mae"] = reference.constant_mae(train.y, test.y)
    return result


def mean_sd(values) -> str:
    return f"{statistics.mean(values):.3f} ± {statistics.stdev(values):.3f}"


def main() -> int:
    seeds = list(SEEDS)
    sys.path.insert(0, str(run.ROOT / "src"))
    pr = run.import_protoreg()
    k3 = [train_and_evaluate(pr, {}, s) for s in seeds]
    k1 = [train_and_evaluate(pr, {"loss": {"k": 1}}, s) for s in seeds]

    print(f"Default config, seeds {seeds[0]}–{seeds[-1]} (mean ± sd):\n")
    print("| config | MAE | s_spars_mean | diversity |")
    print("|---|---|---|---|")
    for name, rows in (("k=3 (default)", k3), ("k=1", k1)):
        print(f"| {name} | " + " | ".join(mean_sd([r[f] for r in rows]) for f in FIELDS) + " |")
    per_seed = sum(a["s_spars_mean"] < b["s_spars_mean"] and a["diversity"] < b["diversity"]
                   for a, b in zip(k1, k3))
    avg = {f: (statistics.mean(r[f] for r in k1), statistics.mean(r[f] for r in k3))
           for f in ("s_spars_mean", "diversity")}
    holds = all(a < b for a, b in avg.values())
    print(f"\nk=1 sparser and less diverse than k=3 on average: {'yes' if holds else 'no'} "
          f"(s_spars_mean {avg['s_spars_mean'][0]:.3f} vs {avg['s_spars_mean'][1]:.3f}, "
          f"diversity {avg['diversity'][0]:.2f} vs {avg['diversity'][1]:.2f}; "
          f"both lower in {per_seed}/{len(seeds)} seeds).")
    maes = [r["mae"] for r in k3]
    base = statistics.mean(r["constant_mae"] for r in k3)
    room = base - (statistics.mean(maes) + SIGMAS * statistics.stdev(maes))
    print(f"\nConstant-predictor MAE {base:.3f}; highest default-config MAE {max(maes):.3f}. "
          f"Margin with {SIGMAS} sd of room: {room:.3f} (run.py uses MAE_MARGIN = "
          f"{run.MAE_MARGIN}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
