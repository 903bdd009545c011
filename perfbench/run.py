#!/usr/bin/env python3
"""Benchmark for protoreg: the train, explain and ablate workloads.

    python3 perfbench/run.py --workload {train,explain,ablate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; protoreg is imported from ``src/``.
The benchmark writes seeded config files, drives the program through
``protoreg.cli.main`` (in process) or the library calls its commands make,
checks every output against ``reference.py``, and prints one JSON object as
the last line of standard output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Every workload runs the same stages (set-up, then train, eval, explain,
embed and ablate) so that every run reports every end-to-end metric; the
workloads differ in sizes and in which stage takes most of the time. The
number of timed units per stage depends only on ``--seconds``, never on
measured speed, and each timed metric is the 90th percentile over those
units. With ``--trace 1`` every other unit runs under the span tracer and
the run prints the per-layer table instead (see README.md).
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread, the program's default worker count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("PROTOREG_THREADS", "PROTOREG_OUT_ROOT"):
    os.environ.pop(_var, None)

import argparse
import contextlib
import copy
import importlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = ("engine", "backbone", "prototypes", "head", "losses", "data", "model",
           "trainer", "metrics", "explain", "reports", "config", "cli")

REF_SECONDS = 45  # unit counts below are sized for a run of this length
SETUP_REPS = 3
CHECK_SAMPLES = 4  # images per plain-numpy forward check
EXPLAIN_CHUNK = 100  # explanations per explain unit: ten beyond each unit's p90
# test MAE must beat the constant predictor by this much (README, quality block)
MAE_MARGIN = 0.1

SHORT_SCHEDULE = {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 1, "lastlayer_epochs": 1}
WARM_SCHEDULE = {"cycles": 1, "joint_epochs": 1, "warmup_epochs": 0, "lastlayer_epochs": 1}
ABLATE_CONFIG = {"data": {"train_per_grade": 20, "test_per_grade": 20},
                 "train": {"cycles": 2, "joint_epochs": 2, "warmup_epochs": 1,
                           "lastlayer_epochs": 1}}
# the ablate stage of the other workloads: a matrix that takes about a quarter of
# the time, so that its units are short enough to be spread over the whole run
SMALL_ABLATE_CONFIG = {"data": {"train_per_grade": 10, "test_per_grade": 10},
                       "train": {"cycles": 1, "joint_epochs": 2, "warmup_epochs": 1,
                                 "lastlayer_epochs": 1}}
# the six cells of ``protoreg ablate``, written out apart from the program
VARIANTS = [
    ("base", {}),
    ("log_similarity", {"model": {"similarity": "log"}}),
    ("no_psd", {"loss": {"alpha_psd": 0.0}}),
    ("no_clst", {"loss": {"alpha_clst": 0.0}}),
    ("no_clst_no_psd", {"loss": {"alpha_clst": 0.0, "alpha_psd": 0.0}}),
    ("k1", {"loss": {"k": 1}}),
]

# main: config overrides of the workload's own data, model and schedule.
# ablate: the config of the workload's ablate stage.
# units: timed units per stage at REF_SECONDS (an explain unit is EXPLAIN_CHUNK
# explanations). Every stage gets ten units or more, so that each metric
# samples the whole run. The eval, explain and embed stages read the
# checkpoint that set-up trains on ``explain`` and ``ablate``, and that the
# train stage's warm-up writes on ``train``, where set-up trains nothing.
WORKLOADS = {
    "train": {"main": {}, "ablate": SMALL_ABLATE_CONFIG,
              "units": {"train": 5, "eval": 30, "explain": 20, "embed": 24, "ablate": 12}},
    "explain": {"main": {"data": {"test_per_grade": 200}, "train": SHORT_SCHEDULE},
                "ablate": SMALL_ABLATE_CONFIG,
                "units": {"train": 10, "eval": 16, "explain": 44, "embed": 16, "ablate": 12}},
    "ablate": {"main": ABLATE_CONFIG, "ablate": ABLATE_CONFIG,
               "units": {"train": 20, "eval": 30, "explain": 20, "embed": 30, "ablate": 16}},
}

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s", "explain_ms_p50": "ms", "explain_ms_p90": "ms",
    "embed_s": "s", "ablate_cells_per_s": "cells/s",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("gflops", "GFLOP/s"),
                         ("_per_batch", "count"), ("_share", "ratio"), ("_pct", "%")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    raise ValueError(f"no unit for per-layer metric {name}")


def merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        out[key] = merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def seeded(override: dict, seed: int) -> dict:
    """Config overrides with every seed of the program taken from the workload seed."""
    return merge(override, {"data": {"seed": seed}, "model": {"seed": seed},
                            "train": {"seed": seed}})


def import_protoreg() -> SimpleNamespace:
    """Import protoreg afresh from ``src/`` (drops modules left by an earlier import)."""
    for name in [m for m in sys.modules if m == "protoreg" or m.startswith("protoreg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"protoreg.{m}") for m in MODULES})


def cli(pr, *argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pr.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"protoreg {' '.join(map(str, argv))} exited with {code}")


class Ops:
    """Operations attempted and failed, and the problems found by the checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def attempt(self, what: str, fn) -> bool:
        self.attempted += 1
        try:
            fn()
            return True
        except (ValueError, RuntimeError, OSError) as e:
            self.failed += 1
            print(f"operation failed: {what}: {e}", file=sys.stderr)
            return False

    def check(self, problems: list[str]) -> None:
        self.problems += problems


def read_csv_numbers(path: Path, header: str, numeric: slice) -> list[list[float]]:
    """Read back a CSV the program wrote; every field in ``numeric`` must be a number."""
    lines = path.read_text().splitlines()
    if lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    return [[float(v) for v in line.split(",")[numeric]] for line in lines[1:]]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.trace = workload, seed, trace
        plan = WORKLOADS[workload]
        self.units = {stage: max(2, round(n * seconds / REF_SECONDS))
                      for stage, n in plan["units"].items()}
        self.work = OUT_DIR / f"{workload}-s{seed}-p{os.getpid()}"
        self.main_cfg = seeded(plan["main"], seed)
        self.ablate_cfg = seeded(plan["ablate"], seed)
        self.ops = Ops()
        self.times: dict[str, list[tuple[float, bool]]] = {}
        self.tracer = None

    # -- set-up ---------------------------------------------------------------------

    def path(self, *parts) -> Path:
        return self.work.joinpath(*parts)

    def set_up(self, traced: bool) -> float:
        """Import, write configs, gen-data, read the splits, train if needed."""
        t0 = time.perf_counter()
        self.pr = pr = import_protoreg()
        self.tracer = tracing.Tracer(pr) if traced else None
        with self.traced("bench.setup", traced):
            self.path().mkdir(parents=True, exist_ok=True)
            configs = {"main": self.main_cfg, "ablate": self.ablate_cfg,
                       "warm": merge(self.main_cfg, {"train": WARM_SCHEDULE})}
            for name, cfg in configs.items():
                self.path(f"{name}.json").write_text(json.dumps(cfg, indent=2))
            cli(pr, "gen-data", "--config", self.path("main.json"), "--out", self.path("data"))
            if self.ablate_cfg != self.main_cfg:
                cli(pr, "gen-data", "--config", self.path("ablate.json"),
                    "--out", self.path("ablate_data"))
            self.train_ds = pr.data.load_dataset(self.path("data", "train.insd"), split="train")
            self.test_ds = pr.data.load_dataset(self.path("data", "test.insd"), split="test")
            self.cfg = pr.config.load_config(self.path("main.json"))
            if self.name != "train":
                self.path("run").mkdir(exist_ok=True)
                pr.cli.train_run(self.cfg, self.train_ds, self.path("run"))
        return time.perf_counter() - t0

    @property
    def ablate_dir(self) -> Path:
        return self.path("data" if self.ablate_cfg == self.main_cfg else "ablate_data")

    # -- timed stages -----------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, name: str, on: bool):
        """With ``on``, run the block under the tracer, inside a span of its own."""
        if not on:
            yield
            return
        with self.tracer.active(), self.tracer.span(name):
            yield

    def timed(self, units: dict) -> None:
        """Run every stage's units, each stage's spread evenly over the timeline.

        Interleaving the stages lets every timed metric sample the whole run, so
        a slow phase of the machine that lasts a few seconds lands on all of
        them alike. In trace mode each stage's odd units run traced.
        """
        tasks = sorted(((i + 0.5) / self.units[stage], k, stage)
                       for k, stage in enumerate(units) for i in range(self.units[stage]))
        for _, _, stage in tasks:
            times = self.times.setdefault(stage, [])
            traced = self.tracer is not None and len(times) % 2 == 1
            with self.traced(f"bench.{stage}", traced):
                t0 = time.perf_counter()
                units[stage]()
                times.append((time.perf_counter() - t0, traced))

    def stage_train(self):
        """Units of one training protocol as ``protoreg train`` runs it."""
        warm, warm_out = self.pr.config.load_config(self.path("warm.json")), None
        if self.name == "train":  # the checkpoint the eval, explain and embed stages read
            warm_out = self.path("run")
            warm_out.mkdir(exist_ok=True)
        self.pr.cli.train_run(warm, self.train_ds, warm_out)
        out = self.path("train_run")
        out.mkdir(exist_ok=True)
        self.train_s: list[float] = []  # seconds per protocol

        def unit():
            self.ops.attempted += 1
            t0 = time.perf_counter()
            self.model, self.log = self.pr.cli.train_run(self.cfg, self.train_ds, out)
            self.train_s.append(time.perf_counter() - t0)
            self.train_samples = len(self.log.epochs) * len(self.train_ds)
            self.ops.attempt("read back training_log.csv", lambda: read_csv_numbers(
                out / "training_log.csv", "cycle,stage,epoch,mse,clst,psd,total", slice(3, 7)))
        return unit

    def stage_eval(self):
        args = ("eval", "--checkpoint", self.path("run", "checkpoint.bin"),
                "--data", self.path("data"), "--out", self.path("eval"))
        cli(self.pr, *args)

        def unit():
            if self.ops.attempt("protoreg eval", lambda: cli(self.pr, *args)):
                self.ops.attempt("read back per_sample.csv", lambda: read_csv_numbers(
                    self.path("eval", "per_sample.csv"), "sample_id,y,y_hat,abs_err,s_spars",
                    slice(0, 5)))
        return unit

    def explain_one(self, sid: int, top_k: int = 3):
        """One explanation as ``protoreg explain`` renders it: JSON document and PGM maps."""
        pr, ds = self.pr, self.test_ds
        exp = pr.explain.explain(ds.images[sid], sid, float(ds.y[sid]), self.explain_model,
                                 top_k=top_k)
        doc = exp.to_json_dict()
        maps = []
        for r in doc["records"]:
            rec = next(x for x in exp.records if x.index == r["prototype"])
            maps.append(pr.explain.to_pgm_bytes(rec.activation_map))
            r["activation_map_file"] = f"sample{sid}_proto{r['prototype']}.pgm"
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return exp, text, maps

    def stage_explain(self):
        self.explain_model, _ = self.pr.model.load_checkpoint(self.path("run", "checkpoint.bin"))
        for sid in range(EXPLAIN_CHUNK):
            self.explain_one(sid % len(self.test_ds))
        self.explain_ms: list[list[float]] = []  # per unit, ms per explanation
        self.explained: dict = {}  # sample id -> (JSON text, all fractions, PGM maps)
        ids = itertools.count()

        def unit():
            self.explain_ms.append([])
            for _ in range(EXPLAIN_CHUNK):
                sid = next(ids) % len(self.test_ds)
                self.ops.attempted += 1
                t0 = time.perf_counter()
                exp, text, maps = self.explain_one(sid)
                self.explain_ms[-1].append((time.perf_counter() - t0) * 1e3)
                self.explained[sid] = (text, exp.all_fractions, maps)
        return unit

    def stage_embed(self):
        args = ("embed", "--checkpoint", self.path("run", "checkpoint.bin"),
                "--data", self.path("data"), "--out", self.path("embed"))
        cli(self.pr, *args)
        return lambda: self.ops.attempt("protoreg embed", lambda: cli(self.pr, *args))

    def stage_ablate(self):
        def unit():
            if self.ops.attempt("protoreg ablate", lambda: cli(
                    self.pr, "ablate", "--config", self.path("ablate.json"),
                    "--data", self.ablate_dir, "--out", self.path("ablate"))):
                self.ops.attempt("read back ablation.csv", self.read_ablation)
        return unit

    def read_ablation(self) -> None:
        lines = (self.path("ablate", "ablation.csv")).read_text().splitlines()
        cols = lines[0].split(",")
        self.ablation_rows = []
        for line in lines[1:]:
            row = dict(zip(cols, line.split(",")))
            for key in ("alpha_clst", "alpha_psd", "mae", "accuracy", "s_spars_mean"):
                row[key] = float(row[key])
            for key in ("k", "seed", "diversity"):
                row[key] = int(row[key])
            self.ablation_rows.append(row)

    # -- checks -----------------------------------------------------------------------

    def sample_ids(self, n: int) -> list[int]:
        rng = np.random.default_rng(self.seed)
        return sorted(rng.choice(n, size=min(CHECK_SAMPLES, n), replace=False).tolist())

    def check_training(self) -> None:
        pr, ops = self.pr, self.ops
        run_dir = self.path("train_run")
        projections = sorted(run_dir.glob("checkpoint_c*_projection.bin"))
        if not projections:
            ops.problems.append("no projection checkpoint written")
        for path in projections + [run_dir / "checkpoint.bin"]:
            model, _ = pr.model.load_checkpoint(path)
            header, tensors = reference.read_checkpoint(path)
            latents = model.latents_np(self.train_ds.images)
            ops.check([f"{path.name}: {p}" for p in
                       reference.check_projection(header, tensors, latents)])
        if self.name != "train" and (run_dir / "checkpoint.bin").read_bytes() != \
                self.path("run", "checkpoint.bin").read_bytes():
            ops.problems.append("retraining with the same config and seeds changed the checkpoint")
        reloaded, _ = pr.model.load_checkpoint(run_dir / "checkpoint.bin")
        y_mem = self.model.predict_np(self.test_ds.images)
        y_hat = reloaded.predict_np(self.test_ds.images)
        if y_mem.tobytes() != y_hat.tobytes():
            ops.problems.append("reloaded checkpoint predicts differently from the trained model")
        # the MAE margin and the falling loss hold for the full default protocol;
        # the short set-up schedules of the other workloads get the range check only
        full = self.name == "train"
        ops.check(reference.check_predictions(y_hat, header["labels"], self.train_ds.y,
                                              self.test_ds.y, MAE_MARGIN if full else None))
        if full and not self.log.epochs[-1]["total"] < self.log.epochs[0]["total"]:
            ops.problems.append("total loss of the last epoch is not below the first")
        y_w, weights = pr.metrics.per_sample_weights(reloaded, self.test_ds)
        ops.check(reference.check_forward(header, tensors, self.test_ds.images,
                                          self.sample_ids(len(self.test_ds)), y_w, weights))

    def check_outputs(self) -> None:
        pr, ops = self.pr, self.ops
        ckpt = self.path("run", "checkpoint.bin")
        header, tensors = reference.read_checkpoint(ckpt)
        model, _ = pr.model.load_checkpoint(ckpt)
        y_hat, weights = pr.metrics.per_sample_weights(model, self.test_ds)
        ids = self.sample_ids(len(self.test_ds))
        ops.check(reference.check_forward(header, tensors, self.test_ds.images, ids,
                                          y_hat, weights))

        result = json.loads(self.path("eval", "metrics.json").read_text())
        ops.check(reference.check_eval_metrics(result, weights))
        if abs(result["mae"] - float(np.mean(np.abs(y_hat - self.test_ds.y)))) > 1e-12:
            ops.problems.append(f"metrics.json MAE {result['mae']!r} differs from predictions")

        h, w = self.test_ds.images.shape[2:]
        pgm_header = f"P5\n{w} {h}\n255\n".encode()
        for sid, (text, fractions, maps) in self.explained.items():
            ops.check(reference.check_explanation(json.loads(text), fractions, weights[sid]))
            if any(m[:len(pgm_header)] != pgm_header or len(m) != len(pgm_header) + h * w
                   for m in maps):
                ops.problems.append(f"sample {sid}: malformed PGM map")
        m = len(header["labels"])
        for sid in ids:
            exp, text, _ = self.explain_one(sid, top_k=m)
            ops.check(reference.check_explanation(json.loads(text), exp.all_fractions,
                                                  weights[sid], tensors))

        latents = model.latents_np(self.test_ds.images)
        n, c_z, h, w = latents.shape
        top5 = [pr.metrics.top_contributor_set(row) for row in weights]
        report = pr.metrics.pca_embed(latents.transpose(0, 2, 3, 1).reshape(-1, c_z),
                                      np.repeat(np.arange(n), h * w),
                                      np.repeat(self.test_ds.y, h * w), model.bank, top5)
        ops.check(reference.check_embedding(report, weights))
        if self.path("embed", "embedding.csv").read_text() != pr.reports.embedding_csv(report):
            ops.problems.append("embedding.csv differs from the embedding report")

    def check_ablation(self) -> None:
        pr, ops = self.pr, self.ops
        rows = self.ablation_rows
        if [r["variant"] for r in rows] != [name for name, _ in VARIANTS]:
            ops.problems.append(f"ablation variants {[r['variant'] for r in rows]}")
            return
        test = pr.data.load_dataset(self.ablate_dir / "test.insd")
        base = pr.config.resolve_config(self.ablate_cfg)
        lo, hi = base["model"]["label_lo"], base["model"]["label_hi"]
        max_err = max(hi - test.y.min(), test.y.max() - lo)
        for row in rows:
            ops.check(reference.check_ablation_row(row, base["model"]["m"], max_err))
        name, override = VARIANTS[self.seed % len(VARIANTS)]
        cell = pr.config.resolve_config(merge(self.ablate_cfg, override))
        row = rows[self.seed % len(VARIANTS)]
        expect = {"similarity": cell["model"]["similarity"], "k": cell["loss"]["k"],
                  "alpha_clst": cell["loss"]["alpha_clst"],
                  "alpha_psd": cell["loss"]["alpha_psd"], "seed": cell["train"]["seed"]}
        if any(row[k] != v for k, v in expect.items()):
            ops.problems.append(f"ablation row {name} does not describe its cell: {row}")
        self.path("cell.json").write_text(json.dumps(cell))
        cli(pr, "train", "--config", self.path("cell.json"), "--data", self.ablate_dir,
            "--out", self.path("cell"))
        cli(pr, "eval", "--checkpoint", self.path("cell", "checkpoint.bin"),
            "--data", self.ablate_dir, "--out", self.path("cell_eval"))
        alone = json.loads(self.path("cell_eval", "metrics.json").read_text())
        for key in ("mae", "accuracy", "s_spars_mean", "diversity"):
            if alone[key] != row[key]:
                ops.problems.append(f"ablation cell {name}: {key} {row[key]!r} in the matrix, "
                                    f"{alone[key]!r} when run alone")

    # -- one run ----------------------------------------------------------------------

    def execute(self) -> dict:
        setup_s = [self.set_up(traced=self.trace and rep == SETUP_REPS - 1)
                   for rep in range(SETUP_REPS)]
        self.timed({"train": self.stage_train(), "eval": self.stage_eval(),
                    "explain": self.stage_explain(), "embed": self.stage_embed(),
                    "ablate": self.stage_ablate()})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before checks
        self.check_training()
        self.check_outputs()
        self.check_ablation()
        for p in self.ops.problems:
            print(f"check failed: {p}", file=sys.stderr)
        print("timed seconds: " + ", ".join(f"{stage} {sum(t for t, _ in times):.2f}"
                                            for stage, times in self.times.items()),
              file=sys.stderr)
        if self.trace:
            metrics = self.layer_metrics()
        else:
            metrics = self.end_to_end(setup_s, peak_rss_mb)
        return {"correct": not self.ops.problems, "attempted": self.ops.attempted,
                "failed": self.ops.failed, "metrics": metrics}

    def untraced(self, stage: str) -> list[float]:
        return [t for t, traced in self.times[stage] if not traced]

    def end_to_end(self, setup_s: list[float], peak_rss_mb: float) -> dict:
        """The 90th percentile over units of each unit's value, not the median.

        The machine switches between a fast and a slow state, about 1.7 times
        apart, for seconds at a time; each short unit falls wholly in one of
        them, and the share of time in the fast state varied from 0.07 to 0.86
        between runs. A median over units jumps from one state to the other
        when that share nears one half; the 90th percentile stays in the slow
        state unless the fast state holds most of the run (README, Reference
        figures). Every unit of a stage does the same work, so a
        throughput is that work over the 90th-percentile unit time.
        """
        def p90(values) -> float:
            return statistics.quantiles(values, n=10, method="inclusive")[8]

        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "train_samples_per_s": self.train_samples / p90(self.train_s),
            "eval_samples_per_s": len(self.test_ds) / p90(self.untraced("eval")),
            "explain_ms_p50": p90([statistics.median(ms) for ms in self.explain_ms]),
            "explain_ms_p90": p90([statistics.quantiles(ms, n=10)[8] for ms in self.explain_ms]),
            "embed_s": p90(self.untraced("embed")),
            "ablate_cells_per_s": len(VARIANTS) / p90(self.untraced("ablate")),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def layer_metrics(self) -> dict:
        blocks, in_ch = [], self.cfg["data"]["channels"]
        for out_ch, kernel, _ in self.cfg["model"]["backbone_blocks"]:
            blocks.append([out_ch, in_ch, kernel, kernel])
            in_ch = out_ch
        values = tracing.layer_metrics(self.tracer.spans, blocks)
        traced = untraced = 0.0
        for stage, times in self.times.items():
            on = [t for t, tr in times if tr]
            off = [t for t, tr in times if not tr]
            traced += statistics.median(on) * len(times)
            untraced += statistics.median(off) * len(times)
        values["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        OUT_DIR.mkdir(exist_ok=True)
        self.tracer.write(OUT_DIR / f"trace-{self.name}-s{self.seed}.jsonl")
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "protoreg" / "__init__.py").is_file():
        print(f"error: no protoreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
