"""Command line surface.

Subcommands: gen-data, train, eval, explain, embed, ablate, grad-check.
Every command echoes the fully resolved config into its output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import gradcheck, metrics, reports, trainer
from .explain import explain, to_pgm_bytes
from .model import Model, load_checkpoint, save_checkpoint


# glibc mallopt parameters, and the size from which numpy asks for huge pages
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_LARGE_BLOCK = 4 << 20
# the largest trim threshold glibc's moving rule reaches, twice its 32 MiB
# mmap ceiling; a lower one shrinks and regrows the heap's top during training
_TRIM_THRESHOLD = 64 << 20


def pin_malloc_thresholds() -> bool:
    """Give every block of 4 MiB or more its own mapping, returned on free,
    and keep every thread's smaller blocks in one heap.

    By default glibc raises its mmap threshold to the largest block freed so
    far, so once a dataset-sized array is freed, later ones come from the
    heap. numpy marks such arrays for transparent huge pages, so the heap
    around them keeps 2 MiB pages for whatever lands there later, and a
    command's peak memory depended on the order of earlier frees and on how
    many huge pages the kernel had to spare. Fixed thresholds keep large
    arrays out of the heap. The workers of the no-grad passes (model._map_chunks)
    would each get an arena of their own, which holds its freed blocks and
    raised peak memory by a fifth; one arena keeps it where one thread had it.
    Returns False where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _LARGE_BLOCK)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_ARENA_MAX, 1))


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load_cfg(path: str | None) -> dict:
    return config_mod.load_config(path) if path else config_mod.resolve_config()


def _split_path(path: str, split: str) -> Path:
    """A .insd file, or a gen-data output dir's {split}.insd."""
    p = Path(path)
    if p.is_dir():
        p = p / f"{split}.insd"
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    return p


def _load_split(path: str, split: str) -> data_mod.SynthDataset:
    """The split at path (see _split_path), every image read."""
    return data_mod.load_dataset(_split_path(path, split), split=split)


def _open_split(path: str, split: str):
    """The split at path (see _split_path), open, its images read on demand."""
    return data_mod.open_dataset(_split_path(path, split), split=split)


def train_run(cfg: dict, train_ds, out: Path | None = None) -> tuple[Model, trainer.TrainLog]:
    """Train a model from a resolved config; optionally write artifacts."""
    model = Model.from_config(cfg)
    callback = None
    if out is not None:
        def callback(stage, cycle, model_):
            save_checkpoint(model_, out / f"checkpoint_c{cycle}_{stage}.bin", cfg)

    log = trainer.run_protocol(model, train_ds, cfg, stage_callback=callback)
    if out is not None:
        save_checkpoint(model, out / "checkpoint.bin", cfg)
        (out / "training_log.csv").write_text("\n".join(log.csv_rows()) + "\n")
        (out / "projection_report.json").write_text(
            json.dumps(log.projections, indent=2, sort_keys=True) + "\n")
        config_mod.save_config(cfg, out / "resolved_config.json")
    return model, log


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args.config)
    out = _out_dir(args.out)
    n = {split: data_mod.save_split(cfg["data"], split, out / f"{split}.insd")
         for split in data_mod.SPLITS}
    config_mod.save_config(cfg, out / "resolved_config.json")
    print(f"wrote {out / 'train.insd'} ({n['train']} samples) and "
          f"{out / 'test.insd'} ({n['test']} samples)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    out = _out_dir(args.out)
    train_run(cfg, _load_split(args.data, "train"), out)
    print(f"wrote {out / 'checkpoint.bin'}")
    return 0


def cmd_eval(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    with _open_split(args.data, "test") as test_ds:
        y_hat, weights = metrics.per_sample_weights(model, test_ds)
    result = metrics.evaluate(model, test_ds, grades=cfg["data"]["grades"],
                              weights=(y_hat, weights))
    out = _out_dir(args.out)
    (out / "metrics.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    lines = ["sample_id,y,y_hat,abs_err,s_spars"]
    rows = zip(test_ds.y.tolist(), y_hat.tolist(), metrics.sparsity_rows(weights).tolist())
    for i, (y, y_h, spars) in enumerate(rows):
        lines.append(f"{i},{y!r},{y_h!r},{abs(y_h - y)!r},{spars}")
    (out / "per_sample.csv").write_text("\n".join(lines) + "\n")
    config_mod.save_config(cfg, out / "resolved_config.json")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_explain(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    try:
        sample_ids = [int(s) for s in args.sample_ids.split(",")]
    except ValueError as e:
        raise ValueError(f"--sample-ids: {e}") from None
    with _open_split(args.data, "test") as test_ds:
        for sid in sample_ids:
            if not 0 <= sid < len(test_ds):
                raise ValueError(f"--sample-ids: sample id {sid} out of range "
                                 f"[0,{len(test_ds)})")
        # all built before anything is written, so a bad --top-k or image leaves no
        # files; each reads only its own image
        explanations = [explain(test_ds.images[sid], sid, float(test_ds.y[sid]), model,
                                args.top_k) for sid in sample_ids]
    out = _out_dir(args.out)
    for sid, exp in zip(sample_ids, explanations):
        if not exp.projected:
            print(f"warning: checkpoint not projected, sample {sid} has no provenance",
                  file=sys.stderr)
        doc = exp.to_json_dict()
        for r, rec in zip(doc["records"], exp.records):
            map_name = f"sample{sid}_proto{r['prototype']}.pgm"
            (out / map_name).write_bytes(to_pgm_bytes(rec.activation_map))
            r["activation_map_file"] = map_name
        (out / f"explanation_{sid}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    config_mod.save_config(cfg, out / "resolved_config.json")
    print(f"wrote {len(sample_ids)} explanations to {out}")
    return 0


def cmd_embed(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    with _open_split(args.data, "test") as test_ds:
        latents = model.latents_np(test_ds.images)
    weights = metrics.contribution_matrix(model, model.head_np(model.dmin_np(latents))[0])
    n, c_z, h, w = latents.shape
    patches = latents.transpose(0, 2, 3, 1).reshape(-1, c_z)  # a view: latents are channels-last
    sample_ids = np.repeat(np.arange(n), h * w)
    patch_labels = np.repeat(test_ds.y, h * w)
    top5 = metrics.top_contributor_rows(weights)
    report = metrics.pca_embed(patches, sample_ids, patch_labels, model.bank, top5)
    out = _out_dir(args.out)
    (out / "embedding.csv").write_text(reports.embedding_csv(report))
    (out / "embedding.svg").write_text(reports.embedding_svg(report))
    (out / "usage_histogram.svg").write_text(reports.histogram_svg(report.histogram))
    config_mod.save_config(cfg, out / "resolved_config.json")
    print(f"wrote embedding report to {out}")
    return 0


ABLATION_VARIANTS = [
    ("base", {}),
    ("log_similarity", {"model": {"similarity": "log"}}),
    ("no_psd", {"loss": {"alpha_psd": 0.0}}),
    ("no_clst", {"loss": {"alpha_clst": 0.0}}),
    ("no_clst_no_psd", {"loss": {"alpha_clst": 0.0, "alpha_psd": 0.0}}),
    ("k1", {"loss": {"k": 1}}),
]


def cell_config(cfg: dict, override: dict, seed_offset: int) -> dict:
    """The resolved config of one ablation cell: cfg with override merged in and
    seed_offset added to its train and model seeds."""
    cell_cfg = config_mod._merge(cfg, override)  # new section dicts, safe to edit
    cell_cfg["train"]["seed"] += seed_offset
    cell_cfg["model"]["seed"] += seed_offset
    return config_mod.resolve_config(cell_cfg)


def run_cell(cell_cfg: dict, train_ds, test_ds) -> tuple[Model, dict]:
    """Train a cell's resolved config on train_ds; the model and its metrics on test_ds."""
    model, _ = train_run(cell_cfg, train_ds)
    return model, metrics.evaluate(model, test_ds, grades=cell_cfg["data"]["grades"])


def _run_share(fn, share: list) -> tuple[list | None, Exception | None]:
    """([fn(cell) for cell in share], None), or (None, the first failing cell's exception)."""
    try:
        return [fn(cell) for cell in share], None
    except Exception as e:
        return None, e


def _child_share(fn, share: list, cpu: int, conn) -> None:
    """Run share on one CPU, so that its chunk pool gets one worker, and send
    the outcome of _run_share through conn."""
    os.sched_setaffinity(0, [cpu])
    conn.send(_run_share(fn, share))


def _gather(child, conn) -> tuple[list | None, Exception | None]:
    """The outcome that child sent through conn, once the child has ended."""
    try:
        with conn:
            return conn.recv()
    except EOFError:  # the child ended before it sent its outcome
        pass
    finally:
        child.join()
    return None, OSError(f"cell worker {child.pid} ended with exit code {child.exitcode} "
                         "and no result")


def map_cells(fn, cells: list) -> list:
    """[fn(cell) for cell in cells], run by one process per CPU that this
    process may use, at most one per cell.

    The cells are cut into n runs of consecutive cells, one per process. This
    process runs the first and a forked child each later one, on one CPU;
    processes, not threads, since engine.no_grad flips a process-global flag.
    A run stops at its first failing cell and precedes the next run's cells,
    so the first failing run's exception, raised once every child has ended,
    is the first failing cell's. With one usable CPU nothing forks and
    multiprocessing is not imported. The fork start method is named, so fn and
    the datasets reach the children unpickled; the stdlib pools are not used,
    since their helper threads would compete for the GIL with this process's
    own run.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    n = max(1, min(len(cpus), len(cells)))
    runs = [cells[len(cells) * k // n : len(cells) * (k + 1) // n] for k in range(n)]
    children, outcomes = [], []
    try:
        if n > 1:
            import multiprocessing  # only a call that forks pays for the import
            ctx = multiprocessing.get_context("fork")  # a platform without fork never gets here
            for run, cpu in zip(runs[1:], cpus[1:]):
                conn, child_end = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_child_share, args=(fn, run, cpu, child_end))
                child.start()
                child_end.close()
                children.append((child, conn))
        outcomes.append(_run_share(fn, runs[0]))
    finally:
        outcomes += [_gather(child, conn) for child, conn in children]
    for results, e in outcomes:
        if e is not None:
            raise e
    return [r for results, _ in outcomes for r in results]


def cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = _load_cfg(args.config)
    # every cell's config, its seed offsets included, is checked before anything trains
    cells = [(name, cell_config(cfg, override, s))
             for name, override in ABLATION_VARIANTS for s in range(args.seeds)]
    out = _out_dir(args.out)
    train_ds, test_ds = _load_split(args.data, "train"), _load_split(args.data, "test")

    def row(cell) -> dict:
        name, cell_cfg = cell
        _, result = run_cell(cell_cfg, train_ds, test_ds)
        return {
            "variant": name,
            "similarity": cell_cfg["model"]["similarity"],
            "alpha_clst": cell_cfg["loss"]["alpha_clst"],
            "alpha_psd": cell_cfg["loss"]["alpha_psd"],
            "k": cell_cfg["loss"]["k"],
            "seed": cell_cfg["train"]["seed"],
            **{k: result[k] for k in ("mae", "accuracy", "s_spars_mean", "diversity")},
        }

    rows = map_cells(row, cells)
    (out / "ablation.csv").write_text(reports.ablation_csv(rows))
    (out / "ablation.md").write_text(reports.ablation_markdown(rows))
    config_mod.save_config(cfg, out / "resolved_config.json")
    print((out / "ablation.md").read_text())
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_cfg(args.config)
    results = gradcheck.run_suites(seed=cfg["model"]["seed"])
    ok = True
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['suite']:<22} max rel error {r['max_rel_error']:.3e} "
              f"(tolerance {r['tolerance']:.0e})")
        ok = ok and r["passed"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoreg",
        description="Prototype-based interpretable regression: data, training, "
                    "evaluation, explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic train/test splits")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the full training protocol")
    p.add_argument("--config")
    p.add_argument("--data", required=True, help="train.insd file or gen-data output dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="test.insd file or gen-data output dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="export per-sample explanations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample-ids", required=True, help="comma-separated sample indices")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("embed", help="export the 2-D latent embedding report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("ablate", help="run the ablation matrix and emit CSV/Markdown")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--config")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
