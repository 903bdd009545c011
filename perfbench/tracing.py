"""Span tracer that wraps protoreg's functions from outside the package.

Every wrapper is installed where callers look the function up (a module
attribute or a class attribute) and removed again when the traced block ends,
so untraced work runs the program's own code. A span records its name,
start, end, parent and a few attributes taken from the call's arguments
(batch size, conv block, training stage). Engine ops also wrap the backward
closure they return, so the backward pass shows up as its own span. Spans
stay in memory; ``write`` dumps them as JSON lines when the run ends, and
``layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time

import numpy as np

TRAIN_BATCH = 30  # the per-op table is taken at the default training batch


class _CountingNumpy:
    """Stand-in for the ``np`` global of protoreg.engine that counts einsum calls."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, *args, **kwargs):
        self._tracer.einsum_calls += 1
        return np.einsum(*args, **kwargs)


def _n(x) -> int:
    """Leading (batch) dimension of a Tensor or array argument."""
    return int(getattr(x, "data", x).shape[0])


def _graph_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


class Tracer:
    def __init__(self, pr):
        self.pr = pr  # namespace holding the imported protoreg modules
        self.spans: list[dict] = []
        self.einsum_calls = 0
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @property
    def batch(self) -> int:
        """Batch size of the training step running on this thread."""
        return getattr(self._local, "batch", 0)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        e0 = self.einsum_calls
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            attrs["einsum"] = self.einsum_calls - e0
            self.spans.append({"id": sid, "name": name, "start": t0, "end": t1,
                               "parent": parent, "attrs": attrs})

    def _wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_op(self, name: str, fn, attrs_of):
        """Engine op: a span for the forward call and one for its backward closure."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs)
            with self.span(f"engine.{name}", **attrs):
                out = fn(*args, **kwargs)
            result = out[0] if isinstance(out, tuple) else out
            if result._backward is not None:
                result._backward = self._wrap(
                    f"engine.{name}.bwd", result._backward,
                    lambda *_: {k: v for k, v in attrs.items() if k != "einsum"})
            return out
        return wrapper

    # -- installation ------------------------------------------------------------

    def _patches(self):
        pr = self.pr
        Tensor = pr.engine.Tensor

        def batch(*args, **kwargs):
            return {"n": self.batch}

        def first_n(*args, **kwargs):
            return {"n": _n(args[0])}

        def second_n(*args, **kwargs):
            return {"n": _n(args[1])}

        def batch_loss(model, images, *rest):
            self._local.batch = images.shape[0]
            return {"n": images.shape[0]}

        def conv(x, w, stride=1):
            n, c, h, wd = x.data.shape
            k, _, kh, kw = w.data.shape
            oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
            flops = 2 * n * k * c * kh * kw * oh * ow
            grads = int(x.requires_grad) + int(w.requires_grad)
            return {"n": n, "weight": [k, c, kh, kw], "flops": flops,
                    "bwd_flops": flops * grads}

        def reduce(x, axis):
            return {"n": _n(x), "ndim": x.data.ndim}

        def backward(loss):
            return {"n": self.batch, "nodes": _graph_nodes(loss)}

        return [
            (Tensor, "conv2d", "conv2d", conv),
            (Tensor, "proto_sqdist", "proto_sqdist", first_n),
            (Tensor, "min_reduce", "min_reduce", reduce),
            (Tensor, "masked_min_k_rows", "masked_min_k_rows", first_n),
            (Tensor, "backward", "engine.backward", backward),
            (pr.engine.Adam, "step", "engine.adam_step", batch),
            (pr.backbone.Backbone, "forward", "backbone.forward", second_n),
            (pr.model.Model, "latents_np", "model.latents_np", second_n),
            (pr.model, "distance_map", "prototypes.distance_map", first_n),
            (pr.model, "min_pool", "prototypes.min_pool", first_n),
            (pr.model, "similarity", "prototypes.similarity", first_n),
            (pr.head, "predict", "head.predict", first_n),
            (pr.losses, "mse", "losses.mse", first_n),
            (pr.losses, "cluster_loss", "losses.cluster_loss", first_n),
            (pr.losses, "psd_loss", "losses.psd_loss", first_n),
            (pr.trainer, "_batch_loss", "trainer.batch_loss", batch_loss),
            (pr.trainer, "_run_epochs", "trainer.run_epochs",
             lambda *a, **k: {"stage": k["stage"]}),
            (pr.trainer, "project_prototypes", "trainer.project_prototypes", None),
            (pr.model, "load_checkpoint", "model.load_checkpoint", None),
            (pr.cli, "load_checkpoint", "model.load_checkpoint", None),
            (pr.cli, "save_checkpoint", "model.save_checkpoint", None),
            (pr.data, "generate", "data.generate", None),
            (pr.data, "save_dataset", "data.save_dataset", None),
            (pr.data, "load_dataset", "data.load_dataset", None),
            (pr.metrics, "per_sample_weights", "metrics.per_sample_weights", None),
            (pr.metrics, "evaluate", "metrics.evaluate", None),
            (pr.metrics, "pca_embed", "metrics.pca_embed", None),
            (pr.explain, "explain", "explain.explain", None),
            (pr.explain, "bilinear_upsample", "explain.bilinear_upsample", None),
            (pr.explain, "to_pgm_bytes", "explain.to_pgm_bytes", None),
            (pr.cli, "to_pgm_bytes", "explain.to_pgm_bytes", None),
            (pr.reports, "embedding_csv", "reports.render", None),
            (pr.reports, "embedding_svg", "reports.render", None),
            (pr.reports, "histogram_svg", "reports.render", None),
            (pr.cli, "train_run", "cli.train_run", None),
            (pr.cli, "cmd_eval", "cli.eval", None),
            (pr.cli, "cmd_embed", "cli.embed", None),
            (pr.cli, "cmd_ablate", "cli.ablate", None),
        ]

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        engine_ops = {"conv2d", "proto_sqdist", "min_reduce", "masked_min_k_rows"}
        for owner, attr, name, attrs_of in self._patches():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if attr in engine_ops:
                setattr(owner, attr, self._wrap_op(name, original, attrs_of))
            else:
                setattr(owner, attr, self._wrap(name, original, attrs_of))
        saved.append((self.pr.engine, "np", self.pr.engine.np))
        self.pr.engine.np = _CountingNumpy(self)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps(s) + "\n")


# -- per-layer table ---------------------------------------------------------------


def _ms(spans) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans]


def _median(values, name: str) -> float:
    if not values:
        raise ValueError(f"per-layer metric {name}: no spans recorded")
    return float(statistics.median(values))


def _training_steps(spans, children):
    """One dict per optimizer step: stage, batch, start, end, Adam ms, einsum calls, nodes.

    A step is a trainer.batch_loss span (forward and losses) together with the
    backward and Adam spans that follow it inside the same epoch loop.
    """
    steps = []
    for loop in (s for s in spans if s["name"] == "trainer.run_epochs"):
        current = None
        for child in sorted(children.get(loop["id"], ()), key=lambda s: s["start"]):
            if child["name"] == "trainer.batch_loss":
                current = {"stage": loop["attrs"]["stage"], "n": child["attrs"]["n"],
                           "start": child["start"], "end": child["end"], "adam_ms": 0.0,
                           "einsum": child["attrs"]["einsum"], "nodes": None}
                steps.append(current)
            elif current is not None:
                current["end"] = child["end"]
                if child["name"] == "engine.adam_step":
                    current["adam_ms"] += (child["end"] - child["start"]) * 1e3
                elif child["name"] == "engine.backward":
                    current["einsum"] += child["attrs"]["einsum"]
                    current["nodes"] = child["attrs"]["nodes"]
    return [s for s in steps if s["n"] == TRAIN_BATCH]


def layer_metrics(spans: list[dict], conv_weights: list[list[int]]) -> dict[str, float]:
    """Per-layer values from the spans of a traced run, keyed by metric name.

    ``conv_weights`` lists the weight shape of each conv block, which is how a
    conv2d span is assigned to its block.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name, n=None, **want):
        return [s for s in spans if s["name"] == name
                and (n is None or s["attrs"].get("n") == n)
                and all(s["attrs"].get(k) == v for k, v in want.items())]

    def inside(span, ancestor):
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == ancestor:
                return True
            p = by_id[p]["parent"]
        return False

    out: dict[str, float] = {}
    conv_flops, conv_s = 0, 0.0
    for i, shape in enumerate(conv_weights):
        fwd = named("engine.conv2d", TRAIN_BATCH, weight=shape)
        bwd = named("engine.conv2d.bwd", TRAIN_BATCH, weight=shape)
        out[f"engine.conv2d.fwd_ms.b{i}"] = _median(_ms(fwd), f"conv2d.fwd b{i}")
        out[f"engine.conv2d.bwd_ms.b{i}"] = _median(_ms(bwd), f"conv2d.bwd b{i}")
        conv_flops += sum(s["attrs"]["flops"] for s in fwd)
        conv_flops += sum(s["attrs"]["bwd_flops"] for s in bwd)
        conv_s += sum(s["end"] - s["start"] for s in fwd + bwd)
    out["engine.conv2d.gflops"] = conv_flops / conv_s / 1e9
    for op in ("proto_sqdist", "masked_min_k_rows"):
        out[f"engine.{op}.fwd_ms"] = _median(_ms(named(f"engine.{op}", TRAIN_BATCH)), op)
        out[f"engine.{op}.bwd_ms"] = _median(_ms(named(f"engine.{op}.bwd", TRAIN_BATCH)), op)
    out["engine.min_reduce.fwd_ms"] = _median(
        _ms(named("engine.min_reduce", TRAIN_BATCH, ndim=3)), "min_reduce")
    out["engine.backward_ms"] = _median(_ms(named("engine.backward", TRAIN_BATCH)), "backward")

    steps = _training_steps(spans, children)
    out["engine.adam_step_ms"] = _median([s["adam_ms"] for s in steps], "adam_step")
    out["engine.nodes_per_batch"] = _median([s["nodes"] for s in steps], "nodes")
    out["engine.einsum_calls_per_batch"] = _median([s["einsum"] for s in steps], "einsum")
    for stage in ("warmup", "joint", "lastlayer"):
        out[f"trainer.step_ms.{stage}"] = _median(
            [(s["end"] - s["start"]) * 1e3 for s in steps if s["stage"] == stage], stage)
    out["trainer.project_prototypes_ms"] = _median(
        _ms(named("trainer.project_prototypes")), "project_prototypes")

    for n in (TRAIN_BATCH, 64, 1):
        out[f"backbone.forward_ms.b{n}"] = _median(_ms(named("backbone.forward", n)),
                                                   f"backbone b{n}")
    for name in ("prototypes.distance_map", "prototypes.min_pool", "prototypes.similarity",
                 "head.predict", "losses.mse", "losses.cluster_loss", "losses.psd_loss"):
        out[f"{name}_ms"] = _median(_ms(named(name, TRAIN_BATCH)), name)

    latents = named("model.latents_np")
    out["model.latents_np_ms"] = _median(
        [(s["end"] - s["start"]) * 1e3 * 64 / s["attrs"]["n"] for s in latents], "latents_np")
    for name in ("model.load_checkpoint", "model.save_checkpoint"):
        out[f"{name}_ms"] = _median(_ms(named(name)), name)

    # data.* sum over the traced set-up, which runs each of them a fixed number of times
    def setup_ms(name):
        return sum(_ms([s for s in named(name) if inside(s, "bench.setup")]))
    out["data.generate_s"] = setup_ms("data.generate") / 1e3
    for name in ("data.save_dataset", "data.load_dataset"):
        out[f"{name}_ms"] = setup_ms(name)

    for name in ("metrics.per_sample_weights", "metrics.evaluate"):
        in_eval = [s for s in named(name) if inside(s, "cli.eval")]
        out[f"{name}_ms"] = _median(_ms(in_eval), name)
    out["metrics.pca_embed_ms"] = _median(_ms(named("metrics.pca_embed")), "pca_embed")

    out["explain.explain_ms"] = _median(_ms(named("explain.explain")), "explain")
    for name in ("explain.bilinear_upsample", "explain.to_pgm_bytes"):
        out[f"{name}_us"] = _median([v * 1e3 for v in _ms(named(name))], name)
    out["reports.render_ms"] = _median(
        [sum(_ms([c for c in children.get(e["id"], ()) if c["name"] == "reports.render"]))
         for e in named("cli.embed")], "render")

    # a cell is one train_run and the evaluate that follows it inside the ablate command
    cell_s, wall = [], 0.0
    for a in named("cli.ablate"):
        kids = sorted(children.get(a["id"], ()), key=lambda s: s["start"])
        runs = [k for k in kids if k["name"] == "cli.train_run"]
        evals = [k for k in kids if k["name"] == "metrics.evaluate"]
        cell_s += [(r["end"] - r["start"]) + (e["end"] - e["start"]) for r, e in zip(runs, evals)]
        wall += a["end"] - a["start"]
    train_runs = [s for s in named("cli.train_run") if inside(s, "cli.ablate")]
    out["cli.train_run_s"] = _median([v / 1e3 for v in _ms(train_runs)], "train_run")
    out["cli.ablate_cell_s"] = _median(cell_s, "ablate cell")
    # the matrix runs on the program's default of one worker
    out["cli.ablate_busy_share"] = sum(cell_s) / wall
    return out
