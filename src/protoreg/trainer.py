"""The training protocol, run by run_protocol, and prototype projection.

Each cycle runs: joint training of the backbone and prototypes with the
head frozen (the first cycle starts with warm-up epochs that only touch
the prototypes and the final two conv layers), then projection of every
prototype onto its nearest training patch, then head-only training.
Each epoch loop freezes the parameters that none of its optimizers holds:
requires_grad is cleared for the loop, so they neither receive gradients
nor move.
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine, losses
from .data import SynthDataset, augment_batch
from .engine import Adam, Tensor
from .model import Model
from .prototypes import ProvenanceRecord


@dataclass
class TrainLog:
    epochs: list[dict] = field(default_factory=list)
    projections: list[dict] = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        header = "cycle,stage,epoch,mse,clst,psd,total"
        rows = [header]
        for e in self.epochs:
            terms = ",".join(repr(float(e[k])) for k in ("mse", "clst", "psd", "total"))
            rows.append(f"{e['cycle']},{e['stage']},{e['epoch']},{terms}")
        return rows


@contextlib.contextmanager
def _frozen(params: list[Tensor]):
    prev = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, was in zip(params, prev):
            p.requires_grad = was


@contextlib.contextmanager
def _located(where: str):
    """Name the place in the protocol of a floating-point error raised in the
    block, and the innermost named engine function it was raised in."""
    try:
        yield
    except FloatingPointError as e:
        ops = [f.f_code.co_name for f, _ in traceback.walk_tb(e.__traceback__)
               if f.f_globals is vars(engine) and f.f_code.co_name != "<lambda>"]
        where += f", in {ops[-1]}" if ops else ""
        raise FloatingPointError(f"non-finite value ({where}): {e}") from None


def _batch_loss(model: Model, batch: np.ndarray, y: np.ndarray, cfg_loss: dict):
    """Loss of one batch: (n, C, H, W) images run the whole model, and (n, m)
    min-pooled distances, cached while the backbone and prototypes are
    frozen, run only the head."""
    if batch.ndim == 4:
        result = model.forward(Tensor(batch))
        dmin, y_hat = result.dmin, result.y_hat
    else:
        dmin = Tensor(batch)
        _, y_hat = model.head(dmin)
    mse_t = losses.mse(y_hat, y)
    clst_t = losses.cluster_loss(dmin, y, model.bank.labels, cfg_loss["k"], cfg_loss["delta_l"])
    psd_t = losses.psd_loss(dmin, model.bank.d_max)
    total = losses.total_loss(mse_t, clst_t, psd_t, cfg_loss)
    return total, mse_t.item(), clst_t.item(), psd_t.item()


def _run_epochs(model: Model, data: SynthDataset, cfg: dict, optimizers: list[Adam],
                epochs: int, rng: np.random.Generator, log: TrainLog, cycle: int,
                stage: str, epoch_offset: int = 0, inputs: np.ndarray | None = None):
    """Train for epochs, with every parameter that no optimizer holds frozen;
    each batch reads rows of inputs (data.images by default)."""
    inputs = data.images if inputs is None else inputs
    batch_size, augment, cfg_loss = cfg["train"]["batch_size"], cfg["data"]["augment"], cfg["loss"]
    n = len(data)
    all_params = model.params()
    trained = {id(p) for opt in optimizers for p in opt.params}
    with _frozen([p for p in all_params if id(p) not in trained]):
        for epoch in range(epochs):
            order = rng.permutation(n)
            sums, batches = np.zeros(3), 0
            with _located(f"{stage}, cycle {cycle}, epoch {epoch_offset + epoch}"):
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    batch = inputs[idx]
                    if augment:
                        batch = augment_batch(batch, rng)
                    total, m, c, p = _batch_loss(model, batch, data.y[idx], cfg_loss)
                    total.backward()
                    for opt in optimizers:
                        opt.step()
                    for param in all_params:
                        param.grad = None
                    sums += (m, c, p)
                    batches += 1
            mse_avg, clst_avg, psd_avg = sums / batches
            log.epochs.append({
                "cycle": cycle, "stage": stage, "epoch": epoch_offset + epoch,
                "mse": mse_avg, "clst": clst_avg, "psd": psd_avg,
                "total": cfg_loss["alpha_mse"] * mse_avg + cfg_loss["alpha_clst"] * clst_avg
                         + cfg_loss["alpha_psd"] * psd_avg,
            })


def project_prototypes(model: Model, latents: np.ndarray) -> list[dict]:
    """Replace each prototype by its nearest training latent patch.

    Ties resolve to the earliest (sample, row, col) in scan order. Labels
    are untouched. latents is model.latents_np(train images), (N, c_z, h, w).
    Returns one report entry per prototype.
    """
    n, c_z, h, w = latents.shape
    # (N*h*w, c_z), sample-major then row-major spatial: scan order for ties
    patches = latents.transpose(0, 2, 3, 1).reshape(-1, c_z)
    report = []
    vec = model.bank.vectors.data
    for j in range(model.bank.m):
        diff = patches - vec[j]
        dists = np.einsum("pc,pc->p", diff, diff)
        flat = int(np.argmin(dists))
        sample_id, rest = divmod(flat, h * w)
        row, col = divmod(rest, w)
        vec[j] = patches[flat]
        rec = ProvenanceRecord(sample_id=sample_id, row=row, col=col,
                               moved_sq_dist=float(dists[flat]))
        model.bank.provenance[j] = rec
        report.append({"prototype": j, "label": float(model.bank.labels[j]), **asdict(rec)})
    return report


@np.errstate(over="raise", invalid="raise", divide="raise")
def run_protocol(model: Model, data: SynthDataset, cfg: dict,
                 stage_callback=None) -> TrainLog:
    """Run the full protocol of a resolved config in place; returns the
    per-epoch log.

    stage_callback(stage_name, cycle, model), when given, fires after each
    completed stage (used by the CLI to write per-stage checkpoints).

    Every overflow, invalid value and division by zero raises at the op that
    makes it, so a diverging run stops with a FloatingPointError that names
    its stage, cycle and epoch, before any warning is printed or a
    non-finite value reaches a weight.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    t = cfg["train"]
    rng = np.random.default_rng(t["seed"])
    log = TrainLog()
    groups = model.groups()

    def finished(stage: str, cycle: int):
        model.cursor = {"cycle": cycle, "stage": stage}
        if stage_callback:
            stage_callback(stage, cycle, model)

    for cycle in range(t["cycles"]):
        opt_trunk = Adam(groups["trunk"], t["lr_backbone"])
        # Adam updates each element on its own, so one optimizer for both groups
        # moves them exactly as one per group would
        opt_proto = Adam(groups["added"] + groups["prototypes"], t["lr_protolayer"])
        # only the first cycle warms up: the prototypes and the added block move
        warmup = t["warmup_epochs"] if cycle == 0 else 0
        _run_epochs(model, data, cfg, [opt_proto], epochs=warmup, rng=rng, log=log,
                    cycle=cycle, stage="warmup")
        _run_epochs(model, data, cfg, [opt_trunk, opt_proto], epochs=t["joint_epochs"] - warmup,
                    rng=rng, log=log, cycle=cycle, stage="joint", epoch_offset=warmup)
        finished("joint", cycle)
        with _located(f"projection, cycle {cycle}"):
            # one backbone pass serves projection and the last-layer cache
            latents = model.latents_np(data.images)
            report = project_prototypes(model, latents)
            # without augmentation every epoch sees the same images through the same
            # frozen layers, so each step runs only the head on their cached distances
            inputs = None if cfg["data"]["augment"] else model.dmin_np(latents)
        log.projections.append({"cycle": cycle, "prototypes": report})
        finished("projection", cycle)
        _run_epochs(model, data, cfg, [Adam(groups["theta"], t["lr_head"])],
                    epochs=t["lastlayer_epochs"], rng=rng, log=log, cycle=cycle,
                    stage="lastlayer", inputs=inputs)
        finished("lastlayer", cycle)
    return log
