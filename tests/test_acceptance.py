"""Acceptance suite: eleven pinned criteria, one pass/fail line each.

Training-dependent criteria share module-scoped fixtures so the whole suite
runs the desk-scale protocol only as often as needed (about a dozen runs).
The nine fixture runs of criteria 5, 7 and 8 are ablate's cells, spread over
the usable CPUs; criteria 6 and 10 train in this process, since they time or
compare their own runs.
"""

import json
import math
import time

import numpy as np
import pytest

from protoreg import config as C
from protoreg import data as D
from protoreg import gradcheck, metrics, trainer
from protoreg.cli import cell_config, map_cells, run_cell, train_run
from protoreg.engine import Tensor, no_grad
from protoreg.head import predict
from protoreg.prototypes import PrototypeBank, distance_map, min_pool

from baseline import train_baseline

# Baseline fixture: plain CNN (same backbone, mean pool, linear head) trained
# with Adam(5e-3) for 20 epochs (matching the prototype model's 2x10 joint
# epochs of backbone training), batch 30, rng seed 0, on the default dataset.
BASELINE_FIXTURE_MAE = 0.303
BASELINE_EPOCHS = 20
BASELINE_LR = 5e-3
BASELINE_SEED = 0
MAE_GAP_LIMIT = 0.15


def _report(criterion: int, passed: bool, detail: str):
    line = f"CRITERION {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)  # surfaces via -rP (see pyproject addopts)


@pytest.fixture(scope="module")
def desk_data():
    cfg = C.resolve_config()
    return D.make_splits(C.synth_config_from(cfg))


# the fixture runs of criteria 5, 7 and 8: each override at seed offsets 0, 1, 2
FIXTURE_OVERRIDES = {"recip": {}, "log": {"model": {"similarity": "log"}}, "k1": {"loss": {"k": 1}}}


@pytest.fixture(scope="module")
def fixture_runs(desk_data):
    """name -> three (model, metrics) pairs, trained and evaluated as ablate's cells are."""
    train_ds, test_ds = desk_data
    cfg = C.resolve_config()
    cells = [cell_config(cfg, over, s) for over in FIXTURE_OVERRIDES.values() for s in range(3)]
    runs = map_cells(lambda c: run_cell(c, train_ds, test_ds), cells)
    return {name: runs[3 * i : 3 * i + 3] for i, name in enumerate(FIXTURE_OVERRIDES)}


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    results = gradcheck.run_suites(seed=0)
    elapsed = time.monotonic() - start
    worst = max(r["max_rel_error"] for r in results)
    ok = all(r["passed"] for r in results) and worst < 1e-4 and elapsed < 30
    _report(1, ok, f"max rel error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")
    assert all(r["passed"] for r in results)
    assert worst < 1e-4
    assert elapsed < 30


def test_criterion_02_distance_layer_oracle():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        c = int(rng.integers(1, 8))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        latent = rng.uniform(0.0, 1.0, size=(n, c, h, w))
        protos = rng.uniform(0.0, 1.0, size=(m, c))
        bank = PrototypeBank(
            vectors=Tensor(protos.copy(), requires_grad=True),
            labels=np.linspace(0.1, 5.9, m),
            provenance=[None] * m,
        )
        with no_grad():
            dmap = distance_map(Tensor(latent), bank)
            dmin, argmin = min_pool(dmap)
        # brute-force per-patch oracle
        oracle = np.empty((n, m, h, w))
        for i in range(n):
            for j in range(m):
                for r_ in range(h):
                    for c_ in range(w):
                        diff = latent[i, :, r_, c_] - protos[j]
                        oracle[i, j, r_, c_] = np.dot(diff, diff)
        worst = max(worst, float(np.max(np.abs(dmap.data - oracle))))
        worst = max(worst, float(np.max(np.abs(
            dmin.data - oracle.reshape(n, m, -1).min(axis=2)))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 10
    _report(2, ok, f"max abs error {worst:.2e} (< 1e-12), {elapsed:.1f}s (< 10s)")
    assert worst < 1e-12
    assert elapsed < 10


def test_criterion_03_weighted_mean_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        s = rng.uniform(1e-3, 1e3, size=(1, m))
        theta = Tensor(rng.uniform(0.1, 3.0, size=m), requires_grad=True)
        labels = rng.uniform(0.1, 6.0, size=m)
        with no_grad():
            y_hat = predict(Tensor(s), theta, labels).data[0]
        w = s[0] * (theta.data**2 / labels)
        oracle = float(np.sum(w * labels) / np.sum(w))
        worst = max(worst, abs(y_hat - oracle))
    ok = worst < 1e-10
    _report(3, ok, f"max abs deviation {worst:.2e} (< 1e-10) over 1000 draws")
    assert worst < 1e-10


def test_criterion_04_prediction_bounds():
    rng = np.random.default_rng(13)
    violations = 0
    for _ in range(100):
        m = int(rng.integers(1, 15))
        n = 100  # 100 batches x 100 rows = 10^4 inputs
        s = rng.uniform(1e-6, 1e4, size=(n, m))
        theta = Tensor(rng.uniform(1e-3, 5.0, size=m), requires_grad=True)
        labels = rng.uniform(0.1, 6.0, size=m)
        with no_grad():
            y_hat = predict(Tensor(s), theta, labels).data
        violations += int(np.sum((y_hat < labels.min() - 1e-12)
                                 | (y_hat > labels.max() + 1e-12)))
    ok = violations == 0
    _report(4, ok, f"{violations} bound violations over 10^4 random inputs")
    assert violations == 0


def test_criterion_05_projection_contract(desk_data, fixture_runs):
    train_ds, _ = desk_data
    model, _ = fixture_runs["recip"][0]  # trained desk model, projected in final cycle
    latents = model.latents_np(train_ds.images)
    n, c_z, h, w = latents.shape
    patches = latents.transpose(0, 2, 3, 1).reshape(-1, c_z)
    exact_zero = True
    for j in range(model.bank.m):
        diff = patches - model.bank.vectors.data[j]
        dmin = float(np.einsum("pc,pc->p", diff, diff).min())
        exact_zero = exact_zero and (dmin == 0.0)
    vec_before = model.bank.vectors.data.copy()
    prov_before = [(p.sample_id, p.row, p.col) for p in model.bank.provenance]
    trainer.project_prototypes(model, latents)
    noop = (np.array_equal(model.bank.vectors.data, vec_before)
            and [(p.sample_id, p.row, p.col) for p in model.bank.provenance]
            == prov_before)
    ok = exact_zero and noop
    _report(5, ok, f"min distances exactly zero: {exact_zero}, "
                   f"re-projection no-op: {noop}")
    assert exact_zero
    assert noop


@pytest.fixture(scope="module")
def baseline_fixture(desk_data):
    train_ds, test_ds = desk_data
    mae, _ = train_baseline(
        C.resolve_config(), train_ds, test_ds,
        epochs=BASELINE_EPOCHS, lr=BASELINE_LR, seed=BASELINE_SEED,
    )
    return mae


def test_criterion_06_end_to_end_desk_training(desk_data, baseline_fixture):
    train_ds, test_ds = desk_data
    cfg = C.resolve_config()
    start = time.monotonic()
    model, _ = train_run(cfg, train_ds)
    elapsed = time.monotonic() - start
    result = metrics.evaluate(model, test_ds, grades=cfg["data"]["grades"])
    mae = result["mae"]
    assert abs(baseline_fixture - BASELINE_FIXTURE_MAE) < 5e-3, (
        f"baseline fixture drifted: recomputed {baseline_fixture:.4f} vs "
        f"committed {BASELINE_FIXTURE_MAE}")
    gap = mae - baseline_fixture
    ok = mae <= 0.6 and gap <= MAE_GAP_LIMIT and elapsed < 900
    _report(6, ok, f"test MAE {mae:.3f} (<= 0.6), gap to baseline "
                   f"{gap:+.3f} (<= {MAE_GAP_LIMIT}), {elapsed:.0f}s (< 900s)")
    assert mae <= 0.6
    assert gap <= MAE_GAP_LIMIT
    assert elapsed < 900


def test_criterion_07_similarity_ablation_trend(fixture_runs):
    recip = [r for _, r in fixture_runs["recip"]]
    logr = [r for _, r in fixture_runs["log"]]
    wins = sum(a["s_spars_mean"] < b["s_spars_mean"] for a, b in zip(recip, logr))
    div_r = np.mean([r["diversity"] for r in recip])
    div_l = np.mean([r["diversity"] for r in logr])
    within = abs(div_r - div_l) <= 0.3 * max(div_r, div_l)
    ok = wins >= 2 and within
    _report(7, ok, f"reciprocal sparser in {wins}/3 seeds (need >= 2); "
                   f"diversity {div_r:.1f} vs {div_l:.1f} within 30%: {within}")
    assert wins >= 2
    assert within


def test_criterion_08_min_k_ablation_trend(fixture_runs):
    recip = [r for _, r in fixture_runs["recip"]]
    k1 = [r for _, r in fixture_runs["k1"]]
    wins = sum(
        a["s_spars_mean"] < b["s_spars_mean"] and a["diversity"] < b["diversity"]
        for a, b in zip(k1, recip)
    )
    detail = "; ".join(
        f"seed{i}: spars {a['s_spars_mean']:.2f}/{b['s_spars_mean']:.2f} "
        f"div {a['diversity']}/{b['diversity']}"
        for i, (a, b) in enumerate(zip(k1, recip))
    )
    ok = wins >= 2
    _report(8, ok, f"k=1 lower on both metrics in {wins}/3 seeds (need >= 2); {detail}")
    assert wins >= 2


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 25))
        w = rng.uniform(0.0, 1.0, size=m)
        w[rng.random(m) < 0.25] = 0.0
        if w.sum() == 0:
            w[int(rng.integers(m))] = 1.0
        # exhaustive oracle: accumulate sorted weights until 80% is covered
        order = sorted(range(m), key=lambda j: (-w[j], j))
        running, count = 0.0, 0
        for j in order:
            running += w[j]
            count += 1
            if running >= 0.8 * w.sum() - 1e-12:
                break
        if metrics.sparsity(w) != count:
            mismatches += 1
    uniform_ok = all(
        metrics.sparsity(np.ones(m)) == math.ceil(0.8 * m) for m in range(1, 30)
    )
    # diversity oracle on randomized top-5 sets
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(1, 120))
        sets = [
            frozenset(rng.choice(m, size=min(5, m), replace=False).tolist())
            for _ in range(n)
        ]
        expect = sum(
            1 for j in range(m)
            if sum(j in s for s in sets) >= 0.01 * n - 1e-12
        )
        if metrics.diversity(sets, m) != expect:
            mismatches += 1
    ok = mismatches == 0 and uniform_ok
    _report(9, ok, f"{mismatches} oracle mismatches over 2000 cases; "
                   f"uniform-weight ceil rule holds: {uniform_ok}")
    assert mismatches == 0
    assert uniform_ok


def test_criterion_10_reproducibility(desk_data, tmp_path):
    train_ds, test_ds = desk_data
    blobs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        run_dir.mkdir()
        cfg = C.resolve_config()
        model, _ = train_run(cfg, train_ds, out=run_dir)
        result = metrics.evaluate(model, test_ds, grades=cfg["data"]["grades"])
        (run_dir / "metrics.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        blobs.append((
            (run_dir / "checkpoint.bin").read_bytes(),
            (run_dir / "metrics.json").read_bytes(),
        ))
    ckpt_same = blobs[0][0] == blobs[1][0]
    metrics_same = blobs[0][1] == blobs[1][1]
    ok = ckpt_same and metrics_same
    _report(10, ok, f"checkpoints byte-identical: {ckpt_same}, "
                    f"metrics JSON byte-identical: {metrics_same}")
    assert ckpt_same
    assert metrics_same


def test_criterion_11_continuous_label_mode(desk_data):
    train_ds, test_ds = desk_data
    cfg = C.resolve_config({"data": {"continuous": True}})
    cont_train = D.continuous_labels(train_ds, cfg["data"]["continuous_seed"])
    model, _ = train_run(cfg, cont_train)
    result = metrics.evaluate(model, test_ds, grades=cfg["data"]["grades"])
    mae = result["mae"]
    ok = mae <= 0.65
    _report(11, ok, f"continuous-label test MAE {mae:.3f} (<= 0.65)")
    assert mae <= 0.65
