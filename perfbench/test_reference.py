"""Tests for the benchmark's reference computations and output checks.

    python3 -m pytest -q perfbench/test_reference.py

Each check passes on the program's real output and fails on a deliberately
wrong one: a perturbed prediction, a shuffled weight row, a moved prototype.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
from protoreg import cli, config, data, metrics  # noqa: E402
from protoreg.explain import explain  # noqa: E402
from protoreg.model import save_checkpoint  # noqa: E402

TINY = {"data": {"train_per_grade": 6, "test_per_grade": 4},
        "train": {"cycles": 1, "joint_epochs": 1, "warmup_epochs": 0, "lastlayer_epochs": 1}}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint of a projected model on a tiny split, with its reference tensors."""
    cfg = config.resolve_config(TINY)
    train, test = data.make_splits(config.synth_config_from(cfg))
    model, _ = cli.train_run(cfg, train)
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.bin"
    save_checkpoint(model, path, cfg)
    header, tensors = reference.read_checkpoint(path)
    return model, train, test, header, tensors


def test_forward_check_accepts_model_and_rejects_perturbed_prediction(trained):
    model, _, test, header, tensors = trained
    y_hat, weights = metrics.per_sample_weights(model, test)
    ids = [0, 7, len(test) - 1]
    assert reference.check_forward(header, tensors, test.images, ids, y_hat, weights) == []
    bad = y_hat.copy()
    bad[7] *= 1 + 1e-6
    assert reference.check_forward(header, tensors, test.images, ids, bad, weights)


def test_forward_check_rejects_shuffled_weight_row(trained):
    model, _, test, header, tensors = trained
    y_hat, weights = metrics.per_sample_weights(model, test)
    bad = weights.copy()
    bad[0] = np.random.default_rng(0).permutation(bad[0])
    assert reference.check_forward(header, tensors, test.images, [0], y_hat, bad)


def test_conv_loop_matches_direct_sum():
    rng = np.random.default_rng(1)
    x, w, b = rng.normal(size=(2, 5, 5)), rng.normal(size=(3, 2, 2, 2)), rng.normal(size=3)
    out = reference.conv_loop(x, w, b, stride=2)
    assert out.shape == (3, 2, 2)
    assert out[1, 1, 0] == pytest.approx(np.sum(w[1] * x[:, 2:4, 0:2]) + b[1])


def test_projection_check_rejects_moved_prototype(trained):
    model, train, _, header, tensors = trained
    latents = model.latents_np(train.images)
    assert reference.check_projection(header, tensors, latents) == []
    moved = dict(tensors, prototypes=tensors["prototypes"].copy())
    moved["prototypes"][3, 0] = np.nextafter(moved["prototypes"][3, 0], 2.0)
    assert reference.check_projection(header, moved, latents) == [
        f"prototype 3 differs from training patch {header['provenance'][3]}"]


def test_sparsity_and_diversity_match_the_program():
    weights = np.random.default_rng(2).gamma(0.5, size=(200, 10))
    for w in weights:
        assert reference.sparsity(w) == metrics.sparsity(w)
    sets = [metrics.top_contributor_set(w) for w in weights]
    assert reference.diversity(weights) == metrics.diversity(sets, 10)
    assert np.allclose(reference.usage_histogram(weights), metrics.usage_histogram(sets, 10))


def test_eval_metrics_check_rejects_shuffled_weight_row(trained):
    model, _, test, _, _ = trained
    result = metrics.evaluate(model, test)
    _, weights = metrics.per_sample_weights(model, test)
    assert reference.check_eval_metrics(result, weights) == []
    wrong = dict(result, s_spars_mean=result["s_spars_mean"] + 0.5)
    assert reference.check_eval_metrics(wrong, weights)


def test_explanation_check(trained):
    model, _, test, _, tensors = trained
    _, weights = metrics.per_sample_weights(model, test)
    exp = explain(test.images[2], 2, float(test.y[2]), model, top_k=model.bank.m)
    doc = json.loads(json.dumps(exp.to_json_dict()))
    assert reference.check_explanation(doc, exp.all_fractions, weights[2], tensors) == []
    shuffled = np.random.default_rng(3).permutation(weights[2])
    assert reference.check_explanation(doc, exp.all_fractions, shuffled, tensors)
    perturbed = dict(doc, y_hat=doc["y_hat"] * (1 + 1e-6))
    assert reference.check_explanation(perturbed, exp.all_fractions, weights[2], tensors)
    reordered = dict(doc, records=doc["records"][::-1])
    assert reference.check_explanation(reordered, exp.all_fractions, weights[2])


def test_prediction_check_rejects_constant_predictor():
    y_train = np.repeat(np.arange(1.0, 6.0), 10)
    y_test = np.repeat(np.arange(1.0, 6.0), 4)
    assert reference.constant_mae(y_train, y_test) == pytest.approx(1.2)
    labels = np.linspace(0.1, 5.9, 10)
    assert reference.check_predictions(y_test + 0.1, labels, y_train, y_test, 0.3) == []
    assert reference.check_predictions(np.full_like(y_test, 3.0), labels, y_train, y_test, 0.3)
    assert reference.check_predictions(y_test + 1.0, labels, y_train, y_test, None)


def test_embedding_check(trained):
    model, _, test, _, _ = trained
    _, weights = metrics.per_sample_weights(model, test)
    latents = model.latents_np(test.images)
    n, c_z, h, w = latents.shape
    sets = [metrics.top_contributor_set(row) for row in weights]
    report = metrics.pca_embed(latents.transpose(0, 2, 3, 1).reshape(-1, c_z),
                               np.repeat(np.arange(n), h * w), np.repeat(test.y, h * w),
                               model.bank, sets)
    assert reference.check_embedding(report, weights) == []
    report.histogram = report.histogram[::-1]
    report.explained_variance = report.explained_variance[::-1]
    assert len(reference.check_embedding(report, weights)) >= 1


def test_ablation_row_ranges():
    row = {"variant": "base", "mae": 0.5, "accuracy": 0.6, "s_spars_mean": 3.2, "diversity": 9}
    assert reference.check_ablation_row(row, 10, 4.9) == []
    for key, value in (("mae", -0.1), ("accuracy", 1.5), ("s_spars_mean", 0.5),
                       ("diversity", 11)):
        assert reference.check_ablation_row(dict(row, **{key: value}), 10, 4.9)
