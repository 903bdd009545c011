"""Tests for explanation metrics, PCA embedding, and per-sample explanations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from protoreg import metrics
from protoreg.data import SynthDataset
from protoreg.explain import bilinear_upsample, contribution_order, explain, to_pgm_bytes
from protoreg.gradcheck import tiny_model


def sparsity_oracle(w: np.ndarray) -> int:
    """Brute force: try every count of top-weight prototypes in order."""
    order = sorted(range(w.size), key=lambda j: (-w[j], j))
    total = float(np.sum(w))
    running = 0.0
    for count, j in enumerate(order, start=1):
        running += float(w[j])
        if running >= 0.8 * total - 1e-12:
            return count
    return w.size


def diversity_oracle(sets, m, threshold=0.01):
    n = len(sets)
    hits = 0
    for j in range(m):
        appearances = sum(1 for s in sets if j in s)
        if appearances >= threshold * n - 1e-12:
            hits += 1
    return hits


@st.composite
def weight_matrices(draw):
    """(N, m) nonnegative weights, each row with a positive entry: tied values,
    zero columns (prototypes of zero importance), m from 1 up, m < 5 included."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 0.25, 1.0 / 3.0, 1.0, 2.0]) | st.floats(0.0, 1e6)
    w = draw(hnp.arrays(np.float64, (n, m), elements=values))
    dead = draw(hnp.arrays(np.bool_, m))
    if dead.all():
        dead[0] = False
    w[:, dead] = 0.0
    w[w.sum(axis=1) <= 0, np.flatnonzero(~dead)[0]] = 1.0
    return w


def row_loop(w: np.ndarray, m: int):
    """Sparsity, top-5 sets and membership counts, one row at a time."""
    spars, sets = [], []
    counts = np.zeros(m)
    for row in w:
        order = np.lexsort((np.arange(m), -row))
        cumulative = np.cumsum(row[order])
        spars.append(int(np.searchsorted(cumulative, 0.8 * row.sum() - 1e-12) + 1))
        sets.append(frozenset(order[:5].tolist()))
        for j in sets[-1]:
            counts[j] += 1
    return spars, sets, counts


def upsample_ix(grid: np.ndarray, out_hw) -> np.ndarray:
    """Align-corners bilinear upsample of one 2-D grid by four np.ix_ gathers."""
    in_h, in_w = grid.shape
    out_h, out_w = out_hw
    ys = np.linspace(0.0, in_h - 1, out_h)
    xs = np.linspace(0.0, in_w - 1, out_w)
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 2) if in_h > 1 else np.zeros(out_h, int)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 2) if in_w > 1 else np.zeros(out_w, int)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    a = grid[np.ix_(y0, x0)]
    b = grid[np.ix_(y0, x1)]
    c = grid[np.ix_(y1, x0)]
    d = grid[np.ix_(y1, x1)]
    return (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx
            + c * wy * (1 - wx) + d * wy * wx)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRowForms:
    """The whole-matrix forms equal a row-by-row computation."""

    @settings(max_examples=200, deadline=None)
    @given(weight_matrices())
    def test_match_row_loop(self, w):
        n, m = w.shape
        spars, sets, counts = row_loop(w, m)
        assert metrics.sparsity_rows(w).tolist() == spars
        assert [metrics.sparsity(row) for row in w] == spars
        top = metrics.top_contributor_rows(w)
        assert top.shape == (n, min(5, m))
        assert [frozenset(t.tolist()) for t in top] == sets
        assert [metrics.top_contributor_set(row) for row in w] == sets
        assert contribution_order(w).tolist() == [
            np.lexsort((np.arange(m), -row)).tolist() for row in w]
        for top5 in (top, sets):
            assert metrics.diversity(top5, m) == diversity_oracle(sets, m)
            hist = metrics.usage_histogram(top5, m)
            assert hist.tobytes() == (counts / (min(5, m) * n)).tobytes()

    def test_total_is_the_rows_own_sum(self):
        # np.sum's pairwise total and the last cumulative sum differ here by
        # one ulp, which moves the 80% mark across an entry
        w = np.array([[200000.0, 2e6 / 3, 100000.0, 3.8e6 / 3, 3.5e6 / 3, 8e5 / 3,
                       400000.0, 2.3e6 / 3]])
        assert w.sum() != np.cumsum(w)[-1]
        assert metrics.sparsity_rows(w).tolist() == row_loop(w, 8)[0]

    def test_contribution_matrix_matches_row_loop(self):
        model = tiny_model(seed=3)
        images = np.random.default_rng(4).uniform(size=(9, 3, 8, 8))
        s, _ = model.score_np(images)
        r = model.theta.data**2 / model.bank.labels
        loop = np.vstack([s_row * r for s_row in s])
        assert metrics.contribution_matrix(model, s).tobytes() == loop.tobytes()

    @pytest.mark.parametrize("bad_row", [0, 2])
    def test_errors_name_the_first_bad_row(self, bad_row):
        w = np.ones((4, 3))
        w[bad_row, 1] = -0.5
        w[3, 0] = -1.0
        with pytest.raises(ValueError, match=rf"nonnegative \(row {bad_row}\)"):
            metrics.sparsity_rows(w)
        w = np.ones((4, 3))
        w[bad_row] = 0.0
        w[3] = 0.0
        with pytest.raises(ValueError, match=rf"all-zero weights \(row {bad_row}\)"):
            metrics.sparsity_rows(w)


class TestSparsity:
    def test_single_dominant_weight(self):
        assert metrics.sparsity(np.array([10.0, 1.0, 1.0])) == 1

    def test_hand_example(self):
        # cumulative fractions 0.5, 0.8, ... -> 0.8 reached at count 2
        w = np.array([0.5, 0.3, 0.1, 0.1])
        assert metrics.sparsity(w) == 2

    def test_uniform_weights_ceil(self):
        # uniform weights need ceil(0.8 * m) prototypes for 80% coverage
        for m in range(1, 25):
            w = np.ones(m)
            assert metrics.sparsity(w) == math.ceil(0.8 * m)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 20))
            w = rng.uniform(0.0, 1.0, size=m)
            w[rng.random(m) < 0.3] = 0.0
            if w.sum() == 0:
                w[0] = 1.0
            assert metrics.sparsity(w) == sparsity_oracle(w)

    def test_rejects_negative_and_zero(self):
        with pytest.raises(ValueError):
            metrics.sparsity(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            metrics.sparsity(np.zeros(3))

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(0.0, 1e6, allow_nan=False)))
    def test_oracle_property(self, w):
        if w.sum() <= 0:
            w = w + 1.0
        result = metrics.sparsity(w)
        assert result == sparsity_oracle(w)
        assert 1 <= result <= w.size


class TestDiversity:
    def test_hand_tally(self):
        sets = [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1})]
        # counts: p0=3, p1=2, p2=1; threshold 1% of 3 samples = 0.03 -> all counted
        assert metrics.diversity(sets, m=5) == 3

    def test_threshold_inclusive(self):
        # prototype 1 appears in exactly 1% of samples: still counted
        sets = [frozenset({0})] * 99 + [frozenset({1})]
        assert metrics.diversity(sets, m=3) == 2

    def test_below_threshold_excluded(self):
        sets = [frozenset({0})] * 199 + [frozenset({1})]
        # 1/200 = 0.5% < 1%
        assert metrics.diversity(sets, m=3) == 1

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, 300))
            sets = [
                frozenset(rng.choice(m, size=min(5, m), replace=False).tolist())
                for _ in range(n)
            ]
            assert metrics.diversity(sets, m) == diversity_oracle(sets, m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.diversity([], m=3)


class TestTopContributorSet:
    def test_top5_by_weight(self):
        w = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4])
        assert metrics.top_contributor_set(w) == frozenset({1, 3, 5, 6, 4})

    def test_small_m_takes_all(self):
        w = np.array([1.0, 2.0, 3.0])
        assert metrics.top_contributor_set(w) == frozenset({0, 1, 2})

    def test_tie_break_by_index(self):
        w = np.ones(8)
        assert metrics.top_contributor_set(w) == frozenset({0, 1, 2, 3, 4})


class TestUsageHistogram:
    def test_hand_tally(self):
        sets = [frozenset({0, 1}), frozenset({1, 2})]
        h = metrics.usage_histogram(sets, m=4)
        # counts (1, 2, 1, 0) over set_size 4 * 2 samples
        assert np.allclose(h, np.array([1, 2, 1, 0]) / 8.0)

    def test_sums_to_one_when_sets_full(self):
        rng = np.random.default_rng(2)
        sets = [frozenset(rng.choice(10, size=5, replace=False).tolist()) for _ in range(40)]
        assert np.isclose(metrics.usage_histogram(sets, m=10).sum(), 1.0)


class TestPCA:
    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 7))
        coords, comps, evr = metrics.pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        for i in range(2):
            v = evecs[:, order[i]]
            # eigenvectors are sign-ambiguous; compare up to sign
            assert min(np.abs(comps[i] - v).max(), np.abs(comps[i] + v).max()) < 1e-9
            assert np.isclose(evr[i], evals[order[i]] / evals.sum())

    def test_coords_reproject(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 5))
        coords, comps, _ = metrics.pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        assert np.allclose(coords, centered @ comps.T)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(15, 4))
        _, comps, _ = metrics.pca_2d(pts)
        for i in range(2):
            assert comps[i, np.argmax(np.abs(comps[i]))] > 0

    def test_planar_cloud_exact(self):
        # points on a 2-D plane in 5-D: first two components explain everything
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
        pts = rng.normal(size=(30, 2)) @ basis
        _, _, evr = metrics.pca_2d(pts)
        assert np.isclose(evr.sum(), 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            metrics.pca_2d(np.ones((10, 3)))
        line = np.outer(np.arange(10.0), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            metrics.pca_2d(line)
        with pytest.raises(ValueError):
            metrics.pca_2d(np.zeros((1, 3)))


class TestPcaEmbed:
    def test_keeps_each_samples_nearest_patches(self):
        rng = np.random.default_rng(8)
        bank = tiny_model(seed=0).bank
        # coarse values give tied distances; patches are sample-major, and at 3
        # a sample every patch is kept
        patches = np.round(rng.uniform(size=(60, bank.vectors.data.shape[1])), 1)
        patches[10:14] = patches[2]
        d2 = ((patches[:, None, :] - bank.vectors.data[None]) ** 2).sum(axis=2).min(axis=1)
        for per_sample in (3, 6, 12):
            ids = np.repeat(np.arange(60 // per_sample), per_sample)
            want = []
            for sid in np.unique(ids):
                rows = np.flatnonzero(ids == sid)
                want.extend(rows[np.argsort(d2[rows], kind="stable")][:5])
            report = metrics.pca_embed(patches, ids, np.zeros(60), bank, [frozenset(range(3))])
            kept = [int(name.split("_patch")[1]) for name, kind, *_ in report.points
                    if kind == "sample"]
            assert kept == sorted(want), per_sample

    @pytest.mark.parametrize("block_rows", [1, 7, 59])
    def test_row_blocks_keep_the_report(self, monkeypatch, block_rows):
        bank = tiny_model(seed=0).bank
        rng = np.random.default_rng(9)
        patches = rng.uniform(size=(60, bank.vectors.data.shape[1]))
        args = (patches, np.repeat(np.arange(10), 6), rng.uniform(size=60), bank,
                [frozenset(range(3))])
        whole = metrics.pca_embed(*args)
        monkeypatch.setattr(metrics, "PCA_BLOCK_ROWS", block_rows)
        blocked = metrics.pca_embed(*args)
        assert blocked.points == whole.points
        assert blocked.explained_variance == whole.explained_variance


class TestContributionOrder:
    def test_descending_with_index_ties(self):
        w = np.array([0.2, 0.5, 0.2, 0.9])
        assert contribution_order(w).tolist() == [3, 1, 0, 2]

    def test_all_equal(self):
        assert contribution_order(np.ones(4)).tolist() == [0, 1, 2, 3]


class TestUpsampleAndPgm:
    def test_upsample_identity(self):
        g = np.arange(12.0).reshape(3, 4)
        assert np.allclose(bilinear_upsample(g, (3, 4)), g)

    def test_upsample_corners_preserved(self):
        g = np.array([[0.0, 1.0], [2.0, 3.0]])
        up = bilinear_upsample(g, (5, 5))
        assert up[0, 0] == 0.0 and up[0, -1] == 1.0
        assert up[-1, 0] == 2.0 and up[-1, -1] == 3.0
        # midpoint is the mean of the four corners
        assert np.isclose(up[2, 2], 1.5)

    def test_upsample_monotone_ramp(self):
        g = np.array([[0.0, 1.0, 2.0]])
        up = bilinear_upsample(g, (1, 9))
        assert np.all(np.diff(up[0]) > 0)
        assert np.allclose(up[0], np.linspace(0.0, 2.0, 9))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10),
           st.sampled_from([(1, 1), (1, 5), (5, 1), (1, 2), (2, 1)])
           | st.tuples(st.integers(1, 7), st.integers(1, 7)),
           st.tuples(st.integers(1, 40), st.integers(1, 40)),
           st.integers(0, 2**32 - 1))
    def test_stack_matches_per_map_ix_formula(self, k, in_hw, out_hw, seed):
        maps = np.random.default_rng(seed).normal(size=(k, *in_hw))
        up = bilinear_upsample(maps, out_hw)
        assert up.shape == (k, *out_hw)
        for j in range(k):
            assert same_bits(up[j], upsample_ix(maps[j], out_hw))

    @pytest.mark.parametrize("in_hw", [(6, 6), (1, 1), (1, 5), (5, 1), (3, 7)])
    def test_2d_grid_returns_2d_map(self, in_hw):
        g = np.random.default_rng(0).uniform(size=in_hw)
        up = bilinear_upsample(g, (32, 32))
        assert same_bits(up, upsample_ix(g, (32, 32)))

    def test_pgm_header_and_scaling(self):
        raw = to_pgm_bytes(np.array([[0.0, 0.5], [0.25, 1.0]]))
        header, pixels = raw[:11], raw[11:]
        assert header == b"P5\n2 2\n255\n"
        assert list(pixels) == [0, 128, 64, 255]

    def test_pgm_constant_map(self):
        raw = to_pgm_bytes(np.full((2, 3), 7.0))
        assert raw.endswith(bytes(6))


class TestExplain:
    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        return tiny_model(seed=0)

    @pytest.fixture(scope="class")
    @staticmethod
    def image():
        return np.random.default_rng(1).uniform(size=(3, 8, 8))

    def test_fields_consistent(self, model, image):
        e = explain(image, sample_id=4, y=2.0, model=model, top_k=3)
        assert e.sample_id == 4 and e.y == 2.0
        assert len(e.records) == 3
        assert np.isclose(e.all_fractions.sum(), 1.0)
        # records sorted by weight descending
        weights = [r.weight for r in e.records]
        assert weights == sorted(weights, reverse=True)
        assert np.isclose(
            e.top3_cumulative_fraction,
            sum(sorted(e.all_fractions, reverse=True)[:3]),
        )
        assert e.projected is False
        assert all(r.provenance is None for r in e.records)

    def test_activation_map_peak_at_argmin(self, model, image):
        # similarity decreases with distance, so the activation map in latent
        # resolution peaks exactly at the recorded nearest-patch position
        from protoreg.engine import Tensor, no_grad
        from protoreg.prototypes import similarity

        with no_grad():
            result = model.forward(Tensor(image[None]))
            acts = similarity(result.dmap, model.similarity_kind, model.eps,
                              model.bank.d_max).data[0]
        dmap = result.dmap.data[0]
        for j in range(model.bank.m):
            peak = np.unravel_index(np.argmax(acts[j]), acts[j].shape)
            assert dmap[j][peak] == dmap[j].min()

    def test_activation_map_resolution(self, model, image):
        e = explain(image, sample_id=0, y=1.0, model=model, top_k=3)
        for r in e.records:
            assert r.activation_map.shape == (8, 8)

    def test_json_dict_round_trip(self, model, image):
        import json

        e = explain(image, sample_id=0, y=1.0, model=model, top_k=3)
        doc = e.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["top_k"] == 3
        assert len(doc["records"]) == 3

    @pytest.mark.parametrize("top_k", [3, 7])
    def test_maps_are_per_map_upsamples_of_similarity(self, image, top_k):
        from protoreg.config import resolve_config
        from protoreg.engine import Tensor, no_grad
        from protoreg.gradcheck import TINY_CFG
        from protoreg.model import Model
        from protoreg.prototypes import similarity

        overrides = {**TINY_CFG, "model": {**TINY_CFG["model"], "m": 7, "seed": 3}}
        model = Model.from_config(resolve_config(overrides))
        with no_grad():
            dmap = model.forward(Tensor(image[None])).dmap
            acts = similarity(dmap, model.similarity_kind, model.eps,
                              model.bank.d_max).data[0]
        e = explain(image, sample_id=0, y=1.0, model=model, top_k=top_k)
        assert len(e.records) == top_k  # m = 7 covers every map
        for r in e.records:
            assert same_bits(r.activation_map, upsample_ix(acts[r.index], (8, 8)))

    def test_prediction_matches_model(self, model, image):
        e = explain(image, sample_id=0, y=1.0, model=model, top_k=3)
        assert np.isclose(e.y_hat, model.score_np(image[None])[1][0])

    def test_prediction_has_evals_bits(self):
        # one image explained alone gets the y_hat that eval's batched pass gives it
        from protoreg.config import resolve_config
        from protoreg.model import Model

        model = Model.from_config(resolve_config())
        rng = np.random.default_rng(5)
        y = np.arange(1.0, 8.0)
        ds = SynthDataset(images=rng.uniform(size=(7, 3, 32, 32)), y=y, y_categorical=y,
                          label_mode="categorical", split="test")
        y_hat = metrics.per_sample_weights(model, ds)[0]
        for i in range(len(ds)):
            e = explain(ds.images[i], sample_id=i, y=y[i], model=model, top_k=3)
            assert e.y_hat == y_hat[i], i


class TestEvaluate:
    def test_evaluate_on_tiny_model(self):
        model = tiny_model(seed=0)
        rng = np.random.default_rng(2)
        n = 12
        ds = SynthDataset(
            images=rng.uniform(size=(n, 3, 8, 8)),
            y=np.tile(np.arange(1.0, 5.0), 3),
            y_categorical=np.tile(np.arange(1.0, 5.0), 3),
            label_mode="categorical",
            split="test",
        )
        out = metrics.evaluate(model, ds, grades=4)
        assert out["n_samples"] == n
        assert 0.0 <= out["accuracy"] <= 1.0
        assert 1.0 <= out["s_spars_mean"] <= model.bank.m
        assert 1 <= out["diversity"] <= model.bank.m
        # MAE oracle straight from predictions
        y_hat = model.head_np(model.dmin_np(model.latents_np(ds.images)))[1]
        assert np.isclose(out["mae"], np.mean(np.abs(y_hat - ds.y)))
