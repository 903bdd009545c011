import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protoreg.config import ConfigError, resolve_config
from protoreg.engine import ShapeError, Tensor
from protoreg.model import Model
from protoreg.prototypes import PrototypeBank, distance_map, min_pool, similarity


def config_labels(m, lo, hi):
    """The prototype labels of the model that model.m, label_lo and label_hi describe."""
    cfg = resolve_config({"model": {"m": m, "label_lo": lo, "label_hi": hi}})
    return Model.from_config(cfg).bank.labels


def bank_with(vectors, labels=None):
    m = vectors.shape[0]
    if labels is None:
        labels = np.linspace(0.1, 5.9, m)
    return PrototypeBank(
        vectors=Tensor(vectors, requires_grad=True),
        labels=labels,
        provenance=[None] * m,
    )


class TestDistanceMap:
    def test_coincident_patch_gives_zero(self):
        vec = np.full((1, 4), 0.3)
        z = np.broadcast_to(vec[0][:, None, None], (4, 2, 2)).copy()
        d = distance_map(Tensor(z[None]), bank_with(np.vstack([vec, np.full((1, 4), 0.9)])))
        assert d.data[0, 0].max() == 0.0

    def test_orthogonal_unit_vectors(self):
        e1 = np.array([[1.0, 0.0]])
        z = np.array([0.0, 1.0])[:, None, None]  # e2 at the only position
        d = distance_map(Tensor(z[None]), bank_with(np.vstack([e1, e1])))
        assert d.data[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(size=(1, 8, 4, 4))
        protos = rng.uniform(size=(5, 8))
        d = distance_map(Tensor(z), bank_with(protos)).data
        for j in range(5):
            for r in range(4):
                for c in range(4):
                    expected = np.sum((z[0, :, r, c] - protos[j]) ** 2)
                    assert abs(d[0, j, r, c] - expected) < 1e-12

    def test_depth_mismatch(self):
        with pytest.raises(ShapeError, match="depth"):
            distance_map(Tensor(np.zeros((1, 4, 2, 2))), bank_with(np.zeros((2, 5)) + 0.5))


class TestMinPool:
    def test_constant_map_tie_breaks_to_origin(self):
        d = Tensor(np.full((1, 2, 3, 3), 0.7))
        mins, pos = min_pool(d)
        assert np.all(mins.data == 0.7)
        assert np.all(pos == 0)

    def test_unique_minimum_located(self):
        arr = np.full((1, 1, 3, 4), 0.5)
        arr[0, 0, 1, 2] = 0.0
        mins, pos = min_pool(Tensor(arr))
        assert mins.data[0, 0] == 0.0
        assert tuple(pos[0, 0]) == (1, 2)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(6)
        arr = rng.uniform(size=(2, 3, 4, 5))
        mins, pos = min_pool(Tensor(arr))
        for n in range(2):
            for j in range(3):
                assert mins.data[n, j] == arr[n, j].min()
                r, c = pos[n, j]
                assert arr[n, j, r, c] == arr[n, j].min()


class TestSimilarity:
    def test_reciprocal_at_zero(self):
        s = similarity(Tensor(np.array([0.0])), "reciprocal", eps=1e-4, d_max=16.0)
        assert s.data[0] == pytest.approx(1e4)

    def test_reciprocal_at_d_max(self):
        s = similarity(Tensor(np.array([16.0])), "reciprocal", eps=1e-4, d_max=16.0)
        assert s.data[0] == pytest.approx(1.0 / 1.0001)

    def test_log_at_zero(self):
        s = similarity(Tensor(np.array([0.0])), "log", eps=1e-4, d_max=16.0)
        assert s.data[0] == pytest.approx(np.log(1.0 / 1e-4))

    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigError, match="model.eps must be > 0, got 0.0"):
            resolve_config({"model": {"eps": 0.0}})

    @given(st.floats(0.0, 15.9), st.floats(0.001, 0.1))
    def test_strictly_decreasing_both_kinds(self, d, gap):
        for kind in ("reciprocal", "log"):
            lo = similarity(Tensor(np.array([d])), kind, 1e-4, 16.0).data[0]
            hi = similarity(Tensor(np.array([d + gap])), kind, 1e-4, 16.0).data[0]
            assert lo > hi

    def test_reciprocal_amplifies_distance_gaps_more_than_log(self):
        # ratio s(d)/s(2d) on a grid of d in (0, d_max/2]
        d_max, eps = 16.0, 1e-4
        for d in np.linspace(1e-3, d_max / 2, 200):
            rec = (lambda x: 1.0 / (x / d_max + eps))
            lg = (lambda x: np.log((x + 1.0) / (x + eps)))
            assert rec(d) / rec(2 * d) > lg(d) / lg(2 * d)


class TestDMax:
    def test_paper_depth(self):
        assert bank_with(np.zeros((2, 128))).d_max == 128.0

    def test_unit_interval(self):
        assert bank_with(np.zeros((2, 1))).d_max == 1.0

    def test_random_pairs_never_exceed_bound(self):
        rng = np.random.default_rng(7)
        c_z = 16
        a = rng.uniform(size=(10**5, c_z))
        b = rng.uniform(size=(10**5, c_z))
        assert np.max(np.sum((a - b) ** 2, axis=1)) <= bank_with(np.zeros((2, c_z))).d_max


class TestLabels:
    def test_paper_grid(self):
        labels = config_labels(50, 0.1, 5.9)
        assert labels[0] == pytest.approx(0.1)
        assert labels[-1] == pytest.approx(5.9)
        assert np.allclose(np.diff(labels), 5.8 / 49)

    def test_two_prototypes(self):
        np.testing.assert_allclose(config_labels(2, 0.5, 2.5), [0.5, 2.5])

    @given(st.integers(2, 60), st.floats(0.01, 1.0), st.floats(1.5, 9.0))
    def test_strictly_increasing(self, m, lo, hi):
        labels = config_labels(m, lo, hi)
        assert np.all(np.diff(labels) > 0)

    def test_nonpositive_lo_rejected(self):
        with pytest.raises(ConfigError, match="model.label_lo must be > 0, got 0.0"):
            resolve_config({"model": {"m": 5, "label_lo": 0.0, "label_hi": 5.0}})
