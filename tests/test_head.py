import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from protoreg.config import resolve_config
from protoreg.engine import Tensor
from protoreg.head import (
    DegenerateHeadError,
    contribution_weights,
    importance,
    predict,
)
from protoreg.model import Model


def run_predict(s, theta, labels):
    return predict(
        Tensor(np.atleast_2d(np.asarray(s, dtype=float))),
        Tensor(np.asarray(theta, dtype=float), requires_grad=True),
        np.asarray(labels, dtype=float),
    ).data


class TestPredict:
    def test_single_prototype_returns_its_label(self):
        assert run_predict([7.3], [1.2], [2.5])[0] == pytest.approx(2.5)

    def test_symmetric_mean(self):
        # theta^2 = l makes r = 1, w = s, so equal similarities average the labels
        assert run_predict([1.0, 1.0], np.sqrt([1.0, 3.0]), [1.0, 3.0])[0] == pytest.approx(2.0)

    def test_matches_weighted_mean_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            m = rng.integers(2, 12)
            s = rng.uniform(0.01, 100.0, m)
            theta = rng.normal(0.0, 2.0, m)
            labels = rng.uniform(0.1, 6.0, m)
            if np.all(theta == 0):
                continue
            y_hat = run_predict(s, theta, labels)[0]
            w = s * theta**2 / labels
            assert abs(y_hat - np.sum(w * labels) / np.sum(w)) < 1e-10

    def test_bounded_by_label_range(self):
        rng = np.random.default_rng(9)
        for _ in range(10**4):
            m = rng.integers(1, 8)
            s = rng.uniform(1e-3, 1e3, m)
            theta = rng.normal(0.0, 3.0, m)
            if np.allclose(theta, 0):
                theta[0] = 1.0
            labels = rng.uniform(0.1, 6.0, m)
            y_hat = run_predict(s, theta, labels)[0]
            assert labels.min() - 1e-9 <= y_hat <= labels.max() + 1e-9

    def test_degenerate_head_raises(self):
        with pytest.raises(DegenerateHeadError):
            run_predict([1.0, 1.0], [0.0, 0.0], [1.0, 2.0])

    @given(st.floats(0.1, 100.0))
    def test_uniform_scaling_of_s_is_invariant(self, c):
        s = np.array([2.0, 5.0, 1.0])
        theta = np.array([1.0, 0.7, 1.3])
        labels = np.array([1.0, 2.0, 3.0])
        base = run_predict(s, theta, labels)[0]
        scaled = run_predict(c * s, theta, labels)[0]
        assert scaled == pytest.approx(base, rel=1e-12)


class TestImportance:
    def test_init_theta_gives_unit_importance(self):
        cfg = resolve_config({"model": {"m": 3, "label_lo": 0.1, "label_hi": 5.9}})
        model = Model.from_config(cfg)
        np.testing.assert_allclose(model.bank.labels, [0.1, 3.0, 5.9])
        np.testing.assert_allclose(importance(model.theta.data, model.bank.labels), 1.0)

    def test_zero_theta_zero_importance(self):
        assert importance(np.array([0.0]), np.array([2.0]))[0] == 0.0

    def test_hand_value(self):
        assert importance(np.array([2.0]), np.array([2.0]))[0] == pytest.approx(2.0)


class TestContributionWeights:
    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(0.1, 10.0, 20)
        r = rng.uniform(0.0, 2.0, 20)
        r[0] = 1.0
        _, fractions = contribution_weights(s, r)
        assert abs(fractions.sum() - 1.0) < 1e-12

    def test_hand_fractions(self):
        _, fractions = contribution_weights(np.array([3.0, 1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(fractions, [0.75, 0.25])

    def test_single_support(self):
        _, fractions = contribution_weights(np.array([2.0, 3.0]), np.array([0.0, 1.5]))
        np.testing.assert_array_equal(fractions, [0.0, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateHeadError):
            contribution_weights(np.array([1.0]), np.array([0.0]))


@st.composite
def similarities_and_importance(draw):
    """(N, m) positive similarities with ties, and importances with zeros; m from 1 up."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    tied = st.sampled_from([0.5, 1.0, 1.0 / 3.0])
    s = draw(hnp.arrays(np.float64, (n, m), elements=tied | st.floats(1e-6, 1e6)))
    importances = st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 5.0)
    r = draw(hnp.arrays(np.float64, m, elements=importances))
    if not r.any():
        r[0] = 1.0
    return s, r


class TestContributionWeightRows:
    @settings(max_examples=200, deadline=None)
    @given(similarities_and_importance())
    def test_matrix_equals_row_loop(self, case):
        s, r = case
        w, fractions = contribution_weights(s, r)
        for i, s_row in enumerate(s):
            w_row = s_row * r
            assert w[i].tobytes() == w_row.tobytes()
            assert fractions[i].tobytes() == (w_row / w_row.sum()).tobytes()
            one_w, one_fractions = contribution_weights(s_row, r)
            assert one_w.tobytes() == w_row.tobytes()
            assert one_fractions.tobytes() == fractions[i].tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_similarity_names_first_row(self, bad):
        s = np.ones((5, 3))
        s[2, 1] = bad
        s[4, 0] = bad
        with pytest.raises(ValueError, match=r"s > 0 \(row 2\)"):
            contribution_weights(s, np.ones(3))

    def test_negative_importance_rejected(self):
        with pytest.raises(ValueError, match="r >= 0"):
            contribution_weights(np.ones((2, 2)), np.array([1.0, -1.0]))

    def test_degenerate_row_named(self):
        # row 1's weights underflow to zero; row 3's too, but row 1 comes first
        r = np.array([1e-200, 0.0])
        s = np.ones((4, 2))
        s[1, 0] = s[3, 0] = 1e-200
        with pytest.raises(DegenerateHeadError, match=r"row 1\)"):
            contribution_weights(s, r)
