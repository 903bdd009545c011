import numpy as np
import pytest

from protoreg.engine import ShapeError, Tensor, grad_check
from protoreg.losses import (
    cluster_loss,
    eligibility_masks,
    mse,
    psd_loss,
    total_loss,
)


def scalar(x):
    return Tensor(np.array(x))


class TestMse:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(Tensor(y.copy()), y).item() == 0.0

    def test_single_residual(self):
        assert mse(Tensor(np.array([2.0])), np.array([0.0])).item() == 4.0

    def test_matches_formula_on_random_vectors(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=50), rng.normal(size=50)
        assert mse(Tensor(a), b).item() == np.mean((a - b) ** 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor(np.zeros(3)), np.zeros(4))


class TestClusterLoss:
    def test_zero_distances_contribute_zero(self):
        dmat = Tensor(np.zeros((1, 3)))
        labels = np.array([1.0, 2.0, 3.0])
        assert cluster_loss(dmat, np.array([2.0]), labels, k=2, delta_l=1.5).item() == 0.0

    def test_hand_example_excludes_far_label(self):
        # eligible labels {1.8, 2.1}; the 3.0-label prototype is closest in
        # distance but excluded, so min-2 averages 0.3 and 0.1
        dmat = Tensor(np.array([[0.3, 0.1, 0.05]]))
        labels = np.array([1.8, 2.1, 3.0])
        loss = cluster_loss(dmat, np.array([2.0]), labels, k=2, delta_l=0.5)
        assert loss.item() == pytest.approx(0.2)

    def test_k1_is_min_over_eligible(self):
        dmat = Tensor(np.array([[0.5, 0.2, 0.9]]))
        labels = np.array([1.9, 2.1, 2.2])
        loss = cluster_loss(dmat, np.array([2.0]), labels, k=1, delta_l=0.5)
        assert loss.item() == pytest.approx(0.2)

    def test_empty_eligible_set_falls_back_to_nearest_label(self):
        dmat = Tensor(np.array([[0.7, 0.4]]))
        labels = np.array([1.0, 5.0])
        loss = cluster_loss(dmat, np.array([2.5]), labels, k=1, delta_l=0.5)
        assert loss.item() == pytest.approx(0.7)  # label 1.0 is nearest to 2.5

    def test_ineligible_prototype_gets_no_gradient(self):
        dmat = Tensor(np.array([[0.3, 0.1, 0.05]]), requires_grad=True)
        labels = np.array([1.8, 2.1, 3.0])
        cluster_loss(dmat, np.array([2.0]), labels, k=2, delta_l=0.5).backward()
        assert dmat.grad[0, 2] == 0.0
        np.testing.assert_allclose(dmat.grad[0, :2], 0.5)

    def test_monotone_in_selected_entry(self):
        labels = np.array([1.9, 2.0, 2.1])
        y = np.array([2.0])
        base = cluster_loss(Tensor(np.array([[0.2, 0.3, 0.4]])), y, labels, 2, 0.5).item()
        bumped = cluster_loss(Tensor(np.array([[0.25, 0.3, 0.4]])), y, labels, 2, 0.5).item()
        assert bumped > base


class TestEligibility:
    def test_strict_inequality(self):
        masks = eligibility_masks(np.array([2.0]), np.array([1.5, 2.5]), delta_l=0.5)
        # both prototypes sit exactly delta_l away -> neither passes the
        # strict test, fallback picks the nearest-label one (earliest tie)
        assert masks.sum() == 1


class TestPsdLoss:
    def test_zero_when_every_prototype_touched(self):
        dmat = Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert psd_loss(dmat, d_max=4.0).item() == 0.0

    def test_half_distance_hand_value(self):
        dmat = Tensor(np.array([[2.0, 2.0]]))
        assert psd_loss(dmat, d_max=4.0).item() == pytest.approx(np.log(2.0))

    def test_full_distance_clamped(self):
        dmat = Tensor(np.array([[4.0]]))
        assert psd_loss(dmat, d_max=4.0).item() == pytest.approx(-np.log(1e-6))

    def test_nonnegative_on_random_input(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dmat = Tensor(rng.uniform(0, 4, size=(4, 6)))
            assert psd_loss(dmat, d_max=4.0).item() >= 0.0

    def test_gradient_passes_finite_difference(self):
        rng = np.random.default_rng(13)
        dmat = Tensor(rng.uniform(0.5, 3.0, size=(3, 4)), requires_grad=True)
        err = grad_check(lambda: psd_loss(dmat, d_max=4.0), [dmat])
        assert err < 1e-4


def weights(clst, psd):
    return {"alpha_clst": clst, "alpha_psd": psd}


class TestTotalLoss:
    def test_mse_only_masking(self):
        out = total_loss(scalar(0.5), scalar(9.0), scalar(9.0), weights(0.0, 0.0))
        assert out.item() == 0.5

    def test_paper_weights_hand_value(self):
        out = total_loss(scalar(0.5), scalar(0.2), scalar(0.05), weights(1.0, 10.0))
        assert out.item() == pytest.approx(1.2)

    def test_linearity_in_weights(self):
        # the MSE term is unweighted; the rest doubles with both weights
        a = total_loss(scalar(0.3), scalar(0.2), scalar(0.1), weights(1, 1)).item()
        b = total_loss(scalar(0.3), scalar(0.2), scalar(0.1), weights(2, 2)).item()
        assert b - 0.3 == pytest.approx(2 * (a - 0.3))

    def test_non_finite_component_named(self):
        with pytest.raises(FloatingPointError, match="cluster"):
            total_loss(scalar(0.1), scalar(np.inf), scalar(0.1), weights(1.0, 10.0))
