import numpy as np
import pytest

from protoreg.engine import (
    Adam,
    DomainError,
    ShapeError,
    Tensor,
    grad_check,
    no_grad,
)


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=float), requires_grad=grad)


def sigmoid(x):
    """The entrywise sigmoid of x: bias_act with a zero bias on a (1, n, 1, 1) view."""
    n = x.data.size
    return x.reshape(1, n, 1, 1).bias_act(Tensor(np.zeros(n)), "sigmoid").reshape(*x.data.shape)


class TestElementwise:
    def test_add(self):
        np.testing.assert_array_equal(t([1, 2]).add(t([3, 4])).data, [4, 6])

    def test_mul_identity(self):
        x = t([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(x.mul(t([1, 1, 1])).data, x.data)

    def test_log_of_one(self):
        assert t([1.0]).log().data[0] == 0.0

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            t([1.0, -0.5]).log()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            t([1, 2]).add(t([1, 2, 3]))

    def test_sub_square_negate_scale(self):
        np.testing.assert_array_equal(t([5, 2]).sub(t([1, 4])).data, [4, -2])
        np.testing.assert_array_equal(t([3, -2]).square().data, [9, 4])
        np.testing.assert_array_equal(t([3, -2]).scale(-1.0).data, [-3, 2])
        np.testing.assert_array_equal(t([3, -2]).scale(2.0).data, [6, -4])


def _sig(a):
    return 1.0 / (1.0 + np.exp(-a))


def _relu(a):
    return a * (a > 0.0)


def _bias_grads(gz):
    """bias_act's input and bias gradients from its pre-activation gradient gz."""
    return gz, gz.sum(axis=(0, 2, 3))


# op name -> (the op on its input tensors, input arrays, numpy value, numpy
# gradient of each input given the upstream gradient g)
_R = np.random.default_rng(5)
_A, _B = _R.uniform(-2.0, 2.0, (3, 4)), _R.uniform(0.5, 2.0, (3, 4))
_X = _R.uniform(-2.0, 2.0, (2, 3, 2, 4))
# _X's values in channels-last memory, the layout conv2d gives bias_act
_X_LAST = np.ascontiguousarray(_X.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
# the last row has fewer than k = 2 entries in its mask
_MASK = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [0, 0, 1, 0]], dtype=bool)
_TAKE = np.minimum(2, _MASK.sum(axis=1))


def _min_k_value(a):
    ranked = np.sort(np.where(_MASK, a, np.inf), axis=1)
    row_sums = ranked[:, 0] + np.where(_TAKE > 1, ranked[:, 1], 0.0)
    return np.mean(row_sums / _TAKE)


def _min_k_grad(g, a):
    """g / (n * take) on the entries that each row's min-2 mean reads (a has no ties)."""
    kth = np.sort(np.where(_MASK, a, np.inf), axis=1)[np.arange(len(a)), _TAKE - 1]
    chosen = _MASK & (a <= kth[:, None])
    return (np.where(chosen, g / (len(a) * _TAKE[:, None]), 0.0),)


ROUTED_OPS = {
    "add": (lambda a, b: a.add(b), (_A, _B), lambda a, b: a + b,
            lambda g, a, b: (g, g)),
    "sub": (lambda a, b: a.sub(b), (_A, _B), lambda a, b: a - b,
            lambda g, a, b: (g, -g)),
    "mul": (lambda a, b: a.mul(b), (_A, _B), lambda a, b: a * b,
            lambda g, a, b: (g * b, g * a)),
    "div": (lambda a, b: a.div(b), (_A, _B), lambda a, b: a / b,
            lambda g, a, b: (g / b, -g * (a / b) / b)),
    "square": (lambda a: a.square(), (_A,), lambda a: a * a, lambda g, a: (2.0 * a * g,)),
    "log": (lambda a: a.log(), (_B,), np.log, lambda g, a: (g / a,)),
    "scale": (lambda a: a.scale(-1.5), (_A,), lambda a: -1.5 * a, lambda g, a: (-1.5 * g,)),
    "add_scalar": (lambda a: a.add_scalar(0.25), (_A,), lambda a: a + 0.25,
                   lambda g, a: (g,)),
    "reciprocal": (lambda a: a.reciprocal(), (_B,), lambda a: 1.0 / a,
                   lambda g, a: (-g * (1.0 / a) * (1.0 / a),)),
    "clamp_max": (lambda a: a.clamp_max(0.5), (_A,), lambda a: np.minimum(a, 0.5),
                  lambda g, a: (np.where(a <= 0.5, g, 0.0),)),
    "sum": (lambda a: a.sum(), (_A,), np.sum, lambda g, a: (np.full(a.shape, g),)),
    "sum-axis": (lambda a: a.sum(axis=1), (_A,), lambda a: a.sum(axis=1),
                 lambda g, a: (np.repeat(g[:, None], a.shape[1], axis=1),)),
    "reshape": (lambda a: a.reshape(4, 3), (_A,), lambda a: a.reshape(4, 3),
                lambda g, a: (g.reshape(3, 4),)),
    "expand_rows": (lambda a: a.expand_rows(5), (_A[0],), lambda a: np.tile(a, (5, 1)),
                    lambda g, a: (g.sum(axis=0),)),
    "bias_act-relu": (lambda a, b: a.bias_act(b, "relu"), (_X_LAST, _B[0, :3] - 1.0),
                      lambda a, b: _relu(a + b[None, :, None, None]),
                      lambda g, a, b: _bias_grads(g * (a + b[None, :, None, None] > 0.0))),
    "bias_act-sigmoid": (lambda a, b: a.bias_act(b, "sigmoid"), (_X_LAST, _B[0, :3] - 1.0),
                         lambda a, b: _sig(a + b[None, :, None, None]),
                         lambda g, a, b: _bias_grads(g * _sig(a + b[None, :, None, None])
                                                     * (1.0 - _sig(a + b[None, :, None, None])))),
    "min_reduce-axis0": (lambda a: a.min_reduce(axis=0)[0], (_A,), lambda a: a.min(axis=0),
                         lambda g, a: (np.where(a == a.min(axis=0), g, 0.0),)),
    "min_reduce-axis2": (lambda a: a.min_reduce(axis=2)[0], (_X,), lambda a: a.min(axis=2),
                         lambda g, a: (np.where(a == a.min(axis=2, keepdims=True),
                                                g[:, :, None], 0.0),)),
    "masked_min_k_rows": (lambda a: a.masked_min_k_rows(_MASK, 2), (_A,), _min_k_value,
                          _min_k_grad),
}


@pytest.mark.parametrize("name", ROUTED_OPS)
def test_routed_op_value_and_gradients(name):
    """Each elementwise and shape op: its value and the gradient to each input
    are bit for bit the numpy expressions, and agree with finite differences."""
    op, arrays, value, grads = ROUTED_OPS[name]
    inputs = [t(x) for x in arrays]
    out = op(*inputs)
    g = np.random.default_rng(6).uniform(0.5, 1.5, out.data.shape)
    # out * g summed sends exactly g back to out
    out.mul(Tensor(g)).sum().backward()
    for got, want in [(out.data, value(*arrays))] + [
            (x.grad, w) for x, w in zip(inputs, grads(g, *arrays))]:
        want = np.asarray(want, dtype=np.float64)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    err = grad_check(lambda: op(*inputs).mul(Tensor(g)).sum(), inputs, max_coords=12)
    assert err < 1e-6


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(t([0.0])).data[0] == 0.5

    def test_saturation(self):
        assert abs(sigmoid(t([50.0])).data[0] - 1.0) < 1e-12

    def test_derivative_matches_finite_difference(self):
        x = t([0.3])
        err = grad_check(lambda: sigmoid(x).sum(), [x], fd_step=1e-6)
        assert err < 1e-6


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(1, 1, 4, 4)))
        k = t(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(x.conv2d(k).data, x.data)

    def test_sum_window(self):
        x = t(np.ones((1, 1, 2, 2)))
        k = t(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(x.conv2d(k).data, [[[[4.0]]]])

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(2, 3, 3, 3))
        out = t(x).conv2d(t(w)).data
        expected = np.zeros((1, 2, 3, 3))
        for k in range(2):
            for oy in range(3):
                for ox in range(3):
                    acc = 0.0
                    for c in range(3):
                        for i in range(3):
                            for j in range(3):
                                acc += w[k, c, i, j] * x[0, c, oy + i, ox + j]
                    expected[0, k, oy, ox] = acc
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            t(np.ones((1, 2, 4, 4))).conv2d(t(np.ones((1, 3, 2, 2))))

    def test_strided_shapes(self):
        out = t(np.ones((1, 1, 7, 7))).conv2d(t(np.ones((1, 1, 3, 3))), stride=2)
        assert out.data.shape == (1, 1, 3, 3)


def einsum_conv_reference(x, w, stride, g):
    """Per-tap np.einsum(optimize=True) convolution: output, input and weight gradients."""
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out, gx, gw = np.zeros((n, k, oh, ow)), np.zeros_like(x), np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            tap = (slice(None), slice(None),
                   slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))
            out += np.einsum("kc,nchw->nkhw", w[:, :, i, j], x[tap], optimize=True)
            gx[tap] += np.einsum("kc,nkhw->nchw", w[:, :, i, j], g, optimize=True)
            gw[:, :, i, j] = np.einsum("nkhw,nchw->kc", g, x[tap], optimize=True)
    return out, gx, gw


# (in_channels, input side) and (weight shape, stride) of the default backbone blocks
DEFAULT_BLOCKS = [((3, 32), (8, 3, 3, 3), 2), ((8, 15), (16, 8, 3, 3), 2),
                  ((16, 7), (16, 16, 2, 2), 1), ((16, 6), (16, 16, 1, 1), 1)]


def conv_and_reference(batch, block, seed=0):
    (c, side), w_shape, stride = block
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(batch, c, side, side)))
    w = t(rng.normal(size=w_shape))
    out = x.conv2d(w, stride=stride)
    g = rng.normal(size=out.data.shape)
    out.mul(t(g, grad=False)).sum().backward()
    return (out.data, x.grad, w.grad), einsum_conv_reference(x.data, w.data, stride, g)


class TestConv2dMatchesEinsum:
    @pytest.mark.parametrize("batch", [2, 30])
    @pytest.mark.parametrize("block", DEFAULT_BLOCKS, ids=["b0", "b1", "b2", "b3"])
    def test_bitwise(self, batch, block):
        got, want = conv_and_reference(batch, block)
        for name, a, b in zip(("output", "input grad", "weight grad"), got, want):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("block", DEFAULT_BLOCKS, ids=["b0", "b1", "b2", "b3"])
    def test_batch_one_within_rounding(self, block):
        # at batch 1 einsum feeds matmul an F-ordered view, so the weight
        # gradient's summation order (and last bit) may differ
        got, want = conv_and_reference(1, block)
        for name, a, b in zip(("output", "input grad", "weight grad"), got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("side, stride", [(8, 1), (8, 2), (15, 1), (15, 2)])
def test_conv2d_bits_do_not_depend_on_input_layout(side, stride):
    """The same values in C-contiguous (N,C,H,W) memory and in channels-last
    memory give the same output, input gradient and weight gradient bits."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4, side, side))
    w = rng.normal(size=(5, 4, 3, 3))
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    got = []
    for data in (x, channels_last):
        xt, wt = t(data), t(w)
        out = xt.conv2d(wt, stride=stride)
        g = np.random.default_rng(8).normal(size=out.data.shape)
        out.mul(t(g, grad=False)).sum().backward()
        got.append([out.data, xt.grad, wt.grad])
    assert t(channels_last).data.transpose(0, 2, 3, 1).flags.c_contiguous
    for name, a, b in zip(("output", "input grad", "weight grad"), *got):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def masked_min_k_reference(d, masks, k):
    """Per-row loop: (value, gradient) of the masked min-k mean averaged over rows."""
    n = d.shape[0]
    grad = np.zeros_like(d)
    total = 0.0
    for i in range(n):
        cols = np.flatnonzero(masks[i])
        chosen = cols[np.argsort(d[i, cols], kind="stable")[: min(k, cols.size)]]
        total += float(np.mean(d[i, chosen]))
        grad[i, chosen] = 1.0 / (n * chosen.size)
    return total / n, grad


class TestMaskedMinKRows:
    def check(self, d, masks, k):
        x = t(d)
        value = x.masked_min_k_rows(masks, k)
        value.backward()
        want_value, want_grad = masked_min_k_reference(d, masks, k)
        assert value.item() == want_value
        assert np.array_equal(x.grad, want_grad)

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.0, 5.0, size=(30, 10))
        masks = rng.uniform(size=(30, 10)) < 0.5
        masks[:, 0] = True
        for k in (1, 3, 5):
            self.check(d, masks, k)

    def test_rows_with_fewer_than_k_entries(self):
        d = np.array([[4.0, 1.0, 3.0, 2.0], [5.0, 6.0, 7.0, 8.0]])
        masks = np.array([[True, False, True, False], [False, False, False, True]])
        self.check(d, masks, 3)
        x = t(d)
        assert x.masked_min_k_rows(masks, 3).item() == ((4.0 + 3.0) / 2 + 8.0) / 2

    def test_ties_go_to_earliest_column(self):
        d = np.array([[2.0, 1.0, 1.0, 1.0]])
        x = t(d)
        x.masked_min_k_rows(np.ones((1, 4), dtype=bool), 2).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.5, 0.5, 0.0]])
        self.check(d, np.array([[True, False, True, True]]), 1)

    def test_k_larger_than_m(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(size=(6, 3))
        masks = rng.uniform(size=(6, 3)) < 0.6
        masks[:, 2] = True
        self.check(d, masks, 7)

    def test_empty_mask_names_its_row(self):
        masks = np.array([[True, False], [False, False], [False, False]])
        with pytest.raises(ValueError, match="row 1 has an empty mask"):
            t(np.ones((3, 2))).masked_min_k_rows(masks, 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            t(np.ones((3, 2))).masked_min_k_rows(np.ones((3, 2), dtype=bool), 0)


class TestBackward:
    def test_square_derivative(self):
        x = t([3.0])
        x.square().sum().backward()
        assert x.grad[0] == 6.0

    def test_sum_gradient_is_ones(self):
        x = t(np.ones((2, 3)))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            t([1.0, 2.0]).backward()

    def test_reused_node_accumulates(self):
        x = t([2.0])
        y = x.mul(x).add(x.scale(3.0))  # x^2 + 3x, derivative 2x + 3 = 7
        y.sum().backward()
        assert x.grad[0] == 7.0

    def test_shared_gradient_is_not_written_into(self):
        # add hands one array to both of its inputs, so x's first contribution is
        # also y's gradient; adding x's second one must leave y's alone
        x, y = t([1.0, 2.0]), t([3.0, 4.0])
        x.add(y).add(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_view_gradient_is_not_written_into(self):
        # sum's gradient is a read-only broadcast view of the upstream scalar
        vals = np.array([[0.5, -1.0], [2.0, 3.0]])
        x = t(vals)
        x.sum().add(x.square().sum()).backward()
        np.testing.assert_array_equal(x.grad, 1.0 + 2.0 * vals)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(4, 4))

        def run():
            x = t(vals.copy())
            sigmoid(x).square().mul(x.add(x)).sum().backward()
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestMinReduce:
    def test_tie_earliest_scan_order(self):
        x = t([[0.7, 0.7, 0.7]])
        out, idx = x.min_reduce(axis=1)
        assert idx[0] == 0
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])


class TestAdam:
    @staticmethod
    def step(p, g, opt):
        p.grad = g
        opt.step()

    def test_zero_lr_keeps_params(self):
        p = t([1.0, 2.0])
        before = p.data.copy()
        self.step(p, np.array([0.5, -0.5]), Adam([p], lr=0.0))
        np.testing.assert_array_equal(p.data, before)

    def test_zero_gradients_keep_params(self):
        p = t([1.0, 2.0])
        before = p.data.copy()
        self.step(p, np.zeros(2), Adam([p], lr=1e-3))
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_matches_hand_formula(self):
        p = t([1.0])
        self.step(p, np.array([0.5]), Adam([p], lr=1e-3))
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12

    def test_step_counter_increments(self):
        p = t([1.0])
        opt = Adam([p], lr=1e-3)
        for i in range(3):
            self.step(p, np.array([0.1]), opt)
            assert opt.step_count == i + 1

    def test_shape_mismatch(self):
        p = t([1.0, 2.0])
        with pytest.raises(ShapeError):
            self.step(p, np.zeros(3), Adam([p], lr=1e-3))


class TestGradCheck:
    def test_linear_function_is_exact(self):
        x = t([1.0, 2.0, 3.0])
        err = grad_check(lambda: x.scale(4.0).sum(), [x], fd_step=1e-4)
        assert err < 1e-10

    def test_sigmoid_chain(self):
        x = t([0.1, -0.4, 0.8])
        err = grad_check(lambda: sigmoid(x).square().sum(), [x])
        assert err < 1e-6

    def test_corrupted_gradient_is_flagged(self):
        x = t([1.0, 2.0])

        def buggy_double(v):
            # forward is 2v but the recorded gradient is 4, twice the truth
            def backward(g):
                v._accum(4.0 * g)

            return Tensor._result(2.0 * v.data, (v,), backward, "buggy")

        err = grad_check(lambda: buggy_double(x).sum(), [x])
        assert err >= 0.33


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = t([1.0])
        with no_grad():
            y = x.square()
        assert y._backward is None and not y.requires_grad


class TestAdamWrapper:
    def test_moves_param_against_gradient(self):
        p = t([1.0])
        opt = Adam([p], lr=0.1)
        p.square().sum().backward()
        opt.step()
        assert p.data[0] < 1.0
