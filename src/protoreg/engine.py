"""Reverse-mode automatic differentiation on dense float64 arrays.

Tensors wrap numpy arrays and record their producing operation so that a
single backward() call over a scalar populates .grad on every reachable
tensor with requires_grad set. No broadcasting: binary elementwise ops
require identical shapes, and the few shape-changing ops (expand_rows,
bias_act's channel bias) are explicit. Argmin-style subgradients always
route to the earliest index in row-major scan order, so repeated backward
passes on identical inputs are bitwise identical. Each op that sends every
input its own gradient gives only its value and local derivative to
Tensor._unary or Tensor._binary, which record the node and route the
gradient to the inputs that require one. conv2d, bias_act and proto_sqdist
call Tensor._result themselves: each builds one backward intermediate that
serves both inputs. Every gradient is stored by Tensor._accum, which adds a
later contribution into a new array, never into the stored one.

conv2d and bias_act keep their (N,C,H,W)-shaped activations channels-last
in memory (strides of an (N,H,W,C) array), so a block reads its input's
rows and writes its output without a transpose.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-only forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _rows(a: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> C-contiguous (N*H*W, C): one row per spatial position, a
    view when a is channels-last in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).reshape(-1, a.shape[1])


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data, parents, backward, op):
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    def _accum(self, g):
        """Store a gradient contribution. No code writes into a stored gradient,
        so g may be shared with another tensor or be a view."""
        self.grad = g if self.grad is None else self.grad + g

    def _unary(self, out, grad, op) -> "Tensor":
        """The result of a one-input op: out, and grad(g), the gradient g sends to self."""
        return Tensor._result(out, (self,), lambda g: self._accum(grad(g)), op)

    def _binary(self, other, out, grad_a, grad_b, op) -> "Tensor":
        """The result of a two-input op: out, and the gradients grad_a(g) and
        grad_b(g) that g sends to self and to other."""

        def backward(g):
            if self.requires_grad:
                self._accum(grad_a(g))
            if other.requires_grad:
                other._accum(grad_b(g))

        return Tensor._result(out, (self, other), backward, op)

    # -- elementwise -------------------------------------------------------

    def _check_same_shape(self, other, op):
        if self.data.shape != other.data.shape:
            raise ShapeError(
                f"{op}: shape mismatch {self.data.shape} vs {other.data.shape}"
            )

    def add(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other, "add")
        return self._binary(other, self.data + other.data, lambda g: g, lambda g: g, "add")

    def sub(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other, "sub")
        return self._binary(other, self.data - other.data, lambda g: g, lambda g: -g, "sub")

    def mul(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other, "mul")
        ad, bd = self.data, other.data
        return self._binary(other, ad * bd, lambda g: g * bd, lambda g: g * ad, "mul")

    def div(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other, "div")
        bd = other.data
        out = self.data / bd
        return self._binary(other, out, lambda g: g / bd, lambda g: -g * out / bd, "div")

    def square(self) -> "Tensor":
        ad = self.data
        return self._unary(ad * ad, lambda g: 2.0 * ad * g, "square")

    def log(self) -> "Tensor":
        ad = self.data
        if np.any(ad <= 0.0):
            raise DomainError(f"log: non-positive input (min value {float(np.min(ad))})")
        return self._unary(np.log(ad), lambda g: g / ad, "log")

    def scale(self, c: float) -> "Tensor":
        c = float(c)
        return self._unary(c * self.data, lambda g: c * g, "scale")

    def add_scalar(self, c: float) -> "Tensor":
        return self._unary(self.data + float(c), lambda g: g, "add_scalar")

    def reciprocal(self) -> "Tensor":
        out = 1.0 / self.data
        return self._unary(out, lambda g: -g * out * out, "reciprocal")

    def clamp_max(self, hi: float) -> "Tensor":
        """Clamp values to <= hi; gradient is zero on the clamped entries."""
        mask = self.data <= hi
        return self._unary(np.minimum(self.data, hi), lambda g: g * mask, "clamp_max")

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        shape = self.data.shape
        return self._unary(np.sum(self.data, axis=axis), lambda g: np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), shape), "sum")

    def mean(self, axis=None) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis).scale(1.0 / n)

    def min_reduce(self, axis: int):
        """Minimum along one axis. Returns (min tensor, argmin index array).

        Gradient flows only to the argmin entry; np.argmin picks the first
        occurrence, which is the earliest-scan-order tie rule.
        """
        idx = np.argmin(self.data, axis=axis)
        at = np.expand_dims(idx, axis)

        def grad(g):
            buf = np.zeros_like(self.data)
            np.put_along_axis(buf, at, np.expand_dims(g, axis), axis=axis)
            return buf

        out = np.squeeze(np.take_along_axis(self.data, at, axis=axis), axis=axis)
        return self._unary(out, grad, "min_reduce"), idx

    def reshape(self, *shape) -> "Tensor":
        orig = self.data.shape
        return self._unary(self.data.reshape(*shape), lambda g: g.reshape(orig), "reshape")

    def expand_rows(self, n: int) -> "Tensor":
        """Tile a 1-D tensor into n identical rows; gradient sums over rows."""
        if self.data.ndim != 1:
            raise ShapeError(f"expand_rows expects a 1-D tensor, got {self.data.shape}")
        out = np.broadcast_to(self.data, (n, self.data.shape[0])).copy()
        return self._unary(out, lambda g: g.sum(axis=0), "expand_rows")

    # -- structured ops ------------------------------------------------------

    def conv2d(self, weight: "Tensor", stride: int = 1) -> "Tensor":
        """Valid (no padding) 2-D convolution: input (N,C,H,W), weight (K,C,kh,kw),
        output (N,K,oh,ow), channels-last in memory."""
        x, w = self, weight
        if x.data.ndim != 4 or w.data.ndim != 4:
            raise ShapeError(
                f"conv2d: expected 4-D input and weight, got {x.data.shape} and {w.data.shape}"
            )
        n, c, h, wd_ = x.data.shape
        k, cw, kh, kw = w.data.shape
        if cw != c:
            raise ShapeError(f"conv2d: input has {c} channels, kernels expect {cw}")
        if kh > h or kw > wd_:
            raise ShapeError(
                f"conv2d: kernel ({kh},{kw}) larger than input ({h},{wd_})"
            )
        s = stride
        oh = (h - kh) // s + 1
        ow = (wd_ - kw) // s + 1
        wdat = w.data
        p = n * oh * ow
        # (N,H,W,C) memory: a view when x is another block's output. Phase (a, b)
        # holds rows a, a+s, ... and columns b, b+s, ... in one C-contiguous copy
        # (x itself at stride 1 on channels-last memory), so each tap's rows are
        # copied in runs of ow*C values.
        xl = x.data.transpose(0, 2, 3, 1)
        phases = {(a, b): np.ascontiguousarray(xl[:, a::s, b::s])
                  for a in range(min(s, kh)) for b in range(min(s, kw))}

        # One matmul per tap, in the operand layout that np.einsum(optimize=True)
        # builds for the per-tap contraction, so every element is summed in the
        # same order, to the same bits. w_taps[i, j] is W[:, :, i, j].T made
        # contiguous once per call, as matmul would otherwise do on every tap.
        # The tap rows are kept when the weight gradient will need them.
        w_taps = np.ascontiguousarray(wdat.transpose(2, 3, 1, 0))
        keep_rows = _GRAD_ENABLED and w.requires_grad
        x_taps = []
        out = np.zeros((p, k))
        for i in range(kh):
            for j in range(kw):
                phase = phases[i % s, j % s]
                rows = np.ascontiguousarray(
                    phase[:, i // s : i // s + oh, j // s : j // s + ow]).reshape(p, c)
                out += rows @ w_taps[i, j]
                if keep_rows:
                    x_taps.append(rows)

        def backward(g):
            g_rows = _rows(g)
            if x.requires_grad:
                w_taps_t = np.ascontiguousarray(wdat.transpose(2, 3, 0, 1))
                gx = np.zeros((n, h, wd_, c))
                for i in range(kh):
                    for j in range(kw):
                        gx[:, i : i + s * oh : s, j : j + s * ow : s] += (
                            (g_rows @ w_taps_t[i, j]).reshape(n, oh, ow, c))
                x._accum(gx.transpose(0, 3, 1, 2))
            if w.requires_grad and x_taps:  # kept if w required a gradient in the forward
                gw = np.empty_like(wdat)
                for t, rows in enumerate(x_taps):
                    gw[:, :, t // kw, t % kw] = (rows.T @ g_rows).T
                w._accum(gw)

        return Tensor._result(out.reshape(n, oh, ow, k).transpose(0, 3, 1, 2), (x, w),
                              backward, "conv2d")

    def bias_act(self, bias: "Tensor", act: str) -> "Tensor":
        """act(x + bias) of an (N,K,H,W) activation and a per-channel bias (K,),
        with act "relu" (applied in place on the sum) or "sigmoid": one node,
        whose memory is channels-last."""
        if self.data.ndim != 4 or bias.data.ndim != 1 or self.data.shape[1] != bias.data.shape[0]:
            raise ShapeError(f"bias_act: got activation {self.data.shape}, bias {bias.data.shape}")
        if act not in ("relu", "sigmoid"):
            raise ValueError(f"bias_act: act must be \"relu\" or \"sigmoid\", got {act!r}")
        x, b = self, bias
        n, k, h, w = x.data.shape
        # the bias tiled along channels-last (N*H, W*K) rows, a free view of a
        # conv2d output (a C-contiguous input is copied), so each add runs W*K long
        rows = x.data.transpose(0, 2, 3, 1).reshape(n * h, w * k) + np.tile(b.data, w)
        out = rows.reshape(n, h, w, k).transpose(0, 3, 1, 2)
        if act == "relu":
            mask = out > 0.0
            np.multiply(out, mask, out=out)
        else:
            out = 1.0 / (1.0 + np.exp(-out))

        def backward(g):
            gz = g * mask if act == "relu" else g * out * (1.0 - out)
            if b.requires_grad:
                # summed in C order, the order of an (N,K,H,W)-contiguous gradient,
                # whatever gz's layout: numpy's reduction order follows memory
                b._accum(np.ascontiguousarray(gz).sum(axis=(0, 2, 3)))
            if x.requires_grad:
                x._accum(gz)

        return Tensor._result(out, (x, b), backward, "bias_act")

    def proto_sqdist(self, protos: "Tensor") -> "Tensor":
        """Squared L2 distance map between every spatial patch and every prototype.

        Input (N,C,H,W) against prototypes (m,C); output (N,m,H,W) where
        out[n,j,r,c] = ||Z[n,:,r,c] - P[j,:]||^2.
        """
        z, p = self, protos
        if z.data.ndim != 4 or p.data.ndim != 2:
            raise ShapeError(
                f"proto_sqdist: expected (N,C,H,W) and (m,C), got {z.data.shape}, {p.data.shape}"
            )
        if z.data.shape[1] != p.data.shape[1]:
            raise ShapeError(
                f"proto_sqdist: patch depth {z.data.shape[1]} != prototype depth {p.data.shape[1]}"
            )
        zd, pd = z.data, p.data
        n, c, h, w = zd.shape
        m = pd.shape[0]
        zr = zd.transpose(0, 2, 3, 1).reshape(n * h * w, c)
        out = (
            np.einsum("pc,pc->p", zr, zr)[:, None]
            - 2.0 * (zr @ pd.T)
            + np.einsum("jc,jc->j", pd, pd)[None, :]
        )
        # the expanded form leaves cancellation residue near zero; recompute
        # those entries directly so coincident points give exactly 0
        near = out < 1e-12
        if near.any():
            rows, js = np.nonzero(near)
            d = zr[rows] - pd[js]
            out[near] = np.einsum("pc,pc->p", d, d)
        out = out.reshape(n, h, w, m).transpose(0, 3, 1, 2).copy()

        def backward(g):
            g2d = g.transpose(0, 2, 3, 1).reshape(n * h * w, m)
            if z.requires_grad:
                gz = 2.0 * zd * g.sum(axis=1)[:, None, :, :] - 2.0 * (
                    (g2d @ pd).reshape(n, h, w, c).transpose(0, 3, 1, 2)
                )
                z._accum(gz)
            if p.requires_grad:
                gp = 2.0 * pd * g.sum(axis=(0, 2, 3))[:, None] - 2.0 * (g2d.T @ zr)
                p._accum(gp)

        return Tensor._result(out, (z, p), backward, "proto_sqdist")

    def masked_min_k_rows(self, masks: np.ndarray, k: int) -> "Tensor":
        """Row-wise min-k mean under a boolean mask, averaged over rows.

        For an (n,m) tensor and (n,m) mask, takes for each row the mean of
        the k smallest masked entries (all masked entries when fewer than k)
        and returns the average over rows as a scalar. Rows must have at
        least one True entry.
        """
        if self.data.shape != masks.shape:
            raise ShapeError(
                f"masked_min_k_rows: mask shape {masks.shape} != tensor {self.data.shape}"
            )
        if k < 1:
            raise ValueError(f"masked_min_k_rows: k must be >= 1, got {k}")
        n, m = self.data.shape
        counts = masks.sum(axis=1)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"masked_min_k_rows: row {empty[0]} has an empty mask")
        take = np.minimum(k, counts)
        width = min(k, m)
        # stable: ties go to the earliest column, and masked-out entries sort last
        order = np.argsort(np.where(masks, self.data, np.inf), axis=1, kind="stable")[:, :width]
        chosen = np.arange(width)[None, :] < take[:, None]
        rows, cols = np.nonzero(chosen)[0], order[chosen]
        picked = np.where(chosen, np.take_along_axis(self.data, order, axis=1), 0.0)
        # column by column: left to right, as np.mean adds fewer than 8 values
        row_sums = picked[:, 0].copy()
        for j in range(1, width):
            row_sums += picked[:, j]
        total = 0.0
        for v in (row_sums / take).tolist():
            total += v

        def grad(g):
            buf = np.zeros_like(self.data)
            buf[rows, cols] = g / (n * take[rows])
            return buf

        return self._unary(total / n, grad, "masked_min_k_rows")

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar; fills .grad on every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


# -- optimizer ----------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction, in place on a fixed list; a None .grad steps as zero."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        grads = [
            p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params
        ]
        for p, g in zip(self.params, grads):
            if p.data.shape != g.shape:
                raise ShapeError(f"Adam.step: grad shape {g.shape} != param {p.data.shape}")
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1**self.step_count
        bc2 = 1.0 - ADAM_BETA2**self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# -- gradient verification -----------------------------------------------------


def grad_check(closure, params: list[Tensor], fd_step: float = 1e-6,
               max_coords: int = 8) -> float:
    """Compare analytic gradients of closure() against central finite differences.

    closure must rebuild the loss (a scalar Tensor) from the current param
    values. Returns the max relative error over sampled coordinates,
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    rng = np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = closure()
    loss.backward()
    analytic = [p.grad for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        n = p.data.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        for c in coords:
            # index p.data itself: reshape(-1) copies a channels-last array
            at = np.unravel_index(c, p.data.shape)
            orig = p.data[at]
            p.data[at] = orig + fd_step
            with no_grad():
                up = closure().item()
            p.data[at] = orig - fd_step
            with no_grad():
                down = closure().item()
            p.data[at] = orig
            numeric = (up - down) / (2.0 * fd_step)
            ana = a[at]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, err)
    for p in params:
        p.grad = None
    return worst
