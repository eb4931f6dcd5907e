"""Minimal reverse-mode autodiff over float64 numpy arrays.

Define-then-run: build a DAG of Node objects once, then repeatedly bind
arrays to the Input leaves and call forward / backward on the root. The
leaves are Param (trainable, holds its value) and Input (bound per
forward, in a dict keyed by the Input node itself). Only the operations
needed by the encoder / generator / discriminator stack exist; there is no
broadcasting and no dynamic shape polymorphism beyond the batch dimension.

Gradient convention: backward(root) requires a scalar root, overwrites the
grad of every leaf (Param, Input) reachable from the root, and
accumulates additively when a node (typically a Param) feeds several
branches of the same graph. Op nodes hold a grad only while the sweep
needs it: it is dropped (set to None) as soon as the op has passed it on,
so between sweeps only leaves keep gradients. backward(root, wrt=params)
visits only the nodes on a path from the root to one of those Params and
overwrites only the grads of the leaves among them; the grads of off-path
leaves, and of Params outside wrt, are left stale from earlier sweeps. The
wanted Params get bit-identical grads either way.

forward(root, bindings, reuse) leaves the op nodes in reuse as they are.
reuse_plan works out, for a fixed schedule of forwards and parameter
updates under one set of bindings, which nodes each forward can keep from
an earlier one; the trainer's phases use it.

grad_check(root, param, bindings) compares backward's gradient of one
Param with central differences of forward under those bindings.

Graphs hold no reference cycles: the caches a root keeps (its topological
order and its backward plans) leave the root itself out, so a graph that
goes out of scope is freed at once, without waiting for the cyclic GC.
"""
from __future__ import annotations

import numpy as np


class GraphError(Exception):
    """Malformed graph or misuse of the forward/backward protocol."""


class ShapeError(GraphError):
    """Operand shapes inconsistent with the op's contract."""


class UnboundInputError(GraphError):
    """forward() called without a binding for some Input node."""


class NonScalarRootError(GraphError):
    """backward() called on a root whose value is not a scalar."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[neg])
    out[neg] = e / (1.0 + e)
    return out


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) via the overflow-free max/log1p split."""
    t = np.asarray(t, dtype=np.float64)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class Node:
    """One vertex of the computation DAG."""

    op = "abstract"

    def __init__(self, *inputs: "Node"):
        for inp in inputs:
            if not isinstance(inp, Node):
                raise GraphError(f"{self.op}: inputs must be Node instances, got {type(inp)!r}")
        self.inputs: list[Node] = list(inputs)
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        self._topo: list[Node] | None = None
        self._plans: dict = {}  # backward plans of this root, keyed by wrt

    def _forward(self, *vals: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _backward(self, grad: np.ndarray, needs: tuple, *vals: np.ndarray):
        """Return one gradient array per input.

        Where needs[i] is False nothing reads input i's gradient, so the op
        may skip computing it and return None in its place.
        """
        raise NotImplementedError

    def _label(self) -> str:
        return self.op

    def _shape_error(self, msg: str) -> ShapeError:
        return ShapeError(f"{self._label()}: {msg}")


class Input(Node):
    """Placeholder bound at forward() time; the name only labels errors."""

    op = "input"

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _label(self):
        return f"input '{self.name}'"


class Param(Node):
    """Trainable leaf with persistent value, grad and Adam moment slots."""

    op = "param"

    def __init__(self, name: str, value):
        super().__init__()
        self.name = name
        self.value = _as_f64(value).copy()
        self.grad = np.zeros_like(self.value)
        self.moment1 = np.zeros_like(self.value)
        self.moment2 = np.zeros_like(self.value)

    def _label(self):
        return f"param '{self.name}'"


class Dense(Node):
    """Affine map y = x @ w.T + b over the flattened non-batch dims.

    x: (B, ...) flattened to (B, M); w: (N, M); b: (N,). When out_shape is
    given the (B, N) result is viewed as (B, *out_shape), which lets a dense
    expansion feed a conv stack without a separate reshape op.
    """

    op = "dense"

    def __init__(self, x: Node, w: Node, b: Node, out_shape: tuple | None = None):
        super().__init__(x, w, b)
        self.out_shape = tuple(out_shape) if out_shape is not None else None

    def _forward(self, x, w, b):
        if x.ndim < 2:
            raise self._shape_error(f"expected batched input, got shape {x.shape}")
        x2 = x.reshape(x.shape[0], -1)
        if w.ndim != 2 or w.shape[1] != x2.shape[1]:
            raise self._shape_error(f"weight {w.shape} does not match input {x2.shape}")
        if b.shape != (w.shape[0],):
            raise self._shape_error(f"bias {b.shape} does not match {w.shape[0]} outputs")
        y = x2 @ w.T + b
        if self.out_shape is not None:
            if int(np.prod(self.out_shape)) != w.shape[0]:
                raise self._shape_error(f"out_shape {self.out_shape} incompatible with {w.shape[0]} outputs")
            y = y.reshape((x.shape[0],) + self.out_shape)
        return y

    def _backward(self, g, needs, x, w, b):
        g2 = g.reshape(g.shape[0], -1)
        gx = (g2 @ w).reshape(x.shape) if needs[0] else None
        gw = g2.T @ x.reshape(x.shape[0], -1) if needs[1] else None
        gb = g2.sum(axis=0) if needs[2] else None
        return gx, gw, gb


def _leaky_dydx(op: str, slope) -> np.ndarray:
    """[slope, 1.0]: the LeakyReLU derivative indexed by x >= 0."""
    if not 0.0 < slope <= 1.0:
        raise GraphError(f"{op}: slope must be in (0, 1], got {slope!r}")
    return np.array([float(slope), 1.0])


def _leaky(x: np.ndarray, slope: float, out=None) -> np.ndarray:
    return np.maximum(x, slope * x, out=out)


def _leaky_grad(g: np.ndarray, nonneg: np.ndarray, dydx: np.ndarray) -> np.ndarray:
    """g times the LeakyReLU derivative, looked up from the bool mask x >= 0.

    numpy does the lookup several times faster than np.where against
    scalars; the product is taken in place, in either order the same bits.
    """
    dy = dydx[nonneg.view(np.uint8)]
    dy *= g
    return dy


class DilatedCausalConv1d(Node):
    """1-D convolution with left zero padding of (K-1)*dilation, optionally
    fused with a LeakyReLU.

    x: (B, C_in, T); w: (C_out, C_in, K); b: (C_out,).
    pre[c, t] = b[c] + sum_{i,k} w[c, i, k] * xpad[i, t + k*dilation], so the
    output at t sees only inputs at positions <= t and keeps length T.

    With slope=None the node's value is pre. With a slope in (0, 1] it is
    max(pre, slope * pre), bit for bit the value and the x, w and b
    gradients of LeakyRelu(DilatedCausalConv1d(x, w, b, dilation), slope).
    The fused node keeps the one-byte mask pre >= 0 instead of pre: the
    mask cannot be derived from the output, because a negative subnormal
    pre rounds to an output of -0.0, which tests >= 0.
    """

    op = "dilated_causal_conv1d"

    def __init__(self, x: Node, w: Node, b: Node, dilation: int, slope: float | None = None):
        super().__init__(x, w, b)
        if int(dilation) != dilation or dilation < 1:
            raise GraphError(f"dilated_causal_conv1d: dilation must be a positive integer, got {dilation!r}")
        self.dilation = int(dilation)
        self.slope = None if slope is None else float(slope)
        self._dydx = None if slope is None else _leaky_dydx(self.op, slope)
        self._cols = None
        self._nonneg = None

    def _shifts(self, k: int, t: int):
        """(tap, how far tap reads behind t), the shift capped at T."""
        return [(j, min((k - 1 - j) * self.dilation, t)) for j in range(k)]

    def _forward(self, x, w, b):
        if x.ndim != 3:
            raise self._shape_error(f"expected (B, C, T) input, got shape {x.shape}")
        if w.ndim != 3 or w.shape[1] != x.shape[1]:
            raise self._shape_error(f"weight {w.shape} does not match {x.shape[1]} input channels")
        c_out, c_in, k = w.shape
        if b.shape != (c_out,):
            raise self._shape_error(f"bias {b.shape} does not match {c_out} output channels")
        bsz, _, t = x.shape
        # im2col straight from x: tap j at t reads x[t - (K-1-j)*dilation], or 0
        cols = np.empty((bsz, c_in, k, t))
        for j, shift in self._shifts(k, t):
            if shift:
                cols[:, :, j, :shift] = 0.0
            cols[:, :, j, shift:] = x[:, :, : t - shift]
        cols = cols.reshape(bsz, c_in * k, t)
        out = np.matmul(w.reshape(c_out, c_in * k), cols)
        out += b[:, None]
        # cache the im2col buffer; backward reuses it for the weight gradient
        self._cols = cols
        if self._dydx is not None:
            self._nonneg = out >= 0
            _leaky(out, self.slope, out=out)  # pre is not kept
        return out

    def _backward(self, g, needs, x, w, b):
        if self._dydx is not None:
            g = _leaky_grad(g, self._nonneg, self._dydx)
        c_out, c_in, k = w.shape
        bsz, _, t = g.shape
        gx = gw = gb = None
        if needs[0]:
            gcols = np.matmul(w.reshape(c_out, c_in * k).T, g).reshape(bsz, c_in, k, t)
            # the adjoint of the im2col gather: 0 + tap 0 + tap 1 + ... in
            # that order; adding 0.0 turns a first term of -0.0 into +0.0
            gx = np.empty((bsz, c_in, t))
            (_, first), *rest = self._shifts(k, t)
            np.add(gcols[:, :, 0, first:], 0.0, out=gx[:, :, : t - first])
            gx[:, :, t - first :] = 0.0
            for j, shift in rest:
                gx[:, :, : t - shift] += gcols[:, :, j, shift:]
        if needs[1]:
            gw = np.matmul(g, self._cols.transpose(0, 2, 1)).sum(axis=0).reshape(c_out, c_in, k)
        if needs[2]:
            gb = g.sum(axis=(0, 2))
        return gx, gw, gb


class LeakyRelu(Node):
    """max(x, slope * x) with slope in (0, 1].

    In that range the max form equals where(x >= 0, x, slope * x) bit for
    bit, signed zeros, infinities and NaN included; at slope 0 it would turn
    +inf into NaN. A conv followed by a LeakyReLU is better built as one
    fused DilatedCausalConv1d(..., slope=slope) node.
    """

    op = "leaky_relu"

    def __init__(self, x: Node, slope: float = 0.2):
        super().__init__(x)
        self._dydx = _leaky_dydx(self.op, slope)
        self.slope = float(slope)

    def _forward(self, x):
        return _leaky(x, self.slope)

    def _backward(self, g, needs, x):
        return (_leaky_grad(g, x >= 0, self._dydx),)


class Tanh(Node):
    op = "tanh"

    def _forward(self, x):
        return np.tanh(x)

    def _backward(self, g, needs, x):
        return (g * (1.0 - self.value**2),)


class Add(Node):
    """Elementwise sum of two same-shape operands."""

    op = "add"

    def _forward(self, a, b):
        if a.shape != b.shape:
            raise self._shape_error(f"operand shapes differ: {a.shape} vs {b.shape}")
        return a + b

    def _backward(self, g, needs, a, b):
        return g, g


class Affine(Node):
    """y = scale * x + shift with Python-float coefficients."""

    op = "affine"

    def __init__(self, x: Node, scale: float, shift: float = 0.0):
        super().__init__(x)
        self.scale = float(scale)
        self.shift = float(shift)

    def _forward(self, x):
        return self.scale * x + self.shift

    def _backward(self, g, needs, x):
        return (self.scale * g,)


class Clamp(Node):
    """Elementwise clip to [lo, hi]; gradient passes only inside the band."""

    op = "clamp"

    def __init__(self, x: Node, lo: float, hi: float):
        super().__init__(x)
        if not lo < hi:
            raise GraphError(f"clamp: lo must be < hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def _forward(self, x):
        return np.clip(x, self.lo, self.hi)

    def _backward(self, g, needs, x):
        return (g * ((x >= self.lo) & (x <= self.hi)),)


class Mse(Node):
    """Mean over all elements of (a - b)^2."""

    op = "mse"

    def _forward(self, a, b):
        if a.shape != b.shape:
            raise self._shape_error(f"operand shapes differ: {a.shape} vs {b.shape}")
        return np.asarray(((a - b) ** 2).mean())

    def _backward(self, g, needs, a, b):
        d = (2.0 * float(g) / a.size) * (a - b)
        return d, -d


class Bce(Node):
    """Binary cross-entropy of logits against a fixed 0/1 label, mean-reduced.

    Computed as mean(softplus(t) - label * t), the log-sum-exp form of
    -label*log(sigmoid(t)) - (1-label)*log(1-sigmoid(t)); never evaluates
    log of a saturated probability.
    """

    op = "bce"

    def __init__(self, logits: Node, label: float):
        super().__init__(logits)
        if label not in (0.0, 1.0, 0, 1):
            raise GraphError(f"bce: label must be 0 or 1, got {label!r}")
        self.label = float(label)

    def _forward(self, t):
        return np.asarray((softplus(t) - self.label * t).mean())

    def _backward(self, g, needs, t):
        return ((float(g) / t.size) * (sigmoid(t) - self.label),)


class GaussianKl(Node):
    """KL( N(mean, exp(logvar)) || N(0, 1) ), summed over latent dims and
    averaged over the batch; mean and logvar are (B, L)."""

    op = "gaussian_kl"

    def _forward(self, mean, logvar):
        if mean.ndim != 2 or mean.shape != logvar.shape:
            raise self._shape_error(f"expected (B, L) mean and logvar, got {mean.shape}, {logvar.shape}")
        return np.asarray(0.5 * np.sum(mean**2 + np.exp(logvar) - 1.0 - logvar) / mean.shape[0])

    def _backward(self, g, needs, mean, logvar):
        coeff = float(g) / mean.shape[0]
        return coeff * mean, coeff * 0.5 * (np.exp(logvar) - 1.0)


class Reparameterize(Node):
    """z = mean + exp(0.5 * logvar) * epsilon; differentiable in mean, logvar."""

    op = "reparameterize"

    def _forward(self, mean, logvar, eps):
        if not (mean.shape == logvar.shape == eps.shape):
            raise self._shape_error(
                f"shapes differ: mean {mean.shape}, logvar {logvar.shape}, eps {eps.shape}"
            )
        return mean + np.exp(0.5 * logvar) * eps

    def _backward(self, g, needs, mean, logvar, eps):
        std = np.exp(0.5 * logvar)
        return g, g * eps * 0.5 * std, g * std


def topo_order(root: Node) -> list[Node]:
    """Deterministic post-order of the DAG reachable from root, root last.

    The order below the root is cached on it; the root is appended per call,
    so the cache holds no reference back to its owner.
    """
    if root._topo is None:
        order: list[Node] = []
        seen: set[int] = {id(root)}
        stack: list[tuple[Node, bool]] = [(inp, False) for inp in reversed(root.inputs)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for inp in reversed(node.inputs):
                if id(inp) not in seen:
                    stack.append((inp, False))
        root._topo = order
    return root._topo + [root]


def _resolve_bindings(order: list[Node], bindings: dict | None) -> dict[Input, np.ndarray]:
    bindings = bindings or {}
    resolved: dict[Input, np.ndarray] = {}
    for node in order:
        if isinstance(node, Input):
            if node not in bindings:
                raise UnboundInputError(f"no binding for input '{node.name}'")
            resolved[node] = _as_f64(bindings[node])
    return resolved


def forward(root: Node, bindings: dict | None = None, reuse=frozenset()) -> np.ndarray:
    """Evaluate the DAG under bindings {Input: array} and return root.value.

    All intermediate values stay cached on the nodes for backward(). Op
    nodes in reuse are not evaluated: they keep the value (and the caches
    their backward reads) of the forward that last computed them. The
    caller guarantees those values are still what evaluating would give,
    i.e. that no leaf below such a node has changed since; reuse_plan
    works that out for a fixed training schedule.
    """
    order = topo_order(root)
    resolved = _resolve_bindings(order, bindings)
    for node in order:
        if isinstance(node, Input):
            node.value = resolved[node]
        elif not isinstance(node, Param) and node not in reuse:
            node.value = node._forward(*(inp.value for inp in node.inputs))
    return root.value


def reuse_plan(schedule) -> list[frozenset]:
    """What each forward of a fixed schedule may skip, as forward's reuse.

    schedule lists (root, params) entries, run in order under bindings that
    stay fixed: forward(root), then an in-place update of params. An op
    node may be reused by an entry when an earlier entry computed it and no
    Param below it has been updated since. The first entry reuses nothing,
    so the plan holds for every run of the schedule under new bindings.
    """
    orders = [topo_order(root) for root, _ in schedule]
    valid: set[Node] = set()
    plan = []
    for order, (_, params) in zip(orders, schedule):
        plan.append(frozenset(node for node in order if node in valid))
        valid.update(node for node in order if node.inputs)
        stale = set(params)
        for other in orders:  # each lists a node's whole subgraph before it
            for node in other:
                if any(inp in stale for inp in node.inputs):
                    stale.add(node)
        valid -= stale
    return plan


def _backward_plan(root: Node, wrt) -> tuple[list[Node], list[tuple[Node | None, tuple]]]:
    """(nodes below the root that the sweep visits, [(op node, per-input
    needs)] in reversed topo order) for one root and wrt set, cached on the
    root.

    A node is on the plan when it is a wrt Param or one of its inputs is on
    the plan, i.e. when some path leads from it to a wanted Param; wrt=None
    plans every node reachable from the root. Each input's grad then gets
    the same terms in the same order as in the full sweep. The root's own
    step, when it has one, comes first with None in place of the root, so
    the cache holds no reference back to the root.
    """
    key = None if wrt is None else frozenset(wrt)
    plan = root._plans.get(key)
    if plan is None:
        order = topo_order(root)
        if key is None:
            on_path = set(order)
        else:
            on_path = set()
            for node in order:
                if node in key or any(inp in on_path for inp in node.inputs):
                    on_path.add(node)
        fill = [node for node in order[:-1] if node in on_path]
        steps = [
            (None if node is root else node, tuple(inp in on_path for inp in node.inputs))
            for node in reversed(order) if node in on_path and node.inputs
        ]
        plan = root._plans[key] = (fill, steps)
    return plan


def backward(root: Node, wrt=None) -> None:
    """Reverse-mode sweep from a scalar root.

    With wrt=None, fills grad on every leaf below the root. With an iterable
    of Params, visits only the nodes on a path from root to one of them and
    computes only the input gradients those nodes need.

    A node's first incoming term is copied with np.add(g, 0.0): that equals
    0 + g, the first sum of a zero-filled accumulator, bit for bit (a -0.0
    becomes +0.0), and never aliases g, which Add and Reparameterize hand to
    several inputs at once. Later terms are added in place. Each op node's
    grad is dropped once its op has used it. Every planned node below the
    root has a planned consumer that needs it, so every planned leaf ends the
    sweep with a grad.
    """
    if root.value is None:
        raise GraphError("backward called before forward")
    if root.value.size != 1:
        raise NonScalarRootError(f"root must be scalar, has shape {root.value.shape}")
    fill, steps = _backward_plan(root, wrt)
    for node in fill:
        if node.value is None:
            raise GraphError(f"{node._label()}: no cached value; run forward first")
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node, needs in steps:
        if node is None:
            node = root
        grads = node._backward(node.grad, needs, *(inp.value for inp in node.inputs))
        node.grad = None
        for inp, need, g in zip(node.inputs, needs, grads):
            if need:
                if inp.grad is None:
                    inp.grad = np.add(g, 0.0)
                else:
                    inp.grad += g


def grad_check(root: Node, param: Param, bindings: dict | None, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per component is |analytic - numeric| / max(1, |analytic|).
    Every forward runs under bindings; the param is left exactly as found,
    and the cached values are those of a forward under bindings.
    """
    if not 1e-6 <= step <= 1e-3:
        raise GraphError(f"grad_check: step must be in [1e-6, 1e-3], got {step}")
    forward(root, bindings)
    backward(root)
    analytic = param.grad.copy()
    flat = param.value.reshape(-1)
    numeric = np.zeros_like(analytic).reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(forward(root, bindings))
        flat[i] = orig - step
        f_minus = float(forward(root, bindings))
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * step)
    forward(root, bindings)
    numeric = numeric.reshape(analytic.shape)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0
