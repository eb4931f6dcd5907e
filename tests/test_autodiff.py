"""Forward values, exact examples, gradient checks and graph-protocol errors."""
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridsynth import autodiff as ad
from oracles import Sum, causal_conv_padded, causal_conv_padded_input_grad


def _const(value):
    """A leaf that forward leaves as it is: a Param that nothing updates."""
    return ad.Param("const", value)


def test_forward_identity_input():
    x = ad.Input("x")
    out = ad.forward(x, {x: [1.0, 2.0]})
    np.testing.assert_array_equal(out, [1.0, 2.0])


def test_forward_add_shared_input():
    x = ad.Input("x")
    root = ad.Add(x, x)
    out = ad.forward(root, {x: [1.0, 2.0]})
    np.testing.assert_array_equal(out, [2.0, 4.0])


def test_sigmoid_at_zero_and_saturation():
    # the logistic that Bce uses
    np.testing.assert_allclose(ad.sigmoid([0.0, -800.0, 800.0]), [0.5, 0.0, 1.0])


def test_forward_unbound_input_raises():
    a, b = ad.Input("a"), ad.Input("b")
    with pytest.raises(ad.UnboundInputError, match="'b'"):
        ad.forward(ad.Add(a, b), {a: [1.0]})


def test_forward_shape_mismatch_names_op():
    a, b = ad.Input("a"), ad.Input("b")
    with pytest.raises(ad.ShapeError, match="add"):
        ad.forward(ad.Add(a, b), {a: [1.0, 2.0], b: [1.0, 2.0, 3.0]})


def test_backward_mean_distributes():
    p = ad.Param("p", [1.0, 2.0, 3.0, 4.0])
    root = ad.Affine(Sum(p), 1.0 / 4)  # the mean
    ad.forward(root)
    ad.backward(root)
    np.testing.assert_allclose(p.grad, [0.25] * 4)


def test_backward_mse_against_zero():
    p = ad.Param("p", [3.0])
    root = ad.Mse(p, _const([0.0]))
    ad.forward(root)
    ad.backward(root)
    np.testing.assert_allclose(float(root.value), 9.0)
    np.testing.assert_allclose(p.grad, [6.0])


def test_backward_bce_at_zero_logit_label_one():
    # probability sigmoid(0) = 0.5, so d/dlogit of -log p is -0.5
    p = ad.Param("logit", [0.0])
    root = ad.Bce(p, 1.0)
    ad.forward(root)
    ad.backward(root)
    np.testing.assert_allclose(p.grad, [-0.5])
    assert ad.grad_check(root, p, {}, step=1e-5) < 1e-6


def test_backward_before_forward_raises():
    root = Sum(ad.Input("x"))
    with pytest.raises(ad.GraphError, match="before forward"):
        ad.backward(root)


def test_backward_non_scalar_root_raises():
    x = ad.Input("x")
    root = ad.Add(x, x)
    ad.forward(root, {x: [1.0, 2.0]})
    with pytest.raises(ad.NonScalarRootError):
        ad.backward(root)


def test_grad_accumulates_across_branches():
    w = ad.Param("w", [0.3, -0.7])
    branch_a = Sum(ad.Tanh(w))
    branch_b = ad.Mse(w, _const([0.1, 0.2]))
    both = ad.Add(branch_a, branch_b)
    ad.forward(both)
    ad.backward(both)
    combined = w.grad.copy()
    ad.forward(branch_a)
    ad.backward(branch_a)
    ga = w.grad.copy()
    ad.forward(branch_b)
    ad.backward(branch_b)
    gb = w.grad.copy()
    np.testing.assert_allclose(combined, ga + gb, rtol=1e-12)


class TestDilatedCausalConv:
    def test_identity_kernel(self, rng):
        x = ad.Input("x")
        w = ad.Param("w", np.ones((1, 1, 1)))
        b = ad.Param("b", np.zeros(1))
        for dilation in (1, 2, 5):
            out = ad.forward(ad.DilatedCausalConv1d(x, w, b, dilation), {x: [[[1.0, 2.0, 3.0]]]})
            np.testing.assert_array_equal(out, [[[1.0, 2.0, 3.0]]])

    def test_worked_example_dilation_two(self):
        # xpad = [0, 0, 1, 2, 3, 4]; out[t] = xpad[t] + xpad[t + 2]
        x = ad.Input("x")
        w = ad.Param("w", np.ones((1, 1, 2)))
        b = ad.Param("b", np.zeros(1))
        out = ad.forward(ad.DilatedCausalConv1d(x, w, b, 2), {x: [[[1.0, 2.0, 3.0, 4.0]]]})
        np.testing.assert_allclose(out, [[[1.0, 2.0, 4.0, 6.0]]])

    def test_causality_perturbation(self, rng):
        x_val = rng.standard_normal((2, 3, 12))
        x = ad.Input("x")
        w = ad.Param("w", rng.standard_normal((4, 3, 3)))
        b = ad.Param("b", rng.standard_normal(4))
        node = ad.DilatedCausalConv1d(x, w, b, 2)
        base = ad.forward(node, {x: x_val}).copy()
        bumped = x_val.copy()
        bumped[:, :, 3] += 10.0
        after = ad.forward(node, {x: bumped})
        np.testing.assert_array_equal(after[:, :, :3], base[:, :, :3])
        assert not np.allclose(after[:, :, 3:], base[:, :, 3:])

    @pytest.mark.parametrize("dilation", [1, 2, 4, 8])
    def test_output_length_matches_input(self, rng, dilation):
        x = ad.Input("x")
        w = ad.Param("w", rng.standard_normal((2, 1, 3)))
        b = ad.Param("b", np.zeros(2))
        out = ad.forward(ad.DilatedCausalConv1d(x, w, b, dilation), {x: rng.standard_normal((1, 1, 17))})
        assert out.shape == (1, 2, 17)

    def test_zero_suffix_property(self, rng):
        # zeroing the input suffix never changes the output prefix
        x = ad.Input("x")
        w = ad.Param("w", rng.standard_normal((2, 2, 3)))
        b = ad.Param("b", rng.standard_normal(2))
        node = ad.DilatedCausalConv1d(x, w, b, 4)
        for _ in range(10):
            x_val = rng.standard_normal((1, 2, 20))
            cut = int(rng.integers(1, 19))
            base = ad.forward(node, {x: x_val}).copy()
            zeroed = x_val.copy()
            zeroed[:, :, cut + 1 :] = 0.0
            after = ad.forward(node, {x: zeroed})
            np.testing.assert_array_equal(after[:, :, : cut + 1], base[:, :, : cut + 1])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dilation", range(1, 9))
    def test_matches_padded_buffer_oracle(self, dilation, k, rng):
        x_val = rng.standard_normal((2, 3, 11))
        x_val[0, 0, :2] = [-0.0, -5e-324]
        w_val, b_val = rng.standard_normal((4, 3, k)), rng.standard_normal(4)
        g_val = rng.standard_normal((2, 4, 11))
        want, want_cols = causal_conv_padded(x_val, w_val, b_val, dilation)
        x = ad.Input("x")
        conv = ad.DilatedCausalConv1d(x, ad.Param("w", w_val), ad.Param("b", b_val), dilation)
        assert ad.forward(conv, {x: x_val}).tobytes() == want.tobytes()
        assert conv._cols.tobytes() == want_cols.tobytes()
        gx, _, _ = conv._backward(g_val, (True, False, False), x_val, w_val, b_val)
        assert gx.tobytes() == causal_conv_padded_input_grad(g_val, w_val, dilation).tobytes()

    def test_non_positive_dilation_rejected(self):
        x = ad.Input("x")
        w = ad.Param("w", np.ones((1, 1, 2)))
        b = ad.Param("b", np.zeros(1))
        with pytest.raises(ad.GraphError, match="dilation"):
            ad.DilatedCausalConv1d(x, w, b, 0)

    def test_channel_mismatch_rejected(self, rng):
        x = ad.Input("x")
        w = ad.Param("w", rng.standard_normal((2, 3, 2)))
        b = ad.Param("b", np.zeros(2))
        node = ad.DilatedCausalConv1d(x, w, b, 1)
        with pytest.raises(ad.ShapeError, match="channels"):
            ad.forward(node, {x: rng.standard_normal((1, 2, 8))})


class TestReparameterize:
    def test_unit_sigma(self):
        node = ad.Reparameterize(_const([0.0]), _const([0.0]), _const([0.5]))
        np.testing.assert_allclose(ad.forward(node), [0.5])

    def test_zero_noise(self):
        node = ad.Reparameterize(_const([2.0]), _const([0.0]), _const([0.0]))
        np.testing.assert_allclose(ad.forward(node), [2.0])

    def test_sigma_three(self):
        node = ad.Reparameterize(_const([1.0]), _const([2.0 * np.log(3.0)]), _const([1.0]))
        np.testing.assert_allclose(ad.forward(node), [4.0])

    def test_shape_mismatch(self):
        node = ad.Reparameterize(_const([1.0, 2.0]), _const([0.0]), _const([0.0]))
        with pytest.raises(ad.ShapeError):
            ad.forward(node)


def _scalarize(node):
    return Sum(node)


def _gradcheck_case(op_name: str, rng) -> float:
    """Build a tiny graph exercising one op kind with a Param in its path."""
    if op_name == "dense":
        x = _const(rng.standard_normal((3, 4)))
        w = ad.Param("w", rng.standard_normal((2, 4)) * 0.7)
        b = ad.Param("b", rng.standard_normal(2) * 0.3)
        root = _scalarize(ad.Tanh(ad.Dense(x, w, b)))
        target = w if rng.uniform() < 0.5 else b
    elif op_name == "dilated_causal_conv1d":
        x = _const(rng.standard_normal((2, 2, 7)))
        w = ad.Param("w", rng.standard_normal((3, 2, 2)) * 0.5)
        b = ad.Param("b", rng.standard_normal(3) * 0.2)
        dil = int(rng.integers(1, 4))
        root = _scalarize(ad.Tanh(ad.DilatedCausalConv1d(x, w, b, dil)))
        target = w if rng.uniform() < 0.5 else b
    elif op_name == "leaky_relu":
        # keep values away from the kink at zero
        vals = rng.uniform(0.2, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
        target = ad.Param("p", vals)
        root = _scalarize(ad.LeakyRelu(target, 0.2))
    elif op_name == "tanh":
        target = ad.Param("p", rng.standard_normal(5))
        root = _scalarize(ad.Tanh(target))
    elif op_name == "add":
        target = ad.Param("p", rng.standard_normal(4))
        root = _scalarize(ad.Add(ad.Tanh(target), target))
    elif op_name == "affine":
        target = ad.Param("p", rng.standard_normal(4))
        root = _scalarize(ad.Affine(target, 1.7, -0.3))
    elif op_name == "clamp":
        # keep values away from the clamp boundaries at +-2
        target = ad.Param("p", rng.uniform(-1.5, 1.5, size=5))
        root = _scalarize(ad.Clamp(target, -2.0, 2.0))
    elif op_name == "mse":
        target = ad.Param("p", rng.standard_normal((2, 3)))
        root = ad.Mse(target, _const(rng.standard_normal((2, 3))))
    elif op_name == "bce":
        target = ad.Param("p", rng.standard_normal(4) * 2)
        root = ad.Bce(target, float(rng.integers(0, 2)))
    elif op_name == "gaussian_kl":
        mean = ad.Param("mu", rng.standard_normal((2, 3)))
        logvar = ad.Param("lv", rng.uniform(-1.5, 1.5, size=(2, 3)))
        root = ad.GaussianKl(mean, logvar)
        target = mean if rng.uniform() < 0.5 else logvar
    elif op_name == "reparameterize":
        mean = ad.Param("mu", rng.standard_normal((2, 3)))
        logvar = ad.Param("lv", rng.uniform(-1.5, 1.5, size=(2, 3)))
        eps = _const(rng.standard_normal((2, 3)))
        root = _scalarize(ad.Tanh(ad.Reparameterize(mean, logvar, eps)))
        target = mean if rng.uniform() < 0.5 else logvar
    elif op_name == "param":
        target = ad.Param("p", rng.standard_normal(4))
        root = Sum(target)
    else:
        raise AssertionError(op_name)
    ad.forward(root, {})
    return ad.grad_check(root, target, {}, step=1e-5)


GRADCHECK_OPS = [
    "dense", "dilated_causal_conv1d", "leaky_relu", "tanh", "add", "affine",
    "clamp", "mse", "bce", "gaussian_kl", "reparameterize", "param",
]


@pytest.mark.parametrize("op_name", GRADCHECK_OPS)
def test_gradcheck_per_op_20_instances(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(20):
        assert _gradcheck_case(op_name, rng) < 1e-4


def test_gradcheck_sum_root_20_instances():
    # the tests' scalar root is no engine op, but its gradient is checked alike
    rng = np.random.default_rng(zlib.crc32(b"sum"))
    for _ in range(20):
        target = ad.Param("p", rng.standard_normal(6))
        root = Sum(ad.Tanh(target))
        ad.forward(root, {})
        assert ad.grad_check(root, target, {}, step=1e-5) < 1e-4


def test_gradcheck_fused_conv_leaky_relu_20_instances():
    rng = np.random.default_rng(zlib.crc32(b"dilated_causal_conv1d+leaky_relu"))
    for _ in range(20):
        k = int(rng.integers(1, 4))
        x = _const(rng.standard_normal((2, 2, 7)))
        w = ad.Param("w", rng.standard_normal((3, 2, k)) * 0.5)
        b = ad.Param("b", rng.standard_normal(3) * 0.2)
        fused = ad.DilatedCausalConv1d(x, w, b, int(rng.integers(1, 4)), slope=0.2)
        root = _scalarize(ad.Tanh(fused))
        ad.forward(root, {})
        assert ad.grad_check(root, w if rng.uniform() < 0.5 else b, {}, step=1e-5) < 1e-4


def test_gradcheck_ops_cover_registry():
    # every op kind the engine defines, i.e. every Node subclass but the
    # Input and Param leaves, has a gradcheck case; so does the Param leaf
    kinds, stack = set(), [ad.Node]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__ == ad.__name__ and cls not in (ad.Input, ad.Param):
                kinds.add(cls.op)
    assert set(GRADCHECK_OPS) == kinds | {ad.Param.op}


def test_gradcheck_linear_graph_is_exact():
    rng = np.random.default_rng(0)
    w = ad.Param("w", rng.standard_normal(5))
    x = ad.Input("x")
    # sum(w + x) is linear in w, so central differences are exact
    root = Sum(ad.Add(w, x))
    bindings = {x: rng.standard_normal(5)}
    ad.forward(root, bindings)
    assert ad.grad_check(root, w, bindings, step=1e-4) < 1e-10


def test_gradcheck_constant_graph_zero_grad():
    w = ad.Param("w", [1.0, 2.0])
    root = Sum(_const([3.0]))
    ad.forward(root)
    assert ad.grad_check(root, w, {}, step=1e-4) == 0.0
    np.testing.assert_array_equal(w.grad, [0.0, 0.0])


def test_gradcheck_two_layer_conv_net():
    rng = np.random.default_rng(123)
    x = _const(rng.standard_normal((2, 1, 10)))
    w1 = ad.Param("w1", rng.standard_normal((3, 1, 3)) * 0.5)
    b1 = ad.Param("b1", np.zeros(3))
    w2 = ad.Param("w2", rng.standard_normal((1, 3, 3)) * 0.5)
    b2 = ad.Param("b2", np.zeros(1))
    h = ad.LeakyRelu(ad.DilatedCausalConv1d(x, w1, b1, 1), 0.2)
    out = ad.DilatedCausalConv1d(h, w2, b2, 2)
    root = ad.Mse(out, _const(rng.standard_normal((2, 1, 10))))
    ad.forward(root)
    for p in (w1, b1, w2, b2):
        assert ad.grad_check(root, p, {}, step=1e-4) < 1e-4


def test_grad_check_step_bounds():
    p = ad.Param("p", [1.0])
    root = Sum(p)
    ad.forward(root)
    with pytest.raises(ad.GraphError, match="step"):
        ad.grad_check(root, p, {}, step=1e-2)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=16))
def test_sum_equals_numpy(values):
    x = ad.Input("x")
    out = ad.forward(Sum(x), {x: values})
    np.testing.assert_allclose(float(out), np.sum(np.asarray(values)), atol=1e-9)


@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 8))
def test_conv_causality_random(t_len, k, dilation):
    rng = np.random.default_rng(t_len * 100 + k * 10 + dilation)
    x = ad.Input("x")
    w = ad.Param("w", rng.standard_normal((1, 1, k)))
    b = ad.Param("b", rng.standard_normal(1))
    node = ad.DilatedCausalConv1d(x, w, b, dilation)
    x_val = rng.standard_normal((1, 1, t_len))
    base = ad.forward(node, {x: x_val}).copy()
    cut = t_len // 2
    zeroed = x_val.copy()
    zeroed[:, :, cut + 1 :] = 0.0
    after = ad.forward(node, {x: zeroed})
    np.testing.assert_array_equal(after[:, :, : cut + 1], base[:, :, : cut + 1])


class TestLeakyRelu:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308]

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0])
    def test_matches_where_reference_bit_for_bit(self, slope, rng):
        x_val = np.concatenate([self.SPECIAL, rng.standard_normal(200)]).reshape(1, -1)
        g_val = rng.standard_normal(x_val.shape)
        x = ad.Input("x")
        node = ad.LeakyRelu(x, slope)
        out = ad.forward(node, {x: x_val})
        (grad,) = node._backward(g_val, (True,), x_val)
        ref_out = np.where(x_val >= 0, x_val, slope * x_val)
        ref_grad = g_val * np.where(x_val >= 0, 1.0, slope)
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ad.GraphError, match="slope"):
            ad.LeakyRelu(ad.Input("x"), slope)


class TestFusedConvLeakyRelu:
    """DilatedCausalConv1d(..., slope=s) against LeakyRelu(DilatedCausalConv1d(...), s)."""

    @staticmethod
    def _both(x_val, w_val, b_val, dilation, slope, g_val):
        """(value, x/w/b grads) of the fused node and of the unfused pair."""
        x = ad.Input("x")
        w, b = ad.Param("w", w_val), ad.Param("b", b_val)
        fused = ad.DilatedCausalConv1d(x, w, b, dilation, slope=slope)
        conv = ad.DilatedCausalConv1d(x, w, b, dilation)
        unfused = ad.LeakyRelu(conv, slope)
        needs = (True, True, True)
        fused_value = ad.forward(fused, {x: x_val}).copy()
        fused_grads = fused._backward(g_val, needs, x_val, w_val, b_val)
        unfused_value = ad.forward(unfused, {x: x_val})
        (g_conv,) = unfused._backward(g_val, (True,), conv.value)
        unfused_grads = conv._backward(g_conv, needs, x_val, w_val, b_val)
        return (fused_value, *fused_grads), (unfused_value, *unfused_grads)

    def _assert_bit_identical(self, *args):
        fused, unfused = self._both(*args)
        for name, a, b in zip(("value", "x grad", "w grad", "b grad"), fused, unfused):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("batched", [False, True])
    def test_special_preactivations(self, batched, rng):
        # one channel, K=1, w=1, b=-0.0: the pre-activation is x, bit for bit
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.5, -1.5, 1e308, -1e308]
        x_val = np.array(special + list(rng.standard_normal(30))).reshape(1, 1, -1)
        if batched:
            x_val = x_val.reshape(2, 1, -1)
        g_val = rng.standard_normal(x_val.shape)
        with np.errstate(invalid="ignore"):  # the weight gradient sums +inf and -inf
            self._assert_bit_identical(x_val, np.ones((1, 1, 1)), np.array([-0.0]), 1, 0.2, g_val)

    def test_negative_subnormal_takes_the_slope(self):
        # -5e-324 * 0.2 rounds to -0.0, which tests >= 0; the mask must not
        x = ad.Input("x")
        fused = ad.DilatedCausalConv1d(x, ad.Param("w", np.ones((1, 1, 1))),
                                       ad.Param("b", np.array([-0.0])), 1, slope=0.2)
        x_val = np.array([[[-5e-324, 5e-324]]])
        out = ad.forward(fused, {x: x_val})
        assert out.tobytes() == np.array([[[-0.0, 5e-324]]]).tobytes()
        gx, _, _ = fused._backward(np.ones((1, 1, 2)), (True, False, False),
                                   *(node.value for node in fused.inputs))
        assert gx.tolist() == [[[0.2, 1.0]]]

    @pytest.mark.parametrize("batch_of_one", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("dilation", range(1, 9))
    def test_matches_unfused_bit_for_bit(self, dilation, k, batch_of_one, rng):
        c_in, c_out, t = 3, 4, 11
        x_val = rng.standard_normal((2, c_in, t))
        x_val[0, 0, :4] = [0.0, -0.0, 5e-324, -5e-324]
        w_val = rng.standard_normal((c_out, c_in, k))
        b_val = rng.standard_normal(c_out)
        # a channel with zero weights whose pre-activation is its bias alone
        w_val[0] = 0.0
        b_val[0] = -5e-324
        if batch_of_one:
            x_val = x_val[:1]
        g_val = rng.standard_normal((len(x_val), c_out, t))
        self._assert_bit_identical(x_val, w_val, b_val, dilation, 0.2, g_val)

    @pytest.mark.parametrize("slope", [0.0, 1.5, np.nan])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ad.GraphError, match="slope"):
            ad.DilatedCausalConv1d(ad.Input("x"), ad.Input("w"), ad.Input("b"), 1, slope=slope)


class TestReuse:
    @staticmethod
    def _counting(monkeypatch):
        calls = []
        forward = ad.Tanh._forward

        def counted(self, x):
            calls.append(self)
            return forward(self, x)

        monkeypatch.setattr(ad.Tanh, "_forward", counted)
        return calls

    def test_reused_nodes_keep_their_value(self, monkeypatch):
        calls = self._counting(monkeypatch)
        x = ad.Input("x")
        inner = ad.Tanh(x)
        root = ad.Tanh(inner)
        ad.forward(root, {x: [0.5]})
        kept = inner.value
        ad.forward(root, {x: [2.0]}, reuse=frozenset([inner]))
        assert calls == [inner, root, root]
        assert inner.value is kept
        assert root.value.tolist() == [np.tanh(np.tanh(0.5))]

    def test_plan_follows_param_updates(self):
        # h1 = tanh(x + p) feeds l1 and h2 = tanh(h1 + q), which feeds l2
        x = ad.Input("x")
        p, q = ad.Param("p", [1.0]), ad.Param("q", [1.0])
        h1 = ad.Tanh(ad.Add(x, p))
        h2 = ad.Tanh(ad.Add(h1, q))
        l1, l2 = Sum(h1), Sum(h2)
        plan = ad.reuse_plan([(l1, [q]), (l2, [q]), (l2, [p]), (l2, []), (l1, [])])
        assert plan[0] == frozenset()
        assert plan[1] == frozenset([h1, h1.inputs[0]])  # h2 is not computed yet
        assert plan[2] == plan[1]  # q was stepped, so h2 is stale
        assert plan[3] == frozenset()  # p was stepped: everything below l2 is stale
        assert plan[4] == plan[1]  # l1 itself was last computed before p moved


def _two_branch_graph(rng):
    """Sum of a dense branch in (w1, b1) and a conv branch that applies
    (w2, b2) twice, both fed by one Input, so each branch is off the other's
    path."""
    x = ad.Input("x")
    w1 = ad.Param("w1", rng.standard_normal((2, 12)))
    b1 = ad.Param("b1", rng.standard_normal(2))
    w2 = ad.Param("w2", rng.standard_normal((3, 3, 2)) * 0.5)
    b2 = ad.Param("b2", rng.standard_normal(3))
    h = ad.LeakyRelu(ad.DilatedCausalConv1d(x, w2, b2, 2), 0.2)
    conv_branch = Sum(ad.Tanh(ad.DilatedCausalConv1d(h, w2, b2, 1)))
    dense_branch = ad.Mse(ad.Dense(ad.Tanh(x), w1, b1), _const(np.zeros((4, 2))))
    root = ad.Add(conv_branch, dense_branch)
    ad.forward(root, {x: rng.standard_normal((4, 3, 4))})
    return root, x, (w1, b1), (w2, b2)


class TestPrunedBackward:
    def test_wanted_grads_bit_identical_to_full_sweep(self, rng):
        root, _, dense_params, conv_params = _two_branch_graph(rng)
        ad.backward(root)
        full = {p.name: p.grad.copy() for p in dense_params + conv_params}
        for group in (dense_params, conv_params, dense_params + conv_params):
            for p in dense_params + conv_params:
                p.grad = None
            ad.backward(root, wrt=group)
            for p in group:
                assert p.grad.tobytes() == full[p.name].tobytes(), p.name

    def test_off_path_grads_left_stale(self, rng):
        root, x, dense_params, conv_params = _two_branch_graph(rng)
        stale = np.full(3, 7.0)
        conv_params[1].grad = stale
        ad.backward(root, wrt=dense_params)
        assert conv_params[1].grad is stale
        assert x.grad is None  # the Input leaf is not on a path to wrt
        ad.backward(root)
        assert x.grad is not None and conv_params[1].grad is not stale

    def test_plan_is_cached_per_wrt_on_the_root(self, rng):
        root, _, dense_params, conv_params = _two_branch_graph(rng)
        ad.backward(root, wrt=dense_params)
        ad.backward(root, wrt=list(reversed(dense_params)))
        ad.backward(root, wrt=conv_params)
        ad.backward(root)
        assert set(root._plans) == {frozenset(dense_params), frozenset(conv_params), None}
        fill, steps = root._plans[frozenset(dense_params)]
        assert not any(isinstance(node, ad.DilatedCausalConv1d) for node in fill)
        dense_needs = [needs for node, needs in steps if isinstance(node, ad.Dense)]
        assert dense_needs == [(False, True, True)]

    def test_unneeded_op_gradients_not_computed(self, rng):
        x = ad.Input("x")
        w = ad.Param("w", rng.standard_normal((2, 3, 2)))
        b = ad.Param("b", rng.standard_normal(2))
        conv = ad.DilatedCausalConv1d(x, w, b, 1)
        root = Sum(conv)
        ad.forward(root, {x: rng.standard_normal((2, 3, 5))})
        gx, gw, gb = conv._backward(np.ones((2, 2, 5)), (False, True, False), x.value, w.value, b.value)
        assert gx is None and gb is None and gw.shape == w.value.shape
        dense = ad.Dense(x, ad.Param("v", rng.standard_normal((1, 15))), ad.Param("c", [0.0]))
        ad.forward(dense, {x: x.value})
        assert dense._backward(np.ones((2, 1)), (True, False, False), x.value,
                               *(p.value for p in dense.inputs[1:]))[1:] == (None, None)
