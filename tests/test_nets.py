"""Network graphs, loss terms of the composite game, and checkpoint I/O."""
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsynth import autodiff as ad
from gridsynth import nets
from gridsynth.errors import DataError

from oracles import Sum, zero_fill_backward
from test_autodiff import _const

TINY = nets.ArchConfig(seq_len=16, latent_dim=4, channels=3, kernel_size=3, dilations=(1, 2))


def rewrite_checkpoint(path, arrays=None, **meta_changes):
    """Rewrite a checkpoint .npz in place with some arrays and top-level meta
    values replaced."""
    with np.load(path) as data:
        contents = {key: data[key] for key in data.files}
    meta = json.loads(str(contents["meta"]))
    meta.update(meta_changes)
    contents.update(arrays or {}, meta=np.array(json.dumps(meta)))
    np.savez(path, **contents)


def _draws(graph, rng, batch):
    """Bindings of a training graph's standard-normal Inputs, drawn in the
    graph's order as the trainer draws them."""
    return {node: rng.standard_normal((batch,) + shape) for node, shape in graph.draws}


@pytest.fixture
def vaegan(rng):
    return nets.VaeGanModel(TINY, rng)


@pytest.fixture
def gan(rng):
    return nets.GanModel(TINY, rng)


def _encode(model, x):
    """The encoder's (mean, logvar) on (B, T) profiles, from one forward."""
    xin = ad.Input("x")
    mean, logvar = model.encoder.build(xin)
    ad.forward(ad.Add(Sum(mean), Sum(logvar)), {xin: x[:, None, :]})
    return mean.value, logvar.value


def _discriminate(model, x):
    """D's probability that each (B, T) profile is real."""
    xin = ad.Input("x")
    return ad.sigmoid(ad.forward(model.discriminator.build(xin), {xin: x[:, None, :]})[:, 0])


class TestArchConfigRules:
    @pytest.mark.parametrize("key,value", [
        ("seq_len", 0), ("latent_dim", -1), ("channels", 2.0), ("kernel_size", True),
        ("dilations", ()), ("dilations", (1, 0)), ("leaky_slope", 0.0), ("logvar_clip", 0.0),
    ], ids=str)
    def test_bad_value_raises_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            nets.ArchConfig(**{key: value})


class TestEncode:
    def test_zero_initialized_heads_give_zero(self, vaegan, rng):
        # with freshly zeroed head weights, any input maps to mean=0, logvar=0
        for p in (vaegan.encoder.w_mean, vaegan.encoder.b_mean,
                  vaegan.encoder.w_logvar, vaegan.encoder.b_logvar):
            p.value[...] = 0.0
        x = rng.uniform(0, 1, size=(3, 16))
        mean, logvar = _encode(vaegan, x)
        np.testing.assert_array_equal(mean, np.zeros((3, 4)))
        np.testing.assert_array_equal(logvar, np.zeros((3, 4)))

    def test_batch_shape(self, vaegan, rng):
        mean, logvar = _encode(vaegan, rng.uniform(0, 1, size=(5, 16)))
        assert mean.shape == (5, 4)
        assert logvar.shape == (5, 4)

    def test_deterministic(self, vaegan, rng):
        x = rng.uniform(0, 1, size=(2, 16))
        a = _encode(vaegan, x)
        b = _encode(vaegan, x)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_logvar_clamped(self, vaegan, rng):
        # force a huge logvar head weight; the clamp must cap the output
        vaegan.encoder.w_logvar.value[...] = 100.0
        _, logvar = _encode(vaegan, rng.uniform(0.5, 1, size=(2, 16)))
        assert np.all(logvar <= TINY.logvar_clip)
        assert np.all(logvar >= -TINY.logvar_clip)


class TestLossValues:
    def scalar(self, node, bindings=None):
        return float(ad.forward(node, bindings or {}))

    def test_prior_zero_at_standard_normal(self):
        mean = _const(np.zeros((2, 3)))
        logvar = _const(np.zeros((2, 3)))
        assert self.scalar(ad.GaussianKl(mean, logvar)) == 0.0

    def test_prior_unit_mean(self):
        # KL(N(1,1) || N(0,1)) = 0.5 per dim
        node = ad.GaussianKl(_const([[1.0]]), _const([[0.0]]))
        assert self.scalar(node) == pytest.approx(0.5, abs=1e-12)

    def test_prior_variance_four(self):
        # 0.5 (4 - 1 - ln 4)
        node = ad.GaussianKl(_const([[0.0]]), _const([[math.log(4.0)]]))
        assert self.scalar(node) == pytest.approx(0.5 * (4 - 1 - math.log(4.0)), abs=1e-12)

    def test_prior_batch_averaged_nonnegative(self, rng):
        mean = _const(rng.standard_normal((4, 6)))
        logvar = _const(rng.uniform(-2, 2, size=(4, 6)))
        assert self.scalar(ad.GaussianKl(mean, logvar)) >= 0.0

    def test_reconstruction_perfect(self, rng):
        x = rng.uniform(0, 1, size=(2, 1, 96))
        node = ad.Add(ad.Affine(ad.Mse(_const(x), _const(x)), 96.0), _const(0.0))
        assert self.scalar(node) == 0.0

    def test_reconstruction_point_one_offset(self):
        # 96 points off by 0.1 each: ||x_hat - x||^2 = 96 * 0.01 = 0.96
        x = np.zeros((1, 1, 96))
        xh = np.full((1, 1, 96), 0.1)
        node = ad.Affine(ad.Mse(_const(xh), _const(x)), 96.0)
        assert self.scalar(node) == pytest.approx(0.96, abs=1e-12)

    def test_reconstruction_additivity(self, rng):
        x = rng.uniform(0, 1, size=(3, 1, 96))
        xh = rng.uniform(0, 1, size=(3, 1, 96))
        prior = _const(0.37)
        mse_term = ad.Affine(ad.Mse(_const(xh), _const(x)), 96.0)
        total = self.scalar(ad.Add(mse_term, prior))
        assert total - 0.37 == pytest.approx(self.scalar(mse_term), abs=1e-12)

    def logits_for_prob(self, p):
        return math.log(p / (1.0 - p))

    def test_perfect_discriminator_on_real(self):
        # D(real) -> 1 means l_real -> 0
        node = ad.Bce(_const([self.logits_for_prob(1 - 1e-12)]), 1.0)
        assert self.scalar(node) < 1e-9

    def test_ldg_at_half(self):
        node = ad.Bce(_const([0.0]), 1.0)
        assert self.scalar(node) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_composite_at_half(self):
        adv = nets.adversarial_losses(
            _const([0.0]), _const([0.0]), _const([0.0])
        )
        l_d = ad.Add(ad.Add(adv["l_real"], adv["l_fake"]), adv["l_noise"])
        assert self.scalar(l_d) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_vanilla_losses(self):
        g_loss, d_loss = nets.vanilla_gan_losses(_const([0.0]), _const([0.0]))
        assert self.scalar(d_loss) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert self.scalar(g_loss) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_vanilla_optimal_extremes(self):
        hi = self.logits_for_prob(1 - 1e-9)
        lo = self.logits_for_prob(1e-9)
        _, d_loss = nets.vanilla_gan_losses(_const([hi]), _const([lo]))
        assert self.scalar(d_loss) < 1e-6
        g_loss, _ = nets.vanilla_gan_losses(_const([hi]), _const([hi]))
        assert self.scalar(g_loss) < 1e-6

    def test_all_terms_non_negative(self, rng):
        for _ in range(10):
            logits = _const(rng.standard_normal((4, 1)) * 3)
            for label in (0.0, 1.0):
                assert self.scalar(ad.Bce(logits, label)) >= 0.0


class TestVaeGanGraph:
    def bindings(self, graph, rng, batch=3):
        return {graph.x: rng.uniform(0, 1, size=(batch, 1, 16)), **_draws(graph, rng, batch)}

    def test_loss_identities_hold_exactly(self, vaegan, rng):
        graph = nets.build_vaegan_graph(vaegan)
        # perturb params so the losses are not at their zero-init values
        for p in nets.all_params(vaegan).values():
            p.value += rng.standard_normal(p.value.shape) * 0.05
        bind = self.bindings(graph, rng)
        ad.forward(graph.nodes["l_generator"], bind)
        ad.forward(graph.nodes["l_D"], bind)
        losses = graph.bundle()
        assert losses["l_generator"] == pytest.approx(
            losses["l_reconstruction"] + losses["l_dG"], abs=1e-12
        )
        assert losses["l_D"] == pytest.approx(
            losses["l_real"] + losses["l_fake"] + losses["l_noise"], abs=1e-12
        )

    def test_generator_output_in_unit_interval(self, vaegan, rng):
        graph = nets.build_vaegan_graph(vaegan)
        for p in nets.all_params(vaegan).values():
            p.value += rng.standard_normal(p.value.shape)
        ad.forward(graph.nodes["l_generator"], self.bindings(graph, rng))
        x_hat = graph.nodes["recon_mse"].inputs[0]
        assert x_hat.value.min() >= 0.0
        assert x_hat.value.max() <= 1.0

    def test_prior_fake_source_uses_extra_input(self, vaegan, rng):
        graph = nets.build_vaegan_graph(vaegan, fake_source="prior")
        z_prior, shape = graph.draws[-1]
        assert len(graph.draws) == 3 and shape == (TINY.latent_dim,)
        assert z_prior in ad.topo_order(graph.nodes["l_D"])
        ad.forward(graph.nodes["l_D"], self.bindings(graph, rng))

    def test_full_loss_gradient_tiny_net(self, rng):
        # generator-objective gradients vs central differences on a tiny net
        arch = nets.ArchConfig(seq_len=16, latent_dim=4, channels=2, kernel_size=3, dilations=(1, 2))
        model = nets.VaeGanModel(arch, rng)
        for p in nets.all_params(model).values():
            p.value += rng.standard_normal(p.value.shape) * 0.1
        graph = nets.build_vaegan_graph(model)
        bind = {graph.x: rng.uniform(0, 1, size=(2, 1, 16)), **_draws(graph, rng, 2)}
        ad.forward(graph.nodes["l_generator"], bind)
        for p in model.generator.params() + [model.encoder.w_mean, model.encoder.trunk.layers[0][0]]:
            assert ad.grad_check(graph.nodes["l_generator"], p, bind, step=1e-4) < 1e-4, p.name
        ad.forward(graph.nodes["l_D"], bind)
        assert ad.grad_check(graph.nodes["l_D"], model.discriminator.w_head, bind, step=1e-4) < 1e-4


class TestDiscriminateNoise:
    """D's probabilities on i.i.d. standard-normal sequences from a seeded rng."""

    def test_reproducible(self, vaegan):
        a = _discriminate(vaegan, np.random.default_rng(9).standard_normal((4, TINY.seq_len)))
        b = _discriminate(vaegan, np.random.default_rng(9).standard_normal((4, TINY.seq_len)))
        np.testing.assert_array_equal(a, b)

    def test_batch_shape(self, vaegan):
        probs = _discriminate(vaegan, np.random.default_rng(1).standard_normal((6, TINY.seq_len)))
        assert probs.shape == (6,)

    def test_zero_initialized_head_gives_half(self, vaegan):
        vaegan.discriminator.w_head.value[...] = 0.0
        vaegan.discriminator.b_head.value[...] = 0.0
        probs = _discriminate(vaegan, np.random.default_rng(2).standard_normal((5, TINY.seq_len)))
        np.testing.assert_allclose(probs, 0.5)

    def test_probabilities_in_open_interval(self, vaegan, rng):
        for p in nets.all_params(vaegan).values():
            p.value += rng.standard_normal(p.value.shape)
        probs = _discriminate(vaegan, rng.standard_normal((8, TINY.seq_len)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def _bound_training_graph(kind, rng):
    """A TINY training graph ('reconstruction' or 'prior' VAE-GAN, or 'gan')
    with perturbed Params and every input bound to a 5-row batch."""
    if kind == "gan":
        model = nets.GanModel(TINY, rng)
        graph = nets.build_gan_graph(model)
    else:
        model = nets.VaeGanModel(TINY, rng)
        graph = nets.build_vaegan_graph(model, fake_source=kind)
    for p in nets.all_params(model).values():
        p.value += rng.standard_normal(p.value.shape) * 0.1
    return model, graph, {graph.x: rng.uniform(0, 1, size=(5, 1, TINY.seq_len)), **_draws(graph, rng, 5)}


class TestLeanBackward:
    @pytest.mark.parametrize("kind", ["reconstruction", "prior", "gan"])
    def test_param_grads_bit_identical_to_zero_fill_sweep(self, kind, rng):
        model, graph, bind = _bound_training_graph(kind, rng)
        params = nets.all_params(model)
        groups = model.param_groups()
        for loss_name, group in graph.phases:
            loss = graph.nodes[loss_name]
            ad.forward(loss, bind)
            want = zero_fill_backward(loss)
            for wrt in (groups[group], None):
                ad.backward(loss, wrt)
                names = [p.name for p in wrt] if wrt is not None else list(want)
                for name in names:
                    assert params[name].grad.tobytes() == want[name].tobytes(), (loss_name, name)

    @pytest.mark.parametrize("wrt_group", ["encoder", None])
    def test_only_leaves_keep_grads(self, wrt_group, rng):
        model, graph, bind = _bound_training_graph("reconstruction", rng)
        loss = graph.nodes["l_generator"]
        wrt = model.param_groups()[wrt_group] if wrt_group else None
        ad.forward(loss, bind)
        ad.backward(loss, wrt)
        order = ad.topo_order(loss)
        assert all(node.grad is None for node in order if node.inputs)
        for leaf in wrt or [node for node in order if not node.inputs]:
            assert leaf.grad is not None and leaf.grad.shape == leaf.value.shape

    def test_swept_graph_freed_without_gc(self, rng):
        model, graph, bind = _bound_training_graph("reconstruction", rng)
        loss = graph.nodes["l_D"]
        ad.forward(loss, bind)
        ad.backward(loss, model.discriminator.params())
        ad.backward(loss)
        ref = weakref.ref(loss)
        gc.disable()
        try:
            del graph, loss
            assert ref() is None
        finally:
            gc.enable()


class TestChunkedInference:
    @pytest.mark.parametrize("wrapper", ["generate"])
    def test_graph_freed_on_return_without_gc(self, vaegan, rng, monkeypatch, wrapper):
        roots = []
        forward = ad.forward

        def spy(root, bindings=None):
            roots.append(weakref.ref(root))
            return forward(root, bindings)

        monkeypatch.setattr(ad, "forward", spy)
        z = rng.standard_normal((nets._INFER_CHUNK + 6, TINY.latent_dim))
        gc.disable()
        try:
            getattr(nets, wrapper)(vaegan, z)
            assert len(roots) == 2 and all(ref() is None for ref in roots)
        finally:
            gc.enable()

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 512])
    def test_generate_bit_identical_to_one_forward(self, n):
        arch = nets.ArchConfig(latent_dim=16, channels=16)
        model = nets.VaeGanModel(arch, np.random.default_rng(n))
        z = np.random.default_rng(n + 1).standard_normal((n, arch.latent_dim))
        zin = ad.Input("z")
        out = model.generator.build(zin)
        ad.forward(out, {zin: z})
        assert nets.generate(model, z).tobytes() == out.value[:, 0, :].tobytes()

    @pytest.mark.parametrize("wrapper", ["generate"])
    def test_leading_rows_do_not_depend_on_batch_size(self, vaegan, rng, wrapper):
        # each row keeps its chunk and its place in it; padding only fills the rest
        z = rng.uniform(0, 1, size=(2 * nets._INFER_CHUNK + 1, TINY.latent_dim))
        whole = getattr(nets, wrapper)(vaegan, z)
        for n in (1, nets._INFER_CHUNK - 1, nets._INFER_CHUNK, nets._INFER_CHUNK + 1):
            assert getattr(nets, wrapper)(vaegan, z[:n]).tobytes() == whole[:n].tobytes()


class TestDTrainsOnSeparableData:
    def test_l_d_decreases_monotonically(self, rng):
        # frozen G and fixed bindings, real data near 0.9: fully deterministic
        # full-batch D descent on separable data for 50 steps
        from gridsynth import trainer

        arch = nets.ArchConfig(seq_len=16, latent_dim=4, channels=4, kernel_size=3, dilations=(1, 2))
        model = nets.VaeGanModel(arch, rng)
        graph = nets.build_vaegan_graph(model)
        real = np.clip(0.9 + 0.02 * rng.standard_normal((8, 1, 16)), 0, 1)
        bind = {graph.x: real, **_draws(graph, rng, 8)}
        opt = trainer.AdamOptimizer(
            model.discriminator.params(), lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8
        )
        values = []
        for _ in range(50):
            values.append(float(ad.forward(graph.nodes["l_D"], bind)))
            ad.backward(graph.nodes["l_D"])
            opt.step()
        diffs = np.diff(values)
        assert np.all(diffs < 0), f"l_D not monotone: worst step {diffs.max()}"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, vaegan, rng):
        for p in nets.all_params(vaegan).values():
            p.value += rng.standard_normal(p.value.shape)
            p.moment1 += rng.standard_normal(p.value.shape) * 0.01
            p.moment2 += rng.uniform(0, 0.01, p.value.shape)
        nets.save_checkpoint(
            tmp_path / "c.npz", vaegan, seed=7, epoch=3, step=21,
            adam_steps={"discriminator": 21}, rng=rng,
            norm_meta={"norm_min": 0.0, "norm_max": 900.0, "kind": "load"},
        )
        ckpt = nets.load_checkpoint(tmp_path / "c.npz")
        assert ckpt.kind == "vaegan"
        assert ckpt.seed == 7 and ckpt.epoch == 3 and ckpt.step == 21
        assert ckpt.arch == TINY
        restored = nets.model_from_checkpoint(ckpt)
        for name, p in nets.all_params(vaegan).items():
            q = nets.all_params(restored)[name]
            assert np.array_equal(p.value, q.value)
            assert np.array_equal(p.moment1, q.moment1)
            assert np.array_equal(p.moment2, q.moment2)

    def test_rng_state_round_trip(self, tmp_path, gan):
        rng = np.random.default_rng(123)
        rng.standard_normal(100)  # advance the stream
        nets.save_checkpoint(tmp_path / "c.npz", gan, seed=1, rng=rng)
        expect = rng.standard_normal(5)
        ckpt = nets.load_checkpoint(tmp_path / "c.npz")
        restored = nets.rng_from_state(ckpt.rng_state)
        np.testing.assert_array_equal(restored.standard_normal(5), expect)

    def test_kind_mismatch_detected(self, tmp_path, gan):
        nets.save_checkpoint(tmp_path / "c.npz", gan, seed=0)
        ckpt = nets.load_checkpoint(tmp_path / "c.npz")
        assert ckpt.kind == "gan"
        model = nets.model_from_checkpoint(ckpt)
        assert isinstance(model, nets.GanModel)

    @pytest.mark.parametrize("damage", [
        "garbage", "truncated", "empty", "no_meta", "no_schema", "unknown_schema", "unknown_kind",
        "zero_leaky_slope", "string_channels",
    ])
    def test_unreadable_file_is_data_error(self, tmp_path, gan, damage):
        path = tmp_path / "c.npz"
        nets.save_checkpoint(path, gan, seed=0)
        good = path.read_bytes()
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        if damage == "garbage":
            path.write_bytes(np.random.default_rng(0).bytes(500))
        elif damage == "truncated":
            path.write_bytes(good[: len(good) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "no_meta":
            np.savez(path, **{"param/gen.out.b": np.zeros(1)})
        else:
            if damage == "no_schema":
                del meta["schema"]
            elif damage == "unknown_schema":
                meta["schema"] = "gridsynth.checkpoint/99"
            elif damage == "zero_leaky_slope":
                meta["arch"]["leaky_slope"] = 0.0
            elif damage == "string_channels":
                meta["arch"]["channels"] = "3"
            else:
                meta["kind"] = "wavenet"
            np.savez(path, meta=np.array(json.dumps(meta)))
        with pytest.raises(DataError):
            nets.load_checkpoint(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            nets.load_checkpoint(tmp_path / "absent.npz")

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, gan, monkeypatch):
        path = tmp_path / "checkpoint.npz"
        nets.save_checkpoint(path, gan, seed=0)
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(nets.np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            nets.save_checkpoint(path, gan, seed=1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.npz"]
        monkeypatch.undo()
        nets.save_checkpoint(path, gan, seed=0)
        assert path.read_bytes() == before

    def test_arrays_that_do_not_fit_are_data_error(self, tmp_path, gan):
        nets.save_checkpoint(tmp_path / "c.npz", gan, seed=0)
        ckpt = nets.load_checkpoint(tmp_path / "c.npz")
        ckpt.params["gen.out.b"] = np.zeros(3)
        with pytest.raises(DataError, match="do not fit"):
            nets.model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("slot", ["param", "m1", "m2"])
    @pytest.mark.parametrize("array", [np.full(1, 0.5), np.full((2, 48, 4), 0.5), np.ones((48, 4), int)],
                             ids=["broadcasts", "extra_axis", "int"])
    def test_array_of_other_shape_or_dtype_is_data_error(self, tmp_path, gan, slot, array):
        # gen.expand.w is (48, 4) at TINY; (1,) would broadcast into it
        path = tmp_path / "c.npz"
        nets.save_checkpoint(path, gan, seed=0)
        rewrite_checkpoint(path, {f"{slot}/gen.expand.w": array})
        ckpt = nets.load_checkpoint(path)
        with pytest.raises(DataError, match="gen.expand.w"):
            nets.model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("key,value", [
        ("epoch", "1"), ("epoch", -1), ("step", 2.0), ("seed", True), ("seed", None),
        ("adam_steps", []), ("adam_steps", {"generator": "3"}),
        ("rng_state", 5), ("rng_state", {"bit_generator": "PCG64"}),
        ("rng_state", {"bit_generator": "MT19937"}),
        ("norm_meta", "load"), ("norm_meta", {"norm_min": "0", "norm_max": 1.0, "kind": "load"}),
        ("norm_meta", {"norm_min": 0.0, "norm_max": 1.0}),
        ("norm_meta", {"norm_min": 5.0, "norm_max": 1.0, "kind": "load"}),
        ("norm_meta", {"norm_min": 0.0, "norm_max": float("inf"), "kind": "load"}), ("train_cfg", [1]),
    ])
    def test_meta_value_of_wrong_type_is_data_error(self, tmp_path, gan, key, value):
        path = tmp_path / "c.npz"
        nets.save_checkpoint(path, gan, seed=0, rng=np.random.default_rng(0),
                             norm_meta={"norm_min": 0.0, "norm_max": 1.0, "kind": "load"})
        rewrite_checkpoint(path, **{key: value})
        with pytest.raises(DataError, match=key):
            nets.load_checkpoint(path)

    def test_unusable_rng_state_is_data_error_where_applied(self):
        with pytest.raises(DataError, match="rng_state"):
            nets.rng_from_state(None)


def _json_values():
    scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=4)


@pytest.fixture(scope="module")
def good_checkpoint(tmp_path_factory):
    """(the bytes of a TINY GAN checkpoint with every meta field set, a path to
    write damaged copies to)."""
    model = nets.GanModel(TINY, np.random.default_rng(5))
    path = tmp_path_factory.mktemp("fuzz") / "c.npz"
    nets.save_checkpoint(path, model, seed=5, epoch=2, step=6, adam_steps={"generator": 6},
                         rng=np.random.default_rng(5), train_cfg={"epochs": 2},
                         norm_meta={"norm_min": 0.0, "norm_max": 900.0, "kind": "load"})
    return path.read_bytes(), path.with_name("damaged.npz")


def _loads_or_data_error(path):
    """Load a checkpoint as a resume does; a damaged one must raise DataError."""
    try:
        ckpt = nets.load_checkpoint(path)
        nets.model_from_checkpoint(ckpt)
        if ckpt.rng_state is not None:
            nets.rng_from_state(ckpt.rng_state)
    except DataError:
        pass


class TestCheckpointFuzz:
    """Truncated, byte-flipped and re-typed checkpoints load or raise DataError."""

    @settings(max_examples=40)
    @given(st.data())
    def test_truncated(self, good_checkpoint, data):
        good, path = good_checkpoint
        path.write_bytes(good[: data.draw(st.integers(0, len(good) - 1))])
        _loads_or_data_error(path)

    @settings(max_examples=60)
    @given(st.data())
    def test_byte_flipped(self, good_checkpoint, data):
        good, path = good_checkpoint
        damaged = bytearray(good)
        flips = st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flips, min_size=1, max_size=4)):
            damaged[at] ^= mask
        path.write_bytes(bytes(damaged))
        _loads_or_data_error(path)

    @settings(max_examples=60)
    @given(st.sampled_from([
        ("schema",), ("kind",), ("arch",), ("arch", "channels"), ("arch", "dilations"),
        ("arch", "logvar_clip"), ("seed",), ("epoch",), ("step",), ("adam_steps",),
        ("adam_steps", "generator"), ("rng_state",), ("rng_state", "state"),
        ("rng_state", "state", "state"), ("rng_state", "bit_generator"), ("norm_meta",),
        ("norm_meta", "norm_min"), ("norm_meta", "kind"), ("train_cfg",),
    ]), _json_values())
    def test_meta_value_replaced(self, good_checkpoint, where, value):
        good, path = good_checkpoint
        path.write_bytes(good)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        parent = meta
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        rewrite_checkpoint(path, **meta)
        _loads_or_data_error(path)
