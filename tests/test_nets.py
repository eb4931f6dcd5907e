"""Network graphs, loss terms of the composite game, and checkpoint I/O."""
import gc
import json
import math
import weakref

import numpy as np
import pytest

from gridsynth import autodiff as ad
from gridsynth import nets
from gridsynth.errors import DataError

from oracles import zero_fill_backward

TINY = nets.ArchConfig(seq_len=16, latent_dim=4, channels=3, kernel_size=3, dilations=(1, 2))


@pytest.fixture
def vaegan(rng):
    return nets.VaeGanModel(TINY, rng)


@pytest.fixture
def gan(rng):
    return nets.GanModel(TINY, rng)


class TestEncode:
    def test_zero_initialized_heads_give_zero(self, vaegan, rng):
        # with freshly zeroed head weights, any input maps to mean=0, logvar=0
        for p in (vaegan.encoder.w_mean, vaegan.encoder.b_mean,
                  vaegan.encoder.w_logvar, vaegan.encoder.b_logvar):
            p.value[...] = 0.0
        x = rng.uniform(0, 1, size=(3, 16))
        mean, logvar = nets.encode(vaegan, x)
        np.testing.assert_array_equal(mean, np.zeros((3, 4)))
        np.testing.assert_array_equal(logvar, np.zeros((3, 4)))

    def test_batch_shape(self, vaegan, rng):
        mean, logvar = nets.encode(vaegan, rng.uniform(0, 1, size=(5, 16)))
        assert mean.shape == (5, 4)
        assert logvar.shape == (5, 4)

    def test_deterministic(self, vaegan, rng):
        x = rng.uniform(0, 1, size=(2, 16))
        a = nets.encode(vaegan, x)
        b = nets.encode(vaegan, x)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_logvar_clamped(self, vaegan, rng):
        # force a huge logvar head weight; the clamp must cap the output
        vaegan.encoder.w_logvar.value[...] = 100.0
        _, logvar = nets.encode(vaegan, rng.uniform(0.5, 1, size=(2, 16)))
        assert np.all(logvar <= TINY.logvar_clip)
        assert np.all(logvar >= -TINY.logvar_clip)


class TestLossValues:
    def scalar(self, node, bindings=None):
        return float(ad.forward(node, bindings or {}))

    def test_prior_zero_at_standard_normal(self):
        mean = ad.Constant(np.zeros((2, 3)))
        logvar = ad.Constant(np.zeros((2, 3)))
        assert self.scalar(ad.GaussianKl(mean, logvar)) == 0.0

    def test_prior_unit_mean(self):
        # KL(N(1,1) || N(0,1)) = 0.5 per dim
        node = ad.GaussianKl(ad.Constant([[1.0]]), ad.Constant([[0.0]]))
        assert self.scalar(node) == pytest.approx(0.5, abs=1e-12)

    def test_prior_variance_four(self):
        # 0.5 (4 - 1 - ln 4)
        node = ad.GaussianKl(ad.Constant([[0.0]]), ad.Constant([[math.log(4.0)]]))
        assert self.scalar(node) == pytest.approx(0.5 * (4 - 1 - math.log(4.0)), abs=1e-12)

    def test_prior_batch_averaged_nonnegative(self, rng):
        mean = ad.Constant(rng.standard_normal((4, 6)))
        logvar = ad.Constant(rng.uniform(-2, 2, size=(4, 6)))
        assert self.scalar(ad.GaussianKl(mean, logvar)) >= 0.0

    def test_reconstruction_perfect(self, rng):
        x = rng.uniform(0, 1, size=(2, 1, 96))
        node = ad.Add(ad.Affine(ad.Mse(ad.Constant(x), ad.Constant(x)), 96.0), ad.Constant(0.0))
        assert self.scalar(node) == 0.0

    def test_reconstruction_point_one_offset(self):
        # 96 points off by 0.1 each: ||x_hat - x||^2 = 96 * 0.01 = 0.96
        x = np.zeros((1, 1, 96))
        xh = np.full((1, 1, 96), 0.1)
        node = ad.Affine(ad.Mse(ad.Constant(xh), ad.Constant(x)), 96.0)
        assert self.scalar(node) == pytest.approx(0.96, abs=1e-12)

    def test_reconstruction_additivity(self, rng):
        x = rng.uniform(0, 1, size=(3, 1, 96))
        xh = rng.uniform(0, 1, size=(3, 1, 96))
        prior = ad.Constant(0.37)
        mse_term = ad.Affine(ad.Mse(ad.Constant(xh), ad.Constant(x)), 96.0)
        total = self.scalar(ad.Add(mse_term, prior))
        assert total - 0.37 == pytest.approx(self.scalar(mse_term), abs=1e-12)

    def logits_for_prob(self, p):
        return math.log(p / (1.0 - p))

    def test_perfect_discriminator_on_real(self):
        # D(real) -> 1 means l_real -> 0
        node = ad.Bce(ad.Constant([self.logits_for_prob(1 - 1e-12)]), 1.0)
        assert self.scalar(node) < 1e-9

    def test_ldg_at_half(self):
        node = ad.Bce(ad.Constant([0.0]), 1.0)
        assert self.scalar(node) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_composite_at_half(self):
        adv = nets.adversarial_losses(
            ad.Constant([0.0]), ad.Constant([0.0]), ad.Constant([0.0])
        )
        l_d = ad.Add(ad.Add(adv["l_real"], adv["l_fake"]), adv["l_noise"])
        assert self.scalar(l_d) == pytest.approx(3.0 * math.log(2.0), abs=1e-12)

    def test_vanilla_losses(self):
        g_loss, d_loss = nets.vanilla_gan_losses(ad.Constant([0.0]), ad.Constant([0.0]))
        assert self.scalar(d_loss) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert self.scalar(g_loss) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_vanilla_optimal_extremes(self):
        hi = self.logits_for_prob(1 - 1e-9)
        lo = self.logits_for_prob(1e-9)
        _, d_loss = nets.vanilla_gan_losses(ad.Constant([hi]), ad.Constant([lo]))
        assert self.scalar(d_loss) < 1e-6
        g_loss, _ = nets.vanilla_gan_losses(ad.Constant([hi]), ad.Constant([hi]))
        assert self.scalar(g_loss) < 1e-6

    def test_all_terms_non_negative(self, rng):
        for _ in range(10):
            logits = ad.Constant(rng.standard_normal((4, 1)) * 3)
            for label in (0.0, 1.0):
                assert self.scalar(ad.Bce(logits, label)) >= 0.0


class TestVaeGanGraph:
    def bindings(self, graph, rng, batch=3):
        bind = {
            graph.x: rng.uniform(0, 1, size=(batch, 1, 16)),
            graph.eps: rng.standard_normal((batch, 4)),
            graph.noise: rng.standard_normal((batch, 1, 16)),
        }
        if graph.z_prior is not None:
            bind[graph.z_prior] = rng.standard_normal((batch, 4))
        return bind

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
        assert graph.x_hat.value.min() >= 0.0
        assert graph.x_hat.value.max() <= 1.0

    def test_prior_fake_source_uses_extra_input(self, vaegan, rng):
        graph = nets.build_vaegan_graph(vaegan, fake_source="prior")
        assert graph.z_prior is not None
        ad.forward(graph.nodes["l_D"], self.bindings(graph, rng))

    def test_full_loss_gradient_tiny_net(self, rng):
        # generator-objective gradients vs central differences on a tiny net
        arch = nets.ArchConfig(seq_len=16, latent_dim=4, channels=2, kernel_size=3, dilations=(1, 2))
        model = nets.VaeGanModel(arch, rng)
        for p in nets.all_params(model).values():
            p.value += rng.standard_normal(p.value.shape) * 0.1
        graph = nets.build_vaegan_graph(model)
        bind = {
            graph.x: rng.uniform(0, 1, size=(2, 1, 16)),
            graph.eps: rng.standard_normal((2, 4)),
            graph.noise: rng.standard_normal((2, 1, 16)),
        }
        ad.forward(graph.nodes["l_generator"], bind)
        for p in model.generator.params() + [model.encoder.w_mean, model.encoder.trunk.layers[0][0]]:
            assert ad.grad_check(graph.nodes["l_generator"], p, step=1e-4) < 1e-4, p.name
        ad.forward(graph.nodes["l_D"], bind)
        assert ad.grad_check(graph.nodes["l_D"], model.discriminator.w_head, step=1e-4) < 1e-4


class TestDiscriminateNoise:
    """D's probabilities on i.i.d. standard-normal sequences from a seeded rng."""

    def test_reproducible(self, vaegan):
        a = nets.discriminate(vaegan, np.random.default_rng(9).standard_normal((4, TINY.seq_len)))
        b = nets.discriminate(vaegan, np.random.default_rng(9).standard_normal((4, TINY.seq_len)))
        np.testing.assert_array_equal(a, b)

    def test_batch_shape(self, vaegan):
        probs = nets.discriminate(vaegan, np.random.default_rng(1).standard_normal((6, TINY.seq_len)))
        assert probs.shape == (6,)

    def test_zero_initialized_head_gives_half(self, vaegan):
        vaegan.discriminator.w_head.value[...] = 0.0
        vaegan.discriminator.b_head.value[...] = 0.0
        probs = nets.discriminate(vaegan, np.random.default_rng(2).standard_normal((5, TINY.seq_len)))
        np.testing.assert_allclose(probs, 0.5)

    def test_probabilities_in_open_interval(self, vaegan, rng):
        for p in nets.all_params(vaegan).values():
            p.value += rng.standard_normal(p.value.shape)
        probs = nets.discriminate(vaegan, rng.standard_normal((8, TINY.seq_len)))
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
    bind = {graph.x: rng.uniform(0, 1, size=(5, 1, TINY.seq_len))}
    for node, shape in graph.draws:
        bind[node] = rng.standard_normal((5,) + shape)
    return model, graph, bind


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
    @pytest.mark.parametrize("wrapper", ["encode", "generate", "discriminate"])
    def test_graph_freed_on_return_without_gc(self, vaegan, rng, monkeypatch, wrapper):
        roots = []
        forward = ad.forward

        def spy(root, bindings=None):
            roots.append(weakref.ref(root))
            return forward(root, bindings)

        monkeypatch.setattr(ad, "forward", spy)
        rows = nets._INFER_CHUNK + 6
        arg = (rng.standard_normal((rows, TINY.latent_dim)) if wrapper == "generate"
               else rng.uniform(0, 1, size=(rows, TINY.seq_len)))
        gc.disable()
        try:
            getattr(nets, wrapper)(vaegan, arg)
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

    @pytest.mark.parametrize("wrapper", ["encode", "generate", "discriminate"])
    def test_leading_rows_do_not_depend_on_batch_size(self, vaegan, rng, wrapper):
        # each row keeps its chunk and its place in it; padding only fills the rest
        def outputs(rows):
            out = getattr(nets, wrapper)(vaegan, rows)
            return out if wrapper == "encode" else (out,)

        width = TINY.latent_dim if wrapper == "generate" else TINY.seq_len
        rows = rng.uniform(0, 1, size=(2 * nets._INFER_CHUNK + 1, width))
        whole = outputs(rows)
        for n in (1, nets._INFER_CHUNK - 1, nets._INFER_CHUNK, nets._INFER_CHUNK + 1):
            for part, full in zip(outputs(rows[:n]), whole):
                assert part.tobytes() == full[:n].tobytes()


class TestDTrainsOnSeparableData:
    def test_l_d_decreases_monotonically(self, rng):
        # frozen G and fixed bindings, real data near 0.9: fully deterministic
        # full-batch D descent on separable data for 50 steps
        from gridsynth import trainer

        arch = nets.ArchConfig(seq_len=16, latent_dim=4, channels=4, kernel_size=3, dilations=(1, 2))
        model = nets.VaeGanModel(arch, rng)
        graph = nets.build_vaegan_graph(model)
        real = np.clip(0.9 + 0.02 * rng.standard_normal((8, 1, 16)), 0, 1)
        bind = {
            graph.x: real,
            graph.eps: rng.standard_normal((8, 4)),
            graph.noise: rng.standard_normal((8, 1, 16)),
        }
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
        "zero_leaky_slope",
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
