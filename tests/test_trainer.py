"""Adam updates, determinism, resume equivalence and the divergence guard."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridsynth import autodiff as ad
from gridsynth import nets, trainer, toydata
from gridsynth.errors import DataError, TrainingDiverged

TINY = nets.ArchConfig(seq_len=96, latent_dim=4, channels=3, kernel_size=3, dilations=(1, 2))


def tiny_data(n=12, seed=3):
    return toydata.sinusoid_day_matrix(n, seed=seed)


def quick_cfg(**kw):
    base = dict(epochs=2, batch_size=6, seed=1)
    base.update(kw)
    return trainer.TrainConfig(**base)


class TestTrainConfigRules:
    @pytest.mark.parametrize("key,value", [
        ("epochs", 0), ("batch_size", 0), ("lr_g", -1e-4), ("lr_g", float("nan")),
        ("lr_d", float("inf")), ("adam_beta1", 1.0), ("adam_beta2", -0.1), ("adam_eps", 0.0),
        ("seed", -1), ("d_steps_per_g_step", 0), ("checkpoint_every", -1),
        ("fake_source", "noise"), ("adam_eps", float("inf")),
        ("epochs", True), ("batch_size", 2.5), ("seed", 1.5), ("d_steps_per_g_step", 2.0),
        ("checkpoint_every", 1.5),
    ])
    def test_bad_value_raises_at_construction(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            trainer.TrainConfig(**{key: value})


class TestAdamStep:
    def test_zero_grad_leaves_value(self):
        p = ad.Param("p", [1.0, -2.0])
        before = p.value.copy()
        trainer.adam_step(p, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, t=1)
        np.testing.assert_array_equal(p.value, before)

    def test_first_step_scalar(self):
        # at t=1 bias correction cancels: delta = -lr * g / (|g| + eps)
        for g in (0.3, -4.2, 1e-3):
            p = ad.Param("p", [2.0])
            p.grad[...] = g
            trainer.adam_step(p, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8, t=1)
            expected = 2.0 - 0.05 * g / (abs(g) + 1e-8)
            np.testing.assert_allclose(p.value, [expected], rtol=1e-12)

    def test_two_identical_steps_follow_recurrence(self):
        # hand-evaluated Adam recurrences for constant gradient g
        g, lr, b1, b2, eps = 0.7, 0.01, 0.9, 0.999, 1e-8
        p = ad.Param("p", [0.0])
        p.grad[...] = g
        trainer.adam_step(p, lr, b1, b2, eps, t=1)
        trainer.adam_step(p, lr, b1, b2, eps, t=2)
        m2 = (1 - b1) * g * (b1 + 1)  # b1*(1-b1)*g + (1-b1)*g
        v2 = (1 - b2) * g * g * (b2 + 1)
        step1 = lr * g / (abs(g) + eps)
        m_hat = m2 / (1 - b1**2)
        v_hat = v2 / (1 - b2**2)
        step2 = lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(p.value, [-(step1 + step2)], rtol=1e-12)
        np.testing.assert_allclose(p.moment1, [m2], rtol=1e-12)
        np.testing.assert_allclose(p.moment2, [v2], rtol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("train_fn", [trainer.train_vaegan, trainer.train_gan])
    def test_equal_seed_bit_identical(self, train_fn, tmp_path):
        data = tiny_data()
        runs = []
        for tag in ("a", "b"):
            model, log = train_fn(data, quick_cfg(), arch=TINY, checkpoint_dir=tmp_path / tag)
            runs.append((model, log))
        params_a = nets.all_params(runs[0][0])
        params_b = nets.all_params(runs[1][0])
        for name in params_a:
            assert np.array_equal(params_a[name].value, params_b[name].value), name
        assert runs[0][1].steps == runs[1][1].steps
        bytes_a = (tmp_path / "a" / "checkpoint.npz").read_bytes()
        bytes_b = (tmp_path / "b" / "checkpoint.npz").read_bytes()
        assert bytes_a == bytes_b

    def test_different_seed_differs(self):
        data = tiny_data()
        m1, _ = trainer.train_vaegan(data, quick_cfg(seed=1), arch=TINY)
        m2, _ = trainer.train_vaegan(data, quick_cfg(seed=2), arch=TINY)
        head1 = nets.all_params(m1)["gen.out.w"].value
        head2 = nets.all_params(m2)["gen.out.w"].value
        assert not np.array_equal(head1, head2)


class TestPrunedBackwardOracle:
    """Each phase's backward(loss, wrt=group) against the full sweep."""

    @pytest.mark.parametrize("train_fn,kw", [
        (trainer.train_vaegan, {}),
        (trainer.train_gan, {}),
        (trainer.train_vaegan, {"d_steps_per_g_step": 2}),
        (trainer.train_gan, {"d_steps_per_g_step": 2}),
        (trainer.train_vaegan, {"fake_source": "prior"}),
    ])
    def test_bit_identical_to_full_backward(self, train_fn, kw, monkeypatch):
        data = tiny_data()
        pruned_model, pruned_log = train_fn(data, quick_cfg(**kw), arch=TINY)
        full_backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root, wrt=None: full_backward(root))
        full_model, full_log = train_fn(data, quick_cfg(**kw), arch=TINY)
        assert len(pruned_log.steps) == 4
        assert pruned_log.steps == full_log.steps
        full_params = nets.all_params(full_model)
        for name, p in nets.all_params(pruned_model).items():
            q = full_params[name]
            for slot in ("value", "moment1", "moment2"):
                assert getattr(p, slot).tobytes() == getattr(q, slot).tobytes(), (name, slot)


# every config whose phase schedule differs, with its conv forwards per step
# at the default four dilations: (without reuse, with reuse)
_REUSE_CONFIGS = [
    pytest.param(trainer.train_vaegan, {}, (43, 34), id="vaegan"),
    pytest.param(trainer.train_gan, {}, (22, 17), id="gan"),
    pytest.param(trainer.train_vaegan, {"fake_source": "prior"}, (44, 39), id="vaegan-prior"),
    pytest.param(trainer.train_vaegan, {"d_steps_per_g_step": 2}, (64, 46), id="vaegan-d2"),
    pytest.param(trainer.train_gan, {"d_steps_per_g_step": 2}, (35, 25), id="gan-d2"),
]
DEEP_TINY = nets.ArchConfig(seq_len=96, latent_dim=4, channels=3, kernel_size=3)


def _without_reuse(monkeypatch):
    """Make every forward evaluate its whole graph, whatever reuse it is given."""
    forward = ad.forward
    monkeypatch.setattr(ad, "forward",
                        lambda root, bindings=None, reuse=frozenset(): forward(root, bindings))


def _same_training(a, b):
    (model_a, log_a), (model_b, log_b) = a, b
    assert log_a.steps == log_b.steps
    params_b = nets.all_params(model_b)
    for name, p in nets.all_params(model_a).items():
        for slot in ("value", "moment1", "moment2"):
            assert getattr(p, slot).tobytes() == getattr(params_b[name], slot).tobytes(), (name, slot)


class TestForwardReuse:
    """Each phase's forward skips what an earlier phase of the step computed."""

    @pytest.mark.parametrize("train_fn,kw,counts", _REUSE_CONFIGS)
    def test_bit_identical_without_reuse(self, train_fn, kw, counts, monkeypatch):
        data = tiny_data()
        reused = train_fn(data, quick_cfg(**kw), arch=TINY)
        _without_reuse(monkeypatch)
        _same_training(reused, train_fn(data, quick_cfg(**kw), arch=TINY))

    @pytest.mark.parametrize("train_fn", [trainer.train_vaegan, trainer.train_gan])
    def test_resume_bit_identical_without_reuse(self, train_fn, tmp_path, monkeypatch):
        data = tiny_data()
        runs = []
        for tag in ("reuse", "none"):
            if tag == "none":
                _without_reuse(monkeypatch)
            first = tmp_path / tag / "first"
            train_fn(data, quick_cfg(epochs=1), arch=TINY, checkpoint_dir=first)
            resume = nets.load_checkpoint(first / "checkpoint.npz")
            runs.append(train_fn(data, quick_cfg(epochs=3), arch=TINY, resume=resume,
                                 checkpoint_dir=tmp_path / tag / "resumed"))
        _same_training(*runs)
        assert ((tmp_path / "reuse" / "resumed" / "checkpoint.npz").read_bytes()
                == (tmp_path / "none" / "resumed" / "checkpoint.npz").read_bytes())

    @pytest.mark.parametrize("train_fn,kw,counts", _REUSE_CONFIGS)
    def test_conv_forwards_per_step(self, train_fn, kw, counts, monkeypatch):
        calls = []
        conv_forward = ad.DilatedCausalConv1d._forward

        def counted(self, *vals):
            calls.append(self)
            return conv_forward(self, *vals)

        monkeypatch.setattr(ad.DilatedCausalConv1d, "_forward", counted)
        per_step = {}
        for mode in ("reuse", "none"):
            if mode == "none":
                _without_reuse(monkeypatch)
            calls.clear()
            _, log = train_fn(tiny_data(), quick_cfg(**kw), arch=DEEP_TINY)
            per_step[mode] = len(calls) / len(log.steps)
        assert (per_step["none"], per_step["reuse"]) == counts


# trains both models at TINY and at the acceptance toy width, whose 32-row
# dense products are large enough for OpenBLAS to split across threads
_PIN_SCRIPT = f"""
import sys
from gridsynth import toydata, trainer
from gridsynth.nets import ArchConfig
for tag, arch, n_days, batch in (
    ("tiny", {TINY!r}, 12, 6),
    ("toy", ArchConfig(latent_dim=16, channels=16), 64, 32),
):
    data = toydata.sinusoid_day_matrix(n_days, seed=3)
    cfg = trainer.TrainConfig(epochs=2, batch_size=batch, seed=1)
    for train_fn in (trainer.train_vaegan, trainer.train_gan):
        train_fn(data, cfg, arch=arch, checkpoint_dir=f"{{sys.argv[1]}}/{{tag}}-{{train_fn.__name__}}")
"""


def test_blas_thread_count_does_not_change_checkpoints(tmp_path):
    src = str(Path(trainer.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    runs = {"threads1": {**env, "OPENBLAS_NUM_THREADS": "1"}, "default": env}
    for tag, run_env in runs.items():
        subprocess.run([sys.executable, "-c", _PIN_SCRIPT, str(tmp_path / tag)],
                       env=run_env, check=True, timeout=300)
    ckpts = sorted(p.relative_to(tmp_path / "default")
                   for p in (tmp_path / "default").rglob("checkpoint.npz"))
    assert len(ckpts) == 4
    for rel in ckpts:
        assert (tmp_path / "threads1" / rel).read_bytes() == (tmp_path / "default" / rel).read_bytes(), rel


class TestDiscriminatorSteps:
    @pytest.mark.parametrize("train_fn", [trainer.train_vaegan, trainer.train_gan])
    def test_two_d_steps_per_g_step(self, train_fn, tmp_path):
        data = tiny_data()
        logs = []
        for tag in ("a", "b"):
            _, log = train_fn(
                data, quick_cfg(d_steps_per_g_step=2), arch=TINY, checkpoint_dir=tmp_path / tag
            )
            logs.append(log)
        ckpt = nets.load_checkpoint(tmp_path / "a" / "checkpoint.npz")
        assert ckpt.adam_steps["generator"] == len(logs[0].steps) > 0
        assert ckpt.adam_steps["discriminator"] == 2 * ckpt.adam_steps["generator"]
        assert logs[0].steps == logs[1].steps
        bytes_a = (tmp_path / "a" / "checkpoint.npz").read_bytes()
        assert bytes_a == (tmp_path / "b" / "checkpoint.npz").read_bytes()


class TestZeroLearningRate:
    @pytest.mark.parametrize("train_fn", [trainer.train_vaegan, trainer.train_gan])
    def test_params_unchanged(self, train_fn):
        data = tiny_data()
        cfg = quick_cfg(lr_g=0.0, lr_d=0.0, epochs=1)
        model, _ = train_fn(data, cfg, arch=TINY)
        reference = {"vaegan": nets.VaeGanModel, "gan": nets.GanModel}[model.kind](
            TINY, np.random.default_rng(cfg.seed)
        )
        for name, p in nets.all_params(model).items():
            np.testing.assert_array_equal(p.value, nets.all_params(reference)[name].value)


class TestLossIdentities:
    def test_identities_every_step(self):
        data = tiny_data(n=16)
        _, log = trainer.train_vaegan(data, quick_cfg(epochs=3, batch_size=4), arch=TINY)
        assert len(log.steps) == 12
        for row in log.steps:
            assert abs(row["l_generator"] - (row["l_reconstruction"] + row["l_dG"])) <= 1e-12
            assert abs(row["l_D"] - (row["l_real"] + row["l_fake"] + row["l_noise"])) <= 1e-12


class TestSeparableToyDescent:
    def test_gan_d_only_loss_decreases(self):
        # G frozen via lr_g=0; its outputs sit near mid-range while real days
        # sit near 0.9, so D separates them. Fresh z per step keeps the fake
        # batch jittering, so the derived property is a decreasing trend:
        # strictly falling 10-step means and a large net drop.
        rng = np.random.default_rng(0)
        days = np.clip(0.9 + 0.02 * rng.standard_normal((8, 96)), 0, 1)
        from gridsynth.datapipe import DayMatrix

        data = DayMatrix(days, norm_min=0.0, norm_max=1000.0)
        cfg = trainer.TrainConfig(
            epochs=50, batch_size=8, lr_g=0.0, lr_d=3e-3, seed=0
        )
        _, log = trainer.train_gan(data, cfg, arch=TINY)
        d_losses = np.array([row["d_loss"] for row in log.steps])
        assert len(d_losses) == 50
        window_means = d_losses.reshape(5, 10).mean(axis=1)
        assert np.all(np.diff(window_means) < 0), f"windows not decreasing: {window_means}"
        assert d_losses[-1] < 0.5 * d_losses[0]


class TestResume:
    @pytest.mark.parametrize("train_fn", [trainer.train_vaegan, trainer.train_gan])
    def test_resume_equivalence(self, train_fn, tmp_path):
        data = tiny_data()
        full_cfg = quick_cfg(epochs=4, checkpoint_every=2)
        _, full_log = train_fn(data, full_cfg, arch=TINY, checkpoint_dir=tmp_path / "full")
        ckpt = nets.load_checkpoint(tmp_path / "full" / "checkpoint_ep0002.npz")
        model, resumed_log = train_fn(
            data, quick_cfg(epochs=4, checkpoint_every=2), arch=TINY, resume=ckpt,
            checkpoint_dir=tmp_path / "res",
        )
        suffix = [r for r in full_log.steps if r["epoch"] > 2]
        assert resumed_log.steps
        assert resumed_log.steps == suffix
        final_full = (tmp_path / "full" / "checkpoint.npz").read_bytes()
        final_res = (tmp_path / "res" / "checkpoint.npz").read_bytes()
        assert final_full == final_res


class TestResumeMustMatchRun:
    """A resume continues the requested run or writes nothing."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        trainer.train_gan(tiny_data(), quick_cfg(epochs=1), arch=TINY,
                          checkpoint_dir=tmp_path / "a")
        return nets.load_checkpoint(tmp_path / "a" / "checkpoint.npz")

    def test_other_arch_is_data_error(self, checkpoint, tmp_path):
        wider = dataclasses.replace(TINY, channels=5)
        with pytest.raises(DataError, match="arch .*channels 3 vs 5"):
            trainer.train_gan(tiny_data(), quick_cfg(), arch=wider, resume=checkpoint,
                              checkpoint_dir=tmp_path / "b")
        assert not (tmp_path / "b").exists()

    def test_other_normalization_is_data_error(self, checkpoint, tmp_path):
        other = tiny_data(seed=4)
        assert other.norm_max != checkpoint.norm_meta["norm_max"]
        with pytest.raises(DataError, match="normalization .*norm_max"):
            trainer.train_gan(other, quick_cfg(), arch=TINY, resume=checkpoint,
                              checkpoint_dir=tmp_path / "b")
        assert not (tmp_path / "b").exists()


class TestDivergenceGuard:
    def test_aborts_on_nonfinite(self, tmp_path, rng):
        # resume from a checkpoint whose generator head is poisoned with NaN;
        # the first batch must produce a non-finite loss and abort
        data = tiny_data()
        model = nets.VaeGanModel(TINY, rng)
        model.generator.w_out.value[...] = np.nan
        nets.save_checkpoint(
            tmp_path / "bad.npz", model, seed=1,
            rng=np.random.default_rng(1), train_cfg=None,
        )
        ckpt = nets.load_checkpoint(tmp_path / "bad.npz")
        with pytest.raises(TrainingDiverged) as err:
            trainer.train_vaegan(data, quick_cfg(epochs=1), arch=TINY, resume=ckpt)
        assert err.value.step == 1
        assert any(not np.isfinite(v) for v in err.value.losses.values())


class TestTrainLog:
    def test_csv_round_trip_columns(self, tmp_path):
        data = tiny_data()
        headers = {
            trainer.train_gan: "step,epoch,g_loss,d_loss",
            trainer.train_vaegan: "step,epoch,l_prior,recon_mse,l_reconstruction,l_dG,"
            "l_generator,l_real,l_fake,l_noise,l_D",
        }
        for train_fn, header in headers.items():
            _, log = train_fn(data, quick_cfg(epochs=1), arch=TINY)
            log.to_csv(tmp_path / "log.csv")
            lines = (tmp_path / "log.csv").read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 1 + len(log.steps)
        log.wall_to_csv(tmp_path / "epochs.csv")
        assert (tmp_path / "epochs.csv").read_text().splitlines()[0] == "epoch,wall_seconds"

    @pytest.mark.parametrize("writer", ["to_csv", "wall_to_csv"])
    def test_failed_write_keeps_previous_file(self, writer, tmp_path, monkeypatch):
        _, log = trainer.train_gan(tiny_data(), quick_cfg(epochs=1), arch=TINY)
        path = tmp_path / "log.csv"
        getattr(log, writer)(path)
        before = path.read_bytes()

        class FailingWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write("partial,")
                raise OSError("disk full")

        monkeypatch.setattr(trainer.csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            getattr(log, writer)(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_monotone_step_index(self):
        data = tiny_data()
        _, log = trainer.train_vaegan(data, quick_cfg(epochs=2), arch=TINY)
        steps = [row["step"] for row in log.steps]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
