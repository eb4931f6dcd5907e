"""Alternating optimization of the VAE-GAN and the vanilla-GAN baseline.

Training is fully deterministic for a given seed: model init, epoch shuffles
and every latent/noise draw come from one Generator stream, so two runs with
equal config produce bit-identical checkpoints and a resumed run reproduces
the interrupted run's log suffix exactly. numpy's BLAS runs at its default
thread count; the checkpoint does not depend on that count.

Per batch, the VAE-GAN schedule is: (1) one or more discriminator updates
on l_D over the real batch, the fake batch and a pure-noise batch, (2) an
encoder update on l_reconstruction (prior + squared error), (3) a generator
update on l_generator (reconstruction + adversarial term). The vanilla GAN
runs the same loop without the encoder phase.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nets
from .datapipe import DayMatrix, is_count, replaced_on_success
from .errors import DataError, TrainingDiverged

@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; each value is checked when the config is built."""

    epochs: int = 200
    batch_size: int = 32
    lr_g: float = 2e-4
    lr_d: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    d_steps_per_g_step: int = 1
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = final only
    fake_source: str = "reconstruction"  # what D treats as fake: reconstruction | prior

    def __post_init__(self):
        for key, low in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                         ("d_steps_per_g_step", 1), ("checkpoint_every", 0)):
            value = getattr(self, key)
            if not (is_count(value) and value >= low):
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
        for key, ok, rule in (
            ("lr_g", 0 <= self.lr_g < math.inf, "finite and >= 0"),
            ("lr_d", 0 <= self.lr_d < math.inf, "finite and >= 0"),
            ("adam_beta1", 0 <= self.adam_beta1 < 1, "in [0, 1)"),
            ("adam_beta2", 0 <= self.adam_beta2 < 1, "in [0, 1)"),
            ("adam_eps", 0 < self.adam_eps < math.inf, "finite and > 0"),
            ("fake_source", self.fake_source in ("reconstruction", "prior"), "reconstruction|prior"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


class TrainLog:
    """Per-step loss records plus wall-clock seconds per epoch."""

    def __init__(self, loss_keys):
        self.loss_keys = tuple(loss_keys)
        self.steps: list[dict] = []
        self.epoch_wall: list[tuple[int, float]] = []

    def record(self, step: int, epoch: int, losses: dict) -> None:
        row = {"step": step, "epoch": epoch}
        row.update({k: losses[k] for k in self.loss_keys})
        self.steps.append(row)

    def epoch_mean(self, epoch: int, key: str) -> float:
        vals = [r[key] for r in self.steps if r["epoch"] == epoch]
        return float(np.mean(vals))

    def to_csv(self, path) -> None:
        with replaced_on_success(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("step", "epoch") + self.loss_keys)
            for row in self.steps:
                writer.writerow([row["step"], row["epoch"]] + [repr(row[k]) for k in self.loss_keys])

    def wall_to_csv(self, path) -> None:
        with replaced_on_success(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("epoch", "wall_seconds"))
            for epoch, wall in self.epoch_wall:
                writer.writerow([epoch, repr(wall)])


def adam_step(param: ad.Param, lr: float, beta1: float, beta2: float, eps: float, t: int) -> None:
    """One in-place Adam update with bias correction; t is the 1-based step."""
    g = param.grad
    param.moment1 *= beta1
    param.moment1 += (1.0 - beta1) * g
    param.moment2 *= beta2
    param.moment2 += (1.0 - beta2) * g * g
    m_hat = param.moment1 / (1.0 - beta1**t)
    v_hat = param.moment2 / (1.0 - beta2**t)
    param.value -= lr * m_hat / (np.sqrt(v_hat) + eps)


class AdamOptimizer:
    """Adam over one parameter group with a shared step counter."""

    def __init__(self, params, lr, beta1, beta2, eps, t: int = 0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = t

    def step(self) -> None:
        self.t += 1
        for p in self.params:
            adam_step(p, self.lr, self.beta1, self.beta2, self.eps, self.t)


def _check_finite(losses: dict, step: int) -> None:
    bad = {k: v for k, v in losses.items() if not math.isfinite(v)}
    if bad:
        raise TrainingDiverged(
            f"non-finite loss at step {step}: {sorted(bad)}", step=step, losses=losses
        )


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _differences(saved: dict, wanted: dict) -> str:
    """'key saved vs wanted' for each key of wanted whose value differs."""
    return ", ".join(
        f"{k} {saved.get(k)!r} vs {v!r}" for k, v in wanted.items() if saved.get(k) != v
    )


def _check_resume(resume: nets.Checkpoint, kind: str, arch: nets.ArchConfig, norm_meta: dict):
    """A resume continues the requested run: the checkpoint must hold the
    same model kind and arch and, where it has one, the training data's
    normalization record."""
    if resume.kind != kind:
        raise DataError(f"checkpoint is for {resume.kind!r}, expected {kind!r}")
    diff = _differences(resume.arch.to_dict(), arch.to_dict())
    if diff:
        raise DataError(f"checkpoint arch differs from the requested one "
                        f"(checkpoint vs requested): {diff}")
    if resume.norm_meta is not None:
        diff = _differences(resume.norm_meta, norm_meta)
        if diff:
            raise DataError(f"checkpoint normalization differs from the training data's "
                            f"(checkpoint vs data): {diff}")


def _train(model_cls, build_graph, data, cfg, arch, resume, checkpoint_dir):
    """The one training loop: every model is a graph plus its phase list.

    Per batch, the graph's noise inputs are drawn in its declared order, then
    each phase runs forward, backward and its group's Adam step on one loss
    node; discriminator phases repeat d_steps_per_g_step times. A phase's
    forward skips the nodes an earlier phase of the same step computed and
    no Adam step has touched since (autodiff.reuse_plan), which gives the
    same values: the E phase of the default VAE-GAN re-evaluates no conv.
    """
    norm_meta = data.norm_meta
    if resume is not None:
        _check_resume(resume, model_cls.kind, arch, norm_meta)
        model = nets.model_from_checkpoint(resume)
        rng = nets.rng_from_state(resume.rng_state)
        start_epoch, step, adam_t = resume.epoch, resume.step, resume.adam_steps
    else:
        rng = np.random.default_rng(cfg.seed)
        model = model_cls(arch, rng)
        start_epoch, step, adam_t = 0, 0, {}
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    optimizers = {
        name: AdamOptimizer(
            group, cfg.lr_d if name == "discriminator" else cfg.lr_g,
            cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, t=adam_t.get(name, 0),
        )
        for name, group in model.param_groups().items()
    }
    graph = build_graph(model)
    schedule = [
        (graph.nodes[loss], optimizers[group])
        for loss, group in graph.phases
        for _ in range(cfg.d_steps_per_g_step if group == "discriminator" else 1)
    ]
    # what each phase's forward may keep from an earlier phase of the step
    reuse = ad.reuse_plan([(loss, opt.params) for loss, opt in schedule])
    log = TrainLog(graph.nodes)

    def save(path, epoch):
        nets.save_checkpoint(
            path, model, seed=cfg.seed, epoch=epoch, step=step,
            adam_steps={name: opt.t for name, opt in optimizers.items()},
            rng=rng, norm_meta=norm_meta, train_cfg=asdict(cfg),
        )

    epoch = start_epoch
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        t0 = time.perf_counter()
        for batch_idx in _batches(data.n_days, cfg.batch_size, rng):
            x = data.values[batch_idx][:, None, :]
            bind = {graph.x: x}
            for node, shape in graph.draws:
                bind[node] = rng.standard_normal((len(x),) + shape)
            step += 1
            for (loss, opt), keep in zip(schedule, reuse):
                ad.forward(loss, bind, keep)
                ad.backward(loss, opt.params)
                opt.step()
            # snapshot: D terms from the last D forward, the rest from later phases
            losses = graph.bundle()
            _check_finite(losses, step)
            log.record(step, epoch, losses)
        log.epoch_wall.append((epoch, time.perf_counter() - t0))
        every = cfg.checkpoint_every
        if checkpoint_dir is not None and every > 0 and epoch % every == 0 and epoch < cfg.epochs:
            save(checkpoint_dir / f"checkpoint_ep{epoch:04d}.npz", epoch)

    if checkpoint_dir is not None:
        save(checkpoint_dir / "checkpoint.npz", epoch)
    return model, log


def train_vaegan(
    data: DayMatrix,
    cfg: TrainConfig,
    arch: nets.ArchConfig,
    resume: nets.Checkpoint | None = None,
    checkpoint_dir=None,
) -> tuple[nets.VaeGanModel, TrainLog]:
    """Train encoder + generator + discriminator on normalized day profiles."""
    return _train(
        nets.VaeGanModel, lambda model: nets.build_vaegan_graph(model, fake_source=cfg.fake_source),
        data, cfg, arch, resume, checkpoint_dir,
    )


def train_gan(
    data: DayMatrix,
    cfg: TrainConfig,
    arch: nets.ArchConfig,
    resume: nets.Checkpoint | None = None,
    checkpoint_dir=None,
) -> tuple[nets.GanModel, TrainLog]:
    """Train the vanilla-GAN baseline with the same loop and determinism contract."""
    return _train(nets.GanModel, nets.build_gan_graph, data, cfg, arch, resume, checkpoint_dir)
