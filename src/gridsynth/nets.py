"""Encoder, generator and discriminator graphs plus every loss term.

All three networks share one architecture idiom: a stack of dilated causal
1-D convolutions (dilations doubling per layer, WaveNet style) with leaky
ReLU activations and He-initialized weights throughout, heads included
(zero heads starve the encoder of reconstruction gradient and collapse the
posterior). A generator whose output layer is explicitly zeroed emits the
mid-range constant 0.5, and a zeroed discriminator head says probability
0.5; tests construct those states when they need them.

Sign conventions: every loss is a logit-stabilized negative log likelihood
and therefore non-negative. The generator's adversarial term is the
non-saturating -log D(fake); the discriminator minimizes
-log D(real) - log(1 - D(fake)) - log(1 - D(noise)).
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .datapipe import is_count, replaced_on_success
from .errors import DataError


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ArchConfig:
    """Network hyperparameters; the defaults fit 96-slot day profiles."""

    seq_len: int = 96
    latent_dim: int = 32
    channels: int = 32
    kernel_size: int = 3
    dilations: tuple = (1, 2, 4, 8)
    leaky_slope: float = 0.2
    logvar_clip: float = 10.0

    def __post_init__(self):
        for key in ("seq_len", "latent_dim", "channels", "kernel_size"):
            value = getattr(self, key)
            if not (is_count(value) and value > 0):
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        if not (self.dilations and all(is_count(d) and d > 0 for d in self.dilations)):
            raise ValueError(f"dilations must be one or more positive integers, got {self.dilations!r}")
        if not (_is_number(self.leaky_slope) and 0.0 < self.leaky_slope <= 1.0):
            raise ValueError(f"leaky_slope must be in (0, 1], got {self.leaky_slope!r}")
        if not (_is_number(self.logvar_clip) and self.logvar_clip > 0):
            raise ValueError(f"logvar_clip must be a positive number, got {self.logvar_clip!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dilations"] = list(self.dilations)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        d = dict(d)
        d["dilations"] = tuple(d["dilations"])
        return cls(**d)


def _he(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


class _ConvStack:
    """The dilated conv trunk shared by all three nets; each layer is one
    conv node fused with its LeakyReLU."""

    def __init__(self, prefix: str, arch: ArchConfig, rng: np.random.Generator, in_channels: int):
        c, k = arch.channels, arch.kernel_size
        self.arch = arch
        self.layers = []
        for i, dil in enumerate(arch.dilations):
            w = ad.Param(f"{prefix}.conv{i}.w", _he(rng, (c, in_channels, k), in_channels * k))
            b = ad.Param(f"{prefix}.conv{i}.b", np.zeros(c))
            self.layers.append((w, b, dil))
            in_channels = c

    def build(self, x: ad.Node) -> ad.Node:
        h = x
        for w, b, dil in self.layers:
            h = ad.DilatedCausalConv1d(h, w, b, dil, slope=self.arch.leaky_slope)
        return h

    def params(self) -> list[ad.Param]:
        return [p for w, b, _ in self.layers for p in (w, b)]


class Encoder:
    """x (B, 1, T) -> (mean, logvar), both (B, L).

    Heads are He-initialized like the trunk: the latent must carry input
    information from the very first step, otherwise the generator learns to
    ignore z before the encoder says anything (posterior collapse).
    """

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        self.trunk = _ConvStack("enc", arch, rng, in_channels=1)
        m = arch.channels * arch.seq_len
        self.w_mean = ad.Param("enc.mean.w", _he(rng, (arch.latent_dim, m), m))
        self.b_mean = ad.Param("enc.mean.b", np.zeros(arch.latent_dim))
        self.w_logvar = ad.Param("enc.logvar.w", _he(rng, (arch.latent_dim, m), m))
        self.b_logvar = ad.Param("enc.logvar.b", np.zeros(arch.latent_dim))

    def build(self, x: ad.Node) -> tuple[ad.Node, ad.Node]:
        h = self.trunk.build(x)
        mean = ad.Dense(h, self.w_mean, self.b_mean)
        clip = self.arch.logvar_clip
        logvar = ad.Clamp(ad.Dense(h, self.w_logvar, self.b_logvar), -clip, clip)
        return mean, logvar

    def params(self) -> list[ad.Param]:
        return self.trunk.params() + [self.w_mean, self.b_mean, self.w_logvar, self.b_logvar]


class Generator:
    """z (B, L) -> profile (B, 1, T) in [0, 1] via 0.5 * (tanh + 1)."""

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        c, t = arch.channels, arch.seq_len
        self.w_in = ad.Param("gen.expand.w", _he(rng, (c * t, arch.latent_dim), arch.latent_dim))
        self.b_in = ad.Param("gen.expand.b", np.zeros(c * t))
        self.trunk = _ConvStack("gen", arch, rng, in_channels=c)
        self.w_out = ad.Param("gen.out.w", _he(rng, (1, c, 1), c))
        self.b_out = ad.Param("gen.out.b", np.zeros(1))

    def build(self, z: ad.Node) -> ad.Node:
        c, t = self.arch.channels, self.arch.seq_len
        h = ad.LeakyRelu(ad.Dense(z, self.w_in, self.b_in, out_shape=(c, t)), self.arch.leaky_slope)
        h = self.trunk.build(h)
        pre = ad.DilatedCausalConv1d(h, self.w_out, self.b_out, 1)
        return ad.Affine(ad.Tanh(pre), 0.5, 0.5)

    def params(self) -> list[ad.Param]:
        return [self.w_in, self.b_in] + self.trunk.params() + [self.w_out, self.b_out]


class Discriminator:
    """x (B, 1, T) -> logit (B, 1); probability is sigmoid(logit)."""

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        self.trunk = _ConvStack("disc", arch, rng, in_channels=1)
        m = arch.channels * arch.seq_len
        self.w_head = ad.Param("disc.head.w", _he(rng, (1, m), m))
        self.b_head = ad.Param("disc.head.b", np.zeros(1))

    def build(self, x: ad.Node) -> ad.Node:
        h = self.trunk.build(x)
        return ad.Dense(h, self.w_head, self.b_head)

    def params(self) -> list[ad.Param]:
        return self.trunk.params() + [self.w_head, self.b_head]


class VaeGanModel:
    kind = "vaegan"

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        self.encoder = Encoder(arch, rng)
        self.generator = Generator(arch, rng)
        self.discriminator = Discriminator(arch, rng)

    def param_groups(self) -> dict[str, list[ad.Param]]:
        return {
            "encoder": self.encoder.params(),
            "generator": self.generator.params(),
            "discriminator": self.discriminator.params(),
        }


class GanModel:
    kind = "gan"

    def __init__(self, arch: ArchConfig, rng: np.random.Generator):
        self.arch = arch
        self.generator = Generator(arch, rng)
        self.discriminator = Discriminator(arch, rng)

    def param_groups(self) -> dict[str, list[ad.Param]]:
        return {
            "generator": self.generator.params(),
            "discriminator": self.discriminator.params(),
        }


def all_params(model) -> dict[str, ad.Param]:
    out: dict[str, ad.Param] = {}
    for group in model.param_groups().values():
        for p in group:
            if p.name in out:
                raise ValueError(f"duplicate param name {p.name}")
            out[p.name] = p
    return out


# ---------------------------------------------------------------------------
# loss graphs


def adversarial_losses(logit_real: ad.Node, logit_fake: ad.Node, logit_noise: ad.Node) -> dict:
    """The four single-sided terms of the composite game, all from logits.

    l_real  = -mean log D(real)        l_fake  = -mean log(1 - D(fake))
    l_noise = -mean log(1 - D(noise))  l_dG    = -mean log D(fake)
    """
    return {
        "l_real": ad.Bce(logit_real, 1.0),
        "l_fake": ad.Bce(logit_fake, 0.0),
        "l_noise": ad.Bce(logit_noise, 0.0),
        "l_dG": ad.Bce(logit_fake, 1.0),
    }


def vanilla_gan_losses(logit_real: ad.Node, logit_fake: ad.Node) -> tuple[ad.Node, ad.Node]:
    """(g_loss, d_loss) of the two-player game, non-saturating generator."""
    g_loss = ad.Bce(logit_fake, 1.0)
    d_loss = ad.Add(ad.Bce(logit_real, 1.0), ad.Bce(logit_fake, 0.0))
    return g_loss, d_loss


@dataclass
class TrainingGraph:
    """What the training loop needs of a model's graph.

    x is the Input of the real batch, nodes maps loss names to loss Nodes,
    draws lists the per-batch standard-normal Inputs with their shapes after
    the batch axis (in RNG draw order), and phases lists the (loss name,
    parameter group) updates of one training step.
    """

    x: ad.Input
    nodes: dict
    draws: tuple
    phases: tuple

    def bundle(self) -> dict[str, float]:
        return {name: float(node.value) for name, node in self.nodes.items()}


def build_vaegan_graph(model: VaeGanModel, fake_source: str = "reconstruction") -> TrainingGraph:
    """Wire encoder, generator and three discriminator passes into one DAG.

    fake_source picks what D sees as fake (and what l_dG pushes on):
    reconstructions G(E(x)) by default, or prior draws G(z), z ~ N(0,1).
    """
    if fake_source not in ("reconstruction", "prior"):
        raise ValueError(f"fake_source must be 'reconstruction' or 'prior', got {fake_source!r}")
    arch = model.arch
    x = ad.Input("x")
    eps = ad.Input("eps")
    noise = ad.Input("noise")
    draws = ((eps, (arch.latent_dim,)), (noise, (1, arch.seq_len)))
    mean, logvar = model.encoder.build(x)
    x_hat = model.generator.build(ad.Reparameterize(mean, logvar, eps))
    fake = x_hat
    if fake_source == "prior":
        z_prior = ad.Input("z_prior")
        draws += ((z_prior, (arch.latent_dim,)),)
        fake = model.generator.build(z_prior)

    l_prior = ad.GaussianKl(mean, logvar)  # batch-averaged KL against N(0, 1)
    recon_mse = ad.Mse(x_hat, x)
    # ||x_hat - x||^2 summed per sequence, batch-averaged = per-element MSE * T
    l_reconstruction = ad.Add(ad.Affine(recon_mse, float(arch.seq_len)), l_prior)

    adv = adversarial_losses(
        model.discriminator.build(x),
        model.discriminator.build(fake),
        model.discriminator.build(noise),
    )
    l_generator = ad.Add(l_reconstruction, adv["l_dG"])
    l_d = ad.Add(ad.Add(adv["l_real"], adv["l_fake"]), adv["l_noise"])

    nodes = {
        "l_prior": l_prior,
        "recon_mse": recon_mse,
        "l_reconstruction": l_reconstruction,
        "l_dG": adv["l_dG"],
        "l_generator": l_generator,
        "l_real": adv["l_real"],
        "l_fake": adv["l_fake"],
        "l_noise": adv["l_noise"],
        "l_D": l_d,
    }
    phases = (("l_D", "discriminator"), ("l_reconstruction", "encoder"), ("l_generator", "generator"))
    return TrainingGraph(x, nodes, draws, phases)


def build_gan_graph(model: GanModel) -> TrainingGraph:
    x = ad.Input("x")
    z = ad.Input("z")
    g_loss, d_loss = vanilla_gan_losses(
        model.discriminator.build(x), model.discriminator.build(model.generator.build(z))
    )
    return TrainingGraph(x, {"g_loss": g_loss, "d_loss": d_loss}, ((z, (model.arch.latent_dim,)),),
                         (("d_loss", "discriminator"), ("g_loss", "generator")))


# ---------------------------------------------------------------------------
# inference: one generator graph per call over the shared Params, fed in
# fixed-size row chunks so that memory does not grow with the batch

#: Rows per inference forward. It is fixed rather than derived from the
#: batch: the dense GEMMs round differently at small row counts (one row
#: takes the GEMV path), so a short last chunk is padded to full size.
_INFER_CHUNK = 64


def generate(model, z) -> np.ndarray:
    """Decode latent rows (B, L) to (B, T) profiles in [0, 1].

    The graph is built once and holds one chunk's activations at a time.
    Rows do not interact, so the zero rows that pad the last chunk are just
    dropped from the output.
    """
    zin = ad.Input("z")
    out = model.generator.build(zin)
    parts = []
    for start in range(0, len(z), _INFER_CHUNK):
        chunk = z[start : start + _INFER_CHUNK]
        kept = len(chunk)
        if kept < _INFER_CHUNK:
            chunk = np.concatenate([chunk, np.zeros((_INFER_CHUNK - kept,) + chunk.shape[1:])])
        ad.forward(out, {zin: chunk})
        parts.append(out.value[:kept, 0, :])  # every forward makes a new value array
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# checkpointing: one .npz holding every Param (values + Adam moments) plus a
# JSON metadata record; float64 bits round-trip exactly


CHECKPOINT_SCHEMA = "gridsynth.checkpoint/1"
_MODELS = {"vaegan": VaeGanModel, "gan": GanModel}


@dataclass
class Checkpoint:
    kind: str
    arch: ArchConfig
    seed: int
    epoch: int
    step: int
    params: dict[str, np.ndarray]
    moments1: dict[str, np.ndarray]
    moments2: dict[str, np.ndarray]
    adam_steps: dict[str, int]
    rng_state: dict | None
    norm_meta: dict | None
    train_cfg: dict | None


def save_checkpoint(
    path,
    model,
    *,
    seed: int,
    epoch: int = 0,
    step: int = 0,
    adam_steps: dict | None = None,
    rng: np.random.Generator | None = None,
    norm_meta: dict | None = None,
    train_cfg: dict | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, p in all_params(model).items():
        arrays[f"param/{name}"] = p.value
        arrays[f"m1/{name}"] = p.moment1
        arrays[f"m2/{name}"] = p.moment2
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": model.kind,
        "arch": model.arch.to_dict(),
        "seed": seed,
        "epoch": epoch,
        "step": step,
        "adam_steps": adam_steps or {},
        "rng_state": _jsonable_rng_state(rng),
        "norm_meta": norm_meta,
        "train_cfg": train_cfg,
    }
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    with replaced_on_success(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **arrays)


def _optional_dict(v) -> bool:
    return v is None or isinstance(v, dict)


def _norm_meta_ok(v) -> bool:
    if v is None:
        return True
    if not (isinstance(v, dict) and isinstance(v.get("kind"), str)):
        return False
    lo, hi = v.get("norm_min"), v.get("norm_max")
    return _is_number(lo) and _is_number(hi) and -np.inf < lo < hi < np.inf


#: meta key -> (test of its JSON value, what the value must be)
_META_TYPES = {
    "seed": (is_count, "a non-negative integer"),
    "epoch": (is_count, "a non-negative integer"),
    "step": (is_count, "a non-negative integer"),
    "adam_steps": (
        lambda v: isinstance(v, dict) and all(map(is_count, v.values())),
        "an object of non-negative integers",
    ),
    "rng_state": (_optional_dict, "null or an object"),
    "norm_meta": (_norm_meta_ok, "null or an object with finite norm_min < norm_max and a string kind"),
    "train_cfg": (_optional_dict, "null or an object"),
}


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file; a missing, unreadable or foreign file, or
    metadata of the wrong type, raises DataError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            groups = {"param": {}, "m1": {}, "m2": {}}
            for key in data.files:
                prefix, _, name = key.partition("/")
                if prefix in groups:
                    groups[prefix][name] = data[key]
        if not isinstance(meta, dict) or meta.get("schema") != CHECKPOINT_SCHEMA:
            raise DataError(f"{path}: not a {CHECKPOINT_SCHEMA} file")
        if meta["kind"] not in _MODELS:
            raise DataError(f"{path}: unknown model kind {meta['kind']!r}")
        for key, (ok, what) in _META_TYPES.items():
            if not ok(meta[key]):
                raise DataError(f"{path}: meta {key} must be {what}, got {meta[key]!r}")
        if meta["rng_state"] is not None:
            rng_from_state(meta["rng_state"])
        return Checkpoint(
            kind=meta["kind"],
            arch=ArchConfig.from_dict(meta["arch"]),
            seed=meta["seed"],
            epoch=meta["epoch"],
            step=meta["step"],
            params=groups["param"],
            moments1=groups["m1"],
            moments2=groups["m2"],
            adam_steps=meta["adam_steps"],
            rng_state=meta["rng_state"],
            norm_meta=meta["norm_meta"],
            train_cfg=meta["train_cfg"],
        )
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}")
    except (OSError, EOFError, zipfile.BadZipFile, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: unreadable checkpoint ({exc})")


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild the model class and overwrite every Param from the checkpoint.

    Each value and both Adam moments must be float64 arrays of exactly the
    Param's shape; anything else raises DataError.
    """
    init_rng = np.random.default_rng(0)  # throwaway; values are overwritten
    model = _MODELS[ckpt.kind](ckpt.arch, init_rng)
    live = all_params(model)
    if set(live) != set(ckpt.params):
        missing = set(live) ^ set(ckpt.params)
        raise DataError(f"checkpoint/model param mismatch: {sorted(missing)}")
    slots = (("value", ckpt.params), ("moment1", ckpt.moments1), ("moment2", ckpt.moments2))
    for name, p in live.items():
        for slot, saved in slots:
            arr = saved.get(name)
            if arr is None or arr.dtype != np.float64 or arr.shape != p.value.shape:
                got = "nothing" if arr is None else f"{arr.dtype} {arr.shape}"
                raise DataError(f"checkpoint arrays do not fit the model: {name} {slot} is {got}, "
                                f"expected float64 {p.value.shape}")
            getattr(p, slot)[...] = arr
    return model


def _jsonable_rng_state(rng: np.random.Generator | None):
    if rng is None:
        return None
    state = rng.bit_generator.state
    return json.loads(json.dumps(state))


def rng_from_state(state: dict) -> np.random.Generator:
    """A Generator at a saved bit-generator state; a state numpy rejects
    raises DataError."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise DataError(f"checkpoint rng_state is unusable ({type(exc).__name__}: {exc})")
    return rng
