"""Draw synthetic day profiles from a trained generator and export them."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nets
from .datapipe import SYNTH_SCHEMA, denormalize_values, read_matrix, write_matrix
from .errors import DataError
from .metrics import _upper_sq_dists


@dataclass
class SynthBatch:
    """Generated profiles in both normalized and watt units, plus provenance."""

    profiles: np.ndarray  # (N, 96) in [0, 1]
    denorm: np.ndarray  # (N, 96) in watts
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.profiles.shape[0]


def sample(model, n: int, seed: int, norm_meta: dict, checkpoint_id: str = "") -> SynthBatch:
    """Decode n i.i.d. prior draws z ~ N(0,1)^L into day profiles.

    Outputs are clamped to [0, 1] before denormalization (the generator's
    output activation already bounds them; the clamp is a safety net).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if not norm_meta or norm_meta.get("norm_min") is None or norm_meta.get("norm_max") is None:
        raise DataError("missing normalization metadata; cannot express samples in watts")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, model.arch.latent_dim))
    profiles = np.clip(nets.generate(model, z), 0.0, 1.0)
    denorm = denormalize_values(profiles, float(norm_meta["norm_min"]), float(norm_meta["norm_max"]))
    provenance = {
        "checkpoint_id": checkpoint_id,
        "seed": seed,
        "latent_draws": n,
        "kind": norm_meta.get("kind", "load"),
        "norm_min": float(norm_meta["norm_min"]),
        "norm_max": float(norm_meta["norm_max"]),
    }
    return SynthBatch(profiles=profiles, denorm=denorm, provenance=provenance)


def is_mode_collapsed(profiles, tol: float = 1e-6) -> bool:
    """True when every pairwise L2 distance is below tol (all outputs equal)."""
    p = np.asarray(profiles, dtype=np.float64)
    if p.shape[0] < 2:
        return False
    return all(np.all(np.sqrt(sq) < tol) for sq in _upper_sq_dists(p))


def export(batch: SynthBatch, csv_path) -> None:
    """Write watts CSV (header t00..t95, one day per row) plus sidecar."""
    provenance = {key: batch.provenance[key] for key in sorted(batch.provenance)}
    write_matrix(csv_path, batch.denorm, {"schema": SYNTH_SCHEMA, **provenance})


def load_exported(csv_path) -> tuple[np.ndarray, dict]:
    """Read back an exported batch: (watts matrix, provenance dict)."""
    return read_matrix(csv_path)
