"""Synthetic sinusoid day profiles for experiments and sanity training runs.

Each day is a 96-point sine with per-day amplitude, phase and offset jitter
plus Gaussian noise, on a realistic watt scale. The resulting distribution
has enough spread that a collapsing generator is clearly distinguishable
from one that matched it.
"""
from __future__ import annotations

import numpy as np

from .datapipe import SLOTS_PER_DAY, DayMatrix, normalize

BASE_WATTS = 150.0
AMPLITUDE_LOW = 400.0  # watts, light days
AMPLITUDE_HIGH = 900.0  # watts, heavy days
NOISE_WATTS = 12.0
PHASE_JITTER = 0.02  # std of the peak phase, in days


def sinusoid_days(n_days: int = 200, seed: int = 0) -> DayMatrix:
    """Raw (watt-valued) sinusoid day matrix; normalize() it before training.

    Days split into two phase modes (morning-peaked vs evening-peaked) and
    two well-separated amplitude clusters (light vs heavy consumption days),
    each with small jitter; the low base line means the sine's trough clips
    at zero like real nighttime load. The per-slot mean profile explains
    little of the variance, and a generator that drops one of the four modes
    misses a visible chunk of the pooled value distribution, not just
    temporal structure.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(SLOTS_PER_DAY) / SLOTS_PER_DAY
    cluster = rng.integers(0, 2, size=(n_days, 1))
    amp = np.where(cluster == 0, AMPLITUDE_LOW, AMPLITUDE_HIGH)
    amp = amp * (1.0 + 0.03 * rng.standard_normal((n_days, 1)))
    mode = rng.integers(0, 2, size=(n_days, 1))
    phase = np.where(mode == 0, 0.25, 0.75) + PHASE_JITTER * rng.standard_normal((n_days, 1))
    offset = BASE_WATTS * rng.uniform(0.95, 1.05, size=(n_days, 1))
    days = offset + amp * np.sin(2.0 * np.pi * (t[None, :] - phase))
    days += NOISE_WATTS * rng.standard_normal((n_days, SLOTS_PER_DAY))
    days = np.maximum(days, 0.0)
    dates = [f"toy-{i:04d}" for i in range(n_days)]
    return DayMatrix(days, kind="load", dates=dates)


def sinusoid_day_matrix(n_days: int = 200, seed: int = 0) -> DayMatrix:
    """Normalized sinusoid dataset ready for the trainer."""
    return normalize(sinusoid_days(n_days=n_days, seed=seed))
