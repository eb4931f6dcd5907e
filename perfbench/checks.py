"""Output checks of a workload run, against oracles independent of gridsynth.

Every check reads the artifacts a repetition wrote (report.json,
histogram.csv, the day-matrix and synthetic CSVs with their sidecars, the
checkpoints) with numpy and scipy only, and runs outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.stats import entropy, wasserstein_distance

RTOL = 1e-9
MAX_POOLED_MMD_SAMPLES = 4096  # metrics.MetricsConfig default, restated as the spec


class CheckList:
    """Named pass/fail results; a check that raises counts as failed."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken artifact fails its check, not the run
            ok, detail = False, f"raised {exc!r}"
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def read_meta(path: Path) -> dict:
    out = {}
    for line in Path(str(path) + ".meta").read_text(encoding="utf-8").splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def real_watts(daymatrix_csv: Path) -> np.ndarray:
    meta = read_meta(daymatrix_csv)
    lo, hi = float(meta["norm_min"]), float(meta["norm_max"])
    return read_matrix(daymatrix_csv) * (hi - lo) + lo


def _cap(pooled: np.ndarray, cap: int) -> np.ndarray:
    """Evenly spaced subsample, rounded indices (the documented pooled-MMD rule)."""
    if pooled.size <= cap:
        return pooled
    return pooled[np.linspace(0, pooled.size - 1, cap).round().astype(int)]


def check_report(checks: CheckList, label: str, real: np.ndarray, synth_csv: Path,
                 report_json: Path, histogram_csv: Path) -> None:
    """KL, Wasserstein-1, MMD, sigma and the histogram against scipy oracles."""
    rep = json.loads(report_json.read_text(encoding="utf-8"))
    cfg = rep["config"]
    synth = read_matrix(synth_csv)
    x, y = real.ravel(), synth.ravel()
    smeta = read_meta(synth_csv)
    lo, hi = float(smeta["norm_min"]), float(smeta["norm_max"])
    tol = 1e-9 * (hi - lo)

    checks.check(f"{label}: synthetic watts within [norm_min, norm_max]", lambda: (
        synth.min() >= lo - tol and synth.max() <= hi + tol,
        f"range [{float(synth.min())!r}, {float(synth.max())!r}] vs [{lo!r}, {hi!r}]"))
    checks.check(f"{label}: day counts echoed", lambda: (
        cfg["n_real_days"] == real.shape[0] and cfg["n_synth_days"] == synth.shape[0],
        f"{cfg['n_real_days']}/{cfg['n_synth_days']} vs {real.shape[0]}/{synth.shape[0]}"))

    def wasserstein():
        want = float(wasserstein_distance(x, y))
        return _close(rep["wasserstein"], want), f"{rep['wasserstein']!r} vs scipy {want!r}"

    edges = np.linspace(min(x.min(), y.min()), max(x.max(), y.max()), cfg["bins"] + 1)
    p = np.histogram(x, bins=edges)[0] / x.size
    q = np.histogram(y, bins=edges)[0] / y.size

    def kl():
        eps = cfg["smoothing_eps"]
        want = float(entropy((p + eps) / (p + eps).sum(), (q + eps) / (q + eps).sum()))
        return _close(rep["kl"], want), f"{rep['kl']!r} vs scipy {want!r}"

    def histogram():
        got = np.loadtxt(histogram_csv, delimiter=",", skiprows=1, ndmin=2)
        ok = (np.allclose(got[:, 0], edges[:-1], rtol=RTOL, atol=0)
              and np.allclose(got[:, 2], p, rtol=RTOL, atol=1e-15)
              and np.allclose(got[:, 3], q, rtol=RTOL, atol=1e-15))
        return ok, f"{got.shape[0]} bins"

    if cfg["mmd_on"] == "days":
        mx, my = real, synth
    else:
        mx = _cap(x, MAX_POOLED_MMD_SAMPLES)[:, None]
        my = _cap(y, MAX_POOLED_MMD_SAMPLES)[:, None]
    sigma = cfg["sigma"]

    def sigma_median():
        med = float(np.median(pdist(np.vstack([mx, my]))))
        return _close(sigma, med if med > 0 else 1.0), f"{sigma!r} vs pdist median {med!r}"

    def mmd():
        def kmean(a, b):
            return float(np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * sigma**2)).mean())
        want = math.sqrt(max(0.0, kmean(mx, mx) - 2.0 * kmean(mx, my) + kmean(my, my)))
        return _close(rep["mmd"], want), f"{rep['mmd']!r} vs cdist V-statistic {want!r}"

    checks.check(f"{label}: wasserstein matches scipy.stats.wasserstein_distance", wasserstein)
    checks.check(f"{label}: kl matches scipy.stats.entropy on shared-bin masses", kl)
    checks.check(f"{label}: histogram.csv holds the shared-bin masses", histogram)
    if cfg["sigma_mode"] == "median":
        checks.check(f"{label}: sigma is the median pairwise distance", sigma_median)
    checks.check(f"{label}: mmd matches a cdist V-statistic ({cfg['mmd_on']})", mmd)


def checkpoint_digest(path: Path) -> str:
    """sha256 over every parameter tensor of a checkpoint (name, dtype, shape, bytes)."""
    h = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for key in sorted(k for k in data.files if k.startswith("param/")):
            arr = np.ascontiguousarray(data[key])
            h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(arr.tobytes())
    return h.hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def rep_digests(run_dirs: dict, report_models) -> dict[str, str]:
    """Checkpoint-parameter digest per model and report.json digest per evaluated model."""
    out = {f"{m}.checkpoint": checkpoint_digest(d / "checkpoint.npz") for m, d in run_dirs.items()}
    out.update({f"{m}.report_json": file_digest(run_dirs[m] / "report.json")
                for m in report_models})
    return out
