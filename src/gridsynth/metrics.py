"""Fidelity metrics between real and synthetic day profiles.

Three distribution distances (histogram KL divergence, RBF-kernel MMD,
exact 1-D Wasserstein) plus five per-day load-shape statistics aggregated
as mean / population std across days. Distances operate on watt-valued
data; the report records every knob so results stay reproducible.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .datapipe import is_count, replaced_on_success
from .errors import DataError

DEFAULT_BINS = 100
SMOOTHING_EPS = 1e-10
MAX_POOLED_MMD_SAMPLES = 4096  # per side, for mmd_on = "pooled"
PERCENTILE_HIGH = 97.5
PERCENTILE_LOW = 2.5
HOURS_PER_SLOT = 0.25
STAT_NAMES = ("base_load", "peak_load", "high_load_duration", "rise_time", "fall_time")


def shared_histograms(x, y, bins: int = DEFAULT_BINS):
    """Normalized histogram masses of x and y over shared bin edges.

    Edges span the union range of both sample sets; masses sum to 1.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size == 0 or y.size == 0:
        raise DataError("histogram inputs must be non-empty")
    if bins < 1:
        raise DataError(f"bins must be >= 1, got {bins}")
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    if hi == lo:
        # all mass in one degenerate bin for both sets
        edges = np.linspace(lo - 0.5, lo + 0.5, bins + 1)
    else:
        edges = np.linspace(lo, hi, bins + 1)
    p, _ = np.histogram(x, bins=edges)
    q, _ = np.histogram(y, bins=edges)
    return edges, p / x.size, q / y.size


def kl_from_masses(p, q) -> float:
    """Sum p_i * ln(p_i / q_i) after SMOOTHING_EPS-smoothing both mass vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DataError(f"mass vectors differ in shape: {p.shape} vs {q.shape}")
    ps = (p + SMOOTHING_EPS) / (p + SMOOTHING_EPS).sum()
    qs = (q + SMOOTHING_EPS) / (q + SMOOTHING_EPS).sum()
    return float(np.sum(ps * np.log(ps / qs)))


def kl_divergence(x, y, bins: int = DEFAULT_BINS) -> float:
    """Histogram KL divergence D(p_x || q_y) over shared bins, natural log."""
    _, p, q = shared_histograms(x, y, bins=bins)
    return kl_from_masses(p, q)


def median_heuristic_sigma(x, y, *, sq_dists_out: list | None = None) -> float:
    """Median pairwise Euclidean distance of the pooled sample (\"median
    heuristic\" bandwidth); falls back to 1.0 when every point coincides.

    Vectors go through their condensed squared-distance vector, built in
    row blocks; scalars through an exact order statistic of sorted gaps, in
    O(N) memory. Both equal np.median over the full distance matrix's upper
    triangle bit for bit. On the vector path, the condensed vector is
    appended to sq_dists_out if given, so that mmd_rbf can reuse it.
    """
    pooled = np.vstack([_as_2d(x), _as_2d(y)])
    if len(pooled) < 2:
        return 1.0
    if pooled.shape[1] == 1:
        med = _median_gap(np.sort(pooled[:, 0]))
    else:
        sq = np.concatenate(list(_upper_sq_dists(pooled)))
        if sq_dists_out is not None:
            sq_dists_out.append(sq)
        med = float(np.median(np.sqrt(sq)))
    return med if med > 0 else 1.0


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DataError(f"samples must be 1-D scalars or 2-D vectors, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("samples must be finite")
    return x


# Each row block of pairwise squared distances holds about this many float64
# values, which bounds the temporaries at about 16 MB for any N.
_BLOCK_VALUES = 1 << 21


def _block_rows(b) -> int:
    return max(1, _BLOCK_VALUES // max(1, b.shape[0] * b.shape[1]))


def _sq_dist_blocks(a, b, upper=False):
    """Yield d2 for consecutive row blocks a[lo:lo + r]: d2[k, j] is the
    squared Euclidean distance between a[lo + k] and b[j], or, with
    upper=True (b is a), b[lo + 1 + j], so that row k's pairs above the
    diagonal are d2[k, k:].

    The caller may overwrite each d2. Scalar blocks all live in one buffer,
    so each is valid only until the next one is yielded.
    """
    rows = _block_rows(b)
    scalar = b.shape[1] == 1
    if scalar:
        buf = np.empty(min(rows, a.shape[0]) * b.shape[0])
    for lo in range(0, a.shape[0], rows):
        blk = a[lo : lo + rows]
        cols = b[lo + 1 :] if upper else b
        if scalar:
            d2 = buf[: blk.shape[0] * cols.shape[0]].reshape(blk.shape[0], cols.shape[0])
            np.subtract.outer(blk[:, 0], cols[:, 0], out=d2)
            yield np.multiply(d2, d2, out=d2)
        else:
            yield ((blk[:, None, :] - cols[None, :, :]) ** 2).sum(axis=2)


def _shared_sq_dist_blocks(sq, n_pooled, a, b, a0, b0):
    """_sq_dist_blocks(a, b) for a and b stacked at rows a0 and b0 of a
    pooled sample of n_pooled rows, gathered from that sample's condensed
    squared distances sq (pairs i < j in np.triu_indices order) instead of
    recomputed. The blocks have the same shapes and the same bits."""
    cols = np.arange(b0, b0 + b.shape[0])
    rows = _block_rows(b)
    for lo in range(a0, a0 + a.shape[0], rows):
        i = np.arange(lo, min(lo + rows, a0 + a.shape[0]))[:, None]
        p, q = np.minimum(i, cols), np.maximum(i, cols)
        d2 = sq.take(p * (2 * n_pooled - p - 3) // 2 + q - 1)
        d2[p == q] = 0.0
        yield d2


def _upper_sq_dists(p):
    """Yield the squared distances of the pairs i < j of p's rows, in the
    row-major order of np.triu_indices(len(p), 1), one row block at a time."""
    for d2 in _sq_dist_blocks(p, p, upper=True):
        yield d2[np.arange(d2.shape[1]) >= np.arange(d2.shape[0])[:, None]]


def _median_gap(xs) -> float:
    """Median of sqrt(fl(d**2)), d = xs[j] - xs[i] over the pairs i < j of
    the sorted scalars xs, as np.median of those values would give it.

    Each order statistic is the smallest t with more than k gaps <= t, found
    by bisection over the bit patterns of nonnegative float64 values, which
    sort like the int64 values they spell.
    """
    pairs = xs.size * (xs.size - 1) // 2
    widest = int((xs[-1] - xs[0]).view(np.int64))
    lo, stats = 0, []
    for k in sorted({(pairs - 1) // 2, pairs // 2}):
        top = widest
        while lo < top:
            mid = (lo + top) // 2
            if _gaps_at_most(xs, np.int64(mid).view(np.float64)) > k:
                top = mid
            else:
                lo = mid + 1
        gap = np.int64(lo).view(np.float64)
        stats.append(np.sqrt(gap * gap))
    return float(np.median(stats))


def _gaps_at_most(xs, t) -> int:
    """Number of pairs i < j of the sorted scalars xs with fl(xs[j] - xs[i]) <= t."""
    i = np.arange(xs.size)
    # first j whose gap from xs[i] exceeds t: searchsorted on the rounded sum
    # xs[i] + t, then corrected against the exact gaps, a run of ties at a time
    end = np.maximum(np.searchsorted(xs, xs + t, "right"), i + 1)
    over = i
    while (over := over[xs[end[over] - 1] - xs[over] > t]).size:
        end[over] = np.searchsorted(xs, xs[end[over] - 1], "left")
    under = i[end < xs.size]
    while (under := under[xs[end[under]] - xs[under] <= t]).size:
        end[under] = np.searchsorted(xs, xs[end[under]], "right")
        under = under[end[under] < xs.size]
    return int((end - i - 1).sum())


def mmd_rbf(x, y, sigma: float, *, sq_dists=None) -> float:
    """Biased (V-statistic) RBF-kernel maximum mean discrepancy.

    All three double sums keep their diagonal terms; returns
    sqrt(max(0, MMD^2)) with kernel exp(-||a-b||^2 / (2 sigma^2)).
    Vectors read their distances from the condensed squared-distance vector
    of np.vstack([x, y]): sq_dists, the one median_heuristic_sigma built,
    if given, else one built here.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise DataError(f"sigma must be a finite positive number, got {sigma}")
    xs, ys = _as_2d(x), _as_2d(y)
    if xs.shape[0] == 0 or ys.shape[0] == 0:
        raise DataError("mmd inputs must be non-empty")
    if xs.shape[1] != ys.shape[1]:
        raise DataError(f"sample dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    n, m = xs.shape[0], ys.shape[0]
    if xs.shape[1] > 1 and sq_dists is None:
        sq_dists = np.concatenate(list(_upper_sq_dists(np.vstack([xs, ys]))))
    scale = -(2.0 * sigma**2)

    def kernel_mean(a, b, a0, b0):
        if a.shape[1] == 1:
            blocks = _sq_dist_blocks(a, b)
        else:
            blocks = _shared_sq_dist_blocks(sq_dists, n + m, a, b, a0, b0)
        total = 0.0
        for d2 in blocks:
            np.divide(d2, scale, out=d2)
            total += np.exp(d2, out=d2).sum()
        return float(total / (a.shape[0] * b.shape[0]))

    mmd2 = kernel_mean(xs, xs, 0, 0) - 2.0 * kernel_mean(xs, ys, 0, n) + kernel_mean(ys, ys, n, n)
    return float(np.sqrt(max(0.0, mmd2)))


def wasserstein1(x, y) -> float:
    """Exact 1-D Wasserstein-1 distance between empirical distributions.

    Integrates |F_x - F_y| over the merged support, which equals the
    quantile-function integral and, for equal-size sets, the optimal
    sorted matching cost / n.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size == 0 or y.size == 0:
        raise DataError("wasserstein inputs must be non-empty")
    xs = np.sort(x)
    ys = np.sort(y)
    grid = np.sort(np.concatenate([xs, ys]))
    deltas = np.diff(grid)
    cdf_x = np.searchsorted(xs, grid[:-1], side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid[:-1], side="right") / ys.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * deltas))


@dataclass(frozen=True)
class DayShape:
    """Five load-shape parameters of a single day (durations in hours)."""

    base_load: float
    peak_load: float
    high_load_duration: float
    rise_time: float
    fall_time: float

    def as_tuple(self):
        return (self.base_load, self.peak_load, self.high_load_duration,
                self.rise_time, self.fall_time)


def load_shape(day, alpha_high: float = 0.9, alpha_low: float = 0.1) -> DayShape:
    """Compute the five shape parameters of one 15-minute day profile.

    peak/base are the 97.5th / 2.5th percentiles (linear interpolation).
    The high band starts at base + alpha_high * (peak - base), the low band
    ends at base + alpha_low * (peak - base). Rise time runs from the last
    low-band sample to the first high-band sample, fall time symmetrically
    after the last high-band sample; both are 0 when either end is missing.
    A flat day (peak == base) has all durations 0 by convention.
    """
    day = np.asarray(day, dtype=np.float64).ravel()
    _check_days(day, alpha_high, alpha_low)
    peak = float(np.percentile(day, PERCENTILE_HIGH))
    base = float(np.percentile(day, PERCENTILE_LOW))
    return _day_shape(day, peak, base, alpha_high, alpha_low)


def _check_days(days, alpha_high: float, alpha_low: float) -> None:
    if days.shape[-1] == 0 or not np.all(np.isfinite(days)):
        raise DataError("day profile must be non-empty and finite")
    check_alphas(alpha_high, alpha_low)


def check_alphas(alpha_high: float, alpha_low: float) -> None:
    """The load-shape band rule: 0 < alpha_low < alpha_high <= 1."""
    if not 0.0 < alpha_low < alpha_high <= 1.0:
        raise DataError(f"need 0 < alpha_low < alpha_high <= 1, got alpha_low = {alpha_low}, "
                        f"alpha_high = {alpha_high}")


def _day_shape(day, peak: float, base: float, alpha_high: float, alpha_low: float) -> DayShape:
    """load_shape of a checked day whose peak and base are already known."""
    if peak == base:
        return DayShape(base, peak, 0.0, 0.0, 0.0)
    th_high = base + alpha_high * (peak - base)
    th_low = base + alpha_low * (peak - base)
    high_idx = np.flatnonzero(day >= th_high)
    low_mask = day <= th_low
    duration = high_idx.size * HOURS_PER_SLOT
    rise = 0.0
    fall = 0.0
    if high_idx.size:
        first_high = high_idx[0]
        last_high = high_idx[-1]
        before = np.flatnonzero(low_mask[:first_high])
        if before.size:
            rise = float(first_high - before[-1]) * HOURS_PER_SLOT
        after = np.flatnonzero(low_mask[last_high + 1 :])
        if after.size:
            fall = float(after[0] + 1) * HOURS_PER_SLOT
    return DayShape(base, peak, float(duration), rise, fall)


def aggregate_stats(days, alpha_high: float = 0.9, alpha_low: float = 0.1) -> dict:
    """Mean and population std of each shape parameter across days."""
    days = np.asarray(days, dtype=np.float64)
    if days.ndim != 2 or days.shape[0] == 0:
        raise DataError("need a non-empty N x T day matrix")
    _check_days(days, alpha_high, alpha_low)
    peaks, bases = np.percentile(days, [PERCENTILE_HIGH, PERCENTILE_LOW], axis=1)
    tuples = np.array([
        _day_shape(day, float(peak), float(base), alpha_high, alpha_low).as_tuple()
        for day, peak, base in zip(days, peaks, bases)
    ])
    return {
        name: {"mean": float(tuples[:, i].mean()), "std": float(tuples[:, i].std())}
        for i, name in enumerate(STAT_NAMES)
    }


@dataclass(frozen=True)
class MetricsConfig:
    """Scoring settings; each value is checked when the config is built."""

    bins: int = DEFAULT_BINS
    sigma: str | float = "median"  # "median" or a finite positive bandwidth
    mmd_on: str = "days"  # "days" (96-dim vectors) or "pooled" (scalars)
    alpha_high: float = 0.9
    alpha_low: float = 0.1

    def __post_init__(self):
        if not (is_count(self.bins) and self.bins >= 1):
            raise DataError(f"bins must be an integer >= 1, got {self.bins!r}")
        if isinstance(self.sigma, str):
            if self.sigma != "median":
                raise DataError(f"sigma must be 'median' or a finite positive number, "
                                f"got {self.sigma!r}")
        elif not (np.isfinite(self.sigma) and self.sigma > 0):
            raise DataError(f"sigma must be a finite positive number, got {self.sigma}")
        if self.mmd_on not in ("days", "pooled"):
            raise DataError(f"mmd_on must be days|pooled, got {self.mmd_on!r}")
        check_alphas(self.alpha_high, self.alpha_low)


# MetricsReport field annotation -> the JSON values load() accepts for it
_REPORT_TYPES = {"float": (int, float), "dict": dict, "str": str}


@dataclass
class MetricsReport:
    """Full real-vs-synthetic comparison, serializable as deterministic JSON."""

    kl: float
    wasserstein: float
    mmd: float
    real_stats: dict
    synth_stats: dict
    config: dict
    kind: str = "load"
    model: str = ""
    units: str = "watts"
    schema: str = "gridsynth.metrics/1"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with replaced_on_success(path) as tmp:
            tmp.write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "MetricsReport":
        """Read a save() file. A missing, unreadable, truncated or foreign
        file, an unknown or missing key, or a value of the wrong JSON type
        raises DataError."""
        path = Path(path)
        if not path.exists():
            raise DataError(f"report not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: unreadable report ({exc})")
        if not isinstance(raw, dict) or raw.get("schema") != cls.schema:
            raise DataError(f"{path}: not a {cls.schema} file")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise DataError(f"{path}: unknown keys {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in raw and f.default is MISSING:
                raise DataError(f"{path}: missing key {f.name!r}")
            val = raw.get(f.name, f.default)
            if isinstance(val, bool) or not isinstance(val, _REPORT_TYPES[f.type]):
                raise DataError(f"{path}: {f.name} must be a JSON {f.type}, got {val!r}")
        return cls(**raw)


def full_report(
    real_watts,
    synth_watts,
    cfg: MetricsConfig | None = None,
    kind: str = "load",
    model: str = "",
) -> MetricsReport:
    """All three distances plus both stats tables, on watt-valued matrices.

    KL and Wasserstein pool every reading into one scalar sample per point;
    MMD defaults to whole-day vectors to keep temporal structure visible.
    """
    cfg = cfg or MetricsConfig()
    real = np.asarray(real_watts, dtype=np.float64)
    synth = np.asarray(synth_watts, dtype=np.float64)
    if real.ndim != 2 or synth.ndim != 2:
        raise DataError("full_report expects N x T day matrices")
    pooled_real = real.ravel()
    pooled_synth = synth.ravel()

    kl = kl_divergence(pooled_real, pooled_synth, bins=cfg.bins)
    w1 = wasserstein1(pooled_real, pooled_synth)

    if cfg.mmd_on == "days":
        mx, my = real, synth
    else:
        mx = _cap_samples(pooled_real, MAX_POOLED_MMD_SAMPLES)
        my = _cap_samples(pooled_synth, MAX_POOLED_MMD_SAMPLES)
    shared = []  # days mode: the bandwidth's pairwise distances serve MMD too
    if isinstance(cfg.sigma, str):
        sigma = median_heuristic_sigma(mx, my, sq_dists_out=shared)
        sigma_mode = "median"
    else:
        sigma = float(cfg.sigma)
        sigma_mode = "fixed"
    mmd = mmd_rbf(mx, my, sigma, sq_dists=shared[0] if shared else None)

    return MetricsReport(
        kl=kl,
        wasserstein=w1,
        mmd=mmd,
        real_stats=aggregate_stats(real, cfg.alpha_high, cfg.alpha_low),
        synth_stats=aggregate_stats(synth, cfg.alpha_high, cfg.alpha_low),
        config={
            "bins": cfg.bins,
            "smoothing_eps": SMOOTHING_EPS,
            "sigma_mode": sigma_mode,
            "sigma": sigma,
            "mmd_on": cfg.mmd_on,
            "alpha_high": cfg.alpha_high,
            "alpha_low": cfg.alpha_low,
            "percentile_high": PERCENTILE_HIGH,
            "percentile_low": PERCENTILE_LOW,
            "n_real_days": int(real.shape[0]),
            "n_synth_days": int(synth.shape[0]),
        },
        kind=kind,
        model=model,
    )


def _cap_samples(pooled: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic evenly-spaced subsample to keep pooled MMD tractable."""
    if pooled.size <= cap:
        return pooled
    idx = np.linspace(0, pooled.size - 1, cap).round().astype(int)
    return pooled[idx]


def dump_histograms(real_pooled, synth_pooled, path, bins: int = DEFAULT_BINS) -> None:
    """Write the shared-bin marginal histograms as CSV for external plotting."""
    edges, p, q = shared_histograms(real_pooled, synth_pooled, bins=bins)
    lines = ["bin_left,bin_right,real_mass,synth_mass"]
    for i in range(len(p)):
        cells = (edges[i], edges[i + 1], p[i], q[i])
        lines.append(",".join(repr(float(c)) for c in cells))
    with replaced_on_success(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
