"""Independent brute-force reference implementations for tests.

Everything here is deliberately written as plain loops over the defining
formulas, sharing no code with gridsynth.metrics, so the two sides can
disagree when one of them is wrong. The autodiff reference reuses only the
ops' own _backward rules, not the engine's sweep; Sum is a scalar root that
tests put on top of the engine's ops.
"""
import itertools
import math
from datetime import datetime, timedelta

import numpy as np

from gridsynth import autodiff as ad


def kl_oracle(x, y, bins):
    """Histogram KL by explicit per-bin counting and summation."""
    x = list(np.asarray(x, dtype=float).ravel())
    y = list(np.asarray(y, dtype=float).ravel())
    lo = min(min(x), min(y))
    hi = max(max(x), max(y))
    if hi == lo:
        return 0.0

    def masses(samples):
        counts = [0] * bins
        for v in samples:
            b = int((v - lo) / (hi - lo) * bins)
            counts[min(b, bins - 1)] += 1
        return [c / len(samples) for c in counts]

    eps = 1e-10
    p = masses(x)
    q = masses(y)
    zp = sum(v + eps for v in p)
    zq = sum(v + eps for v in q)
    return sum(((pi + eps) / zp) * math.log(((pi + eps) / zp) / ((qi + eps) / zq))
               for pi, qi in zip(p, q))


def mmd_oracle(x, y, sigma):
    """Biased RBF MMD via the three explicit double loops."""

    def rows(samples):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return [arr[i] for i in range(arr.shape[0])]

    xs = rows(x)
    ys = rows(y)

    def k(a, b):
        return math.exp(-float(((a - b) ** 2).sum()) / (2.0 * sigma**2))

    n, m = len(xs), len(ys)
    xx = sum(k(a, b) for a in xs for b in xs) / n**2
    xy = sum(k(a, b) for a in xs for b in ys) / (n * m)
    yy = sum(k(a, b) for a in ys for b in ys) / m**2
    return math.sqrt(max(0.0, xx - 2.0 * xy + yy))


def _rows(samples):
    arr = np.asarray(samples, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


def median_sigma_tensor(x, y):
    """Median heuristic through the full (N, N, D) difference tensor and
    np.median over its upper triangle; 1.0 when every point coincides."""
    pooled = np.vstack([_rows(x), _rows(y)])
    diff = pooled[:, None, :] - pooled[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(len(pooled), k=1)
    med = float(np.median(d[iu])) if iu[0].size else 0.0
    return med if med > 0 else 1.0


def mmd_rbf_tensor(x, y, sigma):
    """Biased RBF MMD with each kernel mean over one full (N, M, D) tensor."""
    xs, ys = _rows(x), _rows(y)

    def kernel_mean(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return float(np.exp(-d2 / (2.0 * sigma**2)).mean())

    mmd2 = kernel_mean(xs, xs) - 2.0 * kernel_mean(xs, ys) + kernel_mean(ys, ys)
    return float(np.sqrt(max(0.0, mmd2)))


def mmd_rbf_blocked(x, y, sigma, block_values):
    """Biased RBF MMD in the plain blocked form: each row block of about
    block_values pairwise differences is one fresh (r, M, D) tensor, squared
    and summed over D, and the block's kernel values
    np.exp(-d2 / (2 sigma^2)) are summed at once; the block sums add up in
    row order."""
    xs, ys = _rows(x), _rows(y)

    def kernel_mean(a, b):
        rows = max(1, block_values // max(1, b.shape[0] * b.shape[1]))
        total = 0.0
        for lo in range(0, a.shape[0], rows):
            d2 = ((a[lo : lo + rows, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            total += np.exp(-d2 / (2.0 * sigma**2)).sum()
        return float(total / (a.shape[0] * b.shape[0]))

    mmd2 = kernel_mean(xs, xs) - 2.0 * kernel_mean(xs, ys) + kernel_mean(ys, ys)
    return float(np.sqrt(max(0.0, mmd2)))


def mode_collapsed_tensor(profiles, tol=1e-6):
    """All pairwise L2 distances below tol, over the full (N, N, 96) tensor."""
    p = np.asarray(profiles, dtype=float)
    if p.shape[0] < 2:
        return False
    sq = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    return bool(np.all(np.sqrt(sq[np.triu_indices(p.shape[0], k=1)]) < tol))


def wasserstein_matching_oracle(x, y):
    """Min over all bijective matchings of mean |x_i - y_pi(i)| (equal sizes)."""
    x = list(np.asarray(x, dtype=float).ravel())
    y = list(np.asarray(y, dtype=float).ravel())
    assert len(x) == len(y) <= 8
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        cost = sum(abs(x[i] - y[j]) for i, j in enumerate(perm)) / len(x)
        best = min(best, cost)
    return best


def wasserstein_quantile_oracle(x, y):
    """Integral of |F_x^-1(u) - F_y^-1(u)| over the common refinement of the
    u-grid; handles unequal sample sizes."""
    xs = sorted(np.asarray(x, dtype=float).ravel())
    ys = sorted(np.asarray(y, dtype=float).ravel())
    n, m = len(xs), len(ys)
    cuts = sorted(set([i / n for i in range(n + 1)] + [j / m for j in range(m + 1)]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = (a + b) / 2.0
        qx = xs[min(int(mid * n), n - 1)]
        qy = ys[min(int(mid * m), m - 1)]
        total += abs(qx - qy) * (b - a)
    return total


def load_shape_oracle(day, alpha_high=0.9, alpha_low=0.1):
    """Direct rule-by-rule evaluation of the five shape parameters."""
    day = [float(v) for v in np.asarray(day, dtype=float).ravel()]
    peak = float(np.percentile(day, 97.5))
    base = float(np.percentile(day, 2.5))
    if peak == base:
        return (base, peak, 0.0, 0.0, 0.0)
    th_high = base + alpha_high * (peak - base)
    th_low = base + alpha_low * (peak - base)
    high = [i for i, v in enumerate(day) if v >= th_high]
    duration = 0.25 * len(high)
    rise = 0.0
    fall = 0.0
    if high:
        first, last = high[0], high[-1]
        lows_before = [i for i in range(first) if day[i] <= th_low]
        if lows_before:
            rise = 0.25 * (first - lows_before[-1])
        lows_after = [i for i in range(last + 1, len(day)) if day[i] <= th_low]
        if lows_after:
            fall = 0.25 * (lows_after[0] - last)
    return (base, peak, duration, rise, fall)


def mean_std_oracle(values):
    """Two-pass mean and population standard deviation."""
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def trapezoid_day():
    """0 x32, ramp up 8 slots to 100, plateau 40 at 100, ramp down 8, zero 8."""
    up = [12.5 * (k + 1) for k in range(8)]
    down = [100.0 - 12.5 * (k + 1) for k in range(8)]
    return np.array([0.0] * 32 + up + [100.0] * 40 + down + [0.0] * 8)


def spike_day(slot=40):
    day = np.zeros(96)
    day[slot] = 100.0
    return day


class Sum(ad.Node):
    """The sum of every element of the input: a scalar root for any graph."""

    op = "sum"

    def _forward(self, x):
        return np.asarray(x.sum())

    def _backward(self, g, needs, x):
        return (np.broadcast_to(g, x.shape).copy(),)


def zero_fill_backward(root):
    """Gradient of a scalar root with respect to every Param below it, by the
    plain full sweep: a zero-filled accumulator for every node, every input
    gradient computed, and each term added in reversed post-order.

    Returns {param name: grad}; the graph's own .grad slots are not touched.
    """
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for inp in node.inputs:
            visit(inp)
        order.append(node)

    visit(root)
    acc = {id(node): np.zeros_like(node.value) for node in order}
    acc[id(root)] = np.ones_like(root.value)
    for node in reversed(order):
        if node.inputs:
            terms = node._backward(acc[id(node)], (True,) * len(node.inputs),
                                   *(inp.value for inp in node.inputs))
            for inp, g in zip(node.inputs, terms):
                acc[id(inp)] += g
    return {node.name: acc[id(node)] for node in order if node.op == "param"}


def causal_conv_padded(x, w, b, dilation):
    """Dilated causal conv through a zero-padded copy of x and a strided
    im2col window: (B, C_out, T) values and the (B, C_in*K, T) columns."""
    bsz, c_in, t = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) * dilation
    xpad = np.zeros((bsz, c_in, t + pad))
    xpad[:, :, pad:] = x
    s0, s1, s2 = xpad.strides
    win = np.lib.stride_tricks.as_strided(
        xpad, shape=(bsz, c_in, k, t), strides=(s0, s1, s2 * dilation, s2))
    cols = np.ascontiguousarray(win.reshape(bsz, c_in * k, t))
    return np.matmul(w.reshape(c_out, c_in * k), cols) + b[:, None], cols


def causal_conv_padded_input_grad(g, w, dilation):
    """Input gradient of causal_conv_padded: the column gradients added tap
    by tap, j = 0..K-1, into a zero-filled padded buffer."""
    bsz, _, t = g.shape
    c_out, c_in, k = w.shape
    pad = (k - 1) * dilation
    gcols = np.matmul(w.reshape(c_out, c_in * k).T, g).reshape(bsz, c_in, k, t)
    gxpad = np.zeros((bsz, c_in, t + pad))
    for j in range(k):
        gxpad[:, :, j * dilation : j * dilation + t] += gcols[:, :, j, :]
    return gxpad[:, :, pad:]


def resample_add_at(timestamps, values, source_minutes, target_minutes):
    """Window means by np.add.at over the non-NaN samples, plus a separate
    flag for windows holding a NaN sample; returns (window starts, means)
    with NaN for every window that is short or flagged."""
    target_s = target_minutes * 60
    per_window = target_s // (source_minutes * 60)
    win = np.asarray(timestamps, dtype=np.int64) // target_s
    values = np.asarray(values, dtype=np.float64)
    first, last = int(win[0]), int(win[-1])
    n_out = last - first + 1
    sums = np.zeros(n_out)
    counts = np.zeros(n_out, dtype=np.int64)
    bad = np.zeros(n_out, dtype=bool)
    idx = (win - first).astype(np.int64)
    nan_mask = np.isnan(values)
    bad[idx[nan_mask]] = True
    with np.errstate(invalid="ignore"):  # inf + -inf
        np.add.at(sums, idx[~nan_mask], values[~nan_mask])
    np.add.at(counts, idx[~nan_mask], 1)
    out = np.full(n_out, np.nan)
    full = (counts == per_window) & ~bad
    out[full] = sums[full] / per_window
    return np.arange(first, last + 1, dtype=np.int64) * target_s, out


def _fixed_offset_seconds(tz):
    if tz.upper() in ("UTC", "Z", ""):
        return 0
    sign = 1
    body = tz
    if tz.startswith(("+", "-")):
        sign = -1 if tz[0] == "-" else 1
        body = tz[1:]
    if ":" in body and all(part.isdigit() for part in body.split(":")):
        hh, mm = body.split(":")
        return sign * (int(hh) * 3600 + int(mm) * 60)
    return None


def _day_key_and_slot(ts, tz):
    """(local day key, slot) per stamp plus day labels: arithmetic for a
    fixed offset, one datetime conversion per stamp for an IANA zone."""
    offset = _fixed_offset_seconds(tz)
    if offset is not None:
        local = ts + offset
        day = local // 86400
        slot = (local % 86400) // 900
        labels = {
            int(d): (datetime(1970, 1, 1) + timedelta(days=int(d))).strftime("%Y-%m-%d")
            for d in np.unique(day)
        }
        return day, slot, labels
    from zoneinfo import ZoneInfo

    zone = ZoneInfo(tz)
    day = np.empty(len(ts), dtype=np.int64)
    slot = np.empty(len(ts), dtype=np.int64)
    labels = {}
    for i, t in enumerate(ts):
        dt = datetime.fromtimestamp(int(t), tz=zone)
        ordinal = dt.toordinal()
        day[i] = ordinal
        slot[i] = (dt.hour * 60 + dt.minute) // 15
        labels.setdefault(ordinal, dt.strftime("%Y-%m-%d"))
    return day, slot, labels


def clean_days_per_day(timestamps, values, tz, completeness):
    """Day cleansing with one mask over the whole 15-minute series per local
    day: (kept day rows, their date labels), or None when no day is kept."""
    ts = np.asarray(timestamps, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    day, slot, labels = _day_key_and_slot(ts, tz)
    rows, dates = [], []
    min_present = math.ceil(completeness * 96)
    for d in np.unique(day):
        mask = day == d
        profile = np.full(96, np.nan)
        profile[slot[mask]] = values[mask]
        present = np.flatnonzero(np.isfinite(profile))
        if present.size < min_present:
            continue
        if present.size < 96:
            missing = np.flatnonzero(~np.isfinite(profile))
            nearest = present[np.argmin(np.abs(missing[:, None] - present[None, :]), axis=1)]
            profile[missing] = profile[nearest]
        rows.append(profile)
        dates.append(labels[int(d)])
    return (np.vstack(rows), dates) if rows else None
