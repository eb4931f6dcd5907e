"""Smart-meter CSV ingestion: parse, resample, cleanse, normalize, window.

The pipeline turns a raw series of (timestamp, watts) readings into an
N x 96 matrix of complete daily profiles at 15-minute resolution, min-max
normalized over the whole matrix. Gaps are carried as NaN markers between
stages and are never serialized.
"""
from __future__ import annotations

import csv
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone, tzinfo
from pathlib import Path

import numpy as np

from .errors import DataError

SLOTS_PER_DAY = 96
SLOT_MINUTES = 24 * 60 // SLOTS_PER_DAY  # 15
ROUND_TRIP_TOL = 1e-12


@dataclass
class TimeSeries:
    """Uniform-grid power readings; NaN values mark gaps.

    timestamps are UTC epoch seconds, strictly increasing, with consecutive
    gaps an integer multiple of period_minutes.
    """

    timestamps: np.ndarray
    values: np.ndarray
    period_minutes: int

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise DataError("timestamps and values must be equal-length 1-D arrays")
        if self.period_minutes <= 0:
            raise DataError(f"period must be positive, got {self.period_minutes}")
        if len(self.timestamps) > 1:
            gaps = np.diff(self.timestamps)
            if np.any(gaps <= 0):
                raise DataError("timestamps must be strictly increasing")
            if np.any(gaps % (self.period_minutes * 60) != 0):
                raise DataError(
                    f"timestamp gaps must be multiples of {self.period_minutes} minutes"
                )

    def __len__(self):
        return len(self.timestamps)


@dataclass
class DayMatrix:
    """N daily profiles of 96 slots each, optionally min-max normalized.

    norm_min/norm_max are set only after normalize(); they are the global
    extrema of the raw training matrix, so denormalized synthetic data lives
    on the real data's watt scale.
    """

    values: np.ndarray
    kind: str = "load"
    norm_min: float | None = None
    norm_max: float | None = None
    dates: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != SLOTS_PER_DAY:
            raise DataError(f"day matrix must be N x {SLOTS_PER_DAY}, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("day matrix must be finite")
        if self.normalized:
            if not -math.inf < self.norm_min < self.norm_max < math.inf:
                raise DataError("norm_min and norm_max must be finite, with norm_max > norm_min")
            if self.values.size and (self.values.min() < -1e-12 or self.values.max() > 1 + 1e-12):
                raise DataError("normalized values must lie in [0, 1]")

    @property
    def normalized(self) -> bool:
        return self.norm_min is not None and self.norm_max is not None

    @property
    def n_days(self) -> int:
        return self.values.shape[0]

    @property
    def norm_meta(self) -> dict:
        """The normalization record that checkpoints and synthetic sidecars
        carry; a matrix that is not normalized raises DataError."""
        if not self.normalized:
            raise DataError("day matrix is not normalized (norm_min/norm_max missing)")
        return {"norm_min": self.norm_min, "norm_max": self.norm_max, "kind": self.kind}


def is_count(v) -> bool:
    """The integer rule every config shares: an int, not a bool, >= 0."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


@dataclass(frozen=True)
class IngestConfig:
    """How a raw CSV becomes a day matrix; each value is checked when built."""

    timestamp_column: str = "timestamp"
    value_column: str = "power_w"
    kind: str = "load"  # load | pv
    timezone: str = "UTC"  # see resolve_timezone
    source_period_minutes: int = 5
    day_completeness: float = 1.0

    def __post_init__(self):
        if self.kind not in ("load", "pv"):
            raise DataError(f"kind must be load|pv, got {self.kind!r}")
        resolve_timezone(self.timezone)
        check_completeness(self.day_completeness)
        period = self.source_period_minutes
        check_period(period)
        if not is_count(period):
            raise DataError(f"source_period_minutes must be an integer, got {period!r}")


def _parse_timestamp(text: str, line_no: int) -> int:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse timestamp {text!r} as ISO-8601")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_csv(
    path,
    value_column: str,
    timestamp_column: str = IngestConfig.timestamp_column,
    period_minutes: int = IngestConfig.source_period_minutes,
) -> TimeSeries:
    """Parse a RAPT-style CSV into a TimeSeries sorted by timestamp.

    Rows may arrive out of order; duplicates are rejected. Every non-blank
    row must have exactly as many fields as the header. Parse failures
    report the 1-based line number of the offending row; a file that is not
    UTF-8 text raises DataError too.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    stamps: list[int] = []
    vals: list[float] = []
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in header]
        for col in (timestamp_column, value_column):
            if col not in header:
                raise DataError(f"{path}: missing column {col!r} (have {header})")
        t_idx = header.index(timestamp_column)
        v_idx = header.index(value_column)
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"line {line_no}: expected {len(header)} columns, got {len(row)}")
            stamps.append(_parse_timestamp(row[t_idx], line_no))
            try:
                val = float(row[v_idx])
            except ValueError:
                raise DataError(f"line {line_no}: cannot parse value {row[v_idx]!r} as a number")
            if not math.isfinite(val):
                raise DataError(f"line {line_no}: non-finite value {row[v_idx]!r}")
            vals.append(val)
    if not stamps:
        raise DataError(f"{path}: no data rows")
    order = np.argsort(np.asarray(stamps), kind="stable")
    ts = np.asarray(stamps, dtype=np.int64)[order]
    vs = np.asarray(vals, dtype=np.float64)[order]
    dup = np.flatnonzero(np.diff(ts) == 0)
    if dup.size:
        when = datetime.fromtimestamp(int(ts[dup[0]]), tz=timezone.utc).isoformat()
        raise DataError(f"duplicate timestamp {when}")
    return TimeSeries(ts, vs, period_minutes)


def resample(series: TimeSeries) -> TimeSeries:
    """Mean-aggregate onto the SLOT_MINUTES grid; incomplete windows become NaN.

    The output grid is aligned to multiples of the slot period and is
    contiguous from the first to the last covered window, so gap windows are
    explicit NaN entries rather than missing rows. A window holding a NaN
    sample sums to NaN, so it stays a gap.
    """
    check_period(series.period_minutes)
    target_s = SLOT_MINUTES * 60
    per_window = SLOT_MINUTES // series.period_minutes
    if len(series) == 0:
        return TimeSeries(series.timestamps, series.values, SLOT_MINUTES)
    win = series.timestamps // target_s
    first, last = int(win[0]), int(win[-1])
    n_out = last - first + 1
    idx = win - first
    sums = np.bincount(idx, weights=series.values, minlength=n_out)
    counts = np.bincount(idx, minlength=n_out)
    out = np.where(counts == per_window, sums / per_window, np.nan)
    out_ts = (np.arange(first, last + 1, dtype=np.int64)) * target_s
    return TimeSeries(out_ts, out, SLOT_MINUTES)


def check_period(source_minutes: int) -> None:
    """The resampling rule: a source period is a positive divisor of the
    slot period, so every slot window holds a whole number of samples."""
    if source_minutes <= 0:
        raise DataError(f"source_period_minutes must be positive, got {source_minutes}")
    if SLOT_MINUTES % source_minutes != 0:
        raise DataError(
            f"source_period_minutes must divide {SLOT_MINUTES}: the {SLOT_MINUTES}-minute slot "
            f"is not a multiple of {source_minutes} min"
        )


def resolve_timezone(tz: str) -> tzinfo:
    """The tzinfo of a `timezone` setting: `UTC`, `Z` (any case) or empty is
    UTC; `[+-]HH:MM` is a fixed offset, under 24 h with minutes below 60;
    anything else must be an IANA zone name. Other values raise DataError."""
    if tz.upper() in ("UTC", "Z", ""):
        return timezone.utc
    fixed = re.fullmatch(r"([+-]?)(\d+):(\d+)", tz)
    if fixed:
        sign, hours, minutes = fixed.group(1), int(fixed.group(2)), int(fixed.group(3))
        if hours > 23 or minutes > 59:
            raise DataError(f"timezone offset {tz!r} must be under 24:00 with minutes below 60")
        offset = timedelta(hours=hours, minutes=minutes)
        return timezone(-offset if sign == "-" else offset)
    from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

    try:
        return ZoneInfo(tz)
    except (ZoneInfoNotFoundError, ValueError, OSError):
        raise DataError(f"unknown timezone {tz!r} (expected UTC, [+-]HH:MM or an IANA name)")


def clean_days(
    series: TimeSeries,
    tz: str = IngestConfig.timezone,
    completeness: float = IngestConfig.day_completeness,
    kind: str = IngestConfig.kind,
) -> DayMatrix:
    """Keep local calendar days whose 96 slots are all present and gap-free.

    Days are calendar days in `tz` (see resolve_timezone); a reading falls in
    the slot of its local wall time. A spring-forward day lacks the skipped
    slots, so it is incomplete. A fall-back day repeats local slots, each
    keeping its later reading, so it can be complete.

    completeness below 1.0 relaxes the rule: a day with at least that
    fraction of slots present is kept and its missing slots take the nearest
    present value within the day, the earlier one on a tie. The default
    keeps only complete days.
    """
    if series.period_minutes != SLOT_MINUTES:
        raise DataError(f"clean_days expects a {SLOT_MINUTES}-minute series")
    check_completeness(completeness)
    zone = resolve_timezone(tz)
    fixed = zone.utcoffset(None)
    if fixed is not None:
        offset = int(fixed.total_seconds())
    else:
        # the zone's offset changes (DST), so look it up for every stamp
        offset = np.array([
            int(datetime.fromtimestamp(t, zone).utcoffset().total_seconds())
            for t in series.timestamps.tolist()
        ], dtype=np.int64)
    # cell: local 15-minute slots since the epoch (day = cell // 96, slot =
    # cell % 96). In reversed time order np.unique's first index of a cell is
    # its later reading, the one a fall-back day's repeated hour keeps.
    local_cell = (series.timestamps + offset) // (SLOT_MINUTES * 60)
    cell, later = np.unique(local_cell[::-1], return_index=True)
    days, row = np.unique(cell // SLOTS_PER_DAY, return_inverse=True)
    grid = np.full((len(days), SLOTS_PER_DAY), np.nan)
    grid[row, cell % SLOTS_PER_DAY] = series.values[::-1][later]
    present = np.isfinite(grid)
    keep = present.sum(axis=1) >= math.ceil(completeness * SLOTS_PER_DAY)
    if not keep.any():
        raise DataError("no complete day after cleansing")
    values, present = grid[keep], present[keep]
    for r in np.flatnonzero(~present.all(axis=1)):
        have, miss = np.flatnonzero(present[r]), np.flatnonzero(~present[r])
        values[r, miss] = values[r, have[np.argmin(np.abs(miss[:, None] - have), axis=1)]]
    epoch = datetime(1970, 1, 1)
    dates = [(epoch + timedelta(days=int(d))).strftime("%Y-%m-%d") for d in days[keep]]
    return DayMatrix(values, kind=kind, dates=dates)


def check_completeness(completeness: float) -> None:
    """The `day_completeness` rule: a fraction in (0, 1]."""
    if not 0.0 < completeness <= 1.0:
        raise DataError(f"day_completeness must be in (0, 1], got {completeness}")


def normalize(matrix: DayMatrix) -> DayMatrix:
    """Min-max normalize to [0, 1] with extrema taken over the whole matrix."""
    if matrix.normalized:
        raise DataError("matrix is already normalized")
    lo = float(matrix.values.min())
    hi = float(matrix.values.max())
    if hi == lo:
        raise DataError("cannot normalize constant data (max == min)")
    scaled = (matrix.values - lo) / (hi - lo)
    return DayMatrix(scaled, kind=matrix.kind, norm_min=lo, norm_max=hi, dates=list(matrix.dates))


def denormalize(matrix: DayMatrix) -> np.ndarray:
    """Invert normalize(); returns the watt-valued array."""
    if not matrix.normalized:
        raise DataError("matrix has no normalization metadata")
    return denormalize_values(matrix.values, matrix.norm_min, matrix.norm_max)


def denormalize_values(values: np.ndarray, norm_min: float, norm_max: float) -> np.ndarray:
    if norm_min is None or norm_max is None:
        raise DataError("missing normalization metadata")
    return np.asarray(values, dtype=np.float64) * (norm_max - norm_min) + norm_min


_META_SUFFIX = ".meta"
_MATRIX_HEADER = [f"t{i:02d}" for i in range(SLOTS_PER_DAY)]
DAYMATRIX_SCHEMA = "gridsynth.daymatrix/1"
SYNTH_SCHEMA = "gridsynth.synth/1"


def write_matrix(csv_path, values, meta: dict) -> None:
    """Write one day per row under a t00..t95 header, plus a `key = value`
    sidecar with meta's items in order. Day matrices and synthetic batches
    share this format. Both files are replaced only once both are written."""
    lines = [",".join(_MATRIX_HEADER)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in values)
    sidecar = "".join(f"{key} = {val}\n" for key, val in meta.items())
    with (
        replaced_on_success(csv_path) as csv_tmp,
        replaced_on_success(str(csv_path) + _META_SUFFIX) as meta_tmp,
    ):
        csv_tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta_tmp.write_text(sidecar, encoding="utf-8")


def read_matrix(csv_path) -> tuple[np.ndarray, dict[str, str]]:
    """Read a write_matrix file back as (N x 96 array, sidecar dict).

    A wrong header, a ragged row, a non-numeric or non-finite cell, no data
    rows, text that is not UTF-8, a missing sidecar or one whose schema is
    neither DAYMATRIX_SCHEMA nor SYNTH_SCHEMA raise DataError.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise DataError(f"matrix file not found: {csv_path}")
    rows = []
    with _utf8_text(csv_path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _MATRIX_HEADER:
            raise DataError(f"{csv_path}: expected header t00..t95")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != SLOTS_PER_DAY:
                raise DataError(
                    f"{csv_path}: line {line_no}: expected {SLOTS_PER_DAY} cells, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DataError(f"{csv_path}: line {line_no}: non-numeric cell")
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError(f"{csv_path}: non-finite cell")
    meta = read_kv_file(str(csv_path) + _META_SUFFIX)
    if meta.get("schema") not in (DAYMATRIX_SCHEMA, SYNTH_SCHEMA):
        raise DataError(f"{csv_path}{_META_SUFFIX}: schema must be {DAYMATRIX_SCHEMA} or "
                        f"{SYNTH_SCHEMA}, got {meta.get('schema')!r}")
    return values, meta


def save_day_matrix(matrix: DayMatrix, csv_path) -> None:
    """Write the matrix plus a sidecar with its kind, normalization and dates."""
    meta = {"schema": DAYMATRIX_SCHEMA, "kind": matrix.kind, "n_days": matrix.n_days}
    if matrix.normalized:
        meta["norm_min"] = repr(matrix.norm_min)
        meta["norm_max"] = repr(matrix.norm_max)
    if matrix.dates:
        meta["dates"] = ",".join(matrix.dates)
    write_matrix(csv_path, matrix.values, meta)


def day_matrix_from(values: np.ndarray, meta: dict[str, str]) -> DayMatrix:
    """Rebuild a DayMatrix from read_matrix output."""
    try:
        norm_min, norm_max = (
            float(meta[key]) if key in meta else None for key in ("norm_min", "norm_max")
        )
    except ValueError:
        raise DataError("day matrix sidecar: norm_min/norm_max must be numbers")
    return DayMatrix(
        values,
        kind=meta.get("kind", "load"),
        norm_min=norm_min,
        norm_max=norm_max,
        dates=meta["dates"].split(",") if meta.get("dates") else [],
    )


def load_day_matrix(csv_path) -> DayMatrix:
    """Read a save_day_matrix file; any other schema raises DataError."""
    values, meta = read_matrix(csv_path)
    if meta["schema"] != DAYMATRIX_SCHEMA:
        raise DataError(f"{csv_path}: not a day matrix (schema {meta['schema']})")
    return day_matrix_from(values, meta)


@contextmanager
def replaced_on_success(path):
    """Yield a temp path beside `path` to write; os.replace it onto `path`
    when the block completes, delete it when the block raises.

    A crash mid-write therefore leaves the previous file intact instead of a
    truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _utf8_text(path):
    """Open path as UTF-8 text for reading (csv-module newline handling); a
    path that cannot be read (a directory, no permission), a decoding failure
    or a CSV syntax error anywhere inside the block becomes a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})")
    except csv.Error as exc:  # e.g. a stray quote opens a field past the size limit
        raise DataError(f"{path}: malformed CSV ({exc})")


def read_kv_file(path) -> dict[str, str]:
    """Parse a flat `key = value` text file, ignoring blanks and # comments."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"metadata file not found: {path}")
    out: dict[str, str] = {}
    with _utf8_text(path) as fh:
        text = fh.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: malformed line {raw!r} (expected key = value)")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def ingest(path, cfg: IngestConfig) -> DayMatrix:
    """Full raw-CSV -> normalized DayMatrix pipeline."""
    series = load_csv(path, cfg.value_column, cfg.timestamp_column, cfg.source_period_minutes)
    series = resample(series)
    days = clean_days(series, tz=cfg.timezone, completeness=cfg.day_completeness, kind=cfg.kind)
    return normalize(days)
