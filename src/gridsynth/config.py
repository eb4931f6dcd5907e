"""Run configuration: flat key-value config files, flag overrides, run dirs.

A run is identified by the hash of its effective configuration (excluding
the output directory), so artifacts always re-associate with the exact
settings that produced them.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DataError, UsageError
from .datapipe import IngestConfig, read_kv_file, replaced_on_success
from .nets import ArchConfig
from .trainer import TrainConfig
from .metrics import MetricsConfig


@dataclass
class RunConfig:
    """Every knob of the pipeline as the flat file spells it; all fields
    default except input_path. A key that IngestConfig, ArchConfig,
    TrainConfig or MetricsConfig shares takes its default and rule from it."""

    # data
    input_path: str = ""
    timestamp_column: str = IngestConfig.timestamp_column
    value_column: str = IngestConfig.value_column
    kind: str = IngestConfig.kind
    timezone: str = IngestConfig.timezone
    source_period_minutes: int = IngestConfig.source_period_minutes
    day_completeness: float = IngestConfig.day_completeness
    # model
    model: str = "vaegan"  # vaegan | gan
    latent_dim: int = ArchConfig.latent_dim
    channels: int = ArchConfig.channels
    kernel_size: int = ArchConfig.kernel_size
    dilations: str = ",".join(map(str, ArchConfig.dilations))
    leaky_slope: float = ArchConfig.leaky_slope
    # training
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr_g: float = TrainConfig.lr_g
    lr_d: float = TrainConfig.lr_d
    adam_beta1: float = TrainConfig.adam_beta1
    adam_beta2: float = TrainConfig.adam_beta2
    adam_eps: float = TrainConfig.adam_eps
    d_steps_per_g_step: int = TrainConfig.d_steps_per_g_step
    checkpoint_every: int = TrainConfig.checkpoint_every
    fake_source: str = TrainConfig.fake_source
    seed: int = TrainConfig.seed
    # generation + metrics
    n_synthetic: int = 512
    bins: int = MetricsConfig.bins
    sigma: str = MetricsConfig.sigma
    mmd_on: str = MetricsConfig.mmd_on
    alpha_high: float = MetricsConfig.alpha_high
    alpha_low: float = MetricsConfig.alpha_low
    # output
    out_dir: str = "runs"

    def _derive(self, cls, **parsed):
        """cls built from the fields it shares by name with RunConfig; a
        value that breaks one of its rules is a usage error."""
        shared = {
            f.name: getattr(self, f.name) for f in fields(cls) if f.name in self.__dataclass_fields__
        }
        try:
            return cls(**{**shared, **parsed})
        except (ValueError, DataError) as exc:
            raise UsageError(str(exc))

    def ingest_config(self) -> IngestConfig:
        return self._derive(IngestConfig)

    def arch_config(self) -> ArchConfig:
        try:
            dilations = tuple(int(d) for d in self.dilations.split(","))
        except ValueError:
            raise UsageError(f"dilations must be comma-separated integers, got {self.dilations!r}")
        return self._derive(ArchConfig, dilations=dilations)

    def train_config(self) -> TrainConfig:
        return self._derive(TrainConfig)

    def metrics_config(self) -> MetricsConfig:
        try:
            sigma: str | float = float(self.sigma)
        except ValueError:
            sigma = self.sigma  # "median", or text that MetricsConfig rejects
        return self._derive(MetricsConfig, sigma=sigma)

    def validate(self) -> None:
        if self.model not in ("vaegan", "gan"):
            raise UsageError(f"model must be vaegan|gan, got {self.model!r}")
        if self.n_synthetic < 1:
            raise UsageError(f"n_synthetic must be >= 1, got {self.n_synthetic}")
        self.ingest_config()
        self.arch_config()
        self.train_config()
        self.metrics_config()


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        return raw
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {raw!r} as {typ}")


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build the effective config: defaults <- config file <- flag overrides."""
    values: dict = {}
    if path is not None:
        for key, raw in read_kv_file(path).items():
            if key not in _FIELD_TYPES:
                raise UsageError(f"unknown config key {key!r} in {path}")
            values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = _coerce(key, str(val))
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def config_lines(cfg: RunConfig) -> list[str]:
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]


# fields that do not influence ingested data or trained weights; changing
# them must not re-key the run directory (reports echo them instead)
_HASH_EXEMPT = ("out_dir", "n_synthetic", *(f.name for f in fields(MetricsConfig)))


def config_hash(cfg: RunConfig) -> str:
    """12-hex digest of the data/model/training part of the config."""
    payload = "\n".join(ln for ln in config_lines(cfg) if ln.split(" = ")[0] not in _HASH_EXEMPT)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def run_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir) / config_hash(cfg)


def write_effective_config(cfg: RunConfig, path) -> None:
    with replaced_on_success(path) as tmp:
        tmp.write_text("\n".join(config_lines(cfg)) + "\n", encoding="utf-8")


def describe_defaults() -> str:
    """One line per config key with its default, for --help epilogs."""
    defaults = RunConfig()
    lines = ["config keys (key = default):"]
    lines += [f"  {f.name} = {getattr(defaults, f.name)!r}" for f in fields(RunConfig)]
    return "\n".join(lines)
