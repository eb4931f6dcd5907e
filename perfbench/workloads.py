"""Seeded inputs and one timed repetition of each benchmark workload.

The package under test receives only generated arrays or CSV files. Every
repetition writes into a fresh output directory, because `mmd_on` (and the
other report-only keys) are exempt from the run-directory hash.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import gc
import io
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gridsynth import cli, datapipe, metrics, nets, synth, toydata, trainer
from gridsynth import config as cfgmod

# Offset between the year-days and year-local-pooled input seeds, so the two
# workloads of one --seed see two different seeded years.
SECOND_YEAR_SEED_OFFSET = 10_000

# Per-workload sizes: "full" is the benchmark, "tiny" the self-test smoke.
SIZES = {
    "full": {
        # toy-train: the acceptance setup through the library (200 sinusoid
        # days, latent_dim=channels=16, B=32). Training is ~97 % of the
        # acceptance suite's wall time, so the step times here show
        # autodiff/trainer/nets kernel and loop changes and predict that
        # runtime. The GAN has no E phase, so a change specific to the
        # VAE-GAN should leave gan_step_ms unchanged. Metrics do little work.
        # A repetition trains only 1 + 2 epochs (about half its wall time),
        # so that the sub-second stages between trainings are sampled ~12
        # times, spread over a 30 s run.
        "toy-train": dict(days=200, vaegan_epochs=1, gan_epochs=2, n_synth=256,
                          ingest_repeats=2, generate_repeats=3, evaluate_repeats=1),
        # year-days: the realistic end-to-end CLI run on one year of 5-minute
        # readings in UTC: fixed-offset datapipe path, day-matrix and synthetic
        # CSV I/O, batch-512 inference and days-mode MMD (~1.1 GB). Training
        # runs at the CLI default width (C=L=32), twice the toy width, so
        # kernel changes that scale with C show differently than on toy-train.
        "year-days": dict(days=365, timezone="UTC", mmd_on="days", epochs=1,
                          n_synth=512, ingest_repeats=3, generate_repeats=4,
                          evaluate_repeats=1),
        # year-local-pooled: the same modules used differently. Europe/Berlin
        # takes the per-timestamp IANA path of the day split (DST days drop
        # out), and pooled MMD takes the 1-D path with the 4096-sample cap,
        # 8192^2 pairs (~2.1 GB). Evaluate is its largest share, so a metrics
        # change that helps year-days but hurts the scalar path shows here.
        "year-local-pooled": dict(days=365, timezone="Europe/Berlin", mmd_on="pooled",
                                  epochs=1, n_synth=512, ingest_repeats=3,
                                  generate_repeats=4, evaluate_repeats=1),
    },
    "tiny": {
        "toy-train": dict(days=40, vaegan_epochs=1, gan_epochs=1, n_synth=32,
                          ingest_repeats=1, generate_repeats=1, evaluate_repeats=1),
        "year-days": dict(days=20, timezone="UTC", mmd_on="days", epochs=1, n_synth=32,
                          ingest_repeats=1, generate_repeats=1, evaluate_repeats=1),
        "year-local-pooled": dict(days=40, timezone="Europe/Berlin", mmd_on="pooled",
                                  epochs=1, n_synth=32, ingest_repeats=1,
                                  generate_repeats=1, evaluate_repeats=1),
    },
}

# The acceptance suite's toy training scheme (criteria 3 and 4).
TOY_ARCH = dict(latent_dim=16, channels=16)
TOY_TRAIN = dict(batch_size=32, lr_g=1e-3, lr_d=1e-3, adam_beta1=0.5,
                 fake_source="reconstruction")
TOY_START_EPOCH_S = 1_609_459_200  # 2021-01-01T00:00:00Z


def _find_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim  # glibc only
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _find_malloc_trim()


def cold_allocator() -> None:
    """Return freed heap memory to the OS before a timed stage call.

    A `gridsynth` command normally runs in a fresh process and page-faults in
    every array it allocates. Called in-process, it may instead reuse heap
    pages an earlier call freed, or not, depending on glibc's trim and mmap
    thresholds at that moment; a sub-second stage then flips between a
    faulting and a non-faulting mode for seconds at a time. Trimming first
    gives every timed call the fresh-process state.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class StageFailed(Exception):
    """A pipeline stage raised or returned a non-zero exit code."""


@dataclass
class Inputs:
    """Generated inputs of one workload run; written before set-up is timed."""

    workload: str
    seed: int
    size: dict
    config_path: Path
    csv_rows: int
    expected_kept_days: int  # complete days as the input generator counts them


@dataclass
class Rep:
    """Timings and artifacts of one repetition of a workload's pipeline."""

    out_dir: Path
    pipeline_s: float = 0.0
    ingest_s: list = field(default_factory=list)
    generate_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    step_ms: dict = field(default_factory=lambda: {"vaegan": [], "gan": []})
    run_dirs: dict = field(default_factory=dict)  # model -> dir with its artifacts
    daymatrix: Path | None = None  # the ingested day matrix
    cli_output: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    error: str = ""  # set when a stage failed and ended the repetition


# ---------------------------------------------------------------------------
# input generation


def make_inputs(workload: str, seed: int, size_name: str, root: Path, work: Path) -> Inputs:
    size = SIZES[size_name][workload]
    if workload == "toy-train":
        return _toy_inputs(seed, size, work)
    return _year_inputs(workload, seed, size, root, work)


def _toy_inputs(seed: int, size: dict, work: Path) -> Inputs:
    """The toy sinusoid days as a 15-minute CSV, so `gridsynth ingest`
    reproduces `toydata.sinusoid_day_matrix` bit for bit."""
    days = toydata.sinusoid_days(n_days=size["days"], seed=seed).values
    csv_path = work / "toy.csv"
    lines = ["timestamp,power_w"]
    step = 15 * 60
    for i, value in enumerate(days.ravel()):
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(TOY_START_EPOCH_S + i * step))
        lines.append(f"{stamp},{float(value)!r}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _write_config(work, {
        "input_path": csv_path, "source_period_minutes": 15, "seed": seed,
        "latent_dim": TOY_ARCH["latent_dim"], "channels": TOY_ARCH["channels"],
    })
    return Inputs("toy-train", seed, size, cfg, days.size, size["days"])


def _year_inputs(workload: str, seed: int, size: dict, root: Path, work: Path) -> Inputs:
    """One seeded year of 5-minute readings from scripts/make_demo_data.py."""
    data_seed = seed if workload == "year-days" else seed + SECOND_YEAR_SEED_OFFSET
    csv_path = work / "year.csv"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo_data.py"), str(csv_path),
         "--days", str(size["days"]), "--seed", str(data_seed)],
        cwd=root, capture_output=True, text=True, check=True, timeout=120,
    )
    match = re.search(r"\((\d+) complete\)", proc.stdout)
    if match is None:
        raise RuntimeError(f"make_demo_data.py printed no complete-day count: {proc.stdout!r}")
    with open(csv_path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    cfg = _write_config(work, {
        "input_path": csv_path, "timezone": size["timezone"], "mmd_on": size["mmd_on"],
        "epochs": size["epochs"], "n_synthetic": size["n_synth"], "seed": seed,
    })
    return Inputs(workload, seed, size, cfg, rows, int(match.group(1)))


def _write_config(work: Path, values: dict) -> Path:
    path = work / "run.cfg"
    lines = ["value_column = power_w", "kind = load"]
    lines += [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# one repetition


def run_rep(inputs: Inputs, out_dir: Path) -> Rep:
    """Run the workload's whole pipeline once into out_dir and time it.

    A failed stage ends the repetition; its message is kept in rep.error.
    """
    rep = Rep(out_dir=out_dir)
    t0 = time.perf_counter()
    try:
        if inputs.workload == "toy-train":
            _toy_pipeline(inputs, rep)
        else:
            _year_pipeline(inputs, rep)
    except StageFailed as exc:
        rep.error = str(exc)
    rep.pipeline_s = time.perf_counter() - t0
    if inputs.workload != "toy-train" and not rep.error:
        rep.step_ms = {kind: _step_ms_from_files(rd) for kind, rd in rep.run_dirs.items()}
    return rep


def _call(rep: Rep, fn, *args, **kwargs):
    rep.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed stage call, ends the repetition
        rep.failed += 1
        raise StageFailed(f"{getattr(fn, '__qualname__', fn)}: {exc!r}") from exc


def _cli(rep: Rep, *argv) -> float:
    """Run one `gridsynth` command in-process; returns its wall time."""
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    cold_allocator()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = _call(rep, cli.main, argv)
    elapsed = time.perf_counter() - t0
    rep.cli_output.append(buf.getvalue())
    if rc != 0:
        rep.failed += 1
        raise StageFailed(f"gridsynth {' '.join(argv)} exited {rc}")
    return elapsed


def _timed(samples: list, rep: Rep, fn, *args, **kwargs):
    cold_allocator()
    t0 = time.perf_counter()
    out = _call(rep, fn, *args, **kwargs)
    samples.append(time.perf_counter() - t0)
    return out


def run_dir(config_path: Path, out_dir: Path, model: str) -> Path:
    cfg = cfgmod.load_run_config(config_path, {"out_dir": str(out_dir), "model": model})
    return cfgmod.run_dir(cfg)


def _toy_pipeline(inputs: Inputs, rep: Rep) -> None:
    size, seed = inputs.size, inputs.seed
    base = ["--config", inputs.config_path, "--out", rep.out_dir]
    rep.ingest_s.append(_cli(rep, "ingest", *base))
    rd = run_dir(inputs.config_path, rep.out_dir, "vaegan")
    rep.daymatrix = rd / cli.DAYMATRIX_CSV
    matrix = _call(rep, datapipe.load_day_matrix, rep.daymatrix)
    arch = nets.ArchConfig(**TOY_ARCH)
    real_watts = datapipe.denormalize(matrix)
    # Each model is sampled and scored before the next one trains, and the
    # further ingest and sampling calls sit between and after the models, so
    # that a stage's samples spread over the repetition instead of falling in
    # one burst (see _year_pipeline). Repeated calls rewrite identical files.
    trainers = (("vaegan", trainer.train_vaegan, size["vaegan_epochs"]),
                ("gan", trainer.train_gan, size["gan_epochs"]))
    for model_kind, train_fn, epochs in trainers:
        model_dir = rd / model_kind
        cfg = trainer.TrainConfig(epochs=epochs, seed=seed, **TOY_TRAIN)
        cold_allocator()
        _, log = _call(rep, train_fn, matrix, cfg, arch=arch, checkpoint_dir=model_dir)
        rep.step_ms[model_kind] = _epoch_step_ms(
            log.epoch_wall, [row["epoch"] for row in log.steps])
        rep.run_dirs[model_kind] = model_dir
        # As on year-*, generate and evaluate are timed on the VAE-GAN only:
        # the GAN samples ~40 % faster, and a median over a mix of the two
        # would flip between them from run to run.
        timed = model_kind == "vaegan"
        ckpt = _call(rep, nets.load_checkpoint, model_dir / cli.CHECKPOINT)
        model = _call(rep, nets.model_from_checkpoint, ckpt)
        sample = functools.partial(
            _timed, rep.generate_s if timed else [], rep, synth.sample, model,
            size["n_synth"], seed=seed, norm_meta=ckpt.norm_meta,
            checkpoint_id=f"{ckpt.kind}-toy")
        batch = sample()
        _call(rep, synth.export, batch, model_dir / cli.SYNTH_CSV)
        synth_watts, _ = _call(rep, synth.load_exported, model_dir / cli.SYNTH_CSV)
        for _ in range(size["evaluate_repeats"] if timed else 1):
            report = _timed(rep.evaluate_s if timed else [], rep, metrics.full_report,
                            real_watts, synth_watts, metrics.MetricsConfig(),
                            kind=matrix.kind, model=model_kind)
        _call(rep, report.save, model_dir / cli.REPORT_JSON)
        _call(rep, metrics.dump_histograms, real_watts.ravel(), synth_watts.ravel(),
              model_dir / cli.HISTOGRAM_CSV)
        if timed:
            sample_vaegan = sample
            for _ in range(size["ingest_repeats"] - 1):
                rep.ingest_s.append(_cli(rep, "ingest", *base))
    _cli(rep, "report", *(d / cli.REPORT_JSON for d in rep.run_dirs.values()),
         "--out", rep.out_dir)
    for _ in range(size["generate_repeats"] - 1):
        sample_vaegan()


def _year_pipeline(inputs: Inputs, rep: Rep) -> None:
    size = inputs.size
    base = ["--config", inputs.config_path, "--out", rep.out_dir]
    gan = base + ["--model", "gan"]  # same config file, so the same epochs
    # The sub-second stages are sampled at several points of the repetition
    # rather than in one burst, so that a slow stretch of a shared host does
    # not land on every sample of one metric. Repeated ingests and generates
    # rewrite identical files.
    rep.ingest_s.append(_cli(rep, "ingest", *base))
    _cli(rep, "train", *base)
    rep.ingest_s.append(_cli(rep, "ingest", *gan))
    _cli(rep, "train", *gan)
    generates_before = (size["generate_repeats"] + 1) // 2
    extra_ingests = size["ingest_repeats"] - 1
    for _ in range(generates_before):
        rep.generate_s.append(_cli(rep, "generate", *base))
    for _ in range(extra_ingests // 2):
        rep.ingest_s.append(_cli(rep, "ingest", *base))
    for _ in range(size["evaluate_repeats"]):
        rep.evaluate_s.append(_cli(rep, "evaluate", *base))
    for _ in range(size["generate_repeats"] - generates_before):
        rep.generate_s.append(_cli(rep, "generate", *base))
    for _ in range(extra_ingests - extra_ingests // 2):
        rep.ingest_s.append(_cli(rep, "ingest", *base))
    rep.run_dirs = {kind: run_dir(inputs.config_path, rep.out_dir, kind)
                    for kind in ("vaegan", "gan")}
    rep.daymatrix = rep.run_dirs["vaegan"] / cli.DAYMATRIX_CSV


def _epoch_step_ms(epoch_wall, step_epochs) -> list[float]:
    """ms per step of each epoch: TrainLog.epoch_wall / steps in that epoch."""
    counts: dict[int, int] = {}
    for epoch in step_epochs:
        counts[epoch] = counts.get(epoch, 0) + 1
    return [1e3 * wall / counts[epoch] for epoch, wall in epoch_wall]


def _step_ms_from_files(rd: Path) -> list[float]:
    with open(rd / cli.EPOCHS_CSV, newline="", encoding="utf-8") as fh:
        walls = [(int(r["epoch"]), float(r["wall_seconds"])) for r in csv.DictReader(fh)]
    with open(rd / cli.TRAINLOG_CSV, newline="", encoding="utf-8") as fh:
        epochs = [int(r["epoch"]) for r in csv.DictReader(fh)]
    return _epoch_step_ms(walls, epochs)
