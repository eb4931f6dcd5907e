"""Command-line front end: ingest -> train -> generate -> evaluate -> report.

Every command is deterministic given config + seed. Exit codes: 0 success,
1 usage error, 2 data error, 3 training divergence.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import datapipe, metrics, nets, synth, trainer
from .errors import DataError, TrainingDiverged, UsageError

DAYMATRIX_CSV = "daymatrix.csv"
CHECKPOINT = "checkpoint.npz"
TRAINLOG_CSV = "trainlog.csv"
EPOCHS_CSV = "epochs.csv"
SYNTH_CSV = "synthetic.csv"
REPORT_JSON = "report.json"
HISTOGRAM_CSV = "histogram.csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract wants 1."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gridsynth",
        description="Learn daily smart-home load/PV profiles with a VAE-GAN "
        "(or vanilla GAN), generate synthetic days, and score their fidelity.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    epilog = cfgmod.describe_defaults()

    def add(name, help_text, **kwargs):
        p = sub.add_parser(
            name, help=help_text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs
        )
        p.add_argument("--config", metavar="path", help="key = value config file")
        p.add_argument("--model", metavar="vaegan|gan", help="model kind override")
        p.add_argument("--seed", help="seed override")
        p.add_argument("--out", metavar="dir", help="output directory override")
        p.add_argument("--bins", help="histogram bins for KL")
        p.add_argument("--sigma", metavar="median|float", help="MMD kernel bandwidth")
        return p

    add("ingest", "parse raw CSV, resample to 15 min, keep complete days, normalize")
    train = add("train", "train the configured model on the ingested day matrix")
    train.add_argument("--resume", metavar="checkpoint", help="continue from a checkpoint file")
    gen = add("generate", "sample synthetic days from the trained checkpoint")
    gen.add_argument("--n", help="number of days to generate")
    ev = add("evaluate", "score synthetic days against the real day matrix")
    ev.add_argument("real_path", nargs="?", help="ingested day matrix CSV (default: run dir)")
    ev.add_argument("synth_path", nargs="?", help="synthetic CSV (default: run dir)")
    # report reads no config: its only inputs are the report files
    rep = sub.add_parser("report", help="side-by-side comparison table from evaluate reports")
    rep.add_argument("--out", metavar="dir", help="directory of comparison.txt/.csv (default: .)")
    rep.add_argument("reports", nargs="+", metavar="report.json")
    return parser


def _effective_config(args) -> cfgmod.RunConfig:
    overrides = {
        "model": getattr(args, "model", None),
        "seed": getattr(args, "seed", None),
        "out_dir": getattr(args, "out", None),
        "bins": getattr(args, "bins", None),
        "sigma": getattr(args, "sigma", None),
        "n_synthetic": getattr(args, "n", None),
    }
    return cfgmod.load_run_config(args.config, overrides)


def _run_dir(cfg: cfgmod.RunConfig) -> Path:
    rd = cfgmod.run_dir(cfg)
    rd.mkdir(parents=True, exist_ok=True)
    cfgmod.write_effective_config(cfg, rd / "config.txt")
    return rd


def cmd_ingest(cfg: cfgmod.RunConfig) -> int:
    if not cfg.input_path:
        raise UsageError("ingest requires input_path in the config file")
    matrix = datapipe.ingest(cfg.input_path, cfg.ingest_config())
    rd = _run_dir(cfg)
    datapipe.save_day_matrix(matrix, rd / DAYMATRIX_CSV)
    print(f"kept days: {matrix.n_days}")
    print(f"day matrix: {rd / DAYMATRIX_CSV}")
    return 0


def cmd_train(cfg: cfgmod.RunConfig, resume_path=None) -> int:
    rd = _run_dir(cfg)
    matrix = datapipe.load_day_matrix(rd / DAYMATRIX_CSV)
    resume = nets.load_checkpoint(resume_path) if resume_path else None
    train_fn = trainer.train_vaegan if cfg.model == "vaegan" else trainer.train_gan
    model, log = train_fn(
        matrix, cfg.train_config(), arch=cfg.arch_config(), resume=resume, checkpoint_dir=rd
    )
    log.to_csv(rd / TRAINLOG_CSV)
    log.wall_to_csv(rd / EPOCHS_CSV)
    last = log.steps[-1] if log.steps else {}
    summary = ", ".join(f"{k}={v:.4f}" for k, v in last.items() if k not in ("step", "epoch"))
    print(f"trained {cfg.model} for {cfg.epochs} epochs ({len(log.steps)} steps logged)")
    if summary:
        print(f"final losses: {summary}")
    print(f"checkpoint: {rd / CHECKPOINT}")
    return 0


def cmd_generate(cfg: cfgmod.RunConfig) -> int:
    rd = _run_dir(cfg)
    ckpt = nets.load_checkpoint(rd / CHECKPOINT)
    model = nets.model_from_checkpoint(ckpt)
    batch = synth.sample(
        model, cfg.n_synthetic, seed=cfg.seed, norm_meta=ckpt.norm_meta,
        checkpoint_id=f"{ckpt.kind}-{cfgmod.config_hash(cfg)}",
    )
    synth.export(batch, rd / SYNTH_CSV)
    print(f"generated {batch.n} synthetic days")
    print(f"synthetic data: {rd / SYNTH_CSV}")
    return 0


def _load_watts(path) -> tuple[np.ndarray, dict[str, str]]:
    """Read a day matrix or an exported synthetic batch: (watts matrix, sidecar)."""
    values, meta = synth.load_exported(path)
    if meta["schema"] != datapipe.DAYMATRIX_SCHEMA:
        return values, meta
    try:
        return datapipe.denormalize(datapipe.day_matrix_from(values, meta)), meta
    except DataError as exc:
        raise DataError(f"{path}: {exc}")


def _check_same_data(kind, real_path, real_meta, synth_path, synth_meta) -> None:
    """Both sidecars must agree on kind and normalization where both carry
    them: a synthetic file belongs to the day matrix its model trained on.
    A sidecar's kind must also be the config's, which labels the report."""
    for key in ("kind", "norm_min", "norm_max"):
        if key not in real_meta or key not in synth_meta:
            continue
        real, fake = real_meta[key], synth_meta[key]
        if key != "kind":
            try:
                real, fake = float(real), float(fake)
            except ValueError:
                raise DataError(f"{key} must be a number, got {real!r} and {fake!r}")
        if real != fake:
            raise DataError(
                f"inputs do not belong together: {key} is {real!r} in {real_path} "
                f"but {fake!r} in {synth_path}"
            )
    for path, meta in ((real_path, real_meta), (synth_path, synth_meta)):
        if meta.get("kind", kind) != kind:
            raise DataError(f"kind is {meta['kind']!r} in {path} but {kind!r} in the config")


def cmd_evaluate(cfg: cfgmod.RunConfig, real_path=None, synth_path=None) -> int:
    rd = _run_dir(cfg)
    real_path = Path(real_path) if real_path else rd / DAYMATRIX_CSV
    synth_path = Path(synth_path) if synth_path else rd / SYNTH_CSV
    real_watts, real_meta = _load_watts(real_path)
    synth_watts, synth_meta = _load_watts(synth_path)
    _check_same_data(cfg.kind, real_path, real_meta, synth_path, synth_meta)
    report = metrics.full_report(
        real_watts, synth_watts, cfg.metrics_config(), kind=cfg.kind, model=cfg.model
    )
    report.save(rd / REPORT_JSON)
    metrics.dump_histograms(
        real_watts.ravel(), synth_watts.ravel(), rd / HISTOGRAM_CSV, bins=cfg.bins
    )
    print(f"kl: {report.kl!r}")
    print(f"wasserstein: {report.wasserstein!r}")
    print(f"mmd: {report.mmd!r}")
    print(f"report: {rd / REPORT_JSON}")
    return 0


def cmd_report(report_paths, out_dir=None) -> int:
    rows = []
    for path in report_paths:
        rep = metrics.MetricsReport.load(path)
        rows.append((rep.model or Path(path).stem, rep.kl, rep.wasserstein, rep.mmd))
    header = ("model", "kl", "wasserstein", "mmd")
    widths = [max(len(header[0]), *(len(r[0]) for r in rows))] + [12] * 3
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [f"{v:.6g}".ljust(12) for v in row[1:]]
        lines.append("  ".join(cells))
    table = "\n".join(lines)
    print(table)
    out = Path(out_dir) if out_dir else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join([row[0]] + [repr(v) for v in row[1:]]))
    for name, text in (("comparison.txt", table), ("comparison.csv", "\n".join(csv_lines))):
        with datapipe.replaced_on_success(out / name) as tmp:
            tmp.write_text(text + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        if args.command == "report":
            return cmd_report(args.reports, out_dir=args.out)
        cfg = _effective_config(args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg, resume_path=args.resume)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.real_path, args.synth_path)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
