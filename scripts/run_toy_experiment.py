#!/usr/bin/env python3
"""Train VAE-GAN and vanilla GAN on the sinusoid toy set and compare fidelity.

Both models share one config and seed (`gridsynth.compare`); the table mirrors
the evaluate/report layout (KL divergence, Wasserstein distance, MMD against
the real data). The jobs run in two worker processes; wall_s is each job's
training time inside its worker.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridsynth import compare, toydata


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=compare.TOY_EPOCHS)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(compare.TOY_SEEDS))
    args = ap.parse_args()

    data = toydata.sinusoid_day_matrix(compare.TOY_DAYS, seed=compare.TOY_DATA_SEED)
    jobs = [
        (kind, compare.comparison_config(seed, args.epochs), compare.TOY_ARCH)
        for seed in args.seeds for kind in compare.KINDS
    ]
    results = iter(compare.run(data, jobs))

    cfg = jobs[0][1]
    print(f"toy sinusoid: {compare.TOY_DAYS} days, {args.epochs} epochs, "
          f"lr={cfg.lr_g}, batch={cfg.batch_size}, beta1={cfg.adam_beta1}")
    header = f"{'seed':>4}  {'model':<8} {'kl':>8} {'wasserstein':>12} {'mmd':>8} {'recon_mse':>10} {'wall_s':>7}"
    print(header)
    wins = 0
    for seed in args.seeds:
        row = {}
        for kind in compare.KINDS:
            report, log, wall = next(results)
            mse = log.epoch_mean(args.epochs, "recon_mse") if kind == "vaegan" else float("nan")
            row[kind] = report
            print(f"{seed:>4}  {kind:<8} {report.kl:>8.4f} {report.wasserstein:>12.2f} "
                  f"{report.mmd:>8.4f} {mse:>10.5f} {wall:>7.1f}")
        better = (row["vaegan"].kl < row["gan"].kl) and (
            row["vaegan"].wasserstein < row["gan"].wasserstein
        )
        wins += better
        print(f"      -> vaegan beats gan on kl+wasserstein: {better}")
    print(f"\nvaegan wins on kl+wasserstein for {wins}/{len(args.seeds)} seeds")


if __name__ == "__main__":
    main()
