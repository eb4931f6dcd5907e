"""The paper's comparison: VAE-GAN against the vanilla GAN on the toy set.

Both model kinds train under one identical config per seed, sample the same
number of synthetic days, and are scored against the real days with
`metrics.full_report`. The acceptance suite (criterion 5) and
`scripts/run_toy_experiment.py` both run it through `run`.
"""
from __future__ import annotations

import multiprocessing
import os
import time

from . import datapipe, metrics, nets, synth, trainer

TOY_DAYS = 200
TOY_DATA_SEED = 11
TOY_ARCH = nets.ArchConfig(latent_dim=16, channels=16)
TOY_EPOCHS = 200
TOY_SEEDS = (0, 1, 2)
N_SYNTH = 256
SAMPLE_SEED_OFFSET = 10_000  # a job samples with seed cfg.seed + this
KINDS = ("vaegan", "gan")
_TRAIN = {"vaegan": trainer.train_vaegan, "gan": trainer.train_gan}


def comparison_config(seed: int, epochs: int = TOY_EPOCHS) -> trainer.TrainConfig:
    """One identical config for both model kinds in the Table-I comparison.

    Stock Adam beta1 (0.9) and the adversary on prior samples: the VAE-GAN's
    reconstruction anchor keeps it stable where the vanilla GAN collapses.
    """
    return trainer.TrainConfig(
        epochs=epochs, batch_size=32, lr_g=1e-3, lr_d=1e-3, adam_beta1=0.9,
        fake_source="prior", seed=seed,
    )


def score(kind: str, data: datapipe.DayMatrix, cfg: trainer.TrainConfig, arch: nets.ArchConfig):
    """Train one `kind` model on data, sample N_SYNTH days and score them.

    Returns (MetricsReport, TrainLog, training seconds).
    """
    t0 = time.perf_counter()
    model, log = _TRAIN[kind](data, cfg, arch=arch)
    wall = time.perf_counter() - t0
    batch = synth.sample(
        model, N_SYNTH, seed=cfg.seed + SAMPLE_SEED_OFFSET, norm_meta=data.norm_meta
    )
    report = metrics.full_report(datapipe.denormalize(data), batch.denorm, kind=data.kind, model=kind)
    return report, log, wall


def run(data: datapipe.DayMatrix, jobs) -> list:
    """score(kind, data, cfg, arch) for each (kind, cfg, arch) job, in job order.

    The jobs run in a pool of at most two spawned worker processes, each on
    one BLAS thread: OPENBLAS_NUM_THREADS=1 is set while the workers start,
    before numpy loads in them, and restored afterwards. The checkpoint does
    not depend on the BLAS thread count, so the results equal in-process
    score calls. Workers send back reports and logs, never models.
    """
    args = [(kind, data, cfg, arch) for kind, cfg, arch in jobs]
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        pool = multiprocessing.get_context("spawn").Pool(min(2, len(args)))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    try:
        results = pool.starmap(score, args, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results
