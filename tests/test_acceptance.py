"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3 and 4 train on the seeded toy-sinusoid set with the default
scheme; the directional comparison (criterion 5) trains both model kinds
with one identical config per seed, through `gridsynth.compare.run` in two
worker processes. Run with
`pytest tests/test_acceptance.py -v -s` to see PASS lines and timings.
"""
import math
import time
import zlib

import numpy as np
import pytest

from gridsynth import autodiff as ad
from gridsynth import cli, compare, datapipe, metrics, nets, synth, toydata, trainer
from gridsynth.compare import KINDS, TOY_ARCH, TOY_DATA_SEED, TOY_DAYS, TOY_EPOCHS, TOY_SEEDS
from gridsynth.config import load_run_config, run_dir

from oracles import (
    kl_oracle,
    load_shape_oracle,
    mean_std_oracle,
    mmd_oracle,
    spike_day,
    trapezoid_day,
    wasserstein_matching_oracle,
    wasserstein_quantile_oracle,
)
from test_autodiff import GRADCHECK_OPS, _gradcheck_case
from test_cli import make_raw_csv, write_config

def learning_cfg(seed: int, epochs: int = TOY_EPOCHS) -> trainer.TrainConfig:
    """Config for the learning criteria (3, 4): spec-default training scheme."""
    return trainer.TrainConfig(
        epochs=epochs, batch_size=32, lr_g=1e-3, lr_d=1e-3, adam_beta1=0.5,
        fake_source="reconstruction", seed=seed,
    )


def _report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def toy_data():
    return toydata.sinusoid_day_matrix(TOY_DAYS, seed=TOY_DATA_SEED)


@pytest.fixture(scope="module")
def vaegan_learning_run(toy_data):
    """One 200-epoch seeded VAE-GAN training run, for criterion 4."""
    t0 = time.perf_counter()
    model, log = trainer.train_vaegan(toy_data, learning_cfg(TOY_SEEDS[0]), arch=TOY_ARCH)
    return model, log, time.perf_counter() - t0


@pytest.fixture(scope="module")
def comparison_runs(toy_data):
    """(kind, seed) -> report under one shared config, for criterion 5."""
    jobs = [
        (kind, compare.comparison_config(seed), TOY_ARCH) for seed in TOY_SEEDS for kind in KINDS
    ]
    t0 = time.perf_counter()
    results = compare.run(toy_data, jobs)
    runs = {(kind, cfg.seed): report for (kind, cfg, _), (report, _, _) in zip(jobs, results)}
    runs["wall"] = time.perf_counter() - t0
    return runs


def test_criterion_1_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n, m = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        x = rng.normal(size=n) * rng.uniform(0.5, 3)
        y = rng.normal(size=m) + rng.uniform(-1, 1)
        bins = int(rng.integers(2, 12))
        assert abs(metrics.kl_divergence(x, y, bins=bins) - kl_oracle(x, y, bins)) < 1e-9

        sigma = float(rng.uniform(0.3, 3.0))
        assert abs(metrics.mmd_rbf(x, y, sigma) - mmd_oracle(x, y, sigma)) < 1e-9
        d = int(rng.integers(2, 5))
        xv, yv = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.5
        assert abs(metrics.mmd_rbf(xv, yv, sigma) - mmd_oracle(xv, yv, sigma)) < 1e-9

        assert abs(metrics.wasserstein1(x, y) - wasserstein_quantile_oracle(x, y)) < 1e-9
        k = int(rng.integers(1, 7))
        xe, ye = rng.normal(size=k), rng.normal(size=k) + rng.uniform(-1, 1)
        assert abs(metrics.wasserstein1(xe, ye) - wasserstein_matching_oracle(xe, ye)) < 1e-9

    # the three DERIVED worked examples
    kl_expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(metrics.kl_from_masses([0.5, 0.5], [0.25, 0.75]) - kl_expected) < 1e-6
    mmd_expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    assert abs(metrics.mmd_rbf([0.0], [1.0], 1.0) - mmd_expected) < 1e-6
    assert abs(metrics.wasserstein1([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]) - 1.0) < 1e-6

    wall = time.perf_counter() - t0
    assert wall < 10.0, f"criterion 1 took {wall:.1f}s (limit 10s)"
    _report(1, f"50 randomized oracle cases per metric at 1e-9 + 3 worked examples, {wall:.1f}s")


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    for op_name in GRADCHECK_OPS:
        rng = np.random.default_rng(zlib.crc32(op_name.encode()))
        worst = max(_gradcheck_case(op_name, rng) for _ in range(20))
        assert worst < 1e-4, f"{op_name}: {worst}"

    # full VAE-GAN losses on the tiny net: L=4, 2 conv layers, T=16
    rng = np.random.default_rng(99)
    arch = nets.ArchConfig(seq_len=16, latent_dim=4, channels=3, kernel_size=3, dilations=(1, 2))
    model = nets.VaeGanModel(arch, rng)
    graph = nets.build_vaegan_graph(model)
    bind = {graph.x: rng.uniform(0, 1, size=(2, 1, 16))}
    for node, shape in graph.draws:
        bind[node] = rng.standard_normal((2,) + shape)
    ad.forward(graph.nodes["l_generator"], bind)
    for p in model.encoder.params() + model.generator.params():
        assert ad.grad_check(graph.nodes["l_generator"], p, bind, step=1e-4) < 1e-3, p.name
    ad.forward(graph.nodes["l_D"], bind)
    for p in model.discriminator.params():
        assert ad.grad_check(graph.nodes["l_D"], p, bind, step=1e-4) < 1e-3, p.name

    wall = time.perf_counter() - t0
    assert wall < 60.0, f"criterion 2 took {wall:.1f}s (limit 60s)"
    _report(2, f"{len(GRADCHECK_OPS)} op kinds x 20 instances < 1e-4; "
               f"tiny-net VAE-GAN loss gradients < 1e-3, {wall:.1f}s")


def test_criterion_3_loss_identities_100_steps(toy_data):
    steps_wanted = 100
    batches_per_epoch = math.ceil(TOY_DAYS / 32)
    epochs = math.ceil(steps_wanted / batches_per_epoch)
    _, log = trainer.train_vaegan(toy_data, learning_cfg(seed=5, epochs=epochs), arch=TOY_ARCH)
    rows = log.steps[:steps_wanted]
    assert len(rows) == steps_wanted
    worst5 = max(abs(r["l_generator"] - (r["l_reconstruction"] + r["l_dG"])) for r in rows)
    worst9 = max(abs(r["l_D"] - (r["l_real"] + r["l_fake"] + r["l_noise"])) for r in rows)
    assert worst5 <= 1e-12, f"generator identity violated by {worst5}"
    assert worst9 <= 1e-12, f"discriminator identity violated by {worst9}"
    _report(3, f"generator and discriminator loss-composition identities over "
               f"{steps_wanted} steps; worst |residual| = {max(worst5, worst9):.2e}")


def test_criterion_4_toy_learning(vaegan_learning_run, toy_data):
    model, log, wall = vaegan_learning_run
    mse_first = log.epoch_mean(1, "recon_mse")
    mse_last = log.epoch_mean(TOY_EPOCHS, "recon_mse")
    ratio = mse_first / mse_last
    assert ratio >= 10.0, f"reconstruction MSE fell only {ratio:.1f}x ({mse_first:.5f} -> {mse_last:.5f})"

    norm_meta = {
        "norm_min": toy_data.norm_min, "norm_max": toy_data.norm_max, "kind": toy_data.kind,
    }
    batch = synth.sample(model, 64, seed=4242, norm_meta=norm_meta)
    assert not synth.is_mode_collapsed(batch.profiles), "mode-collapse probe failed"

    assert wall < 600.0, f"criterion 4 training took {wall:.0f}s (limit 10 min)"
    _report(4, f"recon MSE {mse_first:.5f} -> {mse_last:.5f} ({ratio:.1f}x >= 10x) in {wall:.0f}s; "
               f"mode-collapse probe passed")


def test_criterion_5_directional_table(comparison_runs):
    wins = 0
    lines = []
    for seed in TOY_SEEDS:
        vae = comparison_runs[("vaegan", seed)]
        gan = comparison_runs[("gan", seed)]
        better = vae.kl < gan.kl and vae.wasserstein < gan.wasserstein
        wins += better
        lines.append(
            f"seed {seed}: vaegan kl={vae.kl:.4f} w1={vae.wasserstein:.2f} mmd={vae.mmd:.4f} | "
            f"gan kl={gan.kl:.4f} w1={gan.wasserstein:.2f} mmd={gan.mmd:.4f} | vaegan wins: {better}"
        )
    wall = comparison_runs["wall"]
    assert wall < 1800.0, f"criterion 5 runs took {wall:.0f}s (limit 30 min)"
    assert wins >= 2, "VAE-GAN strictly better on KL+Wasserstein for fewer than 2 of 3 seeds:\n" + "\n".join(lines)
    _report(5, f"VAE-GAN below GAN on KL+Wasserstein for {wins}/3 seeds "
               f"({wall:.0f}s for 6 runs)\n  " + "\n  ".join(lines))


def test_criterion_6_load_shape_statistics(rng):
    day_trap = trapezoid_day()
    day_spike = spike_day()
    # frozen five-tuples, derived by direct rule evaluation (tests/oracles.py)
    assert metrics.load_shape(day_trap).as_tuple() == (0.0, 100.0, 10.25, 2.0, 2.0)
    assert load_shape_oracle(day_trap) == (0.0, 100.0, 10.25, 2.0, 2.0)
    assert metrics.load_shape(day_spike).as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert load_shape_oracle(day_spike) == (0.0, 0.0, 0.0, 0.0, 0.0)

    days = rng.uniform(0, 400, size=(9, 96))
    stats = metrics.aggregate_stats(days)
    tuples = [load_shape_oracle(day) for day in days]
    for i, name in enumerate(metrics.STAT_NAMES):
        mean, std = mean_std_oracle([t[i] for t in tuples])
        assert abs(stats[name]["mean"] - mean) <= 1e-12
        assert abs(stats[name]["std"] - std) <= 1e-12
    _report(6, "trapezoid and spike fixtures exact; aggregate mean/std matches "
               "two-pass oracle at 1e-12")


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    csv_path = make_raw_csv(tmp_path / "house.csv", n_days=4, seed=3)
    reports = []
    for tag in ("runA", "runB"):
        cfg_path = write_config(
            tmp_path, csv_path, out_dir=str(tmp_path / tag), epochs=3, seed=9,
            n_synthetic=8,
        )
        for cmd in (["ingest"], ["train"], ["generate"], ["evaluate"]):
            assert cli.main(cmd + ["--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        reports.append((run_dir(cfg) / cli.REPORT_JSON).read_bytes())
        capsys.readouterr()
    assert reports[0] == reports[1], "reports differ between identical-seed runs"
    _report(7, f"two end-to-end runs produced byte-identical reports ({len(reports[0])} bytes)")


def test_criterion_8_data_pipeline(tmp_path, rng):
    import datetime as dtmod

    gap_manifest = {0: [], 1: [40, 41], 2: [], 3: [287], 4: []}
    t0 = dtmod.datetime(2022, 2, 1, tzinfo=dtmod.timezone.utc)
    rows = ["timestamp,power_w"]
    for day, gaps in gap_manifest.items():
        for i in range(288):
            if i in gaps:
                continue
            ts = t0 + dtmod.timedelta(days=day, minutes=5 * i)
            rows.append(f"{ts.strftime('%Y-%m-%dT%H:%M:%S')}Z,{100 + (i % 7) * 13.5}")
    path = tmp_path / "fixture.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    expected_days = sum(1 for gaps in gap_manifest.values() if not gaps)
    matrix = datapipe.ingest(path, datapipe.IngestConfig())
    assert matrix.n_days == expected_days

    raw = datapipe.DayMatrix(rng.uniform(0, 1400, size=(6, 96)))
    normalized = datapipe.normalize(raw)
    err = np.max(np.abs(datapipe.denormalize(normalized) - raw.values))
    assert err < 1e-12, f"round-trip error {err}"
    _report(8, f"gap-manifest fixture kept {matrix.n_days}/{len(gap_manifest)} days as expected; "
               f"normalize round-trip error {err:.2e} < 1e-12")
