"""Sampling determinism, unit handling and export round trips."""
import tracemalloc

import numpy as np
import pytest

from gridsynth import nets, synth
from gridsynth.errors import DataError

from oracles import mode_collapsed_tensor
from test_datapipe import MATRIX_CORRUPTIONS, corrupt_matrix_csv

TINY = nets.ArchConfig(seq_len=96, latent_dim=4, channels=3, kernel_size=3, dilations=(1, 2))
NORM = {"norm_min": 50.0, "norm_max": 950.0, "kind": "load"}


@pytest.fixture
def model(rng):
    m = nets.VaeGanModel(TINY, rng)
    for p in nets.all_params(m).values():
        p.value += rng.standard_normal(p.value.shape) * 0.3
    return m


@pytest.fixture
def untrained(rng):
    # untrained generator with an explicitly zero-initialized output layer
    m = nets.VaeGanModel(TINY, rng)
    m.generator.w_out.value[...] = 0.0
    m.generator.b_out.value[...] = 0.0
    return m


class TestSample:
    def test_peak_memory_bounded(self):
        # 4096 days at the CLI default width; decoding them in one batch
        # held every activation of all 4096 rows at once (~2.2 GB)
        model = nets.VaeGanModel(nets.ArchConfig(), np.random.default_rng(0))
        tracemalloc.start()
        try:
            batch = synth.sample(model, 4096, seed=1, norm_meta=NORM)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.n == 4096
        assert peak < 64 * 2**20

    def test_same_seed_identical(self, model):
        a = synth.sample(model, 6, seed=11, norm_meta=NORM)
        b = synth.sample(model, 6, seed=11, norm_meta=NORM)
        np.testing.assert_array_equal(a.profiles, b.profiles)
        np.testing.assert_array_equal(a.denorm, b.denorm)

    def test_different_seed_differs(self, model):
        a = synth.sample(model, 6, seed=11, norm_meta=NORM)
        b = synth.sample(model, 6, seed=12, norm_meta=NORM)
        assert not np.array_equal(a.profiles, b.profiles)

    def test_n_zero_rejected(self, model):
        with pytest.raises(ValueError, match="n >= 1"):
            synth.sample(model, 0, seed=1, norm_meta=NORM)

    def test_missing_norm_meta_rejected(self, model):
        with pytest.raises(DataError, match="normalization"):
            synth.sample(model, 2, seed=1, norm_meta={})
        with pytest.raises(DataError, match="normalization"):
            synth.sample(model, 2, seed=1, norm_meta={"norm_min": 0.0, "norm_max": None})

    def test_zero_init_output_layer_gives_mid_range(self, untrained):
        # tanh(0) -> 0.5 after rescale, for every z
        batch = synth.sample(untrained, 4, seed=3, norm_meta=NORM)
        np.testing.assert_allclose(batch.profiles, 0.5)
        np.testing.assert_allclose(batch.denorm, 500.0)

    def test_outputs_within_norm_range(self, model):
        batch = synth.sample(model, 16, seed=5, norm_meta=NORM)
        assert batch.profiles.min() >= 0.0 and batch.profiles.max() <= 1.0
        assert batch.denorm.min() >= NORM["norm_min"]
        assert batch.denorm.max() <= NORM["norm_max"]

    def test_provenance(self, model):
        batch = synth.sample(model, 3, seed=21, norm_meta=NORM, checkpoint_id="ck-42")
        assert batch.provenance["seed"] == 21
        assert batch.provenance["latent_draws"] == 3
        assert batch.provenance["checkpoint_id"] == "ck-42"


class TestModeCollapseProbe:
    def test_distinct_outputs_not_collapsed(self, model):
        batch = synth.sample(model, 8, seed=2, norm_meta=NORM)
        assert not synth.is_mode_collapsed(batch.profiles)

    def test_identical_outputs_collapsed(self):
        profiles = np.tile(np.linspace(0, 1, 96), (5, 1))
        assert synth.is_mode_collapsed(profiles)

    def test_untrained_constant_output_is_collapsed(self, untrained):
        batch = synth.sample(untrained, 5, seed=1, norm_meta=NORM)
        assert synth.is_mode_collapsed(batch.profiles)

    def test_600_day_batch(self, rng):
        same = np.tile(rng.uniform(0, 1, 96), (600, 1))
        assert synth.is_mode_collapsed(same)
        assert synth.is_mode_collapsed(same + rng.uniform(0, 1e-8, same.shape))
        assert not synth.is_mode_collapsed(same, tol=0.0)
        assert not synth.is_mode_collapsed(same, tol=-1.0)
        last_differs = same.copy()
        last_differs[-1, 50] += 1e-6
        assert not synth.is_mode_collapsed(last_differs)
        assert synth.is_mode_collapsed(last_differs, tol=1.1e-6)
        assert not synth.is_mode_collapsed(rng.uniform(0, 1, (600, 96)))

    def test_fewer_than_two_profiles_never_collapsed(self):
        assert not synth.is_mode_collapsed(np.zeros((1, 96)))
        assert not synth.is_mode_collapsed(np.zeros((0, 96)))
        assert not synth.is_mode_collapsed(np.zeros((1, 96)), tol=0.0)

    @pytest.mark.parametrize("block_values", [None, 200])
    def test_matches_tensor_form(self, rng, block_values, monkeypatch):
        from gridsynth import metrics

        if block_values:
            monkeypatch.setattr(metrics, "_BLOCK_VALUES", block_values)
        for n in (2, 3, 17, 40):
            base = np.tile(rng.uniform(0, 1, 96), (n, 1))
            for jitter in (0.0, 1e-9, 1e-7, 1e-3):
                profiles = base + rng.uniform(0, jitter, base.shape)
                for tol in (-1.0, 0.0, 1e-8, 1e-6, 1e-2):
                    want = mode_collapsed_tensor(profiles, tol)
                    assert synth.is_mode_collapsed(profiles, tol) is want


class TestExport:
    def test_round_trip(self, tmp_path, model):
        batch = synth.sample(model, 5, seed=9, norm_meta=NORM, checkpoint_id="ck")
        synth.export(batch, tmp_path / "synth.csv")
        watts, meta = synth.load_exported(tmp_path / "synth.csv")
        assert np.max(np.abs(watts - batch.denorm)) < 1e-9
        assert meta["seed"] == "9"
        assert meta["checkpoint_id"] == "ck"

    def test_header_names(self, tmp_path, model):
        batch = synth.sample(model, 2, seed=1, norm_meta=NORM)
        synth.export(batch, tmp_path / "synth.csv")
        header = (tmp_path / "synth.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "t00" and cols[-1] == "t95" and len(cols) == 96

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            synth.load_exported(tmp_path / "nope.csv")

    @pytest.mark.parametrize("how", MATRIX_CORRUPTIONS)
    def test_malformed_file_is_data_error(self, tmp_path, model, how):
        synth.export(synth.sample(model, 2, seed=1, norm_meta=NORM), tmp_path / "synth.csv")
        corrupt_matrix_csv(tmp_path / "synth.csv", how)
        with pytest.raises(DataError):
            synth.load_exported(tmp_path / "synth.csv")
