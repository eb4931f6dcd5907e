"""End-to-end CLI behavior: exit codes, artifacts, determinism, help."""
import contextlib
import datetime as dtmod
import io
import json
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsynth import cli, synth
from gridsynth.config import (
    RunConfig, config_hash, load_run_config, run_dir, write_effective_config,
)
from gridsynth.datapipe import IngestConfig, load_day_matrix, read_kv_file
from gridsynth.errors import DataError, UsageError
from gridsynth.metrics import MetricsConfig
from gridsynth.nets import ArchConfig
from gridsynth.trainer import TrainConfig

from test_datapipe import corrupt_matrix_csv, insert_non_utf8
from test_nets import rewrite_checkpoint

# RunConfig keys read by the pipeline itself rather than mirrored into
# IngestConfig / ArchConfig / TrainConfig / MetricsConfig
PIPELINE_KEYS = {"input_path", "model", "n_synthetic", "out_dir"}

# a valid non-default file value for every mirrored key
MIRRORED_VALUES = {
    "timestamp_column": "ts", "value_column": "watts", "kind": "pv", "timezone": "Europe/Berlin",
    "source_period_minutes": 3, "day_completeness": 0.9,
    "latent_dim": 5, "channels": 7, "kernel_size": 2, "dilations": "1,3",
    "leaky_slope": 0.1, "epochs": 3, "batch_size": 5, "lr_g": 1e-3, "lr_d": 3e-3,
    "adam_beta1": 0.4, "adam_beta2": 0.99, "adam_eps": 1e-7, "seed": 11,
    "d_steps_per_g_step": 2, "checkpoint_every": 4, "fake_source": "prior",
    "bins": 17, "sigma": "2.5", "mmd_on": "pooled", "alpha_high": 0.8, "alpha_low": 0.2,
}


def make_raw_csv(path, n_days=3, seed=0):
    rng = np.random.default_rng(seed)
    t0 = dtmod.datetime(2021, 5, 1, tzinfo=dtmod.timezone.utc)
    rows = ["timestamp,power_w"]
    for day in range(n_days):
        for i in range(288):
            t = t0 + dtmod.timedelta(days=day, minutes=5 * i)
            watts = 300.0 + 200.0 * np.sin(2 * np.pi * i / 288) + rng.uniform(0, 30)
            rows.append(f"{t.strftime('%Y-%m-%dT%H:%M:%S')}Z,{watts:.3f}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_config(tmp_path, csv_path, **overrides):
    values = {
        "input_path": str(csv_path),
        "value_column": "power_w",
        "epochs": 2,
        "batch_size": 2,
        "latent_dim": 4,
        "channels": 3,
        "dilations": "1,2",
        "n_synthetic": 4,
        "out_dir": str(tmp_path / "runs"),
        "seed": 7,
    }
    values.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def workspace(tmp_path):
    csv_path = make_raw_csv(tmp_path / "house.csv")
    cfg_path = write_config(tmp_path, csv_path)
    return tmp_path, cfg_path


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_key = 1\n", encoding="utf-8")
        with pytest.raises(UsageError, match="no_such_key"):
            load_run_config(path)

    def test_flags_win_over_file(self, workspace):
        _, cfg_path = workspace
        cfg = load_run_config(cfg_path, {"seed": 99, "model": "gan"})
        assert cfg.seed == 99
        assert cfg.model == "gan"

    def test_hash_excludes_out_dir(self, workspace):
        _, cfg_path = workspace
        a = load_run_config(cfg_path, {"out_dir": "x"})
        b = load_run_config(cfg_path, {"out_dir": "y"})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(load_run_config(cfg_path, {"seed": 123}))

    def test_household_is_not_a_key(self, workspace, capsys):
        tmp_path, _ = workspace
        cfg_path = write_config(tmp_path, tmp_path / "house.csv", household="h1")
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 1
        assert "household" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
    def test_hash_changes_exactly_with_a_non_exempt_key(self, key):
        other = {**MIRRORED_VALUES, "input_path": "other.csv", "model": "gan",
                 "n_synthetic": 7, "out_dir": "elsewhere"}[key]
        exempt = {"out_dir", "n_synthetic"} | {f.name for f in fields(MetricsConfig)}
        same = config_hash(replace(RunConfig(), **{key: other})) == config_hash(RunConfig())
        assert same == (key in exempt)

    def test_derived_configs_carry_every_mirrored_key(self, tmp_path):
        defaults = RunConfig()
        for key, val in MIRRORED_VALUES.items():
            assert getattr(defaults, key) != val, key
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in MIRRORED_VALUES.items()), encoding="utf-8")
        cfg = load_run_config(path)
        mirrored = {}
        for derived in (cfg.ingest_config(), cfg.arch_config(), cfg.train_config(),
                        cfg.metrics_config()):
            for f in fields(derived):
                if f.name in RunConfig.__dataclass_fields__:
                    mirrored[f.name] = getattr(derived, f.name)
        assert mirrored == {**MIRRORED_VALUES, "dilations": (1, 3), "sigma": 2.5}
        assert not set(mirrored) & PIPELINE_KEYS
        assert set(RunConfig.__dataclass_fields__) == set(mirrored) | PIPELINE_KEYS

    @pytest.mark.parametrize("slope", ["0", "-0.2", "1.5", "nan"])
    def test_leaky_slope_outside_unit_interval_is_1(self, workspace, capsys, slope):
        tmp_path, _ = workspace
        cfg_path = write_config(tmp_path, tmp_path / "house.csv", leaky_slope=slope)
        with pytest.raises(UsageError, match="leaky_slope"):
            load_run_config(cfg_path)
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 1
        assert "leaky_slope" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-2"])
    def test_sigma_not_finite_positive_is_usage_error(self, workspace, sigma):
        tmp_path, _ = workspace
        cfg_path = write_config(tmp_path, tmp_path / "house.csv", sigma=sigma)
        with pytest.raises(UsageError, match="finite positive"):
            load_run_config(cfg_path)

    def test_evaluate_with_nan_sigma_is_1_and_writes_no_report(self, workspace, capsys):
        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        rd = run_dir(load_run_config(cfg_path))
        matrix_path = str(rd / cli.DAYMATRIX_CSV)
        config_txt = (rd / "config.txt").read_bytes()
        capsys.readouterr()
        argv = ["evaluate", "--config", str(cfg_path), "--sigma", "nan", matrix_path, matrix_path]
        assert cli.main(argv) == 1
        assert "sigma" in capsys.readouterr().err
        assert not (rd / cli.REPORT_JSON).exists()
        assert (rd / "config.txt").read_bytes() == config_txt

    @pytest.mark.parametrize("tz", ["+1:00", "5:30", "-03:30", "utc", ""])
    def test_timezone_forms_accepted(self, workspace, tz):
        tmp_path, _ = workspace
        cfg = load_run_config(write_config(tmp_path, tmp_path / "house.csv", timezone=tz))
        assert cfg.timezone == tz

    @pytest.mark.parametrize("key,value,command", [
        ("timezone", "Not/AZone", "ingest"),
        ("timezone", "+5", "ingest"),
        ("timezone", "01:02:03", "ingest"),
        ("timezone", "../x", "ingest"),
        ("timezone", "+99:99", "ingest"),
        ("timezone", "25:00", "ingest"),
        ("day_completeness", "0", "ingest"),
        ("day_completeness", "nan", "ingest"),
        ("alpha_low", "0.95", "evaluate"),
        ("lr_g", "nan", "train"),
        ("lr_d", "inf", "train"),
        ("seed", "-1", "train"),
        ("checkpoint_every", "-3", "train"),
        ("source_period_minutes", "0", "ingest"),
        ("source_period_minutes", "-5", "ingest"),
        ("source_period_minutes", "7", "ingest"),
        ("kind", "wind", "ingest"),
        ("model", "vae", "train"),
        ("latent_dim", "0", "train"),
        ("channels", "-1", "train"),
        ("kernel_size", "0", "train"),
        ("dilations", "1,0", "train"),
        ("dilations", "1,,2", "train"),
        ("dilations", "", "train"),
        ("epochs", "0", "train"),
        ("batch_size", "0", "train"),
        ("lr_g", "-1", "train"),
        ("adam_beta1", "1", "train"),
        ("adam_beta2", "-0.1", "train"),
        ("adam_eps", "0", "train"),
        ("adam_eps", "inf", "train"),
        ("d_steps_per_g_step", "0", "train"),
        ("fake_source", "noise", "train"),
        ("n_synthetic", "0", "generate"),
        ("bins", "0", "evaluate"),
        ("sigma", "wide", "evaluate"),
        ("sigma", "-2", "evaluate"),
        ("mmd_on", "hours", "evaluate"),
        ("alpha_high", "1.5", "evaluate"),
    ])
    def test_bad_value_is_1_with_one_line_and_no_artifact(self, workspace, capsys, key, value,
                                                         command):
        tmp_path, _ = workspace
        cfg_path = write_config(tmp_path, tmp_path / "house.csv", **{key: value})
        with pytest.raises(UsageError, match=key):
            load_run_config(cfg_path)
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert key in err, err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag,key,value", [
        ("--model", "model", "nonsense"), ("--seed", "seed", "x"), ("--seed", "seed", "-1"),
        ("--bins", "bins", "1.5"), ("--bins", "bins", "0"), ("--n", "n_synthetic", "0"),
    ])
    def test_flag_and_file_value_share_one_parser(self, workspace, capsys, flag, key, value):
        tmp_path, cfg_path = workspace
        assert cli.main(["generate", "--config", str(cfg_path), flag, value]) == 1
        from_flag = capsys.readouterr().err
        bad_cfg = write_config(tmp_path, tmp_path / "house.csv", **{key: value})
        assert cli.main(["generate", "--config", str(bad_cfg)]) == 1
        assert from_flag == capsys.readouterr().err
        assert key in from_flag and from_flag.count("\n") == 1, from_flag

    def test_library_configs_own_the_defaults(self):
        cfg = RunConfig()
        assert cfg.ingest_config() == IngestConfig()
        assert cfg.arch_config() == ArchConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.metrics_config() == MetricsConfig()
        assert config_hash(cfg) == "49723f2a69b9"

    @pytest.mark.parametrize(
        "library_cfg", [IngestConfig(), ArchConfig(), TrainConfig(), MetricsConfig()],
        ids=lambda c: type(c).__name__,
    )
    def test_library_configs_are_frozen(self, library_cfg):
        for f in fields(library_cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(library_cfg, f.name, getattr(library_cfg, f.name))

    def test_failed_config_write_keeps_previous_file(self, workspace, monkeypatch):
        _, cfg_path = workspace
        cfg = load_run_config(cfg_path)
        rd = run_dir(cfg)
        rd.mkdir(parents=True)
        write_effective_config(cfg, rd / "config.txt")
        before = {p.name: p.read_bytes() for p in rd.iterdir()}
        write_text = Path.write_text

        def fail_mid_write(self, text, **kwargs):
            write_text(self, text[: len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", fail_mid_write)
        cfg.epochs += 1
        with pytest.raises(OSError, match="disk full"):
            write_effective_config(cfg, rd / "config.txt")
        assert {p.name: p.read_bytes() for p in rd.iterdir()} == before

    def test_defaults_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ingest", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in RunConfig.__dataclass_fields__:
            assert key in text, f"config key {key} missing from --help"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert cli.main(["train", "--model", "nonsense"]) == 1

    def test_unknown_flag_is_1(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == 1

    def test_missing_file_is_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "absent.csv")
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["input_path", "evaluate_inputs", "config_file"])
    def test_directory_path_is_2_with_one_line(self, tmp_path, capsys, entry):
        folder = tmp_path / "folder"
        folder.mkdir()
        cfg_path = write_config(tmp_path, folder if entry == "input_path" else tmp_path / "a.csv")
        argv = {
            "input_path": ["ingest", "--config", str(cfg_path)],
            "evaluate_inputs": ["evaluate", "--config", str(cfg_path), str(folder), str(folder)],
            "config_file": ["ingest", "--config", str(folder)],
        }[entry]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(folder) in err and "Traceback" not in err

    def test_no_command_is_1(self, capsys):
        assert cli.main([]) == 1


class TestPipeline:
    def test_full_chain(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "kept days: 3" in out

        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()

        cfg = load_run_config(cfg_path)
        rd = run_dir(cfg)
        for artifact in (
            "config.txt", cli.DAYMATRIX_CSV, cli.CHECKPOINT, cli.TRAINLOG_CSV,
            cli.SYNTH_CSV, cli.REPORT_JSON, cli.HISTOGRAM_CSV,
        ):
            assert (rd / artifact).exists(), artifact

        report_path = rd / cli.REPORT_JSON
        out_dir = str(tmp_path / "cmp")
        assert cli.main(["report", str(report_path), str(report_path), "--out", out_dir]) == 0
        table = capsys.readouterr().out
        assert "model" in table and "wasserstein" in table
        comparison = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "model,kl,wasserstein,mmd"
        assert len(comparison) == 3

    def test_ingest_idempotent(self, workspace, capsys):
        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        first = (run_dir(cfg) / cli.DAYMATRIX_CSV).read_bytes()
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        second = (run_dir(cfg) / cli.DAYMATRIX_CSV).read_bytes()
        assert first == second

    def test_train_without_ingest_is_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "1234"]) == 2

    def test_models_produce_distinct_checkpoints(self, workspace, capsys):
        _, cfg_path = workspace
        from gridsynth import nets

        for model in ("vaegan", "gan"):
            assert cli.main(["ingest", "--config", str(cfg_path), "--model", model]) == 0
            assert cli.main(["train", "--config", str(cfg_path), "--model", model]) == 0
        cfg_v = load_run_config(cfg_path, {"model": "vaegan"})
        cfg_g = load_run_config(cfg_path, {"model": "gan"})
        assert run_dir(cfg_v) != run_dir(cfg_g)
        ck_v = nets.load_checkpoint(run_dir(cfg_v) / cli.CHECKPOINT)
        ck_g = nets.load_checkpoint(run_dir(cfg_g) / cli.CHECKPOINT)
        assert ck_v.kind == "vaegan" and ck_g.kind == "gan"
        assert ck_v.seed == ck_g.seed == 7

    def test_self_evaluation_near_zero(self, workspace, capsys):
        import json

        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        matrix_path = str(run_dir(cfg) / cli.DAYMATRIX_CSV)
        assert cli.main(["evaluate", "--config", str(cfg_path), matrix_path, matrix_path]) == 0
        capsys.readouterr()
        report = json.loads((run_dir(cfg) / cli.REPORT_JSON).read_text())
        assert report["kl"] < 1e-9
        assert report["wasserstein"] == 0.0
        assert report["mmd"] < 1e-9

    def test_resume_flag(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        ckpt = run_dir(cfg) / cli.CHECKPOINT
        # same epochs as the checkpoint: nothing further to train, still exit 0
        assert cli.main(["train", "--config", str(cfg_path), "--resume", str(ckpt)]) == 0


class TestReportFlags:
    @pytest.mark.parametrize("flag,value", [
        ("--config", "nonexistent.cfg"), ("--model", "gan"), ("--seed", "3"), ("--bins", "7"),
        ("--sigma", "nan"),
    ])
    def test_run_flag_on_report_is_1(self, tmp_path, capsys, flag, value):
        from gridsynth.metrics import full_report

        rng = np.random.default_rng(0)
        full_report(rng.uniform(0, 500, (4, 96)), rng.uniform(0, 500, (4, 96))).save(
            tmp_path / "r.json")
        capsys.readouterr()
        argv = ["report", flag, value, str(tmp_path / "r.json"), "--out", str(tmp_path / "cmp")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1 and flag in err, err
        assert not (tmp_path / "cmp").exists()
        assert cli.main(["report", str(tmp_path / "r.json"), "--out", str(tmp_path / "cmp")]) == 0


class TestMalformedArtifacts:
    @pytest.mark.parametrize("target,how", [
        (cli.DAYMATRIX_CSV, "non_numeric"),
        (cli.SYNTH_CSV, "non_numeric"),
        (cli.SYNTH_CSV, "empty"),
    ])
    def test_corrupt_matrix_evaluate_is_2(self, workspace, capsys, target, how):
        _, cfg_path = workspace
        for command in ("ingest", "train", "generate"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        corrupt_matrix_csv(run_dir(load_run_config(cfg_path)) / target, how)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 2
        assert target in capsys.readouterr().err

    def test_not_utf8_input_csv_is_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        insert_non_utf8(tmp_path / "house.csv")
        capsys.readouterr()
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "house.csv: not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("target", [
        cli.DAYMATRIX_CSV, cli.SYNTH_CSV, cli.DAYMATRIX_CSV + ".meta", cli.SYNTH_CSV + ".meta",
    ])
    def test_not_utf8_artifact_evaluate_is_2(self, workspace, capsys, target):
        _, cfg_path = workspace
        for command in ("ingest", "train", "generate"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        insert_non_utf8(run_dir(load_run_config(cfg_path)) / target)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{target}: not UTF-8" in err and "Traceback" not in err

    def test_garbage_resume_checkpoint_is_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(np.random.default_rng(0).bytes(300))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path), "--resume", str(garbage)]) == 2
        assert "garbage.npz" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("rng_state", None), ("rng_state", {"bit_generator": "PCG64"}), ("epoch", "1"),
    ], ids=["rng_state_null", "rng_state_without_state", "epoch_string"])
    def test_resume_checkpoint_with_mistyped_meta_is_2(self, workspace, capsys, key, value):
        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        ckpt = run_dir(load_run_config(cfg_path)) / cli.CHECKPOINT
        rewrite_checkpoint(ckpt, **{key: value})
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path), "--resume", str(ckpt)]) == 2
        assert key in capsys.readouterr().err

    def test_resume_from_other_model_kind_is_2(self, workspace, capsys):
        _, cfg_path = workspace
        for model in ("vaegan", "gan"):
            assert cli.main(["ingest", "--config", str(cfg_path), "--model", model]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        ckpt = run_dir(load_run_config(cfg_path)) / cli.CHECKPOINT
        capsys.readouterr()
        argv = ["train", "--config", str(cfg_path), "--model", "gan", "--resume", str(ckpt)]
        assert cli.main(argv) == 2
        assert "checkpoint is for 'vaegan'" in capsys.readouterr().err

    def _resume_other_run(self, tmp_path, capsys, csv_seed=0, **b_overrides):
        """Train run A (the workspace config), then resume run B from A's
        checkpoint; returns (exit code, stderr, B's run dir)."""
        cfg_a = write_config(tmp_path, tmp_path / "house.csv")
        assert cli.main(["ingest", "--config", str(cfg_a)]) == 0
        assert cli.main(["train", "--config", str(cfg_a)]) == 0
        ckpt = run_dir(load_run_config(cfg_a)) / cli.CHECKPOINT
        other = tmp_path / "b"
        other.mkdir()
        cfg_b = write_config(other, make_raw_csv(other / "house.csv", seed=csv_seed),
                             out_dir=tmp_path / "runs", **b_overrides)
        assert cli.main(["ingest", "--config", str(cfg_b)]) == 0
        rd_b = run_dir(load_run_config(cfg_b))
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg_b), "--resume", str(ckpt)])
        return code, capsys.readouterr().err, rd_b

    def test_resume_with_other_arch_is_2(self, workspace, capsys):
        code, err, rd_b = self._resume_other_run(workspace[0], capsys, channels=4)
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "channels 3 vs 4" in err
        assert not list(rd_b.glob("*.npz"))

    def test_resume_on_other_data_is_2(self, workspace, capsys):
        code, err, rd_b = self._resume_other_run(workspace[0], capsys, csv_seed=1)
        assert code == 2
        assert err.startswith("data error: ") and "normalization" in err and "norm_min" in err
        assert not list(rd_b.glob("*.npz"))

    def test_day_matrix_without_normalization_is_2(self, workspace, capsys):
        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        sidecar = run_dir(load_run_config(cfg_path)) / (cli.DAYMATRIX_CSV + ".meta")
        lines = sidecar.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if not line.startswith(("norm_min", "norm_max"))]
        assert len(kept) == len(lines) - 2
        sidecar.write_text("\n".join(kept) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "normalized" in capsys.readouterr().err
        matrix = str(sidecar.with_suffix(""))
        assert cli.main(["evaluate", "--config", str(cfg_path), matrix, matrix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert cli.DAYMATRIX_CSV in err and "normalization" in err
        assert not (run_dir(load_run_config(cfg_path)) / cli.REPORT_JSON).exists()

    @pytest.mark.parametrize("damage", [
        "truncated", "not_utf8", "not_object", "unknown_key", "missing_key", "wrong_type",
        "no_schema", "foreign_schema",
    ])
    def test_damaged_report_is_2(self, tmp_path, capsys, damage):
        from gridsynth.metrics import full_report

        rng = np.random.default_rng(0)
        report = full_report(rng.uniform(0, 500, (4, 96)), rng.uniform(0, 500, (4, 96)))
        path = tmp_path / "report.json"
        report.save(path)
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text)
        if damage == "truncated":
            path.write_text(text[: len(text) // 2], encoding="utf-8")
        elif damage == "not_utf8":
            path.write_bytes(b"\xff\xfe" + text.encode("utf-8"))
        else:
            if damage == "not_object":
                raw = [raw]
            elif damage == "unknown_key":
                raw["extra"] = 1
            elif damage == "missing_key":
                del raw["mmd"]
            elif damage == "wrong_type":
                raw["kl"] = "0.1"
            elif damage == "no_schema":
                del raw["schema"]
            else:
                raw["schema"] = "gridsynth.metrics/99"
            path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["report", str(path), "--out", str(tmp_path / "cmp")]) == 2
        assert "report.json" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("failing", ["comparison.txt", "comparison.csv"])
    def test_failed_comparison_write_keeps_previous_file(self, tmp_path, capsys, monkeypatch,
                                                         failing):
        from gridsynth.metrics import full_report

        rng = np.random.default_rng(0)
        full_report(rng.uniform(0, 500, (4, 96)), rng.uniform(0, 500, (4, 96))).save(
            tmp_path / "report.json")
        out = tmp_path / "cmp"
        assert cli.cmd_report([tmp_path / "report.json"], out_dir=out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_text = Path.write_text

        def fail_midway(path, text, **kw):
            if path.name.startswith(f".{failing}."):
                write_text(path, text[: len(text) // 2], **kw)
                raise OSError("disk full")
            return write_text(path, text, **kw)

        monkeypatch.setattr(Path, "write_text", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            cli.cmd_report([tmp_path / "report.json"] * 2, out_dir=out)
        assert (out / failing).read_bytes() == before[failing]
        assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "comparison.txt"]


class TestEvaluateProvenance:
    """evaluate refuses a synthetic file that does not belong to the day matrix."""

    @pytest.fixture
    def synthetic(self, workspace):
        _, cfg_path = workspace
        for command in ("ingest", "train", "generate"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
        return run_dir(load_run_config(cfg_path)) / cli.SYNTH_CSV

    def _evaluate_other(self, tmp_path, synthetic, capsys, csv_seed, **overrides):
        other = tmp_path / "other"
        other.mkdir()
        cfg_path = write_config(other, make_raw_csv(other / "house.csv", seed=csv_seed), **overrides)
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        rd = run_dir(load_run_config(cfg_path))
        capsys.readouterr()
        argv = ["evaluate", "--config", str(cfg_path), str(rd / cli.DAYMATRIX_CSV), str(synthetic)]
        assert cli.main(argv) == 2
        assert not (rd / cli.REPORT_JSON).exists()
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        return err, rd

    def test_kind_mismatch_is_2(self, workspace, synthetic, capsys):
        # the same readings ingested as PV: equal normalization, other kind
        err, _ = self._evaluate_other(workspace[0], synthetic, capsys, csv_seed=0, kind="pv")
        assert "kind is 'pv'" in err and "but 'load'" in err

    def test_norm_mismatch_is_2(self, workspace, synthetic, capsys):
        # another house's day matrix: the synthetic days carry other extrema
        err, rd = self._evaluate_other(workspace[0], synthetic, capsys, csv_seed=1)
        real = load_day_matrix(rd / cli.DAYMATRIX_CSV).norm_min
        fake = float(read_kv_file(str(synthetic) + ".meta")["norm_min"])
        assert real != fake
        assert f"norm_min is {real!r}" in err and f"but {fake!r}" in err

    def test_kind_other_than_config_is_2(self, workspace, capsys):
        # a PV day matrix and its PV synthetic days, scored under a load config
        tmp_path, _ = workspace
        pv_cfg = write_config(tmp_path, tmp_path / "house.csv", kind="pv")
        for command in ("ingest", "train", "generate"):
            assert cli.main([command, "--config", str(pv_cfg)]) == 0
        rd = run_dir(load_run_config(pv_cfg))
        load_cfg = write_config(tmp_path, tmp_path / "house.csv")
        capsys.readouterr()
        argv = ["evaluate", "--config", str(load_cfg), str(rd / cli.DAYMATRIX_CSV),
                str(rd / cli.SYNTH_CSV)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert f"kind is 'pv' in {rd / cli.DAYMATRIX_CSV} but 'load' in the config" in err
        assert not (run_dir(load_run_config(load_cfg)) / cli.REPORT_JSON).exists()

    @pytest.mark.parametrize("schema", [None, "gridsynth.daymatrix/2", "daymatrix"])
    def test_day_matrix_without_known_schema_is_2(self, workspace, synthetic, capsys, schema):
        # without the schema line the normalized values used to be scored as watts
        sidecar = Path(str(synthetic.with_name(cli.DAYMATRIX_CSV)) + ".meta")
        lines = [line for line in sidecar.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("schema")]
        if schema is not None:
            lines.insert(0, f"schema = {schema}")
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(workspace[1])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "schema" in err and cli.DAYMATRIX_CSV in err

    def test_non_numeric_norm_is_2(self, workspace, synthetic, capsys):
        sidecar = Path(str(synthetic) + ".meta")
        lines = sidecar.read_text(encoding="utf-8").splitlines()
        lines = ["norm_max = many" if line.startswith("norm_max") else line for line in lines]
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(workspace[1])]) == 2
        assert "norm_max must be a number" in capsys.readouterr().err


MATRIX_FILES = tuple(
    name + suffix for name in (cli.DAYMATRIX_CSV, cli.SYNTH_CSV) for suffix in ("", ".meta")
)


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    """(config path, run dir, the bytes of each of MATRIX_FILES) of a
    100-day ingest, train and generate. The matrix files are larger than the
    csv module's 128 KiB field limit, so a stray quote can overrun it."""
    tmp_path = tmp_path_factory.mktemp("matrix_fuzz")
    cfg_path = write_config(tmp_path, make_raw_csv(tmp_path / "house.csv", n_days=100),
                            batch_size=50, n_synthetic=100)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("ingest", "train", "generate"):
            assert cli.main([command, "--config", str(cfg_path)]) == 0
    rd = run_dir(load_run_config(cfg_path))
    return cfg_path, rd, {name: (rd / name).read_bytes() for name in MATRIX_FILES}


def _truncated(data, draw):
    return data[: draw(st.integers(0, len(data) - 1))]


def _byte_flipped(data, draw):
    damaged = bytearray(data)
    flips = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255))
    for at, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        damaged[at] ^= mask
    return bytes(damaged)


def _garbled(data, draw):
    # a span replaced by text rich in what CSV, floats and key = value lines
    # parse, often at the start of a field, where a quote opens a quoted one
    at = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        boundary = re.compile(rb"[,\n]").search(data, at)
        at = boundary.end() if boundary else at
    end = draw(st.integers(at, min(len(data), at + 12)))
    lead = draw(st.sampled_from(['"', ",", "\n", "=", "#", "e", "-", "\x00", ""]))
    text = lead + draw(st.text(alphabet='"0123456789.,-e\n= #infa\x00\u00e9', max_size=6)
                       | st.text(max_size=4))
    return data[:at] + text.encode("utf-8") + data[end:]


def _transcoded(data, draw):
    text = data.decode("utf-8")
    encoding = draw(st.sampled_from(["utf-16", "utf-32", "utf-8-sig", "cp1252", "crlf"]))
    if encoding == "crlf":
        return text.replace("\n", "\r\n").encode("utf-8")
    return text.encode(encoding)


class TestMatrixFuzz:
    """Damaged day matrices, synthetic CSVs and their .meta files load or
    raise DataError; evaluate on them exits 0 or 2 with one line, never with
    an uncaught exception."""

    @pytest.mark.parametrize("target", MATRIX_FILES)
    @pytest.mark.parametrize("damage", [_truncated, _byte_flipped, _garbled, _transcoded],
                             ids=["truncated", "byte_flipped", "garbled", "transcoded"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_damaged_matrix_file(self, matrix_run, target, damage, data):
        cfg_path, rd, good = matrix_run
        for name, content in good.items():
            (rd / name).write_bytes(content)
        (rd / target).write_bytes(damage(good[target], data.draw))
        try:
            if target.startswith(cli.DAYMATRIX_CSV):
                load_day_matrix(rd / cli.DAYMATRIX_CSV)
            else:
                synth.load_exported(rd / cli.SYNTH_CSV)
        except DataError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["evaluate", "--config", str(cfg_path)])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("data error: ") and err.getvalue().count("\n") == 1


class TestGenerateFlags:
    def test_n_flag_controls_rows(self, workspace, capsys):
        _, cfg_path = workspace
        assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert cli.main(["generate", "--config", str(cfg_path), "--n", "6"]) == 0
        cfg = load_run_config(cfg_path, {"n_synthetic": 6})
        rows = (run_dir(cfg) / cli.SYNTH_CSV).read_text().splitlines()
        assert len(rows) == 7  # header + 6 days
