"""The comparison runner: worker results equal in-process ones, in job order."""
import multiprocessing
import os

import pytest

from gridsynth import compare, nets, toydata

TINY = nets.ArchConfig(latent_dim=4, channels=4, dilations=(1, 2))


@pytest.fixture(scope="module")
def data():
    return toydata.sinusoid_day_matrix(40, seed=3)


@pytest.mark.parametrize("blas_threads", [None, "3"])
def test_run_matches_in_process_scores_and_restores_env(data, monkeypatch, blas_threads):
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    jobs = [
        (kind, compare.comparison_config(seed, epochs=2), TINY)
        for seed in (4, 5) for kind in compare.KINDS
    ]
    results = compare.run(data, jobs)
    assert os.environ.get("OPENBLAS_NUM_THREADS") == blas_threads
    assert len(results) == len(jobs)
    for (kind, cfg, arch), (report, log, wall) in zip(jobs, results):
        want_report, want_log, _ = compare.score(kind, data, cfg, arch)
        assert report.model == kind
        assert report.to_json() == want_report.to_json()
        assert log.steps == want_log.steps
        assert wall > 0


def test_failing_job_raises_and_leaves_no_worker(data):
    jobs = [("vaegan", compare.comparison_config(0, epochs=1), TINY), ("nope", None, TINY)]
    with pytest.raises(KeyError, match="nope"):
        compare.run(data, jobs)
    assert multiprocessing.active_children() == []
