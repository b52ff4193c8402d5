"""Tiny-size runs of each workload, through the same loop the benchmark uses."""

import numpy as np
import pytest

import run
from layers import layer_metrics
from workloads import Estimate, Forecast, Posterior

TINY = {
    "estimate": lambda: Estimate(T=80, iterations=30, burnin=15),
    "forecast": lambda: Forecast(T=60, p=2, origins=4, iterations=6, burnin=3, nsim=10),
    "posterior": lambda: Posterior(T=60, iterations=10, burnin=5, horizon=2, nsim=20),
}


def _measure(workload, tmp_path, trace=False):
    ctx = workload.prepare(tmp_path, seed=3)
    return ctx, run.measure(workload, ctx, tmp_path, seconds=0.0, trace=trace)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_passes_its_checks(name, tmp_path):
    ctx, m = _measure(TINY[name](), tmp_path, trace=True)
    assert [traced for traced, *_ in m.reps] == [False, True]
    assert (m.attempted, m.failed, m.problems, m.missing) == (2 * ctx.ops, 0, [], [])
    assert len(m.digests) == 2 and m.digests[0] == m.digests[1]
    metrics = layer_metrics(m.tracer, m.missing, overhead=1.0)
    sweeps = metrics["sampler.sweep_calls"][0]
    if name == "posterior":
        assert sweeps == 0
        assert metrics["spectral.companion_calls"][0] > 0
        assert m.info["excluded_unstable"] >= 0
    else:
        assert sweeps > 0
        assert metrics["statespace.draw_calls"][0] > 0
    assert all(np.isfinite(v) for v, _ in metrics.values())


def test_changed_seed_changes_the_digest(tmp_path):
    workload = TINY["estimate"]()
    out = []
    for seed in (3, 4):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        ctx = workload.prepare(work, seed)
        result = workload.run(ctx, work / "out")
        out.append(workload.digest(ctx, work / "out", result))
    assert out[0] != out[1]


def _corrupt_estimate(out):
    path = out / "eq2" / "alpha.bin"
    raw = bytearray(path.read_bytes())
    raw[:8] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(raw))


def _corrupt_forecast(out):
    path = out / "scores_model.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _corrupt_posterior(out):
    path = out / "lowfreq_1_2.csv"
    lines = path.read_text().splitlines()
    t = lines[5].split(",")[0]
    lines[5] = f"{t},nan,0,1"
    path.write_text("\n".join(lines) + "\n")


CORRUPT = {
    "estimate": _corrupt_estimate,
    "forecast": _corrupt_forecast,
    "posterior": _corrupt_posterior,
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_is_counted_as_failed(name, tmp_path):
    workload = TINY[name]()
    job = workload.run

    def corrupting_run(ctx, out):
        result = job(ctx, out)
        CORRUPT[name](out)
        return result

    workload.run = corrupting_run
    ctx, m = _measure(workload, tmp_path)
    assert (m.attempted, m.failed, len(m.problems)) == (ctx.ops, 1, 1)


def test_digest_mismatch_between_repetitions_fails_the_job(tmp_path):
    workload = TINY["estimate"]()
    job = workload.run
    calls = []

    def drifting_run(ctx, out):
        result = job(ctx, out)
        calls.append(out)
        (out / "drift.txt").write_text(str(len(calls)))
        return result

    workload.run = drifting_run
    ctx, m = _measure(workload, tmp_path, trace=True)
    assert (m.attempted, m.failed) == (2 * ctx.ops, ctx.ops)
    assert "digest differs" in m.problems[-1]


def test_a_job_that_raises_fails_all_its_operations(tmp_path):
    workload = TINY["posterior"]()

    def broken_run(ctx, out):
        raise np.linalg.LinAlgError("broken")

    workload.run = broken_run
    ctx, m = _measure(workload, tmp_path)
    assert m.attempted == m.failed == ctx.ops
    assert "LinAlgError" in m.problems[0]


def test_a_refused_cli_command_fails_all_its_operations(tmp_path):
    workload = TINY["posterior"]()
    ctx = workload.prepare(tmp_path, seed=3)
    ctx.config.write_text(ctx.config.read_text().replace("pair = 1, 2\n", ""))
    m = run.measure(workload, ctx, tmp_path, seconds=0.0, trace=False)
    assert m.attempted == m.failed == ctx.ops
    assert "config needs pair" in m.problems[0]
