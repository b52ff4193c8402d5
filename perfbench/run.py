"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports the package from ``src/``.
Set-up (import, generated inputs and, for ``posterior``, the store) runs
several times and reports its median. The timed job then repeats with
the same seed until ``--seconds`` have passed and the median repetition
is reported; every repetition's outputs are checked and must hash to the
same digest. Times are reported at reference speed (``pace.py``): a
fixed probe job runs around each set-up and around and inside each
repetition, so that the shared host's wandering speed does not read as a
change of the program. With ``--trace 1`` every other repetition runs
with spans wrapped around the package's layers, and the per-layer
metrics come from those repetitions only.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import TARGETS, layer_metrics  # noqa: E402
from pace import Pace, at_reference  # noqa: E402
from spans import Tracer, installed  # noqa: E402

SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
# times the import, then gauges the host's speed in the same process
IMPORT_PROBE = """
import time
t = time.perf_counter()
import mixtvp
wall = time.perf_counter() - t
from pace import probe
print(wall, *(probe()[1] for _ in range(5)))
"""
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import(src: Path) -> tuple[float, float]:
    """``import mixtvp`` in a fresh interpreter, as a user pays it: its wall
    seconds as they are and at reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    wall, *probe_cpu = map(float, proc.stdout.split())
    return wall, at_reference(wall, probe_cpu)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "pinned": PINNED,
    }


def set_up(workload, base: Path, seed: int, src: Path):
    """Median set-up seconds at reference speed over SETUP_REPEATS, the raw
    median, and the last context."""
    raw, times = [], []
    ctx = None
    for i in range(SETUP_REPEATS):
        work = base / f"setup{i}"
        work.mkdir()
        with Pace() as pace:
            ctx = workload.prepare(work, seed)
        import_wall, import_scaled = fresh_import(src)
        raw.append(pace.wall + import_wall)
        times.append(pace.scaled() + import_scaled)
    return statistics.median(times), statistics.median(raw), ctx


@dataclass
class Measurement:
    """What the timed repetitions of one run produced."""

    tracer: Tracer = field(default_factory=Tracer)
    # (traced, wall seconds, wall seconds at reference speed, numeric job results)
    reps: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)

    def walls(self, traced: bool, at_reference: bool = True) -> list[float]:
        return [ref if at_reference else wall
                for t, wall, ref, _ in self.reps if t == traced]

    def throughput(self, work_key: str, time_key: str | None = None) -> float | None:
        """Median over untraced repetitions of work done per (raw) second."""
        rates = [
            r[work_key] / (r[time_key] if time_key else wall)
            for traced, wall, _, r in self.reps
            if not traced and work_key in r
        ]
        return statistics.median(rates) if rates else None


def measure(workload, ctx, base: Path, seconds: float, trace: bool) -> Measurement:
    """Repeat the timed job until ``seconds`` pass; check every repetition."""
    m = Measurement()
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(m.reps) % 2 == 1
        out = base / f"rep{len(m.reps)}"
        m.attempted += ctx.ops
        # no probes inside a traced repetition: its spans would count them
        pace = Pace(during=not traced)
        try:
            with pace:
                if traced:
                    with installed(m.tracer, TARGETS) as m.missing:
                        result = workload.run(ctx, out)
                else:
                    result = workload.run(ctx, out)
        except Exception:  # a job that raises fails all of its operations
            m.reps.append((traced, pace.wall, pace.scaled(), {}))
            m.failed += ctx.ops
            m.problems.append(traceback.format_exc(limit=3))
        else:
            m.failed += min(ctx.ops, _check(workload, ctx, out, result, m))
            numbers = {k: v for k, v in result.items() if isinstance(v, (int, float))}
            m.reps.append((traced, pace.wall, pace.scaled(), numbers))
        shutil.rmtree(out, ignore_errors=True)
        if perf_counter() >= deadline and (not trace or m.walls(True)):
            return m


def _check(workload, ctx, out: Path, result: dict, m: Measurement) -> int:
    """Failed operations of one repetition, its digest compared with the first."""
    try:
        outcome = workload.check(ctx, out, result)
        digest = workload.digest(ctx, out, result)
    except Exception:  # unreadable output fails the whole job
        m.problems.append(traceback.format_exc(limit=3))
        return ctx.ops
    m.digests.append(digest)
    if digest != m.digests[0]:
        m.problems.append(f"repetition {len(m.reps)}: digest differs from the first")
        return ctx.ops
    m.problems += outcome.problems
    m.info.update(outcome.info)
    return outcome.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "mixtvp" / "__init__.py").is_file():
        print("perfbench: no src/mixtvp here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        setup_s, setup_raw_s, ctx = set_up(workload, base, args.seed, src)
        m = measure(workload, ctx, base, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    wall_s = statistics.median(m.walls(False))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "digest": m.digests[0] if m.digests else None,
        "walls_s": [wall for _, wall, _, _ in m.reps],
        "walls_at_reference_s": [ref for _, _, ref, _ in m.reps],
        "wall_s": wall_s,
        "wall_raw_s": statistics.median(m.walls(False, at_reference=False)),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "sweeps_per_s": m.throughput("sweeps"),
        "spectral_draws_per_s": m.throughput("spectral_draws", "spectral_s"),
        "predictive_paths_per_s": m.throughput("predictive_paths", "predictive_s"),
        "failed_frac": m.failed / m.attempted,
        **m.info,
        "problems": m.problems[:20],
    }
    if args.trace:
        # raw times: the two kinds of repetition alternate, so the host's
        # phases weigh on both alike, and only untraced ones carry probes
        overhead = (statistics.median(m.walls(True, at_reference=False))
                    / record["wall_raw_s"])
        metrics = layer_metrics(m.tracer, m.missing, overhead)
        record["missing"] = m.missing
        record["spans"] = [[s.name, s.site, s.start, s.end, s.parent] for s in m.tracer.spans]
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_root / name).write_text(json.dumps(record))
    summary = {k: v for k, v in record.items() if k != "spans"}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
