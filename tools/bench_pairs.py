"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload forecast \
        --seeds 1101-1110 --seconds 20 --out BENCH_pairs.json

Run it from anywhere inside the repository.  The parent ref is exported
with ``git archive`` into a temporary directory; the change side is the
working tree.  For every seed both sides run ``perfbench/run.py --workload W --seed N --seconds S
--trace 0`` from their own root, one right after the other: pair i runs
the parent first when i is even and the change first when it is odd, so
that a drift of the shared host's speed weighs on both sides alike.

The output JSON holds, per workload and end-to-end metric, each side's
values, median and quartiles, the pairs the change won, the gap between
the medians against the parent's quartile spread, and the digests and
failed operations of every run, plus the library versions the runs
reported.  Every metric ``perfbench/run.py`` reports (``setup_s``,
``wall_s``, ``peak_rss_mb``) is better lower, and is compared so.

Each run record's throughputs (``sweeps_per_s``, ``spectral_draws_per_s``,
``predictive_paths_per_s``) are copied under ``rates`` as per-side values
and medians.  They are informational and not compared: they time only a
part of the job, so they show which part of a workload moved, not whether
the workload did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# throughputs of a run record, higher is better, reported but not compared
RATES = ("sweeps_per_s", "spectral_draws_per_s", "predictive_paths_per_s")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1101-1110" (inclusive) or "5,7,9", or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        span = range(int(lo), int(hi) + 1) if sep else [int(lo)]
        if not span:
            raise ValueError(f"empty seed range {part!r}")
        seeds.extend(span)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {text!r} repeat")
    return seeds


def run_order(pair: int) -> tuple[str, str]:
    """The order in which the two sides run in pair ``pair`` (0-based)."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def side_stats(values: list[float]) -> dict:
    """Median and quartiles, interpolated linearly between order statistics."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float]) -> dict:
    """Compare paired runs of a lower-is-better metric; pair i is (parent[i], change[i]).

    A pair is won when the change is strictly lower.  ``median_gap`` is
    how far the change's median is below the parent's (negative when it
    is above), ``parent_iqr`` the parent's quartile spread.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    old, new = side_stats(parent), side_stats(change)
    gap = old["median"] - new["median"]
    iqr = old["q3"] - old["q1"]
    return {
        "parent": old,
        "change": new,
        "pairs": len(parent),
        "wins": sum(c < p for p, c in zip(parent, change)),
        "median_gap": gap,
        "relative_gap": gap / old["median"] if old["median"] else None,
        "parent_iqr": iqr,
        "gap_exceeds_parent_iqr": gap > iqr,
    }


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(repo: Path, ref: str, dest: Path) -> Path:
    """The committed files of ``ref`` under ``dest``, as ``git archive`` gives them."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", ref], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run from ``root``: its metrics and checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"run.py failed in {root} ({workload}, seed {seed}):\n{proc.stderr[-2000:]}"
        )
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": record["digest"],
        "rates": {name: record.get(name) for name in RATES},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "environment": record["environment"],
    }


def rate_stats(values: list) -> dict:
    """Per-run values of a throughput and their median; a workload without it gives None."""
    present = [v for v in values if v is not None]
    return {"values": values, "median": statistics.median(present) if present else None}


def report(runs: dict, seeds: list[int]) -> dict:
    """Per-workload summaries of ``runs[workload][side]``, lists of ``run_once`` results."""
    out = {}
    for workload, sides in runs.items():
        names = sides["parent"][0]["metrics"].keys()
        out[workload] = {
            "seeds": seeds,
            "first": [run_order(i)[0] for i in range(len(seeds))],
            "metrics": {
                name: summarize(
                    [r["metrics"][name] for r in sides["parent"]],
                    [r["metrics"][name] for r in sides["change"]],
                )
                for name in names
            },
            "rates": {
                "compared": False,
                **{
                    name: {
                        side: rate_stats([r["rates"][name] for r in sides[side]])
                        for side in SIDES
                    }
                    for name in RATES
                },
            },
            "digests": {side: [r["digest"] for r in sides[side]] for side in SIDES},
            "failed": {side: [r["failed"] for r in sides[side]] for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", required=True, help='e.g. "1101-1110" or "5,7,9"')
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    sides_meta = {
        "parent": {"ref": args.parent, "commit": _git(repo, "rev-parse", args.parent)},
        "change": {"ref": "working tree", "head": _git(repo, "rev-parse", "HEAD"),
                   "dirty": bool(_git(repo, "status", "--porcelain", "--untracked-files=no"))},
    }
    runs = {w: {side: [] for side in SIDES} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": export(repo, args.parent, Path(tmp) / "parent"), "change": repo}
        for workload in args.workload:
            for i, seed in enumerate(seeds):
                for side in run_order(i):
                    result = run_once(roots[side], workload, seed, args.seconds)
                    runs[workload][side].append(result)
                    print(f"{workload} seed {seed} {side}: {result['metrics']}", file=sys.stderr)
    environments = {side: runs[args.workload[0]][side][0]["environment"] for side in SIDES}
    out = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)]),
        "seconds": args.seconds,
        "sides": sides_meta,
        "environment": environments,
        "workloads": report(runs, seeds),
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
