"""Per equation, how far a chain's Markov-switching indicators move from their warm start.

    python3 tools/regime_trace.py --src src
    python3 tools/regime_trace.py --src src --seeds 1-5 --iterations 40,400

Fits the ``estimate`` workload's model, a TVP-MIX FLEX-MS VAR(2), to
``generate_var_break(T=200, seed)`` standardized, with the data seed as
the estimation seed and a burn-in of 20 sweeps (as the workload's config
sets them), once per seed and chain length.  The package comes from
``--src``.  ``sampler.sample_indicators_ms`` is wrapped so that every
regime path S it returns is kept; the chains draw as they do unwrapped.
The warm start of S is the segmentation of ``sampler.best_single_split``:
regime 1 before the split, regime 0 from it.  Per equation the table
gives:

- ``split``: the warm start's split period;
- ``distinct``: the distinct S paths over the sweeps;
- ``at_warm``: the sweeps whose S equals the warm start;
- ``moves``: the sweeps whose S differs from the one before (the first
  sweep's from the warm start);
- ``switches``: the fewest and most regime switches in time
  (t with s_t != s_{t-1}) of one sweep's S.

BLAS is pinned to one thread before numpy is imported.  Only the
indicator draw is wrapped; no sampler code is changed.
"""

from __future__ import annotations

import argparse
import os
import sys

# the estimate workload's burn-in: its sweeps adapt the proposal scales
BURNIN = 20


def parse_list(text: str) -> list[int]:
    """Integers from "1-5" (inclusive) or "40,400", or a mix of both."""
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        out.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return out


def trace(seed: int, iterations: int) -> list[dict]:
    """One row per equation of the chain at ``seed`` with ``iterations`` sweeps."""
    import numpy as np

    import mixtvp.sampler as sampler
    from mixtvp.dgp import generate_var_break
    from mixtvp.io import standardize
    from mixtvp.var import estimate_var, split_equations

    spec = sampler.ModelSpec(
        model_class=sampler.CLASS_MIX,
        subclass=sampler.SUB_FLEX_MS,
        p=2,
        iterations=iterations,
        burnin=min(BURNIN, iterations - 1),
        store_paths=False,
    )
    Y, _, _ = standardize(generate_var_break(T=200, seed=seed).Y)
    drawn = []
    real = sampler.sample_indicators_ms

    def recording(*args, **kwargs):
        s = real(*args, **kwargs)
        drawn.append(np.array(s))
        return s

    sampler.sample_indicators_ms = recording
    try:
        estimate_var(Y, spec, seed=seed)
    finally:
        sampler.sample_indicators_ms = real
    rows = []
    # the equations' chains run one after the other, one draw per sweep
    for i, (y, x) in enumerate(split_equations(Y, spec.p)):
        paths = drawn[i * iterations : (i + 1) * iterations]
        split = sampler.best_single_split(y, x)
        warm = np.ones(len(y), dtype=paths[0].dtype)
        if split is not None:
            warm[split:] = 0
        switches = [int(np.count_nonzero(np.diff(s))) for s in paths]
        rows.append(
            {
                "eq": i + 1,
                "split": split,
                "distinct": len({s.tobytes() for s in paths}),
                "at_warm": sum(np.array_equal(s, warm) for s in paths),
                "moves": sum(not np.array_equal(s, b) for s, b in zip(paths, [warm] + paths[:-1])),
                "switches": f"{min(switches)}-{max(switches)}",
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the mixtvp package")
    parser.add_argument("--seeds", default="1-5", help='data and chain seeds, e.g. "1-5" or "1,3"')
    parser.add_argument("--iterations", default="40,400", help='chain lengths, e.g. "40,400"')
    args = parser.parse_args(argv)
    # before numpy is first imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import mixtvp

    print(f"package {os.path.dirname(mixtvp.__file__)}, TVP-MIX FLEX-MS, p = 2, T = 200, one BLAS thread")
    print("iterations seed eq split distinct at_warm moves switches")
    for iterations in parse_list(args.iterations):
        for seed in parse_list(args.seeds):
            for row in trace(seed, iterations):
                print(
                    f"{iterations:10d} {seed:4d} {row['eq']:2d} {row['split']!s:>5} {row['distinct']:8d} "
                    f"{row['at_warm']:7d} {row['moves']:5d} {row['switches']:>8}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
