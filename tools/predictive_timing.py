"""Milliseconds per predictive call, and traced bytes over its output, at several shapes.

    python3 tools/predictive_timing.py --src src
    python3 tools/predictive_timing.py --src /path/to/other/checkout/src

Times ``mixtvp.var.simulate_predictive`` from the package under ``--src``
at horizon 8 on a FLEX-MS (TVP-MIX) VAR(2) estimate with 30 records, at
each (m, nsim) in ``SHAPES``.  The m = 3 estimate is fitted to
``generate_var_break(T=200, seed=1)``, as the ``posterior`` workload's
store is; the m = 8 one to a stable VAR(2) panel simulated here.  BLAS is
pinned to one thread, as the benchmark runs, before numpy is imported; the
predictive's own threads run on the CPUs the process may use.  Each shape
is timed in ``--rounds`` rounds of calls lasting about ``--seconds`` in
all, and the fastest round's mean per call is printed.  One more call
under ``tracemalloc`` gives the traced peak minus the bytes of the output
it returns: what the call holds besides its result.  The benchmark has
one predictive shape (m = 3, nsim = 1000); this is how a change to the
predictive is measured at the others.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc

SHAPES = ((3, 200), (3, 1000), (3, 2000), (8, 1000))
HORIZON = 8


def stable_panel(m: int, T: int, seed: int):
    """A T x m panel from a stable VAR(2) with nearest-neighbour links."""
    import numpy as np

    rng = np.random.default_rng(seed)
    A1 = 0.4 * np.eye(m) + 0.05 * np.eye(m, k=-1)
    A2 = 0.2 * np.eye(m)
    Y = np.zeros((T, m))
    for t in range(2, T):
        Y[t] = A1 @ Y[t - 1] + A2 @ Y[t - 2] + 0.3 * rng.normal(size=m)
    return Y


def fitted(m: int):
    """A FLEX-MS VAR(2) estimate with 30 records in m variables."""
    from mixtvp.dgp import generate_var_break
    from mixtvp.sampler import CLASS_MIX, SUB_FLEX_MS, ModelSpec
    from mixtvp.var import estimate_var

    Y = generate_var_break(T=200, seed=1).Y if m == 3 else stable_panel(m, 200, seed=1)
    spec = ModelSpec(
        model_class=CLASS_MIX, subclass=SUB_FLEX_MS, p=2, iterations=40, burnin=10, store_paths=False
    )
    return estimate_var(Y, spec, seed=3)


def time_call(est, nsim: int, seconds: float, rounds: int) -> tuple[float, int]:
    """Fastest round's mean milliseconds per call, and the traced bytes over the output."""
    import numpy as np

    from mixtvp.var import simulate_predictive

    def call():
        return simulate_predictive(est, HORIZON, nsim, np.random.default_rng(0))

    start = time.perf_counter()
    call()
    calls = max(1, int(seconds / rounds / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    tracemalloc.start()
    try:
        fd = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best * 1e3, peak - (fd.draws.nbytes + fd.h1_mean.nbytes + fd.h1_var.nbytes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the mixtvp package")
    parser.add_argument("--seconds", type=float, default=2.0, help="time spent per shape")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    # before numpy is first imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import mixtvp
    from mixtvp.var import _available_cpus

    print(
        f"package {os.path.dirname(mixtvp.__file__)}, horizon {HORIZON}, 30 records, "
        f"{_available_cpus()} CPUs, one BLAS thread"
    )
    estimates = {}
    for m, nsim in SHAPES:
        if m not in estimates:
            estimates[m] = fitted(m)
        ms, extra = time_call(estimates[m], nsim, args.seconds, args.rounds)
        print(f"m = {m}, nsim = {nsim:4d}: {ms:8.1f} ms per call, {extra / 1e6:6.2f} MB traced over the output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
