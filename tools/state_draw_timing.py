"""Milliseconds per banded state draw, at several state sizes K.

    python3 tools/state_draw_timing.py --src src
    python3 tools/state_draw_timing.py --src /path/to/other/checkout/src

Times ``mixtvp.statespace.draw_states_fast`` from the package under
``--src`` on one random instance per K: T = 198 periods, random loadings
and a 0/1 autoregressive law, so the draw goes through the banded
factorization.  BLAS is pinned to one thread, as the benchmark runs, before
numpy is imported.  Each K is timed in ``--rounds`` rounds of calls lasting
about ``--seconds`` in all, and the fastest round's mean per call is
printed, which keeps a slow phase of a shared host out of the figure.  No
benchmark workload has K of 20 or more; this is how a change to the state
draw is measured there.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

SIZES = (9, 15, 20, 35, 60)
T = 198


def time_draw(K: int, seconds: float, rounds: int) -> float:
    """Fastest round's mean milliseconds per ``draw_states_fast`` call at state size K."""
    import numpy as np

    from mixtvp.banded import build_phi
    from mixtvp.statespace import draw_states_fast

    rng = np.random.default_rng(K)
    sub = build_phi(rng.integers(0, 2, size=(T, K)).astype(float))
    wtilde = rng.normal(size=(T, K))
    ytilde = rng.normal(size=T)
    a0 = np.zeros(T * K)
    draw_states_fast(ytilde, wtilde, a0, sub, rng)  # first call outside the timing
    start = time.perf_counter()
    draw_states_fast(ytilde, wtilde, a0, sub, rng)
    calls = max(1, int(seconds / rounds / (time.perf_counter() - start)))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            draw_states_fast(ytilde, wtilde, a0, sub, rng)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the mixtvp package")
    parser.add_argument("--seconds", type=float, default=2.0, help="time spent per K")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    # before numpy is first imported, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import mixtvp

    print(f"package {os.path.dirname(mixtvp.__file__)}, T = {T}, one BLAS thread")
    for K in SIZES:
        print(f"K = {K:2d}: {time_draw(K, args.seconds, args.rounds):8.3f} ms per draw")
    return 0


if __name__ == "__main__":
    sys.exit(main())
