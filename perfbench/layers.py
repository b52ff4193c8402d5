"""Which package functions each layer's spans wrap, and the metrics they give.

Every wrapper sits on the module that makes the call (``mixtvp.sampler``
imports ``draw_states_fast`` by name, so the sampler's reference is the
one replaced). Each ``*_ms`` metric is a mean busy time per call, in
milliseconds, and comes with a ``*_calls`` count; a layer a workload does
not run reports zero calls and zero time.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spans import Target, Tracer, self_times


def _mh(prefix: str):
    def observe(tracer: Tracer, result, args) -> None:
        tracer.count(f"{prefix}_proposed")
        tracer.count(f"{prefix}_accepted", int(bool(result[1])))

    return observe


def _unstable(tracer: Tracer, result, args) -> None:
    tracer.count("spectral.stability_false", int(not result))


def _dir_bytes(key: str):
    def observe(tracer: Tracer, result, args) -> None:
        root = Path(args[1])  # (self or cls, store directory)
        tracer.count(key, sum(f.stat().st_size for f in root.iterdir() if f.is_file()))

    return observe


SAMPLER = "mixtvp.sampler"
TARGETS = [
    Target(SAMPLER, "gibbs_sweep", "sampler.sweep"),
    Target(SAMPLER, "init_equation_state", "sampler.init"),
    Target(SAMPLER, "draw_states_fast", "statespace.draw"),
    Target(SAMPLER, "build_design_rows", "statespace.design"),
    Target(SAMPLER, "build_phi", "banded.phi"),
    Target(SAMPLER, "draw_constant_block", "shrinkage.block"),
    Target(SAMPLER, "draw_tau", "shrinkage.tau"),
    Target(SAMPLER, "draw_lambda", "shrinkage.hyper"),
    Target(SAMPLER, "update_rho", "shrinkage.hyper", _mh("shrinkage.rho")),
    Target(SAMPLER, "sv_sweep", "sv.sweep"),
    Target(SAMPLER, "sample_indicators_ms", "indicators.sample"),
    Target(SAMPLER, "sample_indicators_mix", "indicators.sample"),
    Target(SAMPLER, "update_transition_probs", "indicators.probs"),
    Target(SAMPLER, "update_bernoulli_probs", "indicators.probs"),
    Target(SAMPLER, "pool_sweep", "pool.sweep"),
    Target("mixtvp.pool", "update_xi", "pool.xi", _mh("pool.xi")),
    Target("mixtvp.cli", "estimate_var", "var.estimate"),
    Target("mixtvp.evaluation", "estimate_var", "var.estimate"),
    Target("mixtvp.evaluation", "simulate_predictive", "var.predictive"),
    Target("mixtvp.var", "simulate_predictive", "var.predictive"),
    Target("mixtvp.cli", "structural_from_paths", "var.structural"),
    Target("mixtvp.cli", "structural_to_reduced", "var.reduced"),
    Target("mixtvp.cli", "companion", "spectral.companion"),
    Target("mixtvp.spectral:CompanionForm", "is_stable", "spectral.stability", _unstable),
    Target("mixtvp.cli", "low_freq", "spectral.low_freq"),
    Target("mixtvp.cli", "scores_csv", "evaluation.scoring"),
    Target("mixtvp.cli", "parse_scores_csv", "evaluation.scoring"),
    Target("mixtvp.cli", "tables_from_scores", "evaluation.scoring"),
    Target(f"{SAMPLER}:PosteriorDraws", "save", "io.store_write", _dir_bytes("io.bytes_written")),
    Target(f"{SAMPLER}:PosteriorDraws", "load", "io.store_read", _dir_bytes("io.bytes_read")),
    Target("mixtvp.cli", "load_panel_csv", "io.panel"),
]

# spans reported per call; the second field selects self time over the whole span
PER_CALL = [
    ("sampler.init", False),
    ("statespace.draw", False),
    ("statespace.design", False),
    ("banded.phi", False),
    ("shrinkage.block", False),
    ("shrinkage.tau", False),
    ("shrinkage.hyper", False),
    ("sv.sweep", False),
    ("indicators.sample", False),
    ("indicators.probs", False),
    ("pool.sweep", False),
    ("var.estimate", False),
    ("var.predictive", False),
    ("var.structural", False),
    ("var.reduced", False),
    ("spectral.companion", False),
    ("spectral.stability", True),
    ("spectral.low_freq", True),
    ("evaluation.scoring", False),
    ("io.store_write", False),
    ("io.store_read", False),
    ("io.panel", False),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cells(spans) -> list[float]:
    """(origin, model) cells of the forecast harness, start to end, in seconds.

    A cell is one ``estimate_var`` call made by the harness followed by
    the ``simulate_predictive`` call it feeds.
    """
    out = []
    start = None
    for span in spans:
        if span.site != "mixtvp.evaluation":
            continue
        if span.name == "var.estimate":
            start = span.start
        elif span.name == "var.predictive" and start is not None:
            out.append(span.end - start)
            start = None
    return out


def layer_metrics(tracer: Tracer, missing: list[str], overhead: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    whole: dict[str, list[float]] = {}
    alone: dict[str, list[float]] = {}
    for span, self_s in zip(spans, own):
        whole.setdefault(span.name, []).append(span.end - span.start)
        alone.setdefault(span.name, []).append(self_s)

    out: dict[str, tuple[float, str]] = {}
    sweeps = np.asarray(whole.get("sampler.sweep", []))
    out["sampler.sweep_ms_p50"] = (float(np.percentile(sweeps, 50)) * 1e3 if sweeps.size else 0.0, "ms")
    out["sampler.sweep_ms_p99"] = (float(np.percentile(sweeps, 99)) * 1e3 if sweeps.size else 0.0, "ms")
    sweep_self = alone.get("sampler.sweep", [])
    out["sampler.sweep_self_ms"] = (_ratio(sum(sweep_self), len(sweep_self)) * 1e3, "ms")
    out["sampler.sweep_calls"] = (len(sweeps), "count")
    for name, use_self in PER_CALL:
        times = (alone if use_self else whole).get(name, [])
        out[f"{name}_ms"] = (_ratio(sum(times), len(times)) * 1e3, "ms")
        out[f"{name}_calls"] = (len(times), "count")

    c = tracer.counters
    out["shrinkage.rho_accept"] = (
        _ratio(c.get("shrinkage.rho_accepted", 0), c.get("shrinkage.rho_proposed", 0)), "ratio")
    out["pool.xi_accept"] = (_ratio(c.get("pool.xi_accepted", 0), c.get("pool.xi_proposed", 0)), "ratio")
    draws = len(whole.get("spectral.companion", []))
    out["spectral.eig_per_draw"] = (_ratio(len(whole.get("spectral.stability", [])), draws), "eig/draw")
    out["spectral.unstable_frac"] = (_ratio(c.get("spectral.stability_false", 0), draws), "ratio")

    cells = np.asarray(_cells(spans))
    out["evaluation.cell_ms_p50"] = (float(np.median(cells)) * 1e3 if cells.size else 0.0, "ms")
    out["evaluation.cell_ms_max"] = (float(cells.max()) * 1e3 if cells.size else 0.0, "ms")
    out["evaluation.cell_calls"] = (int(cells.size), "count")

    stores = len(whole.get("io.store_write", [])) + len(whole.get("io.store_read", []))
    moved = c.get("io.bytes_written", 0) + c.get("io.bytes_read", 0)
    out["io.store_bytes"] = (_ratio(moved, stores), "B")

    out["trace.overhead"] = (overhead, "ratio")
    out["trace.missing"] = (len(missing), "count")
    return out
