"""Summary arithmetic of the paired benchmark script."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import RATES, parse_seeds, report, run_order, side_stats, summarize  # noqa: E402


def test_seeds_parse_ranges_and_lists():
    assert parse_seeds("1101-1104") == [1101, 1102, 1103, 1104]
    assert parse_seeds("5,7,9-10") == [5, 7, 9, 10]
    for bad in ("", "3,3", "4-3"):
        with pytest.raises(ValueError):
            parse_seeds(bad)


def test_sides_alternate_going_first():
    assert [run_order(i) for i in range(3)] == [("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_side_stats_interpolate_like_linear_percentiles():
    got = side_stats([4.0, 1.0, 3.0, 2.0])
    assert (got["q1"], got["median"], got["q3"]) == (1.75, 2.5, 3.25)
    assert side_stats([0.5])["q1"] == side_stats([0.5])["q3"] == 0.5


def test_summary_counts_wins_and_weighs_the_gap_against_the_parent_spread():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.8, 0.9, 1.25, 0.9, 1.0]
    got = summarize(parent, change)
    assert got["pairs"] == 5 and got["wins"] == 4  # pair 3 lost, 1.25 > 1.2
    assert got["median_gap"] == pytest.approx(1.2 - 0.9)
    assert got["parent_iqr"] == pytest.approx(1.3 - 1.1)
    assert got["relative_gap"] == pytest.approx(0.3 / 1.2)
    assert got["gap_exceeds_parent_iqr"]
    # the same wins with a gap inside the parent's spread do not carry a claim
    assert not summarize(parent, [0.99, 1.09, 1.25, 1.29, 1.39])["gap_exceeds_parent_iqr"]
    # a tie is not a win
    tie = summarize([2.0, 2.0, 2.0], [2.0, 3.0, 1.0])
    assert tie["wins"] == 1 and tie["median_gap"] == 0.0


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        summarize([], [])


def test_report_gathers_each_metric_digest_and_failure_per_side():
    def run(wall, digest):
        rates = dict.fromkeys(RATES)
        return {"metrics": {"wall_s": wall, "setup_s": 0.3}, "digest": digest, "failed": 0, "rates": rates}

    runs = {"forecast": {"parent": [run(1.0, "a"), run(1.2, "b")], "change": [run(0.9, "c"), run(1.0, "d")]}}
    got = report(runs, [11, 12])["forecast"]
    assert got["first"] == ["parent", "change"]
    assert got["metrics"]["wall_s"]["wins"] == 2
    assert got["metrics"]["setup_s"]["wins"] == 0
    assert got["digests"] == {"parent": ["a", "b"], "change": ["c", "d"]}
    assert got["failed"] == {"parent": [0, 0], "change": [0, 0]}


def test_report_copies_the_throughputs_per_side_without_comparing_them():
    def run(wall, sweeps, paths):
        rates = {"sweeps_per_s": sweeps, "spectral_draws_per_s": None, "predictive_paths_per_s": paths}
        return {"metrics": {"wall_s": wall}, "digest": "x", "failed": 0, "rates": rates}

    runs = {"posterior": {
        "parent": [run(1.0, None, 10.0), run(1.1, None, 30.0), run(0.9, None, 20.0)],
        "change": [run(0.8, None, 40.0), run(0.9, None, 50.0), run(0.7, None, 60.0)],
    }}
    got = report(runs, [1, 2, 3])["posterior"]
    rates = got["rates"]
    assert rates["compared"] is False
    assert set(rates) == {"compared", *RATES}
    assert rates["predictive_paths_per_s"]["parent"] == {"values": [10.0, 30.0, 20.0], "median": 20.0}
    assert rates["predictive_paths_per_s"]["change"] == {"values": [40.0, 50.0, 60.0], "median": 50.0}
    # a throughput the workload does not report has no median
    assert rates["sweeps_per_s"]["change"] == {"values": [None] * 3, "median": None}
    # only the end-to-end metrics are compared
    assert set(got["metrics"]) == {"wall_s"}
