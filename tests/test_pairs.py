"""The statistics of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_runs_alternate_in_abba_order():
    assert pairs.abba(3) == [(0, "parent"), (0, "change"), (1, "change"),
                             (1, "parent"), (2, "parent"), (2, "change")]


@pytest.mark.parametrize("wins,losses,p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024),
    (8, 2, 112 / 1024), (5, 5, 1.0), (3, 0, 0.25), (0, 0, 1.0)])
def test_sign_test_is_exact_and_two_sided(wins, losses, p):
    assert pairs.sign_test_p(wins, losses) == p


PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_a_lower_median_past_the_quartile_spread_in_nine_pairs_is_a_gain():
    change = [x - 2.0 for x in PARENT]
    change[3] = 11.0  # pair 3 lost
    s = pairs.compare(PARENT, change, "lower", 0.2)
    assert s["parent"] == pytest.approx({"q1": 10.45, "median": 10.9, "q3": 11.35})
    assert s["change"]["median"] == pytest.approx(9.1)
    assert (s["wins"], s["losses"], s["ties"]) == (9, 1, 0)
    assert s["sign_p"] == 22 / 1024
    assert s["worse_by"] == pytest.approx(-1.8 / 10.9)
    assert s["verdict"] == "gain"


def test_eight_wins_or_a_shift_inside_the_quartiles_is_no_gain():
    change = [x - 2.0 for x in PARENT]
    change[3] = change[5] = 11.9
    assert pairs.compare(PARENT, change, "lower", 0.2)["verdict"] == "same"
    nudged = [x - 0.5 for x in PARENT]  # ten wins, but 0.5 < 0.9 spread
    s = pairs.compare(PARENT, nudged, "lower", 0.2)
    assert s["wins"] == 10 and s["verdict"] == "same"


@pytest.mark.parametrize("better,factor,verdict", [
    ("lower", 1.19, "same"), ("lower", 1.21, "worse"),
    ("higher", 0.86, "same"), ("higher", 0.84, "worse")])
def test_worse_is_judged_against_the_bound_in_the_metric_direction(
        better, factor, verdict):
    bound = 0.2 if better == "lower" else 0.15
    s = pairs.compare(PARENT, [x * factor for x in PARENT], better, bound)
    assert s["worse_by"] == pytest.approx(abs(factor - 1.0))
    assert s["verdict"] == verdict


def test_ties_count_for_neither_side_and_a_zero_median_is_handled():
    s = pairs.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower", 1.0)
    assert (s["wins"], s["losses"], s["ties"]) == (0, 0, 3)
    assert s["worse_by"] == 0.0 and s["verdict"] == "same"
    s = pairs.compare([0.0] * 3, [0.0] * 3, "lower", 0.1)
    assert s["worse_by"] == 0.0 and s["verdict"] == "same"
    s = pairs.compare([0.0] * 3, [0.0, 0.5, 0.5], "lower", 0.1)
    assert s["worse_by"] == math.inf and s["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    wide = [1.0, 1.0, 1.5, 2.0, 2.0]  # quartiles 1.0 and 2.0 around 1.5
    assert pairs.compare(wide, [1.4] * 5, "lower", 0.2)["verdict"] == "unresolved"
    # unless every run of the change is better than every run of the parent;
    # a gain still needs the medians further apart than the quartiles
    assert pairs.compare(wide, [0.9] * 5, "lower", 0.2)["verdict"] == "same"
    assert pairs.compare(wide, [0.4] * 5, "lower", 0.2)["verdict"] == "gain"
    assert pairs.compare(wide, [2.6] * 5, "higher", 0.2)["verdict"] == "gain"
    assert pairs.compare(wide, [1.9] * 5, "lower", 0.2)["verdict"] == "worse"


def record(correct=True, **over) -> dict:
    run = {"correct": correct, "attempted": 300, "failed": 0,
           "statistical_misses": 1, "digest": "b34c07f9", "metrics": {}}
    return dict(run, **over)


def test_a_run_record_is_read_from_the_last_two_lines():
    lines = ["perfbench: starting",
             'report: {"digest": "5e339554", "statistical_misses": 3}',
             '{"correct": false, "attempted": 612, "failed": 0,'
             ' "metrics": {"op_ms.p50": {"value": 6.0, "unit": "ms"}}}']
    run = pairs.read_run(lines)
    assert run == {"correct": False, "attempted": 612, "failed": 0,
                   "statistical_misses": 3, "digest": "5e339554",
                   "metrics": {"op_ms.p50": 6.0}}
    assert pairs.describe(run) == ("correct=False failed=0 of 612"
                                   " statistical_misses=3 digest=5e339554")
    assert pairs.describe({"error": "exit 1: boom\nmore"}) == "exit 1: boom"


def test_any_incorrect_run_traced_or_not_fails_the_comparison():
    untraced = [dict(record(), pair=i, side=s) for i in range(2)
                for s in ("parent", "change")]
    traced = [dict(record(), side=s) for s in ("parent", "change")]
    assert pairs.exit_status(untraced + traced) == 0
    traced[1] = dict(record(correct=False, statistical_misses=3), side="change")
    assert pairs.exit_status(untraced + traced) == 1
    untraced[2] = dict(record(correct=False), pair=1, side="change")
    assert pairs.exit_status(untraced) == 1
    assert pairs.exit_status([record(), {"error": "exit 1: boom"}]) == 1
