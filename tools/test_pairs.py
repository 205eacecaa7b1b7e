"""Tests of the perf-claim verdict of tools/pairs.py, on made-up run values."""

import importlib.util
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", os.path.join(os.path.dirname(os.path.abspath(__file__)), "pairs.py")
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # quartiles 99.5, 100.5


def _run(failed=0, correct=True):
    return {"failed": failed, "correct": correct}


def _note(parent, change, better="higher", bound=0.15, fault=None):
    return pairs.judge(parent, change, better, bound, fault)


def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain():
    change = [p + 5 for p in PARENT[:9]] + [PARENT[9] - 1]
    wins, rel, note = _note(PARENT, change)
    assert (wins, note) == (9, "gain")
    assert rel > 0


def test_a_gain_holds_for_a_lower_is_better_metric():
    change = [p - 5 for p in PARENT]
    assert _note(PARENT, change, better="lower")[::2] == (10, "gain")


def test_eight_of_ten_wins_is_no_gain():
    change = [p + 5 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    wins, _, note = _note(PARENT, change)
    assert (wins, note) == (8, "no claim")


def test_ties_count_for_neither_side():
    for better in ("higher", "lower"):
        assert pairs.verdict(PARENT, list(PARENT), better) == (0, False)
    change = list(PARENT[:5]) + [p + 5 for p in PARENT[5:]]
    assert pairs.verdict(PARENT, change, "higher")[0] == 5
    assert pairs.verdict(PARENT, change, "lower")[0] == 0


def test_a_gap_within_the_parent_iqr_is_no_gain():
    change = [p + 1 for p in PARENT]  # wins 10 of 10, median gap 1, not over the IQR 1
    wins, _, note = _note(PARENT, change)
    assert (wins, note) == (10, "no claim")


def test_fewer_than_ten_pairs_is_too_few_to_claim():
    wins, _, note = _note(PARENT[:5], [p + 5 for p in PARENT[:5]])
    assert (wins, note) == (5, "better, too few pairs to claim")


def test_worse_beyond_the_bound():
    _, rel, note = _note(PARENT, [p * 0.8 for p in PARENT])
    assert note == "worse beyond bound"
    assert rel == pytest.approx(-0.2)
    assert _note(PARENT, [p * 1.2 for p in PARENT], better="lower")[2] == "worse beyond bound"


def test_a_spread_over_the_bound_is_unresolved():
    parent = [50.0, 150.0] * 5  # IQR 100 over a median of 100
    assert _note(parent, list(parent))[2] == "unresolved, spread over bound"


def test_a_change_that_failed_more_ops_is_no_gain():
    change = [p + 5 for p in PARENT]
    fault = pairs.run_fault([_run()] * 10, [_run()] * 9 + [_run(failed=1)])
    assert fault == "the change failed more ops"
    assert _note(PARENT, change, fault=fault)[2] == "not a gain: the change failed more ops"
    assert _note(PARENT[:5], change[:5], fault=fault)[2] == "not a gain: the change failed more ops"


def test_an_incorrect_change_run_is_no_gain():
    fault = pairs.run_fault([_run()] * 10, [_run()] * 9 + [_run(correct=False)])
    assert fault == "a change run was not correct"
    assert _note(PARENT, [p + 5 for p in PARENT], fault=fault)[2] == "not a gain: a change run was not correct"


def test_runs_that_fail_no_more_than_the_parent_keep_a_gain():
    assert pairs.run_fault([_run(failed=2)] * 10, [_run(failed=2)] * 10) is None
    assert pairs.run_fault([_run(failed=1)], [_run()]) is None
