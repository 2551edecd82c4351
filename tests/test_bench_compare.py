"""Verdicts of ``scripts/bench_compare.py`` on synthetic pairs of runs.

A claimed gain needs at least nine tenths of the pairs won and the two
medians further apart than the parent's quartiles; ``within_bound``
holds while the change is worse by no more than the bound.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    return [{"parent": {"metrics": {"wall_s": p}}, "change": {"metrics": {"wall_s": c}}}
            for p, c in zip(parent, change, strict=True)]


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _faster(won):
    # the first `won` pairs are 0.2 s faster, the rest 0.01 s slower
    return [p - 0.2 if k < won else p + 0.01 for k, p in enumerate(PARENT)]


def test_nine_of_ten_won_and_medians_apart_is_claimable(script):
    m = script.summarise(_pairs(PARENT, _faster(9)), "wall_s", "lower", 0.15)
    assert (m["wins"], m["losses"], m["pairs"]) == (9, 1, 10)
    assert m["parent"]["median"] - m["change"]["median"] > m["parent"]["q3"] - m["parent"]["q1"]
    assert m["gain_claimable"] is True
    assert m["worse_by"] < 0 and m["within_bound"] is True


def test_eight_of_ten_won_is_not_claimable(script):
    m = script.summarise(_pairs(PARENT, _faster(8)), "wall_s", "lower", 0.15)
    assert (m["wins"], m["losses"]) == (8, 2)
    assert m["parent"]["median"] - m["change"]["median"] > m["parent"]["q3"] - m["parent"]["q1"]
    assert m["gain_claimable"] is False


def test_every_pair_won_inside_the_parents_quartiles_is_not_claimable(script):
    parent = [1.0 + 0.1 * k for k in range(10)]
    m = script.summarise(_pairs(parent, [p - 0.01 for p in parent]), "wall_s", "lower", 0.15)
    assert m["wins"] == 10
    assert m["parent"]["median"] - m["change"]["median"] < m["parent"]["q3"] - m["parent"]["q1"]
    assert m["gain_claimable"] is False


def test_higher_is_better_flips_the_sign(script):
    lower = script.summarise(_pairs(PARENT, _faster(9)), "wall_s", "lower", 0.15)
    higher = script.summarise(_pairs(PARENT, _faster(9)), "wall_s", "higher", 0.15)
    assert (higher["wins"], higher["losses"]) == (lower["losses"], lower["wins"])
    assert higher["worse_by"] == -lower["worse_by"] > 0
    assert higher["gain_claimable"] is False
    assert higher["within_bound"] is False
    # the mirrored data, 0.2 higher in nine pairs, is a gain when higher is better
    mirrored = [2 * p - c for p, c in zip(PARENT, _faster(9))]
    assert script.summarise(_pairs(PARENT, mirrored), "wall_s", "higher", 0.15)["gain_claimable"]


@pytest.mark.parametrize("better, change", [("lower", 1.25), ("higher", 0.75)])
def test_within_bound_holds_at_exactly_the_bound(script, better, change):
    pairs = _pairs([1.0] * 5, [change] * 5)
    assert script.summarise(pairs, "wall_s", better, 0.25)["worse_by"] == 0.25
    assert script.summarise(pairs, "wall_s", better, 0.25)["within_bound"] is True
    assert script.summarise(pairs, "wall_s", better, 0.2499)["within_bound"] is False
    assert script.summarise(pairs, "wall_s", better, None)["within_bound"] is None
