"""Rows stepped along the runs of s equal the rows built pair by pair.

The reference below builds every row with its own `classification_record`
call (every geography point with its own `cover_invariants` and `classify`
call), as the command line did before it stepped rows along
`classify.s_runs`.
"""

from __future__ import annotations

import argparse

import pytest

from cangeo import cli
from cangeo.classify import DEGREE1_PAIRS, OPEN_PAIRS, BlowupPair, classify, s_runs, zones
from cangeo.invariants import cover_invariants

CONFIG = cli.RunConfig(seed=cli.DEFAULT_SEED, trials=2, prime=cli.DEFAULT_PRIME)


def _per_pair_rows(d_values, s_values) -> list[dict]:
    return [cli.classification_record(BlowupPair(d, s))
            for d in d_values for s in s_values]


def _per_pair_points(d_values) -> list[dict]:
    points = []
    for d in d_values:
        for s in range(1, zones(d).cover_yes_max + 1):
            pair = BlowupPair(d, s)
            inv = cover_invariants(pair)
            points.append({
                "kind": "point", "d": d, "intercept": None,
                "x_min": None, "x_max": None,
                "s": s, "chi": inv.chi, "c1sq": inv.c1sq,
                "deformation": classify(pair).deformation.value,
            })
    return points


def _planned(d_values, s_values, with_oracle=False) -> list[dict]:
    rows, _ = cli._classification_rows(d_values, s_values, CONFIG, with_oracle)
    built = list(rows)
    assert len(rows) == len(built)
    assert list(rows) == built   # each pass builds the same rows afresh
    return built


def _windows(d: int) -> set[tuple[int, int]]:
    """s windows (first, last) around every threshold of d: on it, at
    threshold+1, across it, and inside the runs between thresholds."""
    cuts = sorted({c for t in zones(d) for c in (t, t + 1) if c >= 1})
    out = {(1, 1), (1, cuts[-1] + 3)}
    for t in cuts:
        out.update({(t, t), (t, t + 1), (max(t - 1, 1), t + 2),
                    (max(t - 3, 1), t)})
    for a, b in zip(cuts, cuts[1:]):
        if b - a > 3:
            out.update({(a + 1, b - 2), (a + 1, a + 1)})
    return out


@pytest.mark.parametrize("d", range(2, 61))
def test_runs_give_the_per_pair_rows_on_every_window(d):
    for first, last in sorted(_windows(d)):
        s_values = range(first, last + 1)
        # repr tells a Fraction from an int of the same value
        assert repr(_planned([d], s_values)) == repr(
            _per_pair_rows([d], s_values)), (d, first, last)


@pytest.mark.parametrize("d, first, last", [
    (3, 5, 5), (3, 6, 6), (3, 4, 7), (3, 5, 6), (3, 6, 7), (3, 1, 12),
    (4, 8, 8), (4, 9, 10), (4, 7, 11), (4, 8, 10), (4, 10, 12),
    (5, 12, 12), (5, 13, 14), (5, 11, 15), (5, 12, 14), (5, 14, 16),
    (6, 17, 17), (6, 16, 18), (6, 15, 17), (6, 17, 30),
])
def test_runs_give_the_per_pair_rows_across_the_listed_pairs(d, first, last):
    s_values = range(first, last + 1)
    assert repr(_planned([d], s_values)) == repr(_per_pair_rows([d], s_values))


def test_every_listed_pair_is_a_run_of_its_own():
    for d, s in DEGREE1_PAIRS | OPEN_PAIRS:
        assert range(s, s + 1) in s_runs(d, range(1, 2 * d * d)), (d, s)
    # d = 5 has a smooth cover up to s = 14, off the closed form
    assert zones(5).cover_yes_max == 14
    assert range(15, 16) in s_runs(5, range(1, 60))


def test_runs_tile_the_window():
    for d in range(2, 80):
        for window in (range(1, 2), range(1, 3 * d * d), range(d, d * d)):
            runs = s_runs(d, window)
            assert [s for run in runs for s in run] == list(window)
            assert all(len(run) for run in runs)


def test_several_degrees_in_one_table():
    d_values, s_values = range(2, 61), range(9, 31)
    assert repr(_planned(d_values, s_values)) == repr(
        _per_pair_rows(d_values, s_values))


def test_oracle_rows_match_the_per_pair_rows():
    d_values, s_values = range(2, 9), range(1, 41)
    want = []
    for d in d_values:
        alphas = cli._alpha_measurements(d, s_values, CONFIG)
        for row, alpha in zip(_per_pair_rows([d], s_values), alphas):
            row.update(alpha_rank=alpha["rank"],
                       alpha_dim_source=alpha["dim_source"],
                       alpha_dim_target=alpha["dim_target"],
                       alpha_coker=alpha["coker"],
                       oracle_flag=alpha["flag"])
            want.append(row)
    assert repr(_planned(d_values, s_values, with_oracle=True)) == repr(want)


def test_geography_points_match_the_per_pair_points():
    d_values = range(2, 121)
    rows, _ = cli.cmd_geography(argparse.Namespace(d_range=d_values), CONFIG)
    built = list(rows)
    assert len(rows) == len(built)
    assert [r for r in built if r["kind"] == "point"] == _per_pair_points(d_values)
    assert [r["d"] for r in built if r["kind"] == "line"] == list(d_values)


def test_a_missing_cut_is_caught(monkeypatch):
    # without its cuts the run 3..9 of d = 3 would cross the listed pairs
    # (3, 5) and (3, 6): the check at the run's last s fails
    monkeypatch.setattr(cli, "s_runs", lambda d, s_values: [s_values])
    with pytest.raises(AssertionError):
        cli._classification_rows([3], range(4, 7), CONFIG, False)
    with pytest.raises(AssertionError):
        cli._classification_rows([3], range(3, 10), CONFIG, False)
