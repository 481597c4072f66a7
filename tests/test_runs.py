"""Rows emitted along the runs of s equal the rows built pair by pair.

The reference below builds every row with its own `classification_record`
call (every geography point with its own `cover_invariants` and `classify`
call), as the command line did before it stepped rows along
`classify.s_runs`, and renders the list in each output format with the
standard library alone: `json.dumps`, `csv.writer` and `str.ljust`.  The
command line lays out the text of each run once and fills it in row by
row, so each window is compared byte for byte in every format.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
from fractions import Fraction

import pytest

from cangeo import cli
from cangeo.atlas import geography_lines
from cangeo.classify import BlowupPair, _ratio_text, classify, s_runs, zones
from cangeo.invariants import cover_invariants

# The degree-1 and open pairs: the class changes around each of them, so
# each must be a run of its own.
DEGREE1_PAIRS = frozenset(
    {(3, 5), (3, 6), (4, 8), (4, 9), (4, 10), (5, 13), (5, 14)})
OPEN_PAIRS = frozenset({(5, 12), (6, 17)})

CONFIG = cli.RunConfig(seed=cli.DEFAULT_SEED, trials=2, prime=cli.DEFAULT_PRIME)
FORMATS = ("csv", "json", "table")


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


def _text(value) -> str:
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return str(value)


def _flat(row: dict) -> dict:
    out = {}
    for key, value in row.items():
        if isinstance(value, dict):
            out.update((f"{key}_{sub}", v) for sub, v in value.items())
        else:
            out[key] = value
    return out


def _reference(rows: list[dict], columns: list[str], fmt: str) -> str:
    """The rows as one list, rendered without cangeo."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    cells = [[_text(row.get(c)) for c in columns] for row in map(_flat, rows)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([columns, *cells])
        return buf.getvalue()
    widths = [max([len(c), *(len(row[i]) for row in cells)])
              for i, c in enumerate(columns)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                   .rstrip() + "\n" for line in [columns, *cells])


def _emitted(capsys, rows: cli.Rows, columns: list[str], fmt: str) -> str:
    capsys.readouterr()
    cli.emit(rows, columns, fmt)
    return capsys.readouterr().out


def _assert_emits(capsys, rows: cli.Rows, columns: list[str], want: list[dict],
                  formats=FORMATS, where=None) -> None:
    assert sum(run.n for run in rows) == len(want), where
    for fmt in formats:
        assert _emitted(capsys, rows, columns, fmt) == _reference(
            want, columns, fmt), (where, fmt)


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
def test_runs_give_the_per_pair_rows_on_every_window(capsys, d):
    windows = sorted(_windows(d))
    per_pair = _per_pair_rows([d], range(1, max(b for _, b in windows) + 1))
    for first, last in windows:
        rows, columns = cli._classification_rows(
            [d], range(first, last + 1), CONFIG, False)
        _assert_emits(capsys, rows, columns, per_pair[first - 1:last],
                      where=(d, first, last))


@pytest.mark.parametrize("d, first, last", [
    (3, 5, 5), (3, 6, 6), (3, 4, 7), (3, 5, 6), (3, 6, 7), (3, 1, 12),
    (4, 8, 8), (4, 9, 10), (4, 7, 11), (4, 8, 10), (4, 10, 12),
    (5, 12, 12), (5, 13, 14), (5, 11, 15), (5, 12, 14), (5, 14, 16),
    (6, 17, 17), (6, 16, 18), (6, 15, 17), (6, 17, 30),
])
def test_runs_give_the_per_pair_rows_across_the_listed_pairs(capsys, d, first,
                                                             last):
    s_values = range(first, last + 1)
    rows, columns = cli._classification_rows([d], s_values, CONFIG, False)
    _assert_emits(capsys, rows, columns, _per_pair_rows([d], s_values))


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


def test_several_degrees_in_one_table(capsys):
    d_values, s_values = range(2, 61), range(9, 31)
    rows, columns = cli._classification_rows(d_values, s_values, CONFIG, False)
    _assert_emits(capsys, rows, columns, _per_pair_rows(d_values, s_values))


def _per_pair_oracle_rows(d_values, s_values) -> list[dict]:
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
    return want


def test_oracle_rows_match_the_per_pair_rows(capsys):
    d_values, s_values = range(2, 9), range(1, 41)
    rows, columns = cli._classification_rows(d_values, s_values, CONFIG, True)
    _assert_emits(capsys, rows, columns,
                  _per_pair_oracle_rows(d_values, s_values))


@pytest.mark.parametrize("d", range(3, 9))
def test_oracle_windows_give_the_per_pair_rows(capsys, d):
    # inside a run the alpha columns vary: the rank climbs and the
    # cokernel falls until the map is onto (d = 2 has no such run; the
    # test above covers it)
    windows = [w for w in sorted(_windows(d)) if w[1] - w[0] >= 2][:4]
    windows.append((1, (d + 1) * (d + 2) // 2 + 2))
    varied = False
    for first, last in windows:
        s_values = range(first, last + 1)
        rows, columns = cli._classification_rows([d], s_values, CONFIG, True)
        varied |= any(len(set(run.vary["alpha_rank"])) > 1 for run in rows)
        _assert_emits(capsys, rows, columns,
                      _per_pair_oracle_rows([d], s_values), where=(d, first, last))
    assert varied


# A constant cell that every format must escape or quote: `%` (the row
# templates' own marker), a comma, a quote, a tab and a non-ASCII letter.
AWKWARD = 'a %d %s %% 100%, "q"\té'


def _synthetic(s: int) -> dict:
    chi = 1000 - 3 * s   # falls along the run, through 0 to negative
    c1sq = 2 * s - 7
    return {"s": s, "chi": chi, "c1sq": c1sq, "slope": str(Fraction(c1sq, chi)),
            "note": AWKWARD, "flag": None, "ok": True,
            "witness": None, "kind": "point"}


SYNTHETIC_COLUMNS = ["kind", "s", "chi", "c1sq", "slope", "note", "flag", "ok",
                     "witness_r", "witness_l", "missing"]


def test_a_run_across_chunks_with_negative_steps_and_awkward_text(capsys):
    stepped = range(1, 2 * cli.CHUNK_ROWS + 10)
    run = cli._stepped_run(_synthetic, stepped,
                           {"slope": (_ratio_text, ("c1sq", "chi"))})
    assert run.n == len(stepped) and run.vary["chi"].step == -3
    assert {"chi", "c1sq", "slope", "s"} == set(run.vary)
    nested = {**_synthetic(7), "witness": {"r": 6, "l": -1}, "note": "x%"}
    want = [_synthetic(s) for s in stepped] + [nested] + [_synthetic(1)]
    runs = [run, cli._Run(1, nested), cli._Run(1, want[-1])]
    rows = cli.Rows(lambda _: runs)
    _assert_emits(capsys, rows, SYNTHETIC_COLUMNS, want)


def test_geography_points_match_the_per_pair_points(capsys):
    lines = [{"kind": "line", **line._asdict(), "s": None, "chi": None,
              "c1sq": None, "deformation": None}
             for line in geography_lines(range(2, 121))]
    # csv over d 2..120; the pure-Python json.dumps reference only to 40
    for d_max, formats in ((120, ("csv",)), (40, ("json", "table"))):
        d_values = range(2, d_max + 1)
        rows, columns = cli.cmd_geography(argparse.Namespace(d_range=d_values),
                                          CONFIG)
        want = lines[:len(d_values)] + _per_pair_points(d_values)
        _assert_emits(capsys, rows, columns, want, formats, d_max)


def test_a_missing_cut_is_caught(monkeypatch):
    # without its cuts the run 3..9 of d = 3 would cross the alpha and Ext
    # cuts at s = 5 and 6: the check at the run's last s fails, when the
    # run is planned as the rows are iterated
    monkeypatch.setattr(cli, "s_runs", lambda d, s_values: [s_values])
    for s_values in (range(4, 7), range(3, 10)):
        rows, _ = cli._classification_rows([3], s_values, CONFIG, False)
        with pytest.raises(AssertionError):
            for _ in rows:
                pass
