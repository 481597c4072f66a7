"""Acceptance suite: ten criteria, one test each, exact values, pinned
time budgets.  Every expected number here is frozen; nothing is computed
from the code under test except the measured side of each comparison.
"""

from __future__ import annotations

import csv
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from cangeo import cli
from cangeo.atlas import two_component_points
from cangeo.classify import BlowupPair, TriState, alpha_surjective, smooth_cover_exists
from cangeo.fatpoints import FatPointSystem, alpha_rank, h0_fatpoints
from cangeo.invariants import cover_invariants, h0_normal_of_cover, moduli_dims_degree1
from cangeo.scrolls import scroll_line_hits

SEVEN_PAIRS = [(3, 5), (3, 6), (4, 8), (4, 9), (4, 10), (5, 13), (5, 14)]


def _cli_rows(*argv):
    buf = io.StringIO()
    out, sys.stdout = sys.stdout, buf
    try:
        code = cli.main(list(argv) + ["--format", "csv"])
    finally:
        sys.stdout = out
    assert code == 0
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def test_criterion_01_invariant_table_rows_exact():
    expected = {
        (3, 6): ("4", "0", "5", "6", "1/9"),
        (3, 5): ("5", "0", "6", "8", "1/8"),
        (4, 10): ("5", "0", "6", "12", "1/5"),
        (4, 9): ("6", "0", "7", "14", "1/5"),
        (4, 8): ("7", "0", "8", "16", "1/5"),
        (5, 14): ("7", "0", "8", "22", "11/37"),
        (5, 13): ("8", "0", "9", "24", "2/7"),
    }
    start = time.monotonic()
    rows = _cli_rows("table", "--d", "3..5", "--s", "5..14")
    elapsed = time.monotonic() - start
    got = {(int(r["d"]), int(r["s"])): (r["p_g"], r["q"], r["chi"],
                                        r["c1sq"], r["slope"])
           for r in rows}
    for pair, want in expected.items():
        assert got[pair] == want, pair
    assert elapsed < 1.0


def test_criterion_02_moduli_dimensions_exact():
    expected = {(3, 5): (44, 42), (3, 6): (38, 34), (4, 8): (48, 47),
                (4, 9): (42, 39), (4, 10): (36, 31), (5, 13): (42, 40),
                (5, 14): (36, 32)}
    start = time.monotonic()
    for (d, s), want in expected.items():
        dims = moduli_dims_degree1(BlowupPair(d, s))
        assert (dims.mu, dims.mu2) == want, (d, s)
    assert time.monotonic() - start < 1.0


def test_criterion_03_pinned_fatpoint_numbers():
    # h1 = h0 - chi with chi = ambient_dim - conditions, from one measurement
    for (k, r, s), h0_want in (((12, 3, 14), 7), ((16, 4, 14), 13)):
        system = FatPointSystem(k, r, s)
        start = time.monotonic()
        h0 = h0_fatpoints(system)
        assert h0 == h0_want
        assert h0 - (system.ambient_dim - system.conditions) == 0
        assert time.monotonic() - start < 5.0


def test_criterion_04_alpha_oracle_agrees_with_the_zones():
    start = time.monotonic()
    disagreements = []
    for d in range(2, 9):
        for s in range(1, 41):
            verdict = alpha_surjective(BlowupPair(d, s))
            if verdict is TriState.UNKNOWN:
                continue
            [(rank, _, dim_target)] = alpha_rank(d, [s], trials=5)
            if (rank == dim_target) != (verdict is TriState.YES):
                disagreements.append((d, s))
    assert disagreements == []
    assert time.monotonic() - start < 60.0


def test_criterion_05_cokernel_matches_moduli_gap():
    for d, s in SEVEN_PAIRS:
        [(rank, _, dim_target)] = alpha_rank(d, [s])
        dims = moduli_dims_degree1(BlowupPair(d, s))
        assert dim_target - rank == 2 * s + 1 - d * d == dims.mu - dims.mu2, (d, s)


def test_criterion_06_normal_sheaf_section_count_identity():
    for d, s in SEVEN_PAIRS + [(2, 1), (3, 4), (7, 14)]:
        measured = h0_fatpoints(FatPointSystem(2 * d + 6, 4, s)) - 1
        assert measured == 2 * d * d + 15 * d + 27 - 10 * s, (d, s)
        assert measured == h0_normal_of_cover(BlowupPair(d, s)), (d, s)


def test_criterion_07_two_component_golden_sets():
    start = time.monotonic()
    m4 = two_component_points(4, 10)
    assert {(p.x_prime, p.y) for p in m4.points} == {
        (9, 20), (15, 38), (23, 62), (33, 92)}
    m11 = two_component_points(11, 40)
    assert [(p.x_prime, p.y, p.d, p.s) for p in m11.points] == [
        (135, 608, 20, 96)]
    m13 = two_component_points(13, 40)
    assert [(p.x_prime, p.y, p.d, p.s) for p in m13.points] == [
        (264, 1280, 29, 201)]
    for m in (12, 14, 15, 16, 17):
        assert two_component_points(m, 100).points == (), m
    assert time.monotonic() - start < 10.0


def test_criterion_08_scroll_exclusion_single_hit():
    points = []
    for d, s in SEVEN_PAIRS:
        inv = cover_invariants(BlowupPair(d, s))
        points.append((inv.p_g, inv.c1sq))
    assert scroll_line_hits(points) == [((5, 8), 4)]


def test_criterion_09_geography_interval_lines_verbatim():
    rows = _cli_rows("geography", "--d", "2..6")
    lines = {int(r["d"]): (int(r["x_min"]), int(r["x_max"]))
             for r in rows if r["kind"] == "line"}
    assert lines == {2: (6, 6), 3: (5, 10), 4: (6, 15), 5: (8, 21),
                     6: (13, 28)}


def test_criterion_10_property_suite():
    start = time.monotonic()

    # Euler relation on 1000 random pairs with an existing cover
    rng = random.Random(0xC0FFEE)
    checked = 0
    while checked < 1000:
        d = rng.randint(2, 40)
        s = rng.randint(1, 400)
        if smooth_cover_exists(BlowupPair(d, s)) is not TriState.YES:
            continue
        inv = cover_invariants(BlowupPair(d, s))
        assert 12 * inv.chi == inv.c1sq + inv.c2, (d, s)
        assert inv.chi == inv.p_g - inv.q + 1
        checked += 1

    # h0 can only shrink when a point is added: 500 random systems
    for _ in range(500):
        k = rng.randint(1, 20)
        r = rng.randint(1, 3)
        s = rng.randint(1, 20)
        a = h0_fatpoints(FatPointSystem(k, r, s), trials=2)
        b = h0_fatpoints(FatPointSystem(k, r, s + 1), trials=2)
        assert b <= a, (k, r, s)

    # byte determinism of a full CLI run, RNG path included
    cmd = [sys.executable, "-m", "cangeo", "xi", "--m", "5", "--dmax", "40",
           "--format", "csv"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.stdout == second.stdout and first.returncode == 0
    cmd = [sys.executable, "-m", "cangeo", "oracle", "h0", "--k", "14",
           "--r", "4", "--s", "10", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.stdout == second.stdout

    assert time.monotonic() - start < 120.0
