"""Finite-field linear algebra and the interpolation oracle.

The reference values here were frozen from an independent exact-rational
elimination (reimplemented below with Fractions, no numpy) before the
fast path existed, so the two implementations share no code.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cangeo import fatpoints
from cangeo.classify import BlowupPair, TriState, alpha_surjective, zones
from cangeo.fatpoints import (
    DEFAULT_PRIME,
    MAX_ELIMINATION_WORK,
    MAX_MATRIX_ENTRIES,
    MAX_PRIME,
    MAX_TRIALS,
    FatPointSystem,
    OracleLimitError,
    PointConfiguration,
    alpha_rank,
    _alpha_floors,
    _alpha_trial,
    _echelon,
    _most_generic,
    _pivot_loop,
    _prefix_ranks,
    _submul_mod_p,
    h0_fatpoints,
    kernel_basis_mod_p,
    monomial_basis,
    rank_mod_p,
    rref_mod_p,
    vanishing_matrix,
)

P = DEFAULT_PRIME
LARGEST_PRIME = 3037000493   # the largest prime <= MAX_PRIME


# ---------------------------------------------------------------------------
# independent reference: exact elimination over the rationals
# ---------------------------------------------------------------------------

def _falling(n, a):
    out = 1
    for i in range(a):
        out *= n - i
    return out


def _rational_rows(k, r, points):
    rows = []
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        for a in range(r):
            for b in range(r - a):
                row = []
                for i, j, _ in monomial_basis(k):
                    if i < a or j < b:
                        row.append(Fraction(0))
                    else:
                        row.append(_falling(i, a) * _falling(j, b)
                                   * x ** (i - a) * y ** (j - b))
                rows.append(row)
    return rows


def _rational_rank(rows):
    m = [row[:] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = 1 / m[rank][c]
        m[rank] = [v * scale for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[rank])]
        rank += 1
    return rank


FIVE_POINTS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)]


def test_rank_matches_rational_reference_simple_points():
    rows = _rational_rows(3, 1, FIVE_POINTS)
    assert _rational_rank(rows) == 5
    cfg = PointConfiguration(points=tuple(FIVE_POINTS))
    mat = vanishing_matrix(cfg, FatPointSystem(3, 1, 5), P)
    assert rank_mod_p(mat, P) == 5


def test_rank_matches_rational_reference_double_points():
    # two double points on a conic: the double line through them survives
    pts = [(0, 0), (1, 1)]
    rows = _rational_rows(2, 2, pts)
    assert _rational_rank(rows) == 5
    cfg = PointConfiguration(points=tuple(pts))
    mat = vanishing_matrix(cfg, FatPointSystem(2, 2, 2), P)
    assert rank_mod_p(mat, P) == 5


def test_special_system_double_conic():
    # five double points on a quartic: naive count says empty, the double
    # conic through the five points says one section
    system = FatPointSystem(4, 2, 5)
    assert system.expected_h0 == 0
    h0 = h0_fatpoints(system)
    assert h0 == 1
    assert h0 - (system.ambient_dim - system.conditions) == 1   # h1 = h0 - chi
    assert h0 - system.expected_h0 == 1


def test_special_system_double_line():
    system = FatPointSystem(2, 2, 2)
    assert h0_fatpoints(system) == 1
    assert h0_fatpoints(system) - system.expected_h0 == 1


def test_vanishing_matrix_matches_rational_rows():
    # entry by entry, including r > k (whole rows zero), negative
    # coordinates and residues just below P
    pts = [(0, 0), (1, 0), (0, 1), (2, 3), (-4, 7), (P - 1, P - 2)]
    cfg = PointConfiguration(points=tuple(pts))
    for k in range(7):
        for r in range(1, 5):
            mat = vanishing_matrix(cfg, FatPointSystem(k, r, len(pts)), P)
            expected = [[int(v) % P for v in row]
                        for row in _rational_rows(k, r, pts)]
            assert mat.dtype == np.int64
            assert mat.tolist() == expected, (k, r)


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------

def test_rref_pivots():
    mat = np.array([[2, 4, 6], [1, 2, 4]], dtype=np.int64)
    reduced, pivots = rref_mod_p(mat, P)
    assert list(pivots) == [0, 2]
    assert reduced[0, 0] == 1 and reduced[1, 2] == 1
    assert reduced[0, 2] == 0 and reduced[1, 0] == 0


def test_monomial_basis_size_and_degree():
    for k in range(7):
        basis = monomial_basis(k)
        assert len(basis) == (k + 1) * (k + 2) // 2
        assert all(i + j + l == k for i, j, l in basis)
        assert len(set(basis)) == len(basis)


small_matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@given(small_matrices)
def test_rank_equals_transpose_rank(entries):
    mat = np.array(entries, dtype=np.int64)
    assert rank_mod_p(mat, P) == rank_mod_p(mat.T.copy(), P)
    # equal unless P divides every maximal minor (all below 3.4e12 here)
    assert rank_mod_p(mat, P) == _rational_rank(
        [[Fraction(v) for v in row] for row in entries])


@given(small_matrices)
def test_kernel_is_annihilated(entries):
    mat = np.array(entries, dtype=np.int64) % P
    kernel = kernel_basis_mod_p(mat, P)
    assert kernel.shape[0] + rank_mod_p(mat, P) == mat.shape[1]
    # products via Python ints: a row dot can overflow int64 at this modulus
    for vec in kernel:
        for row in mat:
            assert sum(int(a) * int(b) for a, b in zip(row, vec)) % P == 0


def test_exact_at_the_largest_accepted_prime():
    p = 3037000493   # the largest prime <= MAX_PRIME
    assert (MAX_PRIME - 1) ** 2 < 2 ** 63
    rng = np.random.default_rng(7)
    top = [[int(v) for v in row] for row in rng.integers(p - 10 ** 6, p, (4, 9))]
    # two more rows in the span of the first four: rank 4, kernel of dim 5
    rows = top + [[(a * 3 + b * (p - 2) + c) % p for a, b, c in zip(*top[:3])],
                  [(a * (p - 1) + d * 5) % p for a, d in zip(top[0], top[3])]]
    mat = np.array(rows, dtype=np.int64)
    assert rank_mod_p(mat, p) == 4
    kernel = kernel_basis_mod_p(mat, p)
    assert kernel.shape == (5, 9)
    for vec in kernel:
        for row in rows:
            assert sum(a * int(b) for a, b in zip(row, vec)) % p == 0


PRIMES = (5, 7, 1000003, 2 ** 31 - 1, 3037000493)


@st.composite
def structured_matrices(draw, rows=(1, 80), cols=(1, 40)):
    """(matrix of residues, p), by default with 1-80 rows, so the block
    recursion and its leaves run at small sizes: full or rank-deficient
    products, with zero rows, repeated rows and zero columns, and leading
    columns of low rank, where a leaf's first 2m live columns hold fewer
    than m pivots."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(*rows)), draw(st.integers(*cols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))

    def product(width):
        # rank at most `inner`; small left factors keep int64 exact
        inner = draw(st.integers(0, min(rows, width)))
        return rng.integers(0, 4, (rows, inner)) @ rng.integers(
            0, p, (inner, width)) % p

    if draw(st.booleans()):
        mat = rng.integers(0, p, (rows, cols))
    else:
        mat = product(cols)
    if draw(st.booleans()):
        band = draw(st.integers(1, cols))
        mat[:, :band] = product(band)
    mat[rng.random(rows) < draw(st.sampled_from((0, 0.3)))] = 0
    mat[:, rng.random(cols) < draw(st.sampled_from((0, 0.3)))] = 0
    if draw(st.booleans()):
        copies = rng.integers(0, rows, rows // 2)
        mat[rng.integers(0, rows, rows // 2)] = mat[copies]
    return mat, p


@settings(deadline=None)
@given(structured_matrices())
def test_block_path_equals_the_pivot_loop(case):
    mat, p = case
    by_loop = mat.copy()
    loop_pivots = _pivot_loop(by_loop, p, reduced=True)
    with mock.patch.object(fatpoints, "_BLOCK_MIN_ROWS", 0):
        by_blocks, pivots = fatpoints._echelon(mat, p)
        rank_only_pivots = fatpoints._echelon(mat, p, rank_only=True)[1]
    assert pivots == rank_only_pivots == loop_pivots
    assert np.array_equal(by_blocks, by_loop)


@settings(deadline=None, max_examples=30)
@given(structured_matrices(rows=(128, 400), cols=(1, 400)))
def test_rank_only_blocks_equal_the_pivot_loop(case):
    # matrices from the gate up, tall or wide: the rank-only recursion
    # must find the pivot loop's pivot columns, for the rows and, through
    # _prefix_ranks, for the columns
    mat, p = case
    assert mat.shape[0] >= fatpoints._BLOCK_MIN_ROWS
    row_pivots = _pivot_loop(mat.copy(), p, reduced=False)
    col_pivots = _pivot_loop(mat.T.copy(), p, reduced=False)
    assert rank_mod_p(mat, p) == len(row_pivots)
    counts = list(range(0, mat.shape[0] + 1, 7)) + [mat.shape[0]]
    assert _prefix_ranks(mat, counts, p).tolist() == np.searchsorted(
        col_pivots, counts).tolist()
    assert _prefix_ranks(mat.T, [mat.shape[1]], p).tolist() == [
        len(row_pivots)]


def test_public_functions_above_the_block_gate(monkeypatch):
    # the widest ladder system (450 x 861, rank 450), with 100 repeated
    # rows appended (rank-deficient), and its transpose (861 rows, 411 of
    # them zero in the reduced form) through _prefix_ranks; and the
    # 250 x 276 rung, which only a gate below 256 sends to the blocks
    cfg = PointConfiguration.random(30, seed=0xC0FFEE)
    mat = vanishing_matrix(cfg, FatPointSystem(40, 5, 30), P)
    tall = np.vstack([mat, mat[:100] * 3 % P])
    rung = vanishing_matrix(PointConfiguration(points=cfg.points[:25]),
                            FatPointSystem(22, 4, 25), P)
    counts = [0, 1, 100, 300, 450, 600, 861]

    def measure():
        return (rank_mod_p(mat, P), rank_mod_p(tall, P), rank_mod_p(rung, P),
                rref_mod_p(tall, P), kernel_basis_mod_p(mat, P),
                _prefix_ranks(mat, counts, P))

    assert fatpoints._BLOCK_MIN_ROWS <= min(rung.shape) < min(mat.shape)
    by_blocks = measure()
    monkeypatch.setattr(fatpoints, "_BLOCK_MIN_ROWS", 10 ** 9)
    by_loop = measure()
    assert by_blocks[:3] == by_loop[:3] == (450, 450, 250)
    assert by_blocks[3][1] == by_loop[3][1]
    assert np.array_equal(by_blocks[3][0], by_loop[3][0])
    assert np.array_equal(by_blocks[4], by_loop[4])
    assert by_blocks[5].tolist() == by_loop[5].tolist() == [
        0, 1, 100, 300, 450, 450, 450]


def _submul_reference(acc, left, right, p):
    return (acc.astype(object) - left.astype(object) @ right.astype(object)) % p


def test_limb_product_is_exact_at_its_limit():
    # every entry p - 1 at the largest accepted prime, and the largest inner
    # dimension: 1891 = 61*62/2 monomials of degree 60, the longest V_{d-1}
    # vector alpha_rank admits (every s is over a cap at d = 62), above the
    # largest rank the elimination cap allows; 300 columns cross a panel
    p = 3037000493
    assert MAX_PRIME < 2 ** 32
    inner = FatPointSystem(60, 1, 1).ambient_dim
    assert inner == 1891
    assert round(MAX_ELIMINATION_WORK ** (1 / 3)) < inner
    for s in range(1, MAX_MATRIX_ENTRIES // FatPointSystem(62, 1, 1).ambient_dim):
        with pytest.raises(OracleLimitError):
            alpha_rank(62, [s])
    left = np.full((3, inner), p - 1, dtype=np.int64)
    right = np.full((inner, 300), p - 1, dtype=np.int64)
    right[:, ::7] = np.arange(inner)[:, None]
    acc = np.full((3, 300), p - 1, dtype=np.int64)
    acc[1] = 0
    expected = _submul_reference(acc, left, right, p)
    _submul_mod_p(acc, left, right, p)
    assert acc.tolist() == expected.tolist()


@pytest.mark.parametrize("inner", [1, 32, 1891])
def test_limb_product_matches_exact_integers_on_random_residues(inner):
    p = 3037000493
    rng = np.random.default_rng(inner)
    left = rng.integers(0, p, size=(5, inner))
    right = rng.integers(0, p, size=(inner, 300))
    acc = rng.integers(0, p, size=(5, 300))
    expected = _submul_reference(acc, left, right, p)
    _submul_mod_p(acc, left, right, p)
    assert acc.tolist() == expected.tolist()


def test_limb_product_gathers_its_left_factor_from_c_itself():
    # C -= C[:, cols] @ Y, as the block elimination clears its pivots; 400
    # rows take the gather in several blocks
    p = 3037000493
    rng = np.random.default_rng(11)
    acc = rng.integers(0, p, size=(400, 300))
    cols = rng.permutation(300)[:50]
    right = rng.integers(0, p, size=(50, 300))
    expected = _submul_reference(acc, acc[:, cols], right, p)
    _submul_mod_p(acc, acc, right, p, cols=cols)
    assert acc.tolist() == expected.tolist()


# --- working set, measured with tracemalloc, which numpy reports to -------

# numpy's ufunc casting buffers (8192 entries, 64 KiB each) and small
# Python objects
SLACK = 256 * 1024


def _traced_peak(call) -> int:
    """Peak bytes allocated while `call` runs, above what it started with."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_limb_product_allocates_the_same_whatever_its_width():
    # fresh limbs and temporaries per panel, each set alive while the next
    # was made, took 3.2 MiB more at 4096 columns than at 64
    rng = np.random.default_rng(7)
    left = rng.integers(0, P, size=(225, 225))
    peaks = []
    for cols in (64, 4096):
        acc = rng.integers(0, P, size=(225, cols))
        right = rng.integers(0, P, size=(225, cols))
        peaks.append(_traced_peak(lambda: _submul_mod_p(acc, left, right, P)))
    assert peaks[1] <= peaks[0] + SLACK
    # the left factor's three limb arrays and six panel buffers
    panel = 225 * max(fatpoints._PANEL_MIN_COLS,
                      fatpoints._PANEL_ENTRIES // 225) * 8
    assert peaks[1] <= 3 * left.nbytes + 6 * panel + SLACK


def test_the_vanishing_matrix_is_built_in_place_and_row_major():
    # the result, one (points x monomials) slice of scratch, and three
    # ((a, b) x monomials) tables: coefficients and two exponent indices,
    # besides the monomial list.  The build peaked at twice the result,
    # which the reshape then copied
    system = FatPointSystem(40, 5, 30)
    cfg = PointConfiguration.random(30, seed=1, p=P)
    built = []
    peak = _traced_peak(lambda: built.append(vanishing_matrix(cfg, system, P)))
    [matrix] = built
    assert matrix.dtype == np.int64 and matrix.flags.c_contiguous
    assert matrix.shape == (450, 861)
    one_slice = 30 * 861 * 8
    tables = 3 * 15 * 861 * 8
    assert peak <= matrix.nbytes + one_slice + tables + SLACK


def test_a_transpose_is_eliminated_in_one_working_copy(monkeypatch):
    # the residues of a transpose were made column-major, then copied again
    # to row-major: two copies alive before the first product
    matrix = np.random.default_rng(3).integers(0, P, size=(450, 861)).T
    reduce_rows = fatpoints._reduce_rows
    entered = []

    def first_entry(A, p, rank_only=False):
        if not entered:
            entered.append((A.flags.c_contiguous,
                            tracemalloc.get_traced_memory()[1]))
        return reduce_rows(A, p, rank_only)

    monkeypatch.setattr(fatpoints, "_reduce_rows", first_entry)
    _traced_peak(lambda: _echelon(matrix, P, rank_only=True))
    [(row_major, peak)] = entered
    assert row_major
    assert peak <= matrix.nbytes + SLACK


def test_a_kernel_basis_holds_the_basis_and_one_gathered_block():
    # the 300x820 degree-39 matrix of `oracle alpha --d 40 --s 300`: the
    # echelon form alive beside the basis and the negation's two
    # rank-by-free temporaries took 7.5 MiB, for a 3.3 MiB basis
    cfg = PointConfiguration.random(300, 0xC0FFEE)
    matrix = vanishing_matrix(cfg, FatPointSystem(39, 1, 300))
    built = []
    peak = _traced_peak(lambda: built.append(kernel_basis_mod_p(matrix)))
    [basis] = built
    reduced, pivots = rref_mod_p(matrix)
    free = [c for c in range(820) if c not in pivots]
    assert basis.shape == (520, 820) and len(pivots) == 300
    assert (basis[:, free] == np.eye(520, dtype=np.int64)).all()
    assert (basis[:, pivots] == -reduced[:300, free].T % P).all()
    assert peak <= basis.nbytes + 300 * 520 * 8 + SLACK


def _split_workspace(rows: int) -> int:
    """Bytes of _submul_mod_p's workspace at the top split of a block
    elimination of `rows` rows: the bottom half's three limb arrays, at
    most as wide as the top half, and six panel buffers."""
    m = rows - rows // 2
    width = max(fatpoints._PANEL_MIN_COLS, fatpoints._PANEL_ENTRIES // m)
    return 3 * m * (rows // 2) * 8 + 6 * m * width * 8


def test_an_h0_trial_eliminates_the_matrix_it_built_in_place():
    # (40, 5, 30): a 450x861 matrix, 3.0 MiB.  Its working copy beside it
    # took 3.0 MiB more.  The build's slice and tables are freed before
    # the elimination, so the sum bounds the peak of either
    peak = _traced_peak(lambda: h0_fatpoints(FatPointSystem(40, 5, 30),
                                             trials=1))
    matrix = 450 * 861 * 8
    build = 30 * 861 * 8 + 3 * 15 * 861 * 8
    assert peak <= matrix + build + _split_workspace(450) + SLACK


def test_an_alpha_product_is_eliminated_in_place(monkeypatch):
    # degree 30 at s = 200..205: the flag's product and the direct one at
    # s = 205 are 795 and 780 rows by 496, eliminated as their 496-row
    # transposes.  Built row by row, each took a working copy of 3.0 MiB
    product_matrix, echelon = fatpoints._product_matrix, fatpoints._echelon
    products, eliminated = [], []

    def built(*args):
        products.append(product_matrix(*args))
        return products[-1]

    def traced(matrix, *args, **kwargs):
        result = []
        peak = _traced_peak(lambda: result.append(echelon(matrix, *args,
                                                          **kwargs)))
        eliminated.append((matrix, result[0][0], peak))
        return result[0]

    monkeypatch.setattr(fatpoints, "_product_matrix", built)
    monkeypatch.setattr(fatpoints, "_echelon", traced)
    cfg = PointConfiguration.random(205, 0xC0FFEE)
    column = _alpha_trial(30, cfg, range(200, 206), P)
    monkeypatch.undo()
    assert column[-1] == _alpha_reference(30, cfg, 205, P)
    assert [prod.shape for prod in products] == [(795, 496), (780, 496)]
    for prod in products:
        [(working, peak)] = [(A, peak) for matrix, A, peak in eliminated
                             if np.shares_memory(matrix, prod)]
        assert np.shares_memory(working, prod)
        assert peak <= _split_workspace(496) + SLACK


def test_an_elimination_copies_its_argument_unless_told_to_overwrite():
    # a C-contiguous int64 matrix of residues is the one input that can be
    # reduced in place: by default no elimination touches it.  The two
    # sizes take the two routes, the pivot loop and the row blocks
    rng = np.random.default_rng(5)
    for rows in (40, 160):
        # rank rows - 10, so the kernel and the prefix ranks are not trivial
        matrix = (rng.integers(0, P, size=(rows, rows - 10))
                  @ rng.integers(0, 2, size=(rows - 10, rows + 20))) % P
        assert matrix.dtype == np.int64 and matrix.flags.c_contiguous
        before = matrix.tobytes()
        rank = rank_mod_p(matrix)
        assert rank == rows - 10
        rref_mod_p(matrix)
        kernel_basis_mod_p(matrix)
        counts = [1, rows // 2, rows]
        prefix = _prefix_ranks(matrix, counts, P)
        # the transpose of a C-contiguous matrix, which _prefix_ranks turns
        # back to row-major
        _prefix_ranks(matrix.T, counts, P)
        assert matrix.tobytes() == before
        # none of these is a writeable, C-contiguous int64 array: each is
        # copied with the flag too
        read_only = matrix.copy()
        read_only.flags.writeable = False
        for other in (matrix.T, matrix[::2], matrix.astype(np.int32),
                      read_only):
            kept = other.tobytes()
            assert rank_mod_p(other, overwrite=True) == rank_mod_p(other)
            assert other.tobytes() == kept
        assert matrix.tobytes() == before
        # the flag on the one input it applies to: the same answers
        assert rank_mod_p(matrix.copy(), overwrite=True) == rank
        assert (_prefix_ranks(matrix.T.copy().T, counts, P, overwrite=True)
                == prefix).all()


def test_moduli_that_overflow_int64_are_rejected():
    big = 4294967311   # prime, (big - 1)**2 > 2**63
    mat = np.array([[1, 2], [3, 4]], dtype=np.int64)
    for fn in (rank_mod_p, rref_mod_p, kernel_basis_mod_p):
        with pytest.raises(ValueError, match="overflow"):
            fn(mat, big)
    cfg = PointConfiguration(points=((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="overflow"):
        vanishing_matrix(cfg, FatPointSystem(4, 2, 2), big)
    with pytest.raises(ValueError, match="overflow"):
        h0_fatpoints(FatPointSystem(4, 2, 5), p=big)


# Z/0Z and Z/1Z are not fields: these read rank 0, 0 and h0 = 6 (not 5)
@pytest.mark.parametrize("call", [
    lambda: rank_mod_p(np.array([[1, 2], [3, 4]]), 0),
    lambda: rank_mod_p(np.array([[1, 2], [3, 4]]), 1),
    lambda: h0_fatpoints(FatPointSystem(2, 1, 1), trials=1, p=1),
], ids=["rank-p0", "rank-p1", "h0-p1"])
def test_moduli_below_2_are_rejected(call):
    with pytest.raises(ValueError, match="positive"):
        call()


# Z/4Z is not a field: the first read rank 1 for a matrix of rank 2 over Q,
# the others failed in pow with "base is not invertible"
@pytest.mark.parametrize("call", [
    lambda: rank_mod_p(np.array([[3, 1], [1, 3]]), 4),
    lambda: rank_mod_p(np.array([[2]]), 4),
    lambda: h0_fatpoints(FatPointSystem(3, 2, 2), trials=1, seed=1, p=4),
    lambda: kernel_basis_mod_p(np.array([[1, 2]]), 2 ** 31 + 1),
    lambda: vanishing_matrix(PointConfiguration(((1, 2),)),
                             FatPointSystem(2, 1, 1), MAX_PRIME),
], ids=["rank-p4", "rank-unit-p4", "h0-p4", "kernel-2^31+1", "build-max"])
def test_composite_moduli_are_rejected(call):
    with pytest.raises(ValueError, match="not a prime") as exc:
        call()
    assert not isinstance(exc.value, OracleLimitError)


def test_the_modulus_checks_run_in_order(monkeypatch):
    # a prime above MAX_PRIME is over the cap, not composite; a draw
    # rejects a composite modulus before it draws
    with pytest.raises(OracleLimitError, match="overflow"):
        rank_mod_p(np.array([[1]]), 4294967311)

    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(fatpoints, "Random", no_draw)
    with pytest.raises(ValueError, match="not a prime"):
        PointConfiguration.random(3, 1, MAX_PRIME)


def test_points_that_coincide_mod_p_are_rejected():
    # (0, 0) and (5, 0) are one point over Z/5Z: its rows would repeat and
    # three conditions on conics read rank 2, overstating h0
    cfg = PointConfiguration(((0, 0), (5, 0), (1, 2)))
    conics = FatPointSystem(2, 1, 3)
    with pytest.raises(ValueError, match="pairwise distinct"):
        vanishing_matrix(cfg, conics, 5)
    assert rank_mod_p(vanishing_matrix(cfg, conics, 7), 7) == 3


def test_matrix_size_cap():
    # 55000 x 20301 and a 60297-row product matrix: rejected before any draw
    with pytest.raises(ValueError, match="cap"):
        h0_fatpoints(FatPointSystem(200, 10, 1000))
    with pytest.raises(ValueError, match="cap"):
        alpha_rank(200, [1])
    # a 5000-column kernel basis of a 1-row input would be 5000 x 5000
    with pytest.raises(ValueError, match="cap"):
        kernel_basis_mod_p(np.zeros((1, 5000), dtype=np.int64))
    widest = FatPointSystem(40, 5, 30)   # the largest system in tests and bench
    assert widest.conditions * widest.ambient_dim < MAX_MATRIX_ENTRIES


def _caps_accept(k: int, r: int, s: int) -> bool:
    """h0_fatpoints' size and work caps, as arithmetic on the constants."""
    rows, cols = s * r * (r + 1) // 2, (k + 1) * (k + 2) // 2
    return (rows * cols <= MAX_MATRIX_ENTRIES
            and rows * cols * min(rows, cols) <= MAX_ELIMINATION_WORK)


def test_the_caps_accept_no_multiplicity_above_37_with_k_at_least_r():
    # With s >= 10 and k >= r both cap products grow with k and s, so
    # (r, r, 10) is the smallest system of each r: the caps accept some
    # system of multiplicity r (with k >= r, s >= 10) iff they accept it.
    # The largest such r is 37, so an accepted system with s >= 10 has
    # k < r or r <= 42, the range in which the homogeneous SHGH bound holds.
    accepted = [r for r in range(1, 200) if _caps_accept(r, r, 10)]
    assert accepted == list(range(1, 38))
    assert max(r for r in range(1, 60) for k in range(r, r + 60)
               for s in range(10, 40) if _caps_accept(k, r, s)) == 37
    # the arithmetic is the caps h0_fatpoints checks before its draw, which
    # accept r > 42 only with k < r
    for system in (FatPointSystem(37, 37, 10), FatPointSystem(5, 100, 10)):
        assert _caps_accept(*system)
        fatpoints._check_size(system.conditions, system.ambient_dim)
        fatpoints._check_work(system.conditions, system.ambient_dim)
    with pytest.raises(OracleLimitError):
        h0_fatpoints(FatPointSystem(38, 38, 10))


def test_elimination_work_cap():
    # 4000 x 4095 is under the entry cap but would take minutes to eliminate
    system = FatPointSystem(89, 1, 4000)
    assert system.conditions * system.ambient_dim <= MAX_MATRIX_ENTRIES
    with pytest.raises(ValueError, match="cap"):
        h0_fatpoints(system)
    # alpha_rank's high vanishing matrix: 2000 x 1891
    with pytest.raises(ValueError, match="cap"):
        alpha_rank(60, [2000])
    # at d = 53 only 782 <= s <= 1947 pass: the vanishing matrix grows with
    # s and the product matrix (3 * (1431 - s) rows) shrinks, so a column
    # is checked at both ends before its first entry is measured
    with pytest.raises(ValueError, match="2000x1485"):
        alpha_rank(53, [800, 2000])
    with pytest.raises(ValueError, match="2193x1485"):
        alpha_rank(53, [700, 1000])
    with pytest.raises(ValueError, match="cap"):
        rank_mod_p(np.zeros((1700, 1700), dtype=np.int64))
    with pytest.raises(ValueError, match="cap"):
        rref_mod_p(np.zeros((1700, 1700), dtype=np.int64))
    widest = FatPointSystem(40, 5, 30)
    rows, cols = widest.conditions, widest.ambient_dim
    assert rows * cols * min(rows, cols) < MAX_ELIMINATION_WORK


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------

def test_trial_counts_above_the_cap_are_rejected():
    system = FatPointSystem(5, 2, 3)
    assert h0_fatpoints(system, trials=MAX_TRIALS) == 12
    assert alpha_rank(3, [2, 5], trials=MAX_TRIALS) == [(8, 12, 8), (3, 3, 5)]
    with pytest.raises(OracleLimitError, match=f"cap of {MAX_TRIALS}"):
        h0_fatpoints(system, trials=MAX_TRIALS + 1)
    with pytest.raises(OracleLimitError, match=f"cap of {MAX_TRIALS}"):
        alpha_rank(3, [2, 5], trials=MAX_TRIALS + 1)


def test_h0_empty_and_full_systems():
    assert h0_fatpoints(FatPointSystem(1, 1, 3)) == 0
    assert h0_fatpoints(FatPointSystem(1, 1, 2)) == 1
    assert h0_fatpoints(FatPointSystem(0, 1, 1)) == 0
    assert h0_fatpoints(FatPointSystem(5, 1, 1)) == 20


def test_h0_is_deterministic():
    a = h0_fatpoints(FatPointSystem(9, 3, 7), trials=3, seed=123)
    b = h0_fatpoints(FatPointSystem(9, 3, 7), trials=3, seed=123)
    assert a == b
    cfg1 = PointConfiguration.random(6, seed=99, trial=2)
    cfg2 = PointConfiguration.random(6, seed=99, trial=2)
    assert cfg1.points == cfg2.points


def _h0_readings(system, trials, seed):
    """h0 of each of the first `trials` configurations, each drawn and
    measured on its own."""
    return [system.ambient_dim - rank_mod_p(vanishing_matrix(
                PointConfiguration.random(system.point_count, seed, P,
                                          trial=t), system, P), P)
            for t in range(trials)]


def _counting_draws(monkeypatch, draws):
    """Append the trial of every PointConfiguration.random call to draws."""
    real = PointConfiguration.random

    def counted(count, seed, p=P, trial=0):
        draws.append(trial)
        return real(count, seed, p, trial=trial)

    monkeypatch.setattr(PointConfiguration, "random", counted)


# (4, 2, 5): the double conic through five points, h0 = 1 > virtual 0;
# (12, 8, 2) and (2, 2, 2): the line through the two points is a fixed
# component
_SPECIAL_SYSTEMS = [(4, 2, 5), (12, 8, 2), (2, 2, 2)]


@pytest.mark.parametrize("seed", [0xC0FFEE, 0x5EED5])
def test_h0_stops_at_the_floor_and_equals_every_trials_minimum(
        monkeypatch, seed):
    grid = [(k, r, s) for k in (1, 3, 5, 8) for r in (1, 2, 3)
            for s in (1, 2, 4, 7)] + _SPECIAL_SYSTEMS
    for trials in (1, 2, 3):
        for k, r, s in grid:
            system = FatPointSystem(k, r, s)
            readings = _h0_readings(system, trials, seed)
            draws = []
            _counting_draws(monkeypatch, draws)
            assert h0_fatpoints(system, trials, seed) == min(readings), (
                k, r, s, trials)
            monkeypatch.undo()
            floor = system.expected_h0
            ran = readings.index(floor) + 1 if floor in readings else trials
            assert draws == list(range(ran)), (k, r, s, trials)
            if (k, r, s) in _SPECIAL_SYSTEMS:
                assert ran == trials
            elif (k, r, s) == (8, 3, 4):    # h0 21 = 45 - 24
                assert ran == 1


def test_a_draw_is_every_smaller_draw_extended():
    # tiny moduli force repeats; count p*p draws every point of F_p^2, and
    # each smaller count draws its prefix, so random(c + 1) extends random(c)
    plane = {p: sorted((x, y) for x in range(p) for y in range(p))
             for p in (2, 3, 5, 7, 11)}
    for p, points in plane.items():
        for seed in (0, 1, 99, 0xC0FFEE, 2 ** 64 + 5, 2 ** 160 - 1):
            for trial in (0, 1, 2 ** 32 + 1):
                full = PointConfiguration.random(p * p, seed, p, trial=trial)
                assert sorted(full.points) == points, (p, seed, trial)
                for count in range(p * p):
                    assert PointConfiguration.random(
                        count, seed, p, trial=trial
                    ).points == full.points[:count], (p, seed, trial, count)
    # numpy integers draw the points of the Python ints they hold
    assert PointConfiguration.random(
        40, np.uint64(2 ** 64 - 1), np.int64(LARGEST_PRIME), trial=np.int64(3)
    ) == PointConfiguration.random(40, 2 ** 64 - 1, LARGEST_PRIME, trial=3)
    # the standard library's stream, pinned: a change to it fails here
    assert PointConfiguration.random(3, 0xC0FFEE, 2 ** 31 - 1).points == (
        (1111372957, 1151836832), (1745117303, 1763035823),
        (579508931, 1981614911))


def test_draw_rejects_its_inputs_before_drawing(monkeypatch):
    # a p above MAX_PRIME is refused because int64 products of residues
    # would overflow, and a negative seed or trial by the input contract
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(fatpoints, "Random", no_draw)
    with pytest.raises(OracleLimitError, match="overflow"):
        PointConfiguration.random(2, 0xC0FFEE, 4294967311)
    with pytest.raises(OracleLimitError, match="overflow"):
        PointConfiguration.random(2, 0xC0FFEE, MAX_PRIME + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        PointConfiguration.random(2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        PointConfiguration.random(2, 0xC0FFEE, trial=-1)
    with pytest.raises(ValueError, match="positive"):
        PointConfiguration.random(0, 0xC0FFEE, 0)


def test_more_points_than_the_plane_holds_are_rejected():
    # Z/5Z has 25 points: the draw takes every one, and cannot take 26
    assert len(PointConfiguration.random(25, 0xC0FFEE, 5).points) == 25
    assert h0_fatpoints(FatPointSystem(5, 1, 25), p=5) == 2
    with pytest.raises(ValueError, match="25 points, not 26"):
        PointConfiguration.random(26, 0xC0FFEE, 5)
    with pytest.raises(ValueError, match="25 points, not 26"):
        h0_fatpoints(FatPointSystem(5, 1, 26), p=5)
    with pytest.raises(ValueError, match="25 points, not 30"):
        alpha_rank(8, [30], p=5)


def test_point_configurations_differ_between_trials():
    cfg0 = PointConfiguration.random(6, seed=99, trial=0)
    cfg1 = PointConfiguration.random(6, seed=99, trial=1)
    assert cfg0.points != cfg1.points


def test_repeated_points_rejected():
    with pytest.raises(ValueError):
        PointConfiguration(points=((1, 2), (1, 2)))


def test_system_validation():
    with pytest.raises(ValueError):
        FatPointSystem(-1, 1, 1)
    with pytest.raises(ValueError):
        FatPointSystem(3, 0, 1)
    with pytest.raises(ValueError):
        FatPointSystem(3, 1, 0)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 8))
def test_h0_bounds_and_monotonicity(k, r, s):
    system = FatPointSystem(k, r, s)
    h0 = h0_fatpoints(system, trials=2)
    assert max(system.expected_h0, 0) <= h0 <= system.ambient_dim
    bigger = FatPointSystem(k, r, s + 1)
    assert h0_fatpoints(bigger, trials=2) <= h0


def test_alpha_rank_small_cases():
    # d=2, s=1: one conic pencil member times three linear forms spans
    # everything vanishing at the point
    [(rank, source, target)] = alpha_rank(2, [1])
    assert (rank, source, target) == (5, 6, 5)
    # d=3, s=5: one conic through five points, map cannot reach dim 5
    [(rank, source, target)] = alpha_rank(3, [5])
    assert (rank, source, target) == (3, 3, 5)


def test_alpha_rank_validation():
    with pytest.raises(ValueError):
        alpha_rank(1, [3])
    with pytest.raises(ValueError):
        alpha_rank(3, [0])
    with pytest.raises(ValueError):
        alpha_rank(3, [4, 0, 5])
    with pytest.raises(ValueError):
        alpha_rank(3, [])


def test_trial_rule_keeps_the_generic_configuration():
    # five points on the line y = 0: every conic through them contains
    # the line, so V_2 = line * V_1 (dim 3) and V_3 = line * V_2 (dim 6),
    # and the map reaches all of V_3.  In general position the one conic
    # through five points gives rank 3 < dim V_3 = 5.
    collinear = PointConfiguration(points=tuple((x, 0) for x in range(5)))
    generic = PointConfiguration.random(5, seed=0xC0FFEE)
    [special] = _alpha_trial(3, collinear, [5], P)
    [usual] = _alpha_trial(3, generic, [5], P)
    assert special == (6, 9, 6)     # coker 0: surjective
    assert usual == (3, 3, 5)       # coker 2: not surjective
    # the special trial has the larger rank and must still lose
    assert min([special, usual], key=_most_generic) == usual
    assert min([usual, special], key=_most_generic) == usual


def test_the_alpha_zones_are_the_floor_rule():
    # The floor (min(src, tgt), src, tgt), src = 3 * max(0, N_{d-1} - s)
    # and tgt = max(0, N_d - s), is onto iff s >= N_d or 3 * N_{d-1} - N_d
    # = d^2 - 1 >= 2s.  So it is not onto exactly on (d^2+1)//2 <= s < N_d,
    # and the zones' alpha thresholds are that arithmetic.
    for d in range(2, 100001):
        z = zones(d)
        assert z.alpha_no_min == (d * d + 1) // 2, d
        assert z.alpha_yes_min == (d + 1) * (d + 2) // 2, d
        assert z.alpha_yes_max <= (d * d - 1) // 2, d
    gap = 0
    for d in range(2, 41):
        s_values = range(1, (d + 1) * (d + 2) // 2 + 3)
        for s, (rank, _, target) in zip(s_values,
                                        _alpha_floors(d, s_values, 1)):
            verdict = alpha_surjective(BlowupPair(d, s))
            if verdict is TriState.UNKNOWN:
                gap += 1
                assert rank == target, (d, s)
            else:
                assert (verdict is TriState.YES) == (rank == target), (d, s)
    assert gap == 342


def test_an_alpha_trial_builds_one_vanishing_matrix(monkeypatch):
    # the degree-(d-1) matrix is read off the degree-d one
    built = []

    def counted(cfg, system, p=P):
        built.append(system)
        return vanishing_matrix(cfg, system, p)

    monkeypatch.setattr(fatpoints, "vanishing_matrix", counted)
    _alpha_trial(6, PointConfiguration.random(30, 0xC0FFEE), range(1, 31), P)
    assert built == [FatPointSystem(6, 1, 30)]


def test_a_reading_above_the_floor_does_not_stop_the_trials(monkeypatch):
    # trial 0 draws five points on y = 0: a cubic through them contains
    # the line, so they impose 4 conditions (h0 6 > floor 5), and at
    # (d, s) = (3, 5) the map reads (6, 9, 6), above the floor (3, 3, 5)
    real, draws = PointConfiguration.random, []

    def collinear_first(count, seed, p=P, trial=0):
        draws.append(trial)
        if trial == 0:
            return PointConfiguration(points=tuple((x, 0)
                                                   for x in range(count)))
        return real(count, seed, p, trial=trial)

    monkeypatch.setattr(PointConfiguration, "random", collinear_first)
    system = FatPointSystem(3, 1, 5)
    assert h0_fatpoints(system, trials=1) == 6
    draws.clear()
    assert h0_fatpoints(system, trials=5) == 5
    assert draws == [0, 1]
    assert alpha_rank(3, [5], trials=1) == [(6, 9, 6)]
    draws.clear()
    assert alpha_rank(3, [5], trials=5) == [(3, 3, 5)]
    assert draws == [0, 1]
    # the whole column runs on while one entry is above its floor; the
    # entry at s = 2, on its floor in both trials, keeps trial 0's reading
    draws.clear()
    assert alpha_rank(3, [2, 5], trials=5) == [(8, 12, 8), (3, 3, 5)]
    assert draws == [0, 1]
    monkeypatch.undo()
    draws = []
    _counting_draws(monkeypatch, draws)
    assert alpha_rank(3, [2, 5], trials=5) == [(8, 12, 8), (3, 3, 5)]
    assert draws == [0]


def test_an_empty_kernel_is_not_eliminated(monkeypatch):
    # from s = dim V_{d-1} on, the product matrix has no rows: its rank is 0.
    # _prefix_ranks gets the product and rank_mod_p its transpose, so the
    # smaller side of each is recorded, which is 0 for an empty product
    eliminated = []

    def counting(fn):
        def counted(matrix, *args, **kwargs):
            eliminated.append(min(matrix.shape))
            return fn(matrix, *args, **kwargs)
        return counted

    monkeypatch.setattr(fatpoints, "rank_mod_p", counting(rank_mod_p))
    monkeypatch.setattr(fatpoints, "_prefix_ranks", counting(_prefix_ranks))
    column = alpha_rank(3, range(1, 9), trials=1)
    assert [entry[:2] for entry in column[5:]] == [(0, 0)] * 3
    # the kernel is empty from the first s on: only V_d is eliminated
    assert alpha_rank(3, range(6, 9), trials=1) == [(0, 0, 4), (0, 0, 3),
                                                    (0, 0, 2)]
    assert eliminated and min(eliminated) > 0


def _alpha_reference(d, cfg, s, p):
    """(rank, dim_source, dim_target) at the first s points of cfg, with
    both vanishing matrices built and eliminated for this s alone."""
    sub = PointConfiguration(points=cfg.points[:s])
    sys_low, sys_high = FatPointSystem(d - 1, 1, s), FatPointSystem(d, 1, s)
    n_high = sys_high.ambient_dim
    high_index = {mon: t for t, mon in enumerate(monomial_basis(d))}
    kernel = kernel_basis_mod_p(vanishing_matrix(sub, sys_low, p), p)
    prod = np.zeros((3 * kernel.shape[0], n_high), dtype=np.int64)
    for w, shift in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        cols = [high_index[tuple(e + f for e, f in zip(mon, shift))]
                for mon in monomial_basis(d - 1)]
        prod[w::3, cols] = kernel
    dim_target = n_high - rank_mod_p(vanishing_matrix(sub, sys_high, p), p)
    return rank_mod_p(prod, p), prod.shape[0], dim_target


def _alpha_per_pair(d, s, trials, seed, p):
    """The per-(d, s) measurement: draw s points and measure them alone,
    in every trial; then keep the smallest (dim_source, dim_target), and
    the largest rank among those."""
    triples = [_alpha_reference(d, PointConfiguration.random(
                   s, seed, p, trial=t), s, p) for t in range(trials)]
    return min(triples, key=lambda t: (t[1], t[2], -t[0]))


_CONIC = tuple((x, x * x) for x in range(8))      # on y = x^2
_OFF_CONIC = ((3, 100), (5, 7), (11, 2), (13, 29))


@pytest.mark.parametrize("d, points, s_values", [
    # collinear points cut the lower kernel only while they impose
    # independent conditions on it
    (3, tuple((x, 0) for x in range(8)), range(1, 9)),
    (4, tuple((x, 0) for x in range(10)), range(1, 11)),
    (4, tuple((x, 2 * x + 1) for x in range(7)) + _OFF_CONIC, range(1, 12)),
    # every cubic through seven points of a conic contains it, so the
    # eighth point does not cut; points off the conic cut again
    (4, _CONIC, range(1, 9)),
    (4, _CONIC + _OFF_CONIC, range(1, 13)),
    (5, _CONIC + _OFF_CONIC, range(2, 13)),
    # the kernel empties mid-range (general points, dim V_3 = 10)
    (4, PointConfiguration.random(20, 0xC0FFEE).points, range(1, 21)),
    # unsorted and repeated s
    (4, _CONIC + _OFF_CONIC, [9, 3, 3, 12, 5, 9, 1]),
    (6, PointConfiguration.random(30, 0x5EED5).points, [25, 4, 4, 17, 30]),
    # one s: a flag with nothing cut
    (6, PointConfiguration.random(30, 0x5EED5).points, [17]),
    (4, _CONIC, [8]),
    (4, PointConfiguration.random(20, 0xC0FFEE).points, [15]),
], ids=["line-d3", "line-d4", "line-then-off", "conic", "conic-then-off",
        "conic-then-off-d5", "empties", "unsorted-special",
        "unsorted-general", "one-general", "one-conic", "one-empty"])
def test_kernel_flag_equals_each_prefix_measured_alone(d, points, s_values):
    cfg = PointConfiguration(points=points[:max(s_values)])
    assert _alpha_trial(d, cfg, s_values, P) == [
        _alpha_reference(d, cfg, s, P) for s in s_values]


def test_a_kernel_flag_above_the_block_gate_is_in_echelon_form(monkeypatch):
    # The origin leaves the degree-15 monomials but z^15 as the kernel
    # basis, x-heavy ones first.  Points on x = 0 then vanish on every
    # monomial with x in it, so in the echelon of [values | kernel] the
    # kernel's top half pivots right of the values, and the y^j z^(15-j)
    # rows at its end pivot left of them.  The flag must read those rows
    # first; the rank-only form would leave them unsorted.
    points = (((0, 0),) + tuple((0, y) for y in range(1, 136))
              + PointConfiguration.random(10, 0xC0FFEE).points)
    cfg = PointConfiguration(points=points)
    s_values = range(1, len(points) + 1)
    echelons = []
    real = fatpoints._echelon

    def recorded(matrix, p, rank_only=False, **kwargs):
        echelons.append((matrix.shape[0], rank_only))
        return real(matrix, p, rank_only, **kwargs)

    monkeypatch.setattr(fatpoints, "_echelon", recorded)
    column = _alpha_trial(16, cfg, s_values, P)
    monkeypatch.undo()
    assert (135, False) in echelons
    assert 135 >= fatpoints._BLOCK_MIN_ROWS
    assert column == [_alpha_reference(16, cfg, s, P) for s in s_values]


def test_a_column_costs_a_fixed_number_of_eliminations(monkeypatch):
    calls = {"rref_mod_p": 0, "rank_mod_p": 0, "_echelon": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fatpoints, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(fatpoints, name, counted)
    counts = []
    for s_values in (range(1, 11), range(1, 41)):
        calls.update(dict.fromkeys(calls, 0))
        alpha_rank(8, s_values, trials=1)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[1]["rref_mod_p"] <= 2 and counts[1]["rank_mod_p"] <= 2


def test_the_last_nonzero_kernel_is_measured_again(monkeypatch):
    real, measured = fatpoints._alpha_at, []

    def off_by_one(mat_low, s, *rest):
        measured.append(s)
        rank, dim_source = real(mat_low, s, *rest)
        return rank + 1, dim_source

    monkeypatch.setattr(fatpoints, "_alpha_at", off_by_one)
    cfg = PointConfiguration.random(12, 0xC0FFEE)
    # dim V_3 = 10: the kernel is zero from s = 10 on
    with pytest.raises(AssertionError, match="s = 9"):
        _alpha_trial(4, cfg, range(1, 13), P)
    assert measured == [9]
    # with no later point cut into the flag, the flag is the kernel at s
    # itself, and nothing is measured again
    measured.clear()
    five = PointConfiguration(points=cfg.points[:5])
    assert _alpha_trial(4, five, [5, 5], P) == [
        _alpha_reference(4, five, 5, P)] * 2
    assert measured == []


def _largest_checked(monkeypatch, run):
    """Largest rows*cols passed to _check_size, and rows*cols*min(rows,
    cols) passed to _check_work, while run() runs."""
    largest = {"_check_size": 0, "_check_work": 0}
    for name in largest:
        def recorded(rows, cols, _fn=getattr(fatpoints, name), _name=name):
            size = rows * cols * (min(rows, cols) if _name == "_check_work"
                                  else 1)
            largest[_name] = max(largest[_name], size)
            return _fn(rows, cols)
        monkeypatch.setattr(fatpoints, name, recorded)
    run()
    monkeypatch.undo()
    return largest


@pytest.mark.parametrize("d, s_values", [
    (3, range(1, 9)), (8, range(1, 41)), (12, range(30, 81)),
    (30, range(200, 206))])
def test_the_flag_pass_checks_no_larger_matrix(monkeypatch, d, s_values):
    cfg = PointConfiguration.random(max(s_values), 0xC0FFEE)
    column = _largest_checked(
        monkeypatch, lambda: _alpha_trial(d, cfg, s_values, P))
    # each s alone, on its own s points, as alpha_rank(d, [s]) measures it
    per_s = _largest_checked(monkeypatch, lambda: [
        _alpha_trial(d, PointConfiguration(points=cfg.points[:s]), [s], P)
        for s in s_values])
    assert column["_check_size"] <= per_s["_check_size"]
    assert column["_check_work"] <= per_s["_check_work"]


def test_a_column_over_a_cap_names_its_first_s(monkeypatch):
    # at d = 53, s = 1947 passes both caps and 1948 is the first over one
    def reached(*args):
        raise LookupError("measured")

    with pytest.raises(OracleLimitError) as first:
        alpha_rank(53, [1948])
    with pytest.raises(OracleLimitError) as column:
        alpha_rank(53, range(800, 2001))
    assert str(column.value) == str(first.value)
    monkeypatch.setattr(fatpoints, "_alpha_trial", reached)
    with pytest.raises(LookupError):
        alpha_rank(53, range(800, 1948))


@pytest.mark.parametrize("trials, seed, p", [
    (5, 0xC0FFEE, P), (5, 0x5EED5, P), (2, 0xC0FFEE, 1000003)])
def test_alpha_column_equals_the_per_pair_measurement(trials, seed, p):
    s_values = range(1, 41)
    for d in range(2, 9):
        column = alpha_rank(d, s_values, trials=trials, seed=seed, p=p)
        assert column == [_alpha_per_pair(d, s, trials, seed, p)
                          for s in s_values], d
    # an entry does not depend on what else the column holds
    assert alpha_rank(5, [30, 7, 12], seed=seed, p=p, trials=trials) == [
        _alpha_per_pair(5, s, trials, seed, p) for s in (30, 7, 12)]


@st.composite
def matrices_with_repeats(draw):
    """Small integer matrices in which rows may be zero or copies of an
    earlier row."""
    cols = draw(st.integers(1, 6))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(st.integers(-50, 50),
                                      min_size=cols, max_size=cols)))
    return np.array(rows, dtype=np.int64)


@given(matrices_with_repeats())
def test_prefix_ranks_equal_the_rank_of_each_prefix(mat):
    counts = list(range(mat.shape[0] + 1))
    assert _prefix_ranks(mat, counts, P).tolist() == [
        rank_mod_p(mat[:s], P) for s in counts]
