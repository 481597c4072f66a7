"""Interpolation oracle for plane curves with fat base points.

Everything here works over a fixed large prime field.  The point of the
module is to measure, not to predict: given a degree k, a multiplicity r
and a number of points s, we build the interpolation matrix whose kernel
is the space of degree-k curves with an r-fold point at each of s random
points, and read dimensions off exact ranks.  Random points over a large
prime field behave like points in general position; taking the extremal
value over several independent trials makes a wrong reading vanishingly
unlikely (see the failure bound discussed in the README).
"""

from __future__ import annotations

import operator
from random import Random
from typing import NamedTuple

import numpy as np

from .classify import _checked
from .defaults import (DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, MAX_PRIME,
                       MAX_TRIALS, _is_prime)

# Cap on the entries of any matrix the oracle allocates (int64: 128 MiB).
MAX_MATRIX_ENTRIES = 2 ** 24
# Cap on rows * cols * min(rows, cols), the order of the multiply-adds one
# elimination may need: a square matrix of about 1600 rows.
MAX_ELIMINATION_WORK = 2 ** 32


class OracleLimitError(ValueError):
    """A modulus, a system or a trial count beyond the oracle's exact range
    or its caps."""


def _check_modulus(p: int) -> None:
    """p is a prime in the oracle's range: every elimination divides by
    its pivots, so Z/pZ must be a field."""
    if p < 2:
        raise ValueError(f"modulus {p} is not a positive integer above 1")
    if p > MAX_PRIME:
        raise OracleLimitError(f"modulus {p} is above {MAX_PRIME}, where "
                               "int64 products of residues overflow")
    if not _is_prime(operator.index(p)):
        raise ValueError(f"modulus {p} is not a prime, so Z/{p}Z is not a "
                         "field")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise OracleLimitError(f"{trials} trials exceed the oracle's cap of "
                               f"{MAX_TRIALS}")


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise OracleLimitError(f"a {rows}x{cols} matrix exceeds the oracle's "
                               f"cap of {MAX_MATRIX_ENTRIES} entries")


def _check_work(rows: int, cols: int) -> None:
    if rows * cols * min(rows, cols) > MAX_ELIMINATION_WORK:
        raise OracleLimitError(f"eliminating a {rows}x{cols} matrix exceeds "
                               "the oracle's cap of "
                               f"{MAX_ELIMINATION_WORK} rows*cols*min(rows, cols)")


# Rows from which _echelon reduces by row blocks instead of the pivot loop.
# Measured on a 2-core host, one rank of a vanishing matrix, block path
# against the loop: 1.1-1.3x the loop's wall time at 48-66 rows, 0.9-1.05x
# at 80-100, 0.7-0.85x at 112-120 and 0.4-0.5x at 160-200, with no more
# CPU time.
_BLOCK_MIN_ROWS = 128
# Rows at which the block recursion stops and reduces a leaf: 32 and 48
# measured alike at 140-1500 rows; 16 and 24 were 3-15 % slower at 240-450,
# and 64 1.3-1.4x slower at 240-250.
_BLOCK_LEAF_ROWS = 32
# Panels of _submul_mod_p: each of its six panel buffers holds
# _PANEL_ENTRIES entries (64 KiB), or _PANEL_MIN_COLS columns of a factor
# of more than 128 rows.  Every panel's products pack all of X again: a
# 1500x1653 rank took 1.45x the time of 256-column panels with fresh
# temporaries at 10 columns per panel (no floor), 1.03x at 64 and 0.95x at
# 256; at 225 rows 128 columns would add 0.7 MB to the buffers.
_PANEL_ENTRIES = 2 ** 13
_PANEL_MIN_COLS = 64


def _echelon(matrix: np.ndarray, p: int, rank_only: bool = False):
    """Reduced row echelon form over Z/pZ; returns (A, pivot columns in
    order).

    A holds the pivot rows ordered by pivot column, then zero rows.  With
    `rank_only` the caller reads nothing of A, only the pivot columns.
    Below _BLOCK_MIN_ROWS rows the pivot loop runs; from there the rows
    are reduced by recursive row blocks (_reduce_rows): the top half is
    reduced first, cleared out of the bottom half with one product, and
    the bottom half is reduced and cleared out of the top with another,
    so the work is in matrix products rather than in a Python loop over
    pivots.  Both return the same pivot columns, and the same A, since the
    reduced form is unique.
    """
    _check_modulus(p)
    A = np.asarray(matrix, dtype=np.int64)
    rows, cols = A.shape
    _check_work(rows, cols)
    # the one working copy, row-major also for a transpose
    A = np.remainder(A, p, order="C")
    if rows < _BLOCK_MIN_ROWS:
        return A, _pivot_loop(A, p, reduced=not rank_only)
    pivots = _reduce_rows(A, p, rank_only)
    if not rank_only:
        A[:len(pivots)] = A[np.argsort(pivots)]
    return A, sorted(pivots)


def _pivot_loop(A: np.ndarray, p: int, reduced: bool) -> list[int]:
    """Gaussian elimination in place on residues mod p; returns the pivot
    columns.

    Pivot rows are scaled to a leading 1 and cleared out of the rows below
    them, and with `reduced` out of the rows above too (reduced form).  A
    pivot row is zero left of its pivot column c, so updates touch only
    columns c onward.
    """
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        # after the swap the other nonzero rows below are still r + nz[1:]
        live = r + nz[1:]
        if reduced:
            live = np.concatenate((A[:r, c].nonzero()[0], live))
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = A[r, c:] * inv % p
        if live.size:
            A[live, c:] = (A[live, c:] - A[live, c:c + 1] * A[r, c:]) % p
        pivots.append(c)
        r += 1
    return pivots


def _submul_mod_p(C: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int,
                  cols=slice(None)) -> None:
    """C = (C - X[:, cols] @ Y) mod p in place, exact, on residues below
    p < 2**32.

    Each factor is split into 16-bit limbs, X = xh * 2**16 + xl and Y
    likewise.  Three float64 products give hh = xh @ yh, ll = xl @ yl and
    the cross terms mid = (xh + xl) @ (yh + yl) - hh - ll, whose every term
    is below 2**34.  The inner dimension n is a rank, at most 1625 under
    MAX_ELIMINATION_WORK, or a leaf's rows, at most _BLOCK_LEAF_ROWS, or
    the length of a V_{d-1} vector in _kernel_flag, at most 1891 under
    alpha_rank's checks; so every sum stays below n * 2**34 < 2**45, exact
    under 2**53.  The limbs are recombined by Horner's rule in int64 with
    two reductions: hh * 2**16 + mid, below 2**60, is reduced mod p,
    shifted by 16 bits and ll added, below 2**49; C minus that, above
    -2**49, is reduced once.

    The workspace is X's three limb arrays and six panel buffers.  The
    limbs are gathered _PANEL_ENTRIES entries at a time, so no copy of
    X[:, cols] is made, and X may be C itself: it is read before C is
    written.  The buffers are made once and written through out= for each
    panel of Y's and C's columns, so a call allocates the same whatever
    C's width.
    """
    m, n = C.shape[0], Y.shape[0]
    xh, xl = np.empty((m, n)), np.empty((m, n))
    step = max(1, _PANEL_ENTRIES // max(n, 1))
    for i in range(0, m, step):
        block = X[i:i + step, cols]
        np.right_shift(block, 16, out=xh[i:i + step], casting="unsafe")
        np.bitwise_and(block, 0xFFFF, out=xl[i:i + step], casting="unsafe")
    xs = xh + xl
    width = max(_PANEL_MIN_COLS, _PANEL_ENTRIES // max(m, n, 1))
    width = max(1, min(width, C.shape[1]))
    yh_buf, yl_buf = np.empty(n * width), np.empty(n * width)
    hh_buf, ll_buf, mid_buf = (np.empty(m * width) for _ in range(3))
    prod_buf = np.empty(m * width, dtype=np.int64)
    for j in range(0, C.shape[1], width):
        panel = C[:, j:j + width]
        w = panel.shape[1]
        yh, yl = (buf[:n * w].reshape(n, w) for buf in (yh_buf, yl_buf))
        hh, ll, mid, prod = (buf[:m * w].reshape(m, w) for buf in
                             (hh_buf, ll_buf, mid_buf, prod_buf))
        np.right_shift(Y[:, j:j + w], 16, out=yh, casting="unsafe")
        np.bitwise_and(Y[:, j:j + w], 0xFFFF, out=yl, casting="unsafe")
        np.matmul(xh, yh, out=hh)
        np.matmul(xl, yl, out=ll)
        yh += yl
        np.matmul(xs, yh, out=mid)
        mid -= hh
        mid -= ll
        prod[...] = hh
        prod <<= 16
        np.add(prod, mid, out=prod, dtype=np.int64, casting="unsafe")
        prod %= p
        prod <<= 16
        np.add(prod, ll, out=prod, dtype=np.int64, casting="unsafe")
        panel -= prod
        panel %= p


def _reduce_leaf(A: np.ndarray, p: int) -> list[int]:
    """_reduce_rows on m <= _BLOCK_LEAF_ROWS rows.

    The pivot loop runs on a narrow panel, [the first 2m live columns |
    I_m], whose last m columns then hold the row operations T.  When all m
    pivots land in the first 2m columns, T @ A is the reduced form, and one
    product of inner dimension m writes it, in place of m passes of the
    loop over every column.  Otherwise (rank below m, or pivots further
    right) the panel widens to every live column, and the loop's result is
    the reduced form itself.
    """
    m = A.shape[0]
    # the loop scans columns one by one: skip the zero ones
    live = np.flatnonzero(A.any(axis=0))
    block = A[:, live]
    if live.size > 2 * m:
        panel = np.hstack((block[:, :2 * m], np.eye(m, dtype=np.int64)))
        pivots = _pivot_loop(panel, p, reduced=True)
        if pivots[-1] < 2 * m:
            reduced = np.zeros_like(block)
            _submul_mod_p(reduced, -panel[:, 2 * m:] % p, block, p)
            A[:, live] = reduced
            return live[pivots].tolist()
    pivots = _pivot_loop(block, p, reduced=True)
    A[:, live] = block
    return live[pivots].tolist()


def _reduce_rows(A: np.ndarray, p: int, rank_only: bool = False) -> list[int]:
    """Reduce the residues A in place to a reduced basis of its row space;
    returns its pivot columns.

    Afterwards A holds the basis rows, row t with a 1 at pivots[t] and 0
    left of it and at the other pivots, then zero rows.  The pivots are in
    no fixed order.  With `rank_only` only the pivot columns are defined:
    the bottom half is reduced rank-only too, and neither cleared out of
    the top nor moved up.  The top half's basis and the bottom half's lead
    at distinct columns, so their union is still the pivot set of the
    reduced row echelon form.
    """
    rows = A.shape[0]
    if rows <= _BLOCK_LEAF_ROWS:
        return _reduce_leaf(A, p)
    half = rows // 2
    top, bottom = A[:half], A[half:]
    piv1 = _reduce_rows(top, p)
    E1 = top[:len(piv1)]
    if piv1:
        # E1 is the identity on piv1, so this clears piv1 out of the bottom
        _submul_mod_p(bottom, bottom, E1, p, cols=piv1)
    piv2 = _reduce_rows(bottom, p, rank_only)
    if rank_only:
        return piv1 + piv2
    E2 = bottom[:len(piv2)]
    if piv1 and piv2:
        # E2 is zero on piv1 and the identity on piv2
        _submul_mod_p(E1, E1, E2, p, cols=piv2)
    rank = len(piv1) + len(piv2)
    A[len(piv1):rank] = E2      # numpy copies through a buffer on overlap
    A[rank:] = 0
    return piv1 + piv2


def rank_mod_p(matrix: np.ndarray, p: int = DEFAULT_PRIME) -> int:
    """Rank of an integer matrix over Z/pZ by Gaussian elimination."""
    return len(_echelon(matrix, p, rank_only=True)[1])


def rref_mod_p(matrix: np.ndarray, p: int = DEFAULT_PRIME):
    """Reduced row echelon form over Z/pZ; returns (R, pivot columns)."""
    return _echelon(matrix, p)


def kernel_basis_mod_p(matrix: np.ndarray, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Basis of the right kernel, one vector per row, in a fixed order.

    The basis is the standard one read off the reduced echelon form: one
    vector per free column, with a 1 in that column.  Deterministic, so
    downstream computations are reproducible.
    """
    R, pivots = rref_mod_p(matrix, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    _check_size(free.size, cols)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T % p
    return basis


def monomial_basis(k: int) -> list[tuple[int, int, int]]:
    """Exponent triples (i, j, l), i+j+l = k, in graded lex order x > y > z."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return [(i, j, k - i - j) for i in range(k, -1, -1) for j in range(k - i, -1, -1)]


@_checked
class FatPointSystem(NamedTuple):
    """Degree-k plane curves with r-fold points at s unspecified points."""

    degree: int
    multiplicity: int
    point_count: int

    def _check(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.point_count < 1:
            raise ValueError("point count must be positive")

    @property
    def ambient_dim(self) -> int:
        k = self.degree
        return (k + 1) * (k + 2) // 2

    @property
    def conditions(self) -> int:
        r = self.multiplicity
        return self.point_count * r * (r + 1) // 2

    @property
    def expected_h0(self) -> int:
        return max(0, self.ambient_dim - self.conditions)


@_checked
class PointConfiguration(NamedTuple):
    """Distinct affine points over Z/pZ, regenerable from a seed."""

    points: tuple[tuple[int, int], ...]

    def _check(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @classmethod
    def random(cls, count: int, seed: int, p: int = DEFAULT_PRIME,
               trial: int = 0) -> "PointConfiguration":
        """Uniform distinct points in the affine chart z = 1.

        Each (seed, trial) pair seeds its own random.Random with the text
        "seed:trial", so trials are independent and the whole draw is
        reproducible bit for bit.  Each point is (randrange(p),
        randrange(p)), x first, and a repeated point is drawn again, so
        random(s + 1) extends random(s).
        """
        # Python ints: equal integers of any type seed the same text, and
        # a float is refused
        seed, trial, p = map(operator.index, (seed, trial, p))
        if seed < 0 or trial < 0:
            raise ValueError("seed and trial must be nonnegative")
        _check_modulus(p)
        if count > p * p:
            raise ValueError(f"Z/{p}Z has {p * p} points, not {count}")
        rng = Random(f"{seed}:{trial}")
        pts: dict[tuple[int, int], None] = {}   # ordered set
        while len(pts) < count:
            pts[rng.randrange(p), rng.randrange(p)] = None
        return cls(points=tuple(pts))


def _power_table(values: np.ndarray, k: int, p: int) -> np.ndarray:
    """table[t, e] = values[t] ** e mod p for e = 0..k."""
    table = np.ones((values.size, k + 1), dtype=np.int64)
    for e in range(1, k + 1):
        table[:, e] = table[:, e - 1] * values % p
    return table


def vanishing_matrix(cfg: PointConfiguration, system: FatPointSystem,
                     p: int = DEFAULT_PRIME) -> np.ndarray:
    """Interpolation matrix whose kernel is the fat-point linear system.

    One row per derivative condition: all partials d^a/dx^a d^b/dy^b with
    a + b <= r - 1 of the dehomogenized (z = 1) degree-k polynomial,
    evaluated at each configuration point.  Rows run point by point, then
    over (a, b); columns follow monomial_basis.  The entry at monomial
    x^i y^j is falling(i, a) falling(j, b) x^(i-a) y^(j-b), zero unless
    i >= a and j >= b.
    """
    if len(cfg.points) != system.point_count:
        raise ValueError("configuration size does not match the system")
    _check_modulus(p)
    # distinct integers can be one point over Z/pZ: the residues are checked
    residues = PointConfiguration(tuple((x % p, y % p) for x, y in cfg.points))
    k = system.degree
    r = system.multiplicity
    _check_size(system.conditions, system.ambient_dim)
    xy = np.array(residues.points, dtype=np.int64)
    xpow = _power_table(xy[:, 0], k, p)
    ypow = _power_table(xy[:, 1], k, p)
    # falling[a, i] = i (i-1) ... (i-a+1) mod p, which is zero for i < a
    degrees = np.arange(k + 1)
    falling = np.ones((r, k + 1), dtype=np.int64)
    for a in range(1, r):
        falling[a] = falling[a - 1] * (degrees - a + 1) % p
    mons = np.array(monomial_basis(k))
    i, j = mons[:, 0], mons[:, 1]
    a, b = np.array([(a, b) for a in range(r) for b in range(r - a)]).T
    a, b = a[:, None], b[:, None]
    coef = falling[a, i] * falling[b, j] % p
    x_exp, y_exp = np.maximum(i - a, 0), np.maximum(j - b, 0)
    # (points, (a, b), monomials), row-major, so the reshape is a view.  It
    # is filled a block of points at a time, a block being at most one
    # (a, b) slice of rows (or one point), through one scratch block.
    # mode="clip" lets take write straight into out; no exponent is clipped
    step = max(1, xy.shape[0] // coef.shape[0])
    A = np.empty((xy.shape[0], *coef.shape), dtype=np.int64)
    scratch = np.empty((step, *coef.shape), dtype=np.int64)
    for g in range(0, xy.shape[0], step):
        block = A[g:g + step]
        ypow_block = scratch[:block.shape[0]]
        np.take(xpow[g:g + step], x_exp, axis=1, out=block, mode="clip")
        block *= coef
        block %= p
        np.take(ypow[g:g + step], y_exp, axis=1, out=ypow_block, mode="clip")
        block *= ypow_block
        block %= p
    return A.reshape(system.conditions, system.ambient_dim)


def _extremal(trial, floor, trials: int, key=None) -> list:
    """Each entry's least reading under `key` (the earliest on a tie) in
    trial(t), t < `trials`; no configuration reads past an entry's floor,
    so the loop ends once every entry sits on its floor."""
    best = None
    for t in range(trials):
        column = trial(t)
        best = column if best is None else [
            min(kept, new, key=key) for kept, new in zip(best, column)]
        if best == floor:
            break
    return best


def h0_fatpoints(system: FatPointSystem, trials: int = DEFAULT_TRIALS,
                 seed: int = DEFAULT_SEED, p: int = DEFAULT_PRIME) -> int:
    """Generic number of independent curves in the system.

    Minimum of (ambient dimension - rank) over the trials (_extremal): a
    special configuration can only enlarge the kernel, never shrink it,
    so the minimum is the generic value unless every trial was unlucky.
    No rank exceeds min(rows, cols), so system.expected_h0 is the floor.
    """
    _check_trials(trials)
    _check_size(system.conditions, system.ambient_dim)   # before the draw
    _check_work(system.conditions, system.ambient_dim)

    def trial(t):
        cfg = PointConfiguration.random(system.point_count, seed, p, trial=t)
        return [system.ambient_dim
                - rank_mod_p(vanishing_matrix(cfg, system, p), p)]

    [h0] = _extremal(trial, [system.expected_h0], trials)
    return h0


def _prefix_ranks(matrix: np.ndarray, counts, p: int) -> np.ndarray:
    """Rank of matrix[:s] for each s in counts, from one elimination.

    Echelon the transpose: its pivot columns are the rows of `matrix` not
    in the span of the rows above them, so the rank of the first s rows
    is the number of pivots below s.
    """
    pivots = _echelon(matrix.T, p, rank_only=True)[1]
    return np.searchsorted(pivots, counts)


def _product_matrix(kernel: np.ndarray, maps, n_high: int) -> np.ndarray:
    """Matrix of the multiplication map on the span of the kernel rows:
    row 3t + w is kernel row t times the w-th of x, y, z, in the degree-d
    monomial basis."""
    _check_size(3 * kernel.shape[0], n_high)
    prod = np.zeros((3 * kernel.shape[0], n_high), dtype=np.int64)
    for w, col_map in enumerate(maps):
        prod[w::3, col_map] = kernel
    return prod


def _alpha_at(mat_low: np.ndarray, s: int, maps, n_high: int,
              p: int) -> tuple[int, int]:
    """(rank, dim_source) at the first s points, eliminated for s alone."""
    kernel = kernel_basis_mod_p(mat_low[:s], p)
    prod = _product_matrix(kernel, maps, n_high)
    return rank_mod_p(prod, p), prod.shape[0]


def _kernel_flag(mat_low: np.ndarray, s0: int, p: int):
    """Kernels of the prefixes mat_low[:s], s >= s0, in one flag basis.

    Returns (flag, left), left ascending: for every s >= s0, the kernel
    of mat_low[:s] is spanned by the first len(flag) - (entries of left
    that are <= s) rows of flag.

    The kernel at s0 comes from kernel_basis_mod_p.  The later rows are
    then taken a block at a time, as many as the kernel has vectors (a
    block that empties it when the points are general).  The reduced
    echelon form of [values at the block's rows | kernel] is a basis whose
    pivot rows each vanish on the block before their pivot and not at it,
    and whose other rows vanish on the whole block: each row of mat_low
    removes at most one vector, and the ones kept span the kernel of the
    longer prefix.  The flag is the final kernel, then the removed vectors from
    last to first.  (_submul_mod_p negates the values; no pivot moves.)
    """
    kernel = kernel_basis_mod_p(mat_low[:s0], p)
    removed, left = [], []
    s = s0
    while kernel.shape[0] and s < mat_low.shape[0]:
        block = mat_low[s:s + kernel.shape[0]]
        (k, n), m = kernel.shape, block.shape[0]
        _check_size(k, m + n)
        rows = np.zeros((k, m + n), dtype=np.int64)
        rows[:, m:] = kernel
        _submul_mod_p(rows[:, :m], kernel, block.T, p)
        A, pivots = _echelon(rows, p)
        cut = int(np.searchsorted(pivots, m))
        removed.append(A[:cut, m:][::-1])
        left.extend(s + 1 + c for c in pivots[:cut])
        kernel = A[cut:, m:]
        s += m
    return np.concatenate([kernel] + removed[::-1]), np.array(left)


def _alpha_trial(d: int, cfg: PointConfiguration, s_values,
                 p: int) -> list[tuple[int, int, int]]:
    """(rank, dim_source, dim_target) at the first s points of cfg, for
    each s in s_values.

    The degree-d vanishing matrix is built once, for all of cfg's points;
    at z = 1 its columns of z-multiples are the degree-(d-1) matrix.  Rows
    are point by point, so the first s rows are the matrix of the first s
    points.  The V_{d-1} kernels come from one flag basis (_kernel_flag),
    so the product matrix of the smallest s holds the one of every s in
    its first rows, and one elimination reads every rank.  Where a later
    point was cut into the flag, the last s with a nonzero kernel is
    measured again on its own, and a disagreement raises AssertionError;
    with nothing cut the flag is the kernel at that s itself.
    """
    s_max = len(cfg.points)
    mat_high = vanishing_matrix(cfg, FatPointSystem(d, 1, s_max), p)
    n_high = mat_high.shape[1]
    dims_target = (n_high - _prefix_ranks(mat_high, s_values, p)).tolist()
    high_index = {mon: t for t, mon in enumerate(monomial_basis(d))}
    shifts = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    maps = [np.array([high_index[(i + si, j + sj, l + sl)]
                      for (i, j, l) in monomial_basis(d - 1)])
            for (si, sj, sl) in shifts]
    mat_low = mat_high[:, maps[2]]
    flag, left = _kernel_flag(mat_low, min(s_values), p)
    sources = 3 * (flag.shape[0]
                   - np.searchsorted(left, s_values, side="right"))
    ranks = np.zeros(len(s_values), dtype=np.int64)
    if flag.shape[0]:
        ranks = _prefix_ranks(_product_matrix(flag, maps, n_high), sources, p)
    if flag.shape[0] and min(s_values) < s_max:
        s_last, entry = max((s, (rank, source)) for s, rank, source
                            in zip(s_values, ranks.tolist(), sources.tolist())
                            if source)
        direct = _alpha_at(mat_low, s_last, maps, n_high, p)
        if direct != entry:
            raise AssertionError(f"the kernel flag gives {entry} at s = "
                                 f"{s_last}, a direct elimination {direct}")
    return list(zip(ranks.tolist(), sources.tolist(), dims_target))


def _most_generic(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Sort key of a trial's (rank, dim_source, dim_target): smallest
    dimensions first, then largest rank."""
    rank, dim_source, dim_target = triple
    return dim_source, dim_target, -rank


def _alpha_floors(d: int, s_values, trials: int) -> list[tuple[int, int, int]]:
    """alpha_rank's checks before anything is drawn; returns the floor of
    the entry for each s.  The caps cover the larger vanishing matrix,
    which grows with s, and the product matrix, at least 3 * expected_h0
    of the lower system rows, which shrinks; every s is checked, in order,
    so the error names the first s over a cap."""
    if d < 2:
        raise ValueError("need degree at least 2")
    if not s_values or min(s_values) < 1:
        raise ValueError("need at least one point")
    _check_trials(trials)
    n_low, n_high = d * (d + 1) // 2, (d + 1) * (d + 2) // 2
    floor = []
    for s in s_values:
        source, target = 3 * max(0, n_low - s), max(0, n_high - s)
        for rows in (s, source):
            _check_size(rows, n_high)
            _check_work(rows, n_high)
        floor.append((min(source, target), source, target))
    return floor


def alpha_rank(d: int, s_values, trials: int = DEFAULT_TRIALS,
               seed: int = DEFAULT_SEED,
               p: int = DEFAULT_PRIME) -> list[tuple[int, int, int]]:
    """Rank data of the multiplication map on sections through s points,
    one (rank, dim_source, dim_target) per entry of s_values, in order.

    Let V_k be the degree-k curves through the s points (simple base
    points).  The map sends V_{d-1} tensored with the linear forms x, y, z
    into V_d.  dim_source is 3 * dim V_{d-1} and dim_target is dim V_d,
    measured at the same random configuration.  Surjective iff
    rank == dim_target, injective iff rank == dim_source.

    Each trial draws max(s_values) points once; the entry for s reads the
    first s of them, which are exactly the points PointConfiguration.random
    draws for s alone.  So an entry is the same whatever else s_values
    holds.  A special configuration can only enlarge the two dimensions,
    so the reported triple comes from a trial with the smallest
    (dim_source, dim_target), and among those the largest rank (the
    earliest trial on a tie); its three numbers are mutually consistent.

    A simple point imposes at most one condition, so with N_k =
    (k+1)(k+2)/2 no trial reads dim_source below 3 * max(0, N_{d-1} - s)
    or dim_target below max(0, N_d - s), nor a rank above the smaller of
    the two: that triple is the entry's floor in _extremal.
    """
    s_values = list(s_values)
    floor = _alpha_floors(d, s_values, trials)
    return _extremal(lambda t: _alpha_trial(d, PointConfiguration.random(
        max(s_values), seed, p, trial=t), s_values, p), floor, trials,
        key=_most_generic)
