"""A fixed program that times the host, not cangeo.

The benchmark runs it in a fresh interpreter between the workload's
invocations.  It imports numpy and does, on fixed inputs, the kinds of work
the workloads do: filling an int64 array one entry at a time with modular
products of Python integers, row reduction mod p with a Python loop over
rows, and arithmetic on small Fractions.  It never imports cangeo, so its
wall time moves with the speed the shared host gives the benchmark and with
nothing that a change to cangeo does.
"""

from fractions import Fraction

import numpy as np

P = 2**31 - 1
ROWS, COLS = 30, 45
ROUNDS = 8


def fill(seed: int) -> np.ndarray:
    """Entry-by-entry modular products, as an interpolation matrix is built."""
    a = np.zeros((ROWS, COLS), dtype=np.int64)
    x = seed
    for i in range(ROWS):
        x = (1103515245 * x + 12345) % P
        power = 1
        for j in range(COLS):
            a[i, j] = power
            power = power * x % P
    return a


def row_reduce(a: np.ndarray) -> int:
    """Rank mod P, one row operation per Python loop step."""
    a = a.copy()
    rank = 0
    for col in range(COLS):
        pivot = next((i for i in range(rank, ROWS) if a[i, col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, P) % P
        for i in range(rank + 1, ROWS):
            if a[i, col]:
                a[i] = (a[i] - a[i, col] * a[rank] % P) % P
        rank += 1
        if rank == ROWS:
            break
    return rank


def fraction_work(n: int) -> int:
    """Many operations on small fractions, as in the zone arithmetic."""
    below = 0
    for i in range(1, n):
        q = Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 13 + 1)
        below += q - Fraction(i % 7, 5) < Fraction(1, 2)
    return below


def main() -> None:
    for round_ in range(ROUNDS):
        for seed in range(4):
            assert row_reduce(fill(4 * round_ + seed + 1)) == ROWS
        fraction_work(800)


if __name__ == "__main__":
    main()
