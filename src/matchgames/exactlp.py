"""Exact value of a finite zero-sum matrix game, read in integers over one denominator.

The games hand over matrices read by ``games._read_matrix`` (the public
entry is ``games.zero_sum_value``).  A matrix with a pure saddle point
has that entry as its value.  Any other is solved as a linear program
with a dense-tableau simplex (Bland's rule, so no cycling) run
fraction-free: every pivot keeps the tableau integral over one known
denominator, the previous pivot (Edmonds' integer-preserving pivoting).
scipy's LP solvers are float-only and would break the exactness
contract, hence the in-house routine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple


def _simplex_max(A: List[List[int]]) -> Tuple[int, int]:
    """Maximize sum(x) subject to A x <= 1, x >= 0, for a positive integer A.

    Returns the optimum as integers (num, den).  The tableau T holds the
    true tableau times den, the previous pivot, so each pivot updates an
    entry x of row r to (x*piv - f*y) // den, with f = T[r][enter] and y the
    pivot row's entry; the division is exact.  Bland's rule for both the
    entering and leaving choices, the ratio test by cross-multiplication.
    """
    m = len(A)
    n = len(A[0])
    # rows 0..m-1 constraints, row m objective; cols: n vars, m slacks, rhs
    T = [row + [int(k == i) for k in range(m)] + [1] for i, row in enumerate(A)]
    T.append([-1] * n + [0] * (m + 1))
    basis = [n + i for i in range(m)]
    den = 1

    while True:
        enter = next((j for j in range(n + m) if T[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = T[i][-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("unbounded LP; matrix game LPs are bounded")
        prow = T[leave]
        piv = prow[enter]
        for r in range(m + 1):
            if r != leave:
                f = T[r][enter]
                T[r] = [(x * piv - f * y) // den for x, y in zip(T[r], prow)]
        den = piv
        basis[leave] = enter
    return T[m][-1], den


def _scaled_value(N: Sequence[Sequence[int]], D: int) -> Fraction:
    """Exact value, row player maximizing, of the matrix A = N / D (N nonempty and rectangular, D > 0).

    Standard reciprocal transformation: shift all entries positive; the
    column player's LP  max sum(q) s.t. A q <= 1, q >= 0  then has optimum
    1/value of the shifted game, and solving it for the integer matrix D*A
    gives that optimum divided by D.  A matrix with a pure saddle point (its
    largest row minimum equals its smallest column maximum) has that entry
    as its value, and skips the LP.
    """
    shift = D - min(map(min, N))  # D * (1 - low)
    scaled = [[x + shift for x in row] for row in N]
    lower = max(map(min, scaled))
    if lower == min(map(max, zip(*scaled))):
        return Fraction(lower - shift, D)
    num, den = _simplex_max(scaled)
    if num <= 0:
        raise ArithmeticError("degenerate matrix game LP")
    # 1/(D*num/den) is the shifted value; the shift is shift/D
    return Fraction(den - shift * num, D * num)
