"""Exact 2D convex geometry: hulls on integer points, clips and membership over Fractions.

Used for repeated-game feasible sets: convex hulls of payoff points,
axis-aligned halfplane clips, and membership tests.  A stage game's hull
is taken on its integers (``_integer_hull``); other points are (u, v)
tuples of Fractions.  Hulls are vertex lists in counterclockwise order
with no collinear vertices; a hull may degenerate to two points (a
segment), one point, or the empty list.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[Fraction, Fraction]


def cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Point]) -> list:
    """Strict convex hull, ccw, collinear interior points dropped.

    The points are scaled once by the lcm of their denominators, which
    keeps every order and every cross product's sign, so the hull is
    ``_integer_hull``'s; it is returned as the given points.
    """
    D = lcm(*(t.denominator for p in points for t in p))
    given = {
        (x.numerator * (D // x.denominator), y.numerator * (D // y.denominator)): (x, y)
        for x, y in points
    }
    return [given[p] for p in _integer_hull(given)]


def _integer_hull(points: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``convex_hull`` of integer points: the sort and the turns are integer arithmetic."""
    pts = sorted(set(points))
    if len(pts) > 2:
        pts = _chain(pts)[:-1] + _chain(pts[::-1])[:-1]
    return pts


def _chain(pts: list) -> list:
    """Monotone-chain half hull of sorted points: every kept turn is a left turn."""
    out = []
    for p in pts:
        while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def hull_contains(hull: Sequence[Point], p: Point) -> bool:
    """Membership in the closed convex region spanned by the hull."""
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return hull[0] == p
    if n == 2:
        return _on_segment(hull[0], hull[1], p)
    for k in range(n):
        if cross(hull[k], hull[(k + 1) % n], p) < 0:
            return False
    return True


def clip_ge(hull: Sequence[Point], axis: int, bound: Fraction) -> list:
    """Intersect the hull region with the halfplane coord[axis] >= bound."""
    n = len(hull)
    if n == 0:
        return []
    kept = [p for p in hull if p[axis] >= bound]
    if len(kept) == n:
        return list(hull)
    cuts = []
    if n >= 2:
        for k in range(n):
            a = hull[k]
            b = hull[(k + 1) % n]
            da = a[axis] - bound
            db = b[axis] - bound
            if (da > 0 > db) or (da < 0 < db):
                t = da / (da - db)
                cuts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return convex_hull(kept + cuts)

