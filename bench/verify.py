"""Correctness checks written without matchgames.

The menus are rebuilt here from the generated payloads by plain loops,
and a profile is checked for margin-eps external stability directly:
every agent gets at least the reservation payoff, and no pair outside
the matching has a menu contract paying both sides more than their
current payoff plus eps.  These checks share no code with the program's
own verifier, so a bug there cannot hide a wrong answer.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Point = Tuple[Fraction, Fraction]


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def grid(lo: Fraction, hi: Fraction, step: Fraction) -> List[Fraction]:
    """lo, lo + step, ... strictly below hi, then hi itself."""
    out = []
    k = 0
    while lo + k * step < hi:
        out.append(lo + k * step)
        k += 1
    out.append(hi)
    return out


class PiecewiseLinear:
    """Increasing map through the breakpoints, extended by the end segments."""

    def __init__(self, points):
        self.pts = [(Fraction(x), Fraction(y)) for x, y in points]

    def _through(self, value: Fraction, coord: int) -> Fraction:
        pts = self.pts
        a, b = pts[-2], pts[-1]
        for p, q in zip(pts, pts[1:]):
            if value <= q[coord]:
                a, b = p, q
                break
        other = 1 - coord
        return a[other] + (value - a[coord]) * (b[other] - a[other]) / (b[coord] - a[coord])

    def __call__(self, x) -> Fraction:
        return self._through(Fraction(x), 0)

    def inverse(self, y) -> Fraction:
        return self._through(Fraction(y), 1)


def _rows(matrix) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def hull_slice(points: List[Point], u: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """Lowest and highest v of the convex hull of ``points`` on the line at u.

    Every segment between two points lies in the hull and the hull's
    boundary is made of such segments, so the extremes over all pairs
    are the hull's.
    """
    vals = [v for x, v in points if x == u]
    for a in points:
        for b in points:
            if a[0] < u < b[0]:
                vals.append(a[1] + (u - a[0]) * (b[1] - a[1]) / (b[0] - a[0]))
    if not vals:
        return None
    return min(vals), max(vals)


def in_hull(points: List[Point], point: Point) -> bool:
    span = hull_slice(points, point[0])
    return span is not None and span[0] <= point[1] <= span[1]


def stage_points(game: dict) -> List[Point]:
    u, v = _rows(game["u"]), _rows(game["v"])
    return [(u[r][c], v[r][c]) for r in range(len(u)) for c in range(len(u[0]))]


def menu(game: dict, default_resolution: Fraction) -> List[Point]:
    """The (u, v) payoffs of the couple's menu, in contract-id order."""
    cls = game["class"]
    res = Fraction(game.get("resolution", default_resolution))
    if cls in ("bimatrix", "potential"):
        return stage_points(game)
    if cls == "zero_sum":
        entries = [x for row in _rows(game["g"]) for x in row]
        return [(lev, -lev) for lev in grid(min(entries), max(entries), res)]
    if cls == "strictly_competitive":
        entries = [x for row in _rows(game["g"]) for x in row]
        f, h = PiecewiseLinear(game["f"]), PiecewiseLinear(game["h"])
        return [(u, h(-f.inverse(u))) for u in grid(f(min(entries)), f(max(entries)), res)]
    if cls == "transfer":
        f_u, f_v = PiecewiseLinear(game["f_u"]), PiecewiseLinear(game["f_v"])
        t_grid = grid(Fraction(game["t_min"]), Fraction(game["t_max"]), res)
        return [(f_u(t), f_v(-t)) for t in t_grid]
    if cls == "repeated":
        pts = stage_points(game)
        xs = [p[0] for p in pts]
        out = []
        for u in grid(min(xs), max(xs), res):
            lo, hi = hull_slice(pts, u)
            out.extend((u, v) for v in grid(lo, hi, res))
        return out
    raise ValueError(f"unknown game class {cls!r}")


def check_profile(market: dict, eps: Fraction, profile: dict) -> Optional[str]:
    """None when ``profile`` (the CLI's JSON form) is margin-eps externally stable.

    Otherwise a message naming the first problem found.
    """
    men, women = market["men"], market["women"]
    w_index = {w: j for j, w in enumerate(women)}
    default_res = Fraction(market.get("menu_resolution", eps / 2))
    menus: Dict[Tuple[int, int], List[Point]] = {}

    def menu_of(i: int, j: int) -> List[Point]:
        if (i, j) not in menus:
            menus[(i, j)] = menu(market["games"][men[i]][women[j]], default_res)
        return menus[(i, j)]

    matching, contracts = profile["matching"], profile["contracts"]
    if list(matching) != men:
        return "matching does not list every man once"
    match = [None if matching[m] is None else w_index.get(matching[m], -1) for m in men]
    taken = [j for j in match if j is not None]
    if -1 in taken or len(set(taken)) != len(taken):
        return "matching names an unknown woman or a woman twice"
    if set(contracts) != {men[i] for i, j in enumerate(match) if j is not None}:
        return "contracts do not cover exactly the matched men"

    pay_m = [Fraction(x) for x in market["irp"]["men"]]
    pay_w = [Fraction(x) for x in market["irp"]["women"]]
    irp_m, irp_w = list(pay_m), list(pay_w)
    for i, j in enumerate(match):
        if j is None:
            continue
        entry = contracts[men[i]]
        point = (Fraction(entry["u"]), Fraction(entry["v"]))
        game = market["games"][men[i]][women[j]]
        if entry["id"] is not None:
            items = menu_of(i, j)
            if not 0 <= entry["id"] < len(items) or items[entry["id"]] != point:
                return f"{men[i]}: contract {entry['id']} is not menu point {fmt(point[0])},{fmt(point[1])}"
        elif game["class"] != "repeated" or not in_hull(stage_points(game), point):
            return f"{men[i]}: off-menu contract outside the feasible hull"
        pay_m[i], pay_w[j] = point
    for i, m in enumerate(men):
        if pay_m[i] < irp_m[i]:
            return f"{m} is paid below the reservation payoff"
    for j, w in enumerate(women):
        if pay_w[j] < irp_w[j]:
            return f"{w} is paid below the reservation payoff"
    for i in range(len(men)):
        for j in range(len(women)):
            if match[i] == j:
                continue
            for u, v in menu_of(i, j):
                if u > pay_m[i] + eps and v > pay_w[j] + eps:
                    return f"{men[i]},{women[j]} block with ({fmt(u)},{fmt(v)})"
    return None


def check_cli_output(market: dict, eps: Fraction, command: str, code: int, stdout: str) -> Tuple[Optional[str], str]:
    """Check one ``solve-external`` or ``solve-stable`` run; returns (problem, status).

    The status is the refinement status for solve-stable and "-" for
    solve-external.
    """
    try:
        profile, end = json.JSONDecoder().raw_decode(stdout)
    except ValueError:
        return "stdout does not start with a profile", "-"
    lines = stdout[end:].strip("\n").split("\n")
    external = f"ExternalEps: holds=true eps={fmt(eps)}"
    status = "-"
    if command == "solve-external":
        head = lines[0].split(" ")
        if len(head) != 2 or not head[0].startswith("iterations=") or not head[1].startswith("bound="):
            return f"unexpected line {lines[0]!r}", status
        if int(head[0][len("iterations="):]) > int(head[1][len("bound="):]):
            return "iterations exceed the bound", status
        expected, want_code = [external], 0
    else:
        status = lines[0].split(" ")[0][len("status="):]
        if status == "Converged":
            expected, want_code = [external, f"Internal: holds=true eps={fmt(eps)}"], 0
        else:
            expected, want_code = [external], 3
    if lines[1:] != expected:
        return f"report lines {lines[1:]!r}, expected {expected!r}", status
    if code != want_code:
        return f"exit code {code}, expected {want_code}", status
    return check_profile(market, eps, profile), status
