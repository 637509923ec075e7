"""Shared test utilities: independent oracles and random generators.

The zero-sum value oracle here deliberately avoids the library's
simplex; it enumerates square kernels and certifies the candidate
value against the full matrix, so a returned value is provably correct
regardless of how it was found.  The ``reference_*`` functions are the
plain ``Fraction`` code the integer kernels replaced (the menu scans
behind the market index, the index build that read every payoff's
denominator, the simplex behind ``zero_sum_value``, the per-column hull
slice behind repeated-game menus, the convex hull's cross products, the
pairwise ordinal-potential check behind ``validate_potential`` and the
``isinstance`` ladder behind ``rat``), kept as the ground truth of their
differential tests, and ``max_weight_assignment`` is an exact Hungarian
solver for assignment markets.  ``other_interpreters`` finds the other
CPythons that the demos and the number grammar also run under.
"""

from __future__ import annotations

import itertools
import math
import functools
import random
import shutil
import subprocess
import sys
from collections import deque
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import sympy

from matchgames import (
    NEG_INF,
    BimatrixGame,
    BlockingPair,
    Instance,
    MatchingError,
    MatchingProfile,
    OutsideOptions,
    PotentialGame,
    RepeatedGame,
    Side,
    StabilityReport,
    ZeroSumGame,
    build_instance,
    enumerate_matchings,
    is_externally_stable,
    is_internally_stable,
    man_payoff,
    woman_payoff,
)
from matchgames.games import Payoffs
from matchgames.rational import _LITERAL, _longer, render_event, str_limit


def support_value(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact zero-sum value by square-kernel enumeration.

    For each square submatrix B, the candidate mixed strategies are the
    adjugate row/column sums over their total and the candidate value
    det(B)/total.  A candidate passing the optimality check against
    every pure row and column certifies the value exactly.
    """
    m, n = len(matrix), len(matrix[0])
    A = [[Fraction(x) for x in row] for row in matrix]
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                B = sympy.Matrix([[A[r][c] for c in cols] for r in rows])
                adj = B.adjugate()
                total = sum(adj[r, c] for r in range(k) for c in range(k))
                if total == 0:
                    continue
                v = Fraction(sympy.Rational(B.det() / total))
                x = [Fraction(sympy.Rational(sum(adj[r, c] for r in range(k)) / total)) for c in range(k)]
                y = [Fraction(sympy.Rational(sum(adj[r, c] for c in range(k)) / total)) for r in range(k)]
                # adjugate column sums weight the rows, row sums the columns
                if any(w < 0 for w in x) or any(w < 0 for w in y):
                    continue
                row_mix = {rows[t]: x[t] for t in range(k)}
                col_mix = {cols[t]: y[t] for t in range(k)}
                if any(
                    sum(row_mix[r] * A[r][c] for r in row_mix) < v for c in range(n)
                ):
                    continue
                if any(
                    sum(col_mix[c] * A[r][c] for c in col_mix) > v for r in range(m)
                ):
                    continue
                return v
    raise AssertionError("no kernel certified a value; oracle bug")


def simplex_max(c, A, b):
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0 componentwise.

    Returns (optimal value, x).  A dense tableau of Fractions, Bland's rule
    for both the entering and leaving choices.
    """
    m = len(A)
    n = len(c)
    # tableau rows 0..m-1 constraints, row m objective; cols: n vars, m slacks, rhs
    width = n + m + 1
    T = []
    for i in range(m):
        row = [Fraction(0)] * width
        for j in range(n):
            row[j] = A[i][j]
        row[n + i] = Fraction(1)
        row[-1] = b[i]
        T.append(row)
    obj = [Fraction(0)] * width
    for j in range(n):
        obj[j] = -c[j]
    T.append(obj)
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if T[m][j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("unbounded LP")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for r in range(m + 1):
            if r != leave and T[r][enter] != 0:
                f = T[r][enter]
                T[r] = [a - f * b_ for a, b_ in zip(T[r], T[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[i][-1]
    return T[m][-1], x


def reference_matrix_game_value(matrix: Sequence[Sequence]) -> Fraction:
    """Zero-sum value by ``simplex_max`` on the shifted matrix, in Fractions."""
    A = [[Fraction(v) for v in row] for row in matrix]
    shift = Fraction(1) - min(min(row) for row in A)
    shifted = [[v + shift for v in row] for row in A]
    total, _q = simplex_max([Fraction(1)] * len(A[0]), shifted, [Fraction(1)] * len(A))
    return Fraction(1) / total - shift


def reference_slice(hull: Sequence[Tuple[Fraction, Fraction]], u: Fraction) -> Tuple[Fraction, Fraction]:
    """Exact v-range of the hull along the vertical line at u, edge by edge."""
    vals = [p[1] for p in hull if p[0] == u]
    if len(hull) == 1:
        return (vals[0], vals[0])
    edges = [(hull[0], hull[1])] if len(hull) == 2 else [
        (hull[k], hull[(k + 1) % len(hull)]) for k in range(len(hull))
    ]
    for a, b in edges:
        if a[0] == b[0]:
            continue
        lo, hi = (a, b) if a[0] < b[0] else (b, a)
        if lo[0] <= u <= hi[0]:
            vals.append(lo[1] + (u - lo[0]) * (hi[1] - lo[1]) / (hi[0] - lo[0]))
    return (min(vals), max(vals))


def reference_map(points, x, coord):
    """A piecewise-linear map (coord 0) or its inverse (coord 1) at x, by the slope
    formula on the first segment whose right end is >= x."""
    pts = [p if coord == 0 else p[::-1] for p in points]
    a, b = next(((a, b) for a, b in zip(pts, pts[1:]) if x <= b[0]), (pts[-2], pts[-1]))
    return a[1] + (x - a[0]) * (b[1] - a[1]) / (b[0] - a[0])


def reference_grid(lo: Fraction, hi: Fraction, step: Fraction) -> List[Fraction]:
    """lo, lo + step, ... while below hi, then hi."""
    levels = []
    k = 0
    while lo + k * step < hi:
        levels.append(lo + k * step)
        k += 1
    levels.append(hi)
    return levels


def reference_column(xs: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(L, numerators) of numbers, point by point: L the lcm of their lowest-terms denominators."""
    L = math.lcm(*[x.denominator for x in xs])
    return L, tuple(x.numerator * (L // x.denominator) for x in xs)


def reference_payoffs(us, vs, levels=None) -> Payoffs:
    """A level or repeated menu's ``Payoffs``, built point by point from its Fractions."""
    levels = None if levels is None else reference_column(levels)
    return Payoffs(*reference_column(us), *reference_column(vs), levels)


def reference_hull_menu(game: RepeatedGame) -> List[Tuple[Fraction, Fraction]]:
    """The repeated game's menu points: ``reference_slice`` on each u-column's v grid."""
    xs = [p[0] for p in game.hull]
    return [
        (u, v)
        for u in reference_grid(min(xs), max(xs), game.resolution)
        for v in reference_grid(*reference_slice(game.hull, u), game.resolution)
    ]


def reference_convex_hull(points: Sequence[Tuple[Fraction, Fraction]]) -> list:
    """Strict ccw convex hull by the monotone chain, every cross product in Fractions."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return hull[:1]
    return hull


def reference_market_index(inst: Instance) -> dict:
    """The market index as built from the menus' Fraction payoffs.

    D is the lcm of every menu and reservation payoff's denominator.  Per
    couple (i, j), in id order, the payoffs times D, and both staircases:
    ``by_v`` sorts the ids by v (stably) with the suffix tops that
    maximize u, lowest id on ties, and ``by_u`` the mirror.  Tops are
    given by contract id, None for the empty suffix.
    """
    menus = {key: game.menu() for key, game in inst.games.items()}
    dens = [x.denominator for x in (*inst.irp_men, *inst.irp_women)]
    dens += [x.denominator for menu in menus.values() for c in menu for x in (c.u, c.v)]
    D = math.lcm(*dens)

    def stair(key, other):
        order = sorted(range(len(key)), key=lambda k: key[k])
        tops = [None] * (len(order) + 1)
        for pos in range(len(order) - 1, -1, -1):
            best = tops[pos + 1]
            k = order[pos]
            if best is None or other[k] > other[best] or (other[k] == other[best] and k < best):
                best = k
            tops[pos] = best
        return tuple(key[k] for k in order), tuple(tops)

    couples = {}
    for key, menu in menus.items():
        u = tuple(int(c.u * D) for c in menu)
        v = tuple(int(c.v * D) for c in menu)
        couples[key] = {"u": u, "v": v, "by_v": stair(v, u), "by_u": stair(u, v)}
    return {
        "scale": D,
        "irp_men": tuple(int(x * D) for x in inst.irp_men),
        "irp_women": tuple(int(x * D) for x in inst.irp_women),
        "couples": couples,
    }


def reference_is_potential(U, V, phi) -> bool:
    """Ordinal potential check in Fractions, comparing every pair of positions
    in each column of U and phi and in each row of V and phi."""

    def same_order(xs, ps):
        n = len(xs)
        for i in range(n):
            x, p = xs[i], ps[i]
            for j in range(i + 1, n):
                y, q = xs[j], ps[j]
                if (y > x) != (q > p) or (y < x) != (q < p):
                    return False
        return True

    U, V, phi = ([[Fraction(x) for x in row] for row in m] for m in (U, V, phi))
    return all(same_order(u, p) for u, p in zip(zip(*U), zip(*phi))) and all(
        same_order(v, p) for v, p in zip(V, phi)
    )


def frac(lo: int, hi: int, rng: random.Random, halves: bool = True) -> Fraction:
    """Random rational in [lo, hi] with denominator 1 or 2."""
    if halves and rng.random() < 0.5:
        return Fraction(rng.randint(2 * lo, 2 * hi), 2)
    return Fraction(rng.randint(lo, hi))


def random_bimatrix_instance(
    rng: random.Random,
    max_agents: int = 4,
    max_cells: int = 9,
    lo: int = -10,
    hi: int = 10,
) -> Instance:
    """Random all-bimatrix instance with menus of at most max_cells cells."""
    n_men = rng.randint(1, max_agents)
    n_women = rng.randint(1, max_agents)
    shapes = [(r, c) for r in range(1, 10) for c in range(1, 10) if r * c <= max_cells]
    games = {}
    for i in range(n_men):
        for j in range(n_women):
            rows, cols = rng.choice(shapes)
            U = [[frac(lo, hi, rng) for _ in range(cols)] for _ in range(rows)]
            V = [[frac(lo, hi, rng) for _ in range(cols)] for _ in range(rows)]
            games[(i, j)] = BimatrixGame(U, V)
    irp_men = [Fraction(rng.randint(-6, 2)) for _ in range(n_men)]
    irp_women = [Fraction(rng.randint(-6, 2)) for _ in range(n_women)]
    men = [f"m{i}" for i in range(n_men)]
    women = [f"w{j}" for j in range(n_women)]
    return build_instance(men, women, irp_men, irp_women, games)


def random_potential_game(rng: random.Random, max_dim: int = 3) -> PotentialGame:
    """Random exact-potential game: U = phi + column offset, V = phi + row offset."""
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    phi = [[frac(-5, 5, rng) for _ in range(cols)] for _ in range(rows)]
    col_off = [frac(-3, 3, rng) for _ in range(cols)]
    row_off = [frac(-3, 3, rng) for _ in range(rows)]
    U = [[phi[r][c] + col_off[c] for c in range(cols)] for r in range(rows)]
    V = [[phi[r][c] + row_off[r] for c in range(cols)] for r in range(rows)]
    return PotentialGame(U, V, phi)


def random_zero_sum_game(rng: random.Random, resolution, max_dim: int = 3) -> ZeroSumGame:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    g = [[frac(-5, 5, rng) for _ in range(cols)] for _ in range(rows)]
    return ZeroSumGame(g, resolution)


def random_repeated_game(rng: random.Random, resolution) -> RepeatedGame:
    U = [[frac(-4, 4, rng, halves=False) for _ in range(2)] for _ in range(2)]
    V = [[frac(-4, 4, rng, halves=False) for _ in range(2)] for _ in range(2)]
    return RepeatedGame(U, V, resolution)


def random_class_instance(rng: random.Random, kind: str, eps: Fraction) -> Instance:
    """Random instance whose games all belong to one class."""
    n_men = rng.randint(1, 3)
    n_women = rng.randint(1, 3)
    res = eps / 2
    games = {}
    for i in range(n_men):
        for j in range(n_women):
            if kind == "zero_sum":
                games[(i, j)] = random_zero_sum_game(rng, res)
            elif kind == "potential":
                games[(i, j)] = random_potential_game(rng)
            elif kind == "repeated":
                games[(i, j)] = random_repeated_game(rng, res)
            else:
                raise ValueError(kind)
    irp_men = [Fraction(rng.randint(-8, -3)) for _ in range(n_men)]
    irp_women = [Fraction(rng.randint(-8, -3)) for _ in range(n_women)]
    men = [f"m{i}" for i in range(n_men)]
    women = [f"w{j}" for j in range(n_women)]
    return build_instance(men, women, irp_men, irp_women, games)


def random_ordinal_prefs(
    rng: random.Random, n: int
) -> Tuple[dict, dict]:
    men = [f"m{i}" for i in range(n)]
    women = [f"w{j}" for j in range(n)]
    prefs_men = {}
    for m in men:
        order = women[:]
        rng.shuffle(order)
        prefs_men[m] = order
    prefs_women = {}
    for w in women:
        order = men[:]
        rng.shuffle(order)
        prefs_women[w] = order
    return prefs_men, prefs_women


def textbook_stable(prefs_men: dict, prefs_women: dict) -> List[dict]:
    """All stable matchings of an ordinal market by direct enumeration.

    Textbook notion: complete lists, being matched beats being single,
    a pair blocks when both strictly prefer each other to their current
    situation.  Returns a list of {man: woman} maps (singles omitted).
    """
    men = list(prefs_men)
    women = list(prefs_women)

    def rank(prefs, who, other):
        return prefs[who].index(other)

    out = []
    n = len(men)
    for perm in itertools.permutations(range(n)):
        match = {men[i]: women[perm[i]] for i in range(n)}
        inv = {w: m for m, w in match.items()}
        good = True
        for m in men:
            for w in women:
                if match[m] == w:
                    continue
                if rank(prefs_men, m, w) < rank(prefs_men, m, match[m]) and rank(
                    prefs_women, w, m
                ) < rank(prefs_women, w, inv[w]):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(match)
    return out


def gale_shapley(prefs_men: dict, prefs_women: dict) -> dict:
    """Classic men-proposing deferred acceptance; returns {man: woman}."""
    free = list(prefs_men)
    nxt = {m: 0 for m in prefs_men}
    engaged: dict = {}
    while free:
        m = free.pop(0)
        w = prefs_men[m][nxt[m]]
        nxt[m] += 1
        if w not in engaged:
            engaged[w] = m
        else:
            cur = engaged[w]
            if prefs_women[w].index(m) < prefs_women[w].index(cur):
                engaged[w] = m
                free.append(cur)
            else:
                free.append(m)
    return {m: w for w, m in engaged.items()}


def refused_profiles():
    """(instance, profile, error pattern) for each check validate_profile makes.

    A profile shorter than the men, a man matched to an unknown woman,
    and a foreign contract.  Every profile matches couple (0, 0) or
    fails before the matched-couple check of outside options.
    """
    game = BimatrixGame([[1, 2]], [[3, 4]])
    one = build_instance(["m"], ["w"], [0], [0], {(0, 0): game})
    two = build_instance(["m0", "m1"], ["w"], [0, 0], [0], {(0, 0): game, (1, 0): game})
    foreign = BimatrixGame([[1, 2]], [[3, 5]]).menu()[1]
    return [
        (two, MatchingProfile((0,), {(0, 0): game.menu()[0]}), "^profile size differs from the number of men$"),
        (one, MatchingProfile((1,), {(0, 1): game.menu()[0]}), "^man 0 matched to unknown woman 1$"),
        (one, MatchingProfile((0,), {(0, 0): foreign}), r"^couple \(0,0\): foreign contract"),
    ]


# ---------------------------------------------------------------------------
# Reference menu scans: every contract compared in Fractions, in id order.


def reference_find_blocking_pair(inst: Instance, profile: MatchingProfile, eps):
    """First reservation violation or margin-blocking pair, by a full scan."""
    eps = Fraction(eps)
    men_pay = [man_payoff(inst, profile, i) for i in range(inst.n_men)]
    women_pay = [woman_payoff(inst, profile, j) for j in range(inst.n_women)]
    for i in range(inst.n_men):
        if men_pay[i] < inst.irp_men[i]:
            return BlockingPair(man=i, woman=None, contract=None)
        for j in range(inst.n_women):
            if profile.matches[i] == j:
                continue
            for c in inst.game(i, j).menu():
                if c.u > men_pay[i] + eps and c.v > women_pay[j] + eps:
                    return BlockingPair(man=i, woman=j, contract=c)
    for j in range(inst.n_women):
        if women_pay[j] < inst.irp_women[j]:
            return BlockingPair(man=None, woman=j, contract=None)
    return None


def reference_outside_options(inst: Instance, profile: MatchingProfile, i: int, j: int, eps):
    """Outside options of the matched couple (i, j), by a full scan."""
    eps = Fraction(eps)
    u0 = inst.irp_men[i]
    for b in range(inst.n_women):
        if b != j:
            bar = woman_payoff(inst, profile, b) + eps
            for c in inst.game(i, b).menu():
                if c.v > bar and c.u > u0:
                    u0 = c.u
    v0 = inst.irp_women[j]
    for a in range(inst.n_men):
        if a != i:
            bar = man_payoff(inst, profile, a) + eps
            for c in inst.game(a, j).menu():
                if c.u > bar and c.v > v0:
                    v0 = c.v
    return OutsideOptions(u0=u0, v0=v0)


def _reference_ir_witness(inst: Instance, men_pay, women_pay):
    for i, pay in enumerate(men_pay):
        if pay < inst.irp_men[i]:
            return BlockingPair(i, None, None)
    for j, pay in enumerate(women_pay):
        if pay < inst.irp_women[j]:
            return BlockingPair(None, j, None)
    return None


def reference_is_individually_rational(inst: Instance, profile: MatchingProfile):
    """Reservation-payoff report, by comparing every payoff in Fractions."""
    men_pay = [man_payoff(inst, profile, i) for i in range(inst.n_men)]
    women_pay = [woman_payoff(inst, profile, j) for j in range(inst.n_women)]
    witness = _reference_ir_witness(inst, men_pay, women_pay)
    return StabilityReport("IR", witness is None, witness)


def reference_is_stable_variant(inst: Instance, profile: MatchingProfile, mode: str):
    """Weak or unilateral stability report, by a full scan."""
    notion = "Weak" if mode == "weak" else "Unilateral"
    men_pay = [man_payoff(inst, profile, i) for i in range(inst.n_men)]
    women_pay = [woman_payoff(inst, profile, j) for j in range(inst.n_women)]
    witness = _reference_ir_witness(inst, men_pay, women_pay)
    if witness is not None:
        return StabilityReport(notion, False, witness)
    for i in range(inst.n_men):
        j_cur = profile.matches[i]
        if j_cur is None:
            continue
        a_desc = profile.chosen[(i, j_cur)].strategy_a
        for j in range(inst.n_women):
            i_cur = profile.partner_of_woman(j)
            if j == j_cur or i_cur is None:
                continue
            b_desc = profile.chosen[(i_cur, j)].strategy_b
            for contract in inst.game(i, j).menu():
                if mode == "weak":
                    usable = contract.strategy_a == a_desc and contract.strategy_b == b_desc
                else:
                    usable = contract.strategy_a == a_desc or contract.strategy_b == b_desc
                if usable and contract.u > men_pay[i] and contract.v > women_pay[j]:
                    return StabilityReport(notion, False, BlockingPair(i, j, contract))
    return StabilityReport(notion, True)


def reference_propose_dispose(inst: Instance, eps, side: Side = Side.MAN):
    """Propose-dispose by full menu scans: (profile, iterations, bound, trace)."""
    eps = Fraction(eps)
    men_side = side is Side.MAN
    proposers, responders = (inst.men, inst.women) if men_side else (inst.women, inst.men)
    irp_p, irp_r = (inst.irp_men, inst.irp_women) if men_side else (inst.irp_women, inst.irp_men)
    # menus[p][r]: (own payoff, partner payoff, contract) in id order
    menus = [
        [
            [(c.u, c.v, c) if men_side else (c.v, c.u, c)
             for c in inst.game(*((p, r) if men_side else (r, p))).menu()]
            for r in range(len(responders))
        ]
        for p in range(len(proposers))
    ]

    def best_with(p, r, floor):
        best = None
        for entry in menus[p][r]:
            if entry[1] >= floor and (best is None or entry[0] > best[0]):
                best = entry
        return best

    def best_proposal(p, exclude=None):
        target, best = None, (irp_p[p], None, None)
        for r in range(len(responders)):
            if r == exclude:
                continue
            cand = best_with(p, r, payoffs[r] + eps)
            if cand is not None and (cand[0] > best[0] or (cand[0] == best[0] and target is None)):
                target, best = r, cand
        return target, best

    def max_offer(p, r, beta):
        best = NEG_INF
        for own, partner_pay, _ in menus[p][r]:
            if own >= beta and partner_pay > best:
                best = partner_pay
        return best

    def settle(p, r, lam):
        best = best_with(p, r, lam)
        if best is None:
            raise MatchingError("no contract clears the losing bid")
        return best

    payoffs = list(irp_r)
    ceilings = [
        max([irp_r[r]] + [e[1] for row in menus for e in row[r]]) for r in range(len(responders))
    ]
    bound = math.ceil(sum((ceilings[r] - payoffs[r] for r in range(len(responders))), Fraction(0)) / eps)
    bound += len(proposers)
    queue = deque(range(len(proposers)))
    partner, partner_rev, contracts, trace = {}, {}, {}, []
    iterations = 0

    def log(event, **fields):
        trace.append(render_event(event, iter=iterations, **fields))

    def accepts(p, r, entry, event):
        own, new, contract = entry
        old = payoffs[r]
        if new < old + eps:
            raise MatchingError("accepted proposal fails to raise the responder")
        partner[p], partner_rev[r], contracts[p], payoffs[r] = r, p, contract, new
        log(event, proposer=proposers[p], responder=responders[r], contract=contract.id,
            own=own, offer_old=old, offer_new=new)

    while queue:
        iterations += 1
        if iterations > bound:
            raise MatchingError("iteration bound exceeded")
        p = queue.popleft()
        r, entry = best_proposal(p)
        own, offer, contract = entry
        if r is None:
            log("exit", proposer=proposers[p], own=own)
            continue
        log("propose", proposer=proposers[p], responder=responders[r], contract=contract.id,
            own=own, offer=offer)
        if r not in partner_rev:
            accepts(p, r, entry, "accept")
            continue
        q = partner_rev[r]
        _, (re_solved, _, _) = best_proposal(q)
        held = best_with(q, r, payoffs[r] + eps)
        if held is None or held[0] < re_solved:
            del partner[q], contracts[q]
            accepts(p, r, entry, "auto_replace")
            queue.appendleft(q)
            log("requeue", proposer=proposers[q])
            continue
        _, (beta_p, _, _) = best_proposal(p, exclude=r)
        _, (beta_q, _, _) = best_proposal(q, exclude=r)
        lam_p, lam_q = max_offer(p, r, beta_p), max_offer(q, r, beta_q)
        log("compete", proposer=proposers[p], incumbent=proposers[q], responder=responders[r],
            fallback_p=beta_p, fallback_inc=beta_q, bid_p=lam_p, bid_inc=lam_q)
        del partner[q], contracts[q]
        if lam_p > lam_q:
            accepts(p, r, settle(p, r, lam_q), "replace")
            queue.appendleft(q)
            log("requeue", proposer=proposers[q])
        else:
            accepts(q, r, settle(q, r, lam_p), "resettle")
            queue.appendleft(p)
            log("reject", proposer=proposers[p])

    matches: List[Optional[int]] = [None] * inst.n_men
    chosen = {}
    for p, r in partner.items():
        i, j = (p, r) if men_side else (r, p)
        matches[i] = j
        chosen[(i, j)] = contracts[p]
    return MatchingProfile(tuple(matches), chosen), iterations, bound, trace


def max_weight_assignment(weights: Sequence[Sequence[int]]) -> int:
    """Maximum total weight of a matching, exactly (Hungarian method, O(n^3)).

    weights[i][j] >= 0 is the weight of pair (i, j); the matrix may be
    rectangular, and leaving an agent unmatched is worth 0.
    """
    n = max(len(weights), len(weights[0]))
    cost = [
        [-weights[i][j] if i < len(weights) and j < len(weights[i]) else 0 for j in range(n)]
        for i in range(n)
    ]
    inf = 1 + sum(abs(x) for row in cost for x in row) * 2
    # row potentials u, column potentials v, column j's row p[j] (1-based, 0 = none)
    u, v, p, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv, used = [inf] * (n + 1), [False] * (n + 1)
        while p[j0] != 0:
            used[j0] = True
            i0, delta, j1 = p[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return -sum(cost[p[j] - 1][j - 1] for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# The brute-force oracle as a plain loop: every profile built by the checked
# constructor, and the notion tested afresh for each profile.


def reference_profiles(inst: Instance):
    """Every matching profile in enumerate_profiles order, each one checked."""
    for matches in enumerate_matchings(inst.n_men, inst.n_women):
        couples = [(i, j) for i, j in enumerate(matches) if j is not None]
        for combo in itertools.product(*(inst.game(i, j).menu() for i, j in couples)):
            yield MatchingProfile(matches=matches, chosen=dict(zip(couples, combo)))


def reference_enumerate_stable(inst: Instance, eps, notion: str):
    """enumerate_stable's external and internal notions, one check after another."""
    for profile in reference_profiles(inst):
        if notion == "external":
            if is_externally_stable(inst, profile, eps).holds:
                yield profile
        elif notion == "internal":
            if is_externally_stable(inst, profile, eps).holds and is_internally_stable(
                inst, profile, eps
            ).holds:
                yield profile


# ---------------------------------------------------------------------------
# Level games scanned level by level in Fractions, as before their levels
# stayed integer pairs.


def reference_solve_level(game, oo: OutsideOptions):
    """The median-level contract: the feasible level nearest the clamped value, or None."""
    lo, hi = game.level_bounds(oo.u0, oo.v0)
    feasible = [(k, lev) for k, lev in enumerate(game.levels) if lo <= lev <= hi]
    if not feasible:
        return None
    w = game.value_level
    target = sorted([lo, hi, w])[1]
    k, _ = min(feasible, key=lambda item: (abs(item[1] - target), abs(item[1] - w), item[1]))
    return game.menu()[k]


def reference_level_deviations(game, contract, side: Side):
    """Menu contracts whose level moves from the contract's toward the value, never past it."""
    cur, w = contract.strategy_a, game.value_level
    if side is Side.MAN:
        return tuple(c for c, lev in zip(game.menu(), game.levels) if cur < lev <= w)
    return tuple(c for c, lev in zip(game.menu(), game.levels) if w <= lev < cur)


# ---------------------------------------------------------------------------
# Numbers read through the isinstance ladder and one path for every string.


def reference_rat(value) -> Fraction:
    """``rational.rat`` without its exact-type dispatch: every value through ``isinstance``.

    Every string goes through ``10**e``, ``str_limit()`` and ``_longer``.
    """
    if type(value) is Fraction or isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational payoff")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _LITERAL.fullmatch(value)
        if m is None:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        sign, num, denom, decimal, exp = m.groups()
        limit = str_limit()
        e = int(exp or "0")
        if limit and abs(e) > limit:
            raise ValueError(f"exponent in {value!r} exceeds the limit of {limit} (sys.get_int_max_str_digits())")
        n, d = int(num or "0"), int(denom or "1")
        if not d:
            raise ValueError(f"zero denominator in {value!r}")
        if decimal:
            decimal = decimal.replace("_", "")
            d = 10 ** len(decimal)
            n = n * d + int(decimal)
        n, d = (n * 10**e, d) if e >= 0 else (n, d * 10**-e)
        x = Fraction(-n if sign == "-" else n, d)
        if limit and _longer(max(abs(x.numerator), x.denominator), limit):
            raise ValueError(f"{value!r} has more than {limit} digits (sys.get_int_max_str_digits())")
        return x
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected: pass an int, Fraction, or exact string like '1/10'")
    raise TypeError(f"cannot interpret {value!r} as a rational")


@functools.cache  # probed once per session
def other_interpreters():
    """Other CPythons >= 3.10 on PATH that start (broken shims are dropped)."""
    found = []
    for minor in range(10, 20):
        if (3, minor) == sys.version_info[:2]:
            continue
        path = shutil.which(f"python3.{minor}")
        if path is None:
            continue
        probe = subprocess.run(
            [path, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if probe.returncode == 0 and probe.stdout.strip() == str((3, minor)):
            found.append((f"python3.{minor}", path))
    return found
