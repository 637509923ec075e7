"""Brute-force enumeration oracles.

Everything here is exponential by design: these routines exist to
cross-check the fast solvers on small instances, not to scale.  The
enumerator streams profiles so callers can stop early, but it refuses
outright when the candidate space exceeds a configurable cap.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Optional, Tuple

from .games import Contract, Game, Instance
from .cne import OutsideOptions, is_cne
from .rational import rat
from .stability import (
    MatchingProfile,
    is_externally_stable,
    is_internally_stable,
    is_nash_stable,
    is_stable_variant,
)


class OracleCapError(ValueError):
    """Raised when the candidate space is too large to enumerate."""


def enumerate_matchings(n_men: int, n_women: int) -> Iterator[Tuple[Optional[int], ...]]:
    """Yield every partial matching as a tuple indexed by man.

    Entry i is the woman matched to man i, or None.  Includes the
    all-singles matching.  Deterministic order: man 0's options are
    explored single-first, then women in ascending index.
    """
    if n_men < 0 or n_women < 0:
        raise ValueError("agent counts must be nonnegative")
    if n_men == 0:
        yield ()
        return
    # Depth-first with an explicit stack: acc holds the choices of men
    # 0..k, and nxt[i] is man i's next option (-1 single, else a woman).
    # Once every woman is taken the men after k can only stay single, so
    # that tail is yielded at once instead of walked man by man: every
    # level on the stack then has two options or more, and a matching
    # costs O(1) steps amortized.
    taken = [False] * n_women
    free = n_women
    acc: List[Optional[int]] = []
    nxt = [-1]
    while nxt:
        i = len(nxt) - 1
        if len(acc) > i:
            prev = acc.pop()
            if prev is not None:
                taken[prev] = False
                free += 1
        j = nxt[i]
        while 0 <= j < n_women and taken[j]:
            j += 1
        if j == n_women:
            nxt.pop()
            continue
        nxt[i] = j + 1
        if j < 0:
            acc.append(None)
        else:
            acc.append(j)
            taken[j] = True
            free -= 1
        if i + 1 == n_men:
            yield tuple(acc)
        elif free:
            nxt.append(-1)
        else:
            yield tuple(acc) + (None,) * (n_men - i - 1)


def count_profiles(inst: Instance) -> int:
    """Exact number of matching profiles: sum over matchings of the
    product of menu sizes along the matched couples.  It takes no cap: its
    table has 2**k entries and each agent of the larger side costs k * 2**k
    steps, k the size of the smaller side."""
    sizes = [
        [len(inst.game(i, j).menu()) for j in range(inst.n_women)]
        for i in range(inst.n_men)
    ]
    if inst.n_women > inst.n_men:
        sizes = [list(column) for column in zip(*sizes)]
    # ways[mask]: weighted count of the partial matchings of the rows seen
    # so far that use exactly the columns in mask (columns: the smaller side).
    ways = [0] * (1 << min(inst.n_men, inst.n_women))
    ways[0] = 1
    for row in sizes:
        # Descending masks: each update goes to a larger mask, already
        # visited in this row, so every row matches at most once.
        for mask in range(len(ways) - 1, -1, -1):
            w = ways[mask]
            if w:
                for j, size in enumerate(row):
                    if not mask >> j & 1:
                        ways[mask | 1 << j] += w * size
    return sum(ways)


def enumerate_profiles(inst: Instance, cap: int = 10**7) -> Iterator[MatchingProfile]:
    """Stream every matching profile of the instance.

    Refuses with OracleCapError when the candidate space exceeds cap,
    naming its exact size, or, past 12 agents a side, the number of
    partial matchings (a lower bound) when that alone exceeds cap.
    Order is deterministic: matchings in enumerate_matchings order,
    contracts per couple in menu (id) order, rightmost couple varying
    fastest.  The first profile of each matching is checked by the
    constructor; the rest share its checked partner map.
    """
    k = min(inst.n_men, inst.n_women)
    if k > 12:  # count_profiles' table has 2**k entries; each matching is at least one profile
        least = sum(math.comb(inst.n_men, j) * math.perm(inst.n_women, j) for j in range(k + 1))
        if least > cap:
            raise OracleCapError(f"candidate space has at least {least} profiles, exceeding cap {cap}")
    total = count_profiles(inst)
    if total > cap:
        raise OracleCapError(f"candidate space has {total} profiles, exceeding cap {cap}")
    for matches in enumerate_matchings(inst.n_men, inst.n_women):
        couples = [(i, j) for i, j in enumerate(matches) if j is not None]
        combos = itertools.product(*(inst.game(i, j).menu() for i, j in couples))
        for combo in itertools.islice(combos, 1):
            checked = MatchingProfile(matches=matches, chosen=dict(zip(couples, combo)))
            yield checked
            for combo in combos:
                yield checked._recontracted(dict(zip(couples, combo)))


_NOTIONS = ("external", "internal", "nash", "weak", "unilateral")


def enumerate_stable(
    inst: Instance,
    eps,
    notion: str = "external",
    cap: int = 10**7,
) -> Iterator[MatchingProfile]:
    """Stream all profiles satisfying the requested stability notion.

    notion: "external" (margin eps), "internal" (externally stable at
    eps and no profitable internal deviation), "nash", "weak", or
    "unilateral".  Internal filtering implies the external one, so the
    pre-check of is_internally_stable never trips here.
    """
    if notion not in _NOTIONS:
        raise ValueError(f"unknown stability notion {notion!r}")
    # The checkers are looked up as module globals on every call, so a
    # wrapper installed on this module sees each one.  The margin is read
    # once, by the notions that take one.
    if notion in ("external", "internal"):
        eps = rat(eps)
    if notion == "external":
        holds = lambda p: is_externally_stable(inst, p, eps).holds
    elif notion == "internal":
        holds = lambda p: (
            is_externally_stable(inst, p, eps).holds and is_internally_stable(inst, p, eps).holds
        )
    elif notion == "nash":
        holds = lambda p: is_nash_stable(inst, p).holds
    else:
        holds = lambda p: is_stable_variant(inst, p, notion).holds
    yield from filter(holds, enumerate_profiles(inst, cap=cap))


def pareto_frontier(game: Game) -> List[Contract]:
    """Menu contracts not strictly dominated in both payoffs.

    A contract is dropped only if some other menu contract pays both
    sides strictly more.  Returned in menu (id) order.
    """
    menu = game.menu()
    out = []
    for c in menu:
        if any(d.u > c.u and d.v > c.v for d in menu):
            continue
        out.append(c)
    return out


def brute_force_cne(game: Game, oo: OutsideOptions) -> List[Contract]:
    """All menu contracts that are constrained equilibria for the given
    outside options, in menu order.  With both options at the -inf
    sentinel this is exactly the set of Nash contracts of the menu."""
    return [c for c in game.menu() if is_cne(game, c, oo)]
