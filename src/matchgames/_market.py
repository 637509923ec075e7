"""One integer index over an instance's menus, read from either side.

Every menu payoff and reservation payoff of an instance is a multiple of
1/D, D the lcm of their denominators, so scaled by D each is an integer.
For every couple the index keeps those integers in id order and two
staircases, so that "the best payoff of one side among the contracts
whose other payoff clears a bar" is one bisect.  The index holds the
market read from the men's side and, mirrored once, from the women's:
one query, ``Oriented.best``, then answers every best-alternative
question of either side, whether a proposal, an outside option or a
responder's ceiling.  A bar folds an agent's payoff and the margin into
one integer, exactly for any denominator of either, so the index never
depends on the margin: one build serves every blocking check, outside
option and propose-dispose run on the instance.  Only the comparisons
move to integers; every payoff the library returns or prints is exact.

A level game's menu (``Payoffs.levels`` set) is strictly competitive, so
it is an anti-monotone chain: u strictly rises and v strictly falls as
the id grows.  Its staircases are read off the id order, with no sort
and no scan.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import floor, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .games import Contract, Instance, _Menu


class Stair(NamedTuple):
    """A menu sorted by one payoff (the key) with suffix bests of the other.

    ``tops[k]`` is the id of the contract with the largest other payoff
    among sorted positions k and after, the lowest id on ties; the
    trailing None stands for an empty suffix.
    """

    keys: Tuple[int, ...]
    tops: Tuple[Optional[int], ...]

    def above(self, bar) -> Optional[int]:
        """Id of the best contract whose key exceeds ``bar`` (an int, or NEG_INF for all)."""
        return self.tops[bisect_right(self.keys, bar)]


class Couple(NamedTuple):
    """One couple's menu (the game's own ``_Menu``) with its scaled payoffs in id order and both staircases."""

    menu: _Menu
    u: Tuple[int, ...]
    v: Tuple[int, ...]
    by_v: Stair  # keyed by v, maximizes u
    by_u: Stair  # keyed by u, maximizes v

    def mirror(self) -> "Couple":
        """The same couple read from the woman's side: u and v trade places."""
        return Couple(self.menu, self.v, self.u, self.by_u, self.by_v)


# A scaled payoff: an int on the index's grid, an exact Fraction off it.
Scaled = Union[int, Fraction]


class Oriented(NamedTuple):
    """The market read from one side: p indexes that side, r the other.

    ``couples[p][r]`` is the couple's entry with p's payoff as ``u`` and
    r's as ``v``: ``by_v`` answers "best payoff for p above a bar on r's",
    ``by_u`` "best payoff for r above a bar on p's".
    """

    own_irp: Tuple[int, ...]
    couples: Tuple[Tuple[Couple, ...], ...]

    def best(
        self, p: int, bars: Sequence, exclude: Optional[int] = None
    ) -> Tuple[Optional[int], int, Optional[Contract]]:
        """p's best (partner, scaled own payoff, contract), or (None, reservation payoff, None).

        Only contracts paying partner r more than ``bars[r]`` (an int, or
        NEG_INF for any contract) count.  Staying single wins only when
        strictly better than every option; ties break toward the lowest
        partner index, then the lowest contract id.  ``exclude`` drops
        one partner.
        """
        target, own, best = None, self.own_irp[p], None
        for r, couple in enumerate(self.couples[p]):
            if r == exclude:
                continue
            k = couple.by_v.above(bars[r])
            if k is not None:
                pay = couple.u[k]
                if pay > own or (pay == own and target is None):
                    target, own, best = r, pay, couple.menu[k]
        return target, own, best


class MarketIndex(NamedTuple):
    """The market at scale D, read from the men's side and from the women's.

    ``men.couples[i][j]`` indexes the menu of man i and woman j, and
    ``women.couples[j][i]`` is the same entry mirrored.
    """

    scale: int
    men: Oriented
    women: Oriented

    def bars(self, eps: Fraction, men: List[Scaled], women: List[Scaled]) -> Tuple[List[int], List[int]]:
        """floor(p + D·eps) per scaled payoff p of the men and of the women.

        A scaled payoff beats the unscaled payoff plus eps exactly when
        it exceeds the bar, whatever the denominator of eps.
        """
        lift = self.scale * eps.numerator // eps.denominator
        return (
            [p + lift if type(p) is int else floor(p + self.scale * eps) for p in men],
            [p + lift if type(p) is int else floor(p + self.scale * eps) for p in women],
        )


def _stair(key: Sequence[int], other: Sequence[int]) -> Stair:
    order = sorted(range(len(key)), key=key.__getitem__)
    tops: List[Optional[int]] = [None] * (len(order) + 1)
    best = None
    for pos in range(len(order) - 1, -1, -1):
        k = order[pos]
        if best is None or other[k] > other[best] or (other[k] == other[best] and k < best):
            best = k
        tops[pos] = best
    return Stair(tuple(key[k] for k in order), tuple(tops))


def _scaled(xs: Tuple[int, ...], factor: int) -> Tuple[int, ...]:
    return xs if factor == 1 else tuple([x * factor for x in xs])


def _build(inst: Instance) -> MarketIndex:
    # each game hands over its menu's payoffs as integers over du and dv
    games = [[inst.game(i, j) for j in range(inst.n_women)] for i in range(inst.n_men)]
    dens = {x.denominator for x in (*inst.irp_men, *inst.irp_women)}
    for row in games:
        for game in row:
            dens.update((game._payoffs.du, game._payoffs.dv))
    scale = lcm(*dens)
    couples = []
    for row in games:
        out = []
        for game in row:
            pay = game._payoffs
            u, v, menu = _scaled(pay.u, scale // pay.du), _scaled(pay.v, scale // pay.dv), game.menu()
            if pay.levels is None:
                by_v, by_u = _stair(v, u), _stair(u, v)
            else:  # a chain: sorted by u the ids ascend and v falls, sorted by v they descend and u falls
                n = len(u)
                by_v, by_u = Stair(v[::-1], (*range(n - 1, -1, -1), None)), Stair(u, (*range(n), None))
            out.append(Couple(menu, u, v, by_v, by_u))
        couples.append(tuple(out))
    irp_men = tuple(x.numerator * (scale // x.denominator) for x in inst.irp_men)
    irp_women = tuple(x.numerator * (scale // x.denominator) for x in inst.irp_women)
    mirrored = tuple(tuple(c.mirror() for c in column) for column in zip(*couples))
    return MarketIndex(scale, Oriented(irp_men, tuple(couples)), Oriented(irp_women, mirrored))


def market_index(inst: Instance) -> MarketIndex:
    """The instance's index, built on the first query and cached on it."""
    index = inst.__dict__.get("_market_index")
    if index is None:
        index = _build(inst)
        object.__setattr__(inst, "_market_index", index)
    return index
