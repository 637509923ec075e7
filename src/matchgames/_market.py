"""One integer index over an instance's menus, shared by every menu query.

Every menu payoff and reservation payoff of an instance is a multiple of
1/D, D the lcm of their denominators, so scaled by D each is an integer.
For every couple the index keeps those integers in id order and two
staircases, so that "the best payoff of one side among the contracts
whose other payoff clears a bar" is one bisect.  A bar folds an agent's
payoff and the margin into one integer, exactly for any denominator of
either, so the index never depends on the margin: one build serves
every blocking check, outside option and propose-dispose run on the
instance.  Only the comparisons move to integers; every payoff the
library returns or prints is still the contract's own ``Fraction``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import floor, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .games import Contract, Instance


class Stair(NamedTuple):
    """A menu sorted by one payoff (the key) with suffix bests of the other.

    ``tops[k]`` is the contract with the largest other payoff among
    sorted positions k and after, the lowest id on ties; the trailing
    None stands for an empty suffix.
    """

    keys: Tuple[int, ...]
    tops: Tuple[Optional[Contract], ...]

    def above(self, bar) -> Optional[Contract]:
        """Best contract whose key exceeds ``bar`` (an int, or NEG_INF for all)."""
        return self.tops[bisect_right(self.keys, bar)]


class Couple(NamedTuple):
    """One couple's menu with its scaled payoffs in id order and both staircases."""

    menu: Tuple[Contract, ...]
    u: Tuple[int, ...]
    v: Tuple[int, ...]
    by_v: Stair  # keyed by v, maximizes u
    by_u: Stair  # keyed by u, maximizes v

    def mirror(self) -> "Couple":
        """The same couple read from the woman's side: u and v trade places."""
        return Couple(self.menu, self.v, self.u, self.by_u, self.by_v)

    def first_blocking(self, u_bar: int, v_bar: int) -> Optional[Contract]:
        """The lowest-id contract with u > u_bar and v > v_bar, if any."""
        top = self.by_v.above(v_bar)
        if top is None or self.u[top.id] <= u_bar:
            return None
        v = self.v
        return next(self.menu[k] for k, u in enumerate(self.u) if u > u_bar and v[k] > v_bar)


# A scaled payoff: an int on the index's grid, an exact Fraction off it.
Scaled = Union[int, Fraction]


class MarketIndex(NamedTuple):
    """``couples[i][j]`` indexes the menu of man i and woman j at scale D."""

    scale: int
    irp_men: Tuple[int, ...]
    irp_women: Tuple[int, ...]
    couples: Tuple[Tuple[Couple, ...], ...]

    def payoffs(self, profile) -> Tuple[List[Scaled], List[Scaled]]:
        """Every man's and woman's payoff under a validated profile, scaled by D.

        A contract that is not the menu's own object (a synthesized
        hull point, or an equal copy) is scaled as an exact Fraction.
        """
        men, women = list(self.irp_men), list(self.irp_women)
        for (i, j), c in profile.chosen.items():
            couple = self.couples[i][j]
            if c.id < len(couple.menu) and couple.menu[c.id] is c:
                men[i], women[j] = couple.u[c.id], couple.v[c.id]
            else:
                men[i], women[j] = self.scale * c.u, self.scale * c.v
        return men, women

    def bars(self, pays: List[Scaled], eps: Fraction) -> List[int]:
        """floor(p + D·eps) per scaled payoff p.

        A scaled payoff beats the unscaled payoff plus eps exactly when
        it exceeds the bar, whatever the denominator of eps.
        """
        lift = self.scale * eps.numerator // eps.denominator
        return [p + lift if type(p) is int else floor(p + self.scale * eps) for p in pays]


def _stair(key: Sequence[int], other: Sequence[int], menu: Sequence[Contract]) -> Stair:
    order = sorted(range(len(menu)), key=key.__getitem__)
    tops: List[Optional[Contract]] = [None] * (len(order) + 1)
    best = None
    for pos in range(len(order) - 1, -1, -1):
        k = order[pos]
        if best is None or other[k] > other[best] or (other[k] == other[best] and k < best):
            best = k
        tops[pos] = menu[best]
    return Stair(tuple(key[k] for k in order), tuple(tops))


def _build(inst: Instance) -> MarketIndex:
    menus = [[inst.game(i, j).menu() for j in range(inst.n_women)] for i in range(inst.n_men)]
    dens = {x.denominator for x in (*inst.irp_men, *inst.irp_women)}
    dens.update(c.u.denominator for row in menus for menu in row for c in menu)
    dens.update(c.v.denominator for row in menus for menu in row for c in menu)
    scale = lcm(*dens)
    factor = {d: scale // d for d in dens}
    couples = []
    for row in menus:
        out = []
        for menu in row:
            u = tuple(c.u.numerator * factor[c.u.denominator] for c in menu)
            v = tuple(c.v.numerator * factor[c.v.denominator] for c in menu)
            out.append(Couple(menu, u, v, _stair(v, u, menu), _stair(u, v, menu)))
        couples.append(tuple(out))
    irp_men = tuple(x.numerator * factor[x.denominator] for x in inst.irp_men)
    irp_women = tuple(x.numerator * factor[x.denominator] for x in inst.irp_women)
    return MarketIndex(scale, irp_men, irp_women, tuple(couples))


def market_index(inst: Instance) -> MarketIndex:
    """The instance's index, built on the first query and cached on it."""
    index = inst.__dict__.get("_market_index")
    if index is None:
        index = _build(inst)
        object.__setattr__(inst, "_market_index", index)
    return index
