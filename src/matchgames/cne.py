"""Outside options and constrained Nash equilibria inside a couple.

A matched couple's outside options are the best payoffs each member
could fetch elsewhere counting only contracts the alternative partner
would strictly accept (margin included), floored at the reservation
payoff.  A contract is a constrained equilibrium when it clears both
outside options and every improving unilateral deviation would drop
the partner strictly below theirs, so the deviation would break the
couple.  ``solve_cne`` finds one with a single solver per game class
(AUTO), or by the potential argmax on request (MAX_POTENTIAL).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .games import (
    Contract,
    Game,
    GameError,
    Instance,
    LevelGame,
    PotentialGame,
    RepeatedGame,
    Side,
)
from .geometry import Point, clip_ge
from .rational import is_neg_inf, rat
from .stability import MatchingProfile, read_profile


@dataclass(frozen=True)
class OutsideOptions:
    """Payoff floors (u0, v0); either may be the minus-infinity sentinel."""

    u0: object
    v0: object


def outside_options(
    inst: Instance, profile: MatchingProfile, i: int, j: int, eps
) -> OutsideOptions:
    """Best alternative payoffs for a matched couple at margin eps.

    A contract with another partner counts only if it pays that partner
    strictly more than their current payoff plus eps; staying single
    always counts, so the floors never drop below the reservation
    payoffs.
    """
    eps = rat(eps)
    if eps.numerator < 0:
        raise ValueError("eps must be nonnegative")
    index, men_pay, women_pay = read_profile(inst, profile)
    if profile.matches[i] != j:
        raise ValueError(f"couple ({i},{j}) is not matched in this profile")
    men_bar, women_bar = index.bars(eps, men_pay, women_pay)
    _, u0, _ = index.men.best(i, women_bar, exclude=j)
    _, v0, _ = index.women.best(j, men_bar, exclude=i)
    return OutsideOptions(u0=Fraction(u0, index.scale), v0=Fraction(v0, index.scale))


def is_feasible(game: Game, contract: Contract, oo: OutsideOptions) -> bool:
    """Contract clears both outside options (weak inequalities)."""
    game.validate_contract(contract)
    return contract.u >= oo.u0 and contract.v >= oo.v0


def is_cne(game: Game, contract: Contract, oo: OutsideOptions) -> bool:
    """Feasible, and every improving deviation strictly strands the partner.

    The partner's payoff is evaluated at the deviated contract: if it
    stays at or above their outside option, the deviation would be
    carried out and the candidate is not an equilibrium.
    """
    if not is_feasible(game, contract, oo):
        return False
    for d in game.improving_deviations(contract, Side.MAN):
        if d.v >= oo.v0:
            return False
    for d in game.improving_deviations(contract, Side.WOMAN):
        if d.u >= oo.u0:
            return False
    return True


class CnePolicy(Enum):
    AUTO = "auto"
    MAX_POTENTIAL = "max-potential"


@dataclass(frozen=True)
class CneResult:
    """solve_cne outcome; reason is set exactly when contract is None.

    reason "infeasible": no menu contract clears the outside options.
    reason "not_feasible_game": feasible contracts exist but none is a
    constrained equilibrium (possible for plain bimatrix games).
    """

    contract: Optional[Contract]
    reason: Optional[str] = None


def _solve_level(game: LevelGame, oo: OutsideOptions) -> CneResult:
    """The feasible level nearest the value clamped into the bounds.

    Levels ascend, so the feasible ones are ids first..stop-1, and the
    nearest to the target is the last at or below it or the first at or
    above it; only those two contracts are read.
    """
    lo, hi = game.level_bounds(oo.u0, oo.v0)
    first, stop = game._count_below(lo), game._count_below(hi, True)
    if first >= stop:
        return CneResult(None, "infeasible")
    w = game.value_level
    target = sorted([lo, hi, w])[1]
    at_or_below = game._count_below(target, True) - 1
    near = [k for k in (at_or_below, at_or_below + 1) if first <= k < stop]

    def rank(contract):
        lev = contract.strategy_a
        return (abs(lev - target), abs(lev - w), lev)

    contract = min((game.menu()[k] for k in near), key=rank)
    if not is_cne(game, contract, oo):
        raise GameError("median level failed the equilibrium check; solver bug")
    return CneResult(contract)


def repeated_cne_payoff(game: RepeatedGame, oo: OutsideOptions) -> Optional[Point]:
    """Exact equilibrium payoff point of the repeated game, if one exists.

    Clips the payoff hull by the outside options; inside that region,
    points also above both punishment levels are self-enforcing and the
    one maximizing (v, then u) is returned.  When the punished side's
    level is unreachable the region's best point for the other side
    stands: the deviator would be held at their punishment level, which
    the outside option already beats.  Absent exactly when the clipped
    region is empty.
    """
    region = list(game.hull)
    if not is_neg_inf(oo.u0):
        region = clip_ge(region, 0, oo.u0)
    if not is_neg_inf(oo.v0) and region:
        region = clip_ge(region, 1, oo.v0)
    if not region:
        return None
    enforceable = clip_ge(clip_ge(region, 0, game.alpha), 1, game.beta)
    if enforceable:
        return max(enforceable, key=lambda p: (p[1], p[0]))
    if not is_neg_inf(oo.u0) and oo.u0 >= game.alpha:
        return max(region, key=lambda p: (p[1], p[0]))
    return max(region, key=lambda p: (p[0], p[1]))


def _solve_repeated(game: RepeatedGame, oo: OutsideOptions) -> CneResult:
    point = repeated_cne_payoff(game, oo)
    if point is None:
        return CneResult(None, "infeasible")
    contract = game.synthesize_contract(point)
    if not is_cne(game, contract, oo):
        raise GameError("repeated-game payoff point failed the equilibrium check")
    return CneResult(contract)


def solve_cne(game: Game, oo: OutsideOptions, policy: CnePolicy = CnePolicy.AUTO) -> CneResult:
    """Find a constrained equilibrium contract under the given policy.

    AUTO picks one solver per class: the hull point for repeated games,
    the median level for level games (it lands on a Nash level whenever
    a feasible one exists), and for matrix classes a feasible Nash
    contract first, then the potential argmax or, for plain bimatrix
    games, the first constrained equilibrium in id order.
    MAX_POTENTIAL takes the potential argmax directly and requires a
    potential game.
    """
    if not isinstance(policy, CnePolicy):
        raise GameError(f"unknown policy {policy!r}")
    if policy is CnePolicy.MAX_POTENTIAL and not isinstance(game, PotentialGame):
        raise GameError("max-potential policy requires a potential game")
    if isinstance(game, RepeatedGame):
        return _solve_repeated(game, oo)
    if isinstance(game, LevelGame):
        return _solve_level(game, oo)
    feasible = [c for c in game.menu() if is_feasible(game, c, oo)]
    if not feasible:
        return CneResult(None, "infeasible")
    if policy is CnePolicy.AUTO:
        for c in feasible:
            if game.is_nash_contract(c):
                return CneResult(c)
    if isinstance(game, PotentialGame):
        best = max(feasible, key=lambda c: (game.potential_of(c), -c.id))
        if not is_cne(game, best, oo):
            raise GameError("potential argmax failed the equilibrium check; solver bug")
        return CneResult(best)
    for c in feasible:
        if is_cne(game, c, oo):
            return CneResult(c)
    return CneResult(None, "not_feasible_game")
