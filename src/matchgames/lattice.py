"""Join and meet of externally stable profiles.

Under a genericity condition (no agent is exactly indifferent between
their partners in two profiles), giving every man the better of his two
assignments is again a matching, and it is externally stable.  The
mirror-image meet is only guaranteed for competitive game classes,
where it coincides with the women-side join; for other classes the raw
construction is still exposed and the stability checker gets the final
word.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .games import Contract, Instance, LevelGame, Side
from .rational import rat
from .stability import (
    MatchingError,
    MatchingProfile,
    find_blocking_pair,
    man_payoff,
    read_profile,
    woman_payoff,
)

def genericity_holds(
    inst: Instance, p1: MatchingProfile, p2: MatchingProfile, eps=0
) -> bool:
    """No agent has near-equal payoffs (within eps) with different partners.

    With eps=0 this is the exact condition: equal payoff across the two
    profiles forces the same partner.  It is what makes the agent-wise
    argmax well-defined in the join.
    """
    eps = rat(eps)
    if eps.numerator < 0:
        raise ValueError("eps must be nonnegative")
    index, men1, women1 = read_profile(inst, p1)
    _, men2, women2 = read_profile(inst, p2)
    # scaled by D: |a - b| <= eps exactly when |A - B| * den(eps) <= D * num(eps)
    reach = index.scale * eps.numerator
    for i, (a, b) in enumerate(zip(men1, men2)):
        if p1.matches[i] != p2.matches[i] and abs(a - b) * eps.denominator <= reach:
            return False
    for j, (a, b) in enumerate(zip(women1, women2)):
        if p1.partner_of_woman(j) != p2.partner_of_woman(j) and abs(a - b) * eps.denominator <= reach:
            return False
    return True


def extremal_profile(
    inst: Instance,
    p1: MatchingProfile,
    p2: MatchingProfile,
    side: Side,
    best: bool,
) -> MatchingProfile:
    """Agent-wise best (or worst) of two profiles for one side.

    Each agent of the chosen side takes the partner and contract from
    whichever profile pays them more (less, when best=False); exact
    payoff ties keep p1's assignment, which under genericity is the
    same partner in both.  Raises when the selections collide on a
    partner, which the join theorem rules out for stable inputs.
    """
    men = side is Side.MAN
    payoff = man_payoff if men else woman_payoff
    matches: List[Optional[int]] = [None] * inst.n_men
    chosen: Dict[Tuple[int, int], Contract] = {}
    for a in range(inst.n_men if men else inst.n_women):
        pay1, pay2 = payoff(inst, p1, a), payoff(inst, p2, a)
        source = p1 if (pay1 >= pay2 if best else pay1 <= pay2) else p2
        b = source.matches[a] if men else source.partner_of_woman(a)
        if b is None:
            continue
        i, j = (a, b) if men else (b, a)
        # Two men picking one woman is caught by MatchingProfile itself.
        if matches[i] is not None:
            raise MatchingError("two women selected the same man")
        matches[i] = j
        chosen[(i, j)] = source.chosen[(i, j)]
    return MatchingProfile(tuple(matches), chosen)


def join(
    inst: Instance,
    p1: MatchingProfile,
    p2: MatchingProfile,
    side: Side = Side.MAN,
    eps=0,
) -> MatchingProfile:
    """Side-optimal combination of two externally stable profiles.

    Both inputs must be externally stable at margin eps and jointly
    generic; the result is validated to be a matching and externally
    stable (a failure is a logic error, not a caller error).
    """
    eps = rat(eps)
    if find_blocking_pair(inst, p1, eps) is not None or find_blocking_pair(inst, p2, eps) is not None:
        raise MatchingError("join requires externally stable inputs")
    if not genericity_holds(inst, p1, p2, eps):
        raise MatchingError("join requires the genericity condition to hold")
    joined = extremal_profile(inst, p1, p2, side, best=True)
    if find_blocking_pair(inst, joined, eps) is not None:
        raise MatchingError("join produced an unstable profile; lattice invariant broken")
    return joined


def meet_competitive(
    inst: Instance, p1: MatchingProfile, p2: MatchingProfile, eps=0
) -> MatchingProfile:
    """Men-side meet on competitive instances, computed as the women-join.

    Requires every couple game to be zero-sum, strictly competitive, or
    a transfer game: those are the classes where one side's worst is
    the other side's best, giving a true lattice.  Verified externally
    stable before returning.
    """
    eps = rat(eps)
    for key in sorted(inst.games.keys()):
        if not isinstance(inst.games[key], LevelGame):
            raise MatchingError(
                f"meet requires competitive game classes; games[{key}] is {inst.games[key].kind}"
            )
    return join(inst, p1, p2, Side.WOMAN, eps)
