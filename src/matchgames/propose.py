"""Deferred-acceptance over contract menus with a payoff margin.

One side proposes.  A proposer solves for his best achievable payoff
subject to making the target strictly better off by more than the
margin; a proposal to a taken responder triggers either an immediate
replacement (the incumbent no longer wants her at her raised price) or
a bidding war decided by maximal willingness to pay.  Every accepted
proposal raises the responder's payoff by at least the margin, which
bounds the number of iterations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Tuple

from ._market import Couple, market_index
from .games import Contract, Instance, Side
from .rational import NEG_INF, is_neg_inf, rat, render_event
from .stability import MatchingError, MatchingProfile, find_blocking_pair


def _max_offer(couple: Couple, beta: int):
    """Highest scaled payoff the proposer can concede while keeping own payoff >= beta.

    The minus-infinity sentinel means no contract meets the fallback
    threshold (the bidder forfeits).
    """
    k = couple.by_u.above(beta - 1)
    return NEG_INF if k is None else couple.v[k]


def _settle(couple: Couple, lam_loser) -> Contract:
    """Winner's contract: max own payoff with responder payoff >= the loser's bid."""
    best = couple.by_v.above(lam_loser if is_neg_inf(lam_loser) else lam_loser - 1)
    if best is None:
        raise MatchingError("no contract clears the losing bid; bidding invariant broken")
    return couple.menu[best]


# Field names of each trace event kind, after iter: names and contract ids,
# then the scaled payoffs, which are divided by the market's scale when rendered.
_EVENT_FIELDS = {
    "propose": (("proposer", "responder", "contract"), ("own", "offer")),
    **dict.fromkeys(
        ("accept", "auto_replace", "replace", "resettle"),
        (("proposer", "responder", "contract"), ("own", "offer_old", "offer_new")),
    ),
    "exit": (("proposer",), ("own",)),
    "requeue": (("proposer",), ()),
    "reject": (("proposer",), ()),
    "compete": (("proposer", "incumbent", "responder"), ("fallback_p", "fallback_inc", "bid_p", "bid_inc")),
}


@dataclass
class MarketState:
    """Trace and bookkeeping of one propose-dispose run.

    A run records one tuple per event, (kind, iter, *fields, *scaled
    payoffs).  ``trace`` renders them with ``render_event`` on its first
    read (``solve-external --trace`` is one) and keeps the lines, so a
    run whose trace nobody reads renders nothing.
    """

    iterations: int
    iteration_bound: int
    _scale: int = field(repr=False)
    _events: list = field(default_factory=list, init=False, repr=False)
    _lines: Optional[List[str]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def trace(self) -> List[str]:
        if self._lines is None:
            self._lines = [self._render(*event) for event in self._events]
        return self._lines

    def _render(self, kind: str, iteration: int, *values) -> str:
        names, scaled = _EVENT_FIELDS[kind]
        fields = dict(zip(names, values[: len(names)], strict=True))
        for key, x in zip(scaled, values[len(names) :], strict=True):
            fields[key] = x if is_neg_inf(x) else Fraction(x, self._scale)
        return render_event(kind, iter=iteration, **fields)


def run_propose_dispose(
    inst: Instance, eps, proposing_side: Side = Side.MAN
) -> Tuple[MatchingProfile, MarketState]:
    """Compute a margin-eps externally stable profile by propose-dispose.

    eps must be positive; the margin is what guarantees termination
    (every accepted proposal raises a responder by at least eps).
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("the margin eps must be positive")
    index = market_index(inst)
    # m reads the market from the proposers (p), other from the responders (r).
    if proposing_side is Side.MAN:
        m, other, proposers, responders = index.men, index.women, inst.men, inst.women
    else:
        m, other, proposers, responders = index.women, index.men, inst.women, inst.men

    # Responder payoffs are menu or reservation payoffs, so scaled they are
    # integers x, and a scaled payoff reaches x + eps exactly when it exceeds x + lift.
    # Responder r's payoff x is kept only as her bar, bars[r] = x + lift.
    lift = -(-index.scale * eps.numerator // eps.denominator) - 1
    bars = [x + lift for x in other.own_irp]
    anyone = [NEG_INF] * len(proposers)
    gap = sum(other.best(r, anyone)[1] - x for r, x in enumerate(other.own_irp))
    bound = -(-gap * eps.denominator // (index.scale * eps.numerator)) + len(proposers)
    queue: Deque[int] = deque(range(len(proposers)))
    held: Dict[int, Tuple[int, Contract]] = {}  # responder -> (proposer, contract)
    state = MarketState(iterations=0, iteration_bound=bound, _scale=index.scale)
    events = state._events

    def responder_accepts(p: int, r: int, contract: Contract, event: str) -> None:
        couple = m.couples[p][r]
        new = couple.v[contract.id]
        if new <= bars[r]:
            raise MatchingError("accepted proposal fails to raise the responder")
        held[r] = (p, contract)
        events.append(
            (event, state.iterations, proposers[p], responders[r], contract.id,
             couple.u[contract.id], bars[r] - lift, new)
        )
        bars[r] = new + lift

    while queue:
        state.iterations += 1
        if state.iterations > bound:
            raise MatchingError(
                f"iteration bound {bound} exceeded; termination invariant broken"
            )
        p = queue.popleft()
        r, own, contract = m.best(p, bars)
        if r is None:
            events.append(("exit", state.iterations, proposers[p], own))
            continue
        events.append(
            ("propose", state.iterations, proposers[p], responders[r], contract.id,
             own, m.couples[p][r].v[contract.id])
        )
        if r not in held:
            responder_accepts(p, r, contract, "accept")
            continue
        q = held[r][0]
        # Does the incumbent still pick r once she must be raised by eps?
        _, re_solved, _ = m.best(q, bars)
        kept = m.couples[q][r].by_v.above(bars[r])
        if kept is None or m.couples[q][r].u[kept] < re_solved:
            responder_accepts(p, r, contract, "auto_replace")
            queue.appendleft(q)
            events.append(("requeue", state.iterations, proposers[q]))
            continue
        _, beta_p, _ = m.best(p, bars, exclude=r)
        _, beta_q, _ = m.best(q, bars, exclude=r)
        lam_p = _max_offer(m.couples[p][r], beta_p)
        lam_q = _max_offer(m.couples[q][r], beta_q)
        events.append(
            ("compete", state.iterations, proposers[p], proposers[q], responders[r],
             beta_p, beta_q, lam_p, lam_q)
        )
        if lam_p > lam_q:
            responder_accepts(p, r, _settle(m.couples[p][r], lam_q), "replace")
            queue.appendleft(q)
            events.append(("requeue", state.iterations, proposers[q]))
        else:
            # Draws keep the incumbent, who re-settles at the losing bid.
            responder_accepts(q, r, _settle(m.couples[q][r], lam_p), "resettle")
            queue.appendleft(p)
            events.append(("reject", state.iterations, proposers[p]))

    matches: List[Optional[int]] = [None] * inst.n_men
    chosen = {}
    for r, (p, contract) in held.items():
        i, j = (p, r) if proposing_side is Side.MAN else (r, p)
        matches[i] = j
        chosen[(i, j)] = contract
    profile = MatchingProfile(tuple(matches), chosen)
    return profile, state


def run_with_vanishing_margin(inst: Instance, *, proposing_side: Side = Side.MAN):
    """One propose-dispose run below the payoff grid: exactly externally stable.

    Every menu and reservation payoff is a multiple of 1/D, D the market
    index's scale, so at eps = 1/(2D) a gain above eps is a gain above 0
    and the eps-stable result has no blocking pair at margin 0 (the exact
    auction of Demange, Gale and Sotomayor, JPE 1986).  With eps <= 1/D each
    accepted proposal raises its responder strictly to another payoff her
    menus offer her, so the run ends within the number of proposers plus,
    summed over responders, the distinct payoffs each one's menus offer
    her, whatever D is.  Refine's synthesized repeated-game contracts lie
    off the grid, so the claim is for propose-dispose only.

    Returns (profile, eps, report); report, the zero-margin blocking check,
    is None, and a witness raises MatchingError instead.
    """
    eps = Fraction(1, 2 * market_index(inst).scale)
    profile, _ = run_propose_dispose(inst, eps, proposing_side)
    report = find_blocking_pair(inst, profile, 0)
    if report is not None:
        raise MatchingError(f"run below the payoff grid is blocked at margin 0 by {report}")
    return profile, eps, report
