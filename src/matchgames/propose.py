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
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ._market import Couple, market_index
from .games import Contract, Instance, Side
from .rational import NEG_INF, is_neg_inf, rat, render_event
from .stability import MatchingError, MatchingProfile, find_blocking_pair


class _Market(NamedTuple):
    """An instance read from the proposing side: p indexes proposers, r responders.

    Payoffs are integers on the instance's index, scaled by ``scale``.
    ``couples[p][r]`` is the couple's index entry oriented so that ``u``
    is p's own payoff and ``v`` r's: ``by_v`` answers "best own payoff
    above a bar on r's", ``by_u`` "best payoff for r above a bar on p's".
    ``own`` and ``partner`` read a contract's exact payoffs in this
    orientation, for the trace.
    """

    proposers: Tuple[str, ...]
    responders: Tuple[str, ...]
    irp_proposers: Tuple[int, ...]
    irp_responders: Tuple[int, ...]
    scale: int
    couples: Sequence[Sequence[Couple]]
    own: Callable[[Contract], Fraction]
    partner: Callable[[Contract], Fraction]


def _orient(inst: Instance, proposing: Side) -> _Market:
    index = market_index(inst)
    if proposing is Side.MAN:
        return _Market(
            inst.men,
            inst.women,
            index.irp_men,
            index.irp_women,
            index.scale,
            index.couples,
            attrgetter("u"),
            attrgetter("v"),
        )
    return _Market(
        inst.women,
        inst.men,
        index.irp_women,
        index.irp_men,
        index.scale,
        [[c.mirror() for c in column] for column in zip(*index.couples)],
        attrgetter("v"),
        attrgetter("u"),
    )


def _best_proposal(
    m: _Market, p: int, bars: List[int], exclude: Optional[int] = None
) -> Tuple[Optional[int], int, Optional[Contract]]:
    """p's best (target, own payoff, contract); (None, reservation payoff, None) for staying single.

    Only contracts paying responder r more than ``bars[r]`` count.
    Staying single wins only when strictly better than every responder
    option; ties break toward the lowest responder index, then the lowest
    contract id.  ``exclude`` drops one responder (a bidder's fallback).
    """
    target, own, best = None, m.irp_proposers[p], None
    for r, couple in enumerate(m.couples[p]):
        if r == exclude:
            continue
        c = couple.by_v.above(bars[r])
        if c is not None:
            pay = couple.u[c.id]
            if pay > own or (pay == own and target is None):
                target, own, best = r, pay, c
    return target, own, best


def _max_offer(m: _Market, p: int, r: int, beta: int):
    """Highest scaled payoff p can concede to r while keeping own payoff >= beta.

    The minus-infinity sentinel means no contract meets the fallback
    threshold (the bidder forfeits).
    """
    couple = m.couples[p][r]
    c = couple.by_u.above(beta - 1)
    return NEG_INF if c is None else couple.v[c.id]


def _settle(m: _Market, p: int, r: int, lam_loser) -> Contract:
    """Winner's contract: max own payoff with responder payoff >= the loser's bid."""
    best = m.couples[p][r].by_v.above(lam_loser if is_neg_inf(lam_loser) else lam_loser - 1)
    if best is None:
        raise MatchingError("no contract clears the losing bid; bidding invariant broken")
    return best


def _exact(m: _Market, x):
    """A scaled payoff (or the minus-infinity sentinel) as the exact payoff."""
    return x if is_neg_inf(x) else Fraction(x, m.scale)


@dataclass
class MarketState:
    """Trace and bookkeeping of one propose-dispose run."""

    proposing: Side
    iterations: int
    iteration_bound: int
    responder_payoffs: List[Fraction]
    trace: List[str]


def _responder_ceiling(m: _Market, r: int) -> int:
    top = m.irp_responders[r]
    for row in m.couples:
        c = row[r].by_u.above(NEG_INF)
        if c is not None and row[r].v[c.id] > top:
            top = row[r].v[c.id]
    return top


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
    m = _orient(inst, proposing_side)
    payoffs = [_exact(m, x) for x in m.irp_responders]
    # Responder payoffs are menu or reservation payoffs, so scaled they are
    # integers x, and a scaled payoff reaches x + eps exactly when it exceeds x + lift.
    lift = -(-m.scale * eps.numerator // eps.denominator) - 1
    bars = [x + lift for x in m.irp_responders]
    gap = sum(_responder_ceiling(m, r) - x for r, x in enumerate(m.irp_responders))
    bound = -(-gap * eps.denominator // (m.scale * eps.numerator)) + len(m.proposers)
    queue: Deque[int] = deque(range(len(m.proposers)))
    partner: Dict[int, int] = {}
    partner_rev: Dict[int, int] = {}
    contracts: Dict[int, Contract] = {}
    state = MarketState(
        proposing=proposing_side,
        iterations=0,
        iteration_bound=bound,
        responder_payoffs=payoffs,
        trace=[],
    )

    def log(event: str, **fields) -> None:
        state.trace.append(render_event(event, iter=state.iterations, **fields))

    def responder_accepts(p: int, r: int, contract: Contract, event: str) -> None:
        new = m.couples[p][r].v[contract.id]
        if new <= bars[r]:
            raise MatchingError("accepted proposal fails to raise the responder")
        old = payoffs[r]
        partner[p] = r
        partner_rev[r] = p
        contracts[p] = contract
        payoffs[r] = m.partner(contract)
        bars[r] = new + lift
        log(
            event,
            proposer=m.proposers[p],
            responder=m.responders[r],
            contract=contract.id,
            own=m.own(contract),
            offer_old=old,
            offer_new=payoffs[r],
        )

    while queue:
        state.iterations += 1
        if state.iterations > bound:
            raise MatchingError(
                f"iteration bound {bound} exceeded; termination invariant broken"
            )
        p = queue.popleft()
        r, own, contract = _best_proposal(m, p, bars)
        if r is None:
            log("exit", proposer=m.proposers[p], own=_exact(m, own))
            continue
        log(
            "propose",
            proposer=m.proposers[p],
            responder=m.responders[r],
            contract=contract.id,
            own=m.own(contract),
            offer=m.partner(contract),
        )
        if r not in partner_rev:
            responder_accepts(p, r, contract, "accept")
            continue
        q = partner_rev[r]
        # Does the incumbent still pick r once she must be raised by eps?
        _, re_solved, _ = _best_proposal(m, q, bars)
        held = m.couples[q][r].by_v.above(bars[r])
        if held is None or m.couples[q][r].u[held.id] < re_solved:
            del partner[q], contracts[q]
            responder_accepts(p, r, contract, "auto_replace")
            queue.appendleft(q)
            log("requeue", proposer=m.proposers[q])
            continue
        _, beta_p, _ = _best_proposal(m, p, bars, exclude=r)
        _, beta_q, _ = _best_proposal(m, q, bars, exclude=r)
        lam_p = _max_offer(m, p, r, beta_p)
        lam_q = _max_offer(m, q, r, beta_q)
        log(
            "compete",
            proposer=m.proposers[p],
            incumbent=m.proposers[q],
            responder=m.responders[r],
            fallback_p=_exact(m, beta_p),
            fallback_inc=_exact(m, beta_q),
            bid_p=_exact(m, lam_p),
            bid_inc=_exact(m, lam_q),
        )
        if lam_p > lam_q:
            del partner[q], contracts[q]
            responder_accepts(p, r, _settle(m, p, r, lam_q), "replace")
            queue.appendleft(q)
            log("requeue", proposer=m.proposers[q])
        else:
            # Draws keep the incumbent, who re-settles at the losing bid.
            del partner[q], contracts[q]
            responder_accepts(q, r, _settle(m, q, r, lam_p), "resettle")
            queue.appendleft(p)
            log("reject", proposer=m.proposers[p])

    matches: List[Optional[int]] = [None] * inst.n_men
    chosen = {}
    for p, r in partner.items():
        i, j = (p, r) if proposing_side is Side.MAN else (r, p)
        matches[i] = j
        chosen[(i, j)] = contracts[p]
    profile = MatchingProfile(tuple(matches), chosen)
    return profile, state


def run_with_vanishing_margin(
    inst: Instance,
    start_eps=1,
    max_halvings: int = 12,
    proposing_side: Side = Side.MAN,
):
    """Re-run propose-dispose with margins 1, 1/2, 1/4, ... until stable.

    Stops when two successive margins produce the same matching with
    the same contract ids, then reports that profile together with its
    exact zero-margin verdict.  A zero-margin run is not directly
    available (the margin drives termination), so the fixed point of
    halving is the constructive stand-in; the verdict tells the caller
    whether it actually reached exact stability.
    """
    start_eps = rat(start_eps)
    if start_eps <= 0:
        raise ValueError("start_eps must be positive")
    previous = None
    eps = start_eps
    for k in range(max_halvings + 1):
        eps = start_eps / (2**k)
        profile, _ = run_propose_dispose(inst, eps, proposing_side)
        if previous is not None:
            same_matching = previous.matches == profile.matches
            same_ids = same_matching and all(
                previous.chosen[key].id == profile.chosen[key].id for key in profile.chosen
            )
            if same_ids:
                break
        previous = profile
    report = find_blocking_pair(inst, profile, 0)
    return profile, eps, report
