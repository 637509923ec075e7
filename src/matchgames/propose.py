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

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from .games import Contract, Instance, Side
from .rational import NEG_INF, rat, render_event
from .stability import MatchingError, MatchingProfile, find_blocking_pair


# One menu contract read from the proposing side: (own payoff, partner payoff, contract).
_Entry = Tuple[Fraction, Fraction, Contract]


class _Market(NamedTuple):
    """An instance read from the proposing side: p indexes proposers, r responders.

    ``menus[p][r]`` holds the couple's contracts as entries, in id order.
    """

    proposers: Tuple[str, ...]
    responders: Tuple[str, ...]
    irp_proposers: Tuple[Fraction, ...]
    irp_responders: Tuple[Fraction, ...]
    menus: List[List[List[_Entry]]]


def _orient(inst: Instance, proposing: Side) -> _Market:
    if proposing is Side.MAN:
        return _Market(
            inst.men,
            inst.women,
            inst.irp_men,
            inst.irp_women,
            [
                [[(c.u, c.v, c) for c in inst.game(i, j).menu()] for j in range(inst.n_women)]
                for i in range(inst.n_men)
            ],
        )
    return _Market(
        inst.women,
        inst.men,
        inst.irp_women,
        inst.irp_men,
        [
            [[(c.v, c.u, c) for c in inst.game(i, j).menu()] for i in range(inst.n_men)]
            for j in range(inst.n_women)
        ],
    )


def _best_with(m: _Market, p: int, r: int, floor) -> Optional[_Entry]:
    """Best own payoff against responder r among contracts paying r >= floor.

    Ties on own payoff keep the lowest contract id.
    """
    best: Optional[_Entry] = None
    for entry in m.menus[p][r]:
        if entry[1] >= floor and (best is None or entry[0] > best[0]):
            best = entry
    return best


def _best_proposal(
    m: _Market, p: int, payoffs: List[Fraction], eps: Fraction, exclude: Optional[int] = None
) -> Tuple[Optional[int], Tuple[Fraction, Optional[Fraction], Optional[Contract]]]:
    """p's best target and entry; (None, (reservation payoff, None, None)) for staying single.

    Staying single wins only when strictly better than every responder
    option; ties break toward the lowest responder index, then the lowest
    contract id.  ``exclude`` drops one responder (a bidder's fallback).
    """
    target, best = None, (m.irp_proposers[p], None, None)
    for r in range(len(m.responders)):
        if r == exclude:
            continue
        # The attractiveness constraint is weak at payoffs[r] + eps.
        cand = _best_with(m, p, r, payoffs[r] + eps)
        if cand is not None and (cand[0] > best[0] or (cand[0] == best[0] and target is None)):
            target, best = r, cand
    return target, best


def _max_offer(m: _Market, p: int, r: int, beta) -> Fraction:
    """Highest payoff p can concede to r while keeping own payoff >= beta.

    The minus-infinity sentinel means no contract meets the fallback
    threshold (the bidder forfeits).
    """
    best = NEG_INF
    for own, partner, _ in m.menus[p][r]:
        if own >= beta and partner > best:
            best = partner
    return best


def _settle(m: _Market, p: int, r: int, lam_loser) -> _Entry:
    """Winner's entry: max own payoff with responder payoff >= loser's bid."""
    best = _best_with(m, p, r, lam_loser)
    if best is None:
        raise MatchingError("no contract clears the losing bid; bidding invariant broken")
    return best


@dataclass
class MarketState:
    """Trace and bookkeeping of one propose-dispose run."""

    proposing: Side
    iterations: int
    iteration_bound: int
    responder_payoffs: List[Fraction]
    trace: List[str]


def _responder_ceiling(m: _Market, r: int) -> Fraction:
    top = m.irp_responders[r]
    for row in m.menus:
        for _, partner, _ in row[r]:
            if partner > top:
                top = partner
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
    payoffs = list(m.irp_responders)
    gaps = [_responder_ceiling(m, r) - payoffs[r] for r in range(len(m.responders))]
    bound = math.ceil(sum(gaps, Fraction(0)) / eps) + len(m.proposers)
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

    def responder_accepts(p: int, r: int, entry: _Entry, event: str) -> None:
        own, new, contract = entry
        old = payoffs[r]
        if new < old + eps:
            raise MatchingError("accepted proposal fails to raise the responder")
        partner[p] = r
        partner_rev[r] = p
        contracts[p] = contract
        payoffs[r] = new
        log(
            event,
            proposer=m.proposers[p],
            responder=m.responders[r],
            contract=contract.id,
            own=own,
            offer_old=old,
            offer_new=new,
        )

    while queue:
        state.iterations += 1
        if state.iterations > bound:
            raise MatchingError(
                f"iteration bound {bound} exceeded; termination invariant broken"
            )
        p = queue.popleft()
        r, entry = _best_proposal(m, p, payoffs, eps)
        own, offer, contract = entry
        if r is None:
            log("exit", proposer=m.proposers[p], own=own)
            continue
        log(
            "propose",
            proposer=m.proposers[p],
            responder=m.responders[r],
            contract=contract.id,
            own=own,
            offer=offer,
        )
        if r not in partner_rev:
            responder_accepts(p, r, entry, "accept")
            continue
        q = partner_rev[r]
        # Does the incumbent still pick r once she must be raised by eps?
        _, (re_solved, _, _) = _best_proposal(m, q, payoffs, eps)
        held = _best_with(m, q, r, payoffs[r] + eps)
        if held is None or held[0] < re_solved:
            del partner[q], contracts[q]
            responder_accepts(p, r, entry, "auto_replace")
            queue.appendleft(q)
            log("requeue", proposer=m.proposers[q])
            continue
        _, (beta_p, _, _) = _best_proposal(m, p, payoffs, eps, exclude=r)
        _, (beta_q, _, _) = _best_proposal(m, q, payoffs, eps, exclude=r)
        lam_p = _max_offer(m, p, r, beta_p)
        lam_q = _max_offer(m, q, r, beta_q)
        log(
            "compete",
            proposer=m.proposers[p],
            incumbent=m.proposers[q],
            responder=m.responders[r],
            fallback_p=beta_p,
            fallback_inc=beta_q,
            bid_p=lam_p,
            bid_inc=lam_q,
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
