"""Stability notions for matching profiles, with verifiable witnesses.

A profile assigns each man a woman (or leaves him single) and gives
every matched couple one contract from its menu.  The checkers in this
module decide, exactly: margin-based external stability, the weak and
one-sided blocking variants, Nash play within couples, and internal
stability (no profitable deviation that keeps the market stable).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import floor
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ._market import MarketIndex, Scaled, market_index
from .games import Contract, GameError, Instance, Side
from .rational import rat

SINGLE = None


class MatchingError(ValueError):
    """Structurally invalid profile or an internal invariant breach."""


@dataclass(frozen=True)
class MatchingProfile:
    """A matching plus one chosen contract per matched couple.

    ``matches[i]`` is the woman index matched to man i, or None.
    ``chosen`` has exactly the matched (i, j) pairs as keys.
    """

    matches: Tuple[Optional[int], ...]
    chosen: Mapping[Tuple[int, int], Contract]

    def __post_init__(self):
        taken = [j for j in self.matches if j is not None]
        if len(set(taken)) != len(taken):
            raise MatchingError("two men matched to the same woman")
        pairs = {(i, j) for i, j in enumerate(self.matches) if j is not None}
        if set(self.chosen.keys()) != pairs:
            raise MatchingError("chosen contracts must cover exactly the matched pairs")
        inverse: Dict[int, int] = {j: i for i, j in enumerate(self.matches) if j is not None}
        object.__setattr__(self, "_inverse", inverse)

    def _recontracted(self, chosen: Mapping[Tuple[int, int], Contract]) -> "MatchingProfile":
        """This matching with other contracts on the same pairs, sharing the checked partner map."""
        profile = object.__new__(MatchingProfile)
        fields = profile.__dict__  # filled directly: the class is frozen
        fields["matches"], fields["chosen"], fields["_inverse"] = self.matches, chosen, self._inverse
        return profile

    def partner_of_woman(self, j: int) -> Optional[int]:
        return self._inverse.get(j)

    def matched_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.matches) if j is not None)

    def with_contract(self, i: int, j: int, contract: Contract) -> "MatchingProfile":
        if self.matches[i] != j:
            raise MatchingError(f"couple ({i},{j}) is not matched")
        return self._recontracted({**self.chosen, (i, j): contract})


def read_profile(inst: Instance, profile: MatchingProfile) -> Tuple[MarketIndex, List[Scaled], List[Scaled]]:
    """Validate the profile and read every man's and woman's payoff, scaled by D.

    One pass: the size and range checks, then each chosen contract.  A
    menu's own contract object (by identity in the menu's ``made`` list)
    reads its payoffs from the market index;
    any other contract must pass ``validate_contract`` (an equal copy or
    a synthesized hull point) and is scaled as an exact Fraction.
    Returns the index with the two payoff lists.
    """
    index = market_index(inst)
    men, women = list(index.men.own_irp), list(index.women.own_irp)
    matches, n_women = profile.matches, len(women)
    if len(matches) != len(men):
        raise MatchingError("profile size differs from the number of men")
    for j in matches:
        if j is not None and not 0 <= j < n_women:
            raise MatchingError(f"man {matches.index(j)} matched to unknown woman {j}")
    rows = index.men.couples
    for (i, j), contract in profile.chosen.items():
        couple = rows[i][j]
        k, made = contract.id, couple.menu.made
        try:
            if k < len(made) and made[k] is contract:
                men[i], women[j] = couple.u[k], couple.v[k]
                continue
        except TypeError:  # an id that is not an int is no menu's own contract; validate_contract decides
            pass
        try:
            inst.games[(i, j)].validate_contract(contract)
        except GameError as exc:
            raise MatchingError(f"couple ({i},{j}): {exc}") from exc
        men[i], women[j] = index.scale * contract.u, index.scale * contract.v
    return index, men, women


def validate_profile(inst: Instance, profile: MatchingProfile) -> None:
    """Check the profile against the instance (sizes, contract membership)."""
    read_profile(inst, profile)


def man_payoff(inst: Instance, profile: MatchingProfile, i: int) -> Fraction:
    j = profile.matches[i]
    if j is None:
        return inst.irp_men[i]
    return profile.chosen[(i, j)].u


def woman_payoff(inst: Instance, profile: MatchingProfile, j: int) -> Fraction:
    i = profile.partner_of_woman(j)
    if i is None:
        return inst.irp_women[j]
    return profile.chosen[(i, j)].v


@dataclass(frozen=True)
class BlockingPair:
    """A blocking witness; a None agent stands for the empty player.

    contract is None exactly for reservation-payoff violations (the
    agent would rather be single).
    """

    man: Optional[int]
    woman: Optional[int]
    contract: Optional[Contract]


@dataclass(frozen=True)
class DeviationWitness:
    """A unilateral in-couple deviation used by Nash/internal reports."""

    man: int
    woman: int
    side: Side
    from_contract: Contract
    to_contract: Contract


@dataclass(frozen=True)
class StabilityReport:
    notion: str
    holds: bool
    witness: Optional[object] = None
    eps: Optional[Fraction] = None


def _record(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with every field given.

    It fills ``__dict__`` directly instead of calling the frozen
    ``__init__``, which sets each field through ``object.__setattr__``;
    the instance equals, hashes and prints as the constructor's would.
    """
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


# Reservation witnesses, one per agent index, made on first use and then
# shared: a BlockingPair is frozen and compares by value.  The caches hold
# one record per index ever asked for, so they stay as small as the
# largest market.
@cache
def _man_single(i: int) -> BlockingPair:
    return _record(BlockingPair, man=i, woman=None, contract=None)


@cache
def _woman_single(j: int) -> BlockingPair:
    return _record(BlockingPair, man=None, woman=j, contract=None)


def find_blocking_pair(
    inst: Instance, profile: MatchingProfile, eps
) -> Optional[BlockingPair]:
    """First reservation-payoff violation or margin-blocking pair, if any.

    Scan order is deterministic: each man's pairing with the empty
    player (his reservation check) first, then his candidate couples in
    woman order with contracts in id order, then the women's
    reservation checks.  Absent result means the profile is externally
    stable at margin eps.  No bar is made before man 0's reservation
    check; the women's bars are then made once, and each man's bar in
    his own row scan, so the witness and its order are those of a scan
    that made every bar first.  A reservation witness is made once per
    agent index and then shared by every profile that fails that check
    (the record is frozen and compares by value).
    """
    eps = rat(eps)
    if eps.numerator < 0:
        raise ValueError("eps must be nonnegative")
    index, men_pay, women_pay = read_profile(inst, profile)
    men_irp = index.men.own_irp
    if men_pay and men_pay[0] < men_irp[0]:
        return _man_single(0)
    # Bars as MarketIndex.bars makes them, floor(p + D·eps), a man's only when his row is scanned.
    scale, matches = index.scale, profile.matches
    lift = scale * eps.numerator // eps.denominator
    women_bar = [p + lift if type(p) is int else floor(p + scale * eps) for p in women_pay]
    for i, row in enumerate(index.men.couples):
        pay = men_pay[i]
        if pay < men_irp[i]:
            return _man_single(i)
        bar = pay + lift if type(pay) is int else floor(pay + scale * eps)
        mine = matches[i]
        for j, couple in enumerate(row):
            # The screen: the best u among the contracts above woman j's bar.  It
            # rules out most couples, so the man's own couple is skipped only after it.
            stair, u, v_bar = couple.by_v, couple.u, women_bar[j]
            top = stair.tops[bisect_right(stair.keys, v_bar)]
            if top is not None and u[top] > bar and j != mine:
                v = couple.v  # the screen found a blocking contract; return the lowest id
                for k in range(len(u)):
                    if u[k] > bar and v[k] > v_bar:
                        return _record(BlockingPair, man=i, woman=j, contract=couple.menu[k])
    women_irp = index.women.own_irp
    for j, pay in enumerate(women_pay):
        if pay < women_irp[j]:
            return _woman_single(j)
    return None


def is_externally_stable(inst: Instance, profile: MatchingProfile, eps) -> StabilityReport:
    eps = rat(eps)
    witness = find_blocking_pair(inst, profile, eps)
    notion = "ExternalEps" if eps.numerator else "External0"
    return _record(StabilityReport, notion=notion, holds=witness is None, witness=witness, eps=eps)


def _ir_witness(index: MarketIndex, men_pay, women_pay) -> Optional[BlockingPair]:
    for i, pay in enumerate(men_pay):
        if pay < index.men.own_irp[i]:
            return _man_single(i)
    for j, pay in enumerate(women_pay):
        if pay < index.women.own_irp[j]:
            return _woman_single(j)
    return None


def is_individually_rational(inst: Instance, profile: MatchingProfile) -> StabilityReport:
    """Reservation-payoff check alone (condition shared by every notion)."""
    witness = _ir_witness(*read_profile(inst, profile))
    return StabilityReport("IR", witness is None, witness)


def is_stable_variant(inst: Instance, profile: MatchingProfile, mode: str) -> StabilityReport:
    """Weak / unilateral stability: blocking restricted to current strategies.

    mode "weak": an unmatched pair blocks only with the contract both
    of their current strategy descriptors already select.  mode
    "unilateral": one side may switch strategies, the other keeps its
    current descriptor.  Both use strict improvement with no margin and
    include the reservation check.  Single agents have no current
    strategy, so they never take part in these blocking pairs.
    """
    if mode not in ("weak", "unilateral"):
        raise ValueError(f"unknown variant {mode!r}")
    notion = "Weak" if mode == "weak" else "Unilateral"
    index, men_pay, women_pay = read_profile(inst, profile)
    witness = _ir_witness(index, men_pay, women_pay)
    if witness is not None:
        return StabilityReport(notion, False, witness)
    for i, row in enumerate(index.men.couples):
        j_cur = profile.matches[i]
        if j_cur is None:
            continue
        a_desc = profile.chosen[(i, j_cur)].strategy_a
        for j, couple in enumerate(row):
            if j == j_cur:
                continue
            i_cur = profile.partner_of_woman(j)
            if i_cur is None:
                continue
            b_desc = profile.chosen[(i_cur, j)].strategy_b
            for contract, u, v in zip(couple.menu, couple.u, couple.v):
                if mode == "weak":
                    usable = contract.strategy_a == a_desc and contract.strategy_b == b_desc
                else:
                    usable = contract.strategy_a == a_desc or contract.strategy_b == b_desc
                if usable and u > men_pay[i] and v > women_pay[j]:
                    return StabilityReport(
                        notion, False, BlockingPair(man=i, woman=j, contract=contract)
                    )
    return StabilityReport(notion, True)


def _deviations(inst: Instance, profile: MatchingProfile) -> Iterator[DeviationWitness]:
    """Every improving in-couple menu deviation: couples by man, the man's side first."""
    for i, j in profile.matched_pairs():
        game = inst.game(i, j)
        contract = profile.chosen[(i, j)]
        for side in (Side.MAN, Side.WOMAN):
            for deviation in game.improving_deviations(contract, side):
                yield DeviationWitness(i, j, side, contract, deviation)


def is_nash_stable(inst: Instance, profile: MatchingProfile) -> StabilityReport:
    """Every matched couple plays a contract no side can improve on alone."""
    validate_profile(inst, profile)
    witness = next(_deviations(inst, profile), None)
    return StabilityReport("Nash", witness is None, witness)


def is_internally_stable(inst: Instance, profile: MatchingProfile, eps) -> StabilityReport:
    """No couple member can gain by a deviation that keeps the market stable.

    Defined on externally stable profiles only (checked, error
    otherwise).  For each improving unilateral menu deviation the
    deviated profile is re-checked for external stability at the same
    margin; the notion holds when every such deviation destabilizes.
    """
    eps = rat(eps)
    ambient = is_externally_stable(inst, profile, eps)
    if not ambient.holds:
        raise MatchingError("internal stability is defined on externally stable profiles only")
    for witness in _deviations(inst, profile):
        deviated = profile.with_contract(witness.man, witness.woman, witness.to_contract)
        if find_blocking_pair(inst, deviated, eps) is None:
            return StabilityReport("Internal", False, witness, eps)
    return StabilityReport("Internal", True, eps=eps)
