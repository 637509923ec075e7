"""Refining an externally stable profile to internal stability.

Repeated passes over the matched couples: a couple whose contract is
already a constrained equilibrium (against slightly softened outside
options, see below) is left alone; otherwise the contract is replaced
by one the class solver finds.  A couple that adopts a feasible Nash
contract is frozen for good.  The pass loop converges because each
class's solver makes progress in its own monotone quantity.

Outside options are softened by the ambient margin and clamped at the
reservation payoffs: raw outside options can sit up to the margin above
the incumbent payoffs on a margin-stable profile, which would make the
incumbent contract infeasible, while the softened floors keep every
replacement externally stable at the same margin and make convergence
equivalent to internal stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import List, Mapping, Optional, Set, Tuple

from .cne import CnePolicy, OutsideOptions, is_cne, is_feasible, outside_options, solve_cne
from .games import Instance
from .rational import rat, render_event
from .stability import MatchingError, MatchingProfile, find_blocking_pair


class RefineStatus(Enum):
    CONVERGED = "Converged"
    PASS_LIMIT = "PassLimit"
    INFEASIBLE = "Infeasible"


# Field names of each trace event kind ("pass" is a keyword, so the
# fields reach render_event as a dict).
_EVENT_FIELDS = {
    "skip": ("pass", "man", "woman", "frozen"),
    "visit": ("pass", "man", "woman", "u0", "v0", "contract", "cne"),
    "stuck": ("pass", "man", "woman", "reason"),
    "replace": ("pass", "man", "woman", "old", "new", "u", "v", "nash", "frozen"),
    "pass": ("pass", "changes"),
    "status": ("status", "passes"),
}


@dataclass
class RefineResult:
    """Outcome of ``refine``.

    The run records one tuple per event, (kind, *fields).  ``trace``
    renders them with ``render_event`` on its first read and keeps the
    lines, so a run whose trace nobody reads renders nothing.
    """

    profile: MatchingProfile
    status: RefineStatus
    passes: int
    _events: list = field(repr=False)
    failed_couple: Optional[Tuple[int, int]] = None
    _lines: Optional[List[str]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def trace(self) -> List[str]:
        if self._lines is None:
            self._lines = [
                render_event(kind, **dict(zip(_EVENT_FIELDS[kind], values, strict=True)))
                for kind, *values in self._events
            ]
        return self._lines


def _effective_oo(inst: Instance, raw: OutsideOptions, i: int, j: int, eps: Fraction) -> OutsideOptions:
    return OutsideOptions(
        u0=max(raw.u0 - eps, inst.irp_men[i]),
        v0=max(raw.v0 - eps, inst.irp_women[j]),
    )


def refine(
    inst: Instance,
    profile: MatchingProfile,
    eps,
    policies: Optional[Mapping[str, CnePolicy]] = None,
    max_passes: Optional[int] = None,
) -> RefineResult:
    """Drive every matched couple to a constrained equilibrium contract.

    ``policies`` maps a game kind (e.g. "potential") to an explicit
    CnePolicy; unmapped kinds use CnePolicy.AUTO.  The profile must be
    externally stable at margin eps on entry; external stability is
    re-asserted after every replacement, and the returned status tells
    whether a full pass made no change (Converged), the pass budget ran
    out (PassLimit), or some couple has no constrained equilibrium in its
    menu (Infeasible, possible for plain bimatrix games).
    """
    eps = rat(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if find_blocking_pair(inst, profile, eps) is not None:
        raise MatchingError("refine requires an externally stable input profile")
    policies = dict(policies or {})
    couples = profile.matched_pairs()
    if max_passes is None:
        max_menu = max((len(inst.game(i, j).menu()) for i, j in couples), default=1)
        max_passes = 10 * max_menu * max(len(couples), 1)
    events: list = []
    frozen: Set[Tuple[int, int]] = set()
    current = profile
    passes = 0

    while passes < max_passes:
        passes += 1
        changes = 0
        for i, j in couples:
            if (i, j) in frozen:
                events.append(("skip", passes, inst.men[i], inst.women[j], True))
                continue
            game = inst.game(i, j)
            raw = outside_options(inst, current, i, j, eps)
            oo = _effective_oo(inst, raw, i, j, eps)
            contract = current.chosen[(i, j)]
            if is_cne(game, contract, oo):
                events.append(("visit", passes, inst.men[i], inst.women[j], oo.u0, oo.v0, contract.id, True))
                continue
            result = solve_cne(game, oo, policies.get(game.kind, CnePolicy.AUTO))
            if result.contract is None:
                events.append(("stuck", passes, inst.men[i], inst.women[j], result.reason))
                return RefineResult(current, RefineStatus.INFEASIBLE, passes, events, (i, j))
            new_contract = result.contract
            current = current.with_contract(i, j, new_contract)
            changes += 1
            nash = game.is_nash_contract(new_contract)
            if nash and is_feasible(game, new_contract, oo):
                frozen.add((i, j))
            events.append(
                ("replace", passes, inst.men[i], inst.women[j], contract.id, new_contract.id,
                 new_contract.u, new_contract.v, nash, True if (i, j) in frozen else None)
            )
            if find_blocking_pair(inst, current, eps) is not None:
                raise MatchingError(
                    "replacement broke external stability; refinement invariant violated"
                )
        events.append(("pass", passes, changes))
        if changes == 0:
            events.append(("status", RefineStatus.CONVERGED.value, passes))
            return RefineResult(current, RefineStatus.CONVERGED, passes, events)
    events.append(("status", RefineStatus.PASS_LIMIT.value, passes))
    return RefineResult(current, RefineStatus.PASS_LIMIT, passes, events)
