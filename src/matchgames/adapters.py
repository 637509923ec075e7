"""Build matching-game instances from classical market models.

Four constructors: ordinal preference lists, assignment markets with
prices, markets with nonlinear utility for money, and one-to-one
contract markets.  Each produces a plain Instance; nothing here knows
about solvers.  A direct stability checker for the contract model is
included so instance-level results can be cross-checked against the
model's native stability notion.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

from .games import (
    BimatrixGame,
    GameError,
    Instance,
    PiecewiseLinear,
    TransferGame,
    build_instance,
)
from .rational import RationalLike, rat

EMPTY_CONTRACT = "EMPTY"


def _check_permutation(owner: str, listed: Sequence[str], expected: Iterable[str]) -> None:
    exp = set(expected)
    if len(listed) != len(set(listed)) or set(listed) != exp:
        raise GameError(
            f"preference list of {owner!r} must rank exactly {sorted(exp)} once each"
        )


def from_ordinal(
    prefs_men: Mapping[str, Sequence[str]],
    prefs_women: Mapping[str, Sequence[str]],
) -> Instance:
    """Ordinal marriage market with complete strict preference lists.

    Each couple's game is a single-cell bimatrix.  A side with n
    options pays its k-th best partner n+1-k, so the top choice pays n
    and the worst still pays 1, strictly above the reservation payoff
    of 0: with complete lists, any partner beats staying single.
    """
    men = list(prefs_men)
    women = list(prefs_women)
    if not men or not women:
        raise GameError("both sides must be nonempty")
    for m in men:
        _check_permutation(m, prefs_men[m], women)
    for w in women:
        _check_permutation(w, prefs_women[w], men)
    games = {}
    for i, m in enumerate(men):
        for j, w in enumerate(women):
            u = len(women) - prefs_men[m].index(w)
            v = len(men) - prefs_women[w].index(m)
            games[(i, j)] = BimatrixGame([[u]], [[v]])
    return build_instance(men, women, [0] * len(men), [0] * len(women), games)


def from_shapley_shubik(
    costs: Mapping[str, RationalLike],
    valuations: Mapping[str, Mapping[str, RationalLike]],
    price_grid: Tuple[RationalLike, RationalLike, RationalLike],
) -> Instance:
    """Assignment market: sellers with costs, buyers with valuations.

    valuations[seller][buyer] is the buyer's value for that seller's
    good.  Trading at price p pays the seller p - cost and the buyer
    value - p; prices live on the given (min, max, step) grid.
    Sellers are the proposing side, reservation payoffs are 0 (no
    trade, no surplus).
    """
    sellers = list(costs)
    if not sellers:
        raise GameError("at least one seller required")
    buyers = list(valuations[sellers[0]]) if sellers[0] in valuations else []
    if not buyers:
        raise GameError("at least one buyer required")
    for s in sellers:
        if s not in valuations or list(valuations[s]) != buyers:
            raise GameError("every seller needs a valuation per buyer, same buyer order")
    for s in valuations:
        if s not in costs:
            raise GameError(f"valuations given for seller {s!r}, who has no cost")
    # the linear case of from_gale_demange: price p is the transfer to the seller
    f_maps = {s: {b: [(0, -rat(costs[s])), (1, 1 - rat(costs[s]))] for b in buyers} for s in sellers}
    h_maps = {s: {b: [(0, rat(h)), (1, rat(h) + 1)] for b, h in valuations[s].items()} for s in sellers}
    return from_gale_demange(f_maps, h_maps, price_grid)


def from_gale_demange(
    f_maps: Mapping[str, Mapping[str, Sequence[Tuple[RationalLike, RationalLike]]]],
    h_maps: Mapping[str, Mapping[str, Sequence[Tuple[RationalLike, RationalLike]]]],
    transfer_grid: Tuple[RationalLike, RationalLike, RationalLike],
) -> Instance:
    """Market with nonlinear (piecewise-linear) utility for money.

    f_maps[man][woman] and h_maps[man][woman] are breakpoint lists of
    strictly increasing maps.  With net transfer t flowing to the man,
    his payoff is f(t) and the woman's is h(-t).  Identity maps reduce
    to an assignment market with zero costs and zero valuations.
    """
    men = list(f_maps)
    if not men or list(h_maps) != men:
        raise GameError("f_maps and h_maps must cover the same men in the same order")
    women = list(f_maps[men[0]])
    if not women:
        raise GameError("at least one woman required")
    lo, hi, step = transfer_grid
    games = {}
    for i, m in enumerate(men):
        if list(f_maps[m]) != women or list(h_maps[m]) != women:
            raise GameError("every couple needs both maps, same woman order")
        for j, w in enumerate(women):
            games[(i, j)] = TransferGame(
                lo, hi, step, f_u=PiecewiseLinear(f_maps[m][w]), f_v=PiecewiseLinear(h_maps[m][w])
            )
    return build_instance(men, women, [0] * len(men), [0] * len(women), games)


def _signed_rank(prefs: Sequence[str], name: str) -> int:
    # Steps above the empty contract in the owner's list; negative below it.
    return prefs.index(EMPTY_CONTRACT) - prefs.index(name)


def from_hatfield_milgrom(
    contract_set: Sequence[str],
    relations: Mapping[str, Tuple[str, str]],
    prefs: Mapping[str, Sequence[str]],
) -> Instance:
    """One-to-one contract market as a matching game.

    Each couple plays a bimatrix game whose shared strategy set is the
    full contract list: naming the same contract, when it relates this
    couple, pays each partner their signed preference rank around the
    empty contract (+1 for the contract just above staying alone, -1
    just below); any disagreement or foreign contract pays -1.  With
    reservation payoffs 0, a contract a partner ranks below empty is
    individually irrational, matching the model's own IR notion.
    """
    names = list(contract_set)
    if not names:
        raise GameError("contract set must be nonempty")
    if len(set(names)) != len(names) or EMPTY_CONTRACT in names:
        raise GameError(f"contract names must be distinct and not {EMPTY_CONTRACT!r}")
    men: list = []
    women: list = []
    for x in names:
        if x not in relations:
            raise GameError(f"contract {x!r} has no relation")
        a, b = relations[x]
        if a not in men:
            men.append(a)
        if b not in women:
            women.append(b)
    if set(men) & set(women):
        raise GameError("a contract relates same-side agents")
    for k in men + women:
        own = [x for x in names if k in relations[x]]
        if k not in prefs:
            raise GameError(f"agent {k!r} has no preference list")
        _check_permutation(k, prefs[k], own + [EMPTY_CONTRACT])
    for x in relations:
        if x not in names:
            raise GameError(f"relation given for {x!r}, which is not in the contract set")
    for k in prefs:
        if k not in men and k not in women:
            raise GameError(f"preference list given for {k!r}, whom no contract relates")
    games = {}
    n = len(names)
    beta = -1
    for i, m in enumerate(men):
        for j, w in enumerate(women):
            u_mat = [[beta] * n for _ in range(n)]
            v_mat = [[beta] * n for _ in range(n)]
            for x, name_x in enumerate(names):
                if relations[name_x] == (m, w):
                    u_mat[x][x] = _signed_rank(prefs[m], name_x)
                    v_mat[x][x] = _signed_rank(prefs[w], name_x)
            games[(i, j)] = BimatrixGame(u_mat, v_mat)
    return build_instance(men, women, [0] * len(men), [0] * len(women), games)


def hm_stable_allocation(
    contract_set: Sequence[str],
    relations: Mapping[str, Tuple[str, str]],
    prefs: Mapping[str, Sequence[str]],
    allocation: Iterable[str],
) -> bool:
    """Native stability check for a one-to-one contract allocation.

    allocation is a set of contract names, at most one per agent.  It
    is stable when every participant prefers their contract to the
    empty one and no outside contract is strictly preferred by both of
    the agents it relates.  Works directly on the model, independent of
    the instance encoding.
    """
    chosen = list(allocation)
    if len(chosen) != len(set(chosen)):
        raise GameError("allocation repeats a contract")
    current = {}
    for x in chosen:
        if x not in relations:
            raise GameError(f"allocation uses unknown contract {x!r}")
        for k in relations[x]:
            if k in current:
                raise GameError(f"agent {k!r} holds two contracts")
            current[k] = x

    def prefers(k: str, a: str, b: str) -> bool:
        return prefs[k].index(a) < prefs[k].index(b)

    for k, x in current.items():
        if prefers(k, EMPTY_CONTRACT, x):
            return False
    for z in contract_set:
        a, b = relations[z]
        if prefers(a, z, current.get(a, EMPTY_CONTRACT)) and prefers(
            b, z, current.get(b, EMPTY_CONTRACT)
        ):
            return False
    return True
