"""The integer market index against the plain Fraction menu scans it replaced.

Markets have 1-3 agents per side and couples of all six classes, with
payoffs drawn from a small shared pool (so payoff ties are common) of
denominators 1, up to 3, or up to 10^15.  Profiles mix menu contracts, equal
copies of them and synthesized repeated-game contracts off the menu
grid, and margins may have a denominator coprime to the index's scale.  Blocking
witnesses, outside options, the individual-rationality, weak and
unilateral reports, and whole propose-dispose runs (profile, iteration
count and bound, trace lines) must equal the reference scans in
``helpers`` (the blocking witness on every profile the oracle
enumerates, too), and the index, built from the integers each game hands
over, must equal the one built from the menus' Fraction payoffs.  The
same markets check the run below the payoff grid against the oracle's
exactly stable profiles, refine's results against the oracle's
internally stable profiles, and the instance JSON round trip.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    Contract,
    MatchingProfile,
    PiecewiseLinear,
    PotentialGame,
    RefineStatus,
    RepeatedGame,
    Side,
    StabilityReport,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    brute_force_cne,
    build_instance,
    dump_instance,
    enumerate_profiles,
    enumerate_stable,
    find_blocking_pair,
    is_externally_stable,
    is_individually_rational,
    is_internally_stable,
    is_stable_variant,
    outside_options,
    parse_instance,
    refine,
    run_propose_dispose,
    run_with_vanishing_margin,
)
from matchgames._market import _stair, market_index
from matchgames.refine import _effective_oo

from helpers import (
    reference_find_blocking_pair,
    reference_is_individually_rational,
    reference_is_stable_variant,
    reference_market_index,
    reference_outside_options,
    reference_propose_dispose,
)

F = Fraction
KINDS = ["bimatrix", "potential", "zero_sum", "strictly_competitive", "transfer", "repeated"]
# primes for margin denominators; the first one not dividing the scale is used
PRIMES = (1_000_000_007, 998_244_353, 1_000_003, 7)
EXAMPLES = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def markets(draw, complete=False):
    # Most markets keep denominators at 1 or at most 3, so the index scale
    # stays small and payoffs one scaled unit apart are common; the rest use
    # denominators up to 10^15.
    width = draw(st.sampled_from([1, 3, 10**15]))

    def fractions(lo, hi):
        return st.fractions(lo, hi, max_denominator=width)

    pool = draw(st.lists(fractions(-4, 4), min_size=1, max_size=4))
    value = st.sampled_from(pool)
    steps = st.one_of(st.sampled_from([F(1), F(3, 2), F(2)]), fractions(1, 3))

    def matrix(rows, cols):
        return [[draw(value) for _ in range(cols)] for _ in range(rows)]

    def increasing():
        start = draw(value)
        return PiecewiseLinear([(0, start), (1, start + draw(fractions(1, 2)))])

    low = 2 if complete else 1
    n_men, n_women = draw(st.integers(low, 3)), draw(st.integers(low, 3))
    games = {}
    for i in range(n_men):
        for j in range(n_women):
            kind = draw(st.sampled_from(KINDS))
            rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            if kind == "bimatrix":
                games[(i, j)] = BimatrixGame(matrix(rows, cols), matrix(rows, cols))
            elif kind == "potential":
                phi = matrix(rows, cols)
                col_off, row_off = matrix(1, cols)[0], matrix(1, rows)[0]
                u = [[phi[r][c] + col_off[c] for c in range(cols)] for r in range(rows)]
                v = [[phi[r][c] + row_off[r] for c in range(cols)] for r in range(rows)]
                games[(i, j)] = PotentialGame(u, v, phi)
            elif kind == "zero_sum":
                games[(i, j)] = ZeroSumGame(matrix(rows, cols), draw(steps))
            elif kind == "strictly_competitive":
                games[(i, j)] = StrictlyCompetitiveGame(
                    matrix(rows, cols), draw(steps), increasing(), increasing()
                )
            elif kind == "transfer":
                lo = draw(value)
                hi = lo + draw(st.integers(0, 4))
                games[(i, j)] = TransferGame(lo, hi, draw(steps), increasing(), increasing())
            else:
                games[(i, j)] = RepeatedGame(matrix(2, 2), matrix(2, 2), draw(steps))
    # Complete matchings get reservation payoffs below every payoff, so the
    # reservation checks pass and the blocking scans run.
    irp = st.just(F(-100)) if complete else st.one_of(value, fractions(-5, 1))
    return build_instance(
        [f"m{i}" for i in range(n_men)],
        [f"w{j}" for j in range(n_women)],
        [draw(irp) for _ in range(n_men)],
        [draw(irp) for _ in range(n_women)],
        games,
    )


def equal_copy(c):
    """A contract equal to c that is not c's object."""
    return Contract(c.id, c.strategy_a, c.strategy_b, c.u, c.v)


def coprime_margin(draw, inst, low):
    """A margin in [low, 2] whose denominator does not divide the index scale."""
    scale = market_index(inst).scale
    q = next((p for p in PRIMES if scale % p), 1)
    return F(draw(st.integers(-(-low * q // 1), 2 * q)), q)


@st.composite
def profiles(draw, complete=False):
    """(instance, profile, eps) with menu, copied and synthesized contracts.

    Half the profiles start from a propose-dispose result, which is stable
    at its own margin, so blocking pairs there sit close to the bars.  A
    ``complete`` profile, on a market of at least two agents per side,
    matches as many couples as it can with contracts drawn at random.
    """
    inst = draw(markets(complete))
    if not complete and draw(st.booleans()):
        side = draw(st.sampled_from([Side.MAN, Side.WOMAN]))
        start = run_propose_dispose(inst, draw(st.sampled_from([F(1, 2), F(1)])), side)[0]
        matches, start_chosen = start.matches, start.chosen
    else:
        women = draw(st.permutations(range(max(inst.n_men, inst.n_women))))
        matches = tuple(
            j if j < inst.n_women and (complete or draw(st.booleans())) else None
            for j in women[: inst.n_men]
        )
        start_chosen = {}
    chosen = {}
    for i, j in enumerate(matches):
        if j is None:
            continue
        game = inst.game(i, j)
        contract = start_chosen.get((i, j))
        if contract is None:
            contract = game.menu()[draw(st.integers(0, len(game.menu()) - 1))]
        how = draw(st.sampled_from(["menu", "copy", "hull"]))
        if how == "hull" and isinstance(game, RepeatedGame):
            a, b = draw(st.sampled_from(game.hull)), draw(st.sampled_from(game.hull))
            contract = game.synthesize_contract(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        elif how == "copy":
            contract = equal_copy(contract)
        chosen[(i, j)] = contract
    eps = draw(st.one_of(st.sampled_from([F(0), F(1, 2), F(1)]), st.just(None)))
    if eps is None:
        eps = coprime_margin(draw, inst, 0)
    return inst, MatchingProfile(matches, chosen), eps


@EXAMPLES
@given(profiles(), profiles(complete=True))
def test_blocking_witness_and_outside_options_match_the_scans(case, complete_case):
    # Weak and unilateral blocking pairs need two matched couples, which
    # the first kind of profile seldom has.
    for inst, profile, eps in (case, complete_case):
        assert find_blocking_pair(inst, profile, eps) == reference_find_blocking_pair(
            inst, profile, eps
        )
        for i, j in profile.matched_pairs():
            assert outside_options(inst, profile, i, j, eps) == reference_outside_options(
                inst, profile, i, j, eps
            )
        assert is_individually_rational(inst, profile) == reference_is_individually_rational(
            inst, profile
        )
        for mode in ("weak", "unilateral"):
            assert is_stable_variant(inst, profile, mode) == reference_is_stable_variant(
                inst, profile, mode
            )


@settings(EXAMPLES, max_examples=40)
@given(st.data())
def test_every_enumerated_profile_gets_the_scan_witness(data):
    # Every profile of the market, not a drawn few: a kernel shortcut that is
    # wrong on any matching or contract choice shows here.
    inst = data.draw(markets())
    margins = (F(0), F(1, 2), F(1), coprime_margin(data.draw, inst, 0))
    for profile in enumerate_profiles(inst):
        for eps in margins:
            witness = find_blocking_pair(inst, profile, eps)
            assert witness == reference_find_blocking_pair(inst, profile, eps)
            notion = "ExternalEps" if eps else "External0"
            assert is_externally_stable(inst, profile, eps) == StabilityReport(
                notion, witness is None, witness, eps
            )


def outcome(run):
    try:
        return run()
    except ValueError as exc:  # MatchingError included
        return type(exc), str(exc)


@EXAMPLES
@given(st.data())
def test_propose_dispose_matches_the_scans(data):
    inst = data.draw(markets())
    eps = coprime_margin(data.draw, inst, F(1, 4))
    for side in (Side.MAN, Side.WOMAN):

        def indexed():
            profile, state = run_propose_dispose(inst, eps, side)
            return profile, state.iterations, state.iteration_bound, state.trace

        assert outcome(indexed) == outcome(lambda: reference_propose_dispose(inst, eps, side))


@EXAMPLES
@given(markets())
def test_the_index_equals_the_build_from_fraction_payoffs(inst):
    index = market_index(inst)  # before any test reads a payoff
    want = reference_market_index(inst)
    assert index.scale == want["scale"]
    assert (index.men.own_irp, index.women.own_irp) == (want["irp_men"], want["irp_women"])

    for (i, j), couple in want["couples"].items():
        got = index.men.couples[i][j]
        assert got.menu is inst.game(i, j).menu()
        assert {
            "u": got.u,
            "v": got.v,
            "by_v": (got.by_v.keys, got.by_v.tops),
            "by_u": (got.by_u.keys, got.by_u.tops),
        } == couple
        assert index.women.couples[j][i] == got.mirror()


@EXAMPLES
@given(markets())
def test_level_staircases_equal_the_sorted_build(inst):
    # a level menu is a chain (u strictly rising, v strictly falling), so its staircases need no sort
    index = market_index(inst)
    levels = [key for key, game in inst.games.items() if game._payoffs.levels is not None]
    for i, j in levels:
        couple = index.men.couples[i][j]
        assert all(a < b for a, b in zip(couple.u, couple.u[1:]))
        assert all(a > b for a, b in zip(couple.v, couple.v[1:]))
        assert couple.by_v == _stair(couple.v, couple.u)
        assert couple.by_u == _stair(couple.u, couple.v)


@settings(EXAMPLES, max_examples=100)
@given(markets())
def test_the_run_below_the_grid_is_exactly_stable(inst):
    stable = list(enumerate_stable(inst, 0))
    # Each non-exit iteration raises a responder strictly, to another payoff
    # her menus offer her; each proposer exits at most once.
    men, women = range(inst.n_men), range(inst.n_women)
    offers_men = [{c.u for j in women for c in inst.game(i, j).menu()} for i in men]
    offers_women = [{c.v for i in men for c in inst.game(i, j).menu()} for j in women]
    for side, proposers, offers in ((Side.MAN, men, offers_women), (Side.WOMAN, women, offers_men)):
        profile, eps, report = run_with_vanishing_margin(inst, proposing_side=side)
        assert report is None
        assert profile in stable
        again, state = run_propose_dispose(inst, eps, side)
        assert again == profile
        assert state.iterations <= len(proposers) + sum(map(len, offers))


@settings(EXAMPLES, max_examples=150)
@given(markets())
def test_refine_results_agree_with_the_oracle(inst):
    for eps in (F(1), F(1, 2)):
        internal = list(enumerate_stable(inst, eps, "internal"))
        for side in (Side.MAN, Side.WOMAN):
            profile, _ = run_propose_dispose(inst, eps, side)
            result = refine(inst, profile, eps)
            chosen = result.profile.chosen
            if result.status is RefineStatus.INFEASIBLE:
                # certified: the failed couple's menu has no CNE at refine's own floors
                i, j = result.failed_couple
                oo = _effective_oo(inst, outside_options(inst, result.profile, i, j, eps), i, j, eps)
                assert brute_force_cne(inst.game(i, j), oo) == []
            elif all(c.id < len(inst.game(i, j).menu()) for (i, j), c in chosen.items()):
                assert result.status is RefineStatus.CONVERGED
                assert result.profile in internal
            else:
                # a synthesized repeated-game hull point lies off the menus the oracle enumerates
                assert result.status is RefineStatus.CONVERGED
                assert is_internally_stable(inst, result.profile, eps).holds


@EXAMPLES
@given(markets())
def test_dump_and_parse_give_the_same_menus(inst):
    back, _eps = parse_instance(json.loads(json.dumps(dump_instance(inst))), eps=1)

    def menus(x):
        return {
            key: [(c.id, c.strategy_a, c.strategy_b, c.u, c.v) for c in x.game(*key).menu()]
            for key in x.games
        }

    assert (back.men, back.women) == (inst.men, inst.women)
    assert (back.irp_men, back.irp_women) == (inst.irp_men, inst.irp_women)
    assert menus(back) == menus(inst)


def test_the_index_is_built_once_per_instance():
    inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1, 2]], [[2, 1]])})
    assert market_index(inst) is market_index(inst)
    assert market_index(inst).scale == 1


def single_man_market(alternative, eps):
    """Man m single at reservation 1/3 facing a contract that pays him 1/3 + eps."""
    zero = BimatrixGame([[0]], [[0]])
    game = BimatrixGame([[F(1, 3) + eps, F(1, 3) + eps + alternative]], [[5, 5]])
    inst = build_instance(["m", "n"], ["w", "x"], [F(1, 3), 0], [0, 0], {
        (0, 0): game, (0, 1): zero, (1, 0): zero, (1, 1): zero,
    })
    return inst, MatchingProfile((None, None), {})


@pytest.mark.parametrize("eps", [F(1, 3), F(1, 1_000_000_007)])
def test_off_grid_margin_bar_is_exact(eps):
    # "> pay + eps" fails at exactly 1/3 + eps and holds one step of 10^-15 above it.
    inst, profile = single_man_market(F(1, 10**15), eps)
    witness = find_blocking_pair(inst, profile, eps)
    assert witness == reference_find_blocking_pair(inst, profile, eps)
    assert witness.contract.id == 1


@pytest.mark.parametrize("how", ["hull", "copy"])
def test_bars_of_contracts_outside_the_index_are_exact(how):
    # Man m holds a contract the index does not own: a synthesized hull point
    # paying 1/2 each, or an equal copy of the menu contract paying 0 each.
    # His other couple pays (1, 1), the smallest scaled payoff above his own,
    # so it blocks at margin 0.
    hull = RepeatedGame([[0, 1], [0, 1]], [[0, 1], [0, 1]], 1)
    inst = build_instance(["m"], ["w0", "w1"], [0], [0, 0], {
        (0, 0): hull, (0, 1): BimatrixGame([[1]], [[1]]),
    })
    if how == "hull":
        held = hull.synthesize_contract((F(1, 2), F(1, 2)))
        assert held.id == len(hull.menu())
    else:
        held = equal_copy(hull.menu()[0])
        assert (held.u, held.v) == (0, 0)
    profile = MatchingProfile((0,), {(0, 0): held})
    witness = find_blocking_pair(inst, profile, 0)
    assert witness == reference_find_blocking_pair(inst, profile, 0)
    assert (witness.man, witness.woman) == (0, 1)
    assert outside_options(inst, profile, 0, 0, 0) == reference_outside_options(
        inst, profile, 0, 0, 0
    )
