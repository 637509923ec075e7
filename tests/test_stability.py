"""Stability notions: blocking pairs, variants, Nash, internal, and their laws."""

import dataclasses
import random
from fractions import Fraction

import pytest

from matchgames import (
    BimatrixGame,
    BlockingPair,
    Contract,
    DeviationWitness,
    GameError,
    MatchingError,
    MatchingProfile,
    RepeatedGame,
    Side,
    StabilityReport,
    build_instance,
    enumerate_profiles,
    find_blocking_pair,
    from_ordinal,
    is_externally_stable,
    is_individually_rational,
    is_internally_stable,
    is_nash_stable,
    is_stable_variant,
    man_payoff,
    run_propose_dispose,
    validate_profile,
    woman_payoff,
)
from matchgames.serde import dump_profile, parse_profile

from helpers import random_bimatrix_instance, reference_find_blocking_pair, refused_profiles

F = Fraction

PD_U = [[3, 0], [4, 1]]
PD_V = [[3, 4], [0, 1]]

SOLAN_U = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
SOLAN_V = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]

CLASSIC_MEN = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
CLASSIC_WOMEN = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}


def single_couple(game, irp_m=0, irp_w=0):
    return build_instance(["m"], ["w"], [irp_m], [irp_w], {(0, 0): game})


def matched_on(inst, assignments):
    """Profile from {man_index: woman_index}, contracts by menu position 0."""
    matches = [assignments.get(i) for i in range(inst.n_men)]
    chosen = {
        (i, j): inst.game(i, j).menu()[0] for i, j in enumerate(matches) if j is not None
    }
    return MatchingProfile(tuple(matches), chosen)


def profile_at(inst, assignments, pick):
    matches = [assignments.get(i) for i in range(inst.n_men)]
    chosen = {}
    for i, j in enumerate(matches):
        if j is not None:
            chosen[(i, j)] = next(c for c in inst.game(i, j).menu() if pick(i, j, c))
    return MatchingProfile(tuple(matches), chosen)


class TestFindBlockingPair:
    def test_both_single_gain(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        empty = MatchingProfile((None,), {})
        bp = find_blocking_pair(inst, empty, 0)
        assert bp == BlockingPair(0, 0, inst.game(0, 0).menu()[0])

    def test_matched_couple_clean(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        assert find_blocking_pair(inst, matched_on(inst, {0: 0}), 0) is None

    def test_classic_ordinal_both_optima_stable(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        men_opt = matched_on(inst, {0: 0, 1: 1})
        women_opt = matched_on(inst, {0: 1, 1: 0})
        assert find_blocking_pair(inst, men_opt, 0) is None
        assert find_blocking_pair(inst, women_opt, 0) is None

    def test_classic_ordinal_all_singles_blocked(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        empty = MatchingProfile((None, None), {})
        bp = find_blocking_pair(inst, empty, 0)
        assert bp is not None and bp.contract is not None
        assert bp.contract.u > 0 and bp.contract.v > 0

    def test_negative_eps_rejected(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        with pytest.raises(ValueError):
            find_blocking_pair(inst, matched_on(inst, {0: 0}), -1)

    def test_reservation_violation_reported_with_empty_player(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]), irp_m=5)
        bp = find_blocking_pair(inst, matched_on(inst, {0: 0}), 0)
        assert bp == BlockingPair(0, None, None)

    def test_woman_side_reservation(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]), irp_w=5)
        bp = find_blocking_pair(inst, matched_on(inst, {0: 0}), 0)
        assert bp == BlockingPair(None, 0, None)

    def test_witness_order_against_the_reservation_scan(self):
        # man 0 blocks with woman 1, man 1 is below his reservation payoff:
        # the blocking scan checks each man's reservation just before his
        # row, the reservation scan checks every man first
        def cell(x):
            return BimatrixGame([[x]], [[x]])

        games = {(0, 0): cell(0), (0, 1): cell(5), (1, 0): cell(0), (1, 1): cell(0)}
        inst = build_instance(["m0", "m1"], ["w0", "w1"], [0, 1], [0, 0], games)
        profile = matched_on(inst, {0: 0, 1: 1})
        for eps in (0, 1):
            assert find_blocking_pair(inst, profile, eps) == BlockingPair(0, 1, inst.game(0, 1).menu()[0])
        assert is_individually_rational(inst, profile).witness == BlockingPair(1, None, None)
        for mode in ("weak", "unilateral"):
            assert is_stable_variant(inst, profile, mode).witness == BlockingPair(1, None, None)


class TestExternallyStable:
    def test_solver_output_stable(self):
        rng = random.Random(7)
        for _ in range(10):
            inst = random_bimatrix_instance(rng, max_agents=3, max_cells=4)
            profile, _ = run_propose_dispose(inst, F(1, 2))
            report = is_externally_stable(inst, profile, F(1, 2))
            assert report.holds, report.witness

    def test_notion_label_tracks_eps(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        prof = matched_on(inst, {0: 0})
        assert is_externally_stable(inst, prof, 0).notion == "External0"
        assert is_externally_stable(inst, prof, 1).notion == "ExternalEps"

    def test_pareto_dominated_cells_blocked(self):
        # two couples, shared PD, everyone at defect-defect: a cross pair
        # can jump to cooperate-cooperate
        g = BimatrixGame(PD_U, PD_V)
        inst = build_instance(
            ["m0", "m1"], ["w0", "w1"], [0, 0], [0, 0],
            {(i, j): g for i in range(2) for j in range(2)},
        )
        prof = profile_at(inst, {0: 0, 1: 1}, lambda i, j, c: (c.u, c.v) == (1, 1))
        report = is_externally_stable(inst, prof, 0)
        assert not report.holds
        w = report.witness
        assert w.contract.u > 1 and w.contract.v > 1


def witness_cases():
    """(name, instance, profile, expected witness) for every kind of witness."""

    def cell(x):
        return BimatrixGame([[x]], [[x]])

    def two_by_two(irp_men, games):
        return build_instance(["m0", "m1"], ["w0", "w1"], irp_men, [0, 0], games)

    zeros = {(i, j): cell(0) for i in range(2) for j in range(2)}
    late_man = two_by_two([0, 1], zeros)  # man 1 below his reservation, no blocking pair
    blocked = two_by_two([0, 0], {**zeros, (1, 0): cell(3)})  # man 1 and woman 0 block
    low_man = single_couple(cell(1), irp_m=5)
    low_woman = single_couple(cell(1), irp_w=5)
    clean = single_couple(cell(1))
    return [
        ("man 0 reservation", low_man, matched_on(low_man, {0: 0}), BlockingPair(0, None, None)),
        ("man 1 reservation", late_man, matched_on(late_man, {0: 0, 1: 1}),
         BlockingPair(1, None, None)),
        ("blocking pair", blocked, matched_on(blocked, {0: 0, 1: 1}),
         BlockingPair(1, 0, blocked.game(1, 0).menu()[0])),
        ("woman reservation", low_woman, matched_on(low_woman, {0: 0}), BlockingPair(None, 0, None)),
        ("none", clean, matched_on(clean, {0: 0}), None),
        ("no men", build_instance([], ["w"], [], [1], {}), MatchingProfile((), {}), None),
        ("no women", build_instance(["m"], [], [1], [], {}), MatchingProfile((None,), {}), None),
    ]


def behaves_as_built(got, built):
    """got is a frozen dataclass instance like the one its constructor built."""
    assert type(got) is type(built)
    assert got == built and built == got and not got != built
    assert hash(got) == hash(built)
    assert repr(got) == repr(built)
    assert dataclasses.asdict(got) == dataclasses.asdict(built)
    assert dataclasses.astuple(got) == dataclasses.astuple(built)
    assert dataclasses.replace(got) == built
    for field in dataclasses.fields(got):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(got, field.name)
    assert got == built


class TestRecords:
    """The kernel makes its witnesses and reports without their __init__."""

    @pytest.mark.parametrize("case", witness_cases(), ids=lambda case: case[0])
    @pytest.mark.parametrize("eps", [0, F(1, 2)])
    def test_each_witness_kind_behaves_as_built(self, case, eps):
        _name, inst, profile, want = case
        witness = find_blocking_pair(inst, profile, eps)
        assert witness == want
        if want is not None:
            behaves_as_built(witness, BlockingPair(want.man, want.woman, want.contract))
        report = is_externally_stable(inst, profile, eps)
        notion = "ExternalEps" if eps else "External0"
        behaves_as_built(report, StabilityReport(notion, want is None, want, F(eps)))
        assert report.witness == witness

    @pytest.mark.parametrize("eps", [0, F(1, 2)])
    def test_profiles_failing_one_reservation_check_share_its_witness(self, eps):
        two = BimatrixGame([[1, 2]], [[1, 1]])  # two contracts, each below 5 for both sides
        low_man, low_woman = single_couple(two, irp_m=5), single_couple(two, irp_w=5)
        late_man = build_instance(
            ["m0", "m1"], ["w0", "w1"], [0, 1], [0, 0],
            {(i, j): BimatrixGame([[0]], [[0]]) for i in range(2) for j in range(2)},
        )  # man 1 earns 0 below his 1 wherever he is matched, and no pair blocks
        cases = [
            (low_man, [profile_at(low_man, {0: 0}, lambda i, j, c, k=k: c.id == k) for k in (0, 1)],
             BlockingPair(0, None, None)),
            (late_man, [matched_on(late_man, {0: 0, 1: 1}), matched_on(late_man, {0: 1, 1: 0})],
             BlockingPair(1, None, None)),
            (low_woman, [profile_at(low_woman, {0: 0}, lambda i, j, c, k=k: c.id == k) for k in (0, 1)],
             BlockingPair(None, 0, None)),
        ]
        for inst, (first, second), want in cases:
            assert first != second
            got = [find_blocking_pair(inst, p, eps) for p in (first, second)]
            assert got == [reference_find_blocking_pair(inst, p, eps) for p in (first, second)]
            assert got[0] == got[1] == want
            assert got[0] is got[1]  # made once per agent and shared
            # Sharing is safe only because the shared record refuses every write.
            behaves_as_built(got[1], BlockingPair(want.man, want.woman, want.contract))


class TestVariants:
    def test_unknown_mode_rejected(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        with pytest.raises(ValueError):
            is_stable_variant(inst, matched_on(inst, {0: 0}), "strong")

    def test_singles_cannot_block_variants(self):
        # all-singles is weakly/unilaterally stable by convention, though
        # externally blocked
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        empty = MatchingProfile((None, None), {})
        assert is_stable_variant(inst, empty, "weak").holds
        assert is_stable_variant(inst, empty, "unilateral").holds
        assert not is_externally_stable(inst, empty, 0).holds

    def test_common_game_nash_profile_unilaterally_stable(self):
        # both couples at PD defect-defect: Nash holds and no unilateral
        # block exists even though external blocking pairs do
        g = BimatrixGame(PD_U, PD_V)
        inst = build_instance(
            ["m0", "m1"], ["w0", "w1"], [0, 0], [0, 0],
            {(i, j): g for i in range(2) for j in range(2)},
        )
        prof = profile_at(inst, {0: 0, 1: 1}, lambda i, j, c: (c.u, c.v) == (1, 1))
        assert is_nash_stable(inst, prof).holds
        assert is_stable_variant(inst, prof, "unilateral").holds
        assert not is_externally_stable(inst, prof, 0).holds

    def test_ir_violation_fails_variants(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]), irp_m=5)
        prof = matched_on(inst, {0: 0})
        assert not is_stable_variant(inst, prof, "weak").holds
        assert not is_stable_variant(inst, prof, "unilateral").holds


class TestNash:
    def test_pd_defect_holds(self):
        inst = single_couple(BimatrixGame(PD_U, PD_V))
        prof = profile_at(inst, {0: 0}, lambda i, j, c: (c.u, c.v) == (1, 1))
        assert is_nash_stable(inst, prof).holds

    def test_pd_cooperate_fails_with_witness(self):
        inst = single_couple(BimatrixGame(PD_U, PD_V))
        prof = profile_at(inst, {0: 0}, lambda i, j, c: (c.u, c.v) == (3, 3))
        report = is_nash_stable(inst, prof)
        assert not report.holds
        w = report.witness
        assert isinstance(w, DeviationWitness)
        if w.side is Side.MAN:
            assert w.to_contract.u > w.from_contract.u
        else:
            assert w.to_contract.v > w.from_contract.v

    def test_solan_every_pure_cell_fails(self):
        inst = single_couple(BimatrixGame(SOLAN_U, SOLAN_V), irp_m=-100, irp_w=-100)
        for c in inst.game(0, 0).menu():
            prof = MatchingProfile((0,), {(0, 0): c})
            assert not is_nash_stable(inst, prof).holds


class TestInternal:
    def test_common_interest_argmax_holds(self):
        m = [[2, 0], [0, 1]]
        inst = single_couple(BimatrixGame(m, m))
        prof = profile_at(inst, {0: 0}, lambda i, j, c: c.u == 2)
        assert is_internally_stable(inst, prof, 0).holds

    def test_pd_cooperate_low_irps_fails(self):
        inst = single_couple(BimatrixGame(PD_U, PD_V), irp_m=-100, irp_w=-100)
        prof = profile_at(inst, {0: 0}, lambda i, j, c: (c.u, c.v) == (3, 3))
        report = is_internally_stable(inst, prof, 0)
        assert not report.holds
        w = report.witness
        assert w.to_contract.u == 4 or w.to_contract.v == 4

    def test_requires_external_stability(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]), irp_m=5)
        with pytest.raises(MatchingError):
            is_internally_stable(inst, matched_on(inst, {0: 0}), 0)


class TestLaws:
    def test_witness_soundness_replay(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(12):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            for prof in enumerate_profiles(inst):
                report = is_externally_stable(inst, prof, 0)
                if report.holds:
                    continue
                w = report.witness
                if w.contract is None:
                    if w.man is not None:
                        assert man_payoff(inst, prof, w.man) < inst.irp_men[w.man]
                    else:
                        assert woman_payoff(inst, prof, w.woman) < inst.irp_women[w.woman]
                else:
                    inst.game(w.man, w.woman).validate_contract(w.contract)
                    assert w.contract.u > man_payoff(inst, prof, w.man)
                    assert w.contract.v > woman_payoff(inst, prof, w.woman)
                checked += 1
        assert checked > 50

    def test_eps_monotonicity(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            for prof in enumerate_profiles(inst):
                if is_externally_stable(inst, prof, F(1, 2)).holds:
                    assert is_externally_stable(inst, prof, 1).holds
                    assert is_externally_stable(inst, prof, 2).holds

    def test_implication_chain(self):
        rng = random.Random(29)
        stable_seen = 0
        for _ in range(12):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            for prof in enumerate_profiles(inst):
                if is_externally_stable(inst, prof, 0).holds:
                    stable_seen += 1
                    assert is_stable_variant(inst, prof, "unilateral").holds
                    assert is_stable_variant(inst, prof, "weak").holds
        assert stable_seen > 0

    def test_ir_report_notion(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        report = is_individually_rational(inst, matched_on(inst, {0: 0}))
        assert report.notion == "IR" and report.holds


class TestProfileValidation:
    def test_duplicate_woman_rejected(self):
        with pytest.raises(MatchingError):
            MatchingProfile((0, 0), {})

    def test_chosen_must_cover_matches(self):
        with pytest.raises(MatchingError):
            MatchingProfile((0,), {})

    def test_foreign_contract_rejected(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        other = BimatrixGame([[5, 5], [5, 5]], [[5, 5], [5, 5]])
        prof = MatchingProfile((0,), {(0, 0): other.menu()[3]})
        with pytest.raises(MatchingError):
            find_blocking_pair(inst, prof, 0)

    def test_menu_objects_and_equal_copies_accepted_others_named(self):
        game = BimatrixGame([[1, 2]], [[3, 4]])
        inst = single_couple(game)
        twin = BimatrixGame([[1, 2]], [[3, 4]]).menu()[1]  # equal, not the same object
        for contract in (game.menu()[1], twin):
            validate_profile(inst, MatchingProfile((0,), {(0, 0): contract}))
        for foreign in (
            BimatrixGame([[1, 2]], [[3, 5]]).menu()[1],
            Contract(2, 0, 2, F(1), F(3)),
            Contract(-1, 0, 1, F(2), F(4)),
        ):
            with pytest.raises(MatchingError, match=r"^couple \(0,0\): foreign contract"):
                validate_profile(inst, MatchingProfile((0,), {(0, 0): foreign}))

    @pytest.mark.parametrize("cid", ["a", 0.0, True])
    def test_an_id_that_is_not_an_int_is_foreign(self, cid):
        game = BimatrixGame([[1, 2], [3, 4]], [[1, 2], [3, 4]])  # contract 1 is cell (0,1)
        inst, foreign = single_couple(game), Contract(cid, 0, 0, F(1), F(1))
        profile = MatchingProfile((0,), {(0, 0): foreign})
        message = f"foreign contract {foreign!r} for bimatrix game"
        for check in (
            lambda: find_blocking_pair(inst, profile, 0),
            lambda: is_externally_stable(inst, profile, 1),
            lambda: validate_profile(inst, profile),
        ):
            with pytest.raises(MatchingError) as info:
                check()
            assert str(info.value) == f"couple (0,0): {message}"
        with pytest.raises(GameError) as info:
            game.validate_contract(foreign)
        assert str(info.value) == message

    @pytest.mark.parametrize("cid", ["a", 0.0])
    def test_a_hull_point_whose_id_is_not_an_int_is_off_the_menu(self, cid):
        # the prisoners' dilemma repeated at resolution 1/2; (2, 2) lies in its hull
        game = RepeatedGame([[3, 0], [5, 1]], [[3, 5], [0, 1]], F(1, 2))
        point = (F(2), F(2))
        inst, contract = single_couple(game), Contract(cid, point, point, *point)
        profile = MatchingProfile((0,), {(0, 0): contract})
        game.validate_contract(contract)
        assert find_blocking_pair(inst, profile, 0) is None
        assert game.describe(contract) == "synthesized hull point"
        assert dump_profile(inst, profile)["contracts"]["m"]["id"] is None
        with pytest.raises(GameError) as info:
            game.contract(cid)
        assert str(info.value) == f"no contract with id {cid} in this menu"

    @pytest.mark.parametrize("cid", [3, True, "a", 0.0])
    def test_a_hull_point_with_a_menu_id_round_trips_as_synthesized(self, cid):
        # (2, 2) is off the grid, and ids 3 and True (1) name menu contracts with other payoffs
        game = RepeatedGame([[3, 0], [5, 1]], [[3, 5], [0, 1]], F(1, 2))
        point = (F(2), F(2))
        inst, contract = single_couple(game), Contract(cid, point, point, *point)
        assert point not in {(c.u, c.v) for c in game.menu()}
        profile = MatchingProfile((0,), {(0, 0): contract})
        assert game.describe(contract) == "synthesized hull point"
        dumped = dump_profile(inst, profile)
        assert dumped["contracts"]["m"]["id"] is None
        back = parse_profile(inst, dumped).chosen[(0, 0)]
        assert back == game.synthesize_contract(point) == Contract(len(game.menu()), point, point, *point)
        assert dump_profile(inst, MatchingProfile((0,), {(0, 0): back})) == dumped
        # an equal copy of a menu contract keeps its id through the round trip
        grid = game.menu()[3]
        copy = Contract(grid.id, grid.strategy_a, grid.strategy_b, grid.u, grid.v)
        assert game.describe(copy) == "hull grid point"
        dumped = dump_profile(inst, MatchingProfile((0,), {(0, 0): copy}))
        assert dumped["contracts"]["m"]["id"] == 3
        assert parse_profile(inst, dumped).chosen[(0, 0)] is grid


CHECKERS = {
    "find_blocking_pair": lambda inst, p: find_blocking_pair(inst, p, 0),
    "is_externally_stable": lambda inst, p: is_externally_stable(inst, p, F(1, 2)),
    "is_individually_rational": is_individually_rational,
    "is_stable_variant weak": lambda inst, p: is_stable_variant(inst, p, "weak"),
    "is_stable_variant unilateral": lambda inst, p: is_stable_variant(inst, p, "unilateral"),
    "is_nash_stable": is_nash_stable,
}


class TestOnePassValidation:
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    @pytest.mark.parametrize("case", range(3))
    def test_every_checker_raises_the_validation_error(self, name, case):
        inst, profile, pattern = refused_profiles()[case]
        with pytest.raises(MatchingError, match=pattern) as want:
            validate_profile(inst, profile)
        with pytest.raises(MatchingError) as got:
            CHECKERS[name](inst, profile)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("eps", ["-1/2", F(-1, 3), -1])
    def test_negative_margin_rejected(self, eps):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        for check in (find_blocking_pair, is_externally_stable):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                check(inst, matched_on(inst, {0: 0}), eps)

    def test_notion_follows_the_sign_of_the_margin(self):
        inst = single_couple(BimatrixGame([[1]], [[1]]))
        profile = matched_on(inst, {0: 0})
        for eps in (0, "0", F(0), "0/7"):
            report = is_externally_stable(inst, profile, eps)
            assert (report.notion, report.eps, type(report.eps)) == ("External0", 0, F)
        for eps in ("1/2", F(1, 2), "0.5"):
            report = is_externally_stable(inst, profile, eps)
            assert (report.notion, report.eps) == ("ExternalEps", F(1, 2))
