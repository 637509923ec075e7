"""Constrained equilibria: outside options, feasibility, class solvers."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from matchgames import (
    NEG_INF,
    BimatrixGame,
    CnePolicy,
    GameError,
    MatchingError,
    MatchingProfile,
    OutsideOptions,
    PiecewiseLinear,
    PotentialGame,
    RepeatedGame,
    Side,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    brute_force_cne,
    build_instance,
    fmt,
    is_cne,
    is_externally_stable,
    is_feasible,
    man_payoff,
    outside_options,
    repeated_cne_payoff,
    run_propose_dispose,
    solve_cne,
    validate_profile,
    woman_payoff,
)
from matchgames.geometry import hull_contains
from matchgames.serde import load_instance_file

from helpers import (
    random_bimatrix_instance,
    random_zero_sum_game,
    reference_level_deviations,
    reference_solve_level,
    refused_profiles,
)

F = Fraction

PD_U = [[3, 0], [4, 1]]
PD_V = [[3, 4], [0, 1]]
PENNIES = [[1, -1], [-1, 1]]

SOLAN_U = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
SOLAN_V = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]


MIXED_CLASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "mixed_classes.json"
AUTO_OPTIONS = [
    (NEG_INF, NEG_INF), (F(-1), F(-1)), (F(-1, 2), F(1, 2)), (F(1, 2), F(-1, 2)), (F(0), F(0)),
    (F(1), F(1)), (F(2), F(0)), (F(0), F(2)), (F(2), F(3)), (F(3), F(3)), (F(-1), F(4)),
    (F(4), NEG_INF), (F(5), F(5)),
]


def pd():
    return BimatrixGame(PD_U, PD_V)


def cell(game, u, v):
    return next(c for c in game.menu() if (c.u, c.v) == (u, v))


class TestOutsideOptions:
    def test_isolated_couple(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[2]], [[2]])})
        prof = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        oo = outside_options(inst, prof, 0, 0, 1)
        assert (oo.u0, oo.v0) == (F(0), F(0))

    def test_cross_couple_candidate(self):
        inst = build_instance(
            ["m0", "m1"], ["w0", "w1"], [0, 0], [0, 0],
            {
                (0, 0): BimatrixGame([[2]], [[2]]),
                (0, 1): BimatrixGame([[4]], [[3]]),
                (1, 0): BimatrixGame([[0]], [[0]]),
                (1, 1): BimatrixGame([[5]], [[1]]),
            },
        )
        prof = MatchingProfile(
            (0, 1),
            {(0, 0): inst.game(0, 0).menu()[0], (1, 1): inst.game(1, 1).menu()[0]},
        )
        oo = outside_options(inst, prof, 0, 0, 1)
        # w1 sits at 1, and (4,3) clears 1+1, so m0's outside option is 4;
        # nothing tempts w0's alternatives, so hers stays at the IRP
        assert (oo.u0, oo.v0) == (F(4), F(0))

    def test_unmatched_couple_rejected(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[2]], [[2]])})
        prof = MatchingProfile((None,), {})
        with pytest.raises(ValueError):
            outside_options(inst, prof, 0, 0, 1)

    def test_negative_margin_rejected(self):
        # as find_blocking_pair, refine and is_internally_stable do
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[2]], [[2]])})
        prof = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            outside_options(inst, prof, 0, 0, -1)

    @pytest.mark.parametrize("eps", ["-1/2", F(-1, 3)])
    def test_negative_margin_rejected_in_any_form(self, eps):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[2]], [[2]])})
        prof = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            outside_options(inst, prof, 0, 0, eps)

    @pytest.mark.parametrize("case", range(3))
    def test_refused_profile_raises_the_validation_error(self, case):
        inst, profile, pattern = refused_profiles()[case]
        with pytest.raises(MatchingError, match=pattern) as want:
            validate_profile(inst, profile)
        with pytest.raises(MatchingError) as got:
            outside_options(inst, profile, 0, 0, F(1, 2))
        assert str(got.value) == str(want.value)

    def test_stable_profile_bounds_outside_options(self):
        rng = random.Random(31)
        eps = F(1, 2)
        for _ in range(10):
            inst = random_bimatrix_instance(rng, max_agents=3, max_cells=6)
            prof, _ = run_propose_dispose(inst, eps)
            assert is_externally_stable(inst, prof, eps).holds
            for i, j in prof.matched_pairs():
                oo = outside_options(inst, prof, i, j, eps)
                assert oo.u0 <= man_payoff(inst, prof, i) + eps
                assert oo.v0 <= woman_payoff(inst, prof, j) + eps


class TestFeasibilityAndCne:
    def test_feasible_cases(self):
        g = BimatrixGame([[2]], [[2]])
        c = g.menu()[0]
        assert is_feasible(g, c, OutsideOptions(F(0), F(0)))
        assert not is_feasible(g, c, OutsideOptions(F(3), F(0)))
        assert is_feasible(g, c, OutsideOptions(F(2), F(2)))

    def test_pd_cooperate_cne_under_tight_options(self):
        g = pd()
        assert is_cne(g, cell(g, 3, 3), OutsideOptions(F(3), F(3)))

    def test_pd_cooperate_not_cne_under_loose_options(self):
        g = pd()
        assert not is_cne(g, cell(g, 3, 3), OutsideOptions(F(0), F(0)))

    def test_feasible_nash_is_cne(self):
        rng = random.Random(37)
        seen = 0
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            U = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            V = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            g = BimatrixGame(U, V)
            oo = OutsideOptions(F(rng.randint(-6, 0)), F(rng.randint(-6, 0)))
            for c in g.menu():
                if g.is_nash_contract(c) and is_feasible(g, c, oo):
                    assert is_cne(g, c, oo)
                    seen += 1
        assert seen > 10

    def test_infeasible_contract_never_cne(self):
        g = pd()
        assert not is_cne(g, cell(g, 3, 3), OutsideOptions(F(4), F(0)))


class TestSolveCne:
    def test_zero_sum_median_example(self):
        g = ZeroSumGame(PENNIES, F(1, 4))
        res = solve_cne(g, OutsideOptions(F(-1, 2), F(-1, 4)), CnePolicy.AUTO)
        assert g.level_of(res.contract) == F(0)

    def test_potential_maximizer(self):
        m = [[2, 0], [0, 1]]
        g = PotentialGame(m, m, m)
        res = solve_cne(g, OutsideOptions(F(0), F(0)), CnePolicy.MAX_POTENTIAL)
        assert (res.contract.u, res.contract.v) == (F(2), F(2))

    def test_solan_pure_menu_has_no_cne(self):
        g = BimatrixGame(SOLAN_U, SOLAN_V)
        res = solve_cne(g, OutsideOptions(F(0), F(0)))
        assert res.contract is None
        assert res.reason == "not_feasible_game"
        # (M,M) itself clears the options, so the failure is not feasibility
        assert is_feasible(g, cell(g, 2, 1), OutsideOptions(F(0), F(0)))

    def test_infeasible_reason(self):
        res = solve_cne(pd(), OutsideOptions(F(100), F(100)))
        assert res.contract is None and res.reason == "infeasible"

    def test_prefer_nash_precedence(self):
        g = pd()
        res = solve_cne(g, OutsideOptions(F(0), F(0)), CnePolicy.AUTO)
        assert (res.contract.u, res.contract.v) == (F(1), F(1))

    def test_policy_class_validation(self):
        with pytest.raises(GameError):
            solve_cne(pd(), OutsideOptions(F(0), F(0)), CnePolicy.MAX_POTENTIAL)
        with pytest.raises(GameError):
            solve_cne(pd(), OutsideOptions(F(0), F(0)), "auto")

    @pytest.mark.parametrize(
        "couple,expected",
        [
            # One couple game per class from demos/data/mixed_classes.json, plus
            # Solan's game, where AUTO falls back to the first-CNE scan, and the
            # prisoner's dilemma, where a feasible Nash contract beats the
            # scan's first equilibrium. Each entry is "id u v" of the contract
            # the default refine dispatch picked before it moved into
            # CnePolicy.AUTO, or the reason for no contract, for the outside
            # options in AUTO_OPTIONS.
            (("m0", "w0"), ["2 0 9", "2 0 9", "2 0 9", "1 2 4", "2 0 9", "1 2 4", "1 2 4",
                            "2 0 9", "1 2 4", "infeasible", "2 0 9", "infeasible", "infeasible"]),
            (("m0", "w1"), ["0 2 2"] * 8 + ["infeasible"] * 5),
            (("m0", "w2"), ["2 0 0", "2 0 0", "1 -1/2 1/2", "3 1/2 -1/2", "2 0 0"] + ["infeasible"] * 8),
            (("m1", "w0"), ["2 0 0", "2 0 0", "1 -1/2 1/2", "3 1/2 -1/2", "2 0 0"] + ["infeasible"] * 8),
            (("m1", "w1"), ["0 -2 4", "1 -1 3", "2 0 2", "3 1 1", "2 0 2", "3 1 1", "4 2 0",
                            "2 0 2", "infeasible", "infeasible", "infeasible", "6 4 -2", "infeasible"]),
            (("m1", "w2"), ["11 1 11/3"] * 6 + ["25 2 10/3", "11 1 11/3", "25 2 10/3", "39 3 3",
                                                 "0 0 4", "44 4 0", "infeasible"]),
            ("solan", ["not_feasible_game", "not_feasible_game", "0 2 1", "not_feasible_game",
                       "not_feasible_game", "0 2 1", "not_feasible_game"] + ["infeasible"] * 6),
            ("pd", ["3 1 1"] * 6 + ["2 4 0", "1 0 4", "0 3 3", "0 3 3", "1 0 4", "2 4 0", "infeasible"]),
        ],
        ids=["bimatrix", "potential", "zero_sum", "strictly_competitive", "transfer", "repeated", "solan", "pd"],
    )
    def test_auto_keeps_the_default_refine_choice(self, couple, expected):
        if couple == "solan":
            game = BimatrixGame(SOLAN_U, SOLAN_V)
        elif couple == "pd":
            game = pd()
        else:
            inst, _ = load_instance_file(str(MIXED_CLASSES), eps="1/2")
            game = inst.game(inst.men.index(couple[0]), inst.women.index(couple[1]))
        got = []
        for u0, v0 in AUTO_OPTIONS:
            res = solve_cne(game, OutsideOptions(u0, v0), CnePolicy.AUTO)
            c = res.contract
            got.append(res.reason if c is None else f"{c.id} {fmt(c.u)} {fmt(c.v)}")
        assert got == expected

    def test_returned_contracts_verify(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_zero_sum_game(rng, F(1, 4))
            lo = rng.choice(g.levels)
            hi = rng.choice([lev for lev in g.levels if lev >= lo])
            oo = OutsideOptions(lo, -hi)
            res = solve_cne(g, oo, CnePolicy.AUTO)
            assert res.contract is not None
            assert is_cne(g, res.contract, oo)
            assert is_feasible(g, res.contract, oo)

    def test_median_law_spot_checks(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_zero_sum_game(rng, F(1, 4))
            lo = rng.choice(g.levels)
            hi = rng.choice([lev for lev in g.levels if lev >= lo])
            res = solve_cne(g, OutsideOptions(lo, -hi), CnePolicy.AUTO)
            level = g.level_of(res.contract)
            target = sorted([lo, hi, g.value_level])[1]
            assert abs(level - target) <= g.resolution
            if target in g.levels:
                assert level == target

    def test_levels_searched_in_integers_match_the_fraction_scans(self):
        rng = random.Random(53)

        def pl_map():
            xs = sorted(rng.sample(range(-12, 13), 3))
            ys, q = sorted(rng.sample(range(-40, 41), 3)), rng.choice([1, 3])
            return PiecewiseLinear([(F(x, 2), F(y, q)) for x, y in zip(xs, ys)])

        for n in range(60):
            kind = n % 3
            if kind == 0:
                g = random_zero_sum_game(rng, F(1, rng.choice([1, 2, 3])))
            elif kind == 1:
                g = StrictlyCompetitiveGame(
                    [[F(rng.randint(-9, 9), 2) for _ in range(2)] for _ in range(2)], F(1, 3), pl_map(), pl_map()
                )
            else:
                g = TransferGame(F(rng.randint(-8, 0), 3), rng.randint(1, 6), F(1, 2), pl_map(), pl_map())
            menu = g.menu()
            for c in menu:
                for side in (Side.MAN, Side.WOMAN):
                    assert g.improving_deviations(c, side) == reference_level_deviations(g, c, side)
            for _ in range(12):
                # floors on, between or beyond the menu's payoffs, or absent
                u0, v0 = (
                    rng.choice([NEG_INF, pay + F(rng.randint(-2, 2), 5), F(-100), F(100)])
                    for pay in (rng.choice(menu).u, rng.choice(menu).v)
                )
                oo = OutsideOptions(u0, v0)
                res = solve_cne(g, oo)
                assert res.contract is reference_solve_level(g, oo)
                assert (res.reason == "infeasible") == (res.contract is None)

    def test_brute_force_agreement(self):
        rng = random.Random(47)
        for _ in range(40):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            U = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            V = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            g = BimatrixGame(U, V)
            oo = OutsideOptions(F(rng.randint(-6, 2)), F(rng.randint(-6, 2)))
            res = solve_cne(g, oo)
            exhaustive = brute_force_cne(g, oo)
            assert (res.contract is not None) == bool(exhaustive)
            if res.contract is not None:
                assert res.contract in exhaustive


class TestRepeatedPayoff:
    def game(self):
        return RepeatedGame(PD_U, PD_V, F(1, 2))

    def test_folk_region_point(self):
        g = self.game()
        point = repeated_cne_payoff(g, OutsideOptions(F(2), F(2)))
        assert point is not None
        assert point[0] >= 2 and point[1] >= 2
        assert hull_contains(list(g.hull), point)

    def test_asymmetric_options_keep_cooperation(self):
        g = self.game()
        assert repeated_cne_payoff(g, OutsideOptions(F(3), F(1, 2))) == (F(3), F(3))

    def test_edge_interpolation_above_punishment(self):
        g = self.game()
        assert repeated_cne_payoff(g, OutsideOptions(F(7, 2), F(0))) == (F(7, 2), F(3, 2))

    def test_empty_region_absent(self):
        assert repeated_cne_payoff(self.game(), OutsideOptions(F(5), F(5))) is None

    def test_oracle_policy_wraps_point(self):
        g = self.game()
        oo = OutsideOptions(F(2), F(2))
        res = solve_cne(g, oo, CnePolicy.AUTO)
        assert res.contract is not None
        assert is_cne(g, res.contract, oo)
        assert (res.contract.u, res.contract.v) == repeated_cne_payoff(g, oo)

    def test_neg_inf_floors_allowed(self):
        g = self.game()
        point = repeated_cne_payoff(g, OutsideOptions(NEG_INF, NEG_INF))
        assert point is not None
        assert hull_contains(list(g.hull), point)
