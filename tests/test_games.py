"""Game classes: menus, payoff re-evaluation, exact class quantities."""

import copy
import dataclasses
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    Contract,
    GameError,
    PiecewiseLinear,
    PotentialGame,
    RepeatedGame,
    Side,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    build_instance,
    feasible_payoff_hull,
    punishment_levels,
    validate_potential,
    zero_sum_value,
)
from matchgames import games
from matchgames.games import _grid_runs
from matchgames.geometry import hull_contains
from matchgames.serde import dump_game, dump_instance, parse_instance

from helpers import frac, reference_grid, reference_is_potential, reference_map, support_value

F = Fraction

PD_U = [[3, 0], [4, 1]]
PD_V = [[3, 4], [0, 1]]
PENNIES = [[1, -1], [-1, 1]]


def pd_stage():
    return BimatrixGame(PD_U, PD_V)


def unmade(menu):
    """Ids of the menu's contracts not made yet."""
    return [k for k, c in enumerate(menu.made) if c is None]


class TestPayoff:
    def test_bimatrix_lookup(self):
        g = BimatrixGame([[2, 0], [3, 1]], [[1, 0], [0, 2]])
        c = g.menu()[0]
        assert (c.strategy_a, c.strategy_b) == (0, 0)
        assert g.payoff(c) == (F(2), F(1))

    def test_zero_sum_level(self):
        g = ZeroSumGame(PENNIES, F(1, 2))
        c = next(c for c in g.menu() if c.u == F(1, 2))
        assert g.payoff(c) == (F(1, 2), F(-1, 2))

    def test_transfer_evaluation(self):
        g = TransferGame(0, 6, 1, PiecewiseLinear([(0, -2), (1, -1)]), PiecewiseLinear([(0, 6), (1, 7)]))
        c = next(c for c in g.menu() if c.strategy_a == 4)
        assert g.payoff(c) == (F(2), F(2))

    def test_foreign_contract_rejected(self):
        g = BimatrixGame([[1]], [[1]])
        alien = Contract(id=0, strategy_a=0, strategy_b=0, u=F(9), v=F(9))
        with pytest.raises(GameError):
            g.payoff(alien)

    def test_tampered_payoff_rejected(self):
        g = ZeroSumGame(PENNIES, F(1, 2))
        c = g.menu()[0]
        bad = Contract(id=c.id, strategy_a=c.strategy_a, strategy_b=c.strategy_b, u=c.u, v=c.v + 1)
        with pytest.raises(GameError):
            g.payoff(bad)


class TestMenus:
    def test_bimatrix_all_cells(self):
        g = BimatrixGame([[1, 2], [3, 4]], [[0, 0], [0, 0]])
        menu = g.menu()
        assert len(menu) == 4
        assert [c.id for c in menu] == [0, 1, 2, 3]
        assert {(c.strategy_a, c.strategy_b) for c in menu} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_zero_sum_grid(self):
        g = ZeroSumGame(PENNIES, F(1, 2))
        assert [c.u for c in g.menu()] == [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]

    def test_transfer_grid_cardinality(self):
        g = TransferGame(0, 6, 1, PiecewiseLinear([(0, -2), (1, -1)]), PiecewiseLinear([(0, 6), (1, 7)]))
        assert len(g.menu()) == 7

    def test_nonpositive_resolution_rejected(self):
        with pytest.raises(GameError):
            ZeroSumGame(PENNIES, 0)
        with pytest.raises(GameError):
            RepeatedGame(PD_U, PD_V, F(-1))

    def test_menu_deterministic(self):
        a = ZeroSumGame([[2, 0], [1, 3]], F(1, 4)).menu()
        b = ZeroSumGame([[2, 0], [1, 3]], F(1, 4)).menu()
        assert a == b

    def test_ragged_matrix_rejected(self):
        with pytest.raises(GameError):
            BimatrixGame([[1, 2], [3]], [[0, 0], [0, 0]])


GOOD = [[1, 2], [3, 4]]
SHAPE = "{} must be a nonempty rectangular matrix"


class TestMatrixRefusals:
    """The exact message for each malformed matrix a library caller can pass."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BimatrixGame([[1, True], [3, 4]], GOOD), "U: bool is not a rational payoff"),
            (
                lambda: BimatrixGame([[1, 0.5], [3, 4]], GOOD),
                "U: float 0.5 rejected: pass an int, Fraction, or exact string like '1/10'",
            ),
            (lambda: BimatrixGame(GOOD, [[1, 2], ["x", 4]]), "V: Invalid literal for Fraction: 'x'"),
            (lambda: BimatrixGame(GOOD, [[1, "1/0"], [3, 4]]), "V: zero denominator in '1/0'"),
            (lambda: BimatrixGame([[None]], [[1]]), "U: cannot interpret None as a rational"),
            (lambda: BimatrixGame([[1, 2], [3]], GOOD), "U must be a nonempty rectangular matrix"),
            (lambda: BimatrixGame([], GOOD), "U must be a nonempty rectangular matrix"),
            (lambda: BimatrixGame([[]], GOOD), "U must be a nonempty rectangular matrix"),
            (lambda: BimatrixGame(GOOD, [[1, 2]]), "U and V must share dimensions"),
            (lambda: PotentialGame(GOOD, GOOD, [[1, 2, 3], [4, 5, 6]]), "phi must share dimensions with U and V"),
            (lambda: PotentialGame(GOOD, GOOD, [[1, "y"], [3, 4]]), "phi: Invalid literal for Fraction: 'y'"),
            (lambda: validate_potential(GOOD, GOOD, [[1, 2]]), "U, V, phi must share dimensions"),
            (lambda: validate_potential(GOOD, GOOD, [[1, 2], [False, 4]]), "phi: bool is not a rational payoff"),
        ],
        ids=[
            "bool", "float", "literal", "zero_denominator", "none", "ragged", "empty", "empty_row",
            "stage_shape", "phi_shape", "phi_literal", "potential_shape", "phi_bool",
        ],
    )
    def test_messages(self, build, message):
        with pytest.raises(GameError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("row", ["12", b"12", {1: 2, 3: 4}, 5], ids=["str", "bytes", "dict", "int"])
    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda m: BimatrixGame(m, GOOD), "U", id="bimatrix_U"),
            pytest.param(lambda m: BimatrixGame(GOOD, m), "V", id="bimatrix_V"),
            pytest.param(lambda m: PotentialGame(m, GOOD, GOOD), "U", id="potential_U"),
            pytest.param(lambda m: PotentialGame(GOOD, GOOD, m), "phi", id="potential_phi"),
            pytest.param(lambda m: validate_potential(GOOD, m, GOOD), "V", id="validate_potential_V"),
            pytest.param(lambda m: ZeroSumGame(m, 1), "g", id="zero_sum"),
            pytest.param(zero_sum_value, "g", id="zero_sum_value"),
            pytest.param(
                lambda m: StrictlyCompetitiveGame(m, 1, PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY)),
                "g",
                id="strictly_competitive",
            ),
            pytest.param(lambda m: RepeatedGame(m, GOOD, 1), "U", id="repeated_U"),
            pytest.param(lambda m: RepeatedGame(GOOD, m, 1), "V", id="repeated_V"),
        ],
    )
    def test_a_row_that_is_not_a_list_is_refused(self, build, name, row):
        # such a row iterates, but it is not a row of numbers: ["12", "34"] is not [[1, 2], [3, 4]]
        for m in ([row, row], [[1, 2], row], [row]):
            with pytest.raises(GameError) as info:
                build(m)
            assert str(info.value) == SHAPE.format(name)


class TestArgumentRefusals:
    """A bad number outside a matrix is a GameError naming its field, as a bad matrix entry is."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PiecewiseLinear([(True, 1), (2, 3)]), "breakpoints: bool is not a rational payoff"),
            (lambda: PiecewiseLinear([(0, 0), (1, "1/0")]), "breakpoints: zero denominator in '1/0'"),
            (
                lambda: TransferGame("a", 2, 1, PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY)),
                "t_min: Invalid literal for Fraction: 'a'",
            ),
            (
                lambda: TransferGame(0, 2.5, 1, PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY)),
                "t_max: float 2.5 rejected: pass an int, Fraction, or exact string like '1/10'",
            ),
            (
                lambda: TransferGame(0, 2, "1/0", PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY)),
                "transfer grid step: zero denominator in '1/0'",
            ),
            (lambda: RepeatedGame([[1]], [[1]], None), "menu resolution: cannot interpret None as a rational"),
            (
                lambda: ZeroSumGame([[1]], 0.5),
                "menu resolution: float 0.5 rejected: pass an int, Fraction, or exact string like '1/10'",
            ),
        ],
        ids=["breakpoint_bool", "breakpoint_zero_denominator", "t_min", "t_max", "step", "repeated", "zero_sum"],
    )
    def test_messages(self, build, message):
        with pytest.raises(GameError) as info:
            build()
        assert str(info.value) == message


class TestZeroSumValue:
    def test_pennies(self):
        assert zero_sum_value(PENNIES) == 0

    def test_single_cell(self):
        assert zero_sum_value([[3]]) == 3

    def test_mixed_2x2(self):
        # no saddle point; value certified by the kernel oracle as well
        assert zero_sum_value([[2, 0], [1, 3]]) == F(3, 2)
        assert support_value([[2, 0], [1, 3]]) == F(3, 2)

    def test_agrees_with_support_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            g = [[frac(-5, 5, rng) for _ in range(cols)] for _ in range(rows)]
            assert zero_sum_value(g) == support_value(g)

    def test_value_within_range(self):
        rng = random.Random(3)
        for _ in range(30):
            g = [[frac(-9, 9, rng) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))]
            width = max(len(r) for r in g)
            g = [r + [r[-1]] * (width - len(r)) for r in g]
            v = zero_sum_value(g)
            flat = [x for row in g for x in row]
            assert min(flat) <= v <= max(flat)


class TestPunishmentLevels:
    def test_prisoners_dilemma(self):
        assert punishment_levels(pd_stage()) == (F(1), F(1))

    def test_pennies_stage(self):
        neg = [[-x for x in row] for row in PENNIES]
        assert punishment_levels(BimatrixGame(PENNIES, neg)) == (F(0), F(0))

    def test_common_interest(self):
        # mixed minmax of [[2,0],[0,1]]: mixing 1/3-2/3 holds the other
        # player to 2/3, strictly below either pure cap
        m = [[2, 0], [0, 1]]
        g = BimatrixGame(m, m)
        assert punishment_levels(g) == (F(2, 3), F(2, 3))
        assert support_value(m) == F(2, 3)


class TestHull:
    def test_pd_quadrilateral(self):
        hull = feasible_payoff_hull(pd_stage())
        assert set(hull) == {(F(0), F(4)), (F(3), F(3)), (F(4), F(0)), (F(1), F(1))}
        # counterclockwise orientation: positive signed area
        area = sum(
            hull[k][0] * hull[(k + 1) % len(hull)][1] - hull[(k + 1) % len(hull)][0] * hull[k][1]
            for k in range(len(hull))
        )
        assert area > 0

    def test_single_cell_degenerate(self):
        g = BimatrixGame([[3]], [[3]])
        assert feasible_payoff_hull(g) == ((F(3), F(3)),)

    def test_zero_sum_segment(self):
        neg = [[-x for x in row] for row in PENNIES]
        hull = feasible_payoff_hull(BimatrixGame(PENNIES, neg))
        assert set(hull) == {(F(-1), F(1)), (F(1), F(-1))}

    def test_membership_in_degenerate_hulls(self):
        assert not hull_contains([], (F(0), F(0)))
        assert hull_contains([(F(1), F(1))], (F(1), F(1)))
        assert not hull_contains([(F(1), F(1))], (F(1), F(2)))
        segment = [(F(0), F(0)), (F(2), F(2))]
        assert hull_contains(segment, (F(1, 2), F(1, 2)))
        assert not hull_contains(segment, (F(1), F(0)))  # off the segment's line
        assert not hull_contains(segment, (F(3), F(3)))  # on its line, past an end

    def test_hull_contains_all_cells(self):
        rng = random.Random(11)
        for _ in range(25):
            U = [[frac(-4, 4, rng) for _ in range(2)] for _ in range(2)]
            V = [[frac(-4, 4, rng) for _ in range(2)] for _ in range(2)]
            g = BimatrixGame(U, V)
            hull = list(feasible_payoff_hull(g))
            for r in range(2):
                for c in range(2):
                    assert hull_contains(hull, (U[r][c], V[r][c]))


class TestPotential:
    def test_identical_matrices(self):
        m = [[2, 0], [0, 1]]
        assert validate_potential(m, m, m) is True

    def test_constant_phi_rejected(self):
        assert validate_potential([[2, 0], [3, 1]], [[1, 0], [0, 2]], [[0, 0], [0, 0]]) is False

    def test_pd_potential(self):
        assert validate_potential(PD_U, PD_V, [[0, 2], [2, 3]]) is True

    def test_dimension_mismatch(self):
        with pytest.raises(GameError):
            validate_potential([[1, 2]], [[1, 2]], [[1], [2]])

    def test_invalid_potential_game_rejected(self):
        with pytest.raises(GameError):
            PotentialGame([[2, 0], [3, 1]], [[1, 0], [0, 2]], [[0, 0], [0, 0]])


class TestStrictlyCompetitive:
    def game(self):
        return StrictlyCompetitiveGame(
            [[2, 0], [1, 3]],
            F(1, 2),
            PiecewiseLinear([(-10, -20), (10, 20)]),
            PiecewiseLinear([(-10, -5), (10, 5)]),
        )

    def test_monotone_menu(self):
        menu = self.game().menu()
        for a, b in zip(menu, menu[1:]):
            assert (a.u < b.u) and (a.v > b.v)

    def test_u_step_bounded(self):
        menu = self.game().menu()
        for a, b in zip(menu, menu[1:]):
            assert b.u - a.u <= F(1, 2)

    def test_nonmonotone_map_rejected(self):
        with pytest.raises(GameError):
            PiecewiseLinear([(0, 0), (1, 0)])


class TestRepeated:
    def test_punishments_on_game(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        assert (g.alpha, g.beta) == (F(1), F(1))

    def test_menu_points_in_hull(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        hull = list(g.hull)
        for c in g.menu():
            assert hull_contains(hull, (c.u, c.v))

    def test_synthesized_contract_roundtrip(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        c = g.synthesize_contract((F(7, 2), F(3, 2)))
        g.validate_contract(c)
        assert g.payoff(c) == (F(7, 2), F(3, 2))
        with pytest.raises(GameError):
            g.synthesize_contract((F(100), F(100)))

    def test_synthesize_returns_the_menus_own_contract_and_reads_no_other(self):
        def fresh():
            return RepeatedGame(PD_U, [[3, 4], [F(-1, 2), 1]], F(1, 3))

        points = [(c.u, c.v) for c in fresh().menu()]
        assert len(points) > 20
        for k, point in enumerate(points):
            g = fresh()
            c = g.synthesize_contract(point)
            assert c is g.menu()[k]
            assert unmade(g.menu()) == [j for j in range(len(points)) if j != k]
            assert (c.id, c.strategy_a, c.u, c.v) == (k, point, *point)

    def test_synthesize_makes_a_new_contract_off_the_grid(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        # the u-column 9/4 is off the grid; (3, 9/4) lies on a column, off its grid
        for point in ((F(9, 4), F(9, 4)), (F(3), F(9, 4))):
            c = g.synthesize_contract(point)
            assert type(c) is Contract
            assert (c.id, c.strategy_a, c.strategy_b, c.u, c.v) == (len(g.menu()), point, point, *point)
            g.validate_contract(c)
        assert unmade(g.menu()) == list(range(len(g.menu())))

    def test_a_hand_made_contract_off_the_hull_is_refused(self):
        half = (F(1, 2), F(1, 2))
        one_point = RepeatedGame([[1]], [[1]], 1)
        with pytest.raises(GameError, match="^foreign contract .* for repeated game$"):
            one_point.validate_contract(Contract(1, half, half, *half))
        segment = RepeatedGame([[0, 2]], [[0, 2]], 1)  # two collinear cells: the hull is a segment
        segment.validate_contract(Contract(3, half, half, *half))  # on it, off the grid
        off = (F(1), F(0))
        with pytest.raises(GameError, match="^foreign contract .* for repeated game$"):
            segment.validate_contract(Contract(3, off, off, *off))

    def test_the_hull_is_taken_once_at_construction(self, monkeypatch):
        calls, integer_hull = [], games._integer_hull

        def counted(points):
            calls.append(1)
            return integer_hull(points)

        monkeypatch.setattr(games, "_integer_hull", counted)
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        assert len(calls) == 1
        assert g.hull == feasible_payoff_hull(g) == g.hull == feasible_payoff_hull(g)
        assert len(calls) == 1
        assert g.hull == feasible_payoff_hull(pd_stage())

    def test_nash_iff_above_punishments(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        for c in g.menu():
            assert g.is_nash_contract(c) == (c.u >= 1 and c.v >= 1)

    def test_deviations_absent_above_punishment(self):
        g = RepeatedGame(PD_U, PD_V, F(1, 2))
        for c in g.menu():
            if c.u >= g.alpha:
                assert g.improving_deviations(c, Side.MAN) == ()
            else:
                devs = g.improving_deviations(c, Side.MAN)
                assert devs and all(d.u > c.u for d in devs)


class TestViews:
    """A game hands out views of the integers it keeps: an edit to one reaches nothing."""

    def test_an_edited_matrix_view_changes_no_answer(self):
        coord = [[2, 0], [0, 1]]
        potential = PotentialGame(coord, coord, coord)
        zero_sum = ZeroSumGame(PENNIES, F(1, 2))
        competitive = StrictlyCompetitiveGame(PENNIES, F(1, 2), PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY))
        repeated = RepeatedGame(PD_U, PD_V, F(1, 2))
        couples = [pd_stage(), potential, zero_sum, competitive, repeated]
        women = [f"w{k}" for k in range(len(couples))]
        inst = build_instance(["m"], women, [0], [0] * len(women), {(0, k): g for k, g in enumerate(couples)})

        def answers():
            return (
                dump_instance(inst),
                [potential.potential_of(c) for c in potential.menu()],
                [g.describe(c) for g in couples for c in g.menu()],
            )

        before = answers()
        views = [(g, name) for g in couples for name in ("U", "V", "phi", "g") if hasattr(g, name)]
        assert len(views) == 9
        for g, name in views:
            view = getattr(g, name)
            want = copy.deepcopy(view)
            view[0][0], view[-1][-1] = F(0), F(100)
            view.append([F(7)])
            assert getattr(g, name) == want
        assert answers() == before
        assert potential.phi == [[2, 0], [0, 1]] and zero_sum.g == PENNIES

    def test_levels_and_points_are_the_same_on_every_read(self):
        zero_sum = ZeroSumGame(PENNIES, F(1, 2))
        f = PiecewiseLinear([(0, F(1, 7)), (1, 2)])
        transfer = TransferGame(0, 1, F(1, 3), f, PiecewiseLinear(IDENTITY))
        for _ in range(2):
            assert zero_sum.levels == (-1, F(-1, 2), 0, F(1, 2), 1)
            assert transfer.levels == (0, F(1, 3), F(2, 3), 1)
            assert f.points == ((0, F(1, 7)), (1, 2))
            assert all(type(x) is Fraction for x in zero_sum.levels + transfer.levels + f.points[0])


class TestReEvaluation:
    def test_every_class_every_contract(self):
        games = [
            BimatrixGame([[2, 0], [3, 1]], [[1, 0], [0, 2]]),
            PotentialGame(PD_U, PD_V, [[0, 2], [2, 3]]),
            ZeroSumGame([[2, 0], [1, 3]], F(1, 2)),
            StrictlyCompetitiveGame(
                [[1, -1], [-1, 1]],
                F(1, 2),
                PiecewiseLinear([(-2, -2), (2, 2)]),
                PiecewiseLinear([(-2, -4), (2, 4)]),
            ),
            TransferGame(0, 4, F(1, 2), PiecewiseLinear([(0, 0), (1, 1)]), PiecewiseLinear([(0, 0), (1, 1)])),
            RepeatedGame(PD_U, PD_V, F(1, 2)),
            # kinked maps: the u-scale grid maps back to levels off the g grid
            StrictlyCompetitiveGame(
                [[2, 0], [1, 3]],
                F(1, 2),
                PiecewiseLinear([(0, 0), (1, 3), (3, 4)]),
                PiecewiseLinear([(-3, -1), (-1, 0), (0, 2)]),
            ),
        ]
        for g in games:
            assert g.menu()
            for c in g.menu():
                assert g.payoff(c) == (c.u, c.v)

    def test_zero_sum_identity(self):
        g = ZeroSumGame([[2, 0], [1, 3]], F(1, 4))
        for c in g.menu():
            assert c.v == -c.u


# Each class's text for one contract, as the menus spelled it before
# descriptions were built on demand.
IDENTITY = [(0, 0), (1, 1)]


def zero_sum_game():
    return ZeroSumGame([[2, 0], [1, 3]], F(1, 2))


def repeated_game():
    return RepeatedGame(PD_U, PD_V, F(1, 2))


DESCRIPTIONS = [
    ("bimatrix", lambda: BimatrixGame([[2, 0], [3, 1]], [[1, 0], [0, 2]]), 2, "cell(1,0)"),
    ("potential", lambda: PotentialGame(PD_U, PD_V, [[0, 2], [2, 3]]), 3, "cell(1,1)"),
    ("zero_sum", zero_sum_game, 1, "between pure levels 0 and 1"),
    ("zero_sum_entry", zero_sum_game, 4, "between pure levels 2 and 2"),
    (
        "strictly_competitive",
        lambda: StrictlyCompetitiveGame(
            [[1, -1], [-1, 1]],
            F(1, 2),
            PiecewiseLinear([(-2, -2), (2, 2)]),
            PiecewiseLinear([(-2, -4), (2, 4)]),
        ),
        2,
        "between pure levels -1 and 1",
    ),
    (
        "transfer",
        lambda: TransferGame(0, 4, F(1, 3), PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY)),
        4,
        "transfer 4/3",
    ),
    ("repeated", repeated_game, 0, "hull grid point"),
    # a synthesized contract: a hull point off the menu grid
    ("repeated_off_grid", repeated_game, (F(9, 4), F(9, 4)), "synthesized hull point"),
]


@pytest.mark.parametrize("make, pick, text", [pytest.param(*d[1:], id=d[0]) for d in DESCRIPTIONS])
def test_describe(make, pick, text):
    g = make()
    c = g.synthesize_contract(pick) if isinstance(pick, tuple) else g.menu()[pick]
    assert g.describe(c) == text


# One menu of every class, built afresh on each call.
MENUS = [
    pytest.param(lambda: BimatrixGame([[2, 0], [3, 1]], [[1, 0], [0, 2]]), id="bimatrix"),
    pytest.param(lambda: PotentialGame(PD_U, PD_V, [[0, 2], [2, 3]]), id="potential"),
    pytest.param(lambda: ZeroSumGame([[F(1, 3), 0], [1, 3]], F(1, 2)), id="zero_sum"),
    pytest.param(
        lambda: StrictlyCompetitiveGame(
            [[2, 0], [1, 3]],
            F(1, 2),
            PiecewiseLinear([(0, 0), (1, 3), (3, 4)]),
            PiecewiseLinear([(-3, -1), (-1, 0), (0, 2)]),
        ),
        id="strictly_competitive",
    ),
    pytest.param(
        lambda: TransferGame(
            0, 4, F(1, 3), PiecewiseLinear([(0, F(1, 7)), (1, 2)]), PiecewiseLinear(IDENTITY)
        ),
        id="transfer",
    ),
    pytest.param(lambda: RepeatedGame(PD_U, [[3, 4], [F(-1, 2), 1]], F(1, 2)), id="repeated"),
]

# The frozen dataclass Contract was before payoffs were made on first read.
DATACLASS_CONTRACT = dataclasses.make_dataclass(
    "Contract", ["id", "strategy_a", "strategy_b", "u", "v"], frozen=True
)


def fields(c):
    return (c.id, c.strategy_a, c.strategy_b, c.u, c.v)


@pytest.mark.parametrize("make", MENUS)
class TestContract:
    def test_the_menu_indexes_as_a_tuple(self, make):
        menu = make().menu()
        n = len(menu)
        assert n >= 4
        assert menu[-1] is menu[n - 1] and menu[-n] is menu[0]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                menu[k]
        assert all(type(menu[k]) is Contract and menu[k].id == k for k in range(n))

    def test_a_slice_is_a_tuple_of_the_menus_own_contracts(self, make):
        menu = make().menu()
        for part, ids in ((menu[1::2], range(1, len(menu), 2)), (menu[-2:], range(len(menu) - 2, len(menu)))):
            assert type(part) is tuple and len(part) == len(ids)
            assert all(c is menu[k] for c, k in zip(part, ids))
        assert menu[3:1] == ()

    def test_iteration_runs_in_id_order(self, make):
        menu = make().menu()
        second = menu[1]
        got = list(menu)
        assert [c.id for c in got] == list(range(len(menu)))
        assert got[1] is second and all(type(c) is Contract and c is menu[c.id] for c in got)

    def test_menus_of_equal_games_are_equal(self, make):
        menu, twin = make().menu(), make().menu()
        assert menu == twin and hash(menu) == hash(twin)
        assert menu != BimatrixGame([[9]], [[9]]).menu() and menu != tuple(menu)

    def test_reading_contract_k_makes_only_k(self, make):
        n = len(make().menu())
        for k in range(n):
            menu = make().menu()
            assert unmade(menu) == list(range(n))
            c = menu[k]
            assert menu[k] is c and menu[k - n] is c
            assert unmade(menu) == [j for j in range(n) if j != k]

    def test_equal_copies_are_on_the_menu(self, make):
        g = make()
        for c in g.menu():
            copy = Contract(*fields(c))
            assert copy is not c
            assert g._in_menu(copy) and g._in_menu(c)
            g.validate_contract(copy)
            assert g.payoff(copy) == (c.u, c.v)

    def test_the_menu_is_checked_by_identity_first(self, make, monkeypatch):
        g = make()

        def refuse(self, other):
            raise AssertionError("compared by value")

        monkeypatch.setattr(Contract, "__eq__", refuse)
        for c in g.menu():
            assert g._in_menu(c)
            g.validate_contract(c)
        with pytest.raises(AssertionError, match="compared by value"):
            g._in_menu(Contract(0, 0, 0, F(0), F(0)))

    def test_value_equality_and_hash_before_and_after_reads(self, make):
        want = [Contract(*fields(c)) for c in make().menu()]
        unread, unhashed = make().menu(), make().menu()
        for c, w, h in zip(unread, want, unhashed):
            assert c == w and w == c  # the first comparison reads c's payoffs
            assert hash(h) == hash(w)  # so does the first hash
        for c, w, h in zip(unread, want, unhashed):
            assert c == w and hash(c) == hash(h) == hash(w)
            assert c != Contract(w.id, w.strategy_a, w.strategy_b, w.u, w.v + 1)
            assert c != fields(w)

    def test_descriptors_read_first(self, make):
        want = [fields(c) for c in make().menu()]
        for k, name in ((1, "strategy_a"), (2, "strategy_b")):
            for c, w in zip(make().menu(), want):
                assert getattr(c, name) == w[k]  # the first read of this contract
                assert type(c) is Contract
                assert fields(c) == w

    def test_repr_is_the_dataclass_repr(self, make):
        for c in make().menu():  # unread payoffs
            assert repr(c) == repr(DATACLASS_CONTRACT(*fields(c)))

    def test_copies_and_pickles_are_equal_contracts(self, make):
        for c in make().menu():  # unread payoffs
            for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
                assert type(twin) is Contract
                assert twin == c and twin is not c

    def test_payoffs_read_twice_are_equal_fractions(self, make):
        for c in make().menu():
            u, v = c.u, c.v
            assert type(u) is type(v) is Fraction
            assert (c.u, c.v) == (u, v)
            assert c.u is u and c.v is v  # later reads are the stored objects
            assert type(c) is Contract


class TestInstance:
    def test_duplicate_names_rejected(self):
        g = BimatrixGame([[1]], [[1]])
        with pytest.raises(GameError):
            build_instance(["a", "a"], ["b"], [0, 0], [0], {(0, 0): g, (1, 0): g})

    def test_missing_game_rejected(self):
        g = BimatrixGame([[1]], [[1]])
        with pytest.raises(GameError):
            build_instance(["a"], ["b", "c"], [0], [0, 0], {(0, 0): g})

    def test_degenerate_1x1_allowed(self):
        inst = build_instance(["a"], ["b"], [0], [0], {(0, 0): BimatrixGame([[1]], [[2]])})
        assert inst.game(0, 0).menu()[0].u == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9).map(Fraction), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_zero_sum_value_bounds_property(g):
    v = zero_sum_value(g)
    flat = [x for row in g for x in row]
    assert min(flat) <= v <= max(flat)
    assert v == support_value(g)


# Reference implementations for the exact kernels: the direct Fraction
# formulas, which the integer-coefficient versions must reproduce exactly.


@st.composite
def breakpoint_lists(draw):
    n = draw(st.integers(2, 6))
    axis = st.lists(
        st.fractions(-50, 50, max_denominator=1000), min_size=n, max_size=n, unique=True
    ).map(sorted)
    return list(zip(draw(axis), draw(axis)))


@settings(max_examples=100, deadline=None)
@given(breakpoint_lists(), st.lists(st.fractions(-200, 200, max_denominator=10**15), max_size=8))
def test_piecewise_linear_matches_reference(points, extra):
    pl = PiecewiseLinear(points)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    probes = xs + ys + [xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + F(1, 3)] + extra
    for x in probes:
        y = pl(x)
        assert type(y) is Fraction and y == reference_map(points, x, 0)
        assert pl.inverse(x) == reference_map(points, x, 1)
        assert pl.inverse(y) == x
    assert pl(int(xs[0]) - 7) == reference_map(points, F(int(xs[0]) - 7), 0)
    assert pl.inverse("-301/7") == reference_map(points, F(-301, 7), 1)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(-50, 50, max_denominator=500),
    st.fractions(0, 30, max_denominator=500),
    st.fractions(F(1, 50), 40, max_denominator=500),
)
@example(F(3, 2), F(0), F(1, 3))  # lo == hi
@example(F(-1, 3), F(2, 5), F(7, 4))  # step larger than the range
@example(F(0), F(10), F(1))  # hi on the grid
def test_grid_matches_reference(lo, span, step):
    runs = _grid_runs(lo.as_integer_ratio(), (lo + span).as_integer_ratio(), step)
    assert 1 <= len(runs) <= 2
    assert all(type(n) is type(s) is type(c) is type(d) is int for n, s, c, d in runs)
    assert all(s > 0 and c > 0 and d > 0 for _, s, c, d in runs)
    points = [Fraction(n + k * s, d) for n, s, c, d in runs for k in range(c)]
    assert points == reference_grid(lo, lo + span, step)


@st.composite
def potential_triples(draw, shape=st.tuples(st.integers(1, 4), st.integers(1, 4))):
    """(U, V, phi) of one shape (rows, cols), by default 1×1 to 4×4, with many ties and mixed denominators.

    Each matrix draws its entries from a pool of at most four values
    (negative ones and denominators up to 10^15 included).  Half the time
    U and V are increasing affine images of phi, column by column and row
    by row, so phi is a potential; half of those then get one entry
    redrawn, which often breaks it by a single order.
    """
    rows, cols = draw(shape)
    value = st.one_of(
        st.integers(-3, 3).map(F),
        st.builds(F, st.integers(-50, 50), st.integers(1, 10)),
        st.builds(F, st.integers(-(10**16), 10**16), st.integers(1, 10**15)),
    )

    def matrix():
        pool = draw(st.lists(value, min_size=1, max_size=4))
        cell = st.sampled_from(pool)
        return [[draw(cell) for _c in range(cols)] for _r in range(rows)]

    phi = matrix()
    if not draw(st.booleans()):
        return matrix(), matrix(), phi
    slope = st.builds(F, st.integers(1, 10**15), st.integers(1, 10**15))
    shift = st.builds(F, st.integers(-(10**15), 10**15), st.integers(1, 10**15))
    col_maps = [(draw(slope), draw(shift)) for _c in range(cols)]
    row_maps = [(draw(slope), draw(shift)) for _r in range(rows)]
    U = [[col_maps[c][0] * phi[r][c] + col_maps[c][1] for c in range(cols)] for r in range(rows)]
    V = [[row_maps[r][0] * phi[r][c] + row_maps[r][1] for c in range(cols)] for r in range(rows)]
    if draw(st.booleans()):
        target = draw(st.sampled_from([U, V, phi]))
        target[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(value)
    return U, V, phi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(potential_triples())
@example(([[1, 2], [3, 4]], [[1, 2], [3, 4]], [[F(1, 3), F(1, 2)], [F(2, 3), 1]]))
@example(([[1, 2], [3, 4]], [[1, 2], [3, 4]], [[F(1, 2), F(1, 3)], [F(2, 3), 1]]))
def test_potential_matches_reference(triple):
    U, V, phi = triple
    verdict = reference_is_potential(U, V, phi)
    assert validate_potential(U, V, phi) is verdict
    if verdict:
        assert PotentialGame(U, V, phi).phi == phi
    else:
        with pytest.raises(GameError, match="not an ordinal potential"):
            PotentialGame(U, V, phi)


# Shapes with a row or a column longer than games._PAIRWISE_LINE cells,
# whose lines the potential check compares through their sorted order.
LONG_LINES = st.tuples(st.integers(1, 8), st.integers(5, 8)).flatmap(lambda s: st.sampled_from([s, s[::-1]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(potential_triples(LONG_LINES))
def test_potential_on_long_lines_matches_reference(triple):
    U, V, phi = triple
    assert validate_potential(U, V, phi) is reference_is_potential(U, V, phi)


def test_a_large_potential_game_builds_in_time():
    """A 300×300 potential game builds in a fraction of a second.

    Comparing every pair of cells in each of its 600 lines would take
    several seconds; its lines go through their sorted order instead.
    """
    m = [[r + c for c in range(300)] for r in range(300)]
    start = time.perf_counter()
    game = PotentialGame(m, m, m)
    assert time.perf_counter() - start < 2
    assert (game.rows, game.cols) == (300, 300)


def written(draw, x: Fraction):
    """x as a matrix entry: the Fraction itself, a "p/q" string, or an int when integral."""
    forms = [x, f"{x.numerator}/{x.denominator}"] + ([int(x)] if x.denominator == 1 else [])
    return draw(st.sampled_from(forms))


@st.composite
def matrix_games(draw):
    """A bimatrix or potential game up to 3×3 and the matrices it was given.

    Entries are ints, "p/q" strings and Fractions mixed.  A potential game
    has U = phi + a(col) and V = phi + b(row), so phi is a potential.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = st.fractions(-20, 20, max_denominator=12)

    def matrix(entry):
        return [[written(draw, entry(r, c)) for c in range(cols)] for r in range(rows)]

    if draw(st.booleans()):
        U, V = matrix(lambda r, c: draw(value)), matrix(lambda r, c: draw(value))
        return BimatrixGame(U, V), (U, V, None)
    phi = [[draw(value) for _c in range(cols)] for _r in range(rows)]
    a, b = [draw(value) for _c in range(cols)], [draw(value) for _r in range(rows)]
    U, V = matrix(lambda r, c: phi[r][c] + a[c]), matrix(lambda r, c: phi[r][c] + b[r])
    Phi = matrix(lambda r, c: phi[r][c])
    return PotentialGame(U, V, Phi), (U, V, Phi)


def one_couple(game_payload):
    return {"men": ["m"], "women": ["w"], "irp": {"men": [0], "women": [0]}, "games": {"m": {"w": game_payload}}}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_games())
def test_matrix_menus_match_the_fraction_reference(drawn):
    g, (U, V, phi) = drawn
    rows, cols = len(U), len(U[0])
    as_fractions = [[[F(x) for x in row] for row in m] for m in (U, V, phi) if m is not None]
    assert [g.U, g.V] + ([g.phi] if phi is not None else []) == as_fractions
    assert all(type(x) is Fraction for m in (g.U, g.V) for row in m for x in row)
    want = [Contract(r * cols + c, r, c, F(U[r][c]), F(V[r][c])) for r in range(rows) for c in range(cols)]
    menu = g.menu()
    assert [fields(c) for c in menu] == [fields(w) for w in want]
    assert all(type(c.u) is type(c.v) is Fraction and type(c.strategy_a) is type(c.strategy_b) is int for c in menu)
    for c in menu:
        r, col = c.strategy_a, c.strategy_b
        man = tuple(menu[r2 * cols + col] for r2 in range(rows) if F(U[r2][col]) > F(U[r][col]))
        woman = tuple(menu[r * cols + c2] for c2 in range(cols) if F(V[r][c2]) > F(V[r][col]))
        assert g.improving_deviations(c, Side.MAN) == man
        assert g.improving_deviations(c, Side.WOMAN) == woman
        assert g.is_nash_contract(c) is (not man and not woman)
        assert g.payoff(c) == (F(U[r][col]), F(V[r][col]))
        if phi is not None:
            assert g.potential_of(c) == F(phi[r][col])
    payload = dump_game(g)
    back = parse_instance(one_couple(payload), eps=1)[0].game(0, 0)
    assert dump_game(back) == payload
    assert [fields(c) for c in back.menu()] == [fields(w) for w in want]


class TestMenuCap:
    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(games, "MAX_MENU", 9)
        assert len(ZeroSumGame([[0, 8]], 1).menu()) == 9
        with pytest.raises(GameError, match="menu of 10 contracts"):
            ZeroSumGame([[0, 9]], 1)

    def test_transfer_grid_capped(self):
        with pytest.raises(GameError, match="menu of 1000001 contracts"):
            TransferGame(0, 10, F(1, 100000), PiecewiseLinear(IDENTITY), PiecewiseLinear(IDENTITY))

    def test_repeated_total_capped(self):
        # 801 u-columns over the prisoners' dilemma hull, most holding hundreds of v points
        with pytest.raises(GameError, match=r"menu of \d+ contracts exceeds the limit of 100000"):
            RepeatedGame(PD_U, PD_V, F(1, 200))
