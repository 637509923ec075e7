"""Join/meet of stable profiles and the genericity condition."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    Contract,
    MatchingError,
    Side,
    build_instance,
    enumerate_profiles,
    enumerate_stable,
    extremal_profile,
    find_blocking_pair,
    from_ordinal,
    genericity_holds,
    join,
    man_payoff,
    meet_competitive,
    woman_payoff,
)
from matchgames import MatchingProfile, ZeroSumGame

from helpers import random_bimatrix_instance
from test_market import markets

F = Fraction

CLASSIC_MEN = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
CLASSIC_WOMEN = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}


def ordinal_profiles():
    inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
    men_opt = MatchingProfile(
        (0, 1), {(0, 0): inst.game(0, 0).menu()[0], (1, 1): inst.game(1, 1).menu()[0]}
    )
    women_opt = MatchingProfile(
        (1, 0), {(0, 1): inst.game(0, 1).menu()[0], (1, 0): inst.game(1, 0).menu()[0]}
    )
    return inst, men_opt, women_opt


def common_interest_pair():
    """Two stable profiles differing only in which couple gets the high cell."""
    diag = BimatrixGame([[4, 0], [0, 2]], [[4, 0], [0, 2]])
    inst = build_instance(
        ["m0", "m1"], ["w0", "w1"], [0, 0], [0, 0],
        {
            (0, 0): diag,
            (1, 1): diag,
            (0, 1): BimatrixGame([[3]], [[3]]),
            (1, 0): BimatrixGame([[1]], [[1]]),
        },
    )
    high = next(c for c in diag.menu() if c.u == 4)
    low = next(c for c in diag.menu() if c.u == 2)
    p1 = MatchingProfile((0, 1), {(0, 0): high, (1, 1): low})
    p2 = MatchingProfile((0, 1), {(0, 0): low, (1, 1): high})
    return inst, p1, p2


class TestGenericity:
    def test_identical_profiles(self):
        inst, men_opt, _ = ordinal_profiles()
        assert genericity_holds(inst, men_opt, men_opt)

    def test_equal_payoff_different_partner(self):
        g = BimatrixGame([[2]], [[2]])
        inst = build_instance(
            ["m"], ["w0", "w1"], [0], [0, 0], {(0, 0): g, (0, 1): BimatrixGame([[2]], [[3]])}
        )
        p1 = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        p2 = MatchingProfile((1,), {(0, 1): inst.game(0, 1).menu()[0]})
        assert not genericity_holds(inst, p1, p2)

    def test_margin_widens_the_tie(self):
        g = BimatrixGame([[2]], [[2]])
        inst = build_instance(
            ["m"], ["w0", "w1"], [0], [0, 0], {(0, 0): g, (0, 1): BimatrixGame([[3]], [[3]])}
        )
        p1 = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        p2 = MatchingProfile((1,), {(0, 1): inst.game(0, 1).menu()[0]})
        assert genericity_holds(inst, p1, p2, eps=F(1, 2))
        assert not genericity_holds(inst, p1, p2, eps=1)

    def test_negative_margin_refused(self):
        inst, men_opt, women_opt = ordinal_profiles()
        assert not genericity_holds(inst, men_opt, women_opt, eps=1)
        for eps in (-1, -100, F(-1, 2), "-1/3"):
            with pytest.raises(ValueError, match="^eps must be nonnegative$"):
                genericity_holds(inst, men_opt, women_opt, eps=eps)

    def test_ordinal_optima_generic(self):
        inst, men_opt, women_opt = ordinal_profiles()
        assert genericity_holds(inst, men_opt, women_opt)


class TestJoin:
    def test_idempotent(self):
        inst, men_opt, _ = ordinal_profiles()
        out = join(inst, men_opt, men_opt)
        assert out.matches == men_opt.matches
        assert out.chosen == men_opt.chosen

    def test_ordinal_join_is_men_optimal(self):
        inst, men_opt, women_opt = ordinal_profiles()
        out = join(inst, men_opt, women_opt, Side.MAN)
        assert out.matches == men_opt.matches
        out_w = join(inst, men_opt, women_opt, Side.WOMAN)
        assert out_w.matches == women_opt.matches

    def test_common_interest_sides_agree(self):
        inst, p1, p2 = common_interest_pair()
        a = join(inst, p1, p2, Side.MAN)
        b = join(inst, p1, p2, Side.WOMAN)
        assert a.matches == b.matches
        assert a.chosen == b.chosen
        assert all(c.u == 4 for c in a.chosen.values())

    def test_unstable_input_rejected(self):
        inst, men_opt, _ = ordinal_profiles()
        empty = MatchingProfile((None, None), {})
        with pytest.raises(MatchingError):
            join(inst, men_opt, empty)

    def test_nongeneric_input_rejected(self):
        g = BimatrixGame([[2]], [[2]])
        inst = build_instance(
            ["m"], ["w0", "w1"], [0], [0, 0], {(0, 0): g, (0, 1): g}
        )
        p1 = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        p2 = MatchingProfile((1,), {(0, 1): inst.game(0, 1).menu()[0]})
        with pytest.raises(MatchingError):
            join(inst, p1, p2)

    def test_oracle_pairs_join_stably(self):
        rng = random.Random(97)
        joined = 0
        for _ in range(8):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            stable = list(enumerate_stable(inst, 0, "external"))
            for a in stable:
                for b in stable:
                    if not genericity_holds(inst, a, b):
                        continue
                    for side in (Side.MAN, Side.WOMAN):
                        out = join(inst, a, b, side)
                        assert find_blocking_pair(inst, out, 0) is None
                        joined += 1
        assert joined > 20

    def test_commutative_up_to_payoffs(self):
        rng = random.Random(101)
        compared = 0
        for _ in range(20):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            stable = list(enumerate_stable(inst, 0, "external"))
            for x in range(len(stable)):
                for y in range(x + 1, len(stable)):
                    a, b = stable[x], stable[y]
                    if not genericity_holds(inst, a, b):
                        continue
                    ab = join(inst, a, b)
                    ba = join(inst, b, a)
                    assert ab.matches == ba.matches
                    for i in range(inst.n_men):
                        assert man_payoff(inst, ab, i) == man_payoff(inst, ba, i)
                    for j in range(inst.n_women):
                        assert woman_payoff(inst, ab, j) == woman_payoff(inst, ba, j)
                    compared += 1
        assert compared > 4

    def test_associative_up_to_payoffs(self):
        rng = random.Random(103)
        compared = 0
        for _ in range(10):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            stable = list(enumerate_stable(inst, 0, "external"))[:6]
            for a in stable:
                for b in stable:
                    for c in stable:
                        try:
                            left = join(inst, join(inst, a, b), c)
                            right = join(inst, a, join(inst, b, c))
                        except MatchingError:
                            continue
                        assert left.matches == right.matches
                        for i in range(inst.n_men):
                            assert man_payoff(inst, left, i) == man_payoff(inst, right, i)
                        compared += 1
        assert compared > 4


class TestMeet:
    def zero_sum_instance(self):
        return build_instance(
            ["m0", "m1"], ["w0", "w1"], [-5, -5], [-5, -5],
            {
                (0, 0): ZeroSumGame([[2, 0], [1, 3]], F(1, 4)),
                (0, 1): ZeroSumGame([[1, -1], [-1, 1]], F(1, 4)),
                (1, 0): ZeroSumGame([[-2, 1], [1, 0]], F(1, 4)),
                (1, 1): ZeroSumGame([[4, 0], [0, 2]], F(1, 4)),
            },
        )

    def test_idempotent(self):
        inst = self.zero_sum_instance()
        stable = list(enumerate_stable(inst, 0, "external"))
        assert stable
        p = stable[0]
        out = meet_competitive(inst, p, p)
        assert out.matches == p.matches and out.chosen == p.chosen

    def test_duality_on_oracle_pairs(self):
        # men-meet computed two ways: the agent-wise worst for men, and
        # the women-side join; on competitive games they coincide
        inst = self.zero_sum_instance()
        stable = list(enumerate_stable(inst, 0, "external"))
        checked = 0
        for a in stable:
            for b in stable:
                if not genericity_holds(inst, a, b):
                    continue
                meet = meet_competitive(inst, a, b)
                raw = extremal_profile(inst, a, b, Side.MAN, best=False)
                assert meet.matches == raw.matches
                assert meet.chosen == raw.chosen
                assert find_blocking_pair(inst, meet, 0) is None
                checked += 1
        assert checked > 0

    def test_mixed_class_rejected(self):
        inst, p1, p2 = common_interest_pair()
        with pytest.raises(MatchingError):
            meet_competitive(inst, p1, p2)

    def test_raw_meet_can_break_stability_on_common_interest(self):
        # the meet construction is only a lattice operation for
        # competitive classes; here the agent-wise worst leaves both
        # couples poor enough that the cross pair blocks
        inst, p1, p2 = common_interest_pair()
        assert find_blocking_pair(inst, p1, 0) is None
        assert find_blocking_pair(inst, p2, 0) is None
        raw = extremal_profile(inst, p1, p2, Side.MAN, best=False)
        bp = find_blocking_pair(inst, raw, 0)
        assert bp is not None
        assert (bp.man, bp.woman) == (0, 1)


def fraction_genericity(inst, p1, p2, eps):
    """genericity_holds as defined, on the exact payoffs."""
    men = all(
        p1.matches[i] == p2.matches[i]
        or abs(man_payoff(inst, p1, i) - man_payoff(inst, p2, i)) > eps
        for i in range(inst.n_men)
    )
    return men and all(
        p1.partner_of_woman(j) == p2.partner_of_woman(j)
        or abs(woman_payoff(inst, p1, j) - woman_payoff(inst, p2, j)) > eps
        for j in range(inst.n_women)
    )


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(markets(), st.sampled_from([F(0), F(1, 2), F(1), F(3, 7), F(-1)]))
def test_genericity_on_scaled_payoffs_matches_the_exact_definition(inst, eps):
    # The second profile of each pair holds equal copies, read as exact Fractions.
    profiles = list(enumerate_profiles(inst))[:12]
    copies = [
        MatchingProfile(
            p.matches, {k: Contract(c.id, c.strategy_a, c.strategy_b, c.u, c.v) for k, c in p.chosen.items()}
        )
        for p in profiles
    ]
    for a in profiles:
        for b in copies:
            if eps < 0:  # a negative margin is refused, as every other margin check refuses it
                with pytest.raises(ValueError, match="^eps must be nonnegative$"):
                    genericity_holds(inst, a, b, eps)
            else:
                assert genericity_holds(inst, a, b, eps) == fraction_genericity(inst, a, b, eps)
