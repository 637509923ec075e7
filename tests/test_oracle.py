"""Brute-force enumeration oracle: counts, caps, stability classification."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matchgames.oracle
import matchgames.stability
from matchgames import (
    NEG_INF,
    BimatrixGame,
    MatchingError,
    MatchingProfile,
    OracleCapError,
    OutsideOptions,
    ZeroSumGame,
    brute_force_cne,
    build_instance,
    count_profiles,
    dump_instance,
    enumerate_matchings,
    enumerate_profiles,
    enumerate_stable,
    from_ordinal,
    from_shapley_shubik,
    is_externally_stable,
    is_internally_stable,
    is_nash_stable,
    is_stable_variant,
    pareto_frontier,
)
from matchgames.cli import main

from helpers import random_bimatrix_instance, reference_enumerate_stable, reference_profiles
from test_market import markets

F = Fraction

PD_U = [[3, 0], [4, 1]]
PD_V = [[3, 4], [0, 1]]

SOLAN_U = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
SOLAN_V = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]

CLASSIC_MEN = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
CLASSIC_WOMEN = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}


def partial_injection_count(n, m):
    return sum(
        math.comb(n, k) * math.comb(m, k) * math.factorial(k)
        for k in range(min(n, m) + 1)
    )


def reference_matchings(n, m, taken=()):
    """The documented order, recursively: man 0 single first, then the free
    women in ascending order, the later men varying fastest."""
    if n == 0:
        yield ()
        return
    for j in [None] + [w for w in range(m) if w not in taken]:
        for rest in reference_matchings(n - 1, m, taken if j is None else taken + (j,)):
            yield (j,) + rest


class TestEnumerateMatchings:
    def test_order_matches_reference(self):
        for n in range(5):
            for m in range(5):
                assert list(enumerate_matchings(n, m)) == list(reference_matchings(n, m))

    @pytest.mark.parametrize("n, m", [(7, 1), (1, 7), (6, 2), (2, 6), (5, 3), (7, 0), (0, 7)])
    def test_tall_and_wide_markets_match_reference(self, n, m):
        # once every woman is taken, the remaining men come as one all-single tail
        assert list(enumerate_matchings(n, m)) == list(reference_matchings(n, m))

    def test_deep_market(self):
        got = list(enumerate_matchings(1500, 1))
        assert got[0] == (None,) * 1500
        # the woman goes to the last man first, then to each earlier one
        assert [m.index(0) if 0 in m else None for m in got] == [None] + list(range(1499, -1, -1))

    def test_counts(self):
        for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 1)]:
            got = list(enumerate_matchings(n, m))
            assert len(got) == partial_injection_count(n, m)
            assert len(set(got)) == len(got)

    def test_includes_all_singles_first(self):
        got = list(enumerate_matchings(2, 2))
        assert got[0] == (None, None)

    def test_entries_are_partial_injections(self):
        for matching in enumerate_matchings(3, 3):
            taken = [j for j in matching if j is not None]
            assert len(set(taken)) == len(taken)


class TestCountAndCap:
    def one_couple(self):
        return build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])}
        )

    def test_count_minimal(self):
        assert count_profiles(self.one_couple()) == 2

    def test_count_matches_enumeration(self):
        rng = random.Random(131)
        for _ in range(8):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            assert count_profiles(inst) == sum(1 for _ in enumerate_profiles(inst))

    @pytest.mark.parametrize(
        "n_men,n_women,menu",
        [(0, 3, 2), (3, 0, 2), (1, 1, 1), (3, 5, 2), (5, 3, 3), (7, 7, 1), (12, 4, 3), (2, 12, 1), (12, 12, 2)],
    )
    def test_uniform_menus_closed_form(self, n_men, n_women, menu):
        game = BimatrixGame([[0] * menu], [[0] * menu])
        inst = build_instance(
            [f"m{i}" for i in range(n_men)],
            [f"w{j}" for j in range(n_women)],
            [0] * n_men,
            [0] * n_women,
            {(i, j): game for i in range(n_men) for j in range(n_women)},
        )
        expected = sum(
            math.comb(n_men, k) * math.comb(n_women, k) * math.factorial(k) * menu**k
            for k in range(min(n_men, n_women) + 1)
        )
        assert count_profiles(inst) == expected

    def test_cap_exceeded_reports_exact_size(self):
        rng = random.Random(137)
        inst = random_bimatrix_instance(rng, max_agents=3, max_cells=9)
        total = count_profiles(inst)
        with pytest.raises(OracleCapError, match=str(total)):
            list(enumerate_profiles(inst, cap=1))

    def test_cap_passthrough_in_enumerate_stable(self):
        rng = random.Random(139)
        inst = random_bimatrix_instance(rng, max_agents=3, max_cells=9)
        with pytest.raises(OracleCapError):
            list(enumerate_stable(inst, 0, "external", cap=1))

    def test_large_market_refused_before_the_count_table(self, tmp_path, capsys):
        # the 20x20 market's partial matchings alone pass the cap, so the
        # 2**20-entry table of count_profiles is never built
        agents = range(20)
        inst = from_ordinal(
            {f"m{i}": [f"w{j}" for j in agents] for i in agents},
            {f"w{j}": [f"m{i}" for i in agents] for j in agents},
        )
        least = partial_injection_count(20, 20)
        start = time.perf_counter()
        with pytest.raises(OracleCapError) as info:
            list(enumerate_stable(inst, 0))
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"candidate space has at least {least} profiles, exceeding cap 10000000"
        path = tmp_path / "market.json"
        path.write_text(json.dumps(dump_instance(inst)))
        assert main(["enumerate", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"


class TestEnumerateStable:
    def test_minimal_instance(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])}
        )
        stable = list(enumerate_stable(inst, 0, "external"))
        assert len(stable) == 1
        assert stable[0].matches == (0,)

    def test_classic_ordinal_two_matchings(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        stable = list(enumerate_stable(inst, 0, "external"))
        assert sorted(p.matches for p in stable) == [(0, 1), (1, 0)]

    def test_price_interval(self):
        inst = from_shapley_shubik({"s": 2}, {"s": {"b": 6}}, (0, 10, 1))
        stable = list(enumerate_stable(inst, 0, "external"))
        prices = sorted(c.strategy_a for p in stable for c in p.chosen.values())
        assert prices == [2, 3, 4, 5, 6]

    def test_deterministic_order(self):
        rng = random.Random(149)
        inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
        a = [(p.matches, sorted((k, c.id) for k, c in p.chosen.items()))
             for p in enumerate_stable(inst, F(1, 2), "external")]
        b = [(p.matches, sorted((k, c.id) for k, c in p.chosen.items()))
             for p in enumerate_stable(inst, F(1, 2), "external")]
        assert a == b

    def test_notions_agree_with_checkers(self):
        rng = random.Random(151)
        inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
        eps = F(1, 2)
        everything = list(enumerate_profiles(inst))

        def keys(profiles):
            return [
                (p.matches, tuple(sorted((k, c.id) for k, c in p.chosen.items())))
                for p in profiles
            ]

        assert keys(enumerate_stable(inst, eps, "external")) == keys(
            p for p in everything if is_externally_stable(inst, p, eps).holds
        )
        assert keys(enumerate_stable(inst, eps, "nash")) == keys(
            p for p in everything if is_nash_stable(inst, p).holds
        )
        assert keys(enumerate_stable(inst, eps, "weak")) == keys(
            p for p in everything if is_stable_variant(inst, p, "weak").holds
        )
        assert keys(enumerate_stable(inst, eps, "unilateral")) == keys(
            p for p in everything if is_stable_variant(inst, p, "unilateral").holds
        )
        assert keys(enumerate_stable(inst, eps, "internal")) == keys(
            p
            for p in everything
            if is_externally_stable(inst, p, eps).holds
            and is_internally_stable(inst, p, eps).holds
        )

    def test_unknown_notion_rejected(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        with pytest.raises(ValueError):
            list(enumerate_stable(inst, 0, "strong"))

    @pytest.mark.parametrize("eps", [0, 1, "1/2", F(1, 2)])
    def test_the_margin_is_read_once(self, eps, monkeypatch):
        inst = random_bimatrix_instance(random.Random(157), max_agents=2, max_cells=4)
        margins = []
        original = matchgames.oracle.is_externally_stable

        def spied(inst, profile, eps):
            margins.append(eps)
            return original(inst, profile, eps)

        monkeypatch.setattr(matchgames.oracle, "is_externally_stable", spied)
        for notion in ("external", "internal"):
            del margins[:]
            assert list(enumerate_stable(inst, eps, notion)) == list(reference_enumerate_stable(inst, eps, notion))
            assert margins and type(margins[0]) is Fraction and margins[0] == F(eps)
            assert all(m is margins[0] for m in margins)

    def test_the_notions_without_a_margin_ignore_eps(self):
        inst = random_bimatrix_instance(random.Random(157), max_agents=2, max_cells=4)
        for notion in ("nash", "weak", "unilateral"):
            assert list(enumerate_stable(inst, "not a margin", notion)) == list(enumerate_stable(inst, 0, notion))

    def test_a_negative_margin_is_refused_at_the_first_profile(self):
        inst = random_bimatrix_instance(random.Random(157), max_agents=2, max_cells=4)
        for notion in ("external", "internal"):
            profiles = enumerate_stable(inst, -1, notion)
            with pytest.raises(ValueError) as info:
                next(profiles)
            assert str(info.value) == "eps must be nonnegative"


MARKETS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def hash_or_error(profile):
    """A profile's hash, or the error hashing it raises (``chosen`` is a dict)."""
    try:
        return hash(profile)
    except TypeError as exc:
        return str(exc)


@MARKETS
@given(markets())
def test_enumerated_profiles_equal_checked_ones(inst):
    # Profiles after the first of each matching share its partner map, unchecked.
    enumerated = list(enumerate_profiles(inst))
    assert len(enumerated) == count_profiles(inst)
    for profile, reference in zip(enumerated, reference_profiles(inst)):
        rebuilt = MatchingProfile(profile.matches, dict(profile.chosen))
        for checked in (rebuilt, reference):
            assert profile == checked and checked == profile
            assert hash_or_error(profile) == hash_or_error(checked)
            assert profile.matched_pairs() == checked.matched_pairs()
            for j in range(inst.n_women + 1):
                assert profile.partner_of_woman(j) == checked.partner_of_woman(j)
        for i, j in profile.matched_pairs():
            held, last = profile.chosen[(i, j)], inst.game(i, j).menu()[-1]
            changed = profile.with_contract(i, j, last)
            assert changed == MatchingProfile(profile.matches, {**profile.chosen, (i, j): last})
            assert changed.chosen[(i, j)] is last and profile.chosen[(i, j)] is held
            assert [changed.partner_of_woman(w) for w in range(inst.n_women)] == [
                profile.partner_of_woman(w) for w in range(inst.n_women)
            ]
        for i, j in enumerate(profile.matches):
            if j is None and inst.n_women:
                with pytest.raises(MatchingError, match="is not matched"):
                    profile.with_contract(i, 0, inst.game(i, 0).menu()[0])


@MARKETS
@given(markets(), st.sampled_from([F(0), F(1, 2), F(1)]))
def test_the_oracle_makes_one_blocking_check_per_check_of_the_reference_loop(inst, eps):
    calls = []
    original = matchgames.stability.find_blocking_pair

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    # bench/digests.json stores the blocking checks each oracle-crosscheck
    # market makes (stability.blocking_calls), so a change to the oracle's
    # call structure must re-record those digests.
    hint = "the oracle's blocking checks changed; re-record stability.blocking_calls in bench/digests.json"
    matchgames.stability.find_blocking_pair = counted
    try:
        for notion in ("external", "internal"):
            del calls[:]
            got = list(enumerate_stable(inst, eps, notion))
            made = len(calls)
            del calls[:]
            want = list(reference_enumerate_stable(inst, eps, notion))
            assert got == want
            assert made == len(calls), hint
            if notion == "external":
                assert made == count_profiles(inst), hint
    finally:
        matchgames.stability.find_blocking_pair = original


class TestParetoFrontier:
    def test_prisoners_dilemma(self):
        g = BimatrixGame(PD_U, PD_V)
        assert {(c.u, c.v) for c in pareto_frontier(g)} == {
            (F(3), F(3)),
            (F(0), F(4)),
            (F(4), F(0)),
        }

    def test_common_interest_peak(self):
        g = BimatrixGame([[2, 0], [0, 1]], [[2, 0], [0, 1]])
        front = pareto_frontier(g)
        assert [(c.u, c.v) for c in front] == [(F(2), F(2))]

    def test_zero_sum_full_menu(self):
        g = ZeroSumGame([[1, -1], [-1, 1]], F(1, 2))
        assert pareto_frontier(g) == list(g.menu())

    def test_menu_order_preserved(self):
        g = BimatrixGame(PD_U, PD_V)
        ids = [c.id for c in pareto_frontier(g)]
        assert ids == sorted(ids)


class TestBruteForceCne:
    def test_solan_empty(self):
        g = BimatrixGame(SOLAN_U, SOLAN_V)
        assert brute_force_cne(g, OutsideOptions(F(0), F(0))) == []

    def test_pd_tight_options(self):
        g = BimatrixGame(PD_U, PD_V)
        found = brute_force_cne(g, OutsideOptions(F(3), F(3)))
        assert [(c.u, c.v) for c in found] == [(F(3), F(3))]

    def test_unconstrained_is_pure_nash(self):
        rng = random.Random(157)
        oo = OutsideOptions(NEG_INF, NEG_INF)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            U = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            V = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            g = BimatrixGame(U, V)
            assert brute_force_cne(g, oo) == [
                c for c in g.menu() if g.is_nash_contract(c)
            ]
