"""Adapters from classical market models, checked against native stability notions.

Each adapter gets a dual-route test: the instance it builds is solved or
enumerated with the library's own machinery, and the result is compared
against the source model's textbook answer computed directly from the
model data (preference lists, price windows, contract blocking).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from matchgames import (
    EMPTY_CONTRACT,
    GameError,
    MatchingProfile,
    Side,
    enumerate_stable,
    find_blocking_pair,
    from_gale_demange,
    from_hatfield_milgrom,
    from_ordinal,
    from_shapley_shubik,
    hm_stable_allocation,
    run_propose_dispose,
)

from helpers import gale_shapley, max_weight_assignment, random_ordinal_prefs, textbook_stable

F = Fraction

CLASSIC_MEN = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
CLASSIC_WOMEN = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}


def matched_names(inst, profile):
    """Profile -> {man name: woman name} for the matched couples."""
    return {
        inst.men[i]: inst.women[j]
        for i, j in enumerate(profile.matches)
        if j is not None
    }


def stable_matchings(inst, eps=0):
    """Set of stable matchings, each as a frozenset of (man, woman) names."""
    return {
        frozenset(matched_names(inst, p).items())
        for p in enumerate_stable(inst, eps, "external")
    }


class TestOrdinal:
    def test_payoff_encoding(self):
        prefs_men = {
            "m0": ["w1", "w0", "w2"],
            "m1": ["w0", "w1", "w2"],
            "m2": ["w2", "w0", "w1"],
        }
        prefs_women = {
            "w0": ["m0", "m1", "m2"],
            "w1": ["m2", "m1", "m0"],
            "w2": ["m1", "m0", "m2"],
        }
        inst = from_ordinal(prefs_men, prefs_women)
        assert inst.men == ("m0", "m1", "m2")
        assert inst.irp_men == (0, 0, 0) and inst.irp_women == (0, 0, 0)
        for i, m in enumerate(inst.men):
            for j, w in enumerate(inst.women):
                menu = inst.game(i, j).menu()
                # single-cell game: the couple has nothing to negotiate
                assert len(menu) == 1
                assert menu[0].u == 3 - prefs_men[m].index(w)
                assert menu[0].v == 3 - prefs_women[w].index(m)

    def test_classic_market_matches_textbook(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        expected = {
            frozenset(mu.items()) for mu in textbook_stable(CLASSIC_MEN, CLASSIC_WOMEN)
        }
        assert expected == {
            frozenset({("m0", "w0"), ("m1", "w1")}),
            frozenset({("m0", "w1"), ("m1", "w0")}),
        }
        assert stable_matchings(inst) == expected

    def test_random_markets_match_textbook(self):
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randint(2, 3)
            prefs_men, prefs_women = random_ordinal_prefs(rng, n)
            inst = from_ordinal(prefs_men, prefs_women)
            stable = list(enumerate_stable(inst, 0, "external"))
            # equal sides + complete lists: a single pair would block itself
            assert all(None not in p.matches for p in stable)
            expected = {
                frozenset(mu.items())
                for mu in textbook_stable(prefs_men, prefs_women)
            }
            assert stable_matchings(inst) == expected

    def test_single_couple(self):
        inst = from_ordinal({"m0": ["w0"]}, {"w0": ["m0"]})
        stable = list(enumerate_stable(inst, 0, "external"))
        assert len(stable) == 1 and stable[0].matches == (0,)

    def test_identical_men_preferences_unique_stable(self):
        # With a common men's list, women pick in that list's order:
        # the first woman takes her favourite man, the next takes her
        # favourite among the rest, and so on.  Unique stable matching.
        rng = random.Random(303)
        for _ in range(10):
            n = rng.randint(2, 4)
            women = [f"w{j}" for j in range(n)]
            men = [f"m{i}" for i in range(n)]
            common = women[:]
            rng.shuffle(common)
            prefs_men = {m: common[:] for m in men}
            prefs_women = {}
            for w in women:
                order = men[:]
                rng.shuffle(order)
                prefs_women[w] = order
            expected = {}
            taken = set()
            for w in common:
                pick = next(m for m in prefs_women[w] if m not in taken)
                taken.add(pick)
                expected[pick] = w
            inst = from_ordinal(prefs_men, prefs_women)
            assert stable_matchings(inst) == {frozenset(expected.items())}

    def test_propose_dispose_reproduces_gale_shapley(self):
        rng = random.Random(919)
        for _ in range(20):
            n = rng.randint(1, 4)
            prefs_men, prefs_women = random_ordinal_prefs(rng, n)
            inst = from_ordinal(prefs_men, prefs_women)
            profile, _ = run_propose_dispose(inst, 1)
            assert matched_names(inst, profile) == gale_shapley(prefs_men, prefs_women)

    def test_malformed_lists_rejected(self):
        with pytest.raises(GameError):
            from_ordinal({"m0": ["w0"]}, {"w0": ["m0"], "w1": ["m0"]})
        with pytest.raises(GameError):
            from_ordinal(
                {"m0": ["w0", "w0"], "m1": ["w0", "w1"]},
                {"w0": ["m0", "m1"], "w1": ["m0", "m1"]},
            )
        with pytest.raises(GameError):
            from_ordinal({}, {"w0": []})


class TestShapleyShubik:
    def test_no_trade_below_cost(self):
        inst = from_shapley_shubik({"s": 5}, {"s": {"b": 2}}, (0, 10, 1))
        stable = list(enumerate_stable(inst, 0, "external"))
        assert len(stable) == 1 and stable[0].matches == (None,)

    def test_price_window(self):
        # matched at price p is stable exactly when c <= p <= v
        inst = from_shapley_shubik({"s": 2}, {"s": {"b": 6}}, (0, 10, 1))
        menu = inst.game(0, 0).menu()
        for contract in menu:
            p = contract.strategy_a
            profile = MatchingProfile((0,), {(0, 0): contract})
            stable = find_blocking_pair(inst, profile, 0) is None
            assert stable == (2 <= p <= 6)

    def test_assortative_assignment(self):
        costs = {"s0": 0, "s1": 2}
        valuations = {"s0": {"b0": 10, "b1": 4}, "s1": {"b0": 7, "b1": 5}}
        inst = from_shapley_shubik(costs, valuations, (0, 10, 1))
        stable = list(enumerate_stable(inst, 0, "external"))
        assert stable
        # surplus 10 + 3 beats 4 + 5: only the assortative assignment survives
        assert all(p.matches == (0, 1) for p in stable)

    @staticmethod
    def surplus(profile):
        return sum(c.u + c.v for c in profile.chosen.values())

    @pytest.mark.parametrize("side", [Side.MAN, Side.WOMAN])
    def test_fine_grid_reaches_the_optimal_surplus(self, side):
        # Demange-Gale-Sotomayor: an auction with increment below 1/n ends at
        # an optimal assignment when values and costs are integers.  Price
        # step and margin 1/(n+1) must do the same, whichever side proposes,
        # and so must the same market written with the unit-slope
        # Gale-Demange maps f(t) = t - cost and h(s) = value + s.
        for n in range(2, 11):
            for seed in range(2):
                rng = random.Random(f"assignment:{n}:{seed}")
                costs = {f"s{i}": rng.randint(0, 5) for i in range(n)}
                values = {s: {f"b{j}": rng.randint(0, 12) for j in range(n)} for s in costs}
                weights = [[max(0, values[s][b] - costs[s]) for b in values[s]] for s in costs]
                optimum = max_weight_assignment(weights)
                f_maps = {s: {b: [(0, -costs[s]), (1, 1 - costs[s])] for b in values[s]} for s in costs}
                h_maps = {s: {b: [(0, h), (1, h + 1)] for b, h in values[s].items()} for s in costs}
                grid = (0, 12, F(1, n + 1))
                markets = {
                    "shapley_shubik": from_shapley_shubik(costs, values, grid),
                    "gale_demange": from_gale_demange(f_maps, h_maps, grid),
                }
                for name, inst in markets.items():
                    profile, _ = run_propose_dispose(inst, F(1, n + 1), side)
                    assert self.surplus(profile) == optimum, (name, n, seed)

    def test_coarse_grid_stable_but_not_efficient(self):
        # Documented example: on a price grid of step 1, exact stability does
        # not imply efficiency.  Assigning s0-b1 and s1-b0 yields 1 + 1, but
        # the solver's s0-b0 at price 2 (surplus 1) has no blocking pair:
        # s1-b0 and s0-b1 would each need a price strictly between 2 and 3.
        costs = {"s0": 2, "s1": 2}
        values = {"s0": {"b0": 3, "b1": 3}, "s1": {"b0": 3, "b1": 1}}
        inst = from_shapley_shubik(costs, values, (0, 12, 1))
        profile, _ = run_propose_dispose(inst, F(1, 3))
        assert profile.matches == (0, None)
        assert find_blocking_pair(inst, profile, 0) is None
        assert self.surplus(profile) == 1
        assert max_weight_assignment([[1, 1], [1, 0]]) == 2
        fine = from_shapley_shubik(costs, values, (0, 12, F(1, 3)))
        assert self.surplus(run_propose_dispose(fine, F(1, 3))[0]) == 2

    def test_validation(self):
        with pytest.raises(GameError):
            from_shapley_shubik({}, {}, (0, 10, 1))
        with pytest.raises(GameError):
            from_shapley_shubik({"s": 1}, {"s": {}}, (0, 10, 1))
        with pytest.raises(GameError):
            from_shapley_shubik(
                {"s0": 1, "s1": 1}, {"s0": {"b0": 3}, "s1": {"b1": 3}}, (0, 10, 1)
            )

    def test_valuations_of_a_seller_without_cost_rejected(self):
        with pytest.raises(GameError) as info:
            from_shapley_shubik({"s1": 1}, {"s1": {"b1": 5}, "s2": {"b1": 9}}, (0, 10, 1))
        assert str(info.value) == "valuations given for seller 's2', who has no cost"


class TestGaleDemange:
    def test_identity_maps_reduce_to_assignment_market(self):
        ident = [(0, 0), (10, 10)]
        gd = from_gale_demange(
            {"s": {"b": ident}}, {"s": {"b": ident}}, (0, 10, 1)
        )
        ss = from_shapley_shubik({"s": 0}, {"s": {"b": 0}}, (0, 10, 1))
        menu_gd = gd.game(0, 0).menu()
        menu_ss = ss.game(0, 0).menu()
        assert len(menu_gd) == len(menu_ss) == 11
        for a, b in zip(menu_gd, menu_ss):
            assert (a.id, a.strategy_a, a.strategy_b, a.u, a.v) == (
                b.id,
                b.strategy_a,
                b.strategy_b,
                b.u,
                b.v,
            )

    def test_money_scale_shifts_stable_transfers(self):
        ident = [(-5, -5), (5, 5)]
        base = from_gale_demange(
            {"m": {"w": ident}}, {"m": {"w": ident}}, (-5, 5, 1)
        )
        stable = list(enumerate_stable(base, 0, "external"))
        matched = {c.strategy_a for p in stable for c in p.chosen.values()}
        assert matched == {0}
        # zero surplus: staying single cannot be strictly improved on
        assert any(p.matches == (None,) for p in stable)

        # f(t) = 2t + 4: the man starts 4 up, so he can pay the woman
        shifted = from_gale_demange(
            {"m": {"w": [(-5, -6), (5, 14)]}}, {"m": {"w": ident}}, (-5, 5, 1)
        )
        stable = list(enumerate_stable(shifted, 0, "external"))
        matched = {c.strategy_a for p in stable for c in p.chosen.values()}
        assert matched == {-2, -1, 0}
        assert not any(p.matches == (None,) for p in stable)

    def test_kinked_map_exact_at_breakpoints(self):
        kinked = [(-5, -5), (0, 0), (5, 10)]
        ident = [(-5, -5), (5, 5)]
        inst = from_gale_demange(
            {"m": {"w": kinked}}, {"m": {"w": ident}}, (-5, 5, 1)
        )
        by_t = {c.strategy_a: c for c in inst.game(0, 0).menu()}
        assert (by_t[0].u, by_t[0].v) == (0, 0)
        assert (by_t[3].u, by_t[3].v) == (6, -3)
        assert (by_t[-2].u, by_t[-2].v) == (-2, 2)

    def test_validation(self):
        flat = [(0, 0), (1, 0)]
        ident = [(0, 0), (1, 1)]
        with pytest.raises(GameError):
            from_gale_demange({"m": {"w": flat}}, {"m": {"w": ident}}, (0, 1, 1))
        with pytest.raises(GameError):
            from_gale_demange({"m": {"w": ident}}, {}, (0, 1, 1))


def hm_profile(inst, contract_set, relations, allocation):
    """Matching profile that mirrors a contract allocation."""
    names = list(contract_set)
    n = len(names)
    matches = [None] * inst.n_men
    chosen = {}
    for z in allocation:
        a, b = relations[z]
        i, j = inst.men.index(a), inst.women.index(b)
        matches[i] = j
        x = names.index(z)
        chosen[(i, j)] = next(
            c for c in inst.game(i, j).menu() if c.id == x * n + x
        )
    return MatchingProfile(tuple(matches), chosen)


def recontract_proof(relations, prefs, allocation):
    """No matched couple jointly prefers another contract relating them."""
    held = {k: z for z in allocation for k in relations[z]}
    for z, (a, b) in relations.items():
        if a in held and held[a] == held.get(b) and held[a] != z:
            cur = held[a]
            if prefs[a].index(z) < prefs[a].index(cur) and prefs[b].index(
                z
            ) < prefs[b].index(cur):
                return False
    return True


def all_allocations(contract_set, relations):
    for size in range(len(contract_set) + 1):
        for combo in combinations(contract_set, size):
            agents = [k for z in combo for k in relations[z]]
            if len(agents) == len(set(agents)):
                yield combo


class TestHatfieldMilgrom:
    def test_single_agreeable_contract(self):
        inst = from_hatfield_milgrom(
            ["x"],
            {"x": ("m1", "w1")},
            {"m1": ["x", EMPTY_CONTRACT], "w1": ["x", EMPTY_CONTRACT]},
        )
        stable = list(enumerate_stable(inst, 0, "external"))
        assert len(stable) == 1
        (profile,) = stable
        assert profile.matches == (0,)
        contract = profile.chosen[(0, 0)]
        assert (contract.u, contract.v) == (1, 1)

    def test_unwanted_contract_leaves_all_single(self):
        inst = from_hatfield_milgrom(
            ["x"],
            {"x": ("m1", "w1")},
            {"m1": ["x", EMPTY_CONTRACT], "w1": [EMPTY_CONTRACT, "x"]},
        )
        stable = list(enumerate_stable(inst, 0, "external"))
        assert len(stable) == 1 and stable[0].matches == (None,)

    def test_dominated_recontract_boundary(self):
        # Both partners rank x over y.  The native model lets a matched
        # couple re-sign a better contract, so {y} is not stable there;
        # external stability only scans unmatched pairs, so the profile
        # sitting on (y, y) passes.  The two notions agree exactly on
        # recontract-proof allocations.
        contracts = ["x", "y"]
        relations = {"x": ("m1", "w1"), "y": ("m1", "w1")}
        prefs = {
            "m1": ["x", "y", EMPTY_CONTRACT],
            "w1": ["x", "y", EMPTY_CONTRACT],
        }
        assert hm_stable_allocation(contracts, relations, prefs, ["x"])
        assert not hm_stable_allocation(contracts, relations, prefs, ["y"])
        assert not hm_stable_allocation(contracts, relations, prefs, [])

        inst = from_hatfield_milgrom(contracts, relations, prefs)
        stable = list(enumerate_stable(inst, 0, "external"))
        played = {
            names for p in stable for names in [contracts[p.chosen[(0, 0)].strategy_a]]
        }
        assert played == {"x", "y"}
        survivors = [
            alloc
            for alloc in (("x",), ("y",))
            if recontract_proof(relations, prefs, alloc)
        ]
        assert survivors == [("x",)]

    def test_native_stability_equivalence(self):
        # native stable <=> externally stable at 0 AND recontract-proof,
        # brute-forced over every allocation of random small markets
        rng = random.Random(1405)
        for _ in range(12):
            n_m, n_w = rng.randint(2, 3), rng.randint(2, 3)
            men = [f"m{i}" for i in range(n_m)]
            women = [f"w{j}" for j in range(n_w)]
            k = rng.randint(3, 6)
            names = [f"c{x}" for x in range(k)]
            relations = {
                z: (rng.choice(men), rng.choice(women)) for z in names
            }
            # every agent must appear in some contract to exist at all
            for pool, side in ((men, 0), (women, 1)):
                present = {relations[z][side] for z in names}
                for agent in pool:
                    if agent not in present:
                        partner = rng.choice(women if side == 0 else men)
                        z = f"c{len(relations)}"
                        names.append(z)
                        relations[z] = (agent, partner) if side == 0 else (partner, agent)
            prefs = {}
            for agent in men + women:
                own = [z for z in names if agent in relations[z]]
                own.append(EMPTY_CONTRACT)
                rng.shuffle(own)
                prefs[agent] = own
            inst = from_hatfield_milgrom(names, relations, prefs)

            native_set = set()
            for alloc in all_allocations(names, relations):
                native = hm_stable_allocation(names, relations, prefs, alloc)
                profile = hm_profile(inst, names, relations, alloc)
                external = find_blocking_pair(inst, profile, 0) is None
                proof = recontract_proof(relations, prefs, alloc)
                assert native == (external and proof)
                if native:
                    native_set.add(frozenset(alloc))
            # one-to-one contract markets always have a stable allocation
            assert native_set

            # every externally stable profile decodes back to an allocation:
            # agreed diagonal cells on contracts relating the couple
            n = len(names)
            for profile in enumerate_stable(inst, 0, "external"):
                for (i, j), c in profile.chosen.items():
                    assert c.strategy_a == c.strategy_b
                    assert relations[names[c.strategy_a]] == (
                        inst.men[i],
                        inst.women[j],
                    )

    def test_construction_validation(self):
        ok_prefs = {"a": ["x", EMPTY_CONTRACT], "b": ["x", EMPTY_CONTRACT]}
        with pytest.raises(GameError):
            from_hatfield_milgrom([], {}, {})
        with pytest.raises(GameError):
            from_hatfield_milgrom(["x", "x"], {"x": ("a", "b")}, ok_prefs)
        with pytest.raises(GameError):
            from_hatfield_milgrom(
                [EMPTY_CONTRACT], {EMPTY_CONTRACT: ("a", "b")}, ok_prefs
            )
        with pytest.raises(GameError):
            # q shows up on both sides of the market
            from_hatfield_milgrom(
                ["x", "y"],
                {"x": ("p", "q"), "y": ("q", "p")},
                {},
            )
        with pytest.raises(GameError):
            from_hatfield_milgrom(["x"], {"x": ("a", "b")}, {"a": ["x", EMPTY_CONTRACT]})
        with pytest.raises(GameError):
            # preference list must cover own contracts plus EMPTY exactly
            from_hatfield_milgrom(
                ["x"],
                {"x": ("a", "b")},
                {"a": ["x"], "b": ["x", EMPTY_CONTRACT]},
            )

    @pytest.mark.parametrize(
        "relations, prefs, message",
        [
            (
                {"x": ("m", "w"), "zz": ("m2", "w2")},
                {"m": ["x", EMPTY_CONTRACT], "w": ["x", EMPTY_CONTRACT]},
                "relation given for 'zz', which is not in the contract set",
            ),
            (
                {"x": ("m", "w")},
                {"m": ["x", EMPTY_CONTRACT], "w": ["x", EMPTY_CONTRACT], "ghost": [EMPTY_CONTRACT]},
                "preference list given for 'ghost', whom no contract relates",
            ),
        ],
        ids=["stray_relation", "stray_preference_list"],
    )
    def test_entries_naming_nothing_rejected(self, relations, prefs, message):
        with pytest.raises(GameError) as info:
            from_hatfield_milgrom(["x"], relations, prefs)
        assert str(info.value) == message

    def test_existing_refusals_keep_their_messages(self):
        with pytest.raises(GameError) as info:
            from_hatfield_milgrom(["x", "y"], {"x": ("a", "b"), "zz": ("c", "d")}, {})
        assert str(info.value) == "contract 'y' has no relation"
        with pytest.raises(GameError) as info:
            from_hatfield_milgrom(["x"], {"x": ("a", "b")}, {"a": ["x", EMPTY_CONTRACT], "ghost": []})
        assert str(info.value) == "agent 'b' has no preference list"

    def test_allocation_validation(self):
        contracts = ["x", "y"]
        relations = {"x": ("m1", "w1"), "y": ("m1", "w2")}
        prefs = {
            "m1": ["x", "y", EMPTY_CONTRACT],
            "w1": ["x", EMPTY_CONTRACT],
            "w2": ["y", EMPTY_CONTRACT],
        }
        with pytest.raises(GameError):
            hm_stable_allocation(contracts, relations, prefs, ["x", "x"])
        with pytest.raises(GameError):
            hm_stable_allocation(contracts, relations, prefs, ["z"])
        with pytest.raises(GameError):
            # m1 cannot hold two contracts at once
            hm_stable_allocation(contracts, relations, prefs, ["x", "y"])
