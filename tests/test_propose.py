"""Propose-dispose solver: subproblems, competitions, traces, termination."""

import math
import random
from fractions import Fraction

import pytest

from matchgames import (
    NEG_INF,
    BimatrixGame,
    PiecewiseLinear,
    Side,
    TransferGame,
    build_instance,
    enumerate_stable,
    find_blocking_pair,
    from_ordinal,
    from_shapley_shubik,
    is_externally_stable,
    run_propose_dispose,
    run_with_vanishing_margin,
)
from matchgames import propose
from matchgames._market import market_index
from matchgames.propose import _max_offer, _settle
from matchgames.rational import render_event

from helpers import random_bimatrix_instance

F = Fraction

CLASSIC_MEN = {"m0": ["w0", "w1"], "m1": ["w1", "w0"]}
CLASSIC_WOMEN = {"w0": ["m1", "m0"], "w1": ["m0", "m1"]}


def menu_game():
    # single-row bimatrix whose menu is exactly {(3,1),(2,4),(0,9)}
    return BimatrixGame([[3, 2, 0]], [[1, 4, 9]])


def transfer_game():
    # t in {0..6}, u = t-2, v = 6-t
    return TransferGame(
        0, 6, 1, PiecewiseLinear([(0, -2), (1, -1)]), PiecewiseLinear([(0, 6), (1, 7)])
    )


def one_couple(game, irp_m=0, irp_w=0):
    return build_instance(["m"], ["w"], [irp_m], [irp_w], {(0, 0): game})


def best_proposal(inst, payoffs, eps, exclude=None):
    """Man 0's best proposal at exact responder payoffs: (target, own, contract)."""
    index = market_index(inst)
    # a scaled payoff reaches x + eps exactly when it exceeds ceil(D(x + eps)) - 1
    bars = [math.ceil(index.scale * (x + eps)) - 1 for x in payoffs]
    target, own, contract = index.men.best(0, bars, exclude)
    return target, F(own, index.scale), contract


def couple_at_scale(game):
    """The index entry of a one-couple market, with the index's scale."""
    index = market_index(one_couple(game))
    return index.men.couples[0][0], index.scale


class TestBestProposal:
    def test_single_feasible_contract(self):
        inst = one_couple(BimatrixGame([[5]], [[5]]))
        target, own, contract = best_proposal(inst, [F(0)], F(1))
        assert (target, own) == (0, F(5))
        assert contract.v == 5

    def test_margin_blocks_and_exit_wins(self):
        inst = one_couple(BimatrixGame([[5]], [[5]]))
        target, own, contract = best_proposal(inst, [F(5)], F(1))
        assert target is None and contract is None
        assert own == F(0)

    def test_ordinal_man_proposes_top_choice(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        target, own, _ = best_proposal(inst, [F(0), F(0)], F(1))
        assert target == 0 and own == F(2)

    def test_tie_prefers_matching_over_exit(self):
        # own payoff equals the reservation payoff: matching still wins
        inst = one_couple(BimatrixGame([[0]], [[5]]))
        target, own, _ = best_proposal(inst, [F(0)], F(1))
        assert target == 0 and own == F(0)

    def test_tie_prefers_lowest_woman_then_lowest_id(self):
        g = BimatrixGame([[7, 7]], [[3, 9]])
        inst = build_instance(["m"], ["w0", "w1"], [0], [0, 0], {(0, 0): g, (0, 1): g})
        target, _, contract = best_proposal(inst, [F(0), F(0)], F(1))
        assert target == 0
        assert contract.id == 0

    def test_exclude_removes_responder(self):
        g = BimatrixGame([[7]], [[3]])
        h = BimatrixGame([[2]], [[3]])
        inst = build_instance(["m"], ["w0", "w1"], [0], [0, 0], {(0, 0): g, (0, 1): h})
        assert best_proposal(inst, [F(0), F(0)], F(1))[0] == 0
        assert best_proposal(inst, [F(0), F(0)], F(1), exclude=0)[0] == 1


class TestMaxOffer:
    # _max_offer takes and returns payoffs scaled by the market's D, _settle takes one.

    def test_filter_then_max(self):
        couple, scale = couple_at_scale(menu_game())
        assert _max_offer(couple, 2 * scale) == 4 * scale

    def test_forfeit_sentinel(self):
        couple, scale = couple_at_scale(BimatrixGame([[3]], [[1]]))
        assert _max_offer(couple, 5 * scale) == NEG_INF

    def test_transfer_grid(self):
        couple, scale = couple_at_scale(transfer_game())
        assert _max_offer(couple, 0) == 4 * scale


class TestSettleContract:
    def test_second_price_pick(self):
        couple, scale = couple_at_scale(menu_game())
        c = _settle(couple, 2 * scale)
        assert (c.u, c.v) == (F(2), F(4))

    def test_boundary_feasibility(self):
        couple, scale = couple_at_scale(BimatrixGame([[5]], [[5]]))
        c = _settle(couple, 5 * scale)
        assert (c.u, c.v) == (F(5), F(5))

    def test_transfer_grid(self):
        couple, scale = couple_at_scale(transfer_game())
        c = _settle(couple, 3 * scale)
        assert (c.u, c.v) == (F(1), F(3))


class TestRun:
    def test_classic_ordinal_men_optimal(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        profile, state = run_propose_dispose(inst, 1)
        assert profile.matches == (0, 1)
        assert state.iterations <= state.iteration_bound

    def test_classic_ordinal_women_proposing_mirrors(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        profile, _ = run_propose_dispose(inst, 1, Side.WOMAN)
        assert profile.matches == (1, 0)

    def test_everyone_single_when_exit_dominates(self):
        g = BimatrixGame([[1]], [[1]])
        inst = build_instance(
            ["m0", "m1"], ["w0", "w1"], [5, 5], [0, 0],
            {(i, j): g for i in range(2) for j in range(2)},
        )
        profile, state = run_propose_dispose(inst, 1)
        assert profile.matches == (None, None)
        assert any("event=exit" in line for line in state.trace)

    def test_competition_second_price(self):
        # both men want w; the incumbent can bid 9, the challenger only 6,
        # so the incumbent wins and resettles at the losing bid
        inst = build_instance(
            ["m0", "m1"], ["w"], [0, 0], [0],
            {(0, 0): menu_game(), (1, 0): BimatrixGame([[5, 1]], [[2, 6]])},
        )
        profile, state = run_propose_dispose(inst, 1)
        assert profile.matches == (0, None)
        assert profile.chosen[(0, 0)].v == F(9)
        assert any("event=compete" in line for line in state.trace)
        assert any("event=resettle" in line for line in state.trace)
        assert is_externally_stable(inst, profile, 1).holds

    def test_auto_replacement(self):
        # once the challenger arrives, the incumbent's own problem stops
        # pointing at w0, so he is displaced without a bidding contest
        inst = build_instance(
            ["m0", "m1"], ["w0", "w1"], [0, 0], [0, 0],
            {
                (0, 0): BimatrixGame([[2]], [[2]]),
                (0, 1): BimatrixGame([[1]], [[10]]),
                (1, 0): BimatrixGame([[5]], [[3]]),
                (1, 1): BimatrixGame([[0]], [[0]]),
            },
        )
        profile, state = run_propose_dispose(inst, 1)
        assert profile.matches == (1, 0)
        assert profile.chosen[(0, 1)].u == F(1)
        assert profile.chosen[(1, 0)].v == F(3)
        assert any("event=auto_replace" in line for line in state.trace)

    def test_shapley_shubik_buyer_proposing(self):
        inst = from_shapley_shubik({"s": 2}, {"s": {"b": 6}}, (0, 10, 1))
        profile, _ = run_propose_dispose(inst, 1, Side.WOMAN)
        assert profile.matches == (0,)
        c = profile.chosen[(0, 0)]
        assert c.u >= 0 and c.v >= 0
        # buyer-optimal outcome: the seller is held within eps of his
        # worst stable payoff (price = cost)
        assert c.u <= 0 + 1
        assert is_externally_stable(inst, profile, 1).holds

    def test_nonpositive_eps_rejected(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        with pytest.raises(ValueError):
            run_propose_dispose(inst, 0)


class TestRunInvariants:
    def test_matched_responders_rise_at_least_eps(self):
        rng = random.Random(5)
        for _ in range(15):
            inst = random_bimatrix_instance(rng, max_agents=3, max_cells=6)
            eps = F(1, 2)
            profile, state = run_propose_dispose(inst, eps)
            for i, j in profile.matched_pairs():
                assert profile.chosen[(i, j)].v >= inst.irp_women[j] + eps
            assert state.iterations <= state.iteration_bound

    def test_stability_both_sides(self):
        rng = random.Random(6)
        for _ in range(10):
            inst = random_bimatrix_instance(rng, max_agents=3, max_cells=6)
            for side in (Side.MAN, Side.WOMAN):
                profile, _ = run_propose_dispose(inst, F(1, 2), side)
                assert is_externally_stable(inst, profile, F(1, 2)).holds

    def test_trace_deterministic(self):
        rng = random.Random(8)
        for _ in range(8):
            inst = random_bimatrix_instance(rng, max_agents=3, max_cells=6)
            _, s1 = run_propose_dispose(inst, F(1, 2))
            _, s2 = run_propose_dispose(inst, F(1, 2))
            assert s1.trace == s2.trace

    def test_trace_line_shape(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        _, state = run_propose_dispose(inst, 1)
        assert state.trace
        for line in state.trace:
            assert line.startswith("event=")
            assert " iter=" in line

    def test_trace_rendered_on_first_read_only(self, monkeypatch):
        rendered = []

        def counting(name, **fields):
            rendered.append(name)
            return render_event(name, **fields)

        monkeypatch.setattr(propose, "render_event", counting)
        inst = distinct_payoff_market(random.Random(23))
        states = [run_propose_dispose(inst, F(1, 2), side)[1] for side in (Side.MAN, Side.WOMAN)]
        assert rendered == []  # a run whose trace is never read renders nothing
        for state in states:
            before = len(rendered)
            lines = state.trace
            assert lines and len(rendered) - before == len(lines)
            assert rendered[before:] == [line.split(" ", 1)[0][len("event="):] for line in lines]
            assert state.trace == lines and len(rendered) - before == len(lines)

    @pytest.mark.parametrize("drift", [1, -1])
    def test_event_of_the_wrong_length_fails_on_read(self, drift):
        _, state = run_propose_dispose(distinct_payoff_market(random.Random(23)), F(1, 2))
        event = state._events[0]
        state._events.append(event + (0,) if drift > 0 else event[:-1])
        with pytest.raises(ValueError):
            state.trace

    def test_output_among_oracle_stable_profiles(self):
        rng = random.Random(9)
        for _ in range(6):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            eps = F(1, 2)
            profile, _ = run_propose_dispose(inst, eps)
            key = (profile.matches, tuple(sorted((i, j, c.id) for (i, j), c in profile.chosen.items())))
            stable_keys = {
                (p.matches, tuple(sorted((i, j, c.id) for (i, j), c in p.chosen.items())))
                for p in enumerate_stable(inst, eps, "external")
            }
            assert key in stable_keys



def distinct_payoff_market(rng):
    """Random bimatrix market whose menus repeat no u and no v value."""
    n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
    games = {}
    for i in range(n_men):
        for j in range(n_women):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            u, v = (rng.sample(range(-20, 21), rows * cols) for _ in range(2))
            games[(i, j)] = BimatrixGame(
                [[F(x, 2) for x in u[r * cols : (r + 1) * cols]] for r in range(rows)],
                [[F(x, 2) for x in v[r * cols : (r + 1) * cols]] for r in range(rows)],
            )
    return build_instance(
        [f"m{i}" for i in range(n_men)],
        [f"w{j}" for j in range(n_women)],
        [F(rng.randint(-6, 2)) for _ in range(n_men)],
        [F(rng.randint(-6, 2)) for _ in range(n_women)],
        games,
    )


def mirrored(inst):
    """Men and women swapped; each couple's (U, V) becomes (V^T, U^T)."""
    games = {
        (j, i): BimatrixGame([list(col) for col in zip(*g.V)], [list(col) for col in zip(*g.U)])
        for (i, j), g in inst.games.items()
    }
    return build_instance(inst.women, inst.men, inst.irp_women, inst.irp_men, games)


class TestOrientation:
    def test_women_proposing_is_men_proposing_on_the_mirror(self):
        # Contract ids differ between a game and its transpose, so the
        # payoffs and the traces without their contract= fields are compared.
        rng = random.Random(23)
        seen = set()
        for _ in range(40):
            inst = distinct_payoff_market(rng)
            women_run, w_state = run_propose_dispose(inst, F(1, 2), Side.WOMAN)
            men_run, m_state = run_propose_dispose(mirrored(inst), F(1, 2), Side.MAN)
            pairs = {(j, i): (c.v, c.u) for (i, j), c in women_run.chosen.items()}
            assert {k: (c.u, c.v) for k, c in men_run.chosen.items()} == pairs
            assert (w_state.iterations, w_state.iteration_bound) == (
                m_state.iterations,
                m_state.iteration_bound,
            )

            def strip(trace):
                return [" ".join(f for f in line.split() if not f.startswith("contract=")) for line in trace]

            assert strip(w_state.trace) == strip(m_state.trace)
            seen.update(line.split(" ", 1)[0] for line in w_state.trace)
        # every branch of the run loop was taken
        assert seen >= {f"event={e}" for e in ("exit", "accept", "auto_replace", "compete", "replace", "resettle")}


class TestVanishingMargin:
    def test_classic_ordinal_reaches_exact_stability(self):
        inst = from_ordinal(CLASSIC_MEN, CLASSIC_WOMEN)
        profile, eps, verdict = run_with_vanishing_margin(inst)
        assert profile.matches == (0, 1)
        assert verdict is None
        assert eps > 0

    def test_verdict_matches_direct_check(self):
        rng = random.Random(13)
        for _ in range(6):
            inst = random_bimatrix_instance(rng, max_agents=2, max_cells=4)
            profile, eps, verdict = run_with_vanishing_margin(inst)
            assert find_blocking_pair(inst, profile, 0) == verdict
            assert find_blocking_pair(inst, profile, eps) is None
