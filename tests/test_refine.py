"""Refinement passes: convergence, class monotonicity, failure modes."""

import importlib
import random
from fractions import Fraction

import pytest

from matchgames import (
    BimatrixGame,
    CnePolicy,
    MatchingError,
    MatchingProfile,
    PotentialGame,
    RefineStatus,
    Side,
    brute_force_cne,
    build_instance,
    is_externally_stable,
    is_internally_stable,
    outside_options,
    parse_instance,
    refine,
    run_propose_dispose,
)
from matchgames.rational import render_event
from matchgames.refine import _effective_oo

from helpers import frac, random_class_instance

F = Fraction

SOLAN_U = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
SOLAN_V = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]

# Seed 1's oracle-crosscheck-009 market (bench/gen.py): bimatrix, repeated,
# transfer and zero-sum couples; refine ends INFEASIBLE from both sides.
CROSSCHECK_009 = {
    "men": ["m0", "m1", "m2"],
    "women": ["w0", "w1", "w2"],
    "irp": {"men": [-1, -1, 0], "women": [1, 1, -1]},
    "games": {
        "m0": {
            "w0": {
                "class": "transfer",
                "t_min": "-11/2",
                "t_max": "-9/2",
                "f_u": [["-11/2", "-7/3"], [-5, "313/15"], ["-9/2", "80/3"]],
                "f_v": [["9/2", "-7/3"], ["19/4", "91/15"], ["11/2", "56/3"]],
                "resolution": "1/3",
            },
            "w1": {"class": "repeated", "u": [[-3, -3], [-2, -1]], "v": [[-4, 4], [3, -4]], "resolution": 8},
            "w2": {
                "class": "zero_sum",
                "g": [[-14, -18, "-44/3"], ["-35/2", "-43/3", -17], [-17, "-47/3", "-103/6"]],
                "resolution": "4/3",
            },
        },
        "m1": {
            "w0": {
                "class": "transfer",
                "t_min": -14,
                "t_max": -9,
                "f_u": [[-14, -6], ["-41/4", "-4/5"], [-9, 20]],
                "f_v": [[9, -6], ["51/4", "33/5"], [14, 15]],
                "resolution": "5/3",
            },
            "w1": {"class": "bimatrix", "u": [[1, -2], [4, -3]], "v": [[-3, -1], [4, -1]]},
            "w2": {"class": "bimatrix", "u": [[1, 2], [2, 0]], "v": [[3, 1], [2, 4]]},
        },
        "m2": {
            "w0": {
                "class": "zero_sum",
                "g": [["-283/6", "-139/3", "-95/2"], [-46, "-142/3", "-283/6"], [-49, -46, "-281/6"]],
                "resolution": 1,
            },
            "w1": {
                "class": "transfer",
                "t_min": "-17/4",
                "t_max": "-9/4",
                "f_u": [["-17/4", 0], ["-13/4", 18], ["-9/4", 30]],
                "f_v": [["9/4", 0], ["11/4", "26/5"], ["17/4", 26]],
                "resolution": "2/3",
            },
            "w2": {
                "class": "zero_sum",
                "g": [["-163/3", -54, -53], [-55, "-325/6", "-160/3"], ["-164/3", "-329/6", -53]],
                "resolution": "2/3",
            },
        },
    },
}


def parse_trace(lines):
    out = []
    for line in lines:
        rec = {}
        for part in line.split():
            k, _, v = part.partition("=")
            rec[k] = v
        out.append(rec)
    return out


def replacements_by_couple(inst, trace):
    """Per-couple list of (u, v) payoffs adopted at replace events, in order."""
    men_ix = {name: i for i, name in enumerate(inst.men)}
    women_ix = {name: j for j, name in enumerate(inst.women)}
    seq = {}
    for rec in parse_trace(trace):
        if rec.get("event") != "replace":
            continue
        key = (men_ix[rec["man"]], women_ix[rec["woman"]])
        seq.setdefault(key, []).append((Fraction(rec["u"]), Fraction(rec["v"])))
    return seq


def common_interest_instance(rng, n=2):
    games = {}
    for i in range(n):
        for j in range(n):
            m = [[frac(-5, 5, rng) for _ in range(2)] for _ in range(2)]
            games[(i, j)] = BimatrixGame(m, m)
    names_m = [f"m{i}" for i in range(n)]
    names_w = [f"w{j}" for j in range(n)]
    return build_instance(names_m, names_w, [-6] * n, [-6] * n, games)


class TestConvergence:
    def test_common_interest_single_unchanged_pass(self):
        rng = random.Random(51)
        for _ in range(10):
            inst = common_interest_instance(rng)
            profile, _ = run_propose_dispose(inst, F(1, 2))
            result = refine(inst, profile, F(1, 2))
            assert result.status is RefineStatus.CONVERGED
            assert result.passes == 1
            assert result.profile.chosen == profile.chosen

    def test_zero_sum_converges_stable(self):
        rng = random.Random(53)
        eps = F(1, 2)
        for _ in range(12):
            inst = random_class_instance(rng, "zero_sum", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps)
            assert result.status is RefineStatus.CONVERGED
            assert is_externally_stable(inst, result.profile, eps).holds
            assert is_internally_stable(inst, result.profile, eps).holds

    def test_zero_sum_pass_budget(self):
        rng = random.Random(59)
        eps = F(1, 2)
        for _ in range(12):
            inst = random_class_instance(rng, "zero_sum", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps)
            couples = max(len(profile.matched_pairs()), 1)
            spans = [
                (max(g.levels) - min(g.levels)) / g.resolution
                for g in (inst.game(i, j) for i, j in profile.matched_pairs())
            ]
            budget = (max(spans) if spans else 0) * couples + 1
            assert result.passes <= budget

    def test_potential_converges_stable(self):
        rng = random.Random(61)
        eps = F(1, 2)
        for _ in range(12):
            inst = random_class_instance(rng, "potential", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps, {"potential": CnePolicy.MAX_POTENTIAL})
            assert result.status is RefineStatus.CONVERGED
            assert is_externally_stable(inst, result.profile, eps).holds
            assert is_internally_stable(inst, result.profile, eps).holds

    def test_repeated_converges_stable(self):
        rng = random.Random(67)
        eps = F(1, 2)
        for _ in range(12):
            inst = random_class_instance(rng, "repeated", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps)
            assert result.status is RefineStatus.CONVERGED
            assert is_externally_stable(inst, result.profile, eps).holds
            assert is_internally_stable(inst, result.profile, eps).holds


class TestMonotonicity:
    def test_potential_sum_nondecreasing(self):
        rng = random.Random(71)
        eps = F(1, 2)
        for _ in range(12):
            inst = random_class_instance(rng, "potential", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps, {"potential": CnePolicy.MAX_POTENTIAL})
            assert result.status is RefineStatus.CONVERGED
            # every replacement maximizes the couple's potential over a set
            # containing the incumbent, so each adopted value dominates
            men_ix = {name: i for i, name in enumerate(inst.men)}
            women_ix = {name: j for j, name in enumerate(inst.women)}
            current = {key: c for key, c in profile.chosen.items()}
            for rec in parse_trace(result.trace):
                if rec.get("event") != "replace":
                    continue
                key = (men_ix[rec["man"]], women_ix[rec["woman"]])
                game = inst.game(*key)
                new = game.contract(int(rec["new"]))
                assert game.potential_of(new) >= game.potential_of(current[key])
                current[key] = new

    def test_zero_sum_levels_eventually_monotone(self):
        rng = random.Random(73)
        eps = F(1, 2)
        for _ in range(15):
            inst = random_class_instance(rng, "zero_sum", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps)
            for key, seq in replacements_by_couple(inst, result.trace).items():
                levels = [profile.chosen[key].u] + [u for u, _ in seq]
                tail = levels[1:]
                nondec = all(a <= b for a, b in zip(tail, tail[1:]))
                noninc = all(a >= b for a, b in zip(tail, tail[1:]))
                assert nondec or noninc

    def test_repeated_partner_payoffs_outside_enforceable(self):
        rng = random.Random(79)
        eps = F(1, 2)
        for _ in range(15):
            inst = random_class_instance(rng, "repeated", eps)
            profile, _ = run_propose_dispose(inst, eps)
            result = refine(inst, profile, eps)
            for key, seq in replacements_by_couple(inst, result.trace).items():
                game = inst.game(*key)
                in_e = [u >= game.alpha and v >= game.beta for u, v in seq]
                if any(in_e):
                    continue
                vs = [v for _, v in seq]
                assert all(a <= b for a, b in zip(vs, vs[1:]))
                assert all(v <= game.beta for v in vs)


class TestPolicies:
    def test_auto_and_max_potential_pick_different_contracts(self):
        # Coordination with phi = u = v, started from the miscoordinated cell
        # (0,1): AUTO adopts the first feasible Nash cell (0,0), while
        # MAX_POTENTIAL adopts the potential argmax (1,1).
        m = [[1, 0], [0, 2]]
        game = PotentialGame(m, m, m)
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): game})
        start = next(c for c in game.menu() if (c.strategy_a, c.strategy_b) == (0, 1))
        profile = MatchingProfile((0,), {(0, 0): start})
        picks = []
        for policies in (None, {"potential": CnePolicy.MAX_POTENTIAL}):
            result = refine(inst, profile, 1, policies)
            assert result.status is RefineStatus.CONVERGED
            chosen = result.profile.chosen[(0, 0)]
            picks.append((chosen.strategy_a, chosen.strategy_b))
        assert picks == [(0, 0), (1, 1)]


class TestFailureModes:
    def test_infeasible_reports_couple(self):
        inst = build_instance(
            ["m"], ["w"], [-100], [-100], {(0, 0): BimatrixGame(SOLAN_U, SOLAN_V)}
        )
        profile, _ = run_propose_dispose(inst, 1)
        result = refine(inst, profile, 1)
        assert result.status is RefineStatus.INFEASIBLE
        assert result.failed_couple == (0, 0)
        assert any("reason=not_feasible_game" in line for line in result.trace)

    def test_infeasible_is_certified_by_the_oracle(self):
        inst = build_instance(
            ["m"], ["w"], [-100], [-100], {(0, 0): BimatrixGame(SOLAN_U, SOLAN_V)}
        )
        profile, _ = run_propose_dispose(inst, 1)
        result = refine(inst, profile, 1)
        assert result.status is RefineStatus.INFEASIBLE
        i, j = result.failed_couple
        oo = _effective_oo(inst, outside_options(inst, result.profile, i, j, 1), i, j, F(1))
        assert brute_force_cne(inst.game(i, j), oo) == []

    def test_infeasible_market_draw_is_certified_from_both_sides(self):
        for side in (Side.MAN, Side.WOMAN):
            inst, eps = parse_instance(CROSSCHECK_009, eps=1)
            profile, _ = run_propose_dispose(inst, eps, side)
            result = refine(inst, profile, eps)
            assert result.status is RefineStatus.INFEASIBLE
            i, j = result.failed_couple
            oo = _effective_oo(inst, outside_options(inst, result.profile, i, j, eps), i, j, eps)
            assert brute_force_cne(inst.game(i, j), oo) == []
            # the values and punishment levels of unmatched couples are never solved
            for key, game in inst.games.items():
                if key not in result.profile.chosen:
                    assert not {"value_level", "alpha", "beta"} & set(vars(game))

    def test_pass_limit(self):
        inst = build_instance(
            ["m"], ["w"], [-100], [-100], {(0, 0): BimatrixGame(SOLAN_U, SOLAN_V)}
        )
        profile, _ = run_propose_dispose(inst, 1)
        result = refine(inst, profile, 1, max_passes=0)
        assert result.status is RefineStatus.PASS_LIMIT
        assert result.trace[-1].startswith("event=status status=PassLimit")

    def test_unstable_input_rejected(self):
        inst = build_instance(["m"], ["w"], [5], [0], {(0, 0): BimatrixGame([[1]], [[1]])})
        prof = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        with pytest.raises(MatchingError):
            refine(inst, prof, 1)

    def test_negative_eps_rejected(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])})
        prof = MatchingProfile((0,), {(0, 0): inst.game(0, 0).menu()[0]})
        with pytest.raises(ValueError):
            refine(inst, prof, -1)


class TestIdempotence:
    def test_second_run_is_identity(self):
        rng = random.Random(83)
        eps = F(1, 2)
        for kind in ("zero_sum", "potential", "repeated"):
            for _ in range(6):
                inst = random_class_instance(rng, kind, eps)
                profile, _ = run_propose_dispose(inst, eps)
                first = refine(inst, profile, eps)
                assert first.status is RefineStatus.CONVERGED
                second = refine(inst, first.profile, eps)
                assert second.status is RefineStatus.CONVERGED
                assert second.passes == 1
                assert second.profile.chosen == first.profile.chosen

    def test_trace_ends_with_status(self):
        rng = random.Random(89)
        inst = random_class_instance(rng, "potential", F(1, 2))
        profile, _ = run_propose_dispose(inst, F(1, 2))
        result = refine(inst, profile, F(1, 2))
        assert result.trace[-1] == f"event=status status=Converged passes={result.passes}"


class TestTrace:
    def test_trace_rendered_on_first_read_only(self, monkeypatch):
        rendered = []

        def counting(name, **fields):
            rendered.append(name)
            return render_event(name, **fields)

        # the package's name refine is the function, so the module is imported by path
        monkeypatch.setattr(importlib.import_module("matchgames.refine"), "render_event", counting)
        rng = random.Random(53)
        eps = F(1, 2)
        results = []
        for _ in range(6):
            inst = random_class_instance(rng, "zero_sum", eps)
            profile, _ = run_propose_dispose(inst, eps)
            results.append(refine(inst, profile, eps))
        assert rendered == []  # runs whose traces are never read render nothing
        kinds = set()
        for result in results:
            before = len(rendered)
            lines = result.trace
            assert len(rendered) - before == len(lines)
            assert rendered[before:] == [line.split(" ", 1)[0][len("event="):] for line in lines]
            assert result.trace == lines and len(rendered) - before == len(lines)
            kinds.update(rendered[before:])
        assert kinds >= {"skip", "visit", "replace", "pass", "status"}

    @pytest.mark.parametrize("drift", [1, -1])
    def test_event_of_the_wrong_length_fails_on_read(self, drift):
        eps = F(1, 2)
        inst = random_class_instance(random.Random(53), "zero_sum", eps)
        result = refine(inst, run_propose_dispose(inst, eps)[0], eps)
        event = result._events[-1]
        result._events.append(event + (0,) if drift > 0 else event[:-1])
        with pytest.raises(ValueError):
            result.trace
