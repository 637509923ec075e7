"""End-to-end acceptance checks, one test per criterion.

Each test exercises a full pipeline (solver, refiner, oracle, adapter or
tree solver) on randomized or frozen inputs and holds the output to a
fixed tolerance.  Failures here mean a user-visible guarantee is broken
even if every unit test passes.  Each test prints one summary line with
the measured quantity; run with -s to see them on success.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from matchgames import (
    BimatrixGame,
    CnePolicy,
    OutsideOptions,
    RefineStatus,
    Side,
    ZeroSumGame,
    build_instance,
    brute_force_cne,
    constrained_spe,
    enumerate_profiles,
    enumerate_stable,
    extremal_profile,
    from_ordinal,
    genericity_holds,
    is_admissible,
    is_cne,
    is_externally_stable,
    is_internally_stable,
    is_nash_stable,
    join,
    meet_competitive,
    pareto_frontier,
    refine,
    repeated_cne_payoff,
    run_propose_dispose,
    solve_cne,
)
from matchgames.geometry import hull_contains

from helpers import (
    frac,
    gale_shapley,
    random_bimatrix_instance,
    random_class_instance,
    random_ordinal_prefs,
    random_potential_game,
    random_repeated_game,
    random_zero_sum_game,
    support_value,
    textbook_stable,
)
from test_extensive import is_constrained_equilibrium, profile_count, random_tree

N_MARKETS = 500

# every path that installs a contract logs through the same hook
ACCEPT_EVENTS = {"accept", "auto_replace", "replace", "resettle"}


def trace_fields(line):
    return dict(part.split("=", 1) for part in line.split())


def same_selection(p, q):
    """Same matching and, couple for couple, the same contract id."""
    if p.matches != q.matches:
        return False
    return all(q.chosen[key].id == c.id for key, c in p.chosen.items())


@pytest.fixture(scope="module")
def market_runs():
    """500 random bimatrix markets solved once, shared by c01 and c02."""
    rng = random.Random(20260815)
    runs = []
    solver_seconds = 0.0
    for k in range(N_MARKETS):
        inst = random_bimatrix_instance(rng, max_agents=4, max_cells=9, lo=-10, hi=10)
        eps = F(1) if k % 2 == 0 else F(1, 2)
        start = time.perf_counter()
        profile, state = run_propose_dispose(inst, eps)
        solver_seconds += time.perf_counter() - start
        runs.append((inst, eps, profile, state))
    return runs, solver_seconds


def test_c01_propose_dispose_always_externally_stable(market_runs):
    runs, solver_seconds = market_runs
    failures = 0
    for inst, eps, profile, _ in runs:
        if not is_externally_stable(inst, profile, eps).holds:
            failures += 1
    assert failures == 0
    assert solver_seconds < 60.0
    print(
        f"C01: {len(runs)} runs, {failures} stability failures,"
        f" solver time {solver_seconds:.2f}s (limit 60s)"
    )


def test_c02_responder_monotonicity_and_iteration_bound(market_runs):
    runs, _ = market_runs
    accepts = 0
    for inst, eps, _, state in runs:
        # replay the trace: every installed contract must raise the
        # responder by at least eps, starting from her reservation payoff
        current = dict(zip(inst.women, inst.irp_women))
        for line in state.trace:
            fields = trace_fields(line)
            if fields["event"] not in ACCEPT_EVENTS:
                continue
            old = F(fields["offer_old"])
            new = F(fields["offer_new"])
            assert old == current[fields["responder"]]
            assert new >= old + eps
            current[fields["responder"]] = new
            accepts += 1
        # recompute the iteration budget from the raw instance data
        gaps = F(0)
        for j, irp in enumerate(inst.irp_women):
            top = irp
            for i in range(inst.n_men):
                for c in inst.game(i, j).menu():
                    top = max(top, c.v)
            gaps += top - irp
        bound = math.ceil(gaps / eps) + inst.n_men
        assert state.iteration_bound == bound
        assert state.iterations <= bound
    print(f"C02: {accepts} acceptances checked, all raised the responder by >= eps")


def test_c03_ordinal_markets_reach_the_men_optimal_matching():
    rng = random.Random(33)
    for _ in range(50):
        n = rng.randint(1, 4)
        prefs_men, prefs_women = random_ordinal_prefs(rng, n)
        inst = from_ordinal(prefs_men, prefs_women)
        profile, _ = run_propose_dispose(inst, F(1))
        got = {inst.men[i]: inst.women[j] for i, j in profile.matched_pairs()}

        stable = textbook_stable(prefs_men, prefs_women)
        assert stable
        men_opt = {
            m: min(stable, key=lambda s: prefs_men[m].index(s[m]))[m]
            for m in prefs_men
        }
        assert men_opt in stable
        assert men_opt == gale_shapley(prefs_men, prefs_women)
        assert got == men_opt
    print("C03: 50 ordinal markets matched the enumerated men-optimal outcome exactly")


def test_c04_join_is_stable_and_zero_sum_meet_is_the_dual_join():
    rng = random.Random(404)
    pairs_checked = 0
    for _ in range(50):
        inst = random_bimatrix_instance(rng, max_agents=3, max_cells=6, lo=-6, hi=6)
        stable = list(enumerate_stable(inst, F(0), "external"))
        for a, b in itertools.combinations(stable, 2):
            if not genericity_holds(inst, a, b):
                continue
            for side in (Side.MAN, Side.WOMAN):
                merged = join(inst, a, b, side)
                assert is_externally_stable(inst, merged, F(0)).holds
            pairs_checked += 1
    assert pairs_checked > 0

    dual_checked = 0
    for _ in range(20):
        games = {}
        for i in range(2):
            for j in range(2):
                rows = rng.randint(1, 3)
                cols = rng.randint(1, 3)
                g = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
                games[(i, j)] = ZeroSumGame(g, F(1, 2))
        irp_m = [F(rng.randint(-5, -1)) for _ in range(2)]
        irp_w = [F(rng.randint(-5, -1)) for _ in range(2)]
        inst = build_instance(["m0", "m1"], ["w0", "w1"], irp_m, irp_w, games)
        stable = list(enumerate_stable(inst, F(0), "external"))
        for a, b in itertools.combinations(stable, 2):
            if not genericity_holds(inst, a, b):
                continue
            women_join = meet_competitive(inst, a, b)
            men_meet = extremal_profile(inst, a, b, Side.MAN, best=False)
            assert same_selection(women_join, men_meet)
            assert is_externally_stable(inst, women_join, F(0)).holds
            dual_checked += 1
    assert dual_checked > 0
    print(
        f"C04: {pairs_checked} generic stable pairs joined both ways,"
        f" {dual_checked} zero-sum pairs confirmed men-meet == women-join"
    )


def test_c05_zero_sum_cne_level_obeys_the_median_law():
    rng = random.Random(505)
    exact = 0
    for k in range(100):
        res = F(1, 2) if k % 2 == 0 else F(1, 4)
        game = random_zero_sum_game(rng, res)
        levels = sorted({c.u for c in game.menu()})
        lo = rng.choice(levels)
        hi = rng.choice(levels)
        if lo > hi:
            lo, hi = hi, lo
        # outside options that leave at least the [lo, hi] grid window open
        u0 = lo - F(rng.randint(0, 8), rng.randint(1, 5))
        v0 = -hi - F(rng.randint(0, 8), rng.randint(1, 5))
        out = solve_cne(game, OutsideOptions(u0, v0), CnePolicy.AUTO)
        assert out.contract is not None
        value = support_value(game.g)
        assert value == game.value_level
        med = sorted([u0, -v0, value])[1]
        if med in set(levels):
            assert out.contract.u == med
            exact += 1
        else:
            assert abs(out.contract.u - med) <= res
    print(f"C05: 100 median-law checks, {exact} on-grid medians matched exactly")


def test_c06_class_solvers_return_certified_cne():
    rng = random.Random(606)
    for _ in range(100):
        game = random_potential_game(rng)
        cell = rng.choice(game.menu())
        oo = OutsideOptions(cell.u - frac(0, 3, rng), cell.v - frac(0, 3, rng))
        out = solve_cne(game, oo, CnePolicy.MAX_POTENTIAL)
        assert out.contract is not None
        assert is_cne(game, out.contract, oo)

    for _ in range(100):
        game = random_repeated_game(rng, F(1, 2))
        c1 = rng.choice(game.menu())
        c2 = rng.choice(game.menu())
        t = F(rng.randint(0, 4), 4)
        inside = (t * c1.u + (1 - t) * c2.u, t * c1.v + (1 - t) * c2.v)
        oo = OutsideOptions(inside[0] - frac(0, 2, rng), inside[1] - frac(0, 2, rng))
        point = repeated_cne_payoff(game, oo)
        assert point is not None
        assert hull_contains(list(game.hull), point)
        assert point[0] >= oo.u0 and point[1] >= oo.v0
        out = solve_cne(game, oo, CnePolicy.AUTO)
        assert out.contract is not None
        assert (out.contract.u, out.contract.v) == tuple(point)
        assert is_cne(game, out.contract, oo)
    print("C06: 100 potential + 100 repeated outside-option draws all yielded a CNE")


def test_c07_refinement_converges_on_solvable_classes():
    rng = random.Random(707)
    eps = F(1, 2)
    start = time.perf_counter()
    for kind in ("zero_sum", "potential", "repeated"):
        policy = CnePolicy.MAX_POTENTIAL if kind == "potential" else CnePolicy.AUTO
        for _ in range(100):
            inst = random_class_instance(rng, kind, eps)
            profile, _ = run_propose_dispose(inst, eps)
            out = refine(inst, profile, eps, policy=policy)
            assert out.status is RefineStatus.CONVERGED, (kind, out.status)
            assert is_externally_stable(inst, out.profile, eps).holds
            assert is_internally_stable(inst, out.profile, eps).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"C07: 300 refinements converged, total {elapsed:.2f}s (limit 120s)")


SOLAN_U = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
SOLAN_V = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]


def _bilinear(M, p, q):
    return sum(p[i] * M[i][j] * q[j] for i in range(3) for j in range(3))


def _best_constrained(own, partner):
    """Max of own . p over the 3-simplex subject to partner . p >= 0.

    The optimum sits at a simplex vertex or on an edge where the
    constraint binds; returns None when no point is feasible.
    """
    best = None
    for i in range(3):
        if partner[i] >= 0 and (best is None or own[i] > best):
            best = own[i]
    for i in range(3):
        for k in range(3):
            if partner[i] > 0 > partner[k]:
                lam = -partner[k] / (partner[i] - partner[k])
                val = lam * own[i] + (1 - lam) * own[k]
                if best is None or val > best:
                    best = val
    return best


def _is_mixed_cne(pa, qa):
    """Exact check at a grid point: p = pa/100, q = qa/100."""
    p = [F(x, 100) for x in pa]
    q = [F(y, 100) for y in qa]
    u = _bilinear(SOLAN_U, p, q)
    v = _bilinear(SOLAN_V, p, q)
    if u < 0 or v < 0:
        return False
    own = [sum(F(SOLAN_U[i][j]) * q[j] for j in range(3)) for i in range(3)]
    held = [sum(F(SOLAN_V[i][j]) * q[j] for j in range(3)) for i in range(3)]
    top = _best_constrained(own, held)
    if top is not None and top > u:
        return False
    own = [sum(p[i] * F(SOLAN_V[i][j]) for i in range(3)) for j in range(3)]
    held = [sum(p[i] * F(SOLAN_U[i][j]) for i in range(3)) for j in range(3)]
    top = _best_constrained(own, held)
    if top is not None and top > v:
        return False
    return True


def test_c08_spiteful_market_has_no_cne_but_a_mixed_equilibrium():
    game = BimatrixGame(SOLAN_U, SOLAN_V)
    oo = OutsideOptions(F(0), F(0))
    assert brute_force_cne(game, oo) == []

    # mixed-strategy sweep in hundredth steps; floats prune, exact math
    # confirms every survivor, so rounding can only add candidates
    pts = [(a, b, 100 - a - b) for a in range(101) for b in range(101 - a)]
    P = np.array(pts, dtype=np.float64) / 100.0
    Un = np.array(SOLAN_U, dtype=np.float64)
    Vn = np.array(SOLAN_V, dtype=np.float64)
    PU = P @ Un
    PV = P @ Vn
    UQ = Un @ P.T
    VQ = Vn @ P.T
    tol = 1e-9
    survivors = []
    chunk = 256
    for s in range(0, len(P), chunk):
        e = min(s + chunk, len(P))
        upq = PU[s:e] @ P.T
        vpq = PV[s:e] @ P.T
        alive = (upq >= -tol) & (vpq >= -tol)
        for r in range(3):
            alive &= ~((UQ[r][None, :] > upq + tol) & (VQ[r][None, :] >= tol))
        for d in range(3):
            alive &= ~((PV[s:e, d][:, None] > vpq + tol) & (PU[s:e, d][:, None] >= tol))
        for ii, jj in zip(*np.nonzero(alive)):
            survivors.append((pts[s + ii], pts[jj]))
    confirmed = [s for s in survivors if _is_mixed_cne(*s)]
    assert confirmed == []

    # the uniform profile is a mixed Nash equilibrium of the raw game:
    # every pure reply earns the same payoff against it
    row_payoffs = {sum(F(SOLAN_U[r][j], 3) for j in range(3)) for r in range(3)}
    col_payoffs = {sum(F(SOLAN_V[i][c], 3) for i in range(3)) for c in range(3)}
    assert len(row_payoffs) == 1 and len(col_payoffs) == 1
    third = [F(1, 3)] * 3
    assert _bilinear(SOLAN_U, third, third) == F(-5, 3)
    assert _bilinear(SOLAN_V, third, third) == F(-3)
    print(
        f"C08: no pure CNE, grid scan pruned to {len(survivors)} candidates,"
        f" 0 confirmed; uniform NE payoff (-5/3, -3) exact"
    )


def test_c09_common_dilemma_separates_nash_from_stable():
    pd_u = [[3, 0], [4, 1]]
    pd_v = [[3, 4], [0, 1]]
    games = {(i, j): BimatrixGame(pd_u, pd_v) for i in range(3) for j in range(3)}
    inst = build_instance(
        ["m0", "m1", "m2"],
        ["w0", "w1", "w2"],
        [F(0)] * 3,
        [F(0)] * 3,
        games,
    )
    frontier = {(c.u, c.v) for c in pareto_frontier(inst.game(0, 0))}
    assert frontier == {(F(3), F(3)), (F(0), F(4)), (F(4), F(0))}

    both = 0
    survivors = []
    for profile in enumerate_profiles(inst):
        ext = is_externally_stable(inst, profile, F(0)).holds
        nash = is_nash_stable(inst, profile).holds
        if ext and nash:
            both += 1
        if ext and is_internally_stable(inst, profile, F(0)).holds:
            survivors.append(profile)
    assert both == 0
    assert survivors
    for profile in survivors:
        pairs = profile.matched_pairs()
        assert len(pairs) == 3
        on_frontier = sum(
            1
            for i, j in pairs
            if (profile.chosen[(i, j)].u, profile.chosen[(i, j)].v) in frontier
        )
        assert on_frontier >= 2
    print(
        f"C09: 0 profiles both Nash and externally stable;"
        f" {len(survivors)} stable profiles all kept >= 2 couples on the frontier"
    )


def test_c10_tree_solver_agrees_with_brute_force():
    rng = random.Random(1010)
    solved = 0
    vetoed = 0
    for _ in range(50):
        while True:
            tree = random_tree(rng, n_players=2, max_depth=3, max_children=3)
            if profile_count(tree) <= 4096:
                break
        outs = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        choices = constrained_spe(tree, outs)
        assert (choices is not None) == is_admissible(tree, outs)
        if choices is None:
            vetoed += 1
            continue
        assert is_constrained_equilibrium(tree, choices, outs)
        solved += 1
    assert solved > 0 and vetoed > 0
    print(f"C10: 50 random trees, {solved} solved and verified, {vetoed} inadmissible")
