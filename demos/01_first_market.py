"""A first matching market, solved step by step.

Two designers (ada, ben) can sign with two studios (acme, zeta).  Each
pairing has a little 2x2 effort game; its cells are the contracts that
pair could sign, and each cell carries one payoff for the designer and
one for the studio.  Nobody is forced to match: anyone can walk away
and collect their reservation payoff instead.

We run the propose-dispose auction with a margin of 1, read its trace,
check the result for blocking pairs, and finally rerun below the
payoff grid, where the answer is exactly stable.
"""

from fractions import Fraction as F

from matchgames import (
    BimatrixGame,
    build_instance,
    is_externally_stable,
    run_propose_dispose,
    run_with_vanishing_margin,
)

games = {
    (0, 0): BimatrixGame([[4, 0], [1, 2]], [[3, 0], [0, 2]]),
    (0, 1): BimatrixGame([[2, 1], [0, 3]], [[2, 0], [1, 4]]),
    (1, 0): BimatrixGame([[3, 0], [0, 1]], [[1, 0], [0, 3]]),
    (1, 1): BimatrixGame([[5, 1], [2, 2]], [[2, 1], [1, 1]]),
}
inst = build_instance(
    ["ada", "ben"], ["acme", "zeta"], [F(0), F(0)], [F(0), F(0)], games
)

print("== Solve with margin 1")
profile, state = run_propose_dispose(inst, F(1))
for i, j in profile.matched_pairs():
    c = profile.chosen[(i, j)]
    print(f"  {inst.men[i]} signs with {inst.women[j]}: "
          f"{inst.game(i, j).describe(c)} paying ({c.u}, {c.v})")
print(f"  finished in {state.iterations} rounds "
      f"(worst-case budget {state.iteration_bound})")

print("\n== What happened, round by round")
for line in state.trace:
    print("  " + line)

print("\n== Is anyone tempted to defect?")
report = is_externally_stable(inst, profile, F(1))
print(f"  stable at margin 1: {report.holds}")

# A margin of 1 tolerates blocking pairs that gain less than 1 each.
# Every payoff here is a whole number, so a margin of 1/2 removes that
# slack: any gain above 1/2 is a gain of at least 1.
print("\n== Shrink the margin until the answer settles")
profile, eps, blocking = run_with_vanishing_margin(inst)
print(f"  settled at margin {eps}")
for i, j in profile.matched_pairs():
    c = profile.chosen[(i, j)]
    print(f"  {inst.men[i]} signs with {inst.women[j]}: "
          f"{inst.game(i, j).describe(c)} paying ({c.u}, {c.v})")
print(f"  exact blocking pair remaining: {blocking}")
