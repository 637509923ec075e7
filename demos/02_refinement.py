"""From no-defection to no-renegotiation.

The auction in demo 01 guarantees external stability: no designer and
studio who are *not* together would both gain by pairing up.  It says
nothing about what a matched couple does inside its own game.  A couple
whose contract leaves one side able to improve unilaterally, without
scaring the partner off, will renegotiate.

The refiner walks couple by couple, replaces each contract with a
constrained equilibrium of that couple's game (given what both could
get elsewhere), and repeats until nothing moves.  Here we watch it fix
a wage-bargaining market, then fail honestly on a game that has no
renegotiation-proof contract at all.
"""

from fractions import Fraction as F

from matchgames import (
    BimatrixGame,
    ZeroSumGame,
    build_instance,
    is_externally_stable,
    is_internally_stable,
    refine,
    run_propose_dispose,
)

# Wage bargaining: the menu is a ladder of splits, what one side gains
# the other loses.  Couples like these always admit a fix.
games = {
    (0, 0): ZeroSumGame([[3, 1], [0, 2]], 1),
    (0, 1): ZeroSumGame([[2, -1], [1, 1]], 1),
    (1, 0): ZeroSumGame([[1, 0], [-2, 2]], 1),
    (1, 1): ZeroSumGame([[4, 2], [1, 3]], 1),
}
inst = build_instance(
    ["ada", "ben"], ["acme", "zeta"], [F(-2)] * 2, [F(-2)] * 2, games
)

eps = F(1)
profile, _ = run_propose_dispose(inst, eps)
print("== After the auction")
print(f"  externally stable: {is_externally_stable(inst, profile, eps).holds}")
print(f"  internally stable: {is_internally_stable(inst, profile, eps).holds}")

out = refine(inst, profile, eps)
print("\n== After refinement")
print(f"  status: {out.status.value} in {out.passes} pass(es)")
for i, j in out.profile.matched_pairs():
    c = out.profile.chosen[(i, j)]
    print(f"  {inst.men[i]} and {inst.women[j]} settle on "
          f"{inst.game(i, j).describe(c)} paying ({c.u}, {c.v})")
print(f"  externally stable: {is_externally_stable(inst, out.profile, eps).holds}")
print(f"  internally stable: {is_internally_stable(inst, out.profile, eps).holds}")

# A spiteful game: every cell leaves someone wanting to move, and the
# mover never drops the partner far enough to be deterred.  No contract
# of this game is renegotiation-proof, so the refiner must say so.
spite_u = [[2, -10, 3], [3, 2, -10], [-10, 3, 2]]
spite_v = [[1, -10, 0], [0, 1, -10], [-10, 0, 1]]
lone = build_instance(
    ["m0"], ["w0"], [F(-100)], [F(-100)],
    {(0, 0): BimatrixGame(spite_u, spite_v)},
)
profile, _ = run_propose_dispose(lone, eps)
out = refine(lone, profile, eps)
i, j = out.failed_couple
print("\n== A couple that cannot settle")
print(f"  status: {out.status.value}, stuck couple: {lone.men[i]} and {lone.women[j]}")
