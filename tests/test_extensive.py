"""Game trees: admissibility, constrained backward induction, brute-force checks."""

import itertools
import random
from fractions import Fraction

import pytest

from matchgames import (
    GameTree,
    InternalNode,
    TerminalNode,
    TreeError,
    constrained_spe,
    is_admissible,
    play,
)

F = Fraction


def two_branch_tree():
    # L ends at (2,0); R hands the move to player 2 between (1,1) and (3,-1)
    return GameTree(
        ["one", "two"],
        {
            0: InternalNode(0, (1, 2)),
            1: TerminalNode((F(2), F(0))),
            2: InternalNode(1, (3, 4)),
            3: TerminalNode((F(1), F(1))),
            4: TerminalNode((F(3), F(-1))),
        },
    )


def subtree_nodes(tree, start):
    out = set()
    stack = [start]
    while stack:
        nid = stack.pop()
        out.add(nid)
        node = tree.nodes[nid]
        if isinstance(node, InternalNode):
            stack.extend(node.children)
    return out


def all_choice_maps(tree, node_ids):
    ids = sorted(node_ids)
    pools = [tree.nodes[nid].children for nid in ids]
    for combo in itertools.product(*pools):
        yield dict(zip(ids, combo))


def is_constrained_equilibrium(tree, choices, outs, start=None):
    """Literal definition: outcome dominates outs, and every profitable
    unilateral deviation (over whole strategies) exits the dominated set."""
    start = tree.root if start is None else start
    region = subtree_nodes(tree, start)
    outs = [F(x) for x in outs]
    outcome = play(tree, choices, start)
    if not all(p >= o for p, o in zip(outcome, outs)):
        return False
    for q in range(len(tree.players)):
        own_nodes = [
            nid
            for nid in region
            if isinstance(tree.nodes[nid], InternalNode) and tree.nodes[nid].player == q
        ]
        if not own_nodes:
            continue
        for alt in all_choice_maps(tree, own_nodes):
            deviated = dict(choices)
            deviated.update(alt)
            new = play(tree, deviated, start)
            if new[q] > outcome[q] and all(p >= o for p, o in zip(new, outs)):
                return False
    return True


def random_tree(rng, n_players=2, max_depth=3, max_children=3):
    nodes = {}
    counter = itertools.count()

    def build(depth):
        nid = next(counter)
        if depth >= max_depth or rng.random() < 0.3:
            nodes[nid] = TerminalNode(tuple(F(rng.randint(-4, 4)) for _ in range(n_players)))
            return nid
        kids = []
        nodes[nid] = None
        for _ in range(rng.randint(1, max_children)):
            kids.append(build(depth + 1))
        nodes[nid] = InternalNode(rng.randrange(n_players), tuple(kids))
        return nid

    root = build(0)
    return GameTree([f"p{k}" for k in range(n_players)], nodes, root)


def profile_count(tree):
    total = 1
    for nid in tree.internal_ids():
        total *= len(tree.nodes[nid].children)
    return total


class TestAdmissibility:
    def test_leaf_only(self):
        t = GameTree(["one", "two"], {0: TerminalNode((F(2), F(0)))})
        assert is_admissible(t, (0, 0))

    def test_all_leaves_hurt_someone(self):
        t = GameTree(["one", "two"], {0: TerminalNode((F(3), F(-1)))})
        assert not is_admissible(t, (0, 0))

    def test_two_branch(self):
        assert is_admissible(two_branch_tree(), (0, 0))

    def test_outs_arity_checked(self):
        with pytest.raises(TreeError):
            is_admissible(two_branch_tree(), (0,))


class TestConstrainedSpe:
    def test_two_branch_outcome(self):
        t = two_branch_tree()
        choices = constrained_spe(t, (0, 0))
        assert choices == {0: 1, 2: 3}
        assert play(t, choices) == (F(2), F(0))

    def test_single_player_constrained_max(self):
        t = GameTree(
            ["solo"],
            {
                0: InternalNode(0, (1, 2, 3)),
                1: TerminalNode((F(1),)),
                2: TerminalNode((F(5),)),
                3: TerminalNode((F(3),)),
            },
        )
        choices = constrained_spe(t, (2,))
        assert choices == {0: 2}
        assert play(t, choices) == (F(5),)

    def test_inadmissible_absent(self):
        t = GameTree(["one", "two"], {0: TerminalNode((F(3), F(-1)))})
        assert constrained_spe(t, (0, 0)) is None

    def test_tie_keeps_first_child(self):
        t = GameTree(
            ["one", "two"],
            {
                0: InternalNode(0, (1, 2)),
                1: TerminalNode((F(2), F(0))),
                2: TerminalNode((F(2), F(5))),
            },
        )
        assert constrained_spe(t, (0, 0)) == {0: 1}

    def test_deep_chain(self):
        # 1,500 decisions in a row: each mover may stop at a side leaf that
        # pays the mover 5 but leaves the other player below the outside
        # option, or pass on toward the final leaf (1, 1).
        depth = 1500
        nodes = {2 * depth: TerminalNode((F(1), F(1)))}
        for i in range(depth):
            mover = i % 2
            side = (F(5), F(-1)) if mover == 0 else (F(-1), F(5))
            nodes[2 * i] = InternalNode(mover, (2 * i + 1, 2 * i + 2))
            nodes[2 * i + 1] = TerminalNode(side)
        t = GameTree(["one", "two"], nodes)
        assert len(t.nodes) == 3001
        choices = constrained_spe(t, (0, 0))
        assert choices == {2 * i: 2 * i + 2 for i in range(depth)}
        assert play(t, choices) == (F(1), F(1))

    def test_leaf_only_empty_profile(self):
        t = GameTree(["one", "two"], {0: TerminalNode((F(2), F(0)))})
        assert constrained_spe(t, (0, 0)) == {}


class TestRandomTrees:
    def test_presence_iff_admissible(self):
        rng = random.Random(107)
        present = absent = 0
        for _ in range(120):
            t = random_tree(rng)
            outs = tuple(rng.randint(-2, 3) for _ in t.players)
            choices = constrained_spe(t, outs)
            if is_admissible(t, outs):
                assert choices is not None
                present += 1
            else:
                assert choices is None
                absent += 1
        assert present > 10 and absent > 10

    def test_outcome_dominates_outs(self):
        rng = random.Random(109)
        for _ in range(80):
            t = random_tree(rng)
            outs = tuple(rng.randint(-2, 3) for _ in t.players)
            choices = constrained_spe(t, outs)
            if choices is None:
                continue
            outcome = play(t, choices)
            assert all(p >= F(o) for p, o in zip(outcome, outs))

    def test_brute_force_equilibrium(self):
        rng = random.Random(113)
        checked = 0
        for _ in range(120):
            t = random_tree(rng)
            if profile_count(t) > 64:
                continue
            outs = tuple(rng.randint(-2, 3) for _ in t.players)
            choices = constrained_spe(t, outs)
            if choices is None:
                continue
            assert is_constrained_equilibrium(t, choices, outs)
            checked += 1
        assert checked > 25

    def test_subgame_property(self):
        rng = random.Random(127)
        checked = 0
        for _ in range(60):
            t = random_tree(rng)
            if profile_count(t) > 64:
                continue
            outs = tuple(rng.randint(-2, 3) for _ in t.players)
            choices = constrained_spe(t, outs)
            if choices is None:
                continue
            for nid in t.internal_ids():
                sub = subtree_nodes(t, nid)
                sub_terminals = [
                    t.nodes[x] for x in sub if isinstance(t.nodes[x], TerminalNode)
                ]
                admissible = any(
                    all(p >= F(o) for p, o in zip(term.payoffs, outs))
                    for term in sub_terminals
                )
                if admissible:
                    assert is_constrained_equilibrium(t, choices, outs, start=nid)
                    checked += 1
        assert checked > 25


class TestValidation:
    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            GameTree(
                ["one"],
                {0: InternalNode(0, (1,)), 1: InternalNode(0, (0,))},
            )

    def test_shared_child_rejected(self):
        with pytest.raises(TreeError):
            GameTree(
                ["one"],
                {
                    0: InternalNode(0, (1, 1)),
                    1: TerminalNode((F(1),)),
                },
            )

    def test_missing_child_rejected(self):
        with pytest.raises(TreeError):
            GameTree(["one"], {0: InternalNode(0, (1,))})

    def test_childless_internal_rejected(self):
        with pytest.raises(TreeError):
            GameTree(["one"], {0: InternalNode(0, ())})

    def test_payoff_arity_rejected(self):
        with pytest.raises(TreeError):
            GameTree(["one", "two"], {0: TerminalNode((F(1),))})

    def test_unreachable_node_rejected(self):
        with pytest.raises(TreeError):
            GameTree(
                ["one"],
                {0: TerminalNode((F(1),)), 5: TerminalNode((F(2),))},
            )

    def test_unknown_player_rejected(self):
        with pytest.raises(TreeError):
            GameTree(
                ["one"],
                {0: InternalNode(3, (1,)), 1: TerminalNode((F(1),))},
            )

    def test_play_needs_choices(self):
        t = two_branch_tree()
        with pytest.raises(TreeError):
            play(t, {})
        with pytest.raises(TreeError):
            play(t, {0: 4})
