"""Perfect-information game trees with outside options.

A tree game is admissible when some terminal payoff vector weakly
dominates every player's outside option.  Backward induction with a
constrained decision rule (prefer children whose induced outcome keeps
everyone at or above their outside option, maximize own payoff within
that pool) produces a profile that is a constrained equilibrium in
every admissible subgame; it exists exactly when the game is
admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .rational import rat


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class TerminalNode:
    payoffs: Tuple[Fraction, ...]


@dataclass(frozen=True)
class InternalNode:
    player: int
    children: Tuple[int, ...]


TreeNode = Union[TerminalNode, InternalNode]


class GameTree:
    """Finite rooted tree; every node is stored in an arena by id."""

    def __init__(self, players: Sequence[str], nodes: Mapping[int, TreeNode], root: int = 0):
        self.players = tuple(players)
        self.nodes: Dict[int, TreeNode] = dict(nodes)
        self.root = root
        if not self.players:
            raise TreeError("at least one player required")
        if root not in self.nodes:
            raise TreeError("root node missing")
        seen = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise TreeError(f"node {nid} reachable twice; not a tree")
            seen.add(nid)
            node = self.nodes.get(nid)
            if node is None:
                raise TreeError(f"child {nid} not defined")
            if isinstance(node, InternalNode):
                if not node.children:
                    raise TreeError(f"internal node {nid} has no children")
                if not 0 <= node.player < len(self.players):
                    raise TreeError(f"node {nid} owned by unknown player {node.player}")
                stack.extend(node.children)
            elif isinstance(node, TerminalNode):
                if len(node.payoffs) != len(self.players):
                    raise TreeError(f"terminal {nid} needs one payoff per player")
            else:
                raise TreeError(f"node {nid} has unknown type")
        if seen != set(self.nodes):
            raise TreeError("unreachable nodes present")

    def terminals(self) -> List[TerminalNode]:
        return [n for n in self.nodes.values() if isinstance(n, TerminalNode)]

    def internal_ids(self) -> List[int]:
        return [nid for nid, n in self.nodes.items() if isinstance(n, InternalNode)]


def _parse_outs(tree: GameTree, outs) -> Tuple[Fraction, ...]:
    parsed = tuple(rat(x) for x in outs)
    if len(parsed) != len(tree.players):
        raise TreeError("one outside option per player required")
    return parsed


def is_admissible(tree: GameTree, outs) -> bool:
    """Some terminal weakly dominates every player's outside option."""
    parsed = _parse_outs(tree, outs)
    return any(
        all(p >= o for p, o in zip(t.payoffs, parsed)) for t in tree.terminals()
    )


def constrained_spe(tree: GameTree, outs) -> Optional[Dict[int, int]]:
    """Backward-induction profile respecting the outside options.

    Returns a map from internal node id to the chosen child id, or None
    when the game is not admissible.  At each node the owner prefers
    children whose induced outcome keeps all players at or above their
    outside options and maximizes own payoff within that pool (whole
    pool when empty); ties pick the lowest-index child.
    """
    parsed = _parse_outs(tree, outs)
    if not is_admissible(tree, parsed):
        return None
    choices: Dict[int, int] = {}
    outcomes: Dict[int, Tuple[Fraction, ...]] = {}
    # Post-order walk on an explicit stack, so depth is not bounded by the
    # recursion limit; children are pushed reversed, so nodes are decided
    # children first, left to right.
    stack = [(tree.root, False)]
    while stack:
        nid, expanded = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            outcomes[nid] = node.payoffs
            continue
        if not expanded:
            stack.append((nid, True))
            stack.extend((cid, False) for cid in reversed(node.children))
            continue
        child_outcomes = [(cid, outcomes[cid]) for cid in node.children]
        admissible = [
            (cid, out)
            for cid, out in child_outcomes
            if all(p >= o for p, o in zip(out, parsed))
        ]
        pool = admissible if admissible else child_outcomes
        best_cid, best_out = pool[0]
        for cid, out in pool[1:]:
            if out[node.player] > best_out[node.player]:
                best_cid, best_out = cid, out
        choices[nid] = best_cid
        outcomes[nid] = best_out
    return choices


def play(tree: GameTree, choices: Mapping[int, int], start: Optional[int] = None) -> Tuple[Fraction, ...]:
    """Follow a choice map from a node (default the root) to its outcome."""
    nid = tree.root if start is None else start
    while True:
        node = tree.nodes[nid]
        if isinstance(node, TerminalNode):
            return node.payoffs
        if nid not in choices:
            raise TreeError(f"no choice recorded at internal node {nid}")
        nxt = choices[nid]
        if nxt not in node.children:
            raise TreeError(f"choice at node {nid} is not one of its children")
        nid = nxt
