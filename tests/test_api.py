"""The public surface, pinned so that any addition or removal shows in a diff."""

import argparse

import matchgames
from matchgames import CnePolicy
from matchgames.cli import _build_parser

PUBLIC_NAMES = [
    "BimatrixGame",
    "BlockingPair",
    "CnePolicy",
    "CneResult",
    "Contract",
    "DeviationWitness",
    "EMPTY_CONTRACT",
    "Game",
    "GameError",
    "GameTree",
    "Instance",
    "InternalNode",
    "LevelGame",
    "MarketState",
    "MatchingError",
    "MatchingProfile",
    "NEG_INF",
    "OracleCapError",
    "OutsideOptions",
    "POS_INF",
    "PiecewiseLinear",
    "PotentialGame",
    "Rational",
    "RefineResult",
    "RefineStatus",
    "RepeatedGame",
    "SINGLE",
    "SchemaError",
    "Side",
    "StabilityReport",
    "StrictlyCompetitiveGame",
    "TerminalNode",
    "TransferGame",
    "TreeError",
    "ZeroSumGame",
    "adapters",
    "brute_force_cne",
    "build_instance",
    "cne",
    "constrained_spe",
    "count_profiles",
    "dump_instance",
    "dump_profile",
    "enumerate_matchings",
    "enumerate_profiles",
    "enumerate_stable",
    "exactlp",
    "extensive",
    "extremal_profile",
    "feasible_payoff_hull",
    "find_blocking_pair",
    "fmt",
    "from_gale_demange",
    "from_hatfield_milgrom",
    "from_ordinal",
    "from_shapley_shubik",
    "games",
    "genericity_holds",
    "geometry",
    "hm_stable_allocation",
    "is_admissible",
    "is_cne",
    "is_externally_stable",
    "is_feasible",
    "is_individually_rational",
    "is_internally_stable",
    "is_nash_stable",
    "is_stable_variant",
    "join",
    "lattice",
    "load_instance_file",
    "load_model_file",
    "load_profile_file",
    "load_tree_file",
    "man_payoff",
    "meet_competitive",
    "oracle",
    "outside_options",
    "pareto_frontier",
    "parse_instance",
    "parse_model",
    "parse_profile",
    "parse_tree",
    "play",
    "propose",
    "punishment_levels",
    "rat",
    "rational",
    "refine",
    "repeated_cne_payoff",
    "run_propose_dispose",
    "run_with_vanishing_margin",
    "serde",
    "solve_cne",
    "stability",
    "validate_potential",
    "validate_profile",
    "woman_payoff",
    "zero_sum_value",
]


def test_public_names():
    assert sorted(matchgames.__all__) == PUBLIC_NAMES


def test_cne_policies():
    assert [(p.name, p.value) for p in CnePolicy] == [
        ("AUTO", "auto"),
        ("MAX_POTENTIAL", "max-potential"),
    ]


def test_solve_stable_policy_choices():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    solve_stable = commands.choices["solve-stable"]
    policy = next(a for a in solve_stable._actions if a.dest == "policy")
    assert (policy.choices, policy.default) == (["auto", "max-potential"], "auto")
