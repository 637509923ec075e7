"""Matching games: two-sided markets where couples play a game.

A matching profile pairs agents and fixes one contract (a strategy
pair with its payoffs) per couple.  The library computes externally
stable profiles by propose-dispose with a margin, refines them to
internally stable ones through constrained equilibria, and ships
brute-force oracles, classical-model adapters, a lattice join, and an
extensive-form solver alongside.
"""

from .rational import NEG_INF, POS_INF, Rational, fmt, rat
from .games import (
    BimatrixGame,
    Contract,
    Game,
    GameError,
    Instance,
    LevelGame,
    PiecewiseLinear,
    PotentialGame,
    RepeatedGame,
    Side,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    build_instance,
    feasible_payoff_hull,
    punishment_levels,
    validate_potential,
    zero_sum_value,
)
from .stability import (
    SINGLE,
    BlockingPair,
    DeviationWitness,
    MatchingError,
    MatchingProfile,
    StabilityReport,
    find_blocking_pair,
    is_externally_stable,
    is_individually_rational,
    is_internally_stable,
    is_nash_stable,
    is_stable_variant,
    man_payoff,
    validate_profile,
    woman_payoff,
)
from .propose import MarketState, run_propose_dispose, run_with_vanishing_margin
from .cne import (
    CnePolicy,
    CneResult,
    OutsideOptions,
    is_cne,
    is_feasible,
    outside_options,
    repeated_cne_payoff,
    solve_cne,
)
from .refine import RefineResult, RefineStatus, refine
from .lattice import extremal_profile, genericity_holds, join, meet_competitive
from .extensive import (
    GameTree,
    InternalNode,
    TerminalNode,
    TreeError,
    constrained_spe,
    is_admissible,
    play,
)
from .oracle import (
    OracleCapError,
    brute_force_cne,
    count_profiles,
    enumerate_matchings,
    enumerate_profiles,
    enumerate_stable,
    pareto_frontier,
)
from .adapters import (
    EMPTY_CONTRACT,
    from_gale_demange,
    from_hatfield_milgrom,
    from_ordinal,
    from_shapley_shubik,
    hm_stable_allocation,
)
from .serde import (
    SchemaError,
    dump_instance,
    dump_profile,
    load_instance_file,
    load_model_file,
    load_profile_file,
    load_tree_file,
    parse_instance,
    parse_model,
    parse_profile,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
