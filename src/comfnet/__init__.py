"""comfnet: comfortable-team analysis for connected networks.

Hop metrics and graph machinery live in :mod:`comfnet.graphs`, the team
predicates in :mod:`comfnet.criteria`, the HICOM construction heuristic in
:mod:`comfnet.hicom`, exhaustive ground truth in :mod:`comfnet.oracle`,
corpora in :mod:`comfnet.corpus`, and the CLI in :mod:`comfnet.cli`.
"""

from .criteria import (
    TeamCandidate,
    TeamReport,
    as_fraction,
    bc_target,
    check_bc,
    check_hc,
    domination_radius,
    is_comfortable,
    is_dominating,
    is_less_dispersive,
)
from .generators import (
    complete_graph,
    connected_gnp,
    cycle_graph,
    enumerate_trees,
    generate,
    gnp,
    path_graph,
    random_tree,
    star_graph,
)
from .graphs import (
    EccentricityProfile,
    EdgeListParseError,
    Graph,
    UNREACHABLE,
    all_pairs_distances,
    eccentricity_profile,
    graph_digest,
    graph_power,
    induced_subgraph,
    parse_edge_list,
    serialize_edge_list,
    to_dot,
)
from .hicom import (
    BoundCheck,
    DegenerateParams,
    FeasibilityPrediction,
    HicomError,
    HicomResult,
    NoFeasibleTeam,
    RepairFailed,
    TraceStep,
    extend_step,
    extend_to_max,
    hicom,
    repair,
    replay_trace,
    self_centered_direct_substitution,
    small_diameter_fallback,
    two_hc_feasibility,
    verify_k_bound,
)
from .oracle import (
    OracleAnswer,
    RatioRecord,
    bound_sweep,
    exact_max_team,
    exact_min_cds,
    exact_min_team,
    ratio_experiment,
    reduction_witness,
)

__version__ = "0.1.0"
