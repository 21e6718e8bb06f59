"""qccheck: exact-arithmetic verification of finite decision problems.

Given an ordered finite action set and a rational payoff matrix over states,
the toolkit decides, over the entire belief simplex and with no numerical
tolerance anywhere:

* whether every belief yields a unimodal expected-payoff sequence,
* whether the optimal-action set is contiguous at every belief,
* which actions survive iterated weak-dominance elimination, with interior
  unique-optimality witnesses for all survivors,
* the nesting structure of adjacent-comparison halfspaces,
* the local single-crossing property of payoff increments, before and after
  the canonical state relabeling.

Every verdict carries either a certificate or an exactly substitutable
counterexample, and independent brute-force oracles cross-check the solver.
"""

from .errors import InternalInvariantError
from .problems import (
    Belief,
    DecisionProblem,
    DifferenceVector,
    PolynomialProblem,
    as_fraction,
    is_contiguous,
    is_quasi_monotone,
    is_unimodal,
)
from .exactlp import (
    LinearRow,
    LinearSystem,
    LPResult,
    LPStatus,
    solve,
    strict_feasible,
)
from .dominance import (
    EliminationReport,
    RemovedAction,
    iterated_elimination,
    mixed_dominance_certificate,
    unique_optimality_witness,
)
from .qcc import QccCounterexample, QccVerdict, check_qcc, unimodality_profile
from .geometry import (
    ConvexityCounterexample,
    ConvexityVerdict,
    NestingFailure,
    NestingReport,
    RegionFailure,
    check_argmax_convexity,
    check_nesting,
    indifference_hyperplane,
)
from .lsc import (
    LscVerdict,
    Relabeling,
    check_lsc,
    difference_vectors,
    lowest_optimal_action,
    relabel_for_lsc,
)
from .oracle import (
    GridSpec,
    SplitMix64,
    exact_check_two_state,
    find_grid_dip,
    find_grid_gap,
    grid_beliefs,
    random_problem,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "ConvexityCounterexample",
    "ConvexityVerdict",
    "DecisionProblem",
    "DifferenceVector",
    "EliminationReport",
    "GridSpec",
    "InternalInvariantError",
    "LPResult",
    "LPStatus",
    "LinearRow",
    "LinearSystem",
    "LscVerdict",
    "NestingFailure",
    "NestingReport",
    "PolynomialProblem",
    "QccCounterexample",
    "QccVerdict",
    "RegionFailure",
    "Relabeling",
    "RemovedAction",
    "SplitMix64",
    "as_fraction",
    "check_argmax_convexity",
    "check_lsc",
    "check_nesting",
    "check_qcc",
    "difference_vectors",
    "exact_check_two_state",
    "find_grid_dip",
    "find_grid_gap",
    "grid_beliefs",
    "indifference_hyperplane",
    "is_contiguous",
    "is_quasi_monotone",
    "is_unimodal",
    "iterated_elimination",
    "lowest_optimal_action",
    "mixed_dominance_certificate",
    "random_problem",
    "relabel_for_lsc",
    "solve",
    "strict_feasible",
    "unimodality_profile",
    "unique_optimality_witness",
]
