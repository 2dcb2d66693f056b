"""Non-reconstruction constants for Markov channels on trees.

The library computes the variational constant c(M) whose product with a
tree's branching number decides whether broadcast information survives to
infinite depth, compares it against spectral and two-state bounds, and
verifies the underlying entropy recursion by exact enumeration and Monte
Carlo simulation.
"""

from .bounds import (BoundReport, DELTA2_GRID, FkResult, Verdict, bound_report,
                     fk_criterion, ks_constant, martin_constant, mp_constant,
                     table1)
from .channels import (Channel, as_belief, binary_channel, channel_from_json,
                       channel_to_json, make_channel, permute_channel,
                       potts_channel, second_eigenvalue,
                       stationary_distribution)
from .entropy import relative_entropy, symmetrized_entropy
from .errors import (BadDimension, BadPermutation, CenterSingularity,
                     ChannelError, EnumerationTooLarge, NoConvergence,
                     NonPositiveEntry, NotStochastic, NumericalUnderflow,
                     TreeError, TreeTooLarge)
from .oracle import (BoundaryLaw, RecursionCheck, bayes_vs_recursion,
                     brute_force_boundary_laws, check_lemma1,
                     check_lyapunov_bound, check_main_recursion,
                     check_propagation, enumerate_boundary_laws,
                     enumeration_cross_check, random_suite, run_suite)
from .treesim import (RootEntropyEstimate, SampledTree, TreeSpec,
                      belief_recursion, broadcast, depth_sweep, leaf_beliefs,
                      mc_root_entropy, mc_root_entropy_fixed_tree, sample_tree,
                      tree_from_level_counts)
from .variational import (MethodTrace, OptimizerConfig, VariationalResult,
                          compute_c, near_center_limit, potts_cbar, ratio)

__version__ = "0.1.0"

__all__ = [
    "BadDimension", "BadPermutation", "BoundReport", "BoundaryLaw",
    "CenterSingularity", "Channel", "ChannelError", "DELTA2_GRID",
    "EnumerationTooLarge", "FkResult", "MethodTrace", "NoConvergence",
    "NonPositiveEntry", "NotStochastic", "NumericalUnderflow",
    "OptimizerConfig", "RecursionCheck", "RootEntropyEstimate", "SampledTree",
    "TreeError", "TreeSpec", "TreeTooLarge", "VariationalResult", "Verdict",
    "as_belief", "bayes_vs_recursion", "belief_recursion", "binary_channel",
    "bound_report", "broadcast", "brute_force_boundary_laws",
    "channel_from_json", "channel_to_json", "check_lemma1",
    "check_lyapunov_bound", "check_main_recursion", "check_propagation",
    "compute_c", "depth_sweep", "enumerate_boundary_laws",
    "enumeration_cross_check", "fk_criterion", "ks_constant", "leaf_beliefs",
    "make_channel", "martin_constant", "mc_root_entropy",
    "mc_root_entropy_fixed_tree", "mp_constant", "near_center_limit",
    "permute_channel", "potts_cbar", "potts_channel", "random_suite", "ratio",
    "relative_entropy", "run_suite", "sample_tree",
    "second_eigenvalue", "stationary_distribution", "symmetrized_entropy",
    "table1", "tree_from_level_counts",
]
