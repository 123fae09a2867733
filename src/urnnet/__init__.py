"""Interacting two-colour urns on finite directed graphs.

Simulation of the draw-and-reinforce process, closed-form predictions for
its consensus and fluctuation behaviour, and seeded Monte Carlo machinery
to verify the two against each other.
"""

__version__ = "0.1.28"

from .dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    default_initial_state,
    make_stream,
    run_trajectory,
    step,
)
from .graph import FAMILIES, DirectedGraph, generate_graph
from .montecarlo import (
    EnsembleResult,
    ExactLaw,
    brute_force_distribution,
    exact_law,
    oracle_check,
    run_ensemble,
)
from .theory import (
    Fluctuations,
    TheoryReport,
    consensus_equilibrium,
    fluctuations,
    heterogeneous_limit,
    influence_threshold,
    noise_variance_c,
    polya_rate_class,
    predict,
)

__all__ = [
    "__version__",
    "DirectedGraph",
    "FAMILIES",
    "generate_graph",
    "ReplacementMatrix",
    "HeterogeneousScheme",
    "UrnState",
    "default_initial_state",
    "make_stream",
    "step",
    "run_trajectory",
    "EnsembleResult",
    "run_ensemble",
    "ExactLaw",
    "exact_law",
    "brute_force_distribution",
    "oracle_check",
    "TheoryReport",
    "predict",
    "consensus_equilibrium",
    "noise_variance_c",
    "Fluctuations",
    "fluctuations",
    "polya_rate_class",
    "heterogeneous_limit",
    "influence_threshold",
]
