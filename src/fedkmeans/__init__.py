"""Federated K-means clustering via dual decomposition.

The package splits a K-means training set across several nodes, couples the
per-node cluster centroids through linear-chain consensus constraints, and
optimizes the resulting concave dual function with a subgradient method, a
bundle trust method, or quasi-Newton dual ascent.  Each node solves its
Lagrangian clustering subproblem exactly by branch-and-bound, so every dual
value is a proven lower bound and the reported duality gaps are certificates.
"""

from .core import (
    BoundingBox,
    ConsensusTopology,
    NodeDataset,
    ProblemInstance,
    apply_coupling,
    apply_coupling_adjoint,
    primal_residual,
    read_instance,
    write_instance,
)
from .subsolver import (
    LagrangianSubproblem,
    NodeLimitExceeded,
    SubproblemSolution,
    brute_force_subproblem,
    lloyd_incumbent,
    relabel_to_reference,
    solve_subproblem,
    suffix_lower_bounds,
)
from .master import (
    Bundle,
    BundleEntry,
    MasterSolution,
    TrustRegionProblem,
    bfgs_update,
    btm_direction,
    bundle_push,
    linearization_errors,
    qnda_update,
    sg_update,
    solve_trust_region_qp,
    step_size,
)
from .coordinator import (
    InProcessBackend,
    IterationRecord,
    RunConfig,
    RunResult,
    central_solve,
    modeled_computation_time,
    relative_duality_gap,
    run,
)
from .bench import BenchmarkSpec, generate_grid, generate_instance

__all__ = [
    "BoundingBox",
    "ConsensusTopology",
    "NodeDataset",
    "ProblemInstance",
    "apply_coupling",
    "apply_coupling_adjoint",
    "primal_residual",
    "read_instance",
    "write_instance",
    "LagrangianSubproblem",
    "NodeLimitExceeded",
    "SubproblemSolution",
    "brute_force_subproblem",
    "lloyd_incumbent",
    "relabel_to_reference",
    "solve_subproblem",
    "suffix_lower_bounds",
    "Bundle",
    "BundleEntry",
    "MasterSolution",
    "TrustRegionProblem",
    "bfgs_update",
    "btm_direction",
    "bundle_push",
    "linearization_errors",
    "qnda_update",
    "sg_update",
    "solve_trust_region_qp",
    "step_size",
    "InProcessBackend",
    "IterationRecord",
    "RunConfig",
    "RunResult",
    "central_solve",
    "modeled_computation_time",
    "relative_duality_gap",
    "run",
    "BenchmarkSpec",
    "generate_grid",
    "generate_instance",
]
