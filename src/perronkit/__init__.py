"""perronkit: Perron eigenpairs, M-matrix solvers, and RCDD scalings.

A sparse numerical library for nonnegative matrices: certified spectral
radius estimates with positive approximate eigenvectors, diagonal scalings
that make shifted M-matrices row-column diagonally dominant, linear solvers
built on those scalings, and four applications (Katz centrality, Leontief
equilibrium, top singular triplets, random-walk graph kernels), together
with dense brute-force oracles for verification.
"""

__version__ = "0.1.0"

from .errors import (
    BackendDiverged,
    BoundaryUndecidable,
    DecayTooLarge,
    IterationCapHit,
    KCapExceeded,
    KernelDiverges,
    MatrixMarketParseError,
    NoConvergence,
    NotIrreducible,
    NotRCDD,
    NotSDD,
    NotSDDAfterScaling,
    PerronKitError,
    ReducibleGram,
    RoundingFloorHit,
    Singular,
)
from .reports import PhaseLog, SolveReport
from .sparse import (
    NormReport,
    SparseMatrix,
    apply_scaling,
    check_rcdd,
    check_sdd,
    induced_norms,
    is_irreducible,
    load_matrix,
    load_vector,
    matvec,
    save_vector,
    shifted_m_matrix,
)
from .rcdd import (
    LinearOperator,
    build_rcdd_solver,
    build_sdd_solver,
    varah_kappa_upper,
)
from .scaling import (
    MSolveOperators,
    RichardsonConfig,
    ScalingPair,
    expected_phase_count,
    factor_width2_solve,
    mmatrix_scale,
    prec_richardson,
    scaling_iteration_cap,
    solve_from_scale,
    solve_m,
    symm_scale,
    symm_solve,
)
from .perron import (
    DecisionOutcome,
    PerronCertificate,
    Verdict,
    certify_spectral_bound,
    collatz_wielandt_bounds,
    compute_perron,
    find_perron_value,
    m_decide,
    simple_perron,
)
from .apps import (
    LabeledGraph,
    ProductWeights,
    SingularTriplet,
    graph_kernel,
    indicator_similarity,
    katz_centrality,
    leontief_equilibrium,
    load_labeled_graph,
    product_graph,
    top_singular,
)
from . import oracle

__all__ = [
    "__version__",
    "oracle",
    # errors
    "PerronKitError",
    "MatrixMarketParseError",
    "NotRCDD",
    "NotSDD",
    "BackendDiverged",
    "IterationCapHit",
    "RoundingFloorHit",
    "NotIrreducible",
    "KCapExceeded",
    "DecayTooLarge",
    "KernelDiverges",
    "ReducibleGram",
    "NotSDDAfterScaling",
    "Singular",
    "NoConvergence",
    "BoundaryUndecidable",
    # reports
    "SolveReport",
    "PhaseLog",
    # sparse core
    "SparseMatrix",
    "NormReport",
    "load_matrix",
    "load_vector",
    "save_vector",
    "matvec",
    "induced_norms",
    "is_irreducible",
    "check_rcdd",
    "check_sdd",
    "apply_scaling",
    "shifted_m_matrix",
    # solvers
    "LinearOperator",
    "build_rcdd_solver",
    "build_sdd_solver",
    "varah_kappa_upper",
    # scaling
    "ScalingPair",
    "MSolveOperators",
    "RichardsonConfig",
    "prec_richardson",
    "solve_from_scale",
    "mmatrix_scale",
    "solve_m",
    "symm_scale",
    "symm_solve",
    "factor_width2_solve",
    "scaling_iteration_cap",
    "expected_phase_count",
    # perron
    "Verdict",
    "DecisionOutcome",
    "PerronCertificate",
    "m_decide",
    "find_perron_value",
    "simple_perron",
    "compute_perron",
    "collatz_wielandt_bounds",
    "certify_spectral_bound",
    # applications
    "LabeledGraph",
    "ProductWeights",
    "SingularTriplet",
    "katz_centrality",
    "leontief_equilibrium",
    "top_singular",
    "product_graph",
    "graph_kernel",
    "indicator_similarity",
    "load_labeled_graph",
]
