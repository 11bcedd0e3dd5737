"""Nonlocal dispersal logistic equation: discretization, branches, bounds.

The package discretizes the dispersal operator L0 u(x) = integral of
K(x, y) u(y) dy by Nystrom quadrature, computes its principal eigenpair,
traces the branch of positive steady states of L0 u + Phi_u u = lambda u
bifurcating at the principal eigenvalue, solves the regularized weight
family and its vanishing-regularization limit, and verifies every
quantitative bound along the way.
"""

from .continuation import (
    Branch,
    BranchPoint,
    ContinuationConfig,
    ContinuationError,
    StepFailure,
    newton_correct,
    seed_branch,
    solve_at_lambda,
    trace_branch,
)
from .geometry import (
    RULES,
    Domain,
    GeometryError,
    QuadratureGrid,
    build_grid,
    cover,
)
from .logistic import (
    JacobianAction,
    Reaction,
    ReactionError,
    phi,
    reaction,
    residual,
)
from .model import (
    FloorReport,
    HypothesisReport,
    KernelSpec,
    Kron,
    LowRank,
    ModelError,
    Toeplitz,
    WeightSpec,
    build_a_eps,
    build_q_eps,
    certify,
    check_weight_floor,
    eps_ceiling,
)
from .operator import (
    DiscreteOperator,
    OperatorError,
    PrincipalEigenpair,
    assemble,
    principal_eigenpair,
)
from .regularized import (
    EXTRAPOLATION_METHODS,
    RegularizedError,
    RegularizedRun,
    limit_procedure,
    near_center_mass_bound,
    theta_margin,
)
from .verification import BoundReport, verify_branch

__version__ = "0.1.0"
