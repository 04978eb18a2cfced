"""Joint survival probabilities of cumulated multinomial components.

Four mathematically equivalent evaluation routes for
``P(X_1 + ... + X_i >= kappa_i for all i)`` with ``X ~ Multinomial(n, p)``:
an exact sequential-binomial recursion, a Dirichlet-type integral over a nested region,
an equivalent Gaussian integral with exact exponential corrections, and
order-statistics Monte Carlo.  The expansions module exposes every scalar
building block of the Gaussian representation, and the checks module turns
the underlying algebraic identities into a runnable verification suite.
"""

from .model import (
    ProbabilityWeights,
    SurvivalInstance,
    build_instance,
    instance_with_weights,
    make_weights,
    reduce_thresholds,
)
from .covariance import (
    log_mvn_density,
    quad_form,
    sigma_inverse_matrix,
    sigma_matrix,
)
from .expansions import (
    ExpansionContext,
    capital_lambda,
    delta_n,
    dirichlet_factors,
    entropy_lhs,
    expansion_context,
    gamma_star,
    gamma_tilde,
    gamma_tilde_series,
    gaussian_factors,
    h_grad,
    h_hessian,
    h_value,
    log_dirichlet_integrand,
    log_factorial,
    log_gaussian_integrand,
    quadratic_cancellation_residual,
    stirling_lambda,
)
from .quadrature import (
    ChainFactors,
    CostGuardError,
    QuadratureSpec,
    integrate_chain,
    integrate_region,
    legendre_rule,
)
from .survival import (
    McResult,
    RouteReport,
    compare_batch,
    compare_routes,
    survival_dirichlet,
    survival_exact,
    survival_gaussian,
    survival_mc,
)
from .checks import CheckResult, run_check_suite

__version__ = "0.1.0"

__all__ = [
    "ProbabilityWeights",
    "SurvivalInstance",
    "build_instance",
    "instance_with_weights",
    "make_weights",
    "reduce_thresholds",
    "sigma_matrix",
    "sigma_inverse_matrix",
    "quad_form",
    "log_mvn_density",
    "ExpansionContext",
    "expansion_context",
    "stirling_lambda",
    "log_factorial",
    "capital_lambda",
    "gamma_tilde",
    "gamma_tilde_series",
    "quadratic_cancellation_residual",
    "delta_n",
    "gamma_star",
    "entropy_lhs",
    "h_value",
    "h_grad",
    "h_hessian",
    "log_dirichlet_integrand",
    "log_gaussian_integrand",
    "ChainFactors",
    "dirichlet_factors",
    "gaussian_factors",
    "QuadratureSpec",
    "CostGuardError",
    "legendre_rule",
    "integrate_chain",
    "integrate_region",
    "McResult",
    "RouteReport",
    "survival_exact",
    "survival_dirichlet",
    "survival_gaussian",
    "survival_mc",
    "compare_routes",
    "compare_batch",
    "CheckResult",
    "run_check_suite",
    "__version__",
]
