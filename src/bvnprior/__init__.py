"""Objective Bayesian inference for the bivariate normal under the
probability-matching prior proportional to 1 / (theta * eta).

The package works in the orthogonal parameterization (mu1, mu2, beta,
theta, eta) of the bivariate normal, where beta is the regression slope
of X2 on X1, theta is the square root of the covariance determinant, and
eta is the conditional sd of X2 given X1 divided by the sd of X1. Under
the prior 1/(theta eta) the marginal posteriors of beta, theta, the
precision w = 1/theta, and eta are available in closed form, and
credible intervals for all three orthogonal parameters have frequentist
coverage matching their credibility level.

Main entry points:

- model: parameterizations, densities, sampling, sufficient statistics
- posterior: exact marginal posterior distributions
- interval: HPD, equal-tailed, and one-sided credible intervals
- matching: the differential matching conditions and moment identities
  the prior satisfies, with numerical verifiers
- coverage: frequentist coverage simulation over a (rho, n) grid
- cli: the `bvnprior` command-line tool
"""

from .coverage import (
    DEFAULT_SEED,
    CellResult,
    CoverageCellSpec,
    CoverageReport,
    ks_uniformity,
    run_cell,
    run_table,
)
from .errors import (
    BracketError,
    BvnPriorError,
    DegenerateDataError,
    DomainError,
    NumericalError,
)
from .interval import (
    CredibleInterval,
    equal_tailed,
    hpd_beta,
    hpd_unimodal,
    one_sided,
)
from .matching import (
    CONDITION_IDS,
    CONDITIONS,
    FLAT_PRIOR,
    MATCHING_PRIOR,
    ExpectationCheck,
    GridSpec,
    MatchingCondition,
    PriorSpec,
    ResidualReport,
    pde_residual,
    verify_prior,
    verify_score_moments,
)
from .model import (
    FisherInfo,
    OriginalParams,
    OrthogonalParams,
    SufficientStats,
    fisher_information,
    log_density,
    log_density_partial,
    read_dataset,
    sample,
    sufficient_stats,
    to_original,
    to_orthogonal,
    write_dataset,
)
from .posterior import (
    BetaPosterior,
    EtaPosterior,
    PosteriorDistribution,
    PrecisionPosterior,
    ThetaPosterior,
    beta_posterior,
    eta_posterior,
    precision_posterior,
    theta_posterior,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BvnPriorError",
    "DomainError",
    "DegenerateDataError",
    "BracketError",
    "NumericalError",
    # model
    "OriginalParams",
    "OrthogonalParams",
    "FisherInfo",
    "SufficientStats",
    "to_orthogonal",
    "to_original",
    "fisher_information",
    "log_density",
    "log_density_partial",
    "sample",
    "sufficient_stats",
    "write_dataset",
    "read_dataset",
    # posterior
    "PosteriorDistribution",
    "BetaPosterior",
    "ThetaPosterior",
    "PrecisionPosterior",
    "EtaPosterior",
    "beta_posterior",
    "theta_posterior",
    "precision_posterior",
    "eta_posterior",
    # interval
    "CredibleInterval",
    "hpd_beta",
    "hpd_unimodal",
    "equal_tailed",
    "one_sided",
    # matching
    "PriorSpec",
    "MATCHING_PRIOR",
    "FLAT_PRIOR",
    "GridSpec",
    "MatchingCondition",
    "CONDITIONS",
    "CONDITION_IDS",
    "ResidualReport",
    "pde_residual",
    "verify_prior",
    "ExpectationCheck",
    "verify_score_moments",
    # coverage
    "DEFAULT_SEED",
    "CoverageCellSpec",
    "CellResult",
    "CoverageReport",
    "run_cell",
    "run_table",
    "ks_uniformity",
]
