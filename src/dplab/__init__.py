"""dplab: Dirichlet-process sampling and large-concentration limit checks.

The package samples Ferguson Dirichlet processes through three exact
representations (finite-dimensional Dirichlet marginals, truncated
stick-breaking, and quantiles by dyadic Beta bisection), builds the limiting
objects (Brownian-bridge and quantile-process covariances, bivariate
Gaussian cell density), and verifies the convergence statements by seeded
Monte Carlo against closed-form targets.
"""

from .dp_core import (
    BaseMeasure,
    BorelSet,
    DpSample,
    TruncationPolicy,
    bisection_quantiles,
    dp_cdf,
    dp_cross_moment,
    dp_moments,
    dp_quantile,
    exponential_base,
    normal_base,
    posterior_mean,
    sample_fidi,
    stick_breaking_sample,
    uniform_base,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DplabError,
)
from .harness import (
    ExperimentConfig,
    RunReport,
    emit_report,
    load_config,
    run_experiment,
    validate_config,
)
from .processes import (
    bb_cov,
    bivariate_density_integral,
    limit_bivariate_density,
    limit_quantile_cov,
    scaled_bivariate_density,
    tv_distance_bivariate,
)
from .rvgen import (
    RngStream,
    sample_beta,
    sample_dirichlet,
)
from .verify import (
    Comparison,
    LevelCheck,
    McSummary,
    cvm_deviation,
    density_convergence_study,
    donoho_liu_bounds,
    fidi_normality_check,
    gc_study,
    moment_check,
    modulus_check,
    posterior_check,
    quantile_limit_study,
    quantile_sampler_check,
    representation_check,
    sup_deviation,
)

__version__ = "0.1.0"
