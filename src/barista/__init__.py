"""Bid arrivals in hard-close online auctions.

A nonhomogeneous Poisson process whose intensity is a power law in the time
remaining, glued from up to three stages: a decaying early rush, a calm
middle, and the final sniping surge.  The package evaluates the process
exactly, samples it exactly, estimates it five ways, selects among the nested
one/two/three-stage families, and ships the goodness-of-fit and bidder-level
simulation tools used to study it.
"""

__version__ = "0.1.0"

from .dataio import (
    MINUTES_PER_UNIT,
    IngestError,
    IngestSpec,
    ingest,
    ingest_summary,
    read_metadata,
    write_qq,
    write_sample,
)
from .diagnostics import (
    KsResult,
    QqData,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    qq_points,
    reverse_time_ecdf,
    self_similarity_ratio,
)
from .estimate import (
    EstimationError,
    FitResult,
    GaConfig,
    QcConfig,
    bootstrap_se,
    default_bounds,
    default_qc_config,
    ecdf,
    estimate_c,
    ga_fit,
    grid_search,
    loglik,
    loglik_gradient,
    loglik_hessian,
    mle_nhpp1,
    profile_fit,
    qc_alpha,
    qc_alpha3_survival,
    qc_changepoints,
    qc_fit,
)
from .process import (
    BaristaParams,
    ModelFamily,
    OneStage,
    ThreeStage,
    TwoStage,
    cdf,
    intensity,
    inverse_cdf,
    mean_count,
    normalization_constant,
    pdf,
    restrict,
    superpose,
)
from .sample import BidSample, pool
from .selection import LrTest, SelectionResult, chi2_sf_2df, lr_statistic, lr_test, select_model
from .simulate import (
    BidderStrategyParams,
    sample_fixed_n,
    sample_geometric_uniform,
    sample_poisson_count,
    simulate_bidder_strategy,
    simulate_single_uniform_bids,
    uniform_rebid_intensity,
)

__all__ = [
    "__version__",
    "BaristaParams", "ModelFamily", "OneStage", "TwoStage", "ThreeStage",
    "intensity", "mean_count", "normalization_constant", "cdf", "pdf",
    "inverse_cdf", "restrict", "superpose",
    "BidSample", "pool",
    "sample_fixed_n", "sample_poisson_count", "sample_geometric_uniform",
    "BidderStrategyParams", "simulate_bidder_strategy",
    "simulate_single_uniform_bids", "uniform_rebid_intensity",
    "EstimationError", "QcConfig", "GaConfig", "FitResult",
    "default_qc_config", "ecdf", "qc_alpha", "qc_alpha3_survival",
    "qc_changepoints", "qc_fit", "loglik", "loglik_gradient", "loglik_hessian",
    "mle_nhpp1", "estimate_c", "grid_search", "ga_fit", "default_bounds",
    "profile_fit", "bootstrap_se",
    "LrTest", "SelectionResult", "lr_statistic", "lr_test", "chi2_sf_2df",
    "select_model",
    "KsResult", "QqData", "kolmogorov_sf", "ks_one_sample", "ks_two_sample",
    "qq_points", "reverse_time_ecdf", "self_similarity_ratio",
    "MINUTES_PER_UNIT", "IngestError", "IngestSpec", "ingest",
    "ingest_summary", "write_sample", "write_qq", "read_metadata",
]
