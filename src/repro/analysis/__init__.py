"""Analysis toolkit: product measures and statistics."""

from repro.analysis.product_measure import (CoordinateDistribution,
                                            ProductDistribution,
                                            TalagrandCheck, distance_to_set,
                                            hamming, set_to_set_distance,
                                            verify_talagrand,
                                            verify_two_set_bound)
from repro.analysis.statistics import (ExponentialFit, TrialSummary,
                                       empirical_probability,
                                       fit_exponential, format_table,
                                       geometric_mean, summarize_trials)

__all__ = [
    "CoordinateDistribution",
    "ProductDistribution",
    "TalagrandCheck",
    "distance_to_set",
    "hamming",
    "set_to_set_distance",
    "verify_talagrand",
    "verify_two_set_bound",
    "ExponentialFit",
    "TrialSummary",
    "empirical_probability",
    "fit_exponential",
    "format_table",
    "geometric_mean",
    "summarize_trials",
]
