"""Asymptotic (AMISE) bandwidth theory."""

from repro.theory.amise import (
    gaussian_reference_kde_bandwidth,
    kde_amise_bandwidth,
    regression_amise_bandwidth,
    roughness_of,
)

__all__ = [
    "gaussian_reference_kde_bandwidth",
    "kde_amise_bandwidth",
    "regression_amise_bandwidth",
    "roughness_of",
]
