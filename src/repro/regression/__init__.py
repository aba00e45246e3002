"""The Nadaraya–Watson estimator the selected bandwidth feeds."""

from repro.regression.nadaraya_watson import NadarayaWatson, nw_estimate

__all__ = [
    "NadarayaWatson",
    "nw_estimate",
]
