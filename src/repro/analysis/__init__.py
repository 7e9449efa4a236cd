"""Data analysis: distribution fitting, histograms, text reports.

Reproduces the paper's Section 5.1 data-study pipeline (Figures 4
and 5) over the synthetic trading day, and provides the tabular
rendering used by the benchmark harness.
"""

from .distributions import (
    NormalFit,
    PowerLawFit,
    fit_normal,
    fit_pareto_tail,
    fit_zipf,
)
from .histograms import (
    HistogramSeries,
    density_histogram,
    rank_frequency,
    survival_curve,
)
from .report import format_table, sparkline

__all__ = [
    "NormalFit",
    "PowerLawFit",
    "fit_normal",
    "fit_pareto_tail",
    "fit_zipf",
    "HistogramSeries",
    "density_histogram",
    "rank_frequency",
    "survival_curve",
    "format_table",
    "sparkline",
]
