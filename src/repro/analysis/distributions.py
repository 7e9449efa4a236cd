"""Distribution fitting and goodness diagnostics for the data study.

Section 5.1 of the paper extracts three laws from the NYSE tape:
normalized prices are ~normal, popularity is ~Zipf, amounts are
~Pareto.  These fitters recover the parameters from (synthetic) trade
data and report a goodness score, so the Figure 4/5 tests can assert
"the analysis pipeline sees the law the workload encodes".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NormalFit", "PowerLawFit", "fit_normal", "fit_zipf", "fit_pareto_tail"]


@dataclass(frozen=True)
class NormalFit:
    """Result of a normal fit."""

    mean: float
    std: float
    ks_statistic: float
    ks_pvalue: float

    @property
    def looks_normal(self) -> bool:
        """Loose plausibility gate the Figure 4/5 tests read.

        Real (and realistic synthetic) samples at n≈10^5 fail strict KS
        p-value tests for tiny deviations, so the gate is on the KS
        *statistic* — the maximum CDF discrepancy — instead.
        """
        return self.ks_statistic < 0.05


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted log-log linear relationship ``y ≈ c * x**slope``."""

    slope: float
    intercept: float
    r_squared: float

    @property
    def looks_power_law(self) -> bool:
        """Straight enough in log-log coordinates."""
        return self.r_squared > 0.90


def fit_normal(data: np.ndarray) -> NormalFit:
    """Fit N(mu, sigma) and run a Kolmogorov-Smirnov check."""
    from scipy.stats import kstest  # here: it costs ~35 MB resident

    data = np.asarray(data, dtype=np.float64)
    if data.size < 8:
        raise ValueError(
            f"fit_normal: need at least 8 observations (got {data.size})"
        )
    mean = float(np.mean(data))
    std = float(np.std(data, ddof=1))
    if std <= 0:
        raise ValueError(
            f"fit_normal: sample standard deviation must be positive "
            f"(got {std})"
        )
    statistic, pvalue = kstest(data, "norm", args=(mean, std))
    return NormalFit(mean, std, float(statistic), float(pvalue))


def fit_zipf(ranked_counts: np.ndarray) -> PowerLawFit:
    """Fit ``count ≈ c / rank**theta`` on rank-ordered counts.

    ``ranked_counts`` must be sorted descending (as produced by
    :func:`repro.analysis.histograms.rank_frequency`).  Returns the
    log-log regression; a Zipf-like sample has slope ≈ ``-theta`` and
    high R².
    """
    counts = np.asarray(ranked_counts, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size < 8:
        raise ValueError(
            f"fit_zipf: need at least 8 positive ranked counts "
            f"(got {counts.size})"
        )
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    return _loglog_regression(ranks, counts)


def fit_pareto_tail(data: np.ndarray, tail_fraction: float = 0.5) -> PowerLawFit:
    """Fit the survival tail ``P(X > x) ≈ (c/x)**alpha``.

    Regresses log-survival on log-value over the upper
    ``tail_fraction`` of the sample; the fitted slope estimates
    ``-alpha``.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(
            f"fit_pareto_tail: tail_fraction must lie in (0, 1] "
            f"(got {tail_fraction})"
        )
    data = np.asarray(data, dtype=np.float64)
    positive = np.sort(data[data > 0])
    if positive.size < 16:
        raise ValueError(
            f"fit_pareto_tail: need at least 16 positive observations "
            f"(got {positive.size})"
        )
    start = int(len(positive) * (1.0 - tail_fraction))
    tail = positive[start:-1]  # drop the max (survival would be 0)
    survival = 1.0 - (np.arange(start, start + tail.size) + 1) / len(positive)
    keep = survival > 0
    return _loglog_regression(tail[keep], survival[keep])


def _loglog_regression(x: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Ordinary least squares in log-log coordinates."""
    from scipy.stats import linregress

    log_x = np.log(x)
    log_y = np.log(y)
    slope, intercept, r_value, _, _ = linregress(log_x, log_y)
    return PowerLawFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_value**2),
    )
