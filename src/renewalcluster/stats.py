"""The two-sample Kolmogorov-Smirnov test.

It operationalizes distributional-equality claims: two samples are
declared equal in law when the sup distance between their empirical CDFs
stays below the asymptotic critical value at the chosen level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KsReport", "two_sample_ks", "ks_critical_value"]


@dataclass(frozen=True)
class KsReport:
    distance: float
    critical_value: float
    n1: int
    n2: int
    alpha: float

    @property
    def reject(self) -> bool:
        return self.distance > self.critical_value


def ks_critical_value(n1: int, n2: int, alpha: float) -> float:
    """Asymptotic two-sample KS critical value c(alpha) * sqrt((n1+n2)/(n1*n2)),
    for a level alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n1 + n2) / (n1 * n2)))


def two_sample_ks(a, b, alpha: float = 0.01) -> KsReport:
    """Sup distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    distance = float(np.max(np.abs(fa - fb)))
    return KsReport(distance, ks_critical_value(a.size, b.size, alpha), a.size, b.size, alpha)

