"""Empirical PMFs of inter-acceptance times, geometric fits, and KL divergence.

Samples are discretized into bins of a fixed width; the geometric fit is the
maximum-likelihood estimate on support {0, 1, 2, ...}; divergence uses the
natural logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolation


@dataclass(frozen=True)
class EmpiricalPmf:
    """Binned sample distribution: counts per non-negative integer bin."""

    counts: tuple[tuple[int, int], ...]  # (bin, count), sorted by bin
    total: int

    @property
    def mean(self) -> float:
        """Mean bin index."""
        return sum(k * c for k, c in self.counts) / self.total


def empirical_pmf(samples: Sequence[float], bin_width: float) -> EmpiricalPmf:
    """Discretize non-negative samples into bins of the given width."""
    if bin_width <= 0.0:
        raise ContractViolation(f"bin width must be > 0, got {bin_width}")
    if len(samples) == 0:
        raise ContractViolation("cannot build an empirical PMF from no samples")
    counts: dict[int, int] = {}
    for t in samples:
        if t < 0.0:
            raise ContractViolation(f"samples must be non-negative, got {t}")
        try:
            k = int(t // bin_width)
        except (OverflowError, ValueError):  # a bin index past any float, or a nan sample
            raise ContractViolation(f"sample {t} has no finite bin of width {bin_width}") from None
        counts[k] = counts.get(k, 0) + 1
    ordered = tuple(sorted(counts.items()))
    return EmpiricalPmf(counts=ordered, total=len(samples))


def fit_geometric(pmf: EmpiricalPmf) -> float:
    """Maximum-likelihood geometric parameter on support {0, 1, 2, ...}."""
    return 1.0 / (1.0 + pmf.mean)


def kld_vs_geometric(pmf: EmpiricalPmf, p_hat: float) -> float:
    """Kullback-Leibler divergence of the empirical PMF from Geom(p_hat), in nats."""
    if not 0.0 < p_hat <= 1.0:
        raise ContractViolation(f"geometric parameter must lie in (0, 1], got {p_hat}")
    log_p = math.log(p_hat)
    log_q = math.log1p(-p_hat) if p_hat < 1.0 else float("-inf")
    total = 0.0
    for k, c in pmf.counts:
        if c == 0:
            continue
        p = c / pmf.total
        term = math.log(p) - log_p
        if k > 0:
            term -= k * log_q
        total += p * term
    return total
