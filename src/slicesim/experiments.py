"""Bin widths and geometric fits of inter-acceptance times (IATs).

``fit-iat`` bins samples at one global width, ``simulate`` at one width per
queue; both are a mean inter-arrival time divided.  ``simulate``'s fit table
fits each (strategy, queue) cell's binned IATs with a geometric law and
scores the fit by its divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolation
from .slice_model import ResourceModel
from .statfit import empirical_pmf, fit_geometric, kld_vs_geometric

#: Granularity of the per-queue IAT bins, as a divisor of the mean request
#: inter-arrival time of the queue; the default of ``simulate.bin_width_divisor``.
IAT_BIN_DIVISOR = 5.0

#: Granularity of ``fit-iat``'s global bin when ``fit_iat.bin_width`` is not given,
#: as a divisor of the busiest queue's mean request inter-arrival time.
GLOBAL_BIN_DIVISOR = 10.0


def default_bin_width(model: ResourceModel) -> float:
    """One global bin width: mean inter-arrival time of the busiest queue, divided."""
    busiest = max(t.arrival_rate for t in model.types)
    if busiest <= 0.0:
        raise ContractViolation("bin width needs at least one positive arrival rate")
    return 1.0 / busiest / GLOBAL_BIN_DIVISOR


def iat_bin_widths(model: ResourceModel,
                   divisor: float = IAT_BIN_DIVISOR) -> tuple[float | None, ...]:
    """Per-queue bin widths: each queue's mean request inter-arrival time, divided.

    A queue without arrivals accepts nothing, so it has no inter-acceptance
    times to bin and no width (None); ``geometric_fit_table`` skips its cells.
    """
    return tuple(1.0 / t.arrival_rate / divisor if t.arrival_rate > 0.0 else None
                 for t in model.types)


@dataclass(frozen=True)
class FitRow:
    """Geometric fit of one queue's pooled IATs under one strategy."""

    queue: int
    samples: int
    bin_width: float
    p_hat: float
    divergence: float


def geometric_fit_table(samples: Sequence[Sequence[Sequence[float]]],
                        bin_widths: Sequence[float | None]) -> list[FitRow]:
    """Fit every (strategy, queue) cell with at least two samples."""
    rows = []
    for per_queue in samples:
        for q, iats in enumerate(per_queue):
            if len(iats) < 2:
                continue
            pmf = empirical_pmf(iats, bin_widths[q])
            p_hat = fit_geometric(pmf)
            rows.append(FitRow(
                queue=q + 1,
                samples=len(iats),
                bin_width=bin_widths[q],
                p_hat=p_hat,
                divergence=kld_vs_geometric(pmf, p_hat),
            ))
    return rows
