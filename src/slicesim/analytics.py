"""Closed-form queuing laws for a single request queue.

Patient tenants give the classic single-server birth-death results (Little's
formula, geometric queue-length distribution, exponential waiting time).
Impatient tenants combine hyperbolic balking (join probability beta/l) with
exponential reneging; the steady state and the waiting-time laws then involve
the modified Bessel function of the first kind of real order.  One power
series, the confluent limit 0F1, implements it: I_v is that series times a
leading factor, and every law below uses the series directly.

All waiting-time densities are for requests that join the queue; waits end
when a request either reaches the server or abandons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ContractViolation, NoEquilibrium, NumericError

#: Series truncation: stop once a term drops below TERM_TOL times the partial sum.
TERM_TOL = 1e-12
MAX_TERMS = 10**4


def gamma_fn(x: float) -> float:
    """Gamma function on x > 0."""
    if x <= 0.0:
        raise ContractViolation(f"gamma_fn needs x > 0, got {x}")
    return math.gamma(x)


def _hyp0f1(b: float, z: float) -> float:
    """The confluent limit series sum_k z^k / (k! (b)_k); b > 0, z >= 0."""
    total = term = 1.0
    for k in range(MAX_TERMS):
        term *= z / ((k + 1.0) * (b + k))
        total += term
        if total == math.inf:
            raise NumericError(f"hypergeometric series overflows a double for b={b}, z={z}")
        if term < TERM_TOL * total:
            return total
    raise NumericError(f"hypergeometric series did not converge for b={b}, z={z}")


def bessel_i(order: float, x: float) -> float:
    """Modified Bessel function of the first kind, real order >= 0.

    I_v(x) = (x/2)^v / Gamma(v + 1) * 0F1(; v + 1; x^2/4), so it is the one
    series ``_hyp0f1`` times a leading factor.
    """
    if order < 0.0:
        raise ContractViolation(f"bessel_i needs order >= 0, got {order}")
    if x < 0.0:
        raise ContractViolation(f"bessel_i needs x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    # the leading factor via logs to survive large orders; where it underflows
    # the value is 0.0, where it or the product overflows a NumericError
    try:
        lead = math.exp(order * math.log(x / 2.0) - math.lgamma(order + 1.0))
    except OverflowError:
        lead = math.inf
    value = lead * _hyp0f1(order + 1.0, x * x / 4.0)
    if value == math.inf:
        raise NumericError(f"bessel_i overflows a double for order={order}, x={x}")
    return value


def little_mean_length(arrival_rate: float, mean_wait: float) -> float:
    """Mean queue length implied by Little's formula."""
    if arrival_rate < 0.0 or mean_wait < 0.0:
        raise ContractViolation("little_mean_length needs non-negative arguments")
    return arrival_rate * mean_wait


def mm1_queue_pmf(rho: float, length: int) -> float:
    """Steady-state probability of ``length`` waiting requests, patient case."""
    if length < 0 or length != int(length):
        raise ContractViolation(f"queue length must be a non-negative integer, got {length}")
    if not 0.0 <= rho:
        raise ContractViolation(f"work load rate must be >= 0, got {rho}")
    if rho >= 1.0:
        raise NoEquilibrium(
            f"no statistical equilibrium: work load rate {rho} >= 1"
        )
    return (1.0 - rho) * rho ** int(length)


def mm1_wait_pdf(arrival_rate: float, acceptance_rate: float, wait: float) -> float:
    """Waiting-time density of the patient single-server queue."""
    if acceptance_rate <= arrival_rate:
        raise NoEquilibrium(
            "no statistical equilibrium: acceptance rate must exceed arrival rate"
        )
    if wait < 0.0:
        return 0.0
    gap = acceptance_rate - arrival_rate
    return gap * math.exp(-gap * wait)


def mm1_wait_cdf(arrival_rate: float, acceptance_rate: float, wait: float) -> float:
    """Waiting-time distribution function of the patient single-server queue."""
    if acceptance_rate <= arrival_rate:
        raise NoEquilibrium(
            "no statistical equilibrium: acceptance rate must exceed arrival rate"
        )
    if wait < 0.0:
        return 0.0
    gap = acceptance_rate - arrival_rate
    return 1.0 - math.exp(-gap * wait)


def balk_join_probability(willingness: float, length: int) -> float:
    """Probability that an arrival joins a queue of the given length."""
    if not 0.0 <= willingness <= 1.0:
        raise ContractViolation(f"willingness must lie in [0, 1], got {willingness}")
    if length < 0 or length != int(length):
        raise ContractViolation(f"queue length must be a non-negative integer, got {length}")
    if length == 0:
        return 1.0
    return min(1.0, willingness / length)


@dataclass(frozen=True)
class QueueParams:
    """Parameters of one queue: arrival, acceptance, reneging, balking."""

    arrival_rate: float
    acceptance_rate: float
    reneging_rate: float = 0.0
    balking_willingness: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.acceptance_rate <= 0.0:
            raise ContractViolation("arrival and acceptance rates must be > 0")
        if self.reneging_rate < 0.0:
            raise ContractViolation("reneging rate must be >= 0")
        if not 0.0 <= self.balking_willingness <= 1.0:
            raise ContractViolation("balking willingness must lie in [0, 1]")

    @property
    def gamma(self) -> float:
        self._need_impatience()
        return self.acceptance_rate / self.reneging_rate

    @property
    def delta(self) -> float:
        self._need_impatience()
        return self.arrival_rate * self.balking_willingness / self.reneging_rate

    def _need_impatience(self) -> None:
        if self.reneging_rate <= 0.0:
            raise ContractViolation("impatient-tenant laws need a reneging rate > 0")
        if self.balking_willingness <= 0.0:
            raise ContractViolation("impatient-tenant laws need a balking willingness > 0")


def _empty_probability(params: QueueParams) -> tuple[float, float]:
    """P(empty queue), and the series 0F1(; gamma + 1; delta) it is built from."""
    g, d, b = params.gamma, params.delta, params.balking_willingness
    # delta^(1-g/2) Gamma(g) I_g(2 sqrt(delta)) / beta, evaluated through the
    # regularized series to stay finite for large gamma
    series = _hyp0f1(g + 1.0, d)
    x = d / (b * g) * series
    return 1.0 / (1.0 + x), series


def impatient_queue_pmf_table(params: QueueParams, tail: float = 1e-12,
                              max_length: int = MAX_TERMS) -> list[float]:
    """PMF values from length 0 until the remaining tail is below ``tail``."""
    g, d, b = params.gamma, params.delta, params.balking_willingness
    values = [_empty_probability(params)[0]]
    values.append(values[0] * d / (b * g))
    total = values[0] + values[1]
    l = 1
    while 1.0 - total > tail and l < max_length:
        values.append(values[-1] * d / (l * (g + l)))
        total += values[-1]
        l += 1
    return values


@dataclass(frozen=True)
class AcceptanceProbabilities:
    """Acceptance/joining event probabilities for one impatient queue."""

    accept: float
    accept_and_join: float
    accept_given_join: float


def _acceptance(params: QueueParams) -> tuple[float, AcceptanceProbabilities]:
    """P(empty queue) and the acceptance probabilities, from one series value."""
    g, d, b = params.gamma, params.delta, params.balking_willingness
    p0, series = _empty_probability(params)
    p_accept = (1.0 - p0) * b * g / d
    p_accept_join = p_accept - p0
    # Bessel-quotient form rewritten through regularized series
    p_accept_given_join = (series - 1.0) / (_hyp0f1(g, d) - 1.0)
    return p0, AcceptanceProbabilities(
        accept=p_accept,
        accept_and_join=p_accept_join,
        accept_given_join=p_accept_given_join,
    )


def acceptance_probabilities(params: QueueParams) -> AcceptanceProbabilities:
    """P(accepted), P(accepted and joined), P(accepted | joined)."""
    return _acceptance(params)[1]


@dataclass(frozen=True)
class WaitDistributions:
    """Waiting-time densities for accepted, reneging, and all joining requests."""

    accepted: Callable[[float], float]
    reneged: Callable[[float], float]
    joined: Callable[[float], float]


def _quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    # imported here, so that commands that never integrate do not load scipy
    from scipy.integrate import quad

    value, abserr = quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=200)
    if abserr > max(1e-6, 1e-6 * abs(value)):
        raise NumericError(f"quadrature failed to converge (error {abserr})")
    return value


def wait_distributions(params: QueueParams) -> WaitDistributions:
    """Densities f_a, f_r, f_q of waiting time in an impatient queue."""
    lam, mu = params.arrival_rate, params.acceptance_rate
    alpha, beta = params.reneging_rate, params.balking_willingness
    d = params.delta
    p0, probs = _acceptance(params)
    if probs.accept_and_join <= 0.0:
        raise NumericError("degenerate queue: joining requests are never accepted")

    scale = p0 * lam * beta / probs.accept_and_join

    def f_accepted(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        z = d * (1.0 - math.exp(-alpha * wait))
        # I_1(2 sqrt z)/sqrt z as an entire series, finite at z = 0
        return scale * math.exp(-(mu + alpha) * wait) * _hyp0f1(2.0, z)

    def growth(wait: float) -> float:
        # integrand exp(alpha xi) f_a(xi) with the exponentials combined,
        # so large waits cannot overflow
        def integrand(xi: float) -> float:
            z = d * (1.0 - math.exp(-alpha * xi))
            return scale * math.exp(-mu * xi) * _hyp0f1(2.0, z)

        return _quad(integrand, 0.0, wait)

    paj = probs.accept_given_join
    if paj >= 1.0 - 1e-12:
        raise NumericError("reneging density undefined: joining requests are always accepted")

    def f_reneged(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        return alpha * math.exp(-alpha * wait) * (1.0 - paj * growth(wait)) / (1.0 - paj)

    def f_joined(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        shade = alpha * math.exp(-alpha * wait)
        return paj * (f_accepted(wait) - shade * growth(wait)) + shade

    return WaitDistributions(accepted=f_accepted, reneged=f_reneged, joined=f_joined)


@dataclass(frozen=True)
class WaitMeans:
    """Mean waits of accepted, reneging, and all joining requests."""

    accepted: float
    reneged: float
    joined: float


def wait_means(params: QueueParams) -> WaitMeans:
    """Mean waiting times by numerical integration of the densities."""
    dists = wait_distributions(params)
    mean_accepted = _quad(lambda w: w * dists.accepted(w), 0.0, math.inf)
    mean_reneged = _quad(lambda w: w * dists.reneged(w), 0.0, math.inf)
    mean_joined = _quad(lambda w: w * dists.joined(w), 0.0, math.inf)
    return WaitMeans(accepted=mean_accepted, reneged=mean_reneged, joined=mean_joined)


def mean_wait_joined_identity(params: QueueParams) -> float:
    """Closed-form mean wait over joining requests: (1 - P(A|J)) / reneging rate."""
    probs = acceptance_probabilities(params)
    return (1.0 - probs.accept_given_join) / params.reneging_rate


def mean_wait_accepted_series(params: QueueParams) -> float:
    """Series form of the accepted-request mean wait (secondary cross-check).

    The product runs over j = 1..i in the denominator of each term; the
    quadrature result in ``wait_means`` is the normative value.
    """
    g, d = params.gamma, params.delta
    p0, probs = _acceptance(params)
    total = 0.0
    term = 1.0
    harmonic = 0.0
    for i in range(1, MAX_TERMS + 1):
        term *= d / (i * (g + i))
        harmonic += 1.0 / (g + i)
        piece = term * harmonic
        total += piece
        if piece < TERM_TOL * total:
            break
    else:
        raise NumericError("accepted-wait series did not converge")
    return p0 / probs.accept_and_join * total / params.reneging_rate
