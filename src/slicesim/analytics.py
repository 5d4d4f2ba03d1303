"""Closed-form queuing laws for a single request queue.

Patient tenants give the classic geometric queue-length distribution.
Impatient tenants combine hyperbolic balking (join probability beta/l) with
exponential reneging; the steady state and the waiting-time laws then involve
the modified Bessel function of the first kind of real order.  One power
series, the confluent limit 0F1, implements it: I_v is that series times a
leading factor, and every law below uses the series directly; its tail past
the first term is the same series with (2)_k for k!.  The integral that the
reneging density needs is the same series integrated term by term, each term
an incomplete beta function, so no law integrates numerically.

All waiting-time densities are for requests that join the queue; waits end
when a request either reaches the server or abandons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterator

from .errors import ContractViolation, NoEquilibrium, NumericError

#: Series truncation: stop once a term drops below TERM_TOL times the partial sum.
TERM_TOL = 1e-12
MAX_TERMS = 10**4


def _series(terms: Iterator[float], name: str, at: str = "") -> float:
    """Sum non-negative terms up to the first one below TERM_TOL times the partial sum."""
    total = 0.0
    for term in islice(terms, MAX_TERMS):
        total += term
        if total == math.inf:
            raise NumericError(f"{name} overflows a double{at}")
        if term <= TERM_TOL * total:
            return total
    raise NumericError(f"{name} did not converge{at}")


def _hyp0f1(b: float, z: float, a: float = 1.0) -> float:
    """sum_k z^k / ((a)_k (b)_k); a, b > 0, z >= 0.  With a = 1 it is 0F1(; b; z); with
    a = 2 and b + 1 for b, the tail (0F1(; b; z) - 1) b / z, summed so that nothing
    cancels, its terms at most 0F1's, so it is finite wherever 0F1 is."""
    def terms() -> Iterator[float]:
        term = 1.0
        for k in count():
            yield term
            term *= z / ((a + k) * (b + k))

    return _series(terms(), "hypergeometric series", f" for b={b}, z={z}")


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
    # delta^(1-g/2) Gamma(g) I_g(2 sqrt(delta)) / beta, evaluated through the
    # regularized series to stay finite for large gamma; its factor delta / (beta gamma)
    # is the load, taken from the rates, as beta gamma underflows for a subnormal rate
    series = _hyp0f1(params.gamma + 1.0, params.delta)
    return 1.0 / (1.0 + params.arrival_rate / params.acceptance_rate * series), series


def impatient_queue_pmf_table(params: QueueParams) -> list[float]:
    """PMF values from length 0 until the remaining tail is below 1e-12, at most
    ``MAX_TERMS`` of them."""
    g, d = params.gamma, params.delta
    p0, series = _empty_probability(params)
    # P(one waiting) is P(empty) times the load times the series' first term, 1
    values = [p0, 1.0 / (params.acceptance_rate / params.arrival_rate + series)]
    total = values[0] + values[1]
    l = 1
    while 1.0 - total > 1e-12 and l < MAX_TERMS:
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
    """The tail (0F1(; gamma + 1; delta) - 1) (gamma + 1) / delta, and the acceptance
    probabilities: P(empty) times 0F1(; gamma + 1; delta), times that series less 1,
    and the Bessel quotient (0F1(; gamma + 1; delta) - 1) / (0F1(; gamma; delta) - 1),
    each difference a tail series, so that no difference is taken."""
    lam, mu, alpha = params.arrival_rate, params.acceptance_rate, params.reneging_rate
    g, d, b = params.gamma, params.delta, params.balking_willingness
    p0, series = _empty_probability(params)
    # the tail of 0F1(; g + 1; d) takes b = (g + 1.0) + 1.0, which g + 2.0 can round away from
    tail = _hyp0f1(g + 1.0 + 1.0, d, 2.0)
    # lam b / (mu + alpha) is delta / (gamma + 1), and mu / (mu + alpha) is gamma / (gamma + 1)
    return tail, AcceptanceProbabilities(
        accept=p0 * series, accept_and_join=p0 * (lam * b / (mu + alpha)) * tail,
        accept_given_join=mu / (mu + alpha) * (tail / _hyp0f1(g + 1.0, d, 2.0)))


def acceptance_probabilities(params: QueueParams) -> AcceptanceProbabilities:
    """P(accepted), P(accepted and joined), P(accepted | joined)."""
    return _acceptance(params)[1]


def _wait_acceptance(params: QueueParams) -> tuple[float, AcceptanceProbabilities]:
    """``_acceptance``, refusing the queues whose reneging laws are undefined."""
    tail, probs = _acceptance(params)
    if probs.accept_given_join >= 1.0 - 1e-12:
        raise NumericError("reneging density undefined: joining requests are always accepted")
    return tail, probs


@dataclass(frozen=True)
class WaitDistributions:
    """Waiting-time densities for accepted, reneging, and all joining requests."""

    accepted: Callable[[float], float]
    reneged: Callable[[float], float]
    joined: Callable[[float], float]


def wait_distributions(params: QueueParams) -> WaitDistributions:
    """Densities f_a, f_r, f_q of waiting time in an impatient queue."""
    # imported here, so that commands without a waiting-time density do not load scipy
    from scipy.special import betaincc

    mu, alpha = params.acceptance_rate, params.reneging_rate
    d, c = params.delta, params.gamma
    tail, probs = _wait_acceptance(params)
    scale = (mu + alpha) / tail  # P(empty) lam beta / P(accepted and joined)

    def f_accepted(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        z = d * (1.0 - math.exp(-alpha * wait))
        # I_1(2 sqrt z)/sqrt z as an entire series, finite at z = 0
        return scale * math.exp(-(mu + alpha) * wait) * _hyp0f1(2.0, z)

    def unreached(wait: float) -> float:
        # 1 - P(A|J) int_0^w exp(alpha xi) f_a(xi) dxi: the chance that a joining
        # request, were it patient, would still wait at w.  It is summed as positive
        # terms, since the difference cancels at long waits.  The integral goes term
        # by term over f_a's series: the substitution x = 1 - exp(-alpha xi) turns
        # term k into the incomplete beta function B_x(k + 1, c), c = mu / alpha,
        # times (scale / alpha) d^k / (k! (k+1)!).  Over (0, inf) the integral is
        # 1 / P(A|J), so 1 minus it keeps the upper tails, B(k + 1, c) - B_x(k + 1, c).
        # The coefficient times B(k + 1, c) advances by d / ((k + 2) (k + 1 + c)),
        # so only the regularized tail is evaluated.
        x = -math.expm1(-alpha * wait)

        def terms() -> Iterator[float]:
            coef = scale / mu  # (scale / alpha) B(1, c)
            for k in count():
                yield coef * float(betaincc(k + 1.0, c, x))
                coef *= d / ((k + 2.0) * (k + 1.0 + c))

        return paj * _series(terms(), "incomplete beta series", f" for wait={wait}")

    paj = probs.accept_given_join

    def f_reneged(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        return alpha * math.exp(-alpha * wait) * unreached(wait) / (1.0 - paj)

    def f_joined(wait: float) -> float:
        if wait < 0.0:
            return 0.0
        return paj * f_accepted(wait) + alpha * math.exp(-alpha * wait) * unreached(wait)

    return WaitDistributions(accepted=f_accepted, reneged=f_reneged, joined=f_joined)


@dataclass(frozen=True)
class WaitMeans:
    """Mean waits of accepted, reneging, and all joining requests."""

    accepted: float
    reneged: float
    joined: float


def wait_means(params: QueueParams) -> WaitMeans:
    """Mean waits: the accepted series, the joined identity, and the reneged mean they leave.

    Term i of the accepted series is the i-th term of 0F1(; gamma + 1; delta)
    times the harmonic sum of 1 / (gamma + j) over j = 1..i, summed divided by
    delta / (gamma + 1) as ``_acceptance``'s tail is.  The joined mean is the
    closed form (1 - P(A|J)) / reneging rate.  A joining request is accepted
    with probability P(A|J), so the joined mean is P(A|J) times the accepted
    mean plus 1 - P(A|J) times the reneged one.
    """
    g, d = params.gamma, params.delta
    tail, probs = _wait_acceptance(params)
    paj = probs.accept_given_join

    def terms() -> Iterator[float]:
        term, harmonic = 1.0, 0.0
        for k in count():
            harmonic += 1.0 / (g + 1.0 + k)
            yield term * harmonic
            term *= d / ((k + 2.0) * (g + 2.0 + k))

    accepted = _series(terms(), "accepted-wait series") / (params.reneging_rate * tail)
    joined = (1.0 - paj) / params.reneging_rate
    return WaitMeans(accepted=accepted, reneged=(joined - paj * accepted) / (1.0 - paj),
                     joined=joined)
