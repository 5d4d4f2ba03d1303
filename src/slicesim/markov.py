"""Strategy evaluation through a finite Markov chain on the system states.

From queue-empty probabilities, the chance that a serving opportunity in
state s accepts type n is the scan product: every queue preferred over n is
empty and queue n is not.  Two chain constructions are provided:

* ``with-releases`` (default): an embedded jump chain at event epochs.  From
  state s the next event is a release of type n with weight proportional to
  its release flow (release rate times active count), or a serving
  opportunity with weight equal to a configurable opportunity rate
  (default: the total arrival rate), resolved by the scan product above.
* ``acceptance-only``: states move only along acceptance edges, residual
  mass stays on the self-loop.  Taken literally this chain is absorbing at
  the feasibility boundary; it is kept for reference.  It is the
  ``with-releases`` chain with release rates 0 and opportunity rate 1: its CSR
  arrays equal those of a construction of its own, byte for byte, on 2,160
  chains (scenarios 1, 2 and the tripled pool, 60 strategies, four
  queue-empty vectors, opportunity rates None, 0 and 2.5 each).

Acceptance mass whose target would leave the feasibility space moves to the
self-loop.  The transition matrix is a canonical ``scipy.sparse`` CSR array
(sorted indices, no stored zeros), converted once from the per-state arrays
of release, self-loop and acceptance edges without a dense n x n array, and
it stays sparse through the solve.

The long-term state distribution is the exact Cesaro limit of the power
sequence, which exists for every finite chain, periodic and reducible ones
included: the strongly connected components of the chain (Tarjan 1972) that
no edge leaves are its closed classes, initial mass on transient states is
carried into them by absorption probabilities, and each closed class that
receives mass contributes its stationary vector scaled by that mass (Kemeny &
Snell, *Finite Markov Chains*, 1960).  The absorption probabilities need a
sparse solve over the transient states only when two or more closed classes
exist; with one, they are all 1.  A chain whose one closed class is a single
state, such as a strategy that reserves the empty state, needs no solve at
all.  Expected active-slice counts and per-type acceptance-rate estimates
follow from the distribution.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ContractViolation
from .slice_model import ResourceModel, StateSpace
from .strategy import RESERVE, PreferenceMatrix, check_columns

# scipy.sparse is imported inside the functions that use it, so that
# commands that never build a chain do not load it.
if TYPE_CHECKING:
    from scipy import sparse

WITH_RELEASES = "with-releases"
ACCEPTANCE_ONLY = "acceptance-only"

ROW_SUM_TOL = 1e-12
# Largest stationarity residual |pi P - pi|_1 reported as converged.
RESIDUAL_L1_BOUND = 1e-9


def _check_probs(queue_empty_probs: Sequence[float], num_types: int) -> list[float]:
    probs = [float(p) for p in queue_empty_probs]
    if len(probs) != num_types:
        raise ContractViolation(
            f"need one queue-empty probability per type ({num_types}), got {len(probs)}"
        )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ContractViolation(f"queue-empty probabilities must lie in [0, 1], got {p}")
    return probs


def _moves(flat: array, width: int) -> np.ndarray:
    """A state space's flat increment or release table as a read-only (states, width)
    int64 view of its buffer, without a copy."""
    view = np.frombuffer(flat, np.int64).reshape(-1, width)
    view.flags.writeable = False
    return view


def _array(rows: Sequence[tuple], width: int) -> np.ndarray:
    """Equal-length int tuples, such as strategy columns, as a (len(rows), width) array;
    ``np.fromiter`` copies them about twice as fast as ``np.array``."""
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                       len(rows) * width).reshape(len(rows), width)


def acceptance_distribution(strategy: PreferenceMatrix, space: StateSpace,
                            queue_empty_probs: Sequence[float]) -> np.ndarray:
    """Probability that a serving opportunity accepts each type, one row per state index.

    Entry 0 is the no-acceptance (self-loop) mass; entries 1..N the per-type
    acceptance masses.  Non-admissible states (indices ``num_admissible`` and
    up) self-loop with probability 1; acceptance mass with an infeasible
    target is reassigned to entry 0.

    The strategy's columns are scanned one preference position at a time for
    all admissible states at once: ``prefix`` is the chance that every queue
    scanned so far was empty, and ``live`` clears once the scan reaches the
    reserve symbol.  Each entry gets the float operations of a per-state
    scan, in the same order.
    """
    check_columns(strategy, space)
    n_types, k = space.model.num_types, space.num_admissible
    p = np.asarray(_check_probs(queue_empty_probs, n_types))
    out = np.zeros((len(space), n_types + 1))
    out[k:, RESERVE] = 1.0
    accept = out[:k]  # a view: the admissible rows
    table = _array(strategy.columns, n_types + 1)
    fits = _moves(space._increment, n_types)[:k] >= 0
    rows = np.arange(k)
    prefix = np.ones(k)
    live = np.ones(k, dtype=bool)
    for pref in table.T:
        reserve = live & (pref == RESERVE)
        accept[reserve, RESERVE] += prefix[reserve]  # 1 - p_0(0) with p_0(0) = 0
        live &= ~reserve
        q = p[pref - 1]
        take = prefix * (1.0 - q)
        target = np.where(fits[rows, pref - 1], pref, RESERVE)
        accept[live, target[live]] += take[live]
        prefix *= q
    return out


def _csr(matrix):
    """A canonical float CSR copy of a dense or sparse matrix: sorted column
    indices, no repeated entry and no stored zero."""
    from scipy import sparse

    m = sparse.csr_array(matrix, dtype=float, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the full state space, as a CSR array."""

    matrix: sparse.csr_array

    def __post_init__(self) -> None:
        from scipy import sparse

        m = self.matrix
        # build_transition_matrix's output is used as it is; anything else is copied
        if not (type(m) is sparse.csr_array and m.dtype == np.float64
                and m.has_canonical_format and m.data.all()):
            m = _csr(m)
            object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractViolation("transition matrix must be square")
        if np.any(m.data < -ROW_SUM_TOL):
            raise ContractViolation("transition matrix has negative entries")
        gaps = np.abs(m.sum(axis=1) - 1.0)
        if np.any(gaps > 1e-9):
            raise ContractViolation(f"rows must sum to 1 (max gap {gaps.max():.3g})")


def build_transition_matrix(strategy: PreferenceMatrix, space: StateSpace,
                            queue_empty_probs: Sequence[float],
                            release_rates: Sequence[float],
                            mode: str = WITH_RELEASES,
                            opportunity_rate: float | None = None) -> TransitionMatrix:
    """Assemble the chain over all states in the chosen construction mode.

    The edges come from per-state arrays in three groups: releases, the
    self-loop and acceptances.  No (row, column) pair occurs twice, so each
    entry is one product or quotient, and no dense n x n array is formed.
    """
    from scipy import sparse

    n_states = len(space)
    n_types = space.model.num_types
    if mode not in (WITH_RELEASES, ACCEPTANCE_ONLY):
        raise ContractViolation(f"unknown transition-matrix mode {mode!r}")
    release_rates = [float(r) for r in release_rates]
    if len(release_rates) != n_types:
        raise ContractViolation("need one release rate per type")
    if opportunity_rate is None:
        opportunity_rate = sum(space.model.arrival_rates)
    if opportunity_rate < 0.0:
        raise ContractViolation("opportunity rate must be >= 0")
    if mode == ACCEPTANCE_ONLY:  # every event is a serving opportunity
        release_rates, opportunity_rate = [0.0] * n_types, 1.0

    index = np.arange(n_states)
    accept = acceptance_distribution(strategy, space, queue_empty_probs)
    # the next event is a release with weight flows[:, n], or a serving
    # opportunity with weight opportunity_rate
    flows = space.counts * release_rates
    total = np.zeros(n_states)
    for flow in flows.T:  # in type order, as the running sum of a loop
        total += flow
    total += opportunity_rate
    idle = total <= 0.0  # no event at all: the state holds
    total[idle] = 1.0
    at, n = np.nonzero(flows > 0.0)
    down = _moves(space._release, n_types)
    scale = opportunity_rate / total
    # (rows, cols, probabilities), one group per kind of event
    edges = [(at, down[at, n], flows[at, n] / total[at]),
             (index, index, np.where(idle, 1.0, scale * accept[:, RESERVE]))]
    # an idle row has scale 0, and its zero entries are not stored
    at, n = np.nonzero(accept[:, 1:] > 0.0)
    up = _moves(space._increment, n_types)
    edges.append((at, up[at, n], scale[at] * accept[at, n + 1]))

    row, col, prob = map(np.concatenate, zip(*edges))
    stored = prob != 0.0  # zero-probability edges are not stored
    if not stored.all():
        row, col, prob = row[stored], col[stored], prob[stored]
    matrix = sparse.coo_array((prob, (row, col)), shape=(n_states, n_states)).tocsr()
    return TransitionMatrix(matrix=matrix)


@dataclass(frozen=True)
class StateDistribution:
    """A probability vector over the full state space.

    ``residual_l1`` is the stationarity residual ``|pi P - pi|_1`` against the
    chain that produced the vector (nan when not measured); ``converged`` is
    true when it is at most ``RESIDUAL_L1_BOUND``.
    """

    probabilities: np.ndarray
    initial: np.ndarray
    converged: bool
    residual_l1: float = np.nan

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if np.any(p < -1e-12):
            raise ContractViolation("distribution has negative entries")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ContractViolation(f"distribution sums to {p.sum()}, not 1")


def initial_distribution(space: StateSpace, policy: str) -> np.ndarray:
    """Point mass on the empty state, or uniform over all or over fully-utilized states."""
    n = len(space)
    if policy == "empty":
        p = np.zeros(n)
        p[0] = 1.0  # the empty state is index 0 by construction
        return p
    if policy == "uniform":
        return np.full(n, 1.0 / n)
    if policy == "full":
        p = np.zeros(n)
        low = space.num_admissible
        if low == n:
            raise ContractViolation("model has no fully-utilized state")
        p[low:] = 1.0 / (n - low)
        return p
    raise ContractViolation(f"unknown initial distribution {policy!r}")


def long_term_distribution(psi: TransitionMatrix | np.ndarray | sparse.sparray,
                           p_init: np.ndarray) -> StateDistribution:
    """Exact Cesaro limit of the power sequence seeded by ``p_init``.

    Initial mass on transient states is spread over the closed classes by the
    absorption probabilities ``x (I - Q) = p_T`` followed by ``x R``; every
    closed class that receives mass holds it in proportion to its stationary
    vector.  That absorption solve runs only when two or more closed classes
    exist: with one, the class takes all of the mass, so the class's own
    stationary solve is the only one, and a single-state class needs none.
    The result is flagged as not converged, rather than raised, when its
    stationarity residual exceeds ``RESIDUAL_L1_BOUND``, as it does for a
    matrix that is not row-stochastic.  A matrix that is not a
    ``TransitionMatrix`` is converted to CSR once.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    m = psi.matrix if isinstance(psi, TransitionMatrix) else _csr(psi)
    v = np.asarray(p_init, dtype=float)
    n = m.shape[0]
    if v.shape != (n,):
        raise ContractViolation("initial distribution does not match the matrix")
    # x P is computed as P^T x, a sparse mat-vec
    mt = m.T
    # the stored entries (row, col, probability) are the chain's edges
    row, col, prob = np.repeat(np.arange(n), np.diff(m.indptr)), m.indices, m.data
    n_classes, labels = connected_components(m, connection="strong")
    # a class is closed when no edge leaves it
    closed = np.ones(n_classes, dtype=bool)
    closed[labels[row[labels[row] != labels[col]]]] = False
    recurrent = closed[labels]

    def left_solve(states: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``y`` with ``y (I - P[states, states]) = rhs``."""
        k = len(states)
        pos = np.full(n, -1)
        pos[states] = np.arange(k)
        inside = (pos[row] >= 0) & (pos[col] >= 0)
        # rows of the transposed operator are columns of P
        op = sparse.csr_array(
            (np.concatenate([np.ones(k), -prob[inside]]),
             (np.concatenate([np.arange(k), pos[col[inside]]]),
              np.concatenate([np.arange(k), pos[row[inside]]]))),
            shape=(k, k))
        return spsolve(op, rhs)

    # Mass that each recurrent state receives: its own initial mass plus the
    # transient mass absorbed into it, x R with x (I - Q) = p_T.  With one
    # closed class every absorption probability is 1, and no solve is needed.
    mass = np.where(recurrent, v, 0.0)
    transient = np.flatnonzero(~recurrent)
    if v[transient].any():
        if np.count_nonzero(closed) == 1:
            mass[np.flatnonzero(recurrent)[0]] += v[transient].sum()
        else:
            x = np.zeros(n)
            x[transient] = left_solve(transient, v[transient])
            mass += np.where(recurrent, mt @ x, 0.0)
    class_mass = np.bincount(labels, weights=mass, minlength=n_classes)

    # Stationary vectors of the closed classes that hold mass, all in one
    # solve: the chain restricted to them is block diagonal.  One anchor
    # state per class gets weight 1, and pi_S (I - P_SS) = sum_a P_aS gives
    # the rest of each class.
    held = np.flatnonzero(recurrent & (class_mass[labels] > 0.0))
    _, first = np.unique(labels[held], return_index=True)
    anchors = np.zeros(n, dtype=bool)
    anchors[held[first]] = True
    rest = held[~anchors[held]]
    pi = anchors.astype(float)
    if rest.size:
        pi[rest] = left_solve(rest, (mt @ pi)[rest])
    class_total = np.bincount(labels, weights=pi, minlength=n_classes)
    pi[held] *= class_mass[labels[held]] / class_total[labels[held]]
    # A no-op up to round-off for a row-stochastic matrix; for any other
    # matrix it keeps the flagged result a probability vector.
    pi /= pi.sum()

    residual = float(np.abs(mt @ pi - pi).sum())
    return StateDistribution(pi, p_init, bool(residual <= RESIDUAL_L1_BOUND), residual)


def expected_active_slices(distribution: StateDistribution,
                           space: StateSpace) -> tuple[float, ...]:
    """Expected active-slice count per type under a state distribution."""
    return tuple(float(x) for x in distribution.probabilities @ space.counts.astype(float))


def estimate_acceptance_rates(mean_active_slices: Sequence[float],
                              release_rates: Sequence[float]) -> tuple[float, ...]:
    """Per-type acceptance-rate estimates: release rate times expected active count."""
    return tuple(eta * s for eta, s in zip(release_rates, mean_active_slices))


def estimate_mean_utility(acceptance_rates: Sequence[float],
                          release_rates: Sequence[float],
                          utility_rates: Sequence[float]) -> float:
    """Long-run mean utility rate from per-type acceptance and release rates."""
    return sum(mu * u / eta for mu, eta, u in
               zip(acceptance_rates, release_rates, utility_rates))


@dataclass(frozen=True)
class SteadyStateEstimate:
    """Pipeline output: distribution, acceptance rates, and utility estimate."""

    distribution: StateDistribution
    acceptance_rates: tuple[float, ...]
    mean_active_slices: tuple[float, ...]
    utility_rate: float


def strategy_steady_state(model: ResourceModel, space: StateSpace,
                          strategy: PreferenceMatrix,
                          queue_empty_probs: Sequence[float],
                          mode: str = WITH_RELEASES,
                          opportunity_rate: float | None = None,
                          p_init: str = "full") -> SteadyStateEstimate:
    """Full evaluation pipeline for one strategy given queue-empty probabilities."""
    psi = build_transition_matrix(strategy, space, queue_empty_probs,
                                  model.release_rates, mode, opportunity_rate)
    dist = long_term_distribution(psi, initial_distribution(space, p_init))
    s_bar = expected_active_slices(dist, space)
    mu_hat = estimate_acceptance_rates(s_bar, model.release_rates)
    utility = estimate_mean_utility(mu_hat, model.release_rates, model.utility_rates)
    return SteadyStateEstimate(
        distribution=dist,
        acceptance_rates=mu_hat,
        mean_active_slices=s_bar,
        utility_rate=utility,
    )
