"""Independent oracles used by the test suite.

Most of it is deliberately written against the plain definitions
(brute-force enumeration, direct balance equations, a standalone event loop
on stdlib ``random``) so it shares no code path with the package.  The
``enumerate_dfs``, ``build_transition_dense``, ``run_scalar`` and
``local_search_eager`` oracles are frozen copies of the package's first,
slower algorithms, which its faster ones must reproduce exactly;
``impatient_queue_pmf`` recomputes each length of
``impatient_queue_pmf_table`` as its own product.

The rest are the model's and the paper's definitions that no command needs
(``apply_increment``, ``balk_join_probability``), ``increment_index``, which
reads one entry of a space's increment table, ``bessel_i`` as the
package's 0F1 series times its leading factor, ``handle_request``, which
drives a controller one request at a time by the engine's own join path,
``start_at``, ``state`` and ``queue_lengths``, which start a controller at a
given state and read its state and its waiting counts, and ``run_round``,
which runs one round on the tape drawn for it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass


def apply_increment(s, n, release=False):
    """Add (or release) one slice of type ``n``; ``n == 0`` is the no-op reserve symbol."""
    from slicesim.errors import ContractViolation

    s = tuple(int(v) for v in s)
    if not 0 <= n <= len(s):
        raise ContractViolation(f"slice type must lie in 0..{len(s)}, got {n}")
    if n == 0:
        return s
    if release and s[n - 1] < 1:
        raise ContractViolation(f"cannot release a type-{n} slice: none active")
    return s[: n - 1] + (s[n - 1] + (-1 if release else 1),) + s[n:]


def increment_index(space, index, n):
    """Index of ``state + unit increment of type n`` (n >= 1) in ``space``, -1 if infeasible."""
    return space._increment[index * space.num_types + n - 1]


def handle_request(controller, record):
    """Join ``record`` to its queue, then serve; the requests accepted, in order."""
    record.waiting = True
    controller.queue_for(record.slice_type).append(record)
    return controller.serve_queues()


def start_at(controller, s):
    """``controller``, moved to the active-slice state ``s`` (a new one starts at index 0)."""
    controller.state_index = controller.space.index_of(s)
    return controller


def state(controller):
    """The controller's active-slice state."""
    return controller.space.state_at(controller.state_index)


def queue_lengths(controller):
    """The number of waiting requests in each line (a reneged record is not one)."""
    return tuple(sum(rec.waiting for rec in line) for line in controller.lines)


def brute_force_state_space(pool, bundles):
    """All feasible states by double loop over the per-type rectangle.

    Returns (feasible, admissible) as sets of tuples.
    """
    n_types = len(bundles)
    tol = 1e-9
    bounds = []
    for col in bundles:
        bound = None
        for c, r in zip(col, pool):
            if c > 0:
                b = int((r + tol * max(1.0, r)) // c)
                bound = b if bound is None else min(bound, b)
        bounds.append(bound if bound is not None else 0)

    def feasible(s):
        for m, r in enumerate(pool):
            used = sum(s[n] * bundles[n][m] for n in range(n_types))
            if used - r > tol * max(1.0, r):
                return False
        return True

    states = set()
    for s in itertools.product(*(range(b + 1) for b in bounds)):
        if feasible(s):
            states.add(s)
    admissible = set()
    for s in states:
        for n in range(n_types):
            bumped = s[:n] + (s[n] + 1,) + s[n + 1:]
            if bumped in states:
                admissible.add(s)
                break
    return states, admissible


def enumerate_dfs(model):
    """The feasibility space by a depth-first walk, as the package first built it.

    Returns ``(states, num_admissible, index, increment, release)``: the
    states and the index map in ``slice_model.StateSpace`` order
    (lexicographic within each group, admissible states first), and one row
    per state of each transition table, which ``StateSpace`` stores flattened,
    -1 for an infeasible or invalid move.  Feasibility uses the package's float
    expression, ``(used + count * col) - pool > tol``, accumulated type by
    type, so decimal costs at the boundary decide the same way.
    """
    import numpy as np

    n_types = len(model.costs)
    pool = np.asarray(model.pool)
    cols = [np.asarray(c) for c in model.costs]
    tol = 1e-9 * np.maximum(1.0, pool)
    bounds = [
        min(int((r + 1e-9 * max(1.0, r)) // c) for c, r in zip(col, model.pool) if c > 0)
        for col in model.costs
    ]
    feasible = []

    def walk(prefix, used):
        depth = len(prefix)
        if depth == n_types:
            feasible.append(tuple(prefix))
            return
        col = cols[depth]
        for count in range(bounds[depth] + 1):
            usage = used + count * col
            if np.any(usage - pool > tol):
                break
            prefix.append(count)
            walk(prefix, usage)
            prefix.pop()

    walk([], np.zeros_like(pool))

    def bump(s, n, delta=1):
        return s[:n] + (s[n] + delta,) + s[n + 1:]

    state_set = set(feasible)
    admits = [any(bump(s, n) in state_set for n in range(n_types)) for s in feasible]
    ordered = tuple([s for s, a in zip(feasible, admits) if a]
                    + [s for s, a in zip(feasible, admits) if not a])
    index = {s: i for i, s in enumerate(ordered)}
    increment = tuple(tuple(index.get(bump(s, n), -1) for n in range(n_types))
                      for s in ordered)
    release = tuple(tuple(index[bump(s, n, -1)] if s[n] > 0 else -1 for n in range(n_types))
                    for s in ordered)
    return ordered, sum(admits), index, increment, release


def birth_death_pmf(lam, mu, alpha, beta, max_length=400):
    """Steady state of the impatient queue from the balance equations.

    Up-rate from l is lam * join(l); down-rate from l+1 is mu + l * alpha
    (the request at the head does not abandon).
    """
    weights = [1.0]
    for l in range(max_length):
        join = 1.0 if l == 0 else min(1.0, beta / l)
        weights.append(weights[-1] * lam * join / (mu + l * alpha))
    total = sum(weights)
    return [w / total for w in weights]


def impatient_queue_pmf(params, length):
    """P(``length`` requests) of the impatient queue, as one product per length.

    p_l = p_0 (delta / (beta gamma)) prod_{j=1}^{l-1} delta / (j (gamma + j)),
    the law that ``analytics.impatient_queue_pmf_table`` builds as a running
    recurrence.
    """
    from slicesim.analytics import _empty_probability
    from slicesim.errors import ContractViolation

    if length < 0 or length != int(length):
        raise ContractViolation(f"queue length must be a non-negative integer, got {length}")
    g, d, b = params.gamma, params.delta, params.balking_willingness
    p = _empty_probability(params)[0]
    if length == 0:
        return p
    p *= d / (b * g)
    for l in range(1, int(length)):
        p *= d / (l * (g + l))
    return p


def balk_join_probability(willingness, length):
    """Hyperbolic balking: an arrival joins a queue of length l with probability min(1, beta / l)."""
    return 1.0 if length == 0 else min(1.0, willingness / length)


def bessel_i(order, x):
    """I_v(x) = (x/2)^v / Gamma(v + 1) * 0F1(; v + 1; x^2/4), on the package's 0F1 series.

    The leading factor goes through logs, so that at large orders it
    underflows to 0.0 rather than overflowing.
    """
    from slicesim.analytics import _hyp0f1

    if x == 0.0:
        return 1.0 if order == 0.0 else 0.0
    lead = math.exp(order * math.log(x / 2.0) - math.lgamma(order + 1.0))
    return lead * _hyp0f1(order + 1.0, x * x / 4.0)


@dataclass
class MicroResult:
    pmf: list[float]
    arrivals: int
    served: int
    joined: int
    served_joiners: int
    reneged: int
    wait_sum_joiners: float
    wait_sum_accepted: float

    @property
    def p_accept(self):
        return self.served / self.arrivals

    @property
    def p_accept_and_join(self):
        return self.served_joiners / self.arrivals

    @property
    def p_accept_given_join(self):
        return self.served_joiners / self.joined

    @property
    def mean_wait_joiners(self):
        return self.wait_sum_joiners / (self.served_joiners + self.reneged)

    @property
    def mean_wait_accepted(self):
        return self.wait_sum_accepted / self.served_joiners


def micro_queue(lam, mu, horizon, seed, alpha=0.0, beta=None, max_state=200):
    """Isolated single-server queue, optionally with balking and reneging.

    The request in service cannot abandon; arrivals balk on the in-system
    count; waits run from joining until service starts (or abandonment).
    """
    rng = random.Random(seed)
    heap = []
    seq = 0

    def push(t, kind, ident):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (t, seq, kind, ident))

    impatient = alpha > 0.0 and beta is not None
    push(rng.expovariate(lam), "arrival", None)
    in_service = None
    waiting = {}
    order = []
    occupancy = [0.0] * (max_state + 1)
    last = 0.0
    next_id = 0
    arrivals = served = joined = served_joiners = reneged = 0
    wait_joiners = wait_accepted = 0.0

    while heap:
        t, _, kind, ident = heapq.heappop(heap)
        if t > horizon:
            break
        in_system = (1 if in_service is not None else 0) + len(order)
        occupancy[min(in_system, max_state)] += t - last
        last = t
        if kind == "arrival":
            arrivals += 1
            if in_system == 0:
                in_service = next_id
                served += 1
                push(t + rng.expovariate(mu), "done", next_id)
            else:
                join_prob = 1.0 if not impatient else min(1.0, beta / in_system)
                if rng.random() < join_prob:
                    joined += 1
                    waiting[next_id] = t
                    order.append(next_id)
                    if impatient:
                        push(t + rng.expovariate(alpha), "renege", next_id)
            next_id += 1
            push(t + rng.expovariate(lam), "arrival", None)
        elif kind == "done":
            if in_service == ident:
                in_service = None
                while order:
                    j = order.pop(0)
                    if j in waiting:
                        w = t - waiting.pop(j)
                        wait_joiners += w
                        wait_accepted += w
                        served += 1
                        served_joiners += 1
                        in_service = j
                        push(t + rng.expovariate(mu), "done", j)
                        break
        else:  # renege
            if ident in waiting:
                wait_joiners += t - waiting.pop(ident)
                order.remove(ident)
                reneged += 1

    in_system = (1 if in_service is not None else 0) + len(order)
    occupancy[min(in_system, max_state)] += horizon - last
    total = sum(occupancy)
    return MicroResult(
        pmf=[x / total for x in occupancy],
        arrivals=arrivals,
        served=served,
        joined=joined,
        served_joiners=served_joiners,
        reneged=reneged,
        wait_sum_joiners=wait_joiners,
        wait_sum_accepted=wait_accepted,
    )


def build_transition_dense(strategy, space, queue_empty_probs, release_rates=None,
                           mode="with-releases", opportunity_rate=None):
    """The chain's dense n x n matrix, filled state by state as the package first built it.

    The per-state acceptance scan and the loop are copied from the first
    ``markov.build_transition_matrix``; they read the strategy and the state
    space but share no code with the package's build.
    """
    import numpy as np

    n_states = len(space)
    n_types = space.model.num_types
    if release_rates is None:
        release_rates = space.model.release_rates
    release_rates = [float(r) for r in release_rates]
    if opportunity_rate is None:
        opportunity_rate = sum(space.model.arrival_rates)
    probs = [float(p) for p in queue_empty_probs]

    def acceptance(state_index):
        out = [0.0] * (n_types + 1)
        if state_index >= space.num_admissible:
            out[0] = 1.0
            return out
        prefix = 1.0
        for pref in strategy.columns[state_index]:
            if pref == 0:
                out[0] += prefix
                break
            take = prefix * (1.0 - probs[pref - 1])
            if increment_index(space, state_index, pref) >= 0:
                out[pref] += take
            else:
                out[0] += take
            prefix *= probs[pref - 1]
        return out

    psi = np.zeros((n_states, n_states))
    for i in range(n_states):
        accept = acceptance(i)
        if mode == "acceptance-only":
            psi[i, i] += accept[0]
            for n in range(1, n_types + 1):
                if accept[n] > 0.0:
                    psi[i, increment_index(space, i, n)] += accept[n]
            continue
        s = space.state_at(i)
        release_flows = [release_rates[n] * s[n] for n in range(n_types)]
        total = sum(release_flows) + opportunity_rate
        if total <= 0.0:
            psi[i, i] = 1.0
            continue
        for n in range(n_types):
            if release_flows[n] > 0.0:
                psi[i, space.release_index(i, n + 1)] += release_flows[n] / total
        scale = opportunity_rate / total
        psi[i, i] += scale * accept[0]
        for n in range(1, n_types + 1):
            if accept[n] > 0.0:
                psi[i, increment_index(space, i, n)] += scale * accept[n]
    return psi


def stationary_by_linear_solve(matrix):
    """Stationary vector of an irreducible chain via a dense linear solve."""
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    a = np.vstack([(m.T - np.eye(n))[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def cesaro_average(matrix, p_init, burn_in, window):
    """Mean of p_init P^k over k = burn_in .. burn_in + window - 1.

    Once the transient mass has drained and each closed class has mixed,
    this mean over a window that is a multiple of every class period is the
    Cesaro limit up to terms that decay geometrically in ``burn_in``.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    v = np.asarray(p_init, dtype=float)
    for _ in range(burn_in):
        v = v @ m
    total = np.zeros_like(v)
    for _ in range(window):
        total += v
        v = v @ m
    return total / window


def kld_direct(probabilities, p_hat):
    """Direct-summation divergence against a geometric pmf, natural log."""
    import math

    total = 0.0
    for k, p in enumerate(probabilities):
        if p <= 0.0:
            continue
        q = (1.0 - p_hat) ** k * p_hat
        total += p * math.log(p / q)
    return total


def run_round(config, space):
    """``engine.run`` on the tape drawn for ``config``: one round outside Monte-Carlo."""
    from slicesim.engine import build_tape, run

    return run(config, space, build_tape(config, space))


def run_scalar(config, space=None, tape=None):
    """``engine.run`` as the package first wrote it: one heap for every event.

    The loop is copied from the former ``engine.run``.  Each arrival is a heap
    event and schedules the next one with one scalar exponential draw, and
    every step goes through a closure.  It shares the package's metrics and
    controller types, so a faster loop must reproduce its outputs exactly.
    After every event it runs one more serving pass and asserts that it
    accepts nothing: the controller is quiescent between events, so a test
    that compares ``run`` with this loop catches a serving pass that ``run``
    wrongly skips.  A reneging request leaves its queue at once, by an
    identity ``deque.remove``, and the balking backlog and the logged queue
    lengths are the lengths of the controller's queues, so the comparison
    checks ``run``'s lazy removal and its counts against eager removal.
    Its trace is the package's plus the queue-empty counts the loop takes
    at each in-window arrival (``arrival_epochs``, ``empty_marginal``,
    ``scan_observed``, ``scan_empty``), which ``engine.queue_empty_counts``
    must reproduce from the event log, given it as a one-round list.

    The heap orders events by ``(t, not an arrival, push count)``: at one
    instant arrivals go first, then releases and reneges in the order they
    were pushed.  Continuous draws never tie; a hand-built ``tape`` (an
    ``engine.RoundTape``) can, and replaces the draws: its initial state and
    releases are pushed first, then every arrival in tape order, which is
    ``(t, type)``.
    """
    import math
    from dataclasses import field

    import numpy as np

    from slicesim.controller import (
        GreedySingleQueueController,
        MultiQueueController,
        RequestRecord,
    )
    from slicesim.engine import SimTrace, _draw_initial_index, overall_metrics
    from slicesim.slice_model import enumerate_state_space
    from slicesim.strategy import RESERVE

    model = config.model
    n_types = model.num_types
    if space is None:
        space = enumerate_state_space(model)

    root = np.random.SeedSequence(config.seed)
    children = root.spawn(1 + 2 * n_types)
    init_rng = np.random.Generator(np.random.PCG64(children[0]))
    arrival_rngs = [np.random.Generator(np.random.PCG64(children[1 + n])) for n in range(n_types)]
    mark_rngs = [np.random.Generator(np.random.PCG64(children[1 + n_types + n])) for n in range(n_types)]

    if tape is None:
        initial_index = _draw_initial_index(space, config.initial_state, init_rng)
    else:
        initial_index = tape.initial_index
    initial_state = space.state_at(initial_index)

    multi = config.strategy is not None
    if multi:
        controller = start_at(MultiQueueController(space, config.strategy), initial_state)
    else:
        controller = start_at(GreedySingleQueueController(space), initial_state)

    @dataclass
    class ScalarTrace(SimTrace):
        arrival_epochs: int = 0
        empty_marginal: list[int] = field(init=False, metadata={"zero": 0})
        scan_observed: list[int] = field(init=False, metadata={"zero": 0})
        scan_empty: list[int] = field(init=False, metadata={"zero": 0})

    trace = ScalarTrace(
        num_types=n_types,
        horizon=config.horizon,
        warmup=config.warmup,
        utility_rates=model.utility_rates,
        events=[] if config.record_events else None,
    )

    balk_on = [config.balking and model.types[n].balking_willingness is not None
               for n in range(n_types)]
    renege_on = [config.reneging and model.types[n].reneging_rate > 0.0
                 for n in range(n_types)]

    heap: list[tuple[float, bool, int, int, object]] = []
    seq = 0
    EV_ARRIVAL, EV_RELEASE, EV_RENEGE = 0, 1, 2

    def push(t: float, kind: int, payload: object) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(heap, (t, kind != EV_ARRIVAL, seq, kind, payload))

    if tape is None:
        # initial active slices: memoryless lifetimes drawn at t = 0
        for n in range(n_types):
            for _ in range(initial_state[n]):
                push(init_rng.exponential(1.0 / model.types[n].release_rate), EV_RELEASE, n + 1)
        for n in range(n_types):
            rate = model.types[n].arrival_rate
            if rate > 0.0:
                push(arrival_rngs[n].exponential(1.0 / rate), EV_ARRIVAL, n + 1)
    else:
        for t, n in tape.releases:
            push(t, EV_RELEASE, n)
        for arrival in zip(*tape.arrivals):  # (t, type, lifetime, u_balk, u_patience)
            push(arrival[0], EV_ARRIVAL, arrival)

    horizon, warmup = config.horizon, config.warmup
    in_window = lambda t: warmup < t <= horizon
    last_t = 0.0
    next_id = 0
    waiting = [0] * n_types  # per-type waiting counts, kept for both disciplines

    def advance(t: float) -> None:
        nonlocal last_t
        lo = last_t if last_t > warmup else warmup
        hi = t if t < horizon else horizon
        if hi > lo:
            dt = hi - lo
            index = controller.state_index
            trace.state_time[index] = trace.state_time.get(index, 0.0) + dt
            for n in range(n_types):
                trace.queue_time[n] += waiting[n] * dt
        last_t = t

    def log(t: float, kind: str, slice_type: int, request_id: int) -> None:
        if trace.events is not None:
            lengths = tuple(len(line) for line in controller.lines)
            trace.events.append((t, kind, slice_type, request_id, state(controller), lengths))

    def settle(t: float, accepted: list[RequestRecord]) -> None:
        for rec in accepted:
            n = rec.slice_type
            waiting[n - 1] -= 1
            trace.total_accepted[n - 1] += 1
            trace.accept_times[n - 1].append(t)
            if in_window(t):
                trace.accepted[n - 1] += 1
                trace.wait_sum[n - 1] += t - rec.join_time
                trace.wait_count[n - 1] += 1
            push(t + rec.lifetime, EV_RELEASE, n)
            log(t, "accept", n, rec.request_id)

    def measure_epoch(t: float) -> None:
        """Queue-empty observations used by the transition-model pipeline.

        At each arrival epoch (after the join/balk decision) the current
        preference column is scanned in order: every queue seen before the
        first non-empty one contributes an observation, conditional on all
        more-preferred queues having been empty.  Marginal emptiness is
        recorded for every queue as a fallback.
        """
        if in_window(t):
            trace.arrival_epochs += 1
            for n, q in enumerate(controller.queues):
                if not q:
                    trace.empty_marginal[n] += 1
            idx = controller.state_index
            if idx < space.num_admissible:
                for pref in config.strategy.columns[idx]:
                    if pref == RESERVE:
                        break
                    trace.scan_observed[pref - 1] += 1
                    if controller.queues[pref - 1]:
                        break
                    trace.scan_empty[pref - 1] += 1

    while heap:
        t, _, _, kind, payload = heapq.heappop(heap)
        if t > horizon:
            break
        advance(t)
        if kind == EV_ARRIVAL:
            if tape is None:
                n = payload
                ty = model.types[n - 1]
                lifetime = mark_rngs[n - 1].exponential(1.0 / ty.release_rate)
                u_balk = mark_rngs[n - 1].random()
                u_patience = mark_rngs[n - 1].random()
            else:
                _, n, lifetime, u_balk, u_patience = payload
                ty = model.types[n - 1]
            next_id += 1
            rec = RequestRecord(next_id, n, t, lifetime=lifetime)
            trace.total_arrivals[n - 1] += 1
            if in_window(t):
                trace.arrivals[n - 1] += 1
            log(t, "arrival", n, rec.request_id)
            queue = controller.queue_for(n)
            backlog = len(queue)
            join_prob = 1.0
            if balk_on[n - 1] and backlog >= 1:
                join_prob = min(1.0, ty.balking_willingness / backlog)
            if u_balk < join_prob:
                waiting[n - 1] += 1
                trace.total_joined[n - 1] += 1
                if in_window(t):
                    trace.joined[n - 1] += 1
                if renege_on[n - 1]:
                    push(t - math.log(1.0 - u_patience) / ty.reneging_rate, EV_RENEGE, rec)
                rec.waiting = True
                queue.append(rec)
                log(t, "join", n, rec.request_id)
                if multi:
                    measure_epoch(t)
                settle(t, controller.serve_queues())
            else:
                trace.total_balked[n - 1] += 1
                if in_window(t):
                    trace.balked[n - 1] += 1
                log(t, "balk", n, rec.request_id)
                if multi:
                    measure_epoch(t)
            if tape is None and ty.arrival_rate > 0.0:
                push(t + arrival_rngs[n - 1].exponential(1.0 / ty.arrival_rate), EV_ARRIVAL, n)
        elif kind == EV_RELEASE:
            n = payload
            log(t, "release", n, -1)
            settle(t, controller.handle_release(n))
        else:  # EV_RENEGE
            rec = payload
            if rec.waiting:
                rec.waiting = False
                controller.queue_for(rec.slice_type).remove(rec)  # by identity: eq=False
                n = rec.slice_type
                waiting[n - 1] -= 1
                trace.total_reneged[n - 1] += 1
                if in_window(t):
                    trace.reneged[n - 1] += 1
                    trace.wait_sum[n - 1] += t - rec.join_time
                    trace.wait_count[n - 1] += 1
                log(t, "renege", n, rec.request_id)
                if not multi:
                    settle(t, controller.serve_queues())
        assert not controller.serve_queues(), "controller left transient after event"

    advance(horizon)
    for index, dt in trace.state_time.items():
        s = space.state_at(index)
        for n in range(n_types):
            trace.slice_time[n] += s[n] * dt
    trace.final_queue_lengths = tuple(waiting)

    return trace, overall_metrics(trace, seed=config.seed)


def column_swap_neighbors(strategy):
    """All strategies reachable by swapping two entries inside one column.

    Copied from the package's first local search, which built this whole list
    before scoring any of it.
    """
    from slicesim.strategy import PreferenceMatrix

    neighbors = []
    width = strategy.num_types + 1
    for j, col in enumerate(strategy.columns):
        for a in range(width):
            for b in range(a + 1, width):
                swapped = list(col)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                cols = strategy.columns[:j] + (tuple(swapped),) + strategy.columns[j + 1:]
                neighbors.append(PreferenceMatrix(columns=cols, num_types=strategy.num_types))
    return neighbors


def local_search_eager(model, start, budget, config, rounds, metric, space):
    """``optimize.local_search`` as the package first wrote it, on the eager neighbor list.

    The loop is copied from the former ``local_search``; it scores with the
    package's ``evaluate_strategy`` and returns its ``SearchStep`` list.
    """
    import numpy as np

    from slicesim.engine import derived_seed
    from slicesim.optimize import SearchStep, evaluate_strategy

    tapes = {}
    sign = -1.0 if metric == "wait" else 1.0
    order_rng = np.random.Generator(np.random.PCG64(derived_seed(config.seed, 0x5eac)))

    def value(score):
        return sign * score.metric(metric)

    best = start
    best_score = evaluate_strategy(model, start, config, rounds, space, label="start",
                                   tapes=tapes)
    trajectory = [SearchStep(evaluations=0, score=best_score, strategy=best)]
    used = 0
    improved = True
    while improved and used < budget:
        improved = False
        candidate, candidate_score = None, None
        neighbors = column_swap_neighbors(best)
        for idx in order_rng.permutation(len(neighbors)):
            if used >= budget:
                break
            neighbor = neighbors[idx]
            used += 1
            score = evaluate_strategy(model, neighbor, config, rounds, space,
                                      label=f"eval-{used}", tapes=tapes)
            if candidate_score is None or value(score) > value(candidate_score):
                candidate, candidate_score = neighbor, score
        if candidate_score is not None and value(candidate_score) > value(best_score):
            best, best_score = candidate, candidate_score
            improved = True
        trajectory.append(SearchStep(evaluations=used, score=best_score, strategy=best))
    return trajectory


# Frozen high-precision reference values (60-digit series/gamma arithmetic).
BESSEL_I_REFERENCE = (
    (0.0, 0.0, 1.0),
    (0.0, 0.1, 1.0025015629340956),
    (0.0, 1.0, 1.2660658777520083),
    (0.0, 2.0, 2.2795853023360673),
    (1.0, 2.0, 1.5906368546373291),
    (1.0, 0.5, 0.25789430539089632),
    (2.0, 3.0, 2.2452124409299512),
    (0.5, 1.0, 0.93767488824548765),
    (2.5, 4.0, 4.757626874823473),
    (7.3, 2.0, 0.00012144446970876785),
    (10.0, 14.0, 3725.2263889849745),
    (15.0, 30.0, 18666616963.418607),
)

GAMMA_REFERENCE = (
    (0.5, 1.772453850905516),
    (1.0, 1.0),
    (1.5, 0.88622692545275801),
    (2.0, 1.0),
    (3.7, 4.170651783796604),
    (5.0, 24.0),
    (10.3, 716430.68906237641),
    (20.0, 1.21645100408832e+17),
    (35.5, 1.7403941995805607e+39),
    (50.0, 6.0828186403426756e+62),
)

#: Divergence of the uniform distribution on bins 0..9 from its fitted geometric.
KLD_UNIFORM_10_REFERENCE = 0.30518112882405978
