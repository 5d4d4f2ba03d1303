"""Continuous-time discrete-event simulation of the admission controller.

Per-type Poisson request arrivals, exponential slice lifetimes, optional
balking (join probability shrinking with queue length) and reneging
(exponential patience deadlines).  Each run is driven by independent, seeded
PCG64 streams per purpose (initial state, one arrival stream and one mark
stream per type), so two policies given the same seed consume identical
randomness and can be compared with common random numbers.

Round tapes: a round splits into a *tape*, its strategy-independent input,
and the *replay* of that tape by the event loop, ``run``.  ``build_tape``
draws the tape, and only the Monte-Carlo round loop calls it:
``SeedSequence(seed)`` spawns ``1 + 2N`` children in the order initial-state,
arrivals of type 1..N, marks of type 1..N.  The initial-state stream draws
the initial state's index, then one lifetime per initial slice (the initial
releases, in type order).  Every arrival up to the horizon draws exactly one
lifetime and two uniforms from its type's mark stream, whatever the toggles.
Monte-Carlo round ``i`` of master seed ``m`` runs with seed
``SeedSequence([m, i]).generate_state(1)``.

An arrival stream draws only exponentials, so it is drawn in blocks of
``ARRIVAL_BLOCK`` whose values equal scalar draws one by one, until a block
passes the horizon; the type's marks follow in arrival order.  One stable
sort merges the types by ``(t, type)``, and the tape keeps the arrivals as
five typed columns, 40 bytes an arrival: its memory is O(arrivals per round),
as is a round's record of acceptance times.  Arrivals stay out of the event
heap (releases and reneges).  ``monte_carlo`` given a ``tapes`` dict keeps
each round's tape and replays it for every strategy (and the greedy single
queue, ``strategy`` None) that asks for the same round.

The controller is quiescent before every event, so a serving pass runs only
where it can accept: after a join to an empty queue (under greedy, the single
line), a release while a request waits, and a greedy renege of the head.  A
join behind a waiting request changes neither the state nor which queues are
non-empty, and a multi-queue renege only empties queues.  The loop keeps the
state index in a local: after a join or a greedy renege it calls the
controller module's serving function for its discipline with it, and a
release goes through the controller's ``handle_release``, which serves only
while a request waits.  A renege leaves its record in its queue, flagged,
unless it is the head (``QueueController.remove``), so the loop never reads
a queue's length: the per-type counts of waiting requests, ``waiting``, and
their sum, ``queued``, give the balking backlog and every logged entry's
queue lengths, and let queue time accrue only while a request waits, for
the types that have one waiting.

The event heap holds bare release and renege times up to the horizon (a later
one would never pop), and a dict maps each time to its event; events due at
one time leave in push order, and an arrival at a heap event's time goes
first.  The loop keeps no queue-empty counts: those that feed the chain come
from logged rounds' ``join`` and ``balk`` entries, on rounds that
``logged_rounds`` reruns with ``monte_carlo``'s seeds.  ``queue_empty_counts``
sums them over an iterable of such rounds, read one at a time, and the
``empty_probs`` of its ``QueueEmptyCounts`` are the probabilities the chain
takes.  A ``MonteCarloResult`` pools inter-acceptance times when first asked.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .controller import (GreedySingleQueueController, MultiQueueController, RequestRecord,
                         serve_multi_queue, serve_single_queue)
from .errors import ContractViolation
from .slice_model import ResourceModel, StateSpace
from .strategy import RESERVE, PreferenceMatrix

RNG_METADATA = {
    "generator": "numpy PCG64",
    "streams": "SeedSequence(seed) spawning [initial-state, arrivals x N, marks x N]",
    "rounds": "round i uses SeedSequence([master_seed, i]).generate_state(1)",
}

#: Arrival epochs drawn at a time from a type's stream.
ARRIVAL_BLOCK = 256


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation round needs.

    ``strategy`` None runs the greedy single queue.  ``record_events`` keeps the
    event log, the round's one record of what happened to each request (off
    in Monte-Carlo).
    """

    model: ResourceModel
    strategy: PreferenceMatrix | None = None
    horizon: float = 40.0
    warmup: float = 0.0
    seed: int = 0
    initial_state: str | tuple[int, ...] = "empty"
    balking: bool = False
    reneging: bool = False
    record_events: bool = True

    def __post_init__(self) -> None:
        if not self.horizon > self.warmup >= 0.0:
            raise ContractViolation("need horizon > warmup >= 0")
        if isinstance(self.initial_state, str):
            if self.initial_state not in ("empty", "full"):
                raise ContractViolation(
                    f"initial_state must be 'empty', 'full' or an explicit state, "
                    f"got {self.initial_state!r}"
                )
        else:  # one hashable form of an explicit state, for the tape cache's key
            object.__setattr__(self, "initial_state", tuple(self.initial_state))


def _per_type(zero: int | float):
    """A per-type list field that ``SimTrace`` starts at ``zero`` for every type."""
    return field(init=False, metadata={"zero": zero})


@dataclass
class SimTrace:
    """Raw material of one round: the event log and the accumulators.

    An ``events`` entry is ``(t, kind, type, request_id, state index, queue lengths)``,
    of kind ``arrival``, ``join``, ``balk``, ``accept``, ``renege`` or
    ``release`` (request id -1); it is the one record of each request's fate.
    """

    num_types: int
    horizon: float
    warmup: float
    utility_rates: tuple[float, ...] = ()
    events: list[tuple[float, str, int, int, int, tuple[int, ...]]] | None = None
    accept_times: list[list[float]] = field(init=False)
    # in-window time per state index, the one occupancy accumulator (slice_time derives from it)
    state_time: dict[int, float] = field(default_factory=dict)
    slice_time: list[float] = _per_type(0.0)
    queue_time: list[float] = _per_type(0.0)
    # in-window event counts per type: whole-run counts minus those at the window's opening
    arrivals: list[int] = _per_type(0)
    joined: list[int] = _per_type(0)
    balked: list[int] = _per_type(0)
    accepted: list[int] = _per_type(0)
    reneged: list[int] = _per_type(0)
    wait_sum: list[float] = _per_type(0.0)
    wait_count: list[int] = _per_type(0)  # accepted + reneged
    # whole-run counts per type (conservation)
    total_arrivals: list[int] = _per_type(0)
    total_joined: list[int] = _per_type(0)
    total_balked: list[int] = _per_type(0)
    total_accepted: list[int] = _per_type(0)
    total_reneged: list[int] = _per_type(0)
    final_queue_lengths: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.accept_times = [[] for _ in range(self.num_types)]
        for f in fields(self):
            if "zero" in f.metadata:
                setattr(self, f.name, [f.metadata["zero"]] * self.num_types)


@dataclass
class MetricsReport:
    """The three headline metrics plus per-type detail for one round."""

    seed: int
    utility_rate_mean: float
    wait_mean: float
    admission_rate: float
    acceptance_rates: tuple[float, ...]
    queue_length_means: tuple[float, ...]
    wait_means: tuple[float, ...]
    mean_active_slices: tuple[float, ...]
    arrivals: tuple[int, ...]
    joined: tuple[int, ...]
    balked: tuple[int, ...]
    accepted: tuple[int, ...]
    reneged: tuple[int, ...]
    still_waiting: tuple[int, ...]


def _draw_initial_index(space: StateSpace, policy: str | tuple[int, ...],
                        rng: np.random.Generator) -> int:
    if isinstance(policy, tuple):
        return space.index_of(policy)
    if policy == "empty":  # index 0 by construction
        return 0
    # "full": uniform over fully-utilized states (no increment of any type fits)
    return int(rng.integers(space.num_admissible, len(space)))


def _arrival_columns(slice_type: int, rate: float, lifetime_scale: float, horizon: float,
                     arrival_rng: np.random.Generator, mark_rng: np.random.Generator):
    """A type's arrivals up to ``horizon`` as columns ``(t, type, lifetime, u_balk, u_patience)``.

    Epochs come in blocks of ``ARRIVAL_BLOCK`` until one passes the horizon;
    ``np.cumsum`` adds left to right, so each epoch equals the running
    ``t + rng.exponential(scale)`` of scalar draws.  Each arrival then draws
    its three marks in order.
    """
    blocks, last = [], 0.0
    while rate > 0.0 and last <= horizon:
        draws = arrival_rng.exponential(1.0 / rate, size=ARRIVAL_BLOCK)
        draws[0] += last
        times = np.cumsum(draws)
        last = times[-1]
        blocks.append(times[:np.searchsorted(times, horizon, side="right")])
    epochs = np.concatenate(blocks) if blocks else np.empty(0)
    marks = array("d")
    lifetime, uniform, keep = mark_rng.exponential, mark_rng.random, marks.append
    for _ in range(len(epochs)):
        keep(lifetime(lifetime_scale))
        keep(uniform())
        keep(uniform())
    lifetimes, u_balk, u_patience = np.frombuffer(marks).reshape(-1, 3).T
    return epochs, np.full(len(epochs), slice_type), lifetimes, u_balk, u_patience


# the typecodes of the columns (t, type, lifetime, u_balk, u_patience)
_CODES = "dqddd"


def _merge(per_type: list) -> tuple[array, ...]:
    """Per-type arrival columns, in type order and each sorted by time, as one set
    of typed arrays sorted by ``(t, type)``.

    A stable sort of their concatenation in type order is ``heapq.merge``'s
    order: each type's own order kept, a tie going to the lower type.
    """
    order = np.argsort(np.concatenate([columns[0] for columns in per_type]), kind="stable")
    return tuple(array(code, np.concatenate(parts, dtype=code)[order].tobytes())
                 for code, parts in zip(_CODES, zip(*per_type)))


class RoundTape(NamedTuple):
    """One round's strategy-independent input, which ``run`` replays any number of times.

    ``releases`` holds the initial slices' ``(time, type)`` in push order;
    ``arrivals`` holds the columns ``(t, type, lifetime, u_balk, u_patience)``
    of the arrivals up to the horizon, ordered by ``(t, type)``.
    """

    initial_index: int
    releases: tuple[tuple[float, int], ...]
    arrivals: tuple[array, ...]


def build_tape(config: SimConfig, space: StateSpace) -> RoundTape:
    """Draw the tape of the round ``config`` describes (its seed, horizon and initial state)."""
    types = config.model.types
    n_types = len(types)
    init_rng, *rngs = (np.random.Generator(np.random.PCG64(child))
                       for child in np.random.SeedSequence(config.seed).spawn(1 + 2 * n_types))
    index = _draw_initial_index(space, config.initial_state, init_rng)
    scales = [1.0 / ty.release_rate for ty in types]
    # initial active slices: memoryless lifetimes drawn at t = 0, a type's all at once
    # (the values of one scalar draw each, in the same order)
    releases = tuple((t, n + 1) for n, count in enumerate(space.state_at(index))
                     for t in init_rng.exponential(scales[n], count).tolist())
    arrivals = _merge([_arrival_columns(n + 1, ty.arrival_rate, scales[n], config.horizon,
                                        rngs[n], rngs[n_types + n])
                       for n, ty in enumerate(types)])
    return RoundTape(index, releases, arrivals)


# what ``run`` reads once the tape's arrivals run out: later than any horizon
_NO_ARRIVAL = (math.inf,)


def _due_behind(due: dict, when: float, event) -> None:
    """Queue ``event`` behind what is already due at ``when``: ``run``'s ``due`` maps a time
    to a slice type (a release), a request record (a renege) or, rarely, a list of them
    in push order, the order a heap of ``(time, push count)`` pairs gives."""
    first = due[when]
    due[when] = first + [event] if first.__class__ is list else [first, event]


def check_conservation(trace: SimTrace) -> None:
    """Raise ``ContractViolation`` unless every request of the run is accounted for.

    Per type, over the whole run: arrived = joined + balked, and
    joined = accepted + reneged + still waiting.
    """
    for n, counts in enumerate(zip(trace.total_arrivals, trace.total_joined, trace.total_balked,
                                   trace.total_accepted, trace.total_reneged,
                                   trace.final_queue_lengths)):
        arrived, joined, balked, accepted, reneged, waiting = counts
        if arrived != joined + balked or joined != accepted + reneged + waiting:
            raise ContractViolation(
                f"type {n + 1} requests not conserved: (arrived, joined, balked, accepted, "
                f"reneged, still waiting) = {counts}")


def run(config: SimConfig, space: StateSpace, tape: RoundTape) -> tuple[SimTrace, MetricsReport]:
    """Replay ``tape``, the round ``config`` describes, over [0, horizon], and report
    metrics over (warmup, horizon]."""
    model = config.model
    n_types = model.num_types

    multi = config.strategy is not None
    if multi:
        controller = MultiQueueController(space, config.strategy)
    else:
        controller = GreedySingleQueueController(space)

    trace = SimTrace(n_types, config.horizon, config.warmup, model.utility_rates,
                     events=[] if config.record_events else None)

    types = model.types
    balking = [ty.balking_willingness if config.balking else None for ty in types]
    reneging = [ty.reneging_rate if config.reneging else 0.0 for ty in types]
    queues = controller.queues
    columns = config.strategy.columns if multi else None

    # releases and reneges wait in the heap as bare times, and ``due`` maps each time to
    # its event (see ``_due_behind``); the next arrival waits in ``pending``
    EV_ARRIVAL, EV_RELEASE, EV_RENEGE, EV_END = 0, 1, 2, 3
    heap: list[float] = []
    due: dict[float, object] = {}
    horizon, warmup = config.horizon, config.warmup
    for t, slice_type in tape.releases:
        if t > horizon:
            continue
        heap.append(t)
        if t in due:
            _due_behind(due, t, slice_type)
        else:
            due[t] = slice_type
    heapq.heapify(heap)
    arrivals_left = zip(*tape.arrivals)
    pending = next(arrivals_left, _NO_ARRIVAL)

    last_t = 0.0
    next_id = 0
    index = tape.initial_index
    increment, width, num_admissible = space._increment, space.num_types, space.num_admissible
    waiting = [0] * n_types  # per-type waiting counts, kept for both controllers
    queued = 0  # their sum: the greedy line's length, and queue time accrues only while one waits
    served: list[RequestRecord] = []  # what the last serving pass accepted, until settled
    state_time, queue_time, wait_sum = trace.state_time, trace.queue_time, trace.wait_sum
    accept_times, events = trace.accept_times, trace.events
    totals = (trace.total_arrivals, trace.total_joined, trace.total_balked,
              trace.total_accepted, trace.total_reneged)
    total_arrivals, total_joined, total_balked, total_accepted, total_reneged = totals
    all_types = range(n_types)
    handle_release, remove = controller.handle_release, controller.remove
    heappush, heappop, pop_due = heapq.heappush, heapq.heappop, due.pop

    while True:
        t = pending[0]
        if heap and heap[0] < t:
            t = heappop(heap)
            payload = pop_due(t)
            if payload.__class__ is list:  # events due at one time leave in push order
                payload, *later = payload
                due[t] = later if len(later) > 1 else later[0]
            kind = EV_RELEASE if payload.__class__ is int else EV_RENEGE
        else:
            kind = EV_ARRIVAL
        if t > horizon:
            t, kind = horizon, EV_END
        in_window = t > warmup
        if in_window:  # occupancy over (warmup, horizon]
            if last_t <= warmup:  # the first event past the warm-up (EV_END at the latest)
                last_t, at_opening = warmup, [counts[:] for counts in totals]
            dt = t - last_t
            if dt > 0.0:
                state_time[index] = state_time.get(index, 0.0) + dt
                if queued:  # adding 0.0 for an empty queue would change no bit
                    for n in all_types:
                        if waiting[n]:
                            queue_time[n] += waiting[n] * dt
        last_t = t
        if kind == EV_ARRIVAL:
            _, slice_type, lifetime, u_balk, u_patience = pending
            pending = next(arrivals_left, _NO_ARRIVAL)
            n = slice_type - 1
            next_id += 1
            total_arrivals[n] += 1
            if events is not None:
                events.append((t, "arrival", slice_type, next_id, index,
                               tuple(waiting) if multi else (queued,)))
            backlog, willingness = waiting[n] if multi else queued, balking[n]
            joins = willingness is None or backlog < 1 or u_balk < min(1.0, willingness / backlog)
            if joins:
                rec = RequestRecord(next_id, slice_type, t, lifetime, True)  # waiting
                waiting[n] += 1
                queued += 1
                total_joined[n] += 1
                if reneging[n] > 0.0:
                    when = t - math.log(1.0 - u_patience) / reneging[n]
                    if when <= horizon:  # a later event never pops
                        heappush(heap, when)
                        if when in due:
                            _due_behind(due, when, rec)
                        else:
                            due[when] = rec
                queues[n].append(rec)
                if events is not None:
                    events.append((t, "join", slice_type, next_id, index,
                                   tuple(waiting) if multi else (queued,)))
                if not backlog:  # a join behind a waiting request cannot be served
                    if multi:
                        index = serve_multi_queue(index, columns, queues, increment, width,
                                                  num_admissible, served)
                    else:
                        index = serve_single_queue(index, queues[n], increment, width,
                                                   num_admissible, served)
            else:
                total_balked[n] += 1
                if events is not None:
                    events.append((t, "balk", slice_type, next_id, index,
                                   tuple(waiting) if multi else (queued,)))
        elif kind == EV_RELEASE:
            if events is not None:
                events.append((t, "release", payload, -1, index,
                               tuple(waiting) if multi else (queued,)))
            controller.state_index = index
            served = handle_release(payload)  # a new list, cleared and reused once settled
            index = controller.state_index
        elif kind == EV_RENEGE:
            rec = payload
            if rec.waiting:
                head_left = remove(rec)
                n = rec.slice_type - 1
                waiting[n] -= 1
                queued -= 1
                total_reneged[n] += 1
                if in_window:
                    wait_sum[n] += t - rec.join_time
                if events is not None:
                    events.append((t, "renege", n + 1, rec.request_id, index,
                                   tuple(waiting) if multi else (queued,)))
                if head_left and not multi:  # the greedy head may have blocked one that fits
                    index = serve_single_queue(index, queues[n], increment, width,
                                               num_admissible, served)
        else:  # EV_END
            break
        if served:  # settle the requests the controller accepted
            for rec in served:
                n = rec.slice_type - 1
                waiting[n] -= 1
                total_accepted[n] += 1
                accept_times[n].append(t)
                if in_window:
                    wait_sum[n] += t - rec.join_time
                when = t + rec.lifetime
                if when <= horizon:
                    heappush(heap, when)
                    if when in due:
                        _due_behind(due, when, n + 1)
                    else:
                        due[when] = n + 1
            queued -= len(served)
            if events is not None:  # each entry logs the lengths after the whole pass
                lengths = tuple(waiting) if multi else (queued,)
                events.extend([(t, "accept", rec.slice_type, rec.request_id, index, lengths)
                               for rec in served])
            served.clear()

    # one list per type, not one per visited state: fewer objects for the collector
    for n, visited in enumerate(space.counts[list(state_time)].T.tolist()):
        for count, dt in zip(visited, state_time.values()):
            trace.slice_time[n] += count * dt
    trace.arrivals, trace.joined, trace.balked, trace.accepted, trace.reneged = (
        [total - before for total, before in zip(counts, opened)]
        for counts, opened in zip(totals, at_opening))
    trace.wait_count = [a + r for a, r in zip(trace.accepted, trace.reneged)]
    trace.final_queue_lengths = tuple(waiting)
    check_conservation(trace)

    return trace, overall_metrics(trace, seed=config.seed)


def overall_metrics(trace: SimTrace, seed: int = 0) -> MetricsReport:
    """Aggregate a trace into the three headline metrics plus per-type detail.

    The overall waiting time is the queue-length-weighted mean of the
    per-queue mean waits; the admission rate is accepted over arrived, and 1
    when nothing arrived.
    """
    duration = trace.horizon - trace.warmup
    mean_active = tuple(x / duration for x in trace.slice_time)
    queue_means = tuple(x / duration for x in trace.queue_time)
    accept_rates = tuple(c / duration for c in trace.accepted)
    wait_means = tuple(
        (s / c if c else 0.0) for s, c in zip(trace.wait_sum, trace.wait_count)
    )
    weight = sum(queue_means)
    if weight > 0.0:
        wait_mean = sum(l * w for l, w in zip(queue_means, wait_means)) / weight
    else:
        wait_mean = 0.0
    total_arrivals = sum(trace.arrivals)
    admission = sum(trace.accepted) / total_arrivals if total_arrivals else 1.0
    utility = sum(u * m for u, m in zip(trace.utility_rates, mean_active))

    return MetricsReport(
        seed=seed,
        utility_rate_mean=utility,
        wait_mean=wait_mean,
        admission_rate=admission,
        acceptance_rates=accept_rates,
        queue_length_means=queue_means,
        wait_means=wait_means,
        mean_active_slices=mean_active,
        arrivals=tuple(trace.arrivals),
        joined=tuple(trace.joined),
        balked=tuple(trace.balked),
        accepted=tuple(trace.accepted),
        reneged=tuple(trace.reneged),
        still_waiting=trace.final_queue_lengths,
    )


@dataclass
class MonteCarloResult:
    """Per-round reports and acceptance times; per-queue inter-acceptance samples on first read."""

    reports: list[MetricsReport]
    accept_times: list[list[list[float]]]  # per round, per type, whole-run
    warmup: float

    @cached_property
    def iat_samples(self) -> list[list[float]]:
        """Each queue's inter-acceptance times inside the rounds' window, pooled in round order."""
        pooled: list[list[float]] = [[] for _ in self.accept_times[0]]
        for per_type in self.accept_times:
            for samples, times in zip(pooled, per_type):
                times = [t for t in times if t > self.warmup]  # none lies past the horizon
                samples.extend(b - a for a, b in zip(times, times[1:]))
        return pooled


def derived_seed(master_seed: int, index: int) -> int:
    """Deterministic per-round (or per-strategy) seed from a master seed."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def _round_runs(config: SimConfig, rounds: int, space: StateSpace,
                tapes: dict | None, record_events: bool) -> Iterator[tuple[SimTrace, MetricsReport]]:
    """``run`` of each Monte-Carlo round of ``config`` in turn, on its tape drawn here or
    kept in ``tapes``; round ``i`` has seed ``derived_seed(config.seed, i)``."""
    if rounds < 1:
        raise ContractViolation("need at least one Monte-Carlo round")
    for i in range(rounds):
        round_config = replace(config, seed=derived_seed(config.seed, i),
                               record_events=record_events)
        if tapes is None:  # no name holds the tape, so it goes with its round
            yield run(round_config, space, build_tape(round_config, space))
            continue
        key = (config.model, config.horizon, config.initial_state, round_config.seed)
        tape = tapes.get(key)
        if tape is None:
            tape = tapes[key] = build_tape(round_config, space)
        yield run(round_config, space, tape)


def monte_carlo(config: SimConfig, rounds: int, space: StateSpace,
                tapes: dict | None = None) -> MonteCarloResult:
    """Independent rounds with seeds derived from ``config.seed``, without event logs.

    With a ``tapes`` dict, each round replays the tape kept there for its
    ``(model, horizon, initial_state, round seed)``, drawn and kept on first
    use, so the strategies of one command share their rounds' draws.
    """
    reports, accept_times = [], []
    for trace, report in _round_runs(config, rounds, space, tapes, record_events=False):
        reports.append(report)
        accept_times.append(trace.accept_times)
    return MonteCarloResult(reports, accept_times, config.warmup)


def logged_rounds(config: SimConfig, rounds: int,
                  space: StateSpace) -> Iterator[tuple[SimTrace, MetricsReport]]:
    """``monte_carlo``'s rounds of ``config`` with their event logs.

    Round ``i`` has the seed, and so the report, of ``monte_carlo``'s round
    ``i``.  A logged round costs about 1.7 times an unlogged one.
    """
    return _round_runs(config, rounds, space, None, record_events=True)


class QueueEmptyCounts(NamedTuple):
    """Queue-empty observations at in-window arrivals, per type, summed over rounds."""

    arrival_epochs: int
    empty_marginal: tuple[int, ...]  # epochs that found the queue empty
    scan_observed: tuple[int, ...]  # preference scans that reached the queue
    scan_empty: tuple[int, ...]  # of those, scans that found it empty

    @property
    def empty_probs(self) -> tuple[float, ...]:
        """The measured queue-empty probabilities the chain takes: each queue's scan-empty
        share (prefix-conditional); where the scan never reached it, its marginal emptiness
        at arrival epochs; where no arrival came, 1."""
        epochs = self.arrival_epochs
        return tuple(empty / observed if observed else marginal / epochs if epochs else 1.0
                     for marginal, observed, empty in zip(
                         self.empty_marginal, self.scan_observed, self.scan_empty))


def queue_empty_counts(traces: Iterable[SimTrace], space: StateSpace,
                       strategy: PreferenceMatrix | None) -> QueueEmptyCounts:
    """The queue-empty observations of logged multi-queue rounds, summed over them and read
    one at a time; zeros under greedy (``strategy`` None).

    At every arrival past the warm-up, after it joined or balked and before
    the serving pass (its ``join`` or ``balk`` entry), each queue counts
    toward its marginal emptiness; the state's column is then scanned in
    preference order up to the reserve, and each queue it reaches up to the
    first non-empty one is observed, given all more-preferred ones empty.
    The arrival's own queue is never empty there (a balk needs a waiting
    request), so where a column ranks a queue after every other queue, the
    scan reaches it only at an arrival of its own type and never finds it
    empty: under prefer-type-2 with two types, queue 1's measured p is
    exactly 0.
    """
    n_types = space.num_types
    marginal, observed, empty = [0] * n_types, [0] * n_types, [0] * n_types
    epochs = 0
    if strategy is not None:
        columns, num_admissible = strategy.columns, space.num_admissible
        for trace in traces:
            if trace.events is None:
                raise ContractViolation("queue-empty counts need a round run with record_events")
            for t, kind, _, _, index, lengths in trace.events:
                if t <= trace.warmup or (kind != "join" and kind != "balk"):
                    continue
                epochs += 1
                for m, length in enumerate(lengths):
                    if not length:
                        marginal[m] += 1
                if index < num_admissible:
                    for pref in columns[index]:
                        if pref == RESERVE:
                            break
                        observed[pref - 1] += 1
                        if lengths[pref - 1]:
                            break
                        empty[pref - 1] += 1
    return QueueEmptyCounts(epochs, tuple(marginal), tuple(observed), tuple(empty))
