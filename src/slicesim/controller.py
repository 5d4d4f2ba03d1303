"""Multi-queue slice admission control.

The controller reacts to two kinds of tenant issues: a release decrements the
active-slice vector, a request joins the FCFS queue of its type.  After every
issue the queues are served recursively: scan the current state's preference
vector, skip everything after the reserve symbol, accept the head of a
preferred queue whenever one more slice of that type still fits, and repeat
until a full pass changes nothing.

A greedy single-queue controller (one FCFS line for all types, head-of-line
blocking, no preference) is provided as a benchmark.  Both share the state
and the release and renege handling of ``QueueController``.  A request joins
by an append to the queue that ``queue_for`` names, marked ``waiting``, and
whoever appended it then serves.  Each discipline's serving pass is one
module-level function, ``serve_multi_queue`` or ``serve_single_queue``,
written once: a controller's ``serve_queues`` (and so ``handle_release``)
runs it on its own state, and the event loop runs it on its local state
index after a join or a greedy renege, only where a pass can accept.  The
case study runs them on its own deques.  The classes keep only what the event
loop calls, which sets ``state_index`` (0 when built) before each release.

A renege is a lazy deletion, O(1) amortised: ``remove`` clears the record's
``waiting`` flag and leaves it in its queue unless it is the head.  A
reneged record is popped once it reaches the head, by ``remove`` or by the
serving pass that accepts the request before it, so a non-empty queue always
has a waiting head.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ContractViolation
from .slice_model import StateSpace
from .strategy import RESERVE, PreferenceMatrix, check_columns

@dataclass(eq=False, slots=True)
class RequestRecord:
    """One slice request: what the event loop and the queues read of it.

    Records compare by identity.  ``join_time`` is when it joined its queue;
    ``lifetime`` is the slice lifetime used if the request is accepted.  The
    code that appends a record to a queue sets ``waiting``; the serving pass
    that pops it, or its renege, clears it, so a renege deadline due after
    either is ignored.  What happened to each request is in the round's
    event log.
    """

    request_id: int
    slice_type: int
    join_time: float
    lifetime: float = 0.0
    waiting: bool = False


class QueueController:
    """Shared plumbing of the admission controllers.

    Holds the state index and the release/renege handling.  A
    subclass owns its queues, lists them in ``lines``, names through
    ``queue_for`` the deque a type-``n`` request joins, and serves its queues in
    ``serve_queues``; a pass that accepts nothing has changed nothing, so it is
    the test for quiescence.
    """

    lines: list[deque[RequestRecord]]

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        self.state_index = 0

    def handle_release(self, n: int) -> list[RequestRecord]:
        """Release one active slice of type ``n``, then serve if a request waits;
        returns the accepted requests."""
        new_index = self.space.release_index(self.state_index, n)
        if new_index < 0:
            raise ContractViolation(f"cannot release a type-{n} slice: none active")
        self.state_index = new_index
        return self.serve_queues() if any(self.lines) else []

    def remove(self, record: RequestRecord) -> bool:
        """Take a waiting request out of the running (reneging); True if it was the head.

        Clears the record's ``waiting`` flag.  Only the head is popped, with the
        reneged records behind it that then reach the head; a record further
        back stays in its queue until it reaches the head.
        """
        if not record.waiting:
            raise ContractViolation("request is not waiting in its queue")
        record.waiting = False
        queue = self.queue_for(record.slice_type)
        if queue[0] is not record:
            return False
        queue.popleft()
        while queue and not queue[0].waiting:
            queue.popleft()
        return True


class MultiQueueController(QueueController):
    """Heterogeneous multi-queue admission controller driven by a preference matrix."""

    def __init__(self, space: StateSpace, strategy: PreferenceMatrix) -> None:
        if strategy.num_types != space.model.num_types:
            raise ContractViolation("strategy and model disagree on the number of types")
        check_columns(strategy, space)
        super().__init__(space)
        self.strategy = strategy
        self.queues: list[deque[RequestRecord]] = [
            deque() for _ in range(space.model.num_types)
        ]
        self.lines = self.queues

    def queue_for(self, n: int) -> deque[RequestRecord]:
        if not 1 <= n <= len(self.queues):
            raise ContractViolation(f"slice type must lie in 1..{len(self.queues)}, got {n}")
        return self.queues[n - 1]

    def serve_queues(self) -> list[RequestRecord]:
        """Recursively serve the queues until blocked; returns requests accepted, in order."""
        accepted: list[RequestRecord] = []
        space = self.space
        self.state_index = serve_multi_queue(
            self.state_index, self.strategy.columns, self.queues, space._increment,
            space.num_types, space.num_admissible, accepted)
        return accepted


class GreedySingleQueueController(QueueController):
    """Single FCFS queue for all types; accepts the head whenever it fits, never skips."""

    def __init__(self, space: StateSpace) -> None:
        super().__init__(space)
        self.queue: deque[RequestRecord] = deque()
        self.lines = [self.queue]

    def queue_for(self, n: int) -> deque[RequestRecord]:
        return self.queue

    def serve_queues(self) -> list[RequestRecord]:
        accepted: list[RequestRecord] = []
        space = self.space
        self.state_index = serve_single_queue(
            self.state_index, self.queue, space._increment, space.num_types,
            space.num_admissible, accepted)
        return accepted


def serve_multi_queue(index: int, columns, queues: list[deque[RequestRecord]], increment,
                      width: int, num_admissible: int, accepted: list[RequestRecord]) -> int:
    """The multi-queue serving pass from state ``index``; returns the new index.

    Scans the state's preference column up to the reserve symbol and accepts
    the head of each non-empty preferred queue whose type still fits (an
    ``increment`` entry ``index * width + type - 1`` of -1 does not), and
    repeats until a full scan accepts nothing or the state is fully utilized.
    Accepted requests are popped, their ``waiting`` cleared, and appended to
    ``accepted`` in order; reneged records that reach the head are dropped.
    """
    while index < num_admissible:
        before = index
        for pref in columns[index]:
            if pref == RESERVE:
                break
            queue = queues[pref - 1]
            if queue:
                target = increment[index * width + pref - 1]
                if target >= 0:
                    accepted.append(rec := queue.popleft())
                    rec.waiting = False
                    while queue and not queue[0].waiting:
                        queue.popleft()
                    index = target
        if index == before:
            break
    return index


def serve_single_queue(index: int, line: deque[RequestRecord], increment, width: int,
                       num_admissible: int, accepted: list[RequestRecord]) -> int:
    """The greedy serving pass of the single FCFS ``line`` from state ``index``: accept
    its head while it fits; returns the new index, appending to ``accepted`` as
    ``serve_multi_queue`` does."""
    while line and index < num_admissible:
        target = increment[index * width + line[0].slice_type - 1]
        if target < 0:
            break
        accepted.append(rec := line.popleft())
        rec.waiting = False
        while line and not line[0].waiting:
            line.popleft()
        index = target
    return index
