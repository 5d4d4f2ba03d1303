"""Deterministic replay contrasting queuing schemes on a shared arrival burst.

One resource, two slice types (bundles 0.6 and 0.2 of the pool), one type-1
slice already active, and four requests arriving in the order 1, 1, 2, 2.
Three schemes process the same burst: a single FCFS queue for all types, two
mixed queues filled round-robin, and per-type queues driven by a preference
vector.  Only the per-type scheme accepts the two type-2 requests; the other
two block behind the waiting type-1 head although the pool has room.  Each
request joins the queue its controller's ``queue_for`` names and is followed
by one ``serve_queues`` pass.  ``case_study_rows`` is the event timeline that
the ``casestudy`` command writes, and ``render_case_study`` its text form.
"""

from __future__ import annotations

from collections import deque

from .controller import (GreedySingleQueueController, MultiQueueController, QueueController,
                         RequestRecord)
from .slice_model import ResourceModel, SliceType, enumerate_state_space
from .strategy import constant_strategy

PANELS = ("single-queue", "homogeneous-queues", "heterogeneous-queues")

ARRIVALS = ((1.0, 1), (2.0, 1), (3.0, 2), (4.0, 2))
INITIAL_STATE = (1, 0)

Row = tuple[str, float, str, int, int, str, str]


def case_study_model() -> ResourceModel:
    return ResourceModel(
        pool=(1.0,),
        costs=((0.6,), (0.2,)),
        types=(SliceType(arrival_rate=1.0, release_rate=1.0),
               SliceType(arrival_rate=1.0, release_rate=1.0)),
    )


class _HomogeneousQueues(QueueController):
    """Two mixed FCFS queues, filled round-robin, each blocking on its head."""

    def __init__(self, space, initial_state) -> None:
        super().__init__(space, initial_state)
        self.queues = [deque(), deque()]
        self.lines = self.queues
        self._next = 0

    def queue_for(self, n: int) -> deque[RequestRecord]:
        """The next queue in turn, whatever the type: each call places one request."""
        queue = self.queues[self._next]
        self._next = (self._next + 1) % len(self.queues)
        return queue

    def serve_queues(self) -> list[RequestRecord]:
        accepted = []
        moved = True
        while moved:
            moved = False
            for queue in self.queues:
                if not queue:
                    continue
                target = self.space.increment_index(self.state_index, queue[0].slice_type)
                if target >= 0:
                    accepted.append(rec := queue.popleft())
                    rec.waiting = False
                    self.state_index = target
                    moved = True
        return accepted


def case_study_rows() -> list[Row]:
    """The full three-panel event timeline, one row per event."""
    model = case_study_model()
    space = enumerate_state_space(model)
    rows: list[Row] = []

    def fmt(values) -> str:
        return " ".join(str(v) for v in values)

    for panel in PANELS:
        if panel == "single-queue":
            controller = GreedySingleQueueController(space, INITIAL_STATE)
        elif panel == "homogeneous-queues":
            controller = _HomogeneousQueues(space, INITIAL_STATE)
        else:
            strategy = constant_strategy(space, (1, 2, 0))
            controller = MultiQueueController(space, strategy, INITIAL_STATE)
        rows.append((panel, 0.0, "start", 0, -1,
                     fmt(controller.state), fmt(controller.queue_lengths())))
        for request_id, (time, slice_type) in enumerate(ARRIVALS, start=1):
            controller.queue_for(slice_type).append(
                RequestRecord(request_id, slice_type, time, waiting=True))
            rows.append((panel, time, "join", slice_type, request_id,
                         fmt(controller.state), fmt(controller.queue_lengths())))
            for accepted in controller.serve_queues():
                rows.append((panel, time, "accept", accepted.slice_type,
                             accepted.request_id,
                             fmt(controller.state), fmt(controller.queue_lengths())))
    return rows


def render_case_study(rows: list[Row]) -> str:
    """Fixed-format text rendering of the three panels."""
    lines = []
    for panel in PANELS:
        lines.append(f"== {panel} ==")
        for p, time, event, slice_type, request_id, state, queues in rows:
            if p != panel:
                continue
            rid = "-" if request_id < 0 else str(request_id)
            lines.append(
                f"t={time:.1f} {event:<7} type={slice_type} request={rid} "
                f"s=[{state}] queues=[{queues}]"
            )
        lines.append("")
    return "\n".join(lines)
