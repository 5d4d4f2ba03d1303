"""Deterministic replay contrasting queuing schemes on a shared arrival burst.

One resource, two slice types (bundles 0.6 and 0.2 of the pool), one type-1
slice already active, and four requests arriving in the order 1, 1, 2, 2.
Three schemes process the same burst: a single FCFS queue for all types, two
mixed queues filled round-robin, and per-type queues driven by a preference
vector.  Only the per-type scheme accepts the two type-2 requests; the other
two block behind the waiting type-1 head although the pool has room.  Each
panel keeps a state index and its own deques; a request joins one, and a
``serve_multi_queue`` pass follows, or for the FCFS schemes a
``serve_single_queue`` pass on each deque in turn: one suffices, as a line
blocks on its head and the feasible set is down-closed.  ``case_study_rows``
is the event timeline that the ``casestudy`` command writes, and
``render_case_study`` its text form.
"""

from __future__ import annotations

from collections import deque

from .controller import RequestRecord, serve_multi_queue, serve_single_queue
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


def case_study_rows() -> list[Row]:
    """The full three-panel event timeline, one row per event."""
    space = enumerate_state_space(case_study_model())
    increment, width, admissible = space._increment, space.num_types, space.num_admissible
    columns = constant_strategy(space, (1, 2, 0)).columns
    rows: list[Row] = []
    for panel in PANELS:
        index = space.index_of(INITIAL_STATE)
        queues = [deque()] if panel == "single-queue" else [deque(), deque()]

        def row(time, event, slice_type, request_id):  # nothing reneges: all records wait
            rows.append((panel, time, event, slice_type, request_id,
                         " ".join(map(str, space.state_at(index))),
                         " ".join(str(len(queue)) for queue in queues)))

        row(0.0, "start", 0, -1)
        for request_id, (time, slice_type) in enumerate(ARRIVALS, start=1):
            if panel == "single-queue":
                queue = queues[0]
            elif panel == "homogeneous-queues":  # the next queue in turn, whatever the type
                queue = queues[(request_id - 1) % len(queues)]
            else:
                queue = queues[slice_type - 1]
            queue.append(RequestRecord(request_id, slice_type, time, waiting=True))
            row(time, "join", slice_type, request_id)
            accepted: list[RequestRecord] = []
            if panel == "heterogeneous-queues":
                index = serve_multi_queue(index, columns, queues, increment, width, admissible,
                                          accepted)
            else:
                for line in queues:
                    index = serve_single_queue(index, line, increment, width, admissible,
                                               accepted)
            for rec in accepted:
                row(time, "accept", rec.slice_type, rec.request_id)
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
