from collections import deque

from slicesim.casestudy import (
    INITIAL_STATE,
    case_study_model,
    case_study_rows,
    render_case_study,
    serve_round_robin,
)
from slicesim.controller import RequestRecord
from slicesim.slice_model import enumerate_state_space

from criteria import accepted_by_panel


def test_deterministic_replay():
    rows1 = case_study_rows()
    rows2 = case_study_rows()
    assert rows1 == rows2
    assert render_case_study(rows1) == render_case_study(rows2)


def test_heterogeneous_accepts_both_type2():
    accepted = accepted_by_panel(case_study_rows())
    # requests 3 and 4 are the type-2 requests of the burst
    assert accepted["heterogeneous-queues"] == [3, 4]


def test_single_queue_blocks_everything():
    accepted = accepted_by_panel(case_study_rows())
    assert accepted["single-queue"] == []


def test_homogeneous_queues_block_behind_type1_heads():
    accepted = accepted_by_panel(case_study_rows())
    assert accepted["homogeneous-queues"] == []


def test_homogeneous_queues_release_and_serve():
    # the round-robin pass after the burst: both heads are type-1 requests that do not
    # fit; a type-1 release lets the first in, then the type-2 request behind it
    space = enumerate_state_space(case_study_model())
    queues = [deque([RequestRecord(1, 1, 1.0), RequestRecord(3, 2, 3.0)]),
              deque([RequestRecord(2, 1, 2.0), RequestRecord(4, 2, 4.0)])]
    index, accepted = space.index_of(INITIAL_STATE), []
    assert serve_round_robin(index, queues, space, accepted) == index
    assert accepted == []
    index = serve_round_robin(space.release_index(index, 1), queues, space, accepted)
    assert [r.request_id for r in accepted] == [1, 3]
    assert space.state_at(index) == (1, 1)
    assert [len(queue) for queue in queues] == [0, 2]


def test_heterogeneous_end_state_fully_used():
    rows = case_study_rows()
    het = [r for r in rows if r[0] == "heterogeneous-queues"]
    # last acceptance leaves one type-1 slice and two type-2 slices active
    assert het[-1][5] == "1 2"


def test_render_contains_all_panels():
    text = render_case_study(case_study_rows())
    for panel in ("single-queue", "homogeneous-queues", "heterogeneous-queues"):
        assert f"== {panel} ==" in text
