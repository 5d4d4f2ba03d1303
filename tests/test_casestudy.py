from slicesim.casestudy import (
    INITIAL_STATE,
    _HomogeneousQueues,
    case_study_model,
    case_study_rows,
    render_case_study,
)
from slicesim.controller import RequestRecord
from slicesim.slice_model import enumerate_state_space

from criteria import accepted_by_panel
from oracles import handle_request


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
    # the shared controller plumbing reads the queues through ``lines``
    controller = _HomogeneousQueues(enumerate_state_space(case_study_model()), INITIAL_STATE)
    assert handle_request(controller, RequestRecord(1, 1, 1.0)) == []
    assert handle_request(controller, RequestRecord(2, 2, 2.0))[0].request_id == 2
    assert controller.queue_lengths() == (1, 0)
    assert controller.state == (1, 1)
    assert [r.request_id for r in controller.handle_release(1)] == [1]
    assert controller.queue_lengths() == (0, 0)
    assert controller.state == (1, 1)
    assert controller.handle_release(2) == []
    assert controller.state == (1, 0)


def test_heterogeneous_end_state_fully_used():
    rows = case_study_rows()
    het = [r for r in rows if r[0] == "heterogeneous-queues"]
    # last acceptance leaves one type-1 slice and two type-2 slices active
    assert het[-1][5] == "1 2"


def test_render_contains_all_panels():
    text = render_case_study(case_study_rows())
    for panel in ("single-queue", "homogeneous-queues", "heterogeneous-queues"):
        assert f"== {panel} ==" in text
