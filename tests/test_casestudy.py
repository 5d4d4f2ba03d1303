from collections import deque

from hypothesis import given, settings, strategies as st

from slicesim.casestudy import INITIAL_STATE, case_study_model, case_study_rows, render_case_study
from slicesim.config import builtin_scenario
from slicesim.controller import RequestRecord, serve_single_queue
from slicesim.slice_model import enumerate_state_space

from criteria import accepted_by_panel


def fcfs_pass(space, index, lines, accepted):
    """The FCFS panels' serving pass: ``serve_single_queue`` on each line in turn."""
    for line in lines:
        index = serve_single_queue(index, line, space._increment, space.num_types,
                                   space.num_admissible, accepted)
    return index


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
    # the FCFS pass after the burst: both heads are type-1 requests that do not fit;
    # a type-1 release lets the first in, then the type-2 request behind it
    space = enumerate_state_space(case_study_model())
    queues = [deque(RequestRecord(request_id, n, float(request_id), waiting=True)
                    for request_id, n in line) for line in (((1, 1), (3, 2)), ((2, 1), (4, 2)))]
    index, accepted = space.index_of(INITIAL_STATE), []
    assert fcfs_pass(space, index, queues, accepted) == index
    assert accepted == []
    index = fcfs_pass(space, space.release_index(index, 1), queues, accepted)
    assert [r.request_id for r in accepted] == [1, 3]
    assert space.state_at(index) == (1, 1)
    assert [len(queue) for queue in queues] == [0, 2]


_SPACES = [enumerate_state_space(case_study_model()),
           enumerate_state_space(builtin_scenario("paper-scenario-2"))]


@st.composite
def filled_lines(draw):
    """A space, an admissible state's index, and two or three FCFS lines of waiting
    records of random types."""
    space = draw(st.sampled_from(_SPACES))
    index = draw(st.integers(0, space.num_admissible - 1))
    types = st.integers(1, space.num_types)
    lines = draw(st.lists(st.lists(types, max_size=8), min_size=2, max_size=3))
    request_ids = iter(range(1, 100))
    return space, index, [deque(RequestRecord(next(request_ids), n, 0.0, waiting=True)
                                for n in line) for line in lines]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(filled_lines())
def test_one_fcfs_pass_is_enough(case):
    # each line blocks on its head, and a head that did not fit still does not once the
    # lines after it have added slices: the feasible set is down-closed
    space, index, lines = case
    index = fcfs_pass(space, index, lines, [])
    again = []
    assert fcfs_pass(space, index, lines, again) == index
    assert again == []


def test_heterogeneous_end_state_fully_used():
    rows = case_study_rows()
    het = [r for r in rows if r[0] == "heterogeneous-queues"]
    # last acceptance leaves one type-1 slice and two type-2 slices active
    assert het[-1][5] == "1 2"


def test_render_contains_all_panels():
    text = render_case_study(case_study_rows())
    for panel in ("single-queue", "homogeneous-queues", "heterogeneous-queues"):
        assert f"== {panel} ==" in text
