import random

import pytest

from slicesim.controller import (
    GreedySingleQueueController,
    MultiQueueController,
    RequestRecord,
)
from slicesim.errors import ContractViolation
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import PreferenceMatrix, constant_strategy, naive_strategy

from oracles import handle_request, queue_lengths, start_at, state


def case_study_space():
    model = ResourceModel(
        pool=(1.0,),
        costs=((0.6,), (0.2,)),
        types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)),
    )
    return enumerate_state_space(model)


def make_request(rid, slice_type, t=0.0):
    return RequestRecord(rid, slice_type, t)


def join(queue, record):
    """Append ``record`` to ``queue`` as a joining request: marked waiting."""
    record.waiting = True
    queue.append(record)


def ids(records):
    return [r.request_id for r in records]


class TestHandleRequest:
    def test_empty_system_accepts_immediately(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (0, 0))
        accepted = handle_request(c, make_request(1, 1))
        assert [r.request_id for r in accepted] == [1]
        assert state(c) == (1, 0)
        assert queue_lengths(c) == (0, 0)

    def test_burst_accepts_type2_while_type1_waits(self):
        # with one type-1 slice active, both type-2 requests fit but type-1 do not
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 0))
        accepted = []
        for rid, n in enumerate([1, 1, 2, 2], start=1):
            accepted += handle_request(c, make_request(rid, n))
        assert [r.request_id for r in accepted] == [3, 4]
        assert state(c) == (1, 2)
        assert queue_lengths(c) == (2, 0)

    def test_queue_after_reserve_starves(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, constant_strategy(space, (2, 0, 1))), (0, 0))
        assert handle_request(c, make_request(1, 1)) == []
        assert queue_lengths(c) == (1, 0)
        # a type-2 request is still served
        accepted = handle_request(c, make_request(2, 2))
        assert [r.request_id for r in accepted] == [2]


class TestHandleRelease:
    def test_release_unblocks_waiting_type1(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 0))
        for rid, n in enumerate([1, 1, 2, 2], start=1):
            handle_request(c, make_request(rid, n))
        accepted = c.handle_release(1)
        assert [r.request_id for r in accepted] == [1]
        assert state(c) == (1, 2)
        assert queue_lengths(c) == (1, 0)

    def test_release_with_empty_queues(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 0))
        assert c.handle_release(1) == []
        assert state(c) == (0, 0)

    def test_release_nonexistent_slice(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (0, 1))
        with pytest.raises(ContractViolation):
            c.handle_release(1)


class TestServeQueues:
    def test_noop_on_empty_queues(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 1))
        before = state(c)
        assert c.serve_queues() == []
        assert state(c) == before

    def test_noop_outside_admissible_region(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 2))
        join(c.queues[0], make_request(1, 1))
        join(c.queues[1], make_request(2, 2))
        assert c.serve_queues() == []
        assert queue_lengths(c) == (1, 1)

    def test_multiple_passes_drain_queue(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-2")), (0, 0))
        for rid in range(1, 6):
            join(c.queues[1], make_request(rid, 2))
        accepted = c.serve_queues()
        assert [r.request_id for r in accepted] == [1, 2, 3, 4, 5]
        assert state(c) == (0, 5)

    def test_fcfs_within_queue(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 0))
        for rid in range(1, 5):
            handle_request(c, make_request(rid, 2))
        order = [r.request_id for r in c.handle_release(1) + c.serve_queues()]
        # two fit immediately after the release; queue order is preserved
        assert order == sorted(order)


class TestGreedySingleQueue:
    def test_head_of_line_blocking(self):
        space = case_study_space()
        c = start_at(GreedySingleQueueController(space), (1, 0))
        accepted = []
        for rid, n in enumerate([1, 1, 2, 2], start=1):
            accepted += handle_request(c, make_request(rid, n))
        assert accepted == []
        assert queue_lengths(c) == (4,)

    def test_release_serves_in_arrival_order(self):
        space = case_study_space()
        c = start_at(GreedySingleQueueController(space), (1, 0))
        for rid, n in enumerate([1, 2, 2], start=1):
            handle_request(c, make_request(rid, n))
        accepted = c.handle_release(1)
        assert [r.request_id for r in accepted] == [1, 2, 3]
        assert state(c) == (1, 2)


def _blocked_controllers(space):
    """Both disciplines, in a full state where no request can be accepted."""
    return [
        start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (1, 2)),
        start_at(GreedySingleQueueController(space), (1, 2)),
    ]


class TestRemove:
    """A renege clears the record's ``waiting`` flag; the queue keeps it until it is the
    head, so these tests read what ``remove`` returns, ``queue_lengths`` and what
    later serving passes accept, not the deques."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_removes_by_identity(self, index):
        # two field-equal requests are still two requests: removing the second
        # must leave the first waiting at the head
        c = _blocked_controllers(case_study_space())[index]
        first, second = make_request(1, 1), make_request(1, 1)
        handle_request(c, first)
        handle_request(c, second)
        assert c.remove(second) is False
        assert queue_lengths(c)[0] == 1
        assert c.handle_release(1) == [first]
        assert sum(queue_lengths(c)) == 0 and not any(c.lines)

    @pytest.mark.parametrize("index", [0, 1])
    def test_request_not_waiting_is_rejected(self, index):
        c = _blocked_controllers(case_study_space())[index]
        handle_request(c, make_request(1, 1))
        with pytest.raises(ContractViolation, match="not waiting"):
            c.remove(make_request(2, 1))

    @pytest.mark.parametrize("index", [0, 1])
    def test_finds_a_record_among_equal_join_times(self, index):
        c = _blocked_controllers(case_study_space())[index]
        records = [make_request(rid, 1, t) for rid, t in enumerate((0.5, 1.0, 1.0, 1.0, 2.0))]
        for rec in records:
            handle_request(c, rec)
        assert c.remove(records[2]) is False
        assert queue_lengths(c)[0] == 4
        assert c.remove(records[0]) is True
        assert queue_lengths(c)[0] == 3
        # each release lets one type-1 request in, in queue order, past the reneged one
        assert [c.handle_release(1) for _ in range(4)] == [[records[1]], [records[3]],
                                                           [records[4]], []]
        assert queue_lengths(c)[0] == 0

    @pytest.mark.parametrize("index", [0, 1])
    def test_refuses_records_that_never_joined_or_already_left(self, index):
        c = _blocked_controllers(case_study_space())[index]
        waiting = make_request(1, 1, 1.0)
        handle_request(c, waiting)
        with pytest.raises(ContractViolation, match="not waiting"):
            c.remove(RequestRecord(2, 1, 1.0))  # never joined, at a waiting one's join time
        c.remove(waiting)
        with pytest.raises(ContractViolation, match="not waiting"):
            c.remove(waiting)

    @pytest.mark.parametrize("index", [0, 1])
    def test_refuses_an_accepted_record(self, index):
        c = _blocked_controllers(case_study_space())[index]
        head, behind = make_request(1, 1, 1.0), make_request(2, 1, 2.0)
        handle_request(c, head)
        handle_request(c, behind)
        assert c.handle_release(1) == [head]
        with pytest.raises(ContractViolation, match="not waiting"):
            c.remove(head)
        assert queue_lengths(c)[0] == 1
        assert c.remove(behind) is True

    @pytest.mark.parametrize("index", [0, 1])
    def test_reneged_record_behind_an_accepted_head_is_never_served(self, index):
        c = _blocked_controllers(case_study_space())[index]
        head, behind, last = (make_request(rid, 1, float(rid)) for rid in (1, 2, 3))
        for rec in (head, behind, last):
            assert handle_request(c, rec) == []
        assert c.remove(behind) is False
        assert c.handle_release(1) == [head]
        assert queue_lengths(c)[0] == 1
        assert c.serve_queues() == []
        assert c.handle_release(1) == [last]
        assert not any(c.lines)

    def test_greedy_head_renege_lets_the_next_request_in(self):
        # at (1, 1) a type-1 head does not fit and blocks a type-2 request that does
        c = start_at(GreedySingleQueueController(case_study_space()), (1, 1))
        head, behind, last = make_request(1, 1, 1.0), make_request(2, 2, 2.0), make_request(3, 1, 3.0)
        for rec in (head, behind, last):
            assert handle_request(c, rec) == []
        assert c.remove(last) is False
        assert c.serve_queues() == []
        assert c.remove(head) is True
        assert c.serve_queues() == [behind]
        assert state(c) == (1, 2)

    @pytest.mark.parametrize("head_leaves", ["renege", "accept"])
    def test_greedy_blocked_head_with_reneges_behind_serves_the_next_waiting(self, head_leaves):
        # at (1, 1) the type-1 head blocks three type-2 requests, two of which renege
        c = start_at(GreedySingleQueueController(case_study_space()), (1, 1))
        head = make_request(1, 1, 1.0)
        gone, waiting = [make_request(2, 2, 2.0), make_request(3, 2, 3.0)], make_request(4, 2, 4.0)
        for rec in (head, *gone, waiting):
            assert handle_request(c, rec) == []
        assert [c.remove(rec) for rec in gone] == [False, False]
        assert queue_lengths(c) == (2,)
        if head_leaves == "renege":
            assert c.remove(head) is True
            assert c.serve_queues() == [waiting]
            assert state(c) == (1, 2)
        else:  # the release lets the head in, then the waiting request behind the reneges
            assert c.handle_release(1) == [head, waiting]
            assert state(c) == (1, 2)
        assert queue_lengths(c) == (0,) and not any(c.lines)


class TestColumnCount:
    def test_strategy_of_another_space_is_refused(self):
        space = case_study_space()
        short = PreferenceMatrix(columns=((1, 2, 0),) * (space.num_admissible - 1), num_types=2)
        with pytest.raises(ContractViolation,
                           match=f"strategy has {space.num_admissible - 1} columns, "
                                 f"admissibility region has {space.num_admissible} states"):
            MultiQueueController(space, short)


class TestIsTransient:
    """The controller is transient while a serving pass would accept something.

    The probe is that pass itself: one that accepts nothing changes nothing.
    """

    def test_empty_queues(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (0, 0))
        assert c.serve_queues() == []
        assert state(c) == (0, 0)

    def test_direct_conditions(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (0, 0))
        head = make_request(1, 1)
        join(c.queues[0], head)
        assert c.serve_queues() == [head]
        assert state(c) == (1, 0)

    def test_quiescent_after_serving(self):
        space = case_study_space()
        rng = random.Random(9)
        for trial in range(200):
            columns = tuple(
                tuple(rng.sample([0, 1, 2], 3)) for _ in range(space.num_admissible)
            )
            strategy = PreferenceMatrix(columns=columns, num_types=2)
            c = start_at(MultiQueueController(space, strategy),
                         space.state_at(rng.randrange(len(space))))
            for rid in range(rng.randint(0, 6)):
                join(c.queues[rng.randint(0, 1)], make_request(rid, rng.randint(1, 2)))
            c.serve_queues()
            index, lengths = c.state_index, queue_lengths(c)
            assert c.serve_queues() == []
            assert (c.state_index, queue_lengths(c)) == (index, lengths)

    def test_starved_queue_not_transient(self):
        space = case_study_space()
        c = start_at(MultiQueueController(space, constant_strategy(space, (0, 1, 2))), (0, 0))
        join(c.queues[0], make_request(1, 1))
        assert c.serve_queues() == []
        assert queue_lengths(c) == (1, 0)


def test_steady_state_path_independence():
    # serving is deterministic: the same transient configuration always lands
    # in the same steady state
    space = case_study_space()
    rng = random.Random(31)
    for trial in range(100):
        columns = tuple(
            tuple(rng.sample([0, 1, 2], 3)) for _ in range(space.num_admissible)
        )
        strategy = PreferenceMatrix(columns=columns, num_types=2)
        start = space.state_at(rng.randrange(len(space)))
        queue_fill = [
            [make_request(rid, 1) for rid in range(rng.randint(0, 4))],
            [make_request(rid + 10, 2) for rid in range(rng.randint(0, 4))],
        ]
        outcomes = set()
        for _ in range(3):
            c = start_at(MultiQueueController(space, strategy), start)
            for n, reqs in enumerate(queue_fill):
                for r in reqs:
                    join(c.queues[n], make_request(r.request_id, r.slice_type))
            accepted = c.serve_queues()
            outcomes.add((state(c), tuple(r.request_id for r in accepted)))
        assert len(outcomes) == 1


def test_state_safety_under_random_driving():
    space = case_study_space()
    rng = random.Random(77)
    c = start_at(MultiQueueController(space, naive_strategy(space, "prefer-type-1")), (0, 0))
    feasible = set(space.states)
    rid = 0
    for _ in range(500):
        if rng.random() < 0.6:
            rid += 1
            handle_request(c, make_request(rid, rng.randint(1, 2)))
        else:
            s = state(c)
            live = [n for n in (1, 2) if s[n - 1] > 0]
            if live:
                c.handle_release(rng.choice(live))
        assert state(c) in feasible
