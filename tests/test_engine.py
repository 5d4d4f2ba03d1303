import dataclasses
import heapq
import math
import statistics
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import run_round, run_scalar
from test_slice_model import small_models
from slicesim import engine
from slicesim.engine import (
    RoundTape,
    SimConfig,
    build_tape,
    check_conservation,
    derived_seed,
    logged_rounds,
    monte_carlo,
    pooled_queue_empty_probs,
    queue_empty_counts,
    run,
)
from slicesim.errors import ContractViolation
from slicesim.slice_model import ResourceModel, SliceType, StateSpace, enumerate_state_space
from slicesim.strategy import constant_strategy, naive_strategy, random_strategy


def table_model(scenario=1):
    lam = (2.0, 0.5) if scenario == 1 else (6.0, 1.5)
    return ResourceModel(
        pool=(1.0, 1.0),
        costs=((0.01, 0.05), (0.2, 0.04)),
        types=(
            SliceType(lam[0], 1 / 5.0, 1.0, reneging_rate=1.0, balking_willingness=0.02),
            SliceType(lam[1], 1 / 2.0, 10.0, reneging_rate=1.0, balking_willingness=0.02),
        ),
    )


def single_slot_model(lam=0.8, eta=1.0):
    # one slice at a time: a self-queueing single-server system
    return ResourceModel(
        pool=(1.0,),
        costs=((1.0,),),
        types=(SliceType(lam, eta, 1.0),),
    )


class TestRunBasics:
    def test_no_arrivals(self):
        model = ResourceModel(
            pool=(1.0,), costs=((0.5,),), types=(SliceType(0.0, 1.0, 1.0),)
        )
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=constant_strategy(space, (1, 0)),
                           horizon=10.0)
        trace, report = run_round(config, space)
        assert report.arrivals == (0,)
        assert report.admission_rate == 1.0
        assert report.utility_rate_mean == 0.0

    def test_no_contention_all_instant(self):
        # plenty of room: every request is accepted on arrival with zero wait
        model = ResourceModel(
            pool=(100.0,), costs=((1.0,),), types=(SliceType(1.0, 1.0, 1.0),)
        )
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=constant_strategy(space, (1, 0)),
                           horizon=200.0, seed=5)
        trace, report = run_round(config, space)
        assert report.admission_rate == 1.0
        assert report.wait_mean == 0.0
        assert report.still_waiting == (0,)

    def test_infeasible_initial_state(self):
        model = single_slot_model()
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=constant_strategy(space, (1, 0)),
                           horizon=10.0, initial_state=(5,))
        with pytest.raises(ContractViolation):
            run_round(config, space)

    def test_determinism(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=99,
                           initial_state="full", balking=True, reneging=True)
        _, a = run_round(config, space)
        _, b = run_round(config, space)
        assert a == b

    def test_full_initial_state_is_fully_utilized(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        for seed in range(10):
            config = SimConfig(model=model, strategy=strategy, horizon=1.0,
                               seed=seed, initial_state="full")
            assert not build_tape(config, space).initial_index < space.num_admissible


class TestConservationAndOrdering:
    def _config(self, seed, greedy=False):
        model = table_model(2)
        space = enumerate_state_space(model)
        strategy = None if greedy else random_strategy(space, seed)
        return SimConfig(model=model, strategy=strategy, horizon=40.0,
                         seed=seed, initial_state="full",
                         balking=True, reneging=True), space

    def _run(self, seed, greedy=False):
        """A round of ``run``, checked against the scalar oracle (quiescence included)."""
        config, space = self._config(seed, greedy)
        trace, report = run_round(config, space)
        _assert_matches_oracle(space, trace, report, *run_scalar(config, space))
        return trace, report

    def test_conservation_per_type(self):
        for seed in range(8):
            trace, report = self._run(seed)
            for n in range(2):
                assert trace.total_arrivals[n] == (
                    trace.total_balked[n] + trace.total_reneged[n]
                    + trace.total_accepted[n] + trace.final_queue_lengths[n]
                )

    @pytest.mark.parametrize("field", ["total_balked", "total_reneged", "final_queue_lengths"])
    def test_conservation_check_rejects_a_doctored_trace(self, field):
        trace, _ = self._run(2)
        check_conservation(trace)
        counts = list(getattr(trace, field))
        counts[1] += 1
        setattr(trace, field, tuple(counts))
        with pytest.raises(ContractViolation, match="type 2 requests not conserved"):
            check_conservation(trace)

    def test_event_times_nondecreasing(self):
        trace, _ = self._run(3)
        times = [e[0] for e in trace.events]
        assert times == sorted(times)

    def test_every_accept_preceded_by_join(self):
        trace, _ = self._run(4)
        joined = set()
        for _, kind, _, rid, _, _ in trace.events:
            if kind == "join":
                joined.add(rid)
            elif kind == "accept":
                assert rid in joined

    def test_fcfs_acceptance_order(self):
        trace, _ = self._run(5)
        for n in (1, 2):
            joined = [rid for _, kind, ty, rid, _, _ in trace.events
                      if kind == "join" and ty == n]
            accepted = [joined.index(rid) for _, kind, ty, rid, _, _ in trace.events
                        if kind == "accept" and ty == n]
            assert accepted and accepted == sorted(accepted)

    def test_no_event_scheduled_past_the_horizon(self, monkeypatch):
        # such a release or renege never pops: the loop ends at the first time past it
        pushed = []
        push = heapq.heappush

        def counted(heap, when):
            pushed.append(when)
            push(heap, when)

        monkeypatch.setattr(heapq, "heappush", counted)
        trace, _ = run_round(*self._config(6))
        assert trace.total_reneged[0] and trace.total_accepted[1]
        assert pushed and max(pushed) <= trace.horizon

    def test_reneged_leave_exactly_at_deadline(self):
        config, space = self._config(6)
        trace, _ = run_round(config, space)
        # request i is the tape's arrival i - 1; its patience mark sets its deadline
        arrived, _, _, _, u_patience = build_tape(config, space).arrivals
        joined = {rid: t for t, kind, _, rid, _, _ in trace.events if kind == "join"}
        reneged = [(t, ty, rid) for t, kind, ty, rid, _, _ in trace.events if kind == "renege"]
        assert reneged, "expected some reneging in scenario 2"
        for t, ty, rid in reneged:
            assert joined[rid] == arrived[rid - 1]
            rate = config.model.types[ty - 1].reneging_rate
            assert t == joined[rid] - math.log(1.0 - u_patience[rid - 1]) / rate

    def test_greedy_discipline_invariants(self):
        trace, report = self._run(7, greedy=True)
        for n in range(2):
            assert trace.total_arrivals[n] == (
                trace.total_balked[n] + trace.total_reneged[n]
                + trace.total_accepted[n] + trace.final_queue_lengths[n]
            )

    def test_greedy_line_is_served_after_a_renege(self):
        # a head that reneges may have blocked a request that fits: the engine must
        # serve the line then, or it parts from the oracle, which serves and then
        # finds nothing more to accept
        model = table_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=200.0,
                           seed=0, initial_state="full", balking=True, reneging=True)
        for i in range(6):
            round_config = dataclasses.replace(config, seed=derived_seed(config.seed, i))
            _assert_matches_oracle(space, *run_round(round_config, space),
                                   *run_scalar(round_config, space))

    def test_greedy_queue_lengths_tracked_per_type(self):
        # the single shared queue still reports per-type occupancy
        trace, report = self._run(9, greedy=True)
        assert len(report.queue_length_means) == 2
        assert all(l >= 0.0 for l in report.queue_length_means)
        # time-integrated occupancy of type 1 equals its summed waits from the log
        # (warmup is zero; a request still waiting waits until the horizon)
        joined, waited = {}, 0.0
        for t, kind, ty, rid, _, _ in trace.events:
            if ty != 1:
                continue
            if kind == "join":
                joined[rid] = t
            elif kind in ("accept", "renege"):
                waited += t - joined.pop(rid)
        waited += sum(trace.horizon - t for t in joined.values())
        assert len(joined) == trace.final_queue_lengths[0]
        assert report.queue_length_means[0] * trace.horizon == pytest.approx(waited, rel=1e-9)


class TestUtilityIdentity:
    def test_time_average_equals_weighted_occupancy(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-2")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=11)
        trace, report = run_round(config, space)
        expected = sum(
            u * m for u, m in zip(model.utility_rates, report.mean_active_slices)
        )
        assert report.utility_rate_mean == pytest.approx(expected, rel=1e-12)

    def test_long_run_utility_consistent_with_flow_estimate(self):
        # time-average utility vs sum of u_n * (acceptance rate / release rate)
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=2000.0,
                           warmup=100.0, seed=2)
        trace, report = run_round(config, space)
        flow = sum(
            u * mu / eta for u, mu, eta in zip(
                model.utility_rates, report.acceptance_rates, model.release_rates
            )
        )
        assert report.utility_rate_mean == pytest.approx(flow, rel=0.05)


class TestLittleLaw:
    def test_mean_queue_length_matches_rate_times_wait(self):
        model = single_slot_model(lam=0.8, eta=1.0)
        space = enumerate_state_space(model)
        strategy = constant_strategy(space, (1, 0))
        config = SimConfig(model=model, strategy=strategy, horizon=5000.0,
                           warmup=200.0, seed=17)
        result = monte_carlo(config, rounds=20, space=space)
        diffs = []
        for report in result.reports:
            joins_per_time = report.joined[0] / (config.horizon - config.warmup)
            diffs.append(report.queue_length_means[0]
                         - joins_per_time * report.wait_means[0])
        mean = statistics.mean(diffs)
        se = statistics.stdev(diffs) / math.sqrt(len(diffs))
        assert abs(mean) <= 3 * se


class TestMetricsReport:
    def test_weighted_wait_mean(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=60.0, seed=23,
                           initial_state="full")
        trace, report = run_round(config, space)
        weight = sum(report.queue_length_means)
        if weight > 0:
            expected = sum(
                l * w for l, w in zip(report.queue_length_means, report.wait_means)
            ) / weight
            assert report.wait_mean == pytest.approx(expected)

    def test_admission_rate_counts(self):
        model = table_model(2)
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-2")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=31,
                           initial_state="full", balking=True, reneging=True)
        trace, report = run_round(config, space)
        assert report.admission_rate == pytest.approx(
            sum(report.accepted) / sum(report.arrivals)
        )
        assert 0.0 <= report.admission_rate <= 1.0


class TestMonteCarlo:
    def test_single_round_reproduces_run(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=55)
        result = monte_carlo(config, rounds=1, space=space)
        direct_config = SimConfig(model=model, strategy=strategy, horizon=40.0,
                                  seed=derived_seed(55, 0), record_events=False)
        _, direct = run_round(direct_config, space)
        assert result.reports[0] == direct

    def test_records_kept_only_with_event_log(self):
        model = table_model()
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-1"),
                           horizon=20.0, seed=3, record_events=False)
        trace, report = run_round(config, space)
        assert sum(report.arrivals) > 0
        assert trace.events is None

    def test_master_seed_determinism(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-2")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=7,
                           initial_state="full", balking=True, reneging=True)
        a = monte_carlo(config, rounds=5, space=space)
        b = monte_carlo(config, rounds=5, space=space)
        assert a.reports == b.reports
        assert a.iat_samples == b.iat_samples

    def test_pooled_iat_sample_volume(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=40.0, seed=1,
                           initial_state="full")
        result = monte_carlo(config, rounds=20, space=space)
        # roughly lambda * horizon * rounds acceptances per queue in light load
        assert len(result.iat_samples[0]) > 0.5 * 2.0 * 40 * 20
        assert len(result.iat_samples[1]) > 0.5 * 0.5 * 40 * 20

    def test_rounds_validation(self):
        model = table_model()
        config = SimConfig(model=model, strategy=None, horizon=4.0)
        with pytest.raises(ContractViolation):
            monte_carlo(config, rounds=0, space=enumerate_state_space(model))


class TestCommonRandomNumbers:
    def test_arrivals_identical_across_policies(self):
        model = table_model(2)
        space = enumerate_state_space(model)
        cfg = dict(model=model, horizon=20.0, seed=13, initial_state="full",
                   balking=True, reneging=True)
        configs = [SimConfig(strategy=strategy, **cfg) for strategy in (
            naive_strategy(space, "prefer-type-1"), naive_strategy(space, "prefer-type-2"), None)]
        t1, t2, t3 = (run_round(config, space)[0] for config in configs)
        def arrival_times(trace):
            return [(e[0], e[2]) for e in trace.events if e[1] == "arrival"]
        assert arrival_times(t1) == arrival_times(t2) == arrival_times(t3)
        # the initial state, the initial lifetimes and every arrival's marks are one tape
        tape, *others = (build_tape(config, space) for config in configs)
        assert all(other == tape for other in others)
        assert arrival_times(t1) == list(zip(*tape.arrivals[:2]))


class TestQueueEmptyMeasurement:
    def test_probabilities_in_range_and_pooled(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, horizon=200.0, seed=3)
        probs = pooled_queue_empty_probs([queue_empty_counts(trace, space, strategy)
                                          for trace, _ in logged_rounds(config, 4, space)])
        assert len(probs) == 2
        assert all(0.0 <= p <= 1.0 for p in probs)
        # light load: the top-preference queue is non-empty at its own arrival
        # epochs only, so its scan-empty share is near 1 - lambda_1 / Lambda
        lam = model.arrival_rates
        assert probs[0] == pytest.approx(1 - lam[0] / sum(lam), abs=0.05)

    def test_logged_rounds_report_as_monte_carlo_rounds(self):
        model = table_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-2"),
                           horizon=30.0, warmup=5.0, seed=8, initial_state="full",
                           balking=True, reneging=True)
        logged = list(logged_rounds(config, 3, space))
        replayed = monte_carlo(config, 3, space, tapes={})
        assert [report for _, report in logged] == replayed.reports
        assert all(trace.events for trace, _ in logged)

    def test_counts_need_an_event_log(self):
        model = table_model()
        space = enumerate_state_space(model)
        strategy = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=strategy, record_events=False)
        trace, _ = run_round(config, space)
        with pytest.raises(ContractViolation, match="record_events"):
            queue_empty_counts(trace, space, strategy)

    def test_pooling_falls_back_to_marginals_then_one(self):
        counts = engine.QueueEmptyCounts
        # the scan reached queue 1 only; queue 2 falls back to its marginal
        assert pooled_queue_empty_probs(
            [counts(4, (1, 3), (2, 0), (1, 0)), counts(2, (0, 1), (2, 0), (0, 0))]
        ) == (0.25, 4 / 6)
        assert pooled_queue_empty_probs([counts(0, (0, 0), (0, 0), (0, 0))]) == (1.0, 1.0)
        with pytest.raises(ContractViolation):
            pooled_queue_empty_probs([])


_ORACLE_POOLS = (0.5, 1.0)
_ORACLE_COSTS = (0.1, 0.2, 0.25, 0.5)


@st.composite
def oracle_rounds(draw):
    """A small model of 1-3 types and one round on it, over every toggle of ``SimConfig``."""
    pool = tuple(draw(st.lists(st.sampled_from(_ORACLE_POOLS), min_size=1, max_size=2)))
    costs, types = [], []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(pool) - 1))  # a resource the type surely consumes
        costs.append(tuple(
            draw(st.sampled_from([c for c in _ORACLE_COSTS if c <= r] + ([] if m == k else [0.0])))
            for m, r in enumerate(pool)
        ))
        types.append(SliceType(
            arrival_rate=draw(st.sampled_from((0.0, 0.5, 2.0, 6.0))),
            release_rate=draw(st.sampled_from((0.2, 0.5, 1.0))),
            utility_rate=draw(st.sampled_from((0.0, 1.0, 10.0))),
            reneging_rate=draw(st.sampled_from((0.0, 0.1, 1.0))),
            balking_willingness=draw(st.sampled_from((None, 0.02, 0.5, 1.0))),
        ))
    model = ResourceModel(pool=pool, costs=tuple(costs), types=tuple(types))
    space = enumerate_state_space(model)
    strategy = None  # the greedy single queue, or else a random strategy
    if draw(st.booleans()):
        strategy = random_strategy(space, draw(st.integers(0, 2**16)))
    horizon = draw(st.sampled_from((3.0, 10.0, 30.0, 60.0)))
    initial = draw(st.sampled_from(("empty", "full", "explicit")))
    if initial == "explicit":
        initial = draw(st.sampled_from(space.states))
    return SimConfig(
        model=model, strategy=strategy, horizon=horizon,
        warmup=draw(st.sampled_from((0.0, horizon / 4, horizon * 0.999))),
        seed=draw(st.integers(0, 2**32 - 1)),
        initial_state=initial, balking=draw(st.booleans()), reneging=draw(st.booleans()),
        record_events=draw(st.booleans()),
    ), space


def _state_tuples(events, space):
    """An event log with each state index as its slice counts, as ``run_scalar`` logs it."""
    if events is None:
        return None
    return [(t, kind, slice_type, request_id, space.state_at(index), lengths)
            for t, kind, slice_type, request_id, index, lengths in events]


def _assert_matches_oracle(space, trace, report, expected_trace, expected_report):
    """A round of ``run`` equals the same round of ``run_scalar``, field by field."""
    assert report == expected_report
    assert _state_tuples(trace.events, space) == expected_trace.events
    for f in dataclasses.fields(trace):
        if f.name != "events":
            assert getattr(trace, f.name) == getattr(expected_trace, f.name), f.name


# short blocks make block refills happen on short horizons
@pytest.mark.parametrize("block", [engine.ARRIVAL_BLOCK, 1, 3])
@settings(max_examples=120, deadline=None)
@given(oracle_rounds())
def test_run_matches_scalar_oracle(block, case):
    config, space = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "ARRIVAL_BLOCK", block)
        trace, report = run_round(config, space)
    _assert_matches_oracle(space, trace, report, *run_scalar(config, space))


@st.composite
def shared_tape_rounds(draw):
    """An oracle round plus two strategies and the greedy single queue on its seed, horizon
    and initial state, each with its own warm-up, toggles and event log."""
    config, space = draw(oracle_rounds())
    strategies = [random_strategy(space, draw(st.integers(0, 2**16))) for _ in range(2)]
    return config, space, [dataclasses.replace(
        config, warmup=draw(st.sampled_from((0.0, config.horizon / 4, config.horizon * 0.999))),
        balking=draw(st.booleans()), reneging=draw(st.booleans()),
        record_events=draw(st.booleans()), strategy=strategy)
        for strategy in strategies + [None]]


@settings(max_examples=80, deadline=None)
@given(shared_tape_rounds())
def test_cached_tape_replays_match_scalar_oracle(case):
    config, space, variants = case
    tape = build_tape(config, space)
    for variant in variants:
        _assert_matches_oracle(space, *run(variant, space, tape), *run_scalar(variant, space))


@settings(max_examples=60, deadline=None)
@given(oracle_rounds())
def test_tape_marks_equal_scalar_draws(case):
    # each arrival's lifetime and two uniforms, drawn one by one from its type's mark
    # stream in arrival order, as ``run_scalar`` draws them
    config, space = case
    types = config.model.types
    streams = np.random.SeedSequence(config.seed).spawn(1 + 2 * len(types))
    marks = [np.random.Generator(np.random.PCG64(child)) for child in streams[1 + len(types):]]
    _, slice_types, *columns = build_tape(config, space).arrivals
    drawn = []
    for n in slice_types:
        rng = marks[n - 1]
        drawn.append((rng.exponential(1.0 / types[n - 1].release_rate), rng.random(), rng.random()))
    assert list(zip(*columns)) == drawn


# the queue-empty counts the scalar oracle takes in its loop
_SCAN_FIELDS = ("arrival_epochs", "empty_marginal", "scan_observed", "scan_empty")


@settings(max_examples=120, deadline=None)
@given(oracle_rounds())
def test_queue_empty_counts_match_the_scalar_loop(case):
    config, space = case
    trace, _ = run_round(dataclasses.replace(config, record_events=True), space)
    expected, _ = run_scalar(config, space)
    counts = queue_empty_counts(trace, space, config.strategy)
    assert counts == tuple(
        value if isinstance(value, int) else tuple(value)
        for value in (getattr(expected, name) for name in _SCAN_FIELDS))
    if config.strategy is None:  # greedy
        zeros = (0,) * config.model.num_types
        assert counts == (0, zeros, zeros, zeros)


def _tie_tapes(space):
    """Hand-built tapes on ``_TIE_MODEL`` whose heap events tie, by name.

    ``releases``: two initial releases at one time, the type-2 one pushed
    first, and an arrival at that time too.  ``renege``: a release pushed
    before a renege with the same time, then a renege pushed before a release
    with the same time (an acceptance whose lifetime ends at the deadline).
    """
    full = space.index_of((1, 1))

    def arrivals(*rows):  # rows of (t, type, lifetime, u_balk, u_patience)
        return tuple(array(code, column) for code, column in zip("dqddd", zip(*rows)))

    deadline = 1.0 - math.log(1.0 - 0.5)  # type 1 joins at 1.0; reneging rate 1
    later = 1.5 - math.log(1.0 - 0.6)  # type 2 joins at 1.5
    lifetime = later - deadline
    assert deadline + lifetime == later
    return {
        "releases": RoundTape(full, ((2.0, 2), (2.0, 1)), arrivals(
            (0.5, 1, 3.0, 0.0, 0.9), (1.0, 2, 3.0, 0.0, 0.9),
            (2.0, 1, 3.0, 0.0, 0.9), (3.0, 2, 3.0, 0.0, 0.9))),
        "renege": RoundTape(full, ((deadline, 2), (5.0, 1)), arrivals(
            (1.0, 1, lifetime, 0.0, 0.5), (1.5, 2, 3.0, 0.0, 0.6))),
    }, (deadline, later)


# two slices of either type fit; both types renege at rate 1
_TIE_MODEL = ResourceModel(pool=(2.0,), costs=((1.0,), (1.0,)), types=(
    SliceType(1.0, 1.0, 1.0, reneging_rate=1.0), SliceType(1.0, 1.0, 5.0, reneging_rate=1.0)))


@pytest.mark.parametrize("discipline", ["multi-queue", "greedy-single-queue"])
@pytest.mark.parametrize("name", ["releases", "renege"])
@pytest.mark.parametrize("warmup", [0.0, 1.2])
def test_tied_events_leave_in_push_order(name, discipline, warmup):
    space = enumerate_state_space(_TIE_MODEL)
    multi = discipline == "multi-queue"
    strategy = naive_strategy(space, "prefer-type-1") if multi else None
    config = SimConfig(model=_TIE_MODEL, strategy=strategy, horizon=6.0, warmup=warmup,
                       reneging=True)
    tapes, (deadline, later) = _tie_tapes(space)
    trace, report = run(config, space, tapes[name])
    _assert_matches_oracle(space, trace, report, *run_scalar(config, space, tapes[name]))
    tied = [event[:3] for event in trace.events if event[0] in (2.0, deadline, later)]
    if name == "releases":  # the arrival first, then the releases as pushed
        assert tied[:3] == [(2.0, "arrival", 1), (2.0, "join", 1), (2.0, "release", 2)]
    elif multi:
        assert tied == [(deadline, "release", 2), (deadline, "accept", 1),
                        (later, "renege", 2), (later, "release", 1)]


@pytest.mark.parametrize("discipline", ["multi-queue", "greedy-single-queue"])
def test_release_of_an_inactive_type_is_a_contract_violation(discipline):
    space = enumerate_state_space(_TIE_MODEL)
    strategy = naive_strategy(space, "prefer-type-1") if discipline == "multi-queue" else None
    config = SimConfig(model=_TIE_MODEL, strategy=strategy, horizon=6.0)
    tape = RoundTape(space.index_of((1, 0)), ((2.0, 2),), tuple(array(code) for code in "dqddd"))
    with pytest.raises(ContractViolation, match="cannot release a type-2 slice: none active"):
        run(config, space, tape)


class TestRoundTapes:
    def _fresh_and_shared(self, configs, space):
        tapes = {}
        shared = [monte_carlo(c, rounds=3, space=space, tapes=tapes) for c in configs]
        fresh = [monte_carlo(c, rounds=3, space=space) for c in configs]
        return fresh, shared, tapes

    @pytest.mark.parametrize("changed", [
        dict(horizon=15.0),
        dict(initial_state="empty"),
        dict(initial_state=[3, 1]),
        dict(model=table_model(1)),
    ], ids=["horizon", "initial-state", "explicit-state", "model"])
    def test_key_never_returns_a_stale_tape(self, changed):
        model = table_model(2)  # scenario 1 differs only in arrival rates: the same space
        space = enumerate_state_space(model)
        base = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-1"),
                         horizon=25.0, seed=8, initial_state="full",
                         balking=True, reneging=True)
        fresh, shared, tapes = self._fresh_and_shared(
            [base, dataclasses.replace(base, **changed)], space)
        assert [r.reports for r in shared] == [r.reports for r in fresh]
        assert [r.iat_samples for r in shared] == [r.iat_samples for r in fresh]
        assert len(tapes) == 6

    def test_strategies_and_toggles_share_tapes(self):
        model = table_model(2)
        space = enumerate_state_space(model)
        base = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-2"),
                         horizon=25.0, seed=8, initial_state=[3, 1])
        configs = [base,
                   dataclasses.replace(base, initial_state=(3, 1), balking=True, warmup=5.0),
                   dataclasses.replace(base, strategy=None, reneging=True)]
        fresh, shared, tapes = self._fresh_and_shared(configs, space)
        assert [r.reports for r in shared] == [r.reports for r in fresh]
        assert len(tapes) == 3

    def test_tape_replays_identical_arrivals_sorted_by_time_and_type(self):
        model = table_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, horizon=25.0, seed=8)
        tape = build_tape(config, space)
        arrivals = list(zip(*tape.arrivals))
        assert list(zip(*tape.arrivals)) == arrivals
        assert list(zip(*build_tape(config, space).arrivals)) == arrivals
        assert arrivals == sorted(arrivals, key=lambda a: (a[0], a[1]))
        assert all(0.0 < a[0] <= 25.0 for a in arrivals)
        assert {a[1] for a in arrivals} == {1, 2}

    def test_controller_starts_from_the_tape_index(self, monkeypatch):
        model = table_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-1"),
                           horizon=10.0, seed=8, initial_state="full")
        expected = run_round(config, space)

        def unexpected(self, s):
            raise AssertionError("index_of walked on a full start")

        monkeypatch.setattr(StateSpace, "index_of", unexpected)
        assert run_round(config, space)[1] == expected[1]


def _merged(per_type):
    """``engine._merge`` of hand-made per-type arrivals ``(t, type, *marks)``, as tuples."""
    empty = ((), np.empty(0, np.int64), (), (), ())
    columns = [tuple(zip(*arrivals)) or empty for arrivals in per_type]
    return list(zip(*engine._merge(columns)))


def _heap_merged(per_type):
    return list(heapq.merge(*per_type))


def test_merge_keeps_heapq_order_across_ties_and_chunk_cuts():
    # type 1 repeats an epoch where one block of draws ends and the next begins (a
    # zero draw at the cut), where type 2 has two arrivals whose marks a full-tuple
    # sort would swap
    type1 = [(1.0, 1, 0.5, 0.0, 0.0), (3.0, 1, 0.5, 0.0, 0.0),
             (3.0, 1, 0.4, 0.0, 0.0), (5.0, 1, 0.5, 0.0, 0.0)]
    type2 = [(0.5, 2, 0.5, 0.0, 0.0), (3.0, 2, 0.9, 0.0, 0.0),
             (3.0, 2, 0.1, 0.0, 0.0), (4.0, 2, 0.5, 0.0, 0.0)]
    expected = _heap_merged([type1, type2])
    assert _merged([type1, type2]) == expected
    assert [a[1:3] for a in expected[2:6]] == [(1, 0.5), (1, 0.4), (2, 0.9), (2, 0.1)]


@st.composite
def arrival_streams(draw):
    """1-4 types, each a non-decreasing run of epochs on a coarse grid (many ties),
    each arrival with three random marks."""
    marks = st.tuples(*[st.floats(0.0, 1.0)] * 3)
    return [[(float(t), n, *draw(marks))
             for t in sorted(draw(st.lists(st.integers(0, 8), max_size=12)))]
            for n in range(1, draw(st.integers(1, 4)) + 1)]


@settings(max_examples=300, deadline=None)
@given(arrival_streams())
def test_merge_matches_heapq_merge(per_type):
    assert _merged(per_type) == _heap_merged(per_type)


@st.composite
def impatient_rounds(draw):
    """A round on one of ``small_models`` under either controller, balking and
    reneging on, with patience short enough that requests renege mid-queue."""
    model = draw(small_models())
    model = dataclasses.replace(model, types=tuple(SliceType(
        arrival_rate=draw(st.sampled_from((1.0, 3.0, 8.0))),
        release_rate=draw(st.sampled_from((0.2, 1.0))),
        reneging_rate=draw(st.sampled_from((0.5, 2.0, 5.0))),
        balking_willingness=draw(st.sampled_from((None, 0.5, 1.0))),
    ) for _ in model.types))
    space = enumerate_state_space(model)
    strategy = None  # the greedy single queue, or else a random strategy
    if draw(st.booleans()):
        strategy = random_strategy(space, draw(st.integers(0, 2**16)))
    return SimConfig(
        model=model, strategy=strategy, horizon=15.0,
        seed=draw(st.integers(0, 2**32 - 1)),
        initial_state=draw(st.sampled_from(("empty", "full"))),
        balking=True, reneging=True, record_events=True,
    ), space


def _replay_event_log(config, space, trace):
    """Rebuild the queues from the event log and check the log against them.

    Every logged state is an index into the space, every accept takes the
    head of its queue, and every logged queue length is its joins minus its
    accepts and reneges so far.  Returns the number of reneges from behind a
    head.
    """
    multi = config.strategy is not None
    queues = [[] for _ in range(config.model.num_types if multi else 1)]
    behind_head, lengths = 0, []
    for _, kind, slice_type, request_id, index, _ in trace.events:
        assert index.__class__ is int and 0 <= index < len(space)
        queue = queues[slice_type - 1 if multi else 0]
        if kind == "join":
            queue.append(request_id)
        elif kind == "accept":
            assert queue.pop(0) == request_id
        elif kind == "renege":
            behind_head += queue.index(request_id) > 0
            queue.remove(request_id)
        lengths.append(tuple(map(len, queues)))
    # an accept is logged once its whole serving pass is done
    for i in reversed(range(len(lengths) - 1)):
        if trace.events[i][1] == trace.events[i + 1][1] == "accept":
            lengths[i] = lengths[i + 1]
    assert [event[5] for event in trace.events] == lengths
    return behind_head


# the oracle serves after every join and asserts that one more serving pass after
# every event accepts nothing: equality with it guards every pass the loop skips
@settings(max_examples=150, deadline=None)
@given(impatient_rounds())
def test_skipped_passes_leave_the_controller_quiescent(case):
    config, space = case
    trace, report = run_round(config, space)
    _assert_matches_oracle(space, trace, report, *run_scalar(config, space))
    _replay_event_log(config, space, trace)


@pytest.mark.parametrize("discipline", ["multi-queue", "greedy-single-queue"])
def test_event_log_replays_with_reneges_behind_the_head(discipline):
    model = table_model(2)
    space = enumerate_state_space(model)
    strategy = naive_strategy(space, "prefer-type-1") if discipline == "multi-queue" else None
    config = SimConfig(model=model, strategy=strategy, horizon=60.0,
                       seed=3, initial_state="full", reneging=True)
    trace, report = run_round(config, space)
    _assert_matches_oracle(space, trace, report, *run_scalar(config, space))
    assert _replay_event_log(config, space, trace) > 0


def _pooled_occupancy(config, space, master_seed, rounds):
    """In-window time per state index, pooled over ``rounds`` rounds, as a distribution."""
    occupancy = np.zeros(len(space))
    for i in range(rounds):
        trace, _ = run_round(dataclasses.replace(config, seed=derived_seed(master_seed, i)), space)
        occupancy[list(trace.state_time)] += list(trace.state_time.values())
    return occupancy / occupancy.sum()


def test_loss_limit_occupancy_is_the_product_form():
    # With reneging 1000 a request that does not fit leaves at once, and (2, 1, 0)
    # accepts whatever fits: the occupancy is then pi(s) ~ prod rho_n^s_n / s_n! on the
    # feasible set.  The law is checked against the noise between two seeds, a check of
    # the loop independent of both the chain and run_scalar.
    base = table_model(2)
    model = dataclasses.replace(base, types=tuple(
        dataclasses.replace(ty, reneging_rate=1000.0) for ty in base.types))
    space = enumerate_state_space(model)
    config = SimConfig(model=model, strategy=constant_strategy(space, (2, 1, 0)),
                       horizon=200.0, warmup=50.0, reneging=True, record_events=False)
    rho = np.asarray(model.arrival_rates) / np.asarray(model.release_rates)
    counts = space.counts
    log_weight = counts @ np.log(rho) - np.array(
        [sum(math.lgamma(c + 1) for c in row) for row in counts.tolist()])
    product_form = np.exp(log_weight - log_weight.max())
    product_form /= product_form.sum()
    seed_a, seed_b = (_pooled_occupancy(config, space, master, rounds=60) for master in (1, 2))
    noise = 0.5 * np.abs(seed_a - seed_b).sum()
    assert 0.5 * np.abs(seed_a - product_form).sum() <= 2.0 * noise
