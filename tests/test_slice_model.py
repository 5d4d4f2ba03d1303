import math
import os
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slicesim import slice_model
from slicesim.config import load_config
from slicesim.engine import SimConfig
from slicesim.errors import ContractViolation, StateSpaceTooLarge
from slicesim.markov import strategy_steady_state
from slicesim.slice_model import (
    ResourceModel,
    SliceType,
    assigned_resources,
    enumerate_state_space,
    is_feasible,
)
from slicesim.strategy import random_strategy

from criteria import balanced_benchmark_strategy
from oracles import apply_increment, brute_force_state_space, enumerate_dfs, run_round


def case_study_model():
    return ResourceModel(
        pool=(1.0,),
        costs=((0.6,), (0.2,)),
        types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)),
    )


def table_model():
    return ResourceModel(
        pool=(1.0, 1.0),
        costs=((0.01, 0.05), (0.2, 0.04)),
        types=(SliceType(2.0, 0.2, 1.0), SliceType(0.5, 0.5, 10.0)),
    )


class TestAssignedResources:
    def test_case_study_single_type1(self):
        a = assigned_resources(case_study_model(), (1, 0))
        assert np.allclose(a, [0.6])

    def test_zero_state(self):
        assert np.allclose(assigned_resources(table_model(), (0, 0)), [0.0, 0.0])

    def test_table_model_one_each(self):
        # hand multiply of the two cost bundles
        a = assigned_resources(table_model(), (1, 1))
        assert np.allclose(a, [0.21, 0.09])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            assigned_resources(case_study_model(), (1, 0, 2))


# counts that are not numbers, or not finite; int() raises on each of them
_NOT_COUNTS = [(math.nan, 0), (math.inf, 0), (0, -math.inf), (None, 0), ("1", 0)]
_NOT_COUNT_IDS = ["nan", "inf", "minus-inf", "none", "string"]


class TestFeasibility:
    @pytest.mark.parametrize("state", [(-1, 0), (0.5, 0), *_NOT_COUNTS],
                             ids=["negative", "fraction", *_NOT_COUNT_IDS])
    def test_malformed_counts_rejected(self, state):
        bad = next(v for v in state if not (isinstance(v, int) and v >= 0))
        for check in (is_feasible, assigned_resources):
            with pytest.raises(ContractViolation, match=re.escape(
                    f"slice counts must be non-negative integers, got {bad!r}")):
                check(case_study_model(), state)

    def test_case_study_end_state(self):
        assert is_feasible(case_study_model(), (1, 2))

    def test_case_study_two_type1(self):
        assert not is_feasible(case_study_model(), (2, 0))

    def test_table_model_boundary(self):
        # 0.05 * 20 = 1.0 binds the second resource exactly
        assert is_feasible(table_model(), (20, 0))
        assert not is_feasible(table_model(), (21, 0))

    def test_monotone(self):
        model = table_model()
        rng = random.Random(5)
        for _ in range(50):
            s = (rng.randint(0, 20), rng.randint(0, 5))
            if not is_feasible(model, s):
                continue
            smaller = tuple(max(0, v - rng.randint(0, 2)) for v in s)
            assert is_feasible(model, smaller)


class TestEnumeration:
    def test_case_study_space(self):
        space = enumerate_state_space(case_study_model())
        expected = {(s1, s2) for s1 in (0, 1) for s2 in range(6)
                    if 0.6 * s1 + 0.2 * s2 <= 1.0 + 1e-12}
        assert set(space.states) == expected
        assert len(space) == 9

    def test_table_model_vs_brute_force(self):
        model = table_model()
        space = enumerate_state_space(model)
        feasible, admissible = brute_force_state_space(model.pool, model.costs)
        assert set(space.states) == feasible
        assert set(space.states[:space.num_admissible]) == admissible
        assert len(space) == 96
        assert space.num_admissible == 90

    def test_zero_cost_bundle_rejected(self):
        model = ResourceModel(pool=(0.0,), costs=((0.0,), ),
                              types=(SliceType(1.0, 1.0),))
        with pytest.raises(StateSpaceTooLarge):
            # a zero-cost bundle would make the space unbounded
            enumerate_state_space(model)

    def test_single_slot_pool(self):
        # exactly one slice fits: two states, only the empty one admissible
        tiny = ResourceModel(pool=(1.0,), costs=((1.0,),), types=(SliceType(1.0, 1.0),))
        space = enumerate_state_space(tiny)
        assert space.states == ((0,), (1,))
        assert space.num_admissible == 1

    def test_cap(self, monkeypatch):
        model = table_model()
        monkeypatch.setattr(slice_model, "DEFAULT_STATE_CAP", 10)
        with pytest.raises(StateSpaceTooLarge):
            enumerate_state_space(model)

    def test_cap_raises_before_allocating(self):
        # about 10**8 states: two types on two disjoint resources, 10**4 slots each
        model = ResourceModel(pool=(1.0, 1.0), costs=((1e-4, 0.0), (0.0, 1e-4)),
                              types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)))
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge, match="cap of 1000000 states"):
                enumerate_state_space(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_admissible_listed_first_and_indices_agree(self):
        space = enumerate_state_space(table_model())
        _, admissible = brute_force_state_space(space.model.pool, space.model.costs)
        for i, s in enumerate(space.states):
            assert space.index_of(s) == i
            assert (i < space.num_admissible) == (s in admissible)

    def test_index_round_trip(self):
        space = enumerate_state_space(table_model())
        for i in range(len(space)):
            assert space.index_of(space.state_at(i)) == i

    def test_admissibility_definition(self):
        space = enumerate_state_space(table_model())
        model = space.model
        for s in space.states:
            can_grow = any(is_feasible(model, apply_increment(s, n))
                           for n in (1, 2))
            assert can_grow == (space.index_of(s) < space.num_admissible)

    def test_transition_tables(self):
        space = enumerate_state_space(case_study_model())
        for i, s in enumerate(space.states):
            for n in (1, 2):
                up = space.increment_index(i, n)
                bumped = apply_increment(s, n)
                if is_feasible(space.model, bumped):
                    assert up == space.index_of(bumped)
                else:
                    assert up == -1
                down = space.release_index(i, n)
                if s[n - 1] > 0:
                    assert down == space.index_of(apply_increment(s, n, release=True))
                else:
                    assert down == -1


class TestIndexOf:
    @pytest.mark.parametrize("state", [(1, 3), (0, 6), (2, 0), (10**9, 0)])
    def test_one_step_past_the_pool_rejected(self, state):
        space = enumerate_state_space(case_study_model())
        with pytest.raises(ContractViolation,
                           match=re.escape(f"state {state} is not in the feasibility space")):
            space.index_of(state)

    @pytest.mark.parametrize("state", [(1,), (0, 0, 0), (), (-1, 0), (0, -1), (0.5, 0), (1, 1.5),
                                       *_NOT_COUNTS],
                             ids=["short", "long", "empty", "negative-1", "negative-2",
                                  "fraction-1", "fraction-2", *_NOT_COUNT_IDS])
    def test_malformed_state_rejected(self, state):
        space = enumerate_state_space(case_study_model())
        with pytest.raises(ContractViolation, match="is not in the feasibility space"):
            space.index_of(state)

    def test_integral_values_of_other_types_accepted(self):
        space = enumerate_state_space(case_study_model())
        assert space.index_of((1.0, np.int64(2))) == space.index_of([1, 2])
        assert space.state_at(space.index_of((1, 2))) == (1, 2)


class TestApplyIncrement:
    def test_add(self):
        assert apply_increment((1, 0), 2) == (1, 1)

    def test_reserve_is_noop(self):
        assert apply_increment((1, 0), 0) == (1, 0)

    def test_release(self):
        assert apply_increment((1, 0), 1, release=True) == (0, 0)

    def test_release_from_zero(self):
        with pytest.raises(ContractViolation):
            apply_increment((0, 1), 1, release=True)


class TestModelValidation:
    def test_column_exceeding_pool(self):
        with pytest.raises(ContractViolation):
            ResourceModel(pool=(0.5,), costs=((0.6,),), types=(SliceType(1.0, 1.0),))

    def test_bad_rates(self):
        with pytest.raises(ContractViolation):
            SliceType(arrival_rate=1.0, release_rate=0.0)
        with pytest.raises(ContractViolation):
            SliceType(arrival_rate=1.0, release_rate=1.0, balking_willingness=1.5)


def random_model(rng):
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    pool = tuple(round(rng.uniform(0.5, 2.0), 3) for _ in range(m))
    costs = tuple(
        tuple(round(rng.uniform(0.05, 1.0) * pool[i], 3) for i in range(m))
        for _ in range(n)
    )
    types = tuple(
        SliceType(
            arrival_rate=round(rng.uniform(0.2, 4.0), 3),
            release_rate=round(rng.uniform(0.2, 2.0), 3),
            utility_rate=round(rng.uniform(0.0, 10.0), 3),
            reneging_rate=round(rng.uniform(0.1, 2.0), 3),
            balking_willingness=round(rng.uniform(0.01, 1.0), 3),
        )
        for _ in range(n)
    )
    return ResourceModel(pool=pool, costs=costs, types=types)


def test_randomized_models_match_brute_force():
    rng = random.Random(20240601)
    for _ in range(25):
        model = random_model(rng)
        space = enumerate_state_space(model)
        feasible, admissible = brute_force_state_space(model.pool, model.costs)
        assert set(space.states) == feasible
        assert set(space.states[:space.num_admissible]) == admissible
        # states outside the admissibility region admit nothing
        for s in space.states[space.num_admissible:]:
            for n in range(1, model.num_types + 1):
                assert not is_feasible(model, apply_increment(s, n))


def assert_matches_dfs(model):
    space = enumerate_state_space(model)
    states, num_admissible, index, increment, release = enumerate_dfs(model)
    assert np.issubdtype(space.counts.dtype, np.integer)
    assert space.counts.tolist() == [list(s) for s in states]
    assert space.states == states
    assert space.num_admissible == num_admissible
    assert space.num_types == model.num_types
    assert space.states[0] == (0,) * model.num_types
    assert space.index_of((0,) * model.num_types) == 0
    assert list(space._increment) == [i for row in increment for i in row]
    assert list(space._release) == [i for row in release for i in row]
    assert [space.index_of(s) for s in states] == [index[s] for s in states]
    # the engine reads the tables on every event, and the tape and the trace's
    # initial and final states read states through state_at: plain int tuples,
    # not numpy scalars
    rows = [space.state_at(i) for i in range(len(space))]
    assert rows == list(states) and {type(s) for s in rows} == {tuple}
    space_ints = [v for s in rows for v in s] + [*space._increment, *space._release]
    assert {type(v) for v in space_ints} == {int}
    return space


_POOLS = (0.3, 0.5, 0.6, 0.9, 1.0)
_COSTS = (0.1, 0.15, 0.2, 0.3, 0.45, 0.6)


@st.composite
def small_models(draw):
    """1-4 types over 1-3 resources with decimal costs, many summing exactly to a pool."""
    pool = tuple(draw(st.lists(st.sampled_from(_POOLS), min_size=1, max_size=3)))
    costs = []
    for _ in range(draw(st.integers(1, 4))):
        # one resource the type surely consumes, so its count is bounded
        k = draw(st.integers(0, len(pool) - 1))
        costs.append(tuple(
            draw(st.sampled_from([c for c in _COSTS if c <= r] + ([] if m == k else [0.0])))
            for m, r in enumerate(pool)
        ))
    return ResourceModel(pool=pool, costs=tuple(costs),
                         types=tuple(SliceType(1.0, 1.0) for _ in costs))


@settings(max_examples=150, deadline=None)
@example(ResourceModel(pool=(0.3,), costs=((0.1,),), types=(SliceType(1.0, 1.0),)))
@example(ResourceModel(pool=(0.3, 0.9), costs=((0.1, 0.3), (0.2, 0.15)),
                       types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0))))
@given(small_models())
def test_enumeration_matches_dfs_oracle(model):
    assert_matches_dfs(model)


@pytest.mark.parametrize("pool", [1.0, 0.3, 2.5])
@pytest.mark.parametrize("k", [2, 3, 7])
@pytest.mark.parametrize("first", [None, 1 / 7], ids=["alone", "after-a-seventh"])
def test_tolerance_boundary_models_match_dfs_oracle(pool, k, first):
    # k slices of this cost land within rounding of pool + tolerance, where a
    # closed-form count can be off by one
    cost = (pool + 1e-9 * max(1.0, pool)) / k
    costs = ((cost,),) if first is None else ((first * pool,), (cost,))
    assert_matches_dfs(ResourceModel(pool=(pool,), costs=costs,
                                     types=tuple(SliceType(1.0, 1.0) for _ in costs)))


def test_mixed_radix_overflow_model_matches_dfs_oracle():
    # 5**28 > 2**63: a mixed-radix int64 key over the per-type bounds would wrap
    model = ResourceModel(pool=(1.0,), costs=((0.25,),) * 28,
                          types=tuple(SliceType(1.0, 1.0) for _ in range(28)))
    assert len(assert_matches_dfs(model)) == 35960


_BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(_BENCH_CONFIGS)))
def test_benchmark_models_match_dfs_oracle(name):
    assert_matches_dfs(load_config(os.path.join(_BENCH_CONFIGS, name)).model)


def test_fine_grid_space_and_strategy_stay_small():
    # 125,751 states: counts and the two flat int64 tables take 2 MB each, and
    # the strategy holds one 8-byte reference per column to one tuple per
    # distinct column
    model = load_config(os.path.join(_BENCH_CONFIGS, "fine-grid.yaml")).model
    tracemalloc.start()
    try:
        space = enumerate_state_space(model)
        strategy = random_strategy(space, 7)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(space) == 125751 and strategy.num_columns == space.num_admissible
    assert len(set(map(id, strategy.columns))) <= 6  # (N + 1)! for N = 2
    assert retained < 12 * 2**20


def test_state_space_pickles():
    # the benchmark harness pickles a set-up's output; the tables are buffers
    space = enumerate_state_space(table_model())
    copy = pickle.loads(pickle.dumps(space))
    assert copy == space and copy is not space
    assert copy.counts.tolist() == space.counts.tolist()
    assert [copy.index_of(s) for s in space.states] == list(range(len(space)))


def test_package_reads_counts_not_the_states_view():
    # ``counts`` is what the package reads; the tuple view ``states`` is built
    # only when something asks for it
    types = tuple(SliceType(2.0, 0.5, u, reneging_rate=1.0, balking_willingness=0.5)
                  for u in (1.0, 10.0))
    model = ResourceModel(pool=(1.0, 1.0), costs=((0.2, 0.1), (0.1, 0.3)), types=types)
    space = enumerate_state_space(model)
    strategy = random_strategy(space, 3)
    trace, _ = run_round(SimConfig(model=model, strategy=strategy, horizon=20.0, seed=5,
                                   initial_state="full", balking=True, reneging=True,
                                   record_events=True), space)
    assert trace.events and any(trace.slice_time)
    strategy_steady_state(model, space, strategy, (0.4, 0.6))
    balanced_benchmark_strategy(space)
    assert "states" not in vars(space)
