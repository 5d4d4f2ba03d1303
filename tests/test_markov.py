import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from slicesim.config import build_strategy, builtin_scenario, load_config
from slicesim.errors import ContractViolation
from slicesim.markov import (
    ACCEPTANCE_ONLY,
    RESIDUAL_L1_BOUND,
    WITH_RELEASES,
    StateDistribution,
    TransitionMatrix,
    acceptance_distribution,
    build_transition_matrix,
    estimate_acceptance_rates,
    estimate_mean_utility,
    expected_active_slices,
    initial_distribution,
    long_term_distribution,
    strategy_steady_state,
    _csr,
    _moves,
)
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import (
    RESERVE,
    PreferenceMatrix,
    constant_strategy,
    naive_strategy,
    random_strategy,
)

from oracles import build_transition_dense, cesaro_average, stationary_by_linear_solve
from test_slice_model import small_models


def case_study_space():
    model = ResourceModel(
        pool=(1.0,),
        costs=((0.6,), (0.2,)),
        types=(SliceType(1.0, 1.0, 1.0), SliceType(1.0, 1.0, 1.0)),
    )
    return enumerate_state_space(model)


def single_type_space(lam=1.0, eta=0.5):
    model = ResourceModel(pool=(1.0,), costs=((1.0,),),
                          types=(SliceType(lam, eta, 1.0),))
    return enumerate_state_space(model)


def random_reducible_chain(seed):
    """Closed classes of period 1, 2 or 3 plus leaking transient states, shuffled.

    Returns the matrix and a random initial distribution.
    """
    rng = np.random.default_rng(seed)
    blocks = []  # (period, [subclass sizes]) per closed class
    for _ in range(rng.integers(1, 4)):
        period = int(rng.integers(1, 4))
        blocks.append((period, [int(k) for k in rng.integers(1, 4, size=period)]))
    n_rec = sum(sum(sizes) for _, sizes in blocks)
    n_trans = int(rng.integers(0, 5))
    n = n_rec + n_trans
    m = np.zeros((n, n))
    start = 0
    for period, sizes in blocks:
        offsets = np.cumsum([start] + sizes)
        for g in range(period):
            rows = range(offsets[g], offsets[g + 1])
            h = (g + 1) % period
            cols = slice(offsets[h], offsets[h + 1])
            for i in rows:
                m[i, cols] = rng.random(sizes[h]) + 0.1
        start = offsets[-1]
    for t in range(n_rec, n):
        m[t, n_rec:] = rng.random(n_trans) * (rng.random(n_trans) < 0.5)
        targets = rng.choice(n_rec, size=int(rng.integers(1, n_rec + 1)), replace=False)
        m[t, targets] = rng.random(targets.size) + 0.1
    m /= m.sum(axis=1, keepdims=True)
    perm = rng.permutation(n)
    m = m[perm][:, perm]
    p = rng.random(n) * (rng.random(n) < 0.6)
    p[rng.integers(n)] += 1.0
    return m, p / p.sum()


def assert_canonical_csr(m):
    """A float64 ``csr_array`` whose rows hold strictly increasing column indices
    and whose stored entries are all nonzero."""
    assert type(m) is sparse.csr_array and m.dtype == np.float64
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    assert np.all(np.diff(rows * m.shape[1] + m.indices) > 0)
    assert np.all(m.data != 0.0)


def count_solves(monkeypatch):
    """Count the sparse solves ``long_term_distribution`` makes, by the size of
    each system; it imports ``spsolve`` on every call."""
    from scipy.sparse import linalg

    sizes = []
    solve = linalg.spsolve

    def spy(op, rhs, *args, **kwargs):
        sizes.append(op.shape[0])
        return solve(op, rhs, *args, **kwargs)

    monkeypatch.setattr(linalg, "spsolve", spy)
    return sizes


_CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs")


def accept_row(strategy, space, probs, state):
    """The acceptance distribution of one state, given as a tuple."""
    return acceptance_distribution(strategy, space, probs)[space.index_of(state)]


class TestTransitionProbability:
    def test_reserve_first_self_loops(self):
        space = case_study_space()
        strategy = constant_strategy(space, (0, 1, 2))
        assert accept_row(strategy, space, (0.3, 0.7), (0, 0))[0] == 1.0
        assert accept_row(strategy, space, (0.3, 0.7), (0, 0))[1] == 0.0

    def test_direct_formula(self):
        space = case_study_space()
        strategy = constant_strategy(space, (1, 2, 0))
        p1, p2 = 0.3, 0.6
        assert accept_row(strategy, space, (p1, p2), (0, 0))[1] == (
            pytest.approx(0.7)
        )
        assert accept_row(strategy, space, (p1, p2), (0, 0))[2] == (
            pytest.approx(p1 * (1 - p2))
        )
        assert accept_row(strategy, space, (p1, p2), (0, 0))[0] == (
            pytest.approx(p1 * p2)
        )

    def test_surely_nonempty_takes_first_feasible(self):
        space = case_study_space()
        strategy = constant_strategy(space, (1, 2, 0))
        assert accept_row(strategy, space, (0.0, 0.0), (0, 0))[1] == 1.0

    def test_non_admissible_state_self_loops(self):
        space = case_study_space()
        strategy = naive_strategy(space, "prefer-type-1")
        outside = space.state_at(len(space) - 1)
        assert accept_row(strategy, space, (0.0, 0.0), outside)[0] == 1.0

    def test_infeasible_target_mass_moves_to_self_loop(self):
        space = case_study_space()
        strategy = constant_strategy(space, (1, 2, 0))
        # from (1, 1) one more type-1 slice does not fit
        probs = accept_row(strategy, space, (0.25, 0.5), (1, 1))
        assert probs[1] == 0.0
        assert probs[2] == pytest.approx(0.25 * 0.5)
        assert sum(probs) == pytest.approx(1.0)

    def test_strategy_of_another_space_is_refused(self):
        space = case_study_space()
        short = PreferenceMatrix(columns=((1, 2, 0),) * (space.num_admissible - 1), num_types=2)
        with pytest.raises(ContractViolation,
                           match=f"strategy has {space.num_admissible - 1} columns, "
                                 f"admissibility region has {space.num_admissible} states"):
            acceptance_distribution(short, space, (0.5, 0.5))

    def test_sums_to_one_across_random_inputs(self):
        space = case_study_space()
        rng = random.Random(8)
        for _ in range(40):
            strategy = random_strategy(space, rng.randrange(10**6))
            p = (rng.random(), rng.random())
            for idx in range(len(space)):
                total = sum(
                    accept_row(strategy, space, p, space.state_at(idx))[n]
                    for n in range(3)
                )
                assert total == pytest.approx(1.0)


class TestBuildTransitionMatrix:
    def test_single_state_space(self):
        # a pool that holds exactly one slice of one type, already full
        space = single_type_space()
        strategy = constant_strategy(space, (1, 0))
        psi = build_transition_matrix(strategy, space, (0.5,), space.model.release_rates,
                                      mode=ACCEPTANCE_ONLY)
        assert psi.matrix.shape == (2, 2)

    def test_acceptance_only_case_study(self):
        space = case_study_space()
        strategy = constant_strategy(space, (1, 2, 0))
        psi = build_transition_matrix(strategy, space, (0.0, 0.0), space.model.release_rates,
                                      mode=ACCEPTANCE_ONLY)
        i = space.index_of((0, 0))
        j = space.index_of((1, 0))
        assert psi.matrix[i, j] == pytest.approx(1.0)

    def test_with_releases_two_state_hand_chain(self):
        # single type, capacity one: from empty, accept with prob 1-p at an
        # opportunity; from full, race between release eta and opportunity lam
        lam, eta, p = 1.0, 0.5, 0.3
        space = single_type_space(lam=lam, eta=eta)
        strategy = constant_strategy(space, (1, 0))
        psi = build_transition_matrix(strategy, space, (p,), space.model.release_rates,
                                      mode=WITH_RELEASES)
        empty, full = space.index_of((0,)), space.index_of((1,))
        hand = np.zeros((2, 2))
        hand[empty, full] = 1 - p
        hand[empty, empty] = p
        hand[full, empty] = eta / (eta + lam)
        hand[full, full] = lam / (eta + lam)
        assert np.allclose(psi.matrix.toarray(), hand)

    def test_rows_stochastic_for_random_strategies(self):
        space = case_study_space()
        rng = random.Random(13)
        for _ in range(25):
            strategy = random_strategy(space, rng.randrange(10**6))
            probs = (rng.random(), rng.random())
            for mode in (WITH_RELEASES, ACCEPTANCE_ONLY):
                psi = build_transition_matrix(strategy, space, probs, space.model.release_rates, mode=mode)
                assert np.allclose(psi.matrix.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(psi.matrix.toarray() >= 0.0)

    def test_nonzero_structure(self):
        # only self-loops, single increments, and single releases carry mass
        space = case_study_space()
        strategy = random_strategy(space, 4)
        psi = build_transition_matrix(strategy, space, (0.4, 0.6), space.model.release_rates)
        dense = psi.matrix.toarray()
        for i in range(len(space)):
            allowed = {i}
            for n in (1, 2):
                up = space.increment_index(i, n)
                if up >= 0:
                    allowed.add(up)
                down = space.release_index(i, n)
                if down >= 0:
                    allowed.add(down)
            carrying = set(np.nonzero(dense[i])[0])
            assert carrying <= allowed

    def test_large_chain_without_dense_matrix(self):
        # 5,151 states: a dense n x n matrix alone would take 212 MB
        model = ResourceModel(pool=(1.0,), costs=((0.01,), (0.01,)),
                              types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)))
        space = enumerate_state_space(model)
        assert len(space) == 5151
        strategy = naive_strategy(space, "prefer-type-1")
        start = initial_distribution(space, "full")
        # load scipy's solvers before measuring
        small = case_study_space()
        strategy_steady_state(small.model, small, naive_strategy(small), (0.5, 0.5))
        tracemalloc.start()
        try:
            psi = build_transition_matrix(strategy, space, (0.5, 0.5), space.model.release_rates)
            dist = long_term_distribution(psi, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.converged
        assert peak < 32 * 2**20

    def test_move_tables_are_read_only_views_of_the_space(self):
        # the chain reads the space's flat tables in place: no copy, and no writes
        space = case_study_space()
        for flat, step in ((space._increment, space.increment_index),
                           (space._release, space.release_index)):
            view = _moves(flat, space.num_types)
            assert np.shares_memory(view, flat) and not view.flags.writeable
            assert view.tolist() == [[step(i, n) for n in (1, 2)] for i in range(len(space))]
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0

    @pytest.mark.parametrize("name", ["sweep-s2", "backlog-renege", "chain-s2x3", "fine-grid"])
    def test_one_csr_assembly_matches_the_copy_route(self, name, monkeypatch):
        # one tocsr of the zero-free COO gives the arrays of _csr's float copy
        # with its zeros eliminated
        cfg = load_config(os.path.join(_CONFIG_DIR, f"{name}.yaml"))
        space = enumerate_state_space(cfg.model)
        made = []
        coo = sparse.coo_array

        def recorded(*args, **kwargs):
            made.append(coo(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(sparse, "coo_array", recorded)
        psi = build_transition_matrix(random_strategy(space, 7), space, (0.2, 0.8),
                                      cfg.model.release_rates)
        monkeypatch.undo()
        assert len(made) == 1
        assert_canonical_csr(psi.matrix)
        copied = _csr(made[0])
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(psi.matrix, part), getattr(copied, part))

    def test_canonical_csr_is_not_copied(self):
        m = sparse.csr_array(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert TransitionMatrix(matrix=m).matrix is m

    def test_foreign_inputs_are_canonicalised(self):
        dense = np.array([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [0.75, 0.25, 0.0]])
        rows, cols = np.nonzero(dense)
        halves = dense[rows, cols] / 2  # each entry given twice, summed on conversion
        unsorted = sparse.csr_array(  # row 0 in reverse column order, one stored zero
            (np.array([0.25, 0.25, 0.5, 0.0, 1.0, 0.75, 0.25]),
             np.array([2, 1, 0, 1, 2, 0, 1]), np.array([0, 3, 5, 7])), shape=(3, 3))
        zeros = sparse.csr_array(  # sorted, with a stored zero
            (np.array([0.5, 0.25, 0.25, 0.0, 1.0, 0.75, 0.25]),
             np.array([0, 1, 2, 1, 2, 0, 1]), np.array([0, 3, 5, 7])), shape=(3, 3))
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        cases = [
            (dense, dense),
            (sparse.coo_array((np.tile(halves, 2), (np.tile(rows, 2), np.tile(cols, 2))),
                              shape=(3, 3)), dense),
            (unsorted, dense),
            (zeros, dense),
            (sparse.csr_matrix(cycle), cycle.astype(float)),
            (cycle, cycle.astype(float)),
        ]
        start = np.array([0.25, 0.25, 0.5])
        for given, as_dense in cases:
            psi = TransitionMatrix(matrix=given)
            assert_canonical_csr(psi.matrix)
            assert np.array_equal(psi.matrix.toarray(), as_dense)
            assert np.array_equal(long_term_distribution(psi, start).probabilities,
                                  long_term_distribution(as_dense, start).probabilities)

    def test_validation(self):
        space = case_study_space()
        strategy = naive_strategy(space, "prefer-type-1")
        with pytest.raises(ContractViolation):
            build_transition_matrix(strategy, space, (0.5,), space.model.release_rates)
        with pytest.raises(ContractViolation):
            build_transition_matrix(strategy, space, (0.5, 1.5), space.model.release_rates)
        with pytest.raises(ContractViolation):
            build_transition_matrix(strategy, space, (0.5, 0.5), space.model.release_rates, mode="bogus")
        longer = PreferenceMatrix(columns=strategy.columns * 2, num_types=2)
        with pytest.raises(ContractViolation, match="columns"):
            build_transition_matrix(longer, space, (0.5, 0.5), space.model.release_rates)


_POOLS = (0.3, 0.6, 1.0)
_COSTS = (0.1, 0.2, 0.3, 0.45, 0.6)
_PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def chain_cases(draw):
    """A small model, a random strategy and the build's remaining arguments."""
    pool = tuple(draw(st.lists(st.sampled_from(_POOLS), min_size=1, max_size=2)))
    n_types = draw(st.integers(1, 4))
    costs = tuple(
        tuple(draw(st.sampled_from([c for c in _COSTS if c <= r])) for r in pool)
        for _ in range(n_types)
    )
    rates = st.floats(0.1, 5.0)
    types = tuple(SliceType(draw(rates), draw(rates), 1.0) for _ in range(n_types))
    space = enumerate_state_space(ResourceModel(pool=pool, costs=costs, types=types))
    strategy = random_strategy(space, draw(st.integers(0, 2**32)))
    probs = tuple(draw(_PROBS) for _ in range(n_types))
    release = draw(st.one_of(st.just(space.model.release_rates),
                             st.lists(st.sampled_from([0.0, 0.5, 2.5]),
                                      min_size=n_types, max_size=n_types)))
    opportunity = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.01, 10.0)))
    mode = draw(st.sampled_from([WITH_RELEASES, ACCEPTANCE_ONLY]))
    return strategy, space, probs, release, mode, opportunity


def assert_matches_dense_oracle(strategy, space, probs, release, mode, opportunity):
    psi = build_transition_matrix(strategy, space, probs, release, mode, opportunity)
    oracle = build_transition_dense(strategy, space, probs, release, mode, opportunity)
    assert isinstance(psi.matrix, sparse.csr_array)
    assert np.array_equal(psi.matrix.toarray(), oracle)


@settings(max_examples=150, deadline=None)
# with no opportunities the empty state has no event at all: a row of total 0
@example((constant_strategy(case_study_space(), (1, 2, 0)), case_study_space(),
          (0.3, 0.0), case_study_space().model.release_rates, WITH_RELEASES, 0.0))
@given(chain_cases())
def test_build_matches_dense_oracle(case):
    assert_matches_dense_oracle(*case)


_CHAIN_CONFIG = os.path.join(_CONFIG_DIR, "chain-s2x3.yaml")


@pytest.mark.parametrize("spec", [{"prefer_type": 1}, {"prefer_type": 2},
                                  {"random_seed": 1}, {"random_seed": 2}],
                         ids=["prefer-type-1", "prefer-type-2", "random-1", "random-2"])
def test_benchmark_chains_match_dense_oracle(spec):
    # the strategies the benchmark's chain-s2x3 workload solves
    cfg = load_config(_CHAIN_CONFIG)
    block = cfg.block("steady_state")
    space = enumerate_state_space(cfg.model)
    assert_matches_dense_oracle(build_strategy(spec, space), space,
                                block["queue_empty_probs"], cfg.model.release_rates,
                                block["mode"], block["opportunity_rate"])


@st.composite
def small_model_chains(draw):
    """A chain on one of ``small_models``: a random strategy, either mode, and
    queue-empty probabilities in [0.3, 0.7], so that every acceptance edge
    carries enough mass for the Cesaro oracle's burn-in to drain transient states."""
    space = enumerate_state_space(draw(small_models()))
    strategy = random_strategy(space, draw(st.integers(0, 2**32 - 1)))
    probs = tuple(draw(st.floats(0.3, 0.7)) for _ in range(space.num_types))
    mode = draw(st.sampled_from([WITH_RELEASES, ACCEPTANCE_ONLY]))
    start = draw(st.sampled_from(["empty", "uniform", "full"]))
    return strategy, space, probs, mode, start


@settings(max_examples=60, deadline=None)
@given(small_model_chains())
def test_small_model_chains_match_the_oracles(case):
    strategy, space, probs, mode, start = case
    psi = build_transition_matrix(strategy, space, probs, space.model.release_rates, mode)
    dense = psi.matrix.toarray()
    oracle = build_transition_dense(strategy, space, probs, space.model.release_rates, mode)
    assert np.all(dense >= 0.0)
    assert np.allclose(dense.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(dense, oracle, rtol=0.0, atol=1e-12)
    p_init = initial_distribution(space, start)
    dist = long_term_distribution(psi, p_init)
    # with-releases edges move one slice up or down, so every period divides 2
    cesaro = cesaro_average(oracle, p_init, burn_in=3000, window=600)
    assert dist.converged
    assert np.allclose(dist.probabilities, cesaro, rtol=0.0, atol=1e-10)


# 0, 1 transient; {2, 3} closed with pi = (1/3, 2/3); {4, 5} a closed
# 2-cycle.  Absorption into {2, 3}: h0 = h1/2 + 1/4, h1 = h0/2, so
# h0 = 1/3 and h1 = 1/6.
TWO_CLOSED_CLASSES = np.array([
    [0.0, 0.5, 0.25, 0.0, 0.25, 0.0],
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.25, 0.75, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
])

# 0, 1 transient and feeding {2, 3, 4}, the only closed class: a birth-death
# chain with pi = (1/4, 1/2, 1/4), which takes all of the mass.
ONE_CLOSED_CLASS = np.array([
    [0.25, 0.5, 0.25, 0.0, 0.0],
    [0.5, 0.0, 0.0, 0.0, 0.5],
    [0.0, 0.0, 0.5, 0.5, 0.0],
    [0.0, 0.0, 0.25, 0.5, 0.25],
    [0.0, 0.0, 0.0, 0.5, 0.5],
])


class TestLongTermDistribution:
    def test_periodic_two_state_chain(self):
        psi = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist = long_term_distribution(psi, np.array([1.0, 0.0]))
        assert dist.converged
        assert np.allclose(dist.probabilities, [0.5, 0.5])

    def test_identity_returns_initial(self):
        psi = np.eye(3)
        start = np.array([0.2, 0.5, 0.3])
        dist = long_term_distribution(psi, start)
        assert dist.converged
        assert np.allclose(dist.probabilities, start)

    def test_irreducible_chain_matches_linear_solve(self):
        psi = np.array([
            [0.1, 0.6, 0.3],
            [0.4, 0.4, 0.2],
            [0.25, 0.25, 0.5],
        ])
        dist = long_term_distribution(psi, np.array([1.0, 0.0, 0.0]))
        oracle = stationary_by_linear_solve(psi)
        assert dist.converged
        assert dist.residual_l1 <= 1e-12
        assert np.allclose(dist.probabilities, oracle, atol=1e-12)

    def test_cesaro_output_is_distribution(self):
        space = case_study_space()
        rng = random.Random(55)
        for _ in range(10):
            strategy = random_strategy(space, rng.randrange(10**6))
            psi = build_transition_matrix(strategy, space,
                                          (rng.random(), rng.random()), space.model.release_rates)
            dist = long_term_distribution(psi, initial_distribution(space, "full"))
            p = dist.probabilities
            assert np.all(p >= -1e-12)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_residual_above_bound_is_flagged(self):
        # rows that sum to less than one admit no stationary vector
        psi = np.array([[0.5, 0.2], [0.3, 0.6]])
        dist = long_term_distribution(psi, np.array([1.0, 0.0]))
        assert not dist.converged
        assert dist.residual_l1 > RESIDUAL_L1_BOUND
        assert abs(dist.probabilities.sum() - 1.0) < 1e-9

    def test_three_cycle_cesaro_limit(self):
        psi = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        dist = long_term_distribution(psi, np.array([1.0, 0.0, 0.0]))
        assert dist.converged
        assert np.allclose(dist.probabilities, 1.0 / 3.0, rtol=0.0, atol=1e-12)

    def test_two_closed_classes_absorption_weights(self):
        psi = TWO_CLOSED_CLASSES
        cases = [
            ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0, 0, 1 / 9, 2 / 9, 1 / 3, 1 / 3]),
            ([0.5, 0.5, 0.0, 0.0, 0.0, 0.0], [0, 0, 1 / 12, 2 / 12, 3 / 8, 3 / 8]),
            ([0.3, 0.0, 0.0, 0.2, 0.5, 0.0], [0, 0, 0.1, 0.2, 0.35, 0.35]),
        ]
        for start, expected in cases:
            dist = long_term_distribution(psi, np.array(start))
            assert dist.converged
            assert np.allclose(dist.probabilities, expected, rtol=0.0, atol=1e-12)

    def test_acceptance_only_mass_ends_in_absorbing_states(self):
        space = case_study_space()
        psi = build_transition_matrix(constant_strategy(space, (1, 2, 0)), space,
                                      (0.4, 0.7), space.model.release_rates, mode=ACCEPTANCE_ONLY)
        start = initial_distribution(space, "empty")
        dist = long_term_distribution(psi, start)
        absorbing = np.diag(psi.matrix.toarray()) == 1.0
        assert dist.converged
        assert np.all(dist.probabilities[~absorbing] == 0.0)
        assert np.count_nonzero(dist.probabilities) >= 2
        # states only fill up, so the power sequence itself converges
        limit = start @ np.linalg.matrix_power(psi.matrix.toarray(), 4096)
        assert np.allclose(dist.probabilities, limit, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("start", [[0.625, 0.375, 0.0, 0.0, 0.0],
                                       [0.25, 0.0, 0.0, 0.0, 0.75],
                                       [0.0, 1.0, 0.0, 0.0, 0.0]])
    def test_one_closed_class_takes_all_transient_mass(self, start):
        dist = long_term_distribution(ONE_CLOSED_CLASS, np.array(start))
        assert dist.converged
        assert np.allclose(dist.probabilities, [0, 0, 0.25, 0.5, 0.25], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("chain, start, solves", [
        # the stationary solve of the class's states other than its anchor
        (ONE_CLOSED_CLASS, [0.625, 0.375, 0.0, 0.0, 0.0], [2]),
        # absorption over the two transient states, then both classes at once
        (TWO_CLOSED_CLASSES, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [2, 2]),
    ], ids=["one-class", "two-classes"])
    def test_sparse_solves_per_chain(self, chain, start, solves, monkeypatch):
        sizes = count_solves(monkeypatch)
        long_term_distribution(chain, np.array(start))
        assert sizes == solves

    def test_reserve_trap_is_a_point_mass_on_empty(self, monkeypatch):
        # the empty state's column starts with the reserve symbol, so the
        # empty state is the one closed class, a single state: nothing to solve
        space = enumerate_state_space(builtin_scenario("paper-scenario-2"))
        strategy = random_strategy(space, 5)
        assert strategy.columns[0][0] == RESERVE
        psi = build_transition_matrix(strategy, space, (0.5, 0.5), space.model.release_rates)
        sizes = count_solves(monkeypatch)
        dist = long_term_distribution(psi, initial_distribution(space, "full"))
        assert sizes == []
        assert dist.converged
        assert np.array_equal(dist.probabilities, initial_distribution(space, "empty"))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_long_cesaro_average(self, seed):
        psi, start = random_reducible_chain(seed)
        dist = long_term_distribution(psi, start)
        # the window is a multiple of every period the generator uses
        oracle = cesaro_average(psi, start, burn_in=3000, window=600)
        assert dist.converged
        assert dist.residual_l1 <= 1e-12
        assert np.allclose(dist.probabilities, oracle, rtol=0.0, atol=1e-10)


def as_distribution(p):
    """The probability vector ``p`` as a ``StateDistribution``, started from itself."""
    return StateDistribution(p, p, converged=True)


class TestEstimators:
    def test_point_mass_on_empty(self):
        space = case_study_space()
        p = as_distribution(initial_distribution(space, "empty"))
        mu = estimate_acceptance_rates(expected_active_slices(p, space), (1.0, 1.0))
        assert mu == (0.0, 0.0)
        assert estimate_mean_utility(mu, (1.0, 1.0), (1.0, 10.0)) == 0.0

    def test_point_mass_on_mixed_state(self):
        model = ResourceModel(
            pool=(1.0, 1.0),
            costs=((0.01, 0.05), (0.2, 0.04)),
            types=(SliceType(2.0, 0.2, 1.0), SliceType(0.5, 0.5, 10.0)),
        )
        space = enumerate_state_space(model)
        p = np.zeros(len(space))
        p[space.index_of((2, 1))] = 1.0
        s_bar = expected_active_slices(as_distribution(p), space)
        assert s_bar == (2.0, 1.0)
        mu = estimate_acceptance_rates(s_bar, model.release_rates)
        utility = estimate_mean_utility(mu, model.release_rates, model.utility_rates)
        assert utility == pytest.approx(12.0)

    def test_acceptance_rates_are_release_flow(self):
        space = case_study_space()
        p = as_distribution(initial_distribution(space, "uniform"))
        s_bar = expected_active_slices(p, space)
        mu = estimate_acceptance_rates(s_bar, (0.25, 4.0))
        assert mu == pytest.approx((0.25 * s_bar[0], 4.0 * s_bar[1]))


class TestPipeline:
    def test_steady_state_estimate_shape(self):
        space = case_study_space()
        model = space.model
        est = strategy_steady_state(model, space, naive_strategy(space, "prefer-type-2"),
                                    (0.5, 0.5))
        assert est.distribution.converged
        assert len(est.acceptance_rates) == 2
        assert est.utility_rate == pytest.approx(
            sum(u * s for u, s in zip(model.utility_rates, est.mean_active_slices))
        )

    def test_initial_distribution_policies(self):
        space = case_study_space()
        full = initial_distribution(space, "full")
        assert full[: space.num_admissible].sum() == 0.0
        uniform = initial_distribution(space, "uniform")
        assert np.allclose(uniform, 1.0 / len(space))
        with pytest.raises(ContractViolation):
            initial_distribution(space, "bogus")
