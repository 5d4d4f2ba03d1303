import hashlib
import itertools
import math

import numpy as np
import pytest

import slicesim.strategy as strategy_module
from slicesim.config import build_strategy, builtin_scenario
from slicesim.errors import ConfigError, ContractViolation
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import (
    PreferenceMatrix,
    from_text,
    naive_strategy,
    random_strategy,
    to_text,
    validate_matrix,
    validate_vector,
)


@pytest.fixture(scope="module")
def space():
    model = ResourceModel(
        pool=(1.0,),
        costs=((0.6,), (0.2,)),
        types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)),
    )
    return enumerate_state_space(model)


class TestValidate:
    def test_valid_vector(self):
        assert validate_vector([1, 2, 0], num_types=2) is None

    def test_duplicate(self):
        assert "duplicate" in validate_vector([1, 1, 0], num_types=2)

    def test_starving_order_is_valid(self):
        # queues after the reserve symbol are simply never served
        assert validate_vector([2, 0, 1], num_types=2) is None

    def test_wrong_length(self):
        assert "entries" in validate_vector([1, 0], num_types=2)

    def test_matrix_column_count(self, space):
        # a table needs one column per admissible state; one column stands for all of them
        k = space.num_admissible
        assert build_strategy({"columns": [[1, 2, 0]]}, space).num_columns == k
        with pytest.raises(ConfigError, match=rf"^cfg:4: invalid strategy table: "
                                              rf"expected {k} columns, got 2$"):
            build_strategy({"columns": [[1, 2, 0], [2, 1, 0]]}, space, anchor="cfg:4")

    def test_bool_entry(self):
        assert "True" in validate_vector([True, 0], num_types=1)

    def test_first_bad_column_named_once_per_distinct_column(self):
        columns = [[1, 2, 0], [1, 1, 0], [1, 2, 0], [2, 2, 0], [1, 1, 0]]
        assert validate_matrix(columns, num_types=2) == "column 1: duplicate entry 1"
        assert validate_matrix([[1, 2, 0], [1, 0]], num_types=2) == (
            "column 1: expected 3 entries, got 2")

    @pytest.mark.parametrize("column, entry", [((1.5, 0.2), "1.5"), ((True, 0), "True")])
    def test_matrix_refuses_non_integer_entries(self, column, entry):
        with pytest.raises(ContractViolation, match=f"column 0: entry {entry} is not an integer"):
            PreferenceMatrix(columns=(column,), num_types=1)

    def test_matrix_names_first_bad_column(self):
        with pytest.raises(ContractViolation, match="column 2: duplicate entry 1"):
            PreferenceMatrix(columns=((1, 0), (0, 1), (1, 1), (0, 1), (1, 1)), num_types=1)

    def test_equal_column_stored_as_the_earlier_one(self):
        matrix = PreferenceMatrix(columns=((1, 0), (1.0, 0)), num_types=1)
        assert matrix.columns[1] is matrix.columns[0] == (1, 0)


class TestNaive:
    def test_prefer_type_2(self, space):
        matrix = naive_strategy(space, "prefer-type-2")
        assert all(col == (2, 1, 0) for col in matrix.columns)

    def test_prefer_type_1(self, space):
        matrix = naive_strategy(space, "prefer-type-1")
        assert all(col == (1, 2, 0) for col in matrix.columns)

    def test_ascending_completion(self):
        model = ResourceModel(
            pool=(1.0,),
            costs=((0.3,), (0.3,), (0.3,)),
            types=tuple(SliceType(1.0, 1.0) for _ in range(3)),
        )
        sp = enumerate_state_space(model)
        matrix = naive_strategy(sp, "prefer-type-1")
        assert all(col == (1, 2, 3, 0) for col in matrix.columns)

    def test_unknown_kind(self, space):
        with pytest.raises(ContractViolation):
            naive_strategy(space, "prefer-type-9")
        with pytest.raises(ContractViolation, match="unknown naive strategy kind 'greedy-order'"):
            naive_strategy(space, "greedy-order")


def _types(n):
    return ResourceModel(pool=(1.0,), costs=((0.5,),) * n, types=(SliceType(1.0, 1.0),) * n)


class TestInterning:
    # random_strategy hands PreferenceMatrix an integer array, which is interned
    # in one pass through each column's code in base N + 1 up to N = 14, and
    # column by column above that or for any other input

    @pytest.mark.parametrize("seed", [0, 7, 2**31])
    @pytest.mark.parametrize("model", [_types(1), _types(2), _types(3), _types(4), _types(14),
                                       _types(15),
                                       ResourceModel(pool=(1.0,), costs=((0.1,), (0.2,), (0.25,),
                                                                        (0.3,)),
                                                     types=(SliceType(1.0, 1.0),) * 4)],
                             ids=["N1", "N2", "N3", "N4", "N14", "N15-uncoded", "N4-many"])
    def test_random_columns_equal_the_per_column_path(self, monkeypatch, model, seed):
        tables = []

        def recording(columns, num_types):
            tables.append(columns.copy())
            return PreferenceMatrix(columns=columns, num_types=num_types)

        monkeypatch.setattr(strategy_module, "PreferenceMatrix", recording)
        space = enumerate_state_space(model)
        coded = random_strategy(space, seed)
        (table,) = tables
        assert isinstance(table, np.ndarray) and table.shape == (space.num_admissible,
                                                                 model.num_types + 1)
        looped = PreferenceMatrix(columns=tuple(map(tuple, table.tolist())),
                                  num_types=model.num_types)
        assert coded.columns == looped.columns
        assert {type(v) for col in coded.columns for v in col} == {int}
        # equal columns are one object, and there are at most (N + 1)! of them
        distinct = {id(col) for col in coded.columns}
        assert len(distinct) == len(set(coded.columns)) <= math.factorial(model.num_types + 1)

    def test_equal_rows_share_one_tuple(self):
        table = np.array([[2, 1, 0], [0, 1, 2], [2, 1, 0], [1, 0, 2], [0, 1, 2]])
        matrix = PreferenceMatrix(columns=table, num_types=2)
        assert matrix.columns == tuple(map(tuple, table.tolist()))
        assert matrix.columns[2] is matrix.columns[0] and matrix.columns[4] is matrix.columns[1]

    @pytest.mark.parametrize("table", [
        [[1, 2, 0], [1, 3, 0]],     # an entry N + 1
        [[1, 2, 0], [-1, 2, 0]],    # an entry -1
        [[1, 2, 0], [1, 1, 3]],     # in base 3, the same code as the valid column
        [[1, 2, 0], [1, 1, 0]],     # a duplicate entry
        [[2, 2, 0], [1, 1, 0]],     # two bad columns, the first with the larger code
        [[1, 2, 0, 3], [1, 2, 0, 3]],  # too wide
        [[1, 0], [0, 1]],           # too narrow
    ], ids=["entry-n-plus-1", "entry-minus-1", "code-alias", "duplicate", "two-bad", "wide",
            "narrow"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_bad_arrays_refused_as_the_same_tuples(self, table, dtype):
        with pytest.raises(ContractViolation) as from_tuples:
            PreferenceMatrix(columns=tuple(map(tuple, table)), num_types=2)
        with pytest.raises(ContractViolation) as from_array:
            PreferenceMatrix(columns=np.array(table, dtype=dtype), num_types=2)
        assert str(from_array.value) == str(from_tuples.value)
        assert str(from_array.value).startswith("invalid preference matrix: column ")


class TestRandom:
    def test_deterministic(self, space):
        assert random_strategy(space, 123).columns == random_strategy(space, 123).columns

    def test_seed_sensitivity(self, space):
        assert random_strategy(space, 1).columns != random_strategy(space, 2).columns

    def test_column_frequencies_uniform(self, space):
        counts = {}
        draws = 10000
        for seed in range(draws):
            col = random_strategy(space, seed).columns[0]
            counts[col] = counts.get(col, 0) + 1
        assert set(counts) == set(itertools.permutations((0, 1, 2)))
        for c in counts.values():
            assert abs(c / draws - 1 / 6) < 0.02

    def test_all_valid(self, space):
        for seed in range(50):
            matrix = random_strategy(space, seed)
            assert matrix.num_columns == space.num_admissible
            assert validate_matrix(matrix.columns, 2) is None


_UNIT = SliceType(1.0, 1.0)
_HASHED_MODELS = {
    "paper-scenario-1": builtin_scenario("paper-scenario-1"),
    "paper-scenario-2": builtin_scenario("paper-scenario-2"),
    "three-types": ResourceModel(pool=(1.0, 1.0), costs=((0.1, 0.2), (0.25, 0.1), (0.2, 0.3)),
                                 types=(_UNIT,) * 3),
    "four-types": ResourceModel(pool=(1.0,), costs=((0.1,), (0.2,), (0.25,), (0.3,)),
                                types=(_UNIT,) * 4),
}
# First 16 hex digits of sha256(to_text(random_strategy(space, seed))), recorded
# from the one-column-at-a-time Fisher-Yates shuffle; the two scenarios share
# their state space, so their columns agree.
_SEEDS = (0, 7, 123, 2**31)
_PINNED = {
    "paper-scenario-1": ("46e47a3aa22bd57f", "16eb67ab62e7f960", "a19feddcecf1d12f",
                         "5547b324135ff952"),
    "paper-scenario-2": ("46e47a3aa22bd57f", "16eb67ab62e7f960", "a19feddcecf1d12f",
                         "5547b324135ff952"),
    "three-types": ("063ab5b32218c267", "d77af420f29fa9c4", "aca34b2b2e31f077",
                    "81593bb418fb3a23"),
    "four-types": ("1ed1206421f6a463", "632581c398b560ae", "f76467cbcd6f7152",
                   "88d3731945d5eeb2"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_random_strategy_columns_pinned(name):
    space = enumerate_state_space(_HASHED_MODELS[name])
    digests = tuple(
        hashlib.sha256(to_text(random_strategy(space, seed)).encode()).hexdigest()[:16]
        for seed in _SEEDS
    )
    assert digests == _PINNED[name]


def test_strategy_domain_size():
    # number of distinct matrices is ((N+1)!)^|A|; literally checkable when tiny
    model = ResourceModel(pool=(1.0,), costs=((1.0,), (1.0,)),
                          types=(SliceType(1.0, 1.0), SliceType(1.0, 1.0)))
    sp = enumerate_state_space(model)
    assert sp.num_admissible == 1
    perms = list(itertools.permutations((0, 1, 2)))
    matrices = {PreferenceMatrix(columns=(p,), num_types=2).columns for p in perms}
    assert len(matrices) == math.factorial(3) ** sp.num_admissible


class TestSerialization:
    def test_round_trip(self, space):
        matrix = random_strategy(space, 77)
        text = to_text(matrix)
        back = from_text(text, num_types=2)
        assert back.columns == matrix.columns

    def test_bad_index(self):
        with pytest.raises(ContractViolation):
            from_text("1 1 2 0\n", num_types=2)

    def test_bad_permutation(self):
        with pytest.raises(ContractViolation):
            from_text("0 1 1 0\n", num_types=2)
