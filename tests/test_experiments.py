import pytest

from slicesim.config import builtin_scenario
from slicesim.errors import ContractViolation
from slicesim.experiments import default_bin_width, geometric_fit_table, iat_bin_widths
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import naive_strategy

from criteria import (
    ConsistencyRow,
    balanced_benchmark_strategy,
    collect_iat_samples,
    divergences_by_queue,
    markov_consistency,
    matched_divergences,
)


class TestBinWidths:
    def test_default_uses_busiest_queue(self):
        model = builtin_scenario("paper-scenario-1")
        assert default_bin_width(model) == pytest.approx(1 / 2.0 / 10.0)

    def test_per_queue_widths(self):
        model = builtin_scenario("paper-scenario-2")
        assert iat_bin_widths(model) == pytest.approx((1 / 6.0 / 5.0, 1 / 1.5 / 5.0))

    def test_queue_without_arrivals_has_no_width(self):
        model = ResourceModel(pool=(1.0,), costs=((0.3,), (0.2,)),
                              types=(SliceType(2.0, 1.0), SliceType(0.0, 1.0)))
        widths = iat_bin_widths(model)
        assert widths == (pytest.approx(1 / 2.0 / 5.0), None)
        # its cell holds no inter-acceptance times, and the fit table skips it
        rows = geometric_fit_table([[[0.1, 0.3, 0.2], []]], widths)
        assert [row.queue for row in rows] == [1]


class TestFitTable:
    def test_collect_and_fit(self):
        model = builtin_scenario("paper-scenario-1")
        space = enumerate_state_space(model)
        samples = collect_iat_samples(model, space, n_strategies=3, rounds=4,
                                      horizon=40.0, impatient=False, master_seed=5)
        assert len(samples) == 3
        rows = geometric_fit_table(samples, iat_bin_widths(model))
        assert rows
        for row in rows:
            assert 0.0 < row.p_hat <= 1.0
            assert row.divergence >= -1e-12
        by_queue = divergences_by_queue(rows, model.num_types)
        assert len(by_queue) == 2

    def test_paired_collection_is_deterministic(self):
        model = builtin_scenario("paper-scenario-1")
        space = enumerate_state_space(model)
        a = collect_iat_samples(model, space, 2, 3, 40.0, True, 9)
        b = collect_iat_samples(model, space, 2, 3, 40.0, True, 9)
        assert a == b


class TestMatchedDivergences:
    def test_equal_counts_and_alignment(self):
        model = builtin_scenario("paper-scenario-1")
        space = enumerate_state_space(model)
        cells = {
            "patient": collect_iat_samples(model, space, 4, 6, 40.0, False, 11),
            "impatient": collect_iat_samples(model, space, 4, 6, 40.0, True, 11),
        }
        widths = {name: iat_bin_widths(model) for name in cells}
        table = matched_divergences(cells, widths, min_samples=5)
        assert set(table) == {"patient", "impatient"}
        assert len(table["patient"]) == len(table["impatient"])
        assert table["patient"], "expected at least one comparable pair"

    def test_no_cells_rejected(self):
        with pytest.raises(ContractViolation):
            matched_divergences({}, {})


class TestMarkovConsistency:
    def test_rows_cover_strategies_and_queues(self):
        model = builtin_scenario("paper-scenario-1")
        space = enumerate_state_space(model)
        strategies = {
            "serve-1-first": naive_strategy(space, "prefer-type-1"),
            "balanced": balanced_benchmark_strategy(space),
        }
        rows = markov_consistency(model, space, strategies, rounds=4,
                                  horizon=60.0, master_seed=3)
        assert len(rows) == 4
        labels = {row.label for row in rows}
        assert labels == set(strategies)
        for row in rows:
            assert row.measured >= 0.0
            assert row.estimated >= 0.0
            assert 0.0 <= row.queue_empty_prob <= 1.0

    def test_relative_error_handles_zero_measured(self):
        row = ConsistencyRow("x", 1, measured=0.0, estimated=0.0, queue_empty_prob=0.5)
        assert row.relative_error == 0.0


def test_balanced_strategy_reserve_free():
    model = builtin_scenario("paper-scenario-1")
    space = enumerate_state_space(model)
    matrix = balanced_benchmark_strategy(space)
    for col in matrix.columns:
        assert col[-1] == 0
        assert set(col) == {0, 1, 2}
