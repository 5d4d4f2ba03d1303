import hashlib
import itertools
import math

import pytest

from slicesim import optimize
from slicesim.cli import main
from slicesim.config import builtin_scenario
from slicesim.engine import SimConfig
from slicesim.errors import ContractViolation
from slicesim.optimize import (
    StrategyScore,
    evaluate_strategy,
    greedy_single_queue_baseline,
    local_search,
    random_sweep,
)
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import PreferenceMatrix, naive_strategy, random_strategy

from oracles import local_search_eager


def scenario_model(n=1):
    lam = (2.0, 0.5) if n == 1 else (6.0, 1.5)
    return ResourceModel(
        pool=(1.0, 1.0),
        costs=((0.01, 0.05), (0.2, 0.04)),
        types=(
            SliceType(lam[0], 0.2, 1.0, reneging_rate=1.0, balking_willingness=0.02),
            SliceType(lam[1], 0.5, 10.0, reneging_rate=1.0, balking_willingness=0.02),
        ),
    )


def toy_model():
    # capacity one slice, either type: a single admissible state
    return ResourceModel(
        pool=(1.0,), costs=((1.0,), (1.0,)),
        types=(SliceType(3.0, 1.0, 1.0), SliceType(3.0, 1.0, 10.0)),
    )


class TestEvaluateStrategy:
    def test_degenerate_no_arrivals(self):
        model = ResourceModel(
            pool=(1.0,), costs=((0.5,),), types=(SliceType(0.0, 1.0, 1.0),)
        )
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=10.0, seed=1)
        score = evaluate_strategy(
            model, naive_strategy(space, "prefer-type-1"), config, rounds=3, space=space
        )
        assert score.utility_mean == 0.0
        assert score.wait_mean == 0.0

    def test_same_seed_same_score(self):
        model = scenario_model()
        space = enumerate_state_space(model)
        strategy = random_strategy(space, 5)
        config = SimConfig(model=model, strategy=None, horizon=40.0, seed=77,
                           initial_state="full", balking=True, reneging=True)
        a = evaluate_strategy(model, strategy, config, 5, space)
        b = evaluate_strategy(model, strategy, config, 5, space)
        assert a == b

    def test_prefer_type2_beats_prefer_type1_on_utility(self):
        # paired seeds isolate the policy effect; the higher-utility type wins
        for scenario, rounds in ((1, 200), (2, 50)):
            model = scenario_model(scenario)
            space = enumerate_state_space(model)
            config = SimConfig(model=model, strategy=None, horizon=40.0, seed=1,
                               initial_state="full", balking=True, reneging=True)
            s1 = evaluate_strategy(model, naive_strategy(space, "prefer-type-1"),
                                   config, rounds, space)
            s2 = evaluate_strategy(model, naive_strategy(space, "prefer-type-2"),
                                   config, rounds, space)
            assert s2.utility_mean > s1.utility_mean

    def test_metric_accessor(self):
        score = StrategyScore("x", 0, 1, 1.0, 0.0, 2.0, 0.0, 0.5, 0.0)
        assert score.metric("utility") == 1.0
        assert score.metric("wait") == 2.0
        assert score.metric("admission") == 0.5
        with pytest.raises(ContractViolation):
            score.metric("bogus")

    def test_halfwidth_of_deviations_too_large_to_square(self):
        # (v - mean) ** 2 past 1e308 raised OverflowError; such deviations are squared scaled
        mean, halfwidth = optimize._mean_halfwidth([1.0e300, 3.0e300])
        assert mean == 2.0e300
        assert halfwidth == pytest.approx(1.96e300, rel=1e-12)
        assert optimize._mean_halfwidth([1.0, 3.0]) == (2.0, 1.96)
        # a sum past 1.8e308 made the mean of these finite values inf: it is summed v / n
        mean, halfwidth = optimize._mean_halfwidth([1.5e308, 1.7e308])
        assert mean == pytest.approx(1.6e308, rel=1e-12)
        assert halfwidth == pytest.approx(1.96e307, rel=1e-12)

    @pytest.mark.parametrize("command, rate, block, table", [
        ("sweep", "1.0e+300", "sweep: {count: 2, rounds: 2, horizon: 5.0}\n", "sweep.csv"),
        ("optimize", "1.0e+300", "optimize: {budget: 2, rounds: 2, horizon: 5.0}\n",
         "trajectory.csv"),
        # each round's utility is finite, and their sum is not: the means were inf
        ("sweep", "1.7e+308", "seed: 1\nsweep: {count: 2, rounds: 2, horizon: 5.0}\n",
         "sweep.csv"),
        ("simulate", "1.7e+308", "seed: 0\nsimulate: {rounds: 2, horizon: 5.0}\n",
         "metrics.csv"),
    ], ids=["sweep", "optimize", "sweep-1.7e308", "simulate-1.7e308"])
    def test_huge_utility_rate_scores_finite(self, command, rate, block, table, tmp_path,
                                             capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "model:\n  resources: [1.0]\n  slice_types:\n"
            f"    - {{cost: [0.3], arrival_rate: 1.0, release_rate: 1.0, utility_rate: {rate}}}\n"
            "    - {cost: [0.2], arrival_rate: 1.0, release_rate: 1.0, utility_rate: 1.0}\n"
            + block)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / table).read_text().splitlines()[1:]
        # the mean row of metrics.csv starts "mean,,"
        cells = [v for row in rows for v in row.split(",") if v not in ("mean", "")]
        assert rows and all(math.isfinite(float(v)) for v in cells)


class TestRandomSweep:
    def test_count_one_equals_direct_evaluation(self):
        model = scenario_model()
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=20.0, seed=3,
                           initial_state="full")
        entries = random_sweep(model, 1, master_seed=11, config=config, rounds=3,
                               space=space)
        strategy = random_strategy(space, entries[0].strategy_seed)
        direct = evaluate_strategy(model, strategy, config, 3, space,
                                   label=entries[0].score.label)
        assert entries[0].score == direct

    def test_reproducible_from_master_seed_and_index(self):
        model = scenario_model()
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=20.0, seed=3,
                           initial_state="full", balking=True, reneging=True)
        a = random_sweep(model, 4, 9, config, 3, space)
        b = random_sweep(model, 4, 9, config, 3, space)
        assert [e.score for e in a] == [e.score for e in b]
        assert [e.strategy_seed for e in a] == [e.strategy_seed for e in b]

    def test_admission_spread_in_scenario_2(self):
        model = scenario_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=40.0, seed=5,
                           initial_state="full", balking=True, reneging=True)
        entries = random_sweep(model, 30, 2024, config, 5, space)
        rates = [e.score.admission_mean for e in entries]
        assert max(rates) - min(rates) > 0.05

    def test_count_validation(self):
        model = scenario_model()
        config = SimConfig(model=model, strategy=None, horizon=10.0)
        with pytest.raises(ContractViolation):
            random_sweep(model, 0, 1, config, 1, enumerate_state_space(model))


class TestGreedyBaseline:
    def test_case_study_blocking(self):
        # the single queue blocks type-2 requests behind a waiting type-1 head
        model = ResourceModel(
            pool=(1.0,), costs=((0.6,), (0.2,)),
            types=(SliceType(1.0, 0.01, 1.0), SliceType(1.0, 0.01, 1.0)),
        )
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=10.0, seed=2,
                           initial_state=(1, 0))
        score = greedy_single_queue_baseline(model, config, rounds=2, space=space)
        multi = evaluate_strategy(model, naive_strategy(space, "prefer-type-1"),
                                  config, rounds=2, space=space)
        # slow releases: the multi-queue controller admits strictly more
        assert multi.admission_mean > score.admission_mean

    def test_is_evaluate_strategy_without_a_strategy(self):
        model = scenario_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=15.0, seed=6,
                           initial_state="full", balking=True, reneging=True)
        label = optimize.GREEDY_SINGLE_QUEUE
        score = evaluate_strategy(model, None, config, 3, space, label=label)
        assert score == greedy_single_queue_baseline(model, config, 3, space)
        assert score.label == "greedy-single-queue"
        # not the scores of a multi-queue strategy on the same rounds
        assert score != evaluate_strategy(model, naive_strategy(space, "prefer-type-1"), config,
                                          3, space, label=label)

    def test_empty_arrivals(self):
        model = ResourceModel(
            pool=(1.0,), costs=((0.5,),), types=(SliceType(0.0, 1.0, 1.0),)
        )
        config = SimConfig(model=model, strategy=None, horizon=5.0)
        score = greedy_single_queue_baseline(model, config, rounds=2,
                                             space=enumerate_state_space(model))
        assert score.utility_mean == 0.0

    def test_best_multi_queue_beats_greedy_on_admission(self):
        # the benchmark suite pairs the random sweep with the naive constant
        # strategies; an appropriate multi-queue strategy admits more than the
        # blocking single queue
        model = scenario_model(2)
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=40.0, seed=31,
                           initial_state="full", balking=True, reneging=True)
        entries = random_sweep(model, 25, 7, config, 5, space)
        candidates = [e.score.admission_mean for e in entries]
        for kind in ("prefer-type-1", "prefer-type-2"):
            score = evaluate_strategy(model, naive_strategy(space, kind),
                                      config, 5, space, label=kind)
            candidates.append(score.admission_mean)
        greedy = greedy_single_queue_baseline(model, config, 5, space)
        assert max(candidates) >= greedy.admission_mean


class TestLocalSearch:
    def test_zero_budget_returns_start_only(self):
        model = toy_model()
        space = enumerate_state_space(model)
        start = naive_strategy(space, "prefer-type-1")
        config = SimConfig(model=model, strategy=None, horizon=10.0, seed=3)
        trajectory = local_search(model, start, 0, config, 2, space=space)
        assert len(trajectory) == 1
        assert trajectory[0].evaluations == 0

    def test_monotone_trajectory(self):
        model = scenario_model(2)
        space = enumerate_state_space(model)
        start = random_strategy(space, 17)
        config = SimConfig(model=model, strategy=None, horizon=20.0, seed=4,
                           initial_state="full", balking=True, reneging=True)
        trajectory = local_search(model, start, 40, config, 3, metric="utility",
                                  space=space)
        values = [step.score.utility_mean for step in trajectory]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_toy_instance_reaches_brute_force_optimum(self):
        model = toy_model()
        space = enumerate_state_space(model)
        assert space.num_admissible == 1
        config = SimConfig(model=model, strategy=None, horizon=30.0, seed=42)
        brute = {
            perm: evaluate_strategy(
                model, PreferenceMatrix(columns=(perm,), num_types=2),
                config, 5, space,
            ).utility_mean
            for perm in itertools.permutations((0, 1, 2))
        }
        best_value = max(brute.values())
        worst = min(brute, key=brute.get)
        trajectory = local_search(
            model, PreferenceMatrix(columns=(worst,), num_types=2),
            budget=30, config=config, rounds=5, metric="utility", space=space,
        )
        assert trajectory[-1].score.utility_mean == pytest.approx(best_value)

    # (model, budget, metric): each budget spans at least two improving steps
    _EAGER_CASES = {
        "scenario-2": (builtin_scenario("paper-scenario-2"), 560, "utility"),
        "three-types": (ResourceModel(pool=(1.0,), costs=((0.3,), (0.4,), (0.5,)),
                                      types=(SliceType(2.0, 1.0, 1.0), SliceType(1.0, 1.0, 3.0),
                                             SliceType(1.0, 1.0, 5.0))), 120, "wait"),
    }

    @pytest.mark.parametrize("case", sorted(_EAGER_CASES))
    def test_lazy_neighbors_match_eager_search(self, case):
        model, budget, metric = self._EAGER_CASES[case]
        space = enumerate_state_space(model)
        config = SimConfig(model=model, strategy=None, horizon=8.0, seed=4,
                           initial_state="full", balking=True, reneging=True)
        start = random_strategy(space, 3)
        lazy, eager = (search(model, start, budget, config, 2, metric=metric, space=space)
                       for search in (local_search, local_search_eager))
        steps = [(s.evaluations, s.score, s.strategy.columns) for s in lazy]
        assert steps == [(s.evaluations, s.score, s.strategy.columns) for s in eager]
        assert len({columns for _, _, columns in steps}) >= 3

    def test_builds_only_the_neighbors_it_scores(self, monkeypatch):
        # 5,050 admissible states: the full neighbor list would hold 15,150 matrices
        model = ResourceModel(pool=(1.0,), costs=((0.01,), (0.01,)),
                              types=(SliceType(2.0, 1.0, 1.0), SliceType(1.0, 1.0, 3.0)))
        space = enumerate_state_space(model)
        assert space.num_admissible >= 5000
        budget, built = 4, []

        def counting(*args, **kwargs):
            built.append(1)
            assert len(built) <= budget, "built a neighbor matrix that was not scored"
            return PreferenceMatrix(*args, **kwargs)

        monkeypatch.setattr(optimize, "PreferenceMatrix", counting)
        config = SimConfig(model=model, strategy=None, horizon=2.0, seed=8)
        trajectory = local_search(model, random_strategy(space, 1), budget, config, 1,
                                  space=space)
        assert trajectory[-1].evaluations == budget
        assert len(built) == budget



def test_sweep_entries_same_with_outer_tape_dict():
    model = scenario_model(2)
    space = enumerate_state_space(model)
    config = SimConfig(model=model, strategy=None, horizon=15.0, seed=6,
                       initial_state="full", balking=True, reneging=True)
    tapes = {}
    shared = random_sweep(model, 3, 6, config, 4, space, tapes)
    assert shared == random_sweep(model, 3, 6, config, 4, space)
    assert len(tapes) == 4
    # the baselines then replay the sweep's tapes and score as on fresh draws
    assert (evaluate_strategy(model, None, config, 4, space,
                              label=optimize.GREEDY_SINGLE_QUEUE, tapes=tapes)
            == greedy_single_queue_baseline(model, config, 4, space))
    assert len(tapes) == 4

# sha256 of every artefact of a small scenario-2 sweep, local search and chain, with
# impatience on and a full start.  Speed-ups of the simulation must leave the
# files byte for byte as they are; only a change meant to alter seeded outputs
# rewrites these digests.
_PINNED_COMMANDS = {
    "sweep": ("sweep: {count: 4, rounds: 3, horizon: 12.0, balking: true, reneging: true, "
              "initial_state: full}\n", {
                  "sweep.csv": "88573efc7bd6ed1b428dd319b55358f7a095f8cec727a1f7f6a1dba152ae93bd",
                  "baselines.csv":
                      "0a73f2adbb1cadbcc2eee69db68a6d111f2e5a0feece50a85132facfe2c4eb30",
                  "run_meta.json":
                      "edb30f8e854a7adf31a147cc1d2f40048ea6296227b0a0eed6fc8b16680e9c9a",
              }),
    "optimize": ("optimize: {start: {random_seed: 5}, budget: 10, metric: utility, rounds: 3, "
                 "horizon: 12.0, balking: true, reneging: true, initial_state: full}\n", {
                     "trajectory.csv":
                         "c8a338b4489f60154373a113d20640d29c0fcdb767f09c6d3ec15770cfbae5d3",
                     "best_strategy.txt":
                         "57d0fb26252ae30c05fdea416a59a0c4a29ccc854226df8dcf20e778d414a279",
                     "run_meta.json":
                         "d014d76bae9e4482b1e415b3b23a9bb50586d0a005b29a1ffa3fce45da932519",
                 }),
    # the chain fed queue-empty probabilities measured on Monte-Carlo rounds
    "steady-state": ("steady_state: {strategy: {prefer_type: 1}, queue_empty_probs: "
                     "{from_simulation: {rounds: 3, horizon: 30.0}}}\n", {
                         "distribution.csv":
                             "e46658c0385c62f7222ffb5a58a005036f42a29cc76729543a9750a674cfaac9",
                         "estimates.csv":
                             "86e5e67e83e9a7c716cf9768a99b70c2058fa2db97187d02b6409dfebea02605",
                         "run_meta.json":
                             "148a63bd2d8eadb63f2fde36dcac885746e851a7d6a30b0b070e98d9d326de30",
                     }),
    # Monte-Carlo rounds with a warm-up, and the event log of each round
    "simulate": ("simulate: {strategy: {random_seed: 5}, rounds: 3, horizon: 12.0, warmup: 2.0, "
                 "balking: true, reneging: true, initial_state: full, write_traces: true}\n", {
                     "metrics.csv":
                         "5f2a644191df9ab5bd5bab8a784efeb8f36f5c65bf316e874d2969126e976711",
                     "pooled_iat.csv":
                         "ca1b1b8b58204df166d75fcb8bdf00e0b686d386bc2a8d4606c22c62c1529770",
                     "iat_fit.csv":
                         "249050e8a9abde623a11c99f4486e1059ae8e493015fbbcec9bffe354e1d9b6c",
                     "trace_round_0.csv":
                         "697562b8c4899fd2ead177b06d5a679e37dd2c690ffc588664334f79b3e6c0bf",
                     "trace_round_1.csv":
                         "bd1ca1de4bd8dc6d90444fe8e539a36d23d32ae4dc2b6d53e1650b74b0c38655",
                     "trace_round_2.csv":
                         "1023362157845571d30209615c74bc4f002244b0e8f12a7993db88840d989dac",
                     "run_meta.json":
                         "21ce257fb6c48c427234235dc757a3db25e05732b8817b7b5d50ee655491e58e",
                 }),
}


@pytest.mark.parametrize("command", sorted(_PINNED_COMMANDS))
def test_command_artefacts_pinned(command, tmp_path):
    block, digests = _PINNED_COMMANDS[command]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 31\nscenario: paper-scenario-2\n" + block)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
