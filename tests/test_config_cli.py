import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
import yaml

from slicesim import config
from slicesim.analytics import QueueParams, mm1_queue_pmf, wait_distributions, wait_means
from slicesim.config import build_strategy, builtin_scenario, load_config, parse_config
from slicesim.cli import main
from slicesim.errors import ConfigError, SliceSimError
from slicesim.slice_model import enumerate_state_space


SCENARIO_1 = "scenario: paper-scenario-1\n"

# the steady state of a chain whose type-1 release rate is {rate}
STEADY_TWO_TYPES = """model:
  resources: [1.0]
  slice_types:
    - {{cost: [0.3], arrival_rate: 1.0, release_rate: {rate}}}
    - {{cost: [0.2], arrival_rate: 0.5, release_rate: 1.0}}
steady_state:
  strategy: {{prefer_type: 1}}
  queue_empty_probs: [0.3, 0.6]
  opportunity_rate: 3.0
"""

MINIMAL = """
seed: 7
scenario: paper-scenario-1
simulate:
  rounds: 2
  horizon: 10.0
  strategy: {prefer_type: 1}
casestudy: {}
"""

# type 2 never arrives, which the schema allows
ONE_TYPE_ARRIVES = """model:
  resources: [1.0]
  slice_types:
    - {cost: [0.3], arrival_rate: 1.0, release_rate: 1.0, utility_rate: 1.0}
    - {cost: [0.2], arrival_rate: 0.0, release_rate: 1.0, utility_rate: 1.0}
"""

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")
# PyYAML's safe loaders that can parse here: pure Python, and libyaml's where built
BASES = ["SafeLoader", "CSafeLoader"] if yaml.__with_libyaml__ else ["SafeLoader"]


def _parse_with(monkeypatch, base: str) -> None:
    """Parse configurations on PyYAML's loader ``base`` from here on."""
    monkeypatch.setattr(config, "_Loader", config._loader_on(getattr(yaml, base)))


class TestScenarios:
    def test_scenario_1_rates(self):
        model = builtin_scenario("paper-scenario-1")
        assert model.arrival_rates == (2.0, 0.5)
        assert 1.0 / model.types[0].release_rate == 5.0  # mean lifetime
        assert model.types[1].utility_rate == 10.0
        assert model.types[0].reneging_rate == 1.0
        assert model.types[0].balking_willingness == 0.02

    def test_scenario_2_rates(self):
        model = builtin_scenario("paper-scenario-2")
        assert model.arrival_rates == (6.0, 1.5)

    def test_aliases(self):
        assert builtin_scenario("scenario-2").arrival_rates == (6.0, 1.5)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            builtin_scenario("scenario-9")

    def test_cost_bundles(self):
        model = builtin_scenario("paper-scenario-1")
        assert model.costs == ((0.01, 0.05), (0.2, 0.04))


class TestParse:
    def test_minimal(self):
        config = parse_config(MINIMAL)
        assert config.seed == 7
        assert config.scenario == "paper-scenario-1"
        assert config.block("simulate")["rounds"] == 2

    def test_defaults_applied(self):
        config = parse_config(MINIMAL)
        block = config.block("simulate")
        assert block["warmup"] == 0.0
        assert block["balking"] is False
        assert block["initial_state"] == "empty"

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("seed: 1\nscenario: paper-scenario-1\nwat: 2\n")

    def test_unknown_block_key_has_line(self):
        text = "seed: 1\nscenario: paper-scenario-1\nsimulate:\n  rounds: 2\n  zz: 1\n"
        with pytest.raises(ConfigError, match=r":5: unknown key 'zz'"):
            parse_config(text, source="cfg")

    def test_scenario_and_model_exclusive(self):
        text = MINIMAL + "model:\n  resources: [1.0]\n  slice_types: []\n"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_balking_willingness_bound(self):
        text = """
model:
  resources: [1.0]
  slice_types:
    - {cost: [0.5], arrival_rate: 1.0, mean_lifetime: 1.0, balking_willingness: 1.5}
simulate: {rounds: 1}
"""
        with pytest.raises(ConfigError, match="lie in"):
            parse_config(text)

    def test_release_rate_or_lifetime(self):
        text = """
model:
  resources: [1.0]
  slice_types:
    - {cost: [0.5], arrival_rate: 1.0}
"""
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_config(text)

    def test_explicit_model(self):
        text = """
seed: 3
model:
  resources: [2.0, 1.0]
  slice_types:
    - {cost: [0.5, 0.1], arrival_rate: 1.0, release_rate: 0.5, utility_rate: 2.0}
    - {cost: [0.2, 0.2], arrival_rate: 0.5, mean_lifetime: 4.0}
"""
        config = parse_config(text)
        assert config.model.pool == (2.0, 1.0)
        assert config.model.types[1].release_rate == 0.25

    def test_sweep_count_validated(self):
        text = "scenario: paper-scenario-1\nsweep: {count: 0}\n"
        with pytest.raises(ConfigError, match="must be >= 1"):
            parse_config(text)

    @pytest.mark.parametrize("field, value, message", [
        ("rounds", '"many"', "expected an integer, got 'many'"),
        ("rounds", "0", "must be >= 1, got 0"),
        ("horizon", '"long"', "expected a number, got 'long'"),
        ("horizon", "0", "must be > 0.0, got 0"),
        ("balking", '"yes"', "expected true/false, got 'yes'"),
        ("reneging", "1", "expected true/false, got 1"),
    ])
    def test_from_simulation_fields_checked(self, field, value, message):
        text = ("scenario: paper-scenario-1\nsteady_state:\n  queue_empty_probs:\n"
                f"    from_simulation:\n      {field}: {value}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == f"cfg:5: {message}"

    def test_exponent_floats_are_numbers(self):
        # YAML 1.1 needs a dot and a signed exponent, and read these as strings
        text = ("model:\n  resources: [1E5]\n  slice_types:\n"
                "    - {cost: [1.0e3], arrival_rate: 1.0, release_rate: 1.0,\n"
                "       reneging_rate: 1e-3}\n"
                "simulate:\n  rounds: 1\n  horizon: 1e3\n")
        config = parse_config(text, source="cfg")
        assert config.block("simulate")["horizon"] == 1000.0
        assert config.model.types[0].reneging_rate == 0.001
        assert config.model.pool == (1e5,) and config.model.costs == ((1e3,),)

    def test_quoted_exponent_is_a_string(self):
        text = "scenario: paper-scenario-1\nsimulate:\n  rounds: 1\n  horizon: '1e3'\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == "cfg:4: expected a number, got '1e3'"

    def test_queue_empty_probs_bounded_by_one(self):
        text = ("scenario: paper-scenario-1\nsteady_state:\n"
                "  queue_empty_probs: [0.2, 1.5]\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == "cfg:3: must be <= 1.0, got 1.5"

    @pytest.mark.parametrize("text, message", [
        # an infinite horizon made the sweep run forever
        ("scenario: paper-scenario-1\nsweep:\n  horizon: .inf\n",
         "cfg:3: expected a finite number, got inf"),
        # a NaN arrival rate was accepted and gave that type zero arrivals
        ("model:\n  resources: [1.0]\n  slice_types:\n"
         "    - {cost: [0.5], release_rate: 1.0,\n       arrival_rate: .nan}\n",
         "cfg:5: expected a finite number, got nan"),
        # a NaN horizon ended in a message with no line
        ("scenario: paper-scenario-1\nsimulate:\n  rounds: 1\n  horizon: .nan\n",
         "cfg:4: expected a finite number, got nan"),
    ])
    def test_non_finite_numbers_rejected(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == message

    @pytest.mark.parametrize("warmup", ["10.0", "20.0"])
    def test_warmup_must_end_before_horizon(self, warmup):
        text = f"scenario: paper-scenario-1\nsimulate:\n  horizon: 10.0\n  warmup: {warmup}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == f"cfg:4: must be < horizon 10.0, got {warmup}"

    def test_analyze_needs_a_law(self):
        # the message quoted an empty law the file never gave
        with pytest.raises(ConfigError) as info:
            parse_config("scenario: paper-scenario-1\nanalyze:\n  arrival_rate: 1.0\n",
                         source="cfg")
        assert str(info.value) == (
            "cfg:2: analyze needs a 'law': one of mm1-pmf, impatient-pmf, wait-densities, "
            "wait-means, acceptance-probabilities")

    @pytest.mark.parametrize("law, stop, step", [
        ("wait-densities", "1.0e+300", "1.0e-10"), ("wait-densities", "1.0", "1.0e-6"),
        ("mm1-pmf", "8.0", "1.0e-7"),
    ], ids=["1.0e+300-1.0e-10", "1.0-1.0e-6", "unread-by-mm1-pmf"])
    def test_wait_steps_bounded(self, tmp_path, law, stop, step):
        # the first overflowed when the table's row count was rounded to an integer
        text = (f"scenario: paper-scenario-1\nanalyze:\n  law: {law}\n"
                f"  wait_stop: {stop}\n  wait_step: {step}\n")
        if law != "wait-densities":  # no other law reads the grid, so none bounds it
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(text, encoding="utf-8")
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
            assert (tmp_path / "o" / "analysis.csv").is_file()
            return
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == (f"cfg:5: wait_stop / wait_step must be < 1000000, "
                                   f"got {float(stop)} / {float(step)}")
        below = text.replace(f"wait_stop: {stop}", f"wait_stop: {float(step) * 999999}")
        assert parse_config(below).block("analyze")["wait_step"] == float(step)

    @pytest.mark.parametrize("law, keys, runtime, line", [
        ("mm1-pmf", "  arrival_rate: 3.0\n  acceptance_rate: 2.0\n",
         lambda: mm1_queue_pmf(3.0 / 2.0, 0), 4),
        ("wait-means", "  reneging_rate: 0\n",
         lambda: QueueParams(1.0, 2.0, reneging_rate=0.0).gamma, 4),
        ("impatient-pmf", "  balking_willingness: 0\n",
         lambda: QueueParams(1.0, 2.0, 1.0, balking_willingness=0.0).gamma, 4),
        ("acceptance-probabilities", "  balking_willingness: 2\n",
         lambda: QueueParams(1.0, 2.0, 1.0, balking_willingness=2.0), 4),
        # valid rates whose series overflow a double, anchored at the law: the leading
        # series of the second is finite, and its accepted density overflows first at 1.5
        ("wait-means", "  arrival_rate: 1000\n  acceptance_rate: 0.001\n  reneging_rate: 0.0001\n",
         lambda: wait_means(QueueParams(1000.0, 0.001, 0.0001, 0.5)), 3),
        ("wait-densities", "  arrival_rate: 200000\n  acceptance_rate: 1000\n  reneging_rate: 1\n"
                           "  balking_willingness: 1.0\n  wait_stop: 2.0\n  wait_step: 0.5\n",
         lambda: wait_distributions(QueueParams(2e5, 1e3, 1.0, 1.0)).accepted(1.5), 3),
        # valid rates that ended in a ZeroDivisionError traceback: P(A|J) rounds to 1, and
        # the reneging density's first coefficient, 1 / acceptance rate, overflows
        ("wait-densities", "  acceptance_rate: 1.0e+300\n",
         lambda: wait_distributions(QueueParams(1.0, 1e300, 1.0, 0.5)), 3),
        ("wait-densities", "  acceptance_rate: 5.0e-324\n",
         lambda: wait_distributions(QueueParams(1.0, 5e-324, 1.0, 0.5)).reneged(0.0), 3),
    ], ids=["no-equilibrium", "no-reneging", "no-balking", "willingness-above-1",
            "wait-means-overflow", "wait-densities-overflow", "wait-densities-always-accepted",
            "wait-densities-subnormal-acceptance"])
    def test_law_preconditions_carry_a_line(self, tmp_path, capsys, law, keys, runtime, line):
        # each failed in the law, with the runtime's message but without a line
        with pytest.raises(SliceSimError) as raised:
            runtime()
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"scenario: paper-scenario-1\nanalyze:\n  law: {law}\n{keys}",
                       encoding="utf-8")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {raised.value}\n"

    def test_overflow_of_a_merged_law_carries_the_block_line(self, tmp_path, capsys):
        # a law that a '<<' merge brings in has no line of its own: a KeyError traceback
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: paper-scenario-1\nanalyze:\n  <<: {law: wait-means, "
                       "arrival_rate: 1000, acceptance_rate: 0.001, reneging_rate: 0.0001}\n",
                       encoding="utf-8")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:2: hypergeometric series overflows a double")

    def test_missing_block_reported(self):
        config = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="no 'sweep' block"):
            config.block("sweep")


class TestBuildStrategy:
    def test_prefer_type(self):
        space = enumerate_state_space(builtin_scenario("paper-scenario-1"))
        matrix = build_strategy({"prefer_type": 2}, space)
        assert matrix.columns[0] == (2, 1, 0)

    def test_random_seed_deterministic(self):
        space = enumerate_state_space(builtin_scenario("paper-scenario-1"))
        a = build_strategy({"random_seed": 5}, space)
        b = build_strategy({"random_seed": 5}, space)
        assert a.columns == b.columns

    def test_single_column_broadcast(self):
        space = enumerate_state_space(builtin_scenario("paper-scenario-1"))
        matrix = build_strategy({"columns": [[2, 0, 1]]}, space)
        assert matrix.num_columns == space.num_admissible
        assert all(col == (2, 0, 1) for col in matrix.columns)

    def test_single_column_runs_as_the_constant_strategy(self, tmp_path):
        outputs = []
        for spec in ("{columns: [[2, 1, 0]]}", "{prefer_type: 2}"):
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(MINIMAL.replace("{prefer_type: 1}", spec), encoding="utf-8")
            out = tmp_path / str(len(outputs))
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_simulate_outputs(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "pooled_iat.csv").exists()
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["rng"]["generator"] == "numpy PCG64"

    def test_seed_and_rounds_override(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "99", "--rounds", "1"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 99
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header, one round, aggregate

    def test_byte_identical_regeneration(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "seed: 1\nscenario: nope\nsimulate: {}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_validation_error(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path, "scenario: paper-scenario-1\nsweep: {count: 0}\n"
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_simulate_with_a_type_that_never_arrives(self, tmp_path):
        # the per-queue bin widths refused a zero arrival rate once every round had run
        cfg = self._write(tmp_path, ONE_TYPE_ARRIVES + "simulate: {rounds: 3, horizon: 20.0}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for name in ("pooled_iat.csv", "iat_fit.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert rows and {row.split(",")[0] for row in rows} == {"1"}

    def test_fit_iat_without_arrivals_needs_a_bin_width(self, tmp_path, capsys):
        # with no bin_width and no arrivals, fit-iat failed with no line
        (tmp_path / "iat.csv").write_text("iat\n0.1\n0.25\n0.4\n", encoding="utf-8")
        text = ONE_TYPE_ARRIVES.replace("arrival_rate: 1.0", "arrival_rate: 0.0")
        cfg = self._write(tmp_path, text + "fit_iat:\n  samples: iat.csv\n")
        assert main(["fit-iat", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:6: bin width needs at least one positive arrival rate\n")
        cfg = self._write(tmp_path, text + "fit_iat:\n  samples: iat.csv\n  bin_width: 0.1\n")
        assert main(["fit-iat", "--config", cfg, "--out", str(tmp_path / "b")]) == 0

    def test_casestudy_without_config(self, tmp_path, capsys):
        out = tmp_path / "cs"
        assert main(["casestudy", "--out", str(out)]) == 0
        body = capsys.readouterr().out
        assert "heterogeneous-queues" in body
        assert (out / "casestudy.csv").exists()

    def test_analyze_csv(self, tmp_path):
        text = MINIMAL + (
            "analyze:\n  law: mm1-pmf\n  arrival_rate: 1.0\n"
            "  acceptance_rate: 2.0\n  max_length: 5\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "analysis.csv").read_text().splitlines()
        assert lines[0] == "length,probability"
        assert lines[1] == "0,0.5"

    @pytest.mark.parametrize("command, text, line", [
        ("analyze", SCENARIO_1 + "analyze:\n  law: acceptance-probabilities\n"
                                 "  acceptance_rate: 5.0e-324\n", None),
        ("analyze", SCENARIO_1 + "analyze:\n  law: impatient-pmf\n  acceptance_rate: 5.0e-324\n",
         None),
        ("analyze", SCENARIO_1 + "analyze:\n  law: wait-means\n  arrival_rate: 5.0e-324\n", None),
        ("analyze", SCENARIO_1 + "analyze:\n  law: wait-means\n  arrival_rate: 1.0e-300\n", None),
        ("analyze", SCENARIO_1 + "analyze:\n  law: wait-densities\n  arrival_rate: 1.0e-300\n",
         None),
        ("steady-state", SCENARIO_1 + "steady_state:\n  strategy: {prefer_type: 1}\n"
                                      "  queue_empty_probs: [0.5, 0.5]\n"
                                      "  opportunity_rate: 1.0e+12\n", 5),
        ("sweep", "model:\n  resources: [1.0]\n  slice_types:\n"
                  + "    - {cost: [0.0005], arrival_rate: 1.0, release_rate: 1.0}\n" * 2
                  + "sweep: {count: 1, rounds: 1, horizon: 1.0}\n", 1),
        ("simulate", "model:\n  resources: [1.0]\n  slice_types:\n"
                     "    - {cost: [0.0], arrival_rate: 1.0, release_rate: 1.0}\n"
                     "simulate: {rounds: 1, horizon: 1.0}\n", 1),
        ("steady-state", STEADY_TWO_TYPES.format(rate="1.7e+308"), 9),
        ("steady-state", STEADY_TWO_TYPES.format(rate="5.0e-324"), 9),
        ("simulate", "model:\n  resources: [1.0]\n  slice_types:\n"
                     "    - {cost: [0.3], arrival_rate: 1.0, mean_lifetime: 5.0e-324}\n"
                     "simulate: {rounds: 1, horizon: 1.0}\n", 4),
        ("simulate", SCENARIO_1 + "simulate: {rounds: 2, horizon: 10.0, "
                                  "bin_width_divisor: 1.7e+308}\n", 2),
    ], ids=["acceptance-probabilities-subnormal-acceptance", "impatient-pmf-subnormal-acceptance",
            "wait-means-subnormal-arrival", "wait-means-tiny-arrival",
            "wait-densities-tiny-arrival", "steady-state-opportunity-rate",
            "sweep-state-cap", "simulate-zero-cost-type", "steady-state-huge-release-rate",
            "steady-state-subnormal-release-rate", "simulate-subnormal-lifetime",
            "simulate-huge-bin-divisor"])
    def test_extreme_values_end_in_values_or_a_line(self, tmp_path, capsys, command, text,
                                                    line):
        # the analyze laws ended in a ZeroDivisionError traceback; the chain's solve,
        # which cancels at this rate, the state space's enumeration and the IAT bins in an
        # error with neither file nor line; the chain at these release rates, and a
        # lifetime whose rate is inf, in exit 0 (with nan estimates, or an inf rate)
        cfg = self._write(tmp_path, text)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if line is not None:
            assert code == 1
            assert re.fullmatch(rf"error: {re.escape(cfg)}:{line}: [^\n]+\n", err)
            return
        assert (code, err) == (0, "")
        rows = (tmp_path / "o" / "analysis.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def test_bad_from_simulation_rounds_exit_code(self, tmp_path, capsys):
        text = MINIMAL + (
            "steady_state:\n  queue_empty_probs:\n"
            "    from_simulation: {rounds: many}\n"
        )
        cfg = self._write(tmp_path, text)
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:11: expected an integer, got 'many'" in err
        assert "Traceback" not in err

    def test_steady_state_csv(self, tmp_path):
        text = MINIMAL + (
            "steady_state:\n  strategy: {prefer_type: 2}\n"
            "  queue_empty_probs: [0.2, 0.8]\n"
        )
        cfg = self._write(tmp_path, text)
        out = tmp_path / "ss"
        assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "distribution.csv").read_text().splitlines()
        assert lines[0] == "index,state,probability"
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-5", "--seed: must be >= 0, got -5"),
        ("--horizon", "inf", "--horizon: expected a finite number, got inf"),
        ("--horizon", "nan", "--horizon: expected a finite number, got nan"),
        ("--horizon", "0", "--horizon: must be > 0.0, got 0.0"),
        ("--rounds", "0", "--rounds: must be >= 1, got 0"),
        ("--scenario", "nope", "--scenario: unknown scenario 'nope'"),
        ("--scenario", "", "--scenario: unknown scenario ''"),  # was ignored
    ])
    def test_bad_override_rejected(self, tmp_path, capsys, monkeypatch, flag, value, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rejected override reached the simulation")
        monkeypatch.setattr("slicesim.cli.random_sweep", unreachable)
        cfg = self._write(tmp_path, "scenario: paper-scenario-1\nsweep: {count: 1}\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x"),
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_scenario_override(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL)
        out = tmp_path / "s2"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--scenario", "paper-scenario-2"]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["scenario"] == "paper-scenario-2"

    def test_horizon_override_below_warmup_rejected(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rejected override reached the simulation")
        monkeypatch.setattr("slicesim.cli.monte_carlo", unreachable)
        cfg = self._write(tmp_path, MINIMAL.replace("  horizon: 10.0\n",
                                                    "  horizon: 10.0\n  warmup: 5.0\n"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--horizon", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --horizon: must be > warmup 5.0, got 3.0")

    STEADY_FROM_SIM = MINIMAL + (
        "steady_state:\n  queue_empty_probs:\n"
        "    from_simulation: {rounds: 4, horizon: 50.0}\n"
    )

    def test_steady_state_overrides_reach_from_simulation(self, tmp_path, monkeypatch):
        seen = {}
        def record(sim, rounds, space):
            seen.update(rounds=rounds, horizon=sim.horizon)
            raise SliceSimError("stop after recording")
        monkeypatch.setattr("slicesim.cli.logged_rounds", record)
        cfg = self._write(tmp_path, self.STEADY_FROM_SIM)
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--rounds", "2", "--horizon", "7.5"]) == 1
        assert seen == {"rounds": 2, "horizon": 7.5}

    @pytest.mark.parametrize("text, args, message", [
        # both were silently ignored and the run exited 0
        (STEADY_FROM_SIM, ["--rounds", "0", "--horizon", "-3"],
         "--rounds: must be >= 1, got 0"),
        (STEADY_FROM_SIM, ["--horizon", "-3"], "--horizon: must be > 0.0, got -3.0"),
        (MINIMAL + "steady_state:\n  queue_empty_probs: [0.2, 0.8]\n", ["--rounds", "3"],
         "--rounds: steady-state needs queue_empty_probs.from_simulation"),
        (MINIMAL + "steady_state:\n  queue_empty_probs: [0.2, 0.8]\n", ["--horizon", "9"],
         "--horizon: steady-state needs queue_empty_probs.from_simulation"),
    ], ids=["rounds-0", "horizon-negative", "rounds-without-simulation",
            "horizon-without-simulation"])
    def test_bad_steady_state_override_rejected(self, tmp_path, capsys, text, args, message):
        cfg = self._write(tmp_path, text)
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "x")] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command, block", [
        ("analyze", "analyze: {law: mm1-pmf}\n"),
        ("fit-iat", "fit_iat: {samples: iat.csv}\n"),
    ], ids=["analyze", "fit-iat"])
    @pytest.mark.parametrize("args, flag", [
        # both flags together were silently ignored and the run exited 0
        (["--rounds", "0", "--horizon", "-5"], "--rounds"),
        (["--rounds", "3"], "--rounds"),
        (["--horizon", "9"], "--horizon"),
    ], ids=["both", "rounds", "horizon"])
    def test_override_rejected_where_block_has_no_such_key(self, tmp_path, capsys,
                                                          command, block, args, flag):
        cfg = self._write(tmp_path, MINIMAL + block)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: {command} takes no {flag}")

    @pytest.mark.parametrize("flag, value", [
        ("--scenario", "nope"), ("--seed", "4"), ("--rounds", "3"), ("--horizon", "-1"),
    ])
    def test_flag_without_config_rejected(self, tmp_path, capsys, flag, value):
        # each was ignored and the run exited 0
        assert main(["casestudy", "--out", str(tmp_path / "cs"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag}: casestudy without --config takes no {flag}\n"

    def test_empty_config_path_is_an_error(self, tmp_path, capsys):
        # read as "no --config": simulate ended in an AttributeError traceback
        assert main(["simulate", "--config", "", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read configuration ''")

    def test_flag_does_not_leak_through_an_alias(self, tmp_path):
        cfg = self._write(tmp_path, "scenario: paper-scenario-1\n"
                                    "simulate: &mc {rounds: 4, horizon: 5.0}\n"
                                    "sweep: *mc\n"
                                    "optimize: {<<: *mc, budget: 1}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--rounds", "2"]) == 0
        config = json.loads((out / "run_meta.json").read_text())["config"]
        assert config["simulate"] == {"rounds": 2, "horizon": 5.0}
        assert config["sweep"] == {"rounds": 4, "horizon": 5.0}
        assert config["optimize"] == {"rounds": 4, "horizon": 5.0, "budget": 1}

    def test_scenario_flag_reaches_the_line_anchored_model_checks(self, tmp_path, capsys):
        # the model's three types fit (0, 0, 1); the scenario's two do not
        cfg = self._write(tmp_path, "model:\n  resources: [1.0]\n  slice_types:\n"
                          + "    - {cost: [0.1], arrival_rate: 1.0, mean_lifetime: 1.0}\n" * 3
                          + "simulate:\n  rounds: 1\n  initial_state: [0, 0, 1]\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--scenario", "scenario-1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:9: state (0, 0, 1) is not in the feasibility space\n")

    MODEL_FILE = ("model:\n  resources: [1.0, 1.0]\n  slice_types:\n"
                  "    - {cost: [0.2, 0.1], arrival_rate: 1.0, mean_lifetime: 1.0}\n"
                  "    - {cost: [0.1, 0.3], arrival_rate: 0.5, mean_lifetime: 2.0}\n")

    @pytest.mark.parametrize("command, text, scenario", [
        ("simulate", MINIMAL, []),
        ("sweep", "scenario: paper-scenario-1\nsweep: {count: 2, rounds: 3, horizon: 8.0}\n", []),
        ("optimize", MODEL_FILE + "optimize: {budget: 2, rounds: 3, horizon: 8.0}\n",
         ["--scenario", "scenario-2"]),
        ("steady-state", MINIMAL + "steady_state:\n  queue_empty_probs:\n"
                                   "    from_simulation: {rounds: 4, horizon: 50.0}\n", []),
        ("steady-state", MINIMAL + "steady_state:\n  queue_empty_probs:\n"
                                   "    from_simulation:\n", []),
    ], ids=["simulate", "sweep", "optimize", "steady-state", "steady-state-null-block"])
    def test_run_with_flags_regenerates_from_its_run_meta(self, tmp_path, command, text,
                                                         scenario):
        # run_meta.json recorded the file's rounds, horizon and model, not the flags'
        cfg = self._write(tmp_path, text)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--config", cfg, "--out", str(first), "--seed", "3",
                     "--rounds", "2", "--horizon", "6.5"] + scenario) == 0
        meta = json.loads((first / "run_meta.json").read_text())
        if scenario:
            assert meta["scenario"] == meta["config"]["scenario"] == "paper-scenario-2"
            assert "model" not in meta["config"]
        recorded = tmp_path / "recorded.yaml"
        recorded.write_text(yaml.safe_dump(meta["config"]), encoding="utf-8")
        assert main([command, "--config", str(recorded), "--out", str(again)]) == 0
        assert sorted(os.listdir(first)) == sorted(os.listdir(again))
        for name in os.listdir(first):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name



class TestSchema:
    @pytest.mark.parametrize("columns, message", [
        ('[[1, "a", 0]]', "expected an integer, got 'a'"),  # a ValueError traceback
        ("[1, 2, 0]", "expected a preference vector (a list of integers), got 1"),  # TypeError
        ("[[1, 2.5, 0]]", "expected an integer, got 2.5"),  # truncated to (1, 2, 0)
    ], ids=["string", "flat", "float"])
    @pytest.mark.parametrize("block", ["simulate:\n  strategy:\n", "optimize:\n  start:\n"],
                             ids=["strategy", "start"])
    def test_bad_columns_rejected_at_their_line(self, block, columns, message):
        text = f"scenario: paper-scenario-1\n{block}    columns: {columns}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == f"cfg:4: {message}"

    @pytest.mark.parametrize("block, message", [
        ("simulate:\n  initial_state: [1]\n", "cfg:3: state (1,) is not in the feasibility space"),
        ("sweep:\n  initial_state: [99, 0]\n",
         "cfg:3: state (99, 0) is not in the feasibility space"),
        ("optimize:\n  initial_state: [1, 9]\n",
         "cfg:3: state (1, 9) is not in the feasibility space"),
        ("simulate:\n  strategy:\n    columns: [[9, 0, 1]]\n",
         "cfg:4: invalid preference matrix: column 0: entry 9 outside 0..2"),
        ("optimize:\n  start:\n    prefer_type: 5\n", "cfg:4: prefer-type-5 needs a type in 1..2"),
        ("steady_state:\n  queue_empty_probs: [0.5]\n",
         "cfg:3: need 2 queue-empty probabilities, got 1"),
        ("steady_state:\n  queue_empty_probs: [0.2, 0.8]\n  mode: acceptance-only\n"
         "  opportunity_rate: 2.5\n",
         "cfg:5: opportunity_rate has no effect under mode acceptance-only"),
        # checked by the string rule that mode uses, not a rule of its own
        ("steady_state:\n  queue_empty_probs: [0.2, 0.8]\n  initial_distribution: 3\n",
         "cfg:4: expected a string, got 3"),
    ], ids=["initial_state-simulate", "initial_state-sweep", "initial_state-optimize",
            "columns", "prefer_type", "queue_empty_probs", "opportunity_rate",
            "initial_distribution"])
    def test_values_that_do_not_fit_the_model_fail_at_their_line(self, block, message):
        with pytest.raises(ConfigError) as info:
            parse_config("scenario: paper-scenario-1\n" + block, source="cfg")
        assert str(info.value) == message

    @pytest.mark.parametrize("block, flag, anchor", [
        ("simulate:\n  horizon: 3.0e+9\n", False, "cfg:3"),
        ("sweep:\n  count: 1\n  horizon: 3.0e+9\n", False, "cfg:4"),
        ("optimize:\n  horizon: 3.0e+9\n", False, "cfg:3"),
        ("steady_state:\n  queue_empty_probs:\n    from_simulation:\n"
         "      rounds: 1\n      horizon: 3.0e+9\n", False, "cfg:6"),
        ("simulate:\n  horizon: 10.0\n", True, "--horizon"),
        ("steady_state:\n  queue_empty_probs:\n    from_simulation: {}\n", True, "--horizon"),
    ], ids=["simulate", "sweep", "optimize", "from_simulation", "flag", "from_simulation-flag"])
    def test_round_tape_bounded(self, block, flag, anchor):
        # 2.5 arrivals a unit of time on scenario 1: a round of 3e9 asks for a 300 GB tape
        command = block.split(":")[0].replace("_", "-")

        def parse(horizon):
            text = "scenario: paper-scenario-1\n" + block.replace("3.0e+9", horizon)
            return parse_config(text, "cfg", command, horizon=float(horizon) if flag else None)

        with pytest.raises(ConfigError) as info:
            parse("3.0e+9")
        assert str(info.value) == (f"{anchor}: a round expects 7.5e+09 arrivals (the arrival "
                                   "rates' sum times the horizon), more than the cap of 10000000")
        assert parse("4.0e+6").blocks  # 2.5 x 4e6 arrivals is the cap itself

    def test_round_tape_bound_sums_the_arrival_rates(self):
        model = ("model:\n  resources: [1.0]\n  slice_types:\n"
                 "    - {cost: [0.3], arrival_rate: 3.0e+6, release_rate: 1.0}\n"
                 "    - {cost: [0.2], arrival_rate: %s, release_rate: 1.0}\n")
        sweep = "sweep:\n  count: 1\n  horizon: 2.0\n"
        assert parse_config(model % "2.0e+6" + sweep, "cfg").block("sweep")["horizon"] == 2.0
        with pytest.raises(ConfigError, match=r"^cfg:8: a round expects 1\.1e\+07 arrivals"):
            parse_config(model % "2.5e+6" + sweep, "cfg")
        # a default horizon has no line of its own, so the error takes the block's
        with pytest.raises(ConfigError, match=r"^cfg:6: a round expects 2\.2e\+08 arrivals"):
            parse_config(model % "2.5e+6" + "sweep: {count: 1}\n", "cfg")

    @pytest.mark.parametrize("text, line, key", [
        ("seed: 1\nscenario: paper-scenario-1\nsimulate: {rounds: 1}\n"
         "simulate: {rounds: 2}\n", 4, "simulate"),
        ("scenario: paper-scenario-1\nsweep:\n  rounds: 1\n  count: 2\n  rounds: 3\n",
         5, "rounds"),
    ], ids=["block", "key"])
    def test_repeated_key_rejected_at_second_occurrence(self, text, line, key):
        # a repeated block used to run the last one silently
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == f"cfg:{line}: repeated key {key!r}"

    @pytest.mark.parametrize("text", [
        "seed: \x01\n", "seed: [1\n", "a: *missing\n", "a: &x 1\nb: &x 2\n",
        "seed: " + "[" * 3000 + "]" * 3000 + "\n", "seed: '\ud800'",
    ], ids=["unprintable", "unclosed", "undefined-alias", "duplicate-anchor",
            "deep-nesting", "lone-surrogate"])
    def test_malformed_yaml_is_a_config_error(self, monkeypatch, text):
        # the reader, parser and composer each raise their own YAML error; deep
        # nesting ended in a RecursionError, and libyaml cannot encode a lone surrogate
        for base in BASES:
            _parse_with(monkeypatch, base)
            with pytest.raises(ConfigError, match="^cfg: not valid YAML: "):
                parse_config(text, source="cfg")

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ("{a: ", "}")],
                             ids=["flow-sequence", "flow-mapping"])
    def test_recursion_in_the_loader_is_a_config_error(self, monkeypatch, opening, closing):
        # with the depth bound lifted, the pure-Python composer or the key-line walk
        # recurses past Python's limit
        monkeypatch.setattr(config, "_MAX_DEPTH", 10**4)
        text = "seed: " + opening * 3000 + "1" + closing * 3000 + "\n"
        for base in BASES:
            _parse_with(monkeypatch, base)
            with pytest.raises(ConfigError,
                               match="^cfg: not valid YAML: collections nest too deeply$"):
                parse_config(text, source="cfg")

    def test_nesting_past_the_c_stack_is_a_config_error(self, tmp_path):
        # libyaml's composer recursed in C until the process died of a segfault;
        # a subprocess keeps such a crash from taking the test run with it
        path = tmp_path / "deep.yaml"
        path.write_text("seed:\n" + "- " * 10**5 + "1\n", encoding="utf-8")
        src = pathlib.Path(config.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "slicesim.cli", "simulate", "--config", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 1
        assert result.stderr == (f"error: {path}: not valid YAML: "
                                 f"collections nest deeper than {config._MAX_DEPTH} levels\n")

    def test_recursive_alias_is_a_config_error(self):
        # the key-line walk used to recurse until RecursionError
        text = "scenario: paper-scenario-1\nsimulate:\n  initial_state: &x [*x]\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == "cfg:3: expected an integer, got [[...]]"

    def test_nested_aliases_walked_once(self, monkeypatch):
        # the walk used to expand every alias: 10**levels visits
        from slicesim.config import _Checker

        calls = []
        record = _Checker.record

        def counted(self, *args):
            calls.append(1)
            return record(self, *args)

        monkeypatch.setattr(_Checker, "record", counted)
        text = "a0: &a0 [1, 2]\n" + "".join(
            f"a{i}: &a{i} [{', '.join([f'*a{i - 1}'] * 10)}]\n" for i in range(1, 5))
        with pytest.raises(ConfigError, match="^cfg:1: unknown key 'a0'$"):
            parse_config(text, source="cfg")
        assert len(calls) < 100

    def test_nested_alias_value_is_cut_in_messages(self):
        # 5 levels of 10 aliases: the whole repr has 822,220 characters
        def nested(level):
            if level == 0:
                return "&a0 [1, 2]"
            return f"&a{level} [{nested(level - 1)}{f', *a{level - 1}' * 9}]"

        cases = {
            f"[{nested(5)}]": "[[[[[[1, 2], [1, 2]",
            # !!pairs loads as a list of tuples
            f"!!pairs [{{a: {nested(5)}}}]": "('a', [[[[[[1, 2], [1, 2]",
        }
        for value, shown in cases.items():
            text = f"scenario: paper-scenario-1\nsimulate:\n  initial_state: {value}\n"
            with pytest.raises(ConfigError) as info:
                parse_config(text, source="cfg")
            message = str(info.value)
            assert len(message) < 300
            assert message.startswith(f"cfg:3: expected an integer, got {shown}")
            assert message.endswith("...")

    def test_short_values_shown_as_repr(self):
        from slicesim.config import _shown

        inner = [1]
        inner.append(inner)
        outer = {"a": [1.5, {"b": None}], 2: True}
        outer["self"] = outer
        for value in ([], {}, inner, outer, [inner, inner], "text", 3,
                      (), (1,), ("a", [inner]), [("k", outer)]):
            assert _shown(value) == repr(value)
        assert _shown(list(range(1000))) == repr(list(range(1000)))[:200] + "..."

    def test_merge_override_is_no_repeat(self):
        text = ("scenario: paper-scenario-1\n"
                "sweep: &common {rounds: 2, horizon: 5.0}\n"
                "optimize:\n  <<: *common\n  rounds: 3\n  budget: -1\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == "cfg:6: must be >= 0, got -1"
        config = parse_config(text.replace("budget: -1", "budget: 4"))
        assert config.block("optimize")["rounds"] == 3
        assert config.block("optimize")["horizon"] == 5.0
        assert config.block("sweep")["rounds"] == 2

    def test_empty_pool_error_anchored_at_model(self):
        text = ("seed: 1\nmodel:\n  resources: [1.0]\n  slice_types:\n"
                "    - {cost: [2.0], arrival_rate: 1.0, mean_lifetime: 1.0}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="cfg")
        assert str(info.value) == (
            "cfg:2: type 1 does not fit an empty pool (cost bundle exceeds pool)")

    def test_each_document_composed_once(self, monkeypatch):
        for base in BASES:
            _parse_with(monkeypatch, base)
            calls = []
            compose = config._Loader.get_single_node

            def counted(self):
                calls.append(1)
                return compose(self)

            monkeypatch.setattr(config._Loader, "get_single_node", counted)
            parse_config(MINIMAL)
            assert len(calls) == 1

    FLAGS = [("horizon", "-2.5", "-2.5"), ("horizon", "0.0", "0.0"),
             ("horizon", ".inf", "inf"), ("horizon", ".nan", "nan"),
             ("rounds", "0", "0"), ("rounds", "-1", "-1")]

    @pytest.mark.parametrize("command, inner", [
        ("simulate", "simulate:\n  {}\n"),
        ("sweep", "sweep:\n  {}\n"),
        ("optimize", "optimize:\n  {}\n"),
        ("steady-state", "steady_state:\n  queue_empty_probs:\n    from_simulation:\n      {}\n"),
    ], ids=["simulate", "sweep", "optimize", "from_simulation"])
    @pytest.mark.parametrize("key, in_yaml, on_flag", FLAGS,
                             ids=[f"{k}={f}" for k, _, f in FLAGS])
    def test_yaml_and_flag_share_each_rule(self, command, inner, key, in_yaml, on_flag):
        from slicesim.cli import build_parser

        head = "scenario: paper-scenario-1\n"
        with pytest.raises(ConfigError) as from_yaml:
            parse_config(head + inner.format(f"{key}: {in_yaml}"), source="cfg")
        args = build_parser().parse_args([command, "--config", "cfg", f"--{key}", on_flag])
        with pytest.raises(ConfigError) as from_flag:
            parse_config(head + inner.format("{}"), "cfg", command,
                         rounds=args.rounds, horizon=args.horizon)
        yaml_anchor, yaml_message = str(from_yaml.value).split(": ", 1)
        flag_anchor, flag_message = str(from_flag.value).split(": ", 1)
        assert yaml_anchor.startswith("cfg:") and flag_anchor == f"--{key}"
        assert yaml_message == flag_message

    @pytest.mark.parametrize("command", [None, "no-such-command"], ids=["none", "unknown"])
    @pytest.mark.parametrize("key", ["rounds", "horizon"])
    def test_block_flag_without_a_known_command_names_the_flag(self, tmp_path, command, key):
        # no command raised an AttributeError, an unknown one a KeyError
        path = tmp_path / "cfg.yaml"
        path.write_text(MINIMAL)
        for parse in (lambda: parse_config(MINIMAL, "cfg", command, **{key: 3}),
                      lambda: load_config(str(path), command, **{key: 3})):
            with pytest.raises(ConfigError, match=f"^--{key}: .* takes no --{key}$"):
                parse()


def _readme_grammar() -> dict[str, str]:
    """README's configuration grammar, split into its top-level sections."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = re.search(r"```yaml\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)
    sections = {}
    for line in text.splitlines():
        top = re.match(r"#? ?([a-z_]+):", line)  # a commented-out key counts
        if top:
            name = top.group(1)
        sections[name] = sections.get(name, "") + line + "\n"
    return sections


def test_readme_grammar_parses_and_names_every_key():
    from slicesim import config

    sections = _readme_grammar()
    parsed = parse_config("".join(sections.values()), source="README.md")
    assert set(parsed.blocks) == set(config._BLOCKS)
    where = [("", config._TOP), ("simulate", config._STRATEGY_KINDS),
             ("steady_state", config._FROM_SIMULATION), ("model", config._MODEL_KEYS),
             ("model", config._SLICE_TYPE), ("model", {"cost"}),
             *config._BLOCKS.items()]
    missing = [f"{section}.{key}" for section, schema in where for key in schema
               if not re.search(rf"\b{key}:", sections.get(section, "")
                                if section else "".join(sections.values()))]
    assert missing == []


class TestFileErrors:
    def _run(self, tmp_path, capsys, args, files):
        for name, body in files.items():
            (tmp_path / name).write_text(body, encoding="utf-8")
        code = main([args[0], "--config", str(tmp_path / "cfg.yaml")] + args[1:])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_unreadable_strategy_file(self, tmp_path, capsys):
        cfg = MINIMAL.replace("{prefer_type: 1}", "{file: missing.txt}")
        err = self._run(tmp_path, capsys, ["simulate", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": cfg})
        assert "cannot read strategy file" in err and "missing.txt" in err

    @pytest.mark.parametrize("table, message", [
        ("0 1 2 0\n1 1 2\n", ":2: expected index plus 3 entries"),
        ("0 1 2 0\n", ": invalid strategy table: expected 90 columns, got 1"),
    ], ids=["short-row", "invalid-table"])
    def test_bad_strategy_file_names_itself(self, tmp_path, capsys, table, message):
        # the messages named neither the file nor, for a short row, its line
        cfg = MINIMAL.replace("{prefer_type: 1}", "{file: bad.txt}")
        err = self._run(tmp_path, capsys, ["simulate", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": cfg, "bad.txt": table})
        assert err == f"error: {tmp_path / 'bad.txt'}{message}\n"

    @pytest.mark.parametrize("command, block", [
        ("simulate", "simulate:\n  rounds: 1\n  strategy:\n"),
        ("steady-state", "steady_state:\n  queue_empty_probs: [0.5, 0.5]\n  strategy:\n"),
        ("optimize", "optimize:\n  budget: 1\n  start:\n"),
    ], ids=["simulate", "steady-state", "optimize"])
    def test_column_count_fails_at_its_line(self, tmp_path, capsys, command, block):
        # a columns table's count was not checked: the run failed with neither file nor line
        text = "scenario: paper-scenario-2\n" + block + "    columns: [[1, 2, 0], [2, 1, 0]]\n"
        err = self._run(tmp_path, capsys, [command, "--out", str(tmp_path / "o")],
                        {"cfg.yaml": text})
        assert err == (f"error: {tmp_path / 'cfg.yaml'}:{text.count(chr(10))}: "
                       f"invalid strategy table: expected 90 columns, got 2\n")

    def test_unreadable_samples(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, ["fit-iat", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": MINIMAL + "fit_iat: {samples: missing.csv}\n"})
        assert "cannot read samples" in err and "missing.csv" in err

    @pytest.mark.parametrize("samples, width, message", [
        ("iat\n0.5\nabc\n", "", " row 3: expected a finite non-negative number in column 1, "
                                "got ['abc']"),
        ("iat\n0.5\nnan\n", "", " row 3: expected a finite non-negative number in column 1, "
                                "got ['nan']"),
        ("iat\n0.5\ninf\n", "", " row 3: expected a finite non-negative number in column 1, "
                                "got ['inf']"),
        ("x,iat\n0,0.5\n0.1\n", "", " row 3: expected a finite non-negative number in "
                                    "column 2, got ['0.1']"),
        ("iat\n0.5\n-1\n", "", " row 3: expected a finite non-negative number in column 1, "
                               "got ['-1']"),
        ("iat\n0.5\n1e308\n", ", bin_width: 1e-300",
         ": sample 1e+308 has no finite bin of width 1e-300"),
        ("iat\n", "", ": cannot build an empirical PMF from no samples"),
    ], ids=["text", "nan", "inf", "short-row", "negative", "no-finite-bin", "no-samples"])
    def test_non_numeric_sample(self, tmp_path, capsys, samples, width, message):
        # each ended in a traceback: text and short rows when read, nan and inf in the fit;
        # a negative sample, a bin index past any float and a header alone named no file
        err = self._run(tmp_path, capsys, ["fit-iat", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": MINIMAL + f"fit_iat: {{samples: iat.csv{width}}}\n",
                         "iat.csv": samples})
        assert err == f"error: {str(tmp_path / 'iat.csv')!r}{message}\n"

    def test_sample_past_every_bin_index(self, tmp_path, capsys):
        # 1e308 over the default width of 0.05 overflowed the bin index
        err = self._run(tmp_path, capsys, ["fit-iat", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": MINIMAL + "fit_iat: {samples: iat.csv}\n",
                         "iat.csv": "iat\n0.5\n1e308\n"})
        assert "sample 1e+308 has no finite bin of width 0.05" in err

    def test_deeply_nested_config(self, tmp_path, capsys):
        # 3000 levels of '[' ended in a RecursionError traceback
        err = self._run(tmp_path, capsys, ["simulate", "--out", str(tmp_path / "o")],
                        {"cfg.yaml": "seed: " + "[" * 3000 + "]" * 3000 + "\n"})
        assert "cfg.yaml: not valid YAML: collections nest deeper than 1000 levels" in err

    def test_out_names_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        err = self._run(tmp_path, capsys, ["simulate", "--out", str(tmp_path / "taken")],
                        {"cfg.yaml": MINIMAL})
        assert "cannot create output directory" in err


# valid texts at the edges of what the two parsers must read alike
_EDGE_TEXTS = {
    "merge-override": ("scenario: paper-scenario-1\n"
                       "sweep: &common {rounds: 2, horizon: 5.0}\n"
                       "optimize:\n  <<: *common\n  rounds: 3\n  budget: 4\n"),
    "merge-bad-value": ("scenario: paper-scenario-1\n"
                        "sweep: &common {rounds: 2, horizon: 5.0}\n"
                        "optimize:\n  <<: *common\n  rounds: 3\n  budget: -1\n"),
    "aliases": ("scenario: paper-scenario-2\n"
                "simulate:\n  rounds: 2\n  initial_state: &state [1, 0]\n"
                "  strategy: &strategy {random_seed: 3}\n"
                "sweep: {initial_state: *state}\n"
                "optimize:\n  initial_state: *state\n  start: *strategy\n"),
    "exponents": ("model:\n  resources: [1E5]\n  slice_types:\n"
                  "    - {cost: [1.0e3], arrival_rate: 1.0, release_rate: 1.0,\n"
                  "       reneging_rate: 1.0e-3}\n"
                  "simulate:\n  rounds: 1\n  horizon: 1e3\n"),
    "quoted-exponent": "scenario: paper-scenario-1\nsimulate:\n  rounds: 1\n  horizon: '1e3'\n",
    "repeated-key": "scenario: paper-scenario-1\nsweep:\n  rounds: 1\n  count: 2\n  rounds: 3\n",
}


_PARITY_TEXTS = {
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(
        (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.yaml"))},
    "readme-grammar": "".join(_readme_grammar().values()),
    **_EDGE_TEXTS,
}


def _read(text: str) -> tuple:
    """What one parser makes of ``text``: its data and key lines, then the config or
    the message; only the message if loading fails."""
    try:
        data, check = config._load(text, "cfg")
    except ConfigError as exc:
        return (str(exc),)
    try:
        parsed = parse_config(text, source="cfg")
    except ConfigError as exc:
        parsed = str(exc)
    return data, check.anchors, parsed


class TestParsers:
    def test_libyaml_parses_where_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(config._Loader, base)

    @needs_libyaml
    @pytest.mark.parametrize("name", _PARITY_TEXTS)
    def test_both_parsers_read_alike(self, monkeypatch, name):
        read = []
        for base in ("SafeLoader", "CSafeLoader"):
            _parse_with(monkeypatch, base)
            read.append(_read(_PARITY_TEXTS[name]))
        assert read[0] == read[1]
        if name in ("merge-bad-value", "quoted-exponent", "repeated-key"):
            assert re.match(r"cfg:\d+: ", read[0][-1])  # a schema message, at its line
        else:
            assert isinstance(read[0][-1], config.ExperimentConfig)

    @needs_libyaml
    def test_only_libyaml_takes_a_tab_after_a_colon(self, monkeypatch):
        text = "seed:\t3\nscenario: paper-scenario-1\n"
        _parse_with(monkeypatch, "CSafeLoader")
        assert parse_config(text, source="cfg").seed == 3
        _parse_with(monkeypatch, "SafeLoader")
        with pytest.raises(ConfigError, match="^cfg: not valid YAML: while scanning"):
            parse_config(text, source="cfg")
