"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import math
import statistics

import numpy as np
import pytest
from scipy.integrate import quad

from slicesim.analytics import (
    QueueParams,
    acceptance_probabilities,
    impatient_queue_pmf_table,
    mm1_queue_pmf,
    wait_distributions,
    wait_means,
)
from slicesim.casestudy import case_study_rows, render_case_study
from slicesim.config import builtin_scenario
from slicesim.engine import SimConfig, monte_carlo
from slicesim.experiments import geometric_fit_table, iat_bin_widths
from slicesim.markov import (
    build_transition_matrix,
    initial_distribution,
    long_term_distribution,
)
from slicesim.optimize import (
    evaluate_strategy,
    greedy_single_queue_baseline,
    random_sweep,
)
from slicesim.slice_model import ResourceModel, SliceType, enumerate_state_space
from slicesim.strategy import naive_strategy, random_strategy

from criteria import (
    accepted_by_panel,
    balanced_benchmark_strategy,
    collect_iat_samples,
    divergences_by_queue,
    markov_consistency,
    matched_divergences,
)
from oracles import (
    BESSEL_I_REFERENCE,
    GAMMA_REFERENCE,
    bessel_i,
    micro_queue,
    run_round,
    run_scalar,
)


def test_criterion_01_little_law_harness():
    """Single type, self-queueing pool, lambda=0.8 over 5000 time units."""
    model = ResourceModel(pool=(1.0,), costs=((1.0,),),
                          types=(SliceType(0.8, 1.0, 1.0),))
    space = enumerate_state_space(model)
    config = SimConfig(model=model, strategy=naive_strategy(space, "prefer-type-1"),
                       horizon=5000.0, warmup=200.0, seed=20240811)
    result = monte_carlo(config, rounds=20, space=space)
    diffs = []
    for report in result.reports:
        join_rate = report.joined[0] / (config.horizon - config.warmup)
        diffs.append(report.queue_length_means[0] - join_rate * report.wait_means[0])
    mean = statistics.mean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(len(diffs))
    assert abs(mean) <= 3 * se, f"|{mean:.5f}| > 3 * {se:.5f}"
    print(f"\nPASS criterion 1: Little's law |L - lambda*W| = {abs(mean):.5f} "
          f"<= 3 SE = {3 * se:.5f}")


def test_criterion_02_mm1_equivalence():
    """Isolated single-server queue at rho = 0.5, patient tenants."""
    lam, mu = 1.0, 2.0
    sim = micro_queue(lam, mu, horizon=103000.0, seed=77)
    assert sim.served >= 10**5, f"only {sim.served} served requests"
    rho = lam / mu
    top = len(sim.pmf)
    tv = 0.5 * sum(abs(sim.pmf[l] - mm1_queue_pmf(rho, l)) for l in range(top))
    tv += 0.5 * rho ** top  # closed-form tail mass beyond the recorded states
    assert tv < 0.02, f"total variation {tv:.4f} >= 0.02"
    print(f"PASS criterion 2: M/M/1 queue-length law, TV = {tv:.4f} < 0.02 "
          f"over {sim.served} served requests")


@pytest.fixture(scope="module")
def scenario_models():
    return {1: builtin_scenario("paper-scenario-1"),
            2: builtin_scenario("paper-scenario-2")}


MASTER_SEED = 1234
FIT_PROTOCOL = dict(n_strategies=50, rounds=20, horizon=40.0)


def test_criterion_03_geometric_iat_fit(scenario_models):
    """Scenario 1, patient: geometric IAT fits over 50 random strategies."""
    model = scenario_models[1]
    space = enumerate_state_space(model)
    samples = collect_iat_samples(model, space, impatient=False,
                                  master_seed=MASTER_SEED, **FIT_PROTOCOL)
    rows = geometric_fit_table(samples, iat_bin_widths(model))
    per_queue = divergences_by_queue(rows, model.num_types)
    for q, divergences in enumerate(per_queue, start=1):
        assert len(divergences) == FIT_PROTOCOL["n_strategies"]
        median = statistics.median(divergences)
        below = sum(1 for d in divergences if d < 0.3) / len(divergences)
        assert median < 0.1, f"queue {q} median KLD {median:.4f} >= 0.1"
        assert below >= 0.9, f"queue {q}: only {below:.0%} of strategies below 0.3"
        print(f"{'' if q > 1 else chr(10)}PASS criterion 3 (queue {q}): "
              f"median KLD {median:.4f} < 0.1; {below:.0%} of strategies < 0.3")


def test_criterion_04_impatience_breaks_markovianity(scenario_models):
    """Balking+reneging raise the divergence, most visibly under dense demand.

    Cells are compared at matched per-pair sample counts so the divergence
    estimator's finite-sample bias is common to all cells.
    """
    spaces = {k: enumerate_state_space(m) for k, m in scenario_models.items()}
    cells = {
        "s1-impatient": collect_iat_samples(scenario_models[1], spaces[1],
                                            impatient=True,
                                            master_seed=MASTER_SEED, **FIT_PROTOCOL),
        "s2-impatient": collect_iat_samples(scenario_models[2], spaces[2],
                                            impatient=True,
                                            master_seed=MASTER_SEED, **FIT_PROTOCOL),
        "s2-patient": collect_iat_samples(scenario_models[2], spaces[2],
                                          impatient=False,
                                          master_seed=MASTER_SEED, **FIT_PROTOCOL),
    }
    widths = {
        "s1-impatient": iat_bin_widths(scenario_models[1]),
        "s2-impatient": iat_bin_widths(scenario_models[2]),
        "s2-patient": iat_bin_widths(scenario_models[2]),
    }
    table = matched_divergences(cells, widths)
    medians = {name: statistics.median(values) for name, values in table.items()}
    assert medians["s2-impatient"] > medians["s2-patient"], medians
    assert medians["s2-impatient"] > medians["s1-impatient"], medians
    print(f"\nPASS criterion 4: median KLD s2-impatient {medians['s2-impatient']:.4f} "
          f"> s2-patient {medians['s2-patient']:.4f} and "
          f"> s1-impatient {medians['s1-impatient']:.4f} (paired seeds)")


IMPATIENT_GRID = [(lam, mu) for lam in (0.6, 1.2, 2.0) for mu in (0.8, 1.5, 2.5)]
GRID_ALPHA, GRID_BETA = 1.0, 0.5


def test_criterion_05_impatient_closed_forms():
    """Closed forms vs the micro-simulation oracle on a 3x3 rate grid."""
    worst_tv = worst_prob = worst_mean = 0.0
    for lam, mu in IMPATIENT_GRID:
        params = QueueParams(lam, mu, GRID_ALPHA, GRID_BETA)
        horizon = 150000.0 / lam
        sim = micro_queue(lam, mu, horizon=horizon, seed=900 + int(10 * lam + mu),
                          alpha=GRID_ALPHA, beta=GRID_BETA)
        table = impatient_queue_pmf_table(params)
        top = min(len(table), len(sim.pmf))
        tv = 0.5 * sum(abs(table[l] - sim.pmf[l]) for l in range(top))
        assert tv < 0.02, f"PMF TV {tv:.4f} at (lam={lam}, mu={mu})"
        worst_tv = max(worst_tv, tv)

        probs = acceptance_probabilities(params)
        for got, want in ((sim.p_accept, probs.accept),
                          (sim.p_accept_given_join, probs.accept_given_join)):
            rel = abs(got - want) / want
            assert rel < 0.03, f"probability off {rel:.4f} at (lam={lam}, mu={mu})"
            worst_prob = max(worst_prob, rel)

        identity = wait_means(params).joined
        rel = abs(sim.mean_wait_joiners - identity) / identity
        assert rel < 0.03, f"mean wait off {rel:.4f} at (lam={lam}, mu={mu})"
        worst_mean = max(worst_mean, rel)

    # quadrature of the joined-wait density agrees with the closed identity
    for lam, mu in ((0.6, 1.5), (1.2, 1.5), (2.0, 0.8)):
        params = QueueParams(lam, mu, GRID_ALPHA, GRID_BETA)
        joined = wait_distributions(params).joined
        quad_mean, _ = quad(lambda w: w * joined(w), 0.0, np.inf,
                            epsabs=1e-12, epsrel=1e-9, limit=200)
        assert abs(quad_mean - wait_means(params).joined) < 1e-6
    print(f"\nPASS criterion 5: impatient closed forms vs micro-simulation, "
          f"worst TV {worst_tv:.4f}, worst probability error {worst_prob:.4f}, "
          f"worst mean-wait error {worst_mean:.4f}; quadrature identity < 1e-6")


def test_criterion_06_sweep_vs_greedy(scenario_models):
    """Scenario 2: 500 random strategies plus naive benchmarks vs greedy."""
    model = scenario_models[2]
    space = enumerate_state_space(model)
    config = SimConfig(model=model, strategy=None, horizon=40.0, seed=31,
                       initial_state="full", balking=True, reneging=True)
    entries = random_sweep(model, 500, 7, config, 20, space)
    sweep_rates = [e.score.admission_mean for e in entries]
    spread = max(sweep_rates) - min(sweep_rates)
    assert spread > 0.05, f"admission spread {spread:.4f} <= 0.05"

    candidates = list(sweep_rates)
    for kind in ("prefer-type-1", "prefer-type-2"):
        score = evaluate_strategy(model, naive_strategy(space, kind), config, 20,
                                  space, label=kind)
        candidates.append(score.admission_mean)
    greedy = greedy_single_queue_baseline(model, config, 20, space)
    best = max(candidates)
    assert best >= greedy.admission_mean, (
        f"best multi-queue admission {best:.4f} < greedy {greedy.admission_mean:.4f}"
    )
    print(f"\nPASS criterion 6: best multi-queue admission {best:.4f} >= greedy "
          f"{greedy.admission_mean:.4f} under common random numbers; "
          f"sweep spread {spread:.4f} > 0.05")


def test_criterion_07_markov_estimator_consistency(scenario_models):
    """Scenario 1, three fixed strategies: chain estimates within 15 percent."""
    model = scenario_models[1]
    space = enumerate_state_space(model)
    strategies = {
        "serve-type-1-first": naive_strategy(space, "prefer-type-1"),
        "serve-type-2-first": naive_strategy(space, "prefer-type-2"),
        "balanced": balanced_benchmark_strategy(space),
    }
    rows = markov_consistency(model, space, strategies, rounds=20, horizon=200.0,
                              master_seed=11, impatient=True)
    worst = max(rows, key=lambda r: r.relative_error)
    for row in rows:
        assert row.relative_error < 0.15, (
            f"{row.label} queue {row.queue}: estimate {row.estimated:.4f} vs "
            f"measured {row.measured:.4f} ({row.relative_error:.1%})"
        )
    print(f"\nPASS criterion 7: chain acceptance-rate estimates within 15% "
          f"(worst {worst.relative_error:.1%} on {worst.label} queue {worst.queue})")


def test_criterion_08_case_study_determinism():
    """The queuing-scheme comparison replays identically and shows the contrast."""
    rows1 = case_study_rows()
    rows2 = case_study_rows()
    assert rows1 == rows2
    assert render_case_study(rows1) == render_case_study(rows2)
    accepted = accepted_by_panel(rows1)
    assert accepted["heterogeneous-queues"] == [3, 4], accepted
    assert accepted["single-queue"] == [], accepted
    print("\nPASS criterion 8: case study replays byte-identically; per-type "
          "queues accept both type-2 requests, the single queue blocks them")


def test_criterion_09_special_functions():
    """Bessel and gamma against frozen 60-digit reference values."""
    worst = 0.0
    for order, x, expected in BESSEL_I_REFERENCE:
        got = bessel_i(order, x)
        if expected == 0.0:
            assert got == 0.0
            continue
        rel = abs(got - expected) / abs(expected)
        assert rel < 1e-10, f"bessel_i({order}, {x}) off by {rel:.2e}"
        worst = max(worst, rel)
    for x, expected in GAMMA_REFERENCE:
        rel = abs(math.gamma(x) - expected) / abs(expected)
        assert rel < 1e-10, f"math.gamma({x}) off by {rel:.2e}"
        worst = max(worst, rel)
    points = len(BESSEL_I_REFERENCE) + len(GAMMA_REFERENCE)
    print(f"\nPASS criterion 9: special functions within 1e-10 at {points} "
          f"grid points (worst {worst:.2e})")


def _random_invariant_model(rng):
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    pool = tuple(round(rng.uniform(0.5, 1.5), 2) for _ in range(m))
    costs = tuple(
        tuple(round(rng.uniform(0.1, 0.9) * pool[i], 3) for i in range(m))
        for _ in range(n)
    )
    types = tuple(
        SliceType(
            arrival_rate=round(rng.uniform(0.3, 3.0), 2),
            release_rate=round(rng.uniform(0.3, 1.5), 2),
            utility_rate=round(rng.uniform(0.0, 5.0), 2),
            reneging_rate=round(rng.uniform(0.2, 2.0), 2),
            balking_willingness=round(rng.uniform(0.02, 0.9), 2),
        )
        for _ in range(n)
    )
    return ResourceModel(pool=pool, costs=costs, types=types)


def test_criterion_10_invariant_suite():
    """State safety, quiescence, FCFS, conservation, stochastic rows, normalization."""
    import random as pyrandom

    rng = pyrandom.Random(424242)
    checked_models = 0
    for trial in range(12):
        model = _random_invariant_model(rng)
        space = enumerate_state_space(model)
        strategy = random_strategy(space, rng.randrange(10**6))
        config = SimConfig(model=model, strategy=strategy, horizon=30.0,
                           seed=rng.randrange(10**6), initial_state="full",
                           balking=True, reneging=True)
        trace, report = run_round(config, space)
        # quiescence: the oracle asserts it after every event, and run must equal it
        expected_trace, expected_report = run_scalar(config, space)
        assert report == expected_report
        assert [(t, kind, ty, rid, space.state_at(index), lengths)
                for t, kind, ty, rid, index, lengths in trace.events] == expected_trace.events

        for _, _, _, _, index, _ in trace.events:
            assert 0 <= index < len(space)  # state safety on every event

        for n in range(model.num_types):  # conservation
            assert trace.total_arrivals[n] == (
                trace.total_balked[n] + trace.total_reneged[n]
                + trace.total_accepted[n] + trace.final_queue_lengths[n]
            )

        for n in range(1, model.num_types + 1):  # FCFS within each queue
            joined = [rid for _, kind, ty, rid, _, _ in trace.events
                      if kind == "join" and ty == n]
            accepted = [joined.index(rid) for _, kind, ty, rid, _, _ in trace.events
                        if kind == "accept" and ty == n]
            assert accepted == sorted(accepted)

        probs = tuple(rng.random() for _ in range(model.num_types))
        psi = build_transition_matrix(strategy, space, probs,
                                      model.release_rates)  # row-stochastic
        assert np.allclose(psi.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(psi.matrix.toarray() >= 0.0)

        dist = long_term_distribution(psi.matrix, initial_distribution(space, "full"))
        assert abs(dist.probabilities.sum() - 1.0) < 1e-9
        assert np.all(dist.probabilities >= -1e-12)

        params = QueueParams(
            arrival_rate=model.types[0].arrival_rate,
            acceptance_rate=rng.uniform(0.3, 2.0),
            reneging_rate=model.types[0].reneging_rate,
            balking_willingness=model.types[0].balking_willingness,
        )
        table = impatient_queue_pmf_table(params)
        assert abs(sum(table) - 1.0) < 1e-9
        assert all(p >= 0.0 for p in table)
        checked_models += 1
    print(f"\nPASS criterion 10: invariant suite over {checked_models} "
          f"randomized models (N<=3, M<=3, seeded)")
