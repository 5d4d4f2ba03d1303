import math
import os
import pathlib
import subprocess
import sys

import mpmath
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
import slicesim
from slicesim import analytics
from slicesim.errors import ContractViolation, NoEquilibrium, NumericError

from oracles import (
    BESSEL_I_REFERENCE,
    GAMMA_REFERENCE,
    balk_join_probability,
    bessel_i,
    birth_death_pmf,
    impatient_queue_pmf,
    micro_queue,
)


class TestMm1Pmf:
    def test_half_load(self):
        assert mm1_queue_pmf(0.5, 0) == 0.5
        assert mm1_queue_pmf(0.5, 2) == 0.125

    def test_normalization_by_tail_formula(self):
        total = sum(mm1_queue_pmf(0.7, l) for l in range(200))
        assert abs(total + 0.7 ** 200 - 1.0) < 1e-12

    def test_no_equilibrium(self):
        with pytest.raises(NoEquilibrium):
            mm1_queue_pmf(1.0, 0)


class TestBalking:
    def test_empty_queue(self):
        assert balk_join_probability(0.02, 0) == 1.0

    def test_reference_willingness(self):
        assert balk_join_probability(0.02, 2) == pytest.approx(0.01)

    def test_cap(self):
        assert balk_join_probability(1.0, 1) == 1.0


class TestSpecialFunctions:
    def test_bessel_reference_grid(self):
        for order, x, expected in BESSEL_I_REFERENCE:
            got = bessel_i(order, x)
            if expected == 0.0:
                assert got == 0.0
            else:
                assert abs(got - expected) < 1e-10 * abs(expected)

    def test_bessel_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(2.5, 0.0) == 0.0

    def test_bessel_underflowing_leading_term_is_zero(self):
        # (x/2)^order / Gamma(order + 1) is below the smallest double here
        assert bessel_i(80.0, 1e-3) == 0.0
        assert bessel_i(150.0, 1e-3) == 0.0
        assert bessel_i(150.0, 0.1) == 0.0

    @pytest.mark.parametrize("order, x, message", [
        (0.0, 720.0, r"series overflows a double for b=1\.0, z=129600\.0"),  # the series
    ])
    def test_bessel_overflow_is_a_numeric_error(self, order, x, message):
        with pytest.raises(NumericError, match=message):
            bessel_i(order, x)

    def test_gamma_reference_grid(self):
        for x, expected in GAMMA_REFERENCE:
            assert abs(math.gamma(x) - expected) < 1e-12 * abs(expected)

    def test_gamma_identities(self):
        assert math.gamma(5.0) == pytest.approx(24.0, rel=1e-13)
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_bessel_series_matches_direct_formula(self):
        # the regularized series used internally agrees with the defining series
        for order, x in [(0.7, 1.3), (3.0, 2.0), (5.5, 0.4)]:
            direct = sum(
                (x / 2) ** (2 * k + order) / (math.factorial(k) * math.gamma(k + order + 1))
                for k in range(60)
            )
            assert bessel_i(order, x) == pytest.approx(direct, rel=1e-12)


GRID = [(0.8, 1.5), (1.2, 1.5), (2.0, 1.5), (1.2, 0.8), (1.2, 2.5)]


class TestImpatientPmf:
    def test_normalization(self):
        for lam, mu in GRID:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            table = impatient_queue_pmf_table(params)
            assert abs(sum(table) - 1.0) < 1e-9

    @pytest.mark.parametrize("lam, mu, alpha, beta", [
        *((lam, mu, 1.0, 0.5) for lam, mu in GRID), (0.5, 1.0, 1e-4, 1.0), (3.0, 0.5, 2.0, 0.1),
    ])
    def test_table_is_the_per_length_product(self, lam, mu, alpha, beta):
        # the table runs the oracle's per-length product as one recurrence
        params = QueueParams(lam, mu, reneging_rate=alpha, balking_willingness=beta)
        table = impatient_queue_pmf_table(params)
        assert len(table) > 2
        assert table == pytest.approx(
            [impatient_queue_pmf(params, l) for l in range(len(table))], rel=1e-12, abs=0.0)

    def test_matches_balance_equations(self):
        for lam, mu in GRID:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            oracle = birth_death_pmf(lam, mu, 1.0, 0.5)
            for l in range(12):
                assert impatient_queue_pmf(params, l) == pytest.approx(
                    oracle[l], rel=1e-10, abs=1e-14
                )

    def test_light_load_limit(self):
        params = QueueParams(1e-8, 1.0, reneging_rate=1.0, balking_willingness=0.5)
        assert impatient_queue_pmf(params, 0) == pytest.approx(1.0, abs=1e-6)

    def test_matches_micro_simulation(self):
        params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
        sim = micro_queue(1.2, 1.5, horizon=120000.0, seed=42, alpha=1.0, beta=0.5)
        table = impatient_queue_pmf_table(params)
        k = min(len(table), len(sim.pmf))
        tv = 0.5 * sum(abs(a - b) for a, b in zip(table[:k], sim.pmf[:k]))
        assert tv < 0.02

    def test_vanishing_reneging_limit(self):
        # as alpha -> 0+ the law converges to the balking-only birth-death
        # chain (up lam*beta/l, down mu); hyperbolic balking never vanishes,
        # so this is the true patient limit of the closed form
        lam, mu, beta = 0.5, 1.0, 1.0
        params = QueueParams(lam, mu, reneging_rate=1e-4, balking_willingness=beta)
        limit = birth_death_pmf(lam, mu, 0.0, beta)
        for l in range(10):
            assert abs(impatient_queue_pmf(params, l) - limit[l]) < 1e-3

    def test_patient_limit_matches_geometric_at_light_load(self):
        # against the geometric patient law the balking correction is second
        # order in the load, so agreement holds only for light loads
        for lam in (0.05, 0.1):
            params = QueueParams(lam, 1.0, reneging_rate=1e-4, balking_willingness=1.0)
            for l in range(10):
                assert abs(impatient_queue_pmf(params, l) - mm1_queue_pmf(lam, l)) < 1e-3


@pytest.mark.parametrize("law", [
    pytest.param(acceptance_probabilities, id="acceptance_probabilities"),
    pytest.param(lambda params: wait_means(params).accepted, id="mean_wait_accepted_series"),
    pytest.param(lambda params: wait_means(params).joined, id="mean_wait_joined_identity"),
    pytest.param(wait_distributions, id="wait_distributions"),
])
def test_empty_probability_series_evaluated_once(monkeypatch, law):
    # 0F1(; gamma + 1; delta) backs both P(empty) and P(accept | join)
    params = QueueParams(1.2, 1.5, reneging_rate=0.5, balking_willingness=0.4)
    calls = []
    series = analytics._hyp0f1

    def counted(b, z):
        calls.append((b, z))
        return series(b, z)

    monkeypatch.setattr(analytics, "_hyp0f1", counted)
    law(params)
    assert calls.count((params.gamma + 1.0, params.delta)) == 1


class TestAcceptanceProbabilities:
    def test_joint_identity(self):
        for lam, mu in GRID:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            probs = acceptance_probabilities(params)
            # the two displayed expressions differ by exactly the empty probability
            assert probs.accept - probs.accept_and_join == pytest.approx(
                impatient_queue_pmf(params, 0), rel=1e-12
            )

    def test_bounds_over_sweep(self):
        for lam in (0.2, 0.7, 1.5, 3.0):
            for mu in (0.5, 1.0, 2.0):
                for alpha in (0.5, 1.0, 2.0):
                    for beta in (0.1, 0.5, 1.0):
                        params = QueueParams(lam, mu, alpha, beta)
                        probs = acceptance_probabilities(params)
                        for p in (probs.accept, probs.accept_and_join,
                                  probs.accept_given_join):
                            assert -1e-12 <= p <= 1.0 + 1e-12

    def test_light_load_limit_of_conditional(self):
        # as the arrival rate vanishes, a joiner waits behind a lone head:
        # accepted iff the head leaves first, so P(A|J) -> gamma/(gamma+1)
        mu, alpha = 1.5, 1.0
        params = QueueParams(1e-6, mu, alpha, 0.5)
        probs = acceptance_probabilities(params)
        assert probs.accept_given_join == pytest.approx(mu / (mu + alpha), abs=1e-5)
        assert probs.accept == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("beta", [0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_conditional_matches_mpmath_at_small_willingness(self, beta):
        # the Bessel quotient (0F1(; g + 1; d) - 1) / (0F1(; g; d) - 1) at 50 digits; in
        # doubles both differences cancelled, to a relative error of 9.3e-5 at beta = 1e-12
        lam, mu, alpha = 1.2, 1.5, 1.0
        mp = mpmath.MPContext()
        mp.dps = 50
        g, d = mp.mpf(mu) / alpha, mp.mpf(lam) * beta / alpha
        exact = (mp.hyp0f1(g + 1, d) - 1) / (mp.hyp0f1(g, d) - 1)
        probs = acceptance_probabilities(QueueParams(lam, mu, alpha, beta))
        assert abs(probs.accept_given_join - exact) <= 1e-13 * exact

    def test_conditional_matches_joint_over_join(self):
        for lam, mu in GRID:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            probs = acceptance_probabilities(params)
            table = impatient_queue_pmf_table(params)
            p_join = sum(p * balk_join_probability(0.5, l)
                         for l, p in enumerate(table) if l >= 1)
            assert probs.accept_given_join == pytest.approx(
                probs.accept_and_join / p_join, rel=1e-8
            )

    def test_overflow_is_reported_as_overflow(self):
        # 0F1(; 2; 2e5) is about e^894: past a double, which the series says at once
        params = QueueParams(2e5, 1.0, reneging_rate=1.0, balking_willingness=1.0)
        with pytest.raises(NumericError, match=r"overflows a double for b=2\.0, z=200000\.0"):
            acceptance_probabilities(params)

    def test_matches_micro_simulation(self):
        params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
        probs = acceptance_probabilities(params)
        sim = micro_queue(1.2, 1.5, horizon=120000.0, seed=7, alpha=1.0, beta=0.5)
        assert sim.p_accept == pytest.approx(probs.accept, rel=0.03)
        assert sim.p_accept_given_join == pytest.approx(probs.accept_given_join, rel=0.03)


class TestWaitDistributions:
    def test_densities_normalize(self):
        params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
        dists = wait_distributions(params)
        for density in (dists.accepted, dists.joined):
            total, _ = quad(density, 0.0, np.inf)
            assert abs(total - 1.0) < 1e-6

    def test_joined_decomposition_identity(self):
        params = QueueParams(1.0, 1.2, reneging_rate=0.8, balking_willingness=0.6)
        dists = wait_distributions(params)
        probs = acceptance_probabilities(params)
        paj = probs.accept_given_join
        for w in (0.1, 0.5, 1.3, 2.7):
            f_r = dists.reneged(w)
            f_q = dists.joined(w)
            f_a = dists.accepted(w)
            assert f_q == pytest.approx(paj * f_a + (1 - paj) * f_r, rel=1e-9)

    def test_nonnegative_on_grid(self):
        for lam, mu in GRID:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            dists = wait_distributions(params)
            for w in np.linspace(0.0, 8.0, 30):
                assert dists.accepted(w) >= 0.0
                assert dists.reneged(w) >= -1e-12
                assert dists.joined(w) >= 0.0

    def test_negative_wait_is_zero(self):
        params = QueueParams(1.0, 1.0, reneging_rate=1.0, balking_willingness=0.5)
        dists = wait_distributions(params)
        assert dists.accepted(-1.0) == 0.0
        assert dists.joined(-1.0) == 0.0


def quad_mean(density):
    """The mean of a waiting-time density, by adaptive quadrature."""
    value, _ = quad(lambda w: w * density(w), 0.0, np.inf, epsabs=1e-12, epsrel=1e-9, limit=200)
    return value


class TestWaitMeans:
    # wait_means takes the accepted mean from its series, the joined mean from
    # the identity and the reneged mean from total expectation; these tests
    # integrate the densities, and rebuild the identity and the series here
    def test_joined_mean_matches_identity(self):
        for lam, mu in [(1.2, 1.5), (2.0, 1.2)]:
            params = QueueParams(lam, mu, reneging_rate=1.0, balking_willingness=0.5)
            means = wait_means(params)
            assert abs(means.joined - quad_mean(wait_distributions(params).joined)) < 1e-6
            paj = acceptance_probabilities(params).accept_given_join
            assert means.joined == (1.0 - paj) / params.reneging_rate

    def test_accepted_series_cross_check(self):
        for lam, mu, alpha in [(1.2, 1.5, 1.0), (0.9, 1.1, 0.7)]:
            params = QueueParams(lam, mu, reneging_rate=alpha, balking_willingness=0.5)
            means = wait_means(params)
            accepted = quad_mean(wait_distributions(params).accepted)
            assert means.accepted == pytest.approx(accepted, rel=1e-6)
            # term i: delta^i / (i! (gamma + 1)_i) times sum_{j=1..i} 1 / (gamma + j),
            # its factorials through lgamma
            g, d = params.gamma, params.delta
            series = math.fsum(
                math.exp(i * math.log(d) - math.lgamma(i + 1.0)
                         - math.lgamma(g + 1.0 + i) + math.lgamma(g + 1.0))
                * math.fsum(1.0 / (g + j) for j in range(1, i + 1))
                for i in range(1, 80))
            p0 = impatient_queue_pmf(params, 0)
            p_accept_and_join = acceptance_probabilities(params).accept_and_join
            assert means.accepted == pytest.approx(
                p0 / p_accept_and_join * series / alpha, rel=1e-12)

    def test_total_expectation(self):
        params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
        dists = wait_distributions(params)
        accepted, reneged, joined = (quad_mean(density) for density in
                                     (dists.accepted, dists.reneged, dists.joined))
        paj = acceptance_probabilities(params).accept_given_join
        assert joined == pytest.approx(paj * accepted + (1 - paj) * reneged, rel=1e-6)
        assert wait_means(params).reneged == pytest.approx(reneged, rel=1e-6)

    def test_fast_reneging_drives_reneged_wait_to_zero(self):
        params = QueueParams(1.0, 1.0, reneging_rate=1e4, balking_willingness=0.5)
        means = wait_means(params)
        assert means.reneged < 1e-3

    def test_micro_simulation_agreement(self):
        params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
        sim = micro_queue(1.2, 1.5, horizon=120000.0, seed=11, alpha=1.0, beta=0.5)
        means = wait_means(params)
        assert sim.mean_wait_joiners == pytest.approx(means.joined, rel=0.03)
        assert sim.mean_wait_accepted == pytest.approx(means.accepted, rel=0.03)


def test_wait_laws_match_a_30_digit_reference():
    # the README's analyze example, recomputed with mpmath from the definitions:
    # f_a from mpmath's 0F1, and the integral under f_r and f_j by quadrature
    mp = mpmath.MPContext()
    mp.dps = 30
    lam, mu, alpha, beta = map(mp.mpf, ("1.2", "1.5", "1.0", "0.5"))
    g, d = mu / alpha, lam * beta / alpha
    p0 = 1 / (1 + d / (beta * g) * mp.hyp0f1(g + 1, d))
    p_accept_join = (1 - p0) * beta * g / d - p0
    paj = (mp.hyp0f1(g + 1, d) - 1) / (mp.hyp0f1(g, d) - 1)

    def f_a(w):
        return (p0 * lam * beta / p_accept_join * mp.exp(-(mu + alpha) * w)
                * mp.hyp0f1(2, d * (1 - mp.exp(-alpha * w))))

    def f_r(w):
        growth = mp.quad(lambda xi: mp.exp(alpha * xi) * f_a(xi), [0, w])
        return alpha * mp.exp(-alpha * w) * (1 - paj * growth) / (1 - paj)

    params = QueueParams(1.2, 1.5, reneging_rate=1.0, balking_willingness=0.5)
    dists = wait_distributions(params)
    for w in (0.0, 0.05, 0.5, 2.0, 8.0):
        want_a, want_r = f_a(w), f_r(w)
        for got, want, tol in ((dists.accepted(w), want_a, 1e-12),
                               (dists.reneged(w), want_r, 1e-12),
                               (dists.joined(w), paj * want_a + (1 - paj) * want_r, 1e-12)):
            assert abs(got - want) <= tol * want, (w, got, want)

    # by parts, the integral of w alpha exp(-alpha w) growth(w) is that of
    # (w + 1/alpha) f_a(w), so one quadrature of f_a gives all three means
    accepted = mp.quad(lambda w: w * f_a(w), [0, mp.inf])
    reneged = (1 / alpha - paj * (accepted + 1 / alpha)) / (1 - paj)
    means = wait_means(params)
    for got, want in ((means.accepted, accepted), (means.reneged, reneged),
                      (means.joined, paj * accepted + (1 - paj) * reneged)):
        assert abs(got - want) <= 1e-12 * want, (got, want)


class TestQueueParams:
    def test_domain_checks(self):
        with pytest.raises(ContractViolation):
            QueueParams(0.0, 1.0)
        with pytest.raises(ContractViolation):
            QueueParams(1.0, 1.0, reneging_rate=-1.0)
        with pytest.raises(ContractViolation):
            QueueParams(1.0, 1.0, balking_willingness=2.0)

    def test_impatient_laws_need_reneging(self):
        params = QueueParams(1.0, 2.0)
        with pytest.raises(ContractViolation):
            impatient_queue_pmf_table(params)

    def test_derived_quantities(self):
        params = QueueParams(1.2, 1.5, reneging_rate=0.5, balking_willingness=0.4)
        assert params.gamma == pytest.approx(3.0)
        assert params.delta == pytest.approx(0.96)


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that integrate or build a chain
    src = str(pathlib.Path(slicesim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import slicesim.cli, sys; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_waiting_time_laws_load_no_quadrature():
    # the densities and the means are series: no law needs scipy.integrate
    src = str(pathlib.Path(slicesim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys; from slicesim import analytics as a; "
            "p = a.QueueParams(1.2, 1.5, 1.0, 0.5); d = a.wait_distributions(p); "
            "d.reneged(1.0); d.joined(1.0); a.wait_means(p); "
            "print(sorted(k for k in sys.modules if k.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
