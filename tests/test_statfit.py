import math
import random

import pytest

from slicesim.errors import ContractViolation
from slicesim.statfit import (
    EmpiricalPmf,
    empirical_pmf,
    fit_geometric,
    kld_vs_geometric,
)

from oracles import KLD_UNIFORM_10_REFERENCE, kld_direct


class TestEmpiricalPmf:
    def test_simple_binning(self):
        pmf = empirical_pmf([0.05, 0.15, 0.25], 0.1)
        assert dict(pmf.counts)[0] / pmf.total == pytest.approx(1 / 3)
        assert dict(pmf.counts)[1] / pmf.total == pytest.approx(1 / 3)
        assert dict(pmf.counts)[2] / pmf.total == pytest.approx(1 / 3)

    def test_empty_samples(self):
        with pytest.raises(ContractViolation):
            empirical_pmf([], 0.1)

    def test_all_zero_samples(self):
        pmf = empirical_pmf([0.0, 0.0, 0.0], 0.5)
        assert dict(pmf.counts)[0] / pmf.total == 1.0

    def test_probabilities_sum_to_one(self):
        rng = random.Random(3)
        samples = [rng.expovariate(1.0) for _ in range(500)]
        pmf = empirical_pmf(samples, 0.2)
        assert sum(c for _, c in pmf.counts) == pmf.total

    def test_negative_sample_rejected(self):
        with pytest.raises(ContractViolation):
            empirical_pmf([-0.1], 0.1)

    @pytest.mark.parametrize("sample, width", [(1e308, 0.05), (1.0, 5e-324), (math.nan, 0.1)])
    def test_sample_without_a_finite_bin_rejected(self, sample, width):
        with pytest.raises(ContractViolation, match="no finite bin"):
            empirical_pmf([0.5, sample], width)


class TestFitGeometric:
    def test_point_mass_at_zero(self):
        assert fit_geometric(empirical_pmf([0.0, 0.01], 0.5)) == 1.0

    def test_mean_one(self):
        pmf = empirical_pmf([0.5, 2.5], 1.0)  # bins 0 and 2, mean 1
        assert fit_geometric(pmf) == pytest.approx(0.5, abs=1e-12)

    def test_recovers_parameter(self):
        rng = random.Random(12345)
        p = 0.3
        samples = []
        for _ in range(10**5):
            k = 0
            while rng.random() >= p:
                k += 1
            samples.append(k * 0.1 + 0.05)  # keep draws inside their bins
        pmf = empirical_pmf(samples, 0.1)
        assert fit_geometric(pmf) == pytest.approx(0.3, abs=0.01)

    def test_scale_consistency(self):
        rng = random.Random(9)
        samples = [rng.expovariate(0.05) for _ in range(20000)]
        mean_fine = empirical_pmf(samples, 0.5).mean
        mean_coarse = empirical_pmf(samples, 1.0).mean
        assert mean_coarse == pytest.approx(mean_fine / 2, rel=0.02)


class TestKld:
    def test_exact_geometric_gives_zero(self):
        # build a pmf whose empirical distribution IS the geometric law,
        # truncated once the tail falls below 1e-12
        p = 0.4
        tail_probs = []
        k = 0
        while True:
            q = (1 - p) ** k * p
            if q < 1e-12:
                break
            tail_probs.append(q)
            k += 1
        scaled = tuple(
            (k, int(round(q * 10**12))) for k, q in enumerate(tail_probs)
            if int(round(q * 10**12)) > 0
        )
        total = sum(c for _, c in scaled)
        pmf = EmpiricalPmf(counts=scaled, total=total)
        assert kld_vs_geometric(pmf, fit_geometric(pmf)) < 1e-9

    def test_point_mass(self):
        pmf = empirical_pmf([0.0], 1.0)
        assert kld_vs_geometric(pmf, 0.5) == pytest.approx(math.log(2.0))

    def test_uniform_against_fit_reference(self):
        samples = [k + 0.5 for k in range(10)]
        pmf = empirical_pmf(samples, 1.0)
        p_hat = fit_geometric(pmf)
        assert p_hat == pytest.approx(1 / 5.5)
        assert kld_vs_geometric(pmf, p_hat) == pytest.approx(
            KLD_UNIFORM_10_REFERENCE, rel=1e-12
        )

    def test_matches_direct_oracle(self):
        rng = random.Random(21)
        samples = [rng.expovariate(0.7) for _ in range(3000)]
        pmf = empirical_pmf(samples, 0.3)
        p_hat = fit_geometric(pmf)
        probs = [0.0] * (max(k for k, _ in pmf.counts) + 1)
        for k, c in pmf.counts:
            probs[k] = c / pmf.total
        assert kld_vs_geometric(pmf, p_hat) == pytest.approx(
            kld_direct(probs, p_hat), rel=1e-12
        )

    def test_nonnegative_over_random_samples(self):
        rng = random.Random(100)
        for trial in range(30):
            samples = [rng.expovariate(rng.uniform(0.2, 3.0)) for _ in
                       range(rng.randint(3, 400))]
            pmf = empirical_pmf(samples, rng.uniform(0.05, 1.0))
            p_hat = fit_geometric(pmf)
            kld = kld_vs_geometric(pmf, p_hat)
            assert kld >= -1e-12

    def test_degenerate_fit_with_spread_is_positive(self):
        samples = [0.0, 10.0]
        pmf = empirical_pmf(samples, 1.0)
        p_hat = fit_geometric(pmf)
        kld = kld_vs_geometric(pmf, p_hat)
        assert 0.0 < p_hat < 1.0
        assert kld > 0.0
