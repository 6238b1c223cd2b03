import logging

import numpy as np
import pytest

from volterra_lab.cli import run_experiment
from volterra_lab.config import ExperimentConfig
from volterra_lab.core import Kernel, resolvent
from volterra_lab.exceptions import InputError, SingularMultiplierError
from volterra_lab.spectral import (
    _summability_caveat,
    _symbol_coefficients,
    characteristic_roots,
    multiplier_L,
    symbol,
)

SYMBOL_KERNELS = {
    "single": Kernel([0.5]),
    "signed": Kernel([0.4, -0.3, 0.2]),
    "geometric40": Kernel.geometric(0.3, 0.5, 40),
}


def spectrum_statistics(kernel, **fields):
    return run_experiment(ExperimentConfig.from_dict(
        dict(mode="spectrum", kernel=kernel, **fields))).statistics


def random_summable_kernel(rng, max_size=4, max_l1=0.94):
    m = int(rng.integers(1, max_size + 1))
    weights = rng.dirichlet(np.ones(m)) * rng.uniform(0.05, max_l1)
    return Kernel(weights * rng.choice([-1.0, 1.0], size=m))


class TestCharacteristicRoots:
    def test_single_contractive_root(self):
        rep = characteristic_roots(Kernel([0.5]))
        assert np.allclose(rep.roots, [0.5])
        assert rep.roots.dtype == np.complex128
        assert rep.summable and rep.verdict == "summable"

    def test_single_expanding_root(self):
        rep = characteristic_roots(Kernel([2.0]))
        assert np.allclose(rep.roots, [2.0])
        assert not rep.summable and rep.verdict == "nonsummable"
        assert np.isclose(rep.max_modulus, 2.0)

    def test_marginal_root_is_not_boolean_summable(self):
        rep = characteristic_roots(Kernel([1.0]))
        assert rep.verdict == "marginal"
        assert not rep.summable

    def test_empty_kernel_trivially_summable(self):
        rep = characteristic_roots(Kernel.zero())
        assert rep.summable and rep.max_modulus == 0.0
        assert rep.roots.dtype == np.complex128 and rep.roots.size == 0

    def test_geometric_kernel_summable(self):
        rep = characteristic_roots(Kernel.geometric(0.3, 0.5, 20))
        assert rep.summable
        # nonnegative kernel with total mass 0.6 < 1
        assert rep.max_modulus < 1.0

    def test_tail_caveat_propagates(self):
        k = Kernel.geometric(0.3, 0.5, 10)
        stats = spectrum_statistics({"name": "geometric", "c": 0.3, "ratio": 0.5, "size": 10})
        assert k.tail_bound > 0.0
        assert stats["tail_caveat"] == k.tail_bound

    def test_roots_satisfy_polynomial(self):
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(20):
            k = random_summable_kernel(rng, max_size=6)
            rep = characteristic_roots(k)
            coeffs = np.concatenate(([1.0], -k.coefficients))
            residuals = np.abs(np.polyval(coeffs, rep.roots))
            assert np.all(residuals < 1e-10)

    def test_repeated_root(self):
        # w^2 - 0.5 w + 0.0625 = (w - 0.25)^2
        assert np.allclose(characteristic_roots(Kernel([0.5, -0.0625])).roots, 0.25, atol=1e-7)


class TestNonnegativeCriterion:
    def test_mass_below_one_iff_summable(self):
        # small kernels, then companion matrices of size 40, 100 and 300
        rng = np.random.Generator(np.random.Philox(22))
        for size in [None] * 100 + [40, 100, 300] * 10:
            m = int(rng.integers(1, 6)) if size is None else size
            total = rng.uniform(0.2, 1.8)
            k = Kernel(rng.dirichlet(np.ones(m)) * total)
            rep = characteristic_roots(k)
            assert rep.summable == (float(np.sum(k.coefficients)) < 1.0 - 1e-9)

    def test_l1_below_one_implies_summable(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(100):
            k = random_summable_kernel(rng, max_size=6, max_l1=0.99)
            assert characteristic_roots(k).summable


class TestSummabilityCaveat:
    # rho_lam = lam * max |w| against 1 +/- ROOT_TOLERANCE: r(j) lam^j is
    # summable iff g has no zero in |z| <= lam
    @pytest.mark.parametrize("coefficients,lam,verdict", [
        ([2.0], 0.0, "summable"),
        ([0.5], 1.0, "summable"),
        ([1.5], 0.5, "summable"),
        ([1.5], 2.0 / 3.0, "marginal"),
        ([1.5], 0.8, "nonsummable"),
    ])
    def test_verdict_at_lambda(self, coefficients, lam, verdict, caplog):
        with caplog.at_level(logging.WARNING):
            summable = _summability_caveat(Kernel(coefficients), lam)
        assert summable == (verdict == "summable")
        expected = [] if summable else [
            f"kernel resolvent verdict at lambda = {lam:.6g} is {verdict}; "
            "the limit stated with L(lambda) may not exist"]
        assert [record.getMessage() for record in caplog.records] == expected


class TestMultiplier:
    def test_lambda_zero_collapses_to_one(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(10):
            assert multiplier_L(random_summable_kernel(rng), 0.0) == 1.0

    def test_geometric_kernel_closed_form(self):
        # sum 0.5^(l+1) * 0.3 * 0.5^l = 0.15 / (1 - 0.25) = 0.2
        k = Kernel.geometric(0.3, 0.5, 40)
        assert abs(multiplier_L(k, 0.5) - 1.25) < 1e-12

    def test_single_lag_at_lambda_one(self):
        assert np.isclose(multiplier_L(Kernel([0.5]), 1.0), 2.0)

    def test_positive_kernel_multiplier_effect(self):
        rng = np.random.Generator(np.random.Philox(25))
        for _ in range(20):
            m = int(rng.integers(1, 5))
            k = Kernel(rng.dirichlet(np.ones(m)) * rng.uniform(0.1, 0.9))
            for lam in (0.25, 0.5, 1.0):
                assert multiplier_L(k, lam) > 1.0
            assert multiplier_L(k, 0.0) == 1.0

    def test_singular_denominator_raises(self):
        # kappa(0.5) = 2 * 0.5 = 1 for the expanding kernel
        with pytest.raises(SingularMultiplierError):
            multiplier_L(Kernel([2.0]), 0.5)

    def test_lambda_outside_unit_interval_rejected(self):
        with pytest.raises(InputError):
            multiplier_L(Kernel([0.5]), 1.5)

    def test_kappa_definition(self):
        # kappa(lam) = sum k(l) lam^(l+1) = 1 - g(lam)
        k = Kernel([0.5, 0.25])
        assert np.isclose(1.0 - symbol(k, 0.5), 0.5 * 0.5 + 0.25 * 0.25)
        assert symbol(Kernel.zero(), 0.7) == 1.0


class TestSymbol:
    @pytest.mark.parametrize("name", sorted(SYMBOL_KERNELS))
    def test_reciprocal_is_the_resolvent_generating_function(self, name):
        # 1/g(z) = sum_j r(j) z^j inside the disc of convergence
        k = SYMBOL_KERNELS[name]
        r = resolvent(k, 2000).values
        z = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9))
        series = np.array([np.sum(r * zi ** np.arange(r.size)) for zi in z])
        assert np.max(np.abs(1.0 / symbol(k, z) - series)) < 1e-12

    @pytest.mark.parametrize("name", sorted(SYMBOL_KERNELS))
    def test_vanishes_at_the_reciprocal_roots(self, name):
        # p(w) = w^M g(1/w) vanishes at every listed root w, to a scaled
        # residual |p(w)| <= 1e-12 ||p|| max(1, |w|)^M: the clustered roots of
        # the geometric kernel are accurate only to about 1e-8, and there g
        # at 1/w, near 2, is p(w) scaled up by 2^40
        k = SYMBOL_KERNELS[name]
        w = characteristic_roots(k).roots
        target = np.linalg.norm(_symbol_coefficients(k)) * np.maximum(1.0, np.abs(w)) ** k.size
        assert w.size == k.size
        assert np.all(np.abs(w ** k.size * symbol(k, 1.0 / w)) <= 1e-12 * target)

    def test_scalar_and_array_arguments_agree(self):
        k = SYMBOL_KERNELS["signed"]
        z = np.array([0.0, 0.5, -1.0, 0.3 + 0.4j])
        assert np.array_equal(symbol(k, z), [symbol(k, zi) for zi in z])
        assert symbol(k, 0.0) == 1.0


class TestSpectrumMode:
    def test_multipliers_and_singular_point(self):
        # g(lam) = 1 - 2 lam: 1, 0.5, 0 and -1 on the grid
        stats = spectrum_statistics({"coefficients": [2.0]}, lambda_grid=[0, 0.25, 0.5, 1])
        assert stats["multiplier"] == [1.0, 2.0, None, -1.0]
        assert stats["kappa"] == [0.0, 0.5, 1.0, 2.0]
        assert stats["verdict"] == "nonsummable"

    def test_zero_kernel_has_no_roots(self):
        stats = spectrum_statistics({"name": "zero"})
        assert stats["roots"] == []
        assert stats["summable"] is True
        assert stats["max_modulus"] == 0.0
        assert stats["multiplier"] == [1.0] * 5


def rho_partial_sums(kernel, lam, horizon):
    """sum_{j<=n} r(j) lam^j for n = 0..horizon: the running sum of the
    resolvent of ``kernel.at_scale(lam)``."""
    return np.cumsum(resolvent(kernel.at_scale(lam), horizon).values)


class TestRhoOfLambda:
    def test_single_lag_at_lambda_one(self):
        limit = multiplier_L(Kernel([0.5]), 1.0)
        assert np.isclose(limit, 2.0)
        assert abs(rho_partial_sums(Kernel([0.5]), 1.0, 200)[-1] - limit) < 1e-12

    def test_zero_kernel_constant_sums(self):
        assert np.all(rho_partial_sums(Kernel.zero(), 0.7, 50) == 1.0)
        assert multiplier_L(Kernel.zero(), 0.7) == 1.0

    def test_geometric_kernel_partial_sum_converges(self):
        k = Kernel.geometric(0.3, 0.5, 40)
        last = rho_partial_sums(k, 0.5, 200)[-1]
        assert abs(last - 1.25) < 1e-10
        assert abs(last - multiplier_L(k, 0.5)) < 1e-10

    def test_identity_over_random_kernels(self):
        rng = np.random.Generator(np.random.Philox(26))
        for _ in range(20):
            k = random_summable_kernel(rng)
            r = resolvent(k, 2000)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                weighted = float(np.sum(r.values * lam ** np.arange(2001)))
                assert abs(weighted - multiplier_L(k, lam)) < 1e-8
