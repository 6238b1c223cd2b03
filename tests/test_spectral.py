import numpy as np
import pytest

from volterra_lab.core import Kernel, resolvent
from volterra_lab.exceptions import InputError, SingularMultiplierError, SpectralError
from volterra_lab.spectral import (
    _polish_roots,
    characteristic_roots,
    kappa,
    multiplier_L,
    rho_of_lambda,
)


def random_summable_kernel(rng, max_size=4, max_l1=0.94):
    m = int(rng.integers(1, max_size + 1))
    weights = rng.dirichlet(np.ones(m)) * rng.uniform(0.05, max_l1)
    return Kernel(weights * rng.choice([-1.0, 1.0], size=m))


class TestCharacteristicRoots:
    def test_single_contractive_root(self):
        rep = characteristic_roots(Kernel([0.5]))
        assert np.allclose(rep.roots, [0.5])
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

    def test_geometric_kernel_summable(self):
        rep = characteristic_roots(Kernel.geometric(0.3, 0.5, 20))
        assert rep.summable
        # nonnegative kernel with total mass 0.6 < 1
        assert rep.max_modulus < 1.0

    def test_tail_caveat_propagates(self):
        k = Kernel.geometric(0.3, 0.5, 10)
        assert characteristic_roots(k).tail_caveat == k.tail_bound

    def test_roots_satisfy_polynomial(self):
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(20):
            k = random_summable_kernel(rng, max_size=6)
            rep = characteristic_roots(k)
            coeffs = np.concatenate(([1.0], -k.coefficients))
            residuals = np.abs(np.polyval(coeffs, rep.roots))
            assert np.all(residuals < 1e-10)

    def test_non_convergent_polish_raises(self):
        # a NaN coefficient can never satisfy the residual target
        with pytest.raises(SpectralError):
            _polish_roots(np.array([1.0, np.nan]), np.array([0.5 + 0j]))


class TestNonnegativeCriterion:
    def test_mass_below_one_iff_summable(self):
        rng = np.random.Generator(np.random.Philox(22))
        for _ in range(100):
            m = int(rng.integers(1, 6))
            total = rng.uniform(0.2, 1.8)
            k = Kernel(rng.dirichlet(np.ones(m)) * total)
            rep = characteristic_roots(k)
            assert rep.summable == (float(np.sum(k.coefficients)) < 1.0 - 1e-9)

    def test_l1_below_one_implies_summable(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(100):
            k = random_summable_kernel(rng, max_size=6, max_l1=0.99)
            assert characteristic_roots(k).summable


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
        k = Kernel([0.5, 0.25])
        assert np.isclose(kappa(k, 0.5), 0.5 * 0.5 + 0.25 * 0.25)
        assert kappa(Kernel.zero(), 0.7) == 0.0


class TestRhoOfLambda:
    def test_single_lag_at_lambda_one(self):
        res = rho_of_lambda(Kernel([0.5]), 1.0, 200)
        assert np.isclose(res.limit, 2.0)
        assert res.gap < 1e-12

    def test_zero_kernel_constant_sums(self):
        res = rho_of_lambda(Kernel.zero(), 0.7, 50)
        assert np.all(res.partial_sums.values == 1.0)
        assert res.limit == 1.0

    def test_geometric_kernel_partial_sum_converges(self):
        res = rho_of_lambda(Kernel.geometric(0.3, 0.5, 40), 0.5, 200, tolerance=1e-10)
        assert abs(res.partial_sums.values[-1] - 1.25) < 1e-10
        assert res.within_tolerance

    def test_identity_over_random_kernels(self):
        rng = np.random.Generator(np.random.Philox(26))
        for _ in range(20):
            k = random_summable_kernel(rng)
            r = resolvent(k, 2000)
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                weighted = float(np.sum(r.values * lam ** np.arange(2001)))
                assert abs(weighted - multiplier_L(k, lam)) < 1e-8
