"""Tests for the special-function layer.

Reference values were generated independently with mpmath at 60-digit
precision and with direct numerical quadrature of the defining integrals,
then frozen here as literals.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mimolink import AccuracyError
from mimolink.special import (
    _log_factorial,
    build_coefficients,
    exp_integral_en_scaled,
    log_tricomi_u_family,
)
from mimolink.analytic import _poisson_tail


def _log_u(a, b, z: float) -> float:
    """``log U(a, b; z)`` of one pair, through the family."""
    return float(log_tricomi_u_family(np.array([[a, b]]), z)[0])


def _exp_integral_en(n: int, z: float) -> float:
    """``E_n(z)`` from the scaled form the library computes."""
    return exp_integral_en_scaled(n, z) * math.exp(-z)


class TestExpIntegral:
    def test_e1_at_one(self):
        # mpmath: expint(1, 1)
        assert _exp_integral_en(1, 1.0) == pytest.approx(
            0.21938393439552029, rel=1e-13
        )

    @pytest.mark.parametrize(
        "n, z, expected",
        [
            (1, 1e7, 9.9999990000002e-08),
            (65, 1e3, 0.0009390208547690869),
            (257, 2.0, 0.0038758520913195023),
            (1, 1e-6, 13.238309131365003),
        ],
    )
    def test_scaled_frozen_values(self, n, z, expected):
        # mpmath: exp(z) * expint(n, z), spanning the series/continued-
        # fraction split and large orders.
        assert exp_integral_en_scaled(n, z) == pytest.approx(expected, rel=1e-12)

    def test_asymptotic_tail_identity(self):
        # E_2(50) * 50 * e^50 approaches 1 from below; the deficit is about
        # 3.8e-2 at z = 50.
        val = exp_integral_en_scaled(2, 50.0) * 50.0
        assert abs(val - 1.0) <= 0.05

    def test_recurrence(self):
        # n * E_{n+1}(z) = e^{-z} - z * E_n(z)
        z = 2.0
        lhs = _exp_integral_en(3, z)
        rhs = (math.exp(-z) - z * _exp_integral_en(2, z)) / 2.0
        assert abs(lhs - rhs) <= 1e-13

    def test_sweep_against_scipy(self):
        # scipy.special.expn is an independent implementation for integer
        # order; sweep 1000 random (n, z) pairs across both evaluation
        # branches.
        rng = np.random.default_rng(2024)
        n = rng.integers(1, 300, size=1000)
        z = 10.0 ** rng.uniform(-6, 2.5, size=1000)
        for ni, zi in zip(n, z):
            ref = scipy.special.expn(int(ni), float(zi))
            assert _exp_integral_en(int(ni), float(zi)) == pytest.approx(
                ref, rel=1e-9
            ), (ni, zi)

    def test_sweep_against_quadrature(self):
        # Direct quadrature of int_1^inf e^{-z t} t^{-n} dt on a modest grid
        # keeps the check independent of any library series code.
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            z = float(10.0 ** rng.uniform(-2, 1.5))
            ref, err = scipy.integrate.quad(
                lambda t: math.exp(-z * t) * t**-n, 1.0, np.inf, epsabs=0, epsrel=1e-12
            )
            assert _exp_integral_en(n, z) == pytest.approx(ref, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_integral_en_scaled(0, 1.0)
        with pytest.raises(ValueError):
            exp_integral_en_scaled(2, 0.0)
        with pytest.raises(ValueError):
            exp_integral_en_scaled(2, -1.0)


def _q(a: int, u: float) -> float:
    """Regularized ``Q(a, u)`` from the rate engine's Poisson-tail rows."""
    return float(_poisson_tail(a, np.array([u]))[a - 1, 0])


class TestUpperIncompleteGamma:
    """The regularized upper incomplete gamma ``Q(a, u)`` behind every
    u-space survival (``analytic._poisson_tail``)."""

    def test_exponential_case(self):
        assert _q(1, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)

    def test_complete_case(self):
        np.testing.assert_array_equal(_poisson_tail(5, np.array([0.0])), 1.0)

    def test_small_argument(self):
        # Gamma(3, 2) = (z^2 + 2z + 2) e^{-z} at z=2 -> 10 e^{-2}
        assert _q(3, 2.0) == pytest.approx(1.353352832366127 / 2.0, rel=1e-13)

    def test_mid_argument(self):
        # mpmath: gammainc(7, 0.5, inf)
        assert _q(7, 0.5) == pytest.approx(719.9992782866859 / 720.0, rel=1e-13)

    def test_sweep_against_scipy(self):
        # Every order 1..150 at 300 arguments in one call, as the rate
        # engine evaluates them.
        rng = np.random.default_rng(11)
        u = 10.0 ** rng.uniform(-4, 2.2, size=300)
        ref = scipy.special.gammaincc(np.arange(1, 151)[:, None], u[None, :])
        np.testing.assert_allclose(_poisson_tail(150, u), ref, rtol=1e-10)


def _u_by_quadrature(a: int, b: int, z: float) -> float:
    """Defining integral of the confluent U function, for a >= 1.

    U(a, b, z) = (1/Gamma(a)) int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt
    """

    def f(t):
        return math.exp(
            -z * t + (a - 1) * math.log(t) + (b - a - 1) * math.log1p(t)
        )

    val, _ = scipy.integrate.quad(f, 0.0, np.inf, epsabs=0, epsrel=1e-12, limit=400)
    return val / scipy.special.gamma(a)


class TestLogFactorial:
    def test_matches_scipy_gammaln(self):
        # Integer orders well past every table size used at run time; the
        # poles (n < 0) come back as +inf, as gammaln(n + 1) gives them.
        n = np.arange(-3, 3000)
        got = _log_factorial(n.astype(float))
        want = scipy.special.gammaln(n + 1.0)
        np.testing.assert_array_equal(got[n < 0], np.inf)
        np.testing.assert_allclose(got[n >= 0], want[n >= 0], rtol=1e-15, atol=0)
        assert _log_factorial(np.array([[2], [5]])).tolist() == [[math.lgamma(3.0)], [math.lgamma(6.0)]]

    def test_rejects_non_integer_arguments(self):
        # Truncating 2.5 to 2 would return log 2! for log Gamma(3.5) silently.
        with pytest.raises(ValueError, match="integer"):
            _log_factorial(np.array([1.0, 2.5]))


class TestTricomiU:
    def test_family_over_budget_raises_before_allocating(self):
        # 5000 pairs x ~5100 probe nodes is past the 2^24-element budget;
        # the family refuses with its size instead of building the array.
        pairs = np.stack([np.arange(1, 5001), np.zeros(5000)], axis=1)
        with pytest.raises(AccuracyError, match="5000 pairs x 5104 nodes"):
            log_tricomi_u_family(pairs, 3.0)

    @pytest.mark.parametrize("a, b", [(2.5, 1), (2, 0.5)])
    def test_rejects_non_integer_parameters(self, a, b):
        with pytest.raises(ValueError, match="integers"):
            _log_u(a, b, 1.0)

    def test_equals_exponential_integral_when_a_b_one(self):
        # U(1, 1, z) = e^z E_1(z)
        z = 2.0
        assert math.exp(_log_u(1, 1, z)) == pytest.approx(
            exp_integral_en_scaled(1, z), rel=1e-12
        )

    def test_negative_b_frozen(self):
        # mpmath: hyperu(1, -3, 5)
        assert math.exp(_log_u(1, -3, 5.0)) == pytest.approx(
            0.10474417408156776, rel=1e-11
        )

    def test_negative_b_against_quadrature(self):
        assert math.exp(_log_u(1, -3, 5.0)) == pytest.approx(
            _u_by_quadrature(1, -3, 5.0), rel=1e-9
        )

    def test_small_positive_result(self):
        # mpmath: hyperu(5, -10, 0.37)
        assert math.exp(_log_u(5, -10, 0.37)) == pytest.approx(
            2.318761509929771e-06, rel=1e-10
        )

    @pytest.mark.parametrize(
        "a, b, z, expected_log",
        [
            (120, -80, 0.004, -589.5648625270169),
            (254, -1, 1.1, -1189.778261392442),
            (64, 0, 1e-5, -205.17281468533324),
        ],
    )
    def test_log_frozen_extremes(self, a, b, z, expected_log):
        # Cases far outside double range in linear scale; mpmath at 60
        # digits, compared in log space.
        assert _log_u(a, b, z) == pytest.approx(expected_log, rel=1e-12)

    def test_large_z_asymptotics(self):
        # z^a U(a, b, z) -> 1 as z -> inf.  At z = 100 the deficit for
        # a=2, b=0 is 5.7e-2 (mpmath), so the honest bound is 0.06; by
        # z = 1000 it has shrunk inside 0.05.
        val100 = math.exp(_log_u(2, 0, 100.0)) * 100.0**2
        assert val100 == pytest.approx(0.9433766160612733, rel=1e-10)
        assert abs(val100 - 1.0) <= 0.06
        val1000 = math.exp(_log_u(2, 0, 1000.0)) * 1000.0**2
        assert val1000 == pytest.approx(0.9940357617850197, rel=1e-10)
        assert abs(val1000 - 1.0) <= 0.05

    def test_sweep_against_quadrature(self):
        # 1000 random (a, b, z) with b <= a, including the negative-b
        # region that trips naive library implementations.
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 1000:
            a = int(rng.integers(1, 25))
            b = int(rng.integers(-12, a + 4))
            z = float(10.0 ** rng.uniform(-2, 1.6))
            ref = _u_by_quadrature(a, b, z)
            if not (np.isfinite(ref) and ref > 1e-280):
                continue
            assert math.exp(_log_u(a, b, z)) == pytest.approx(ref, rel=1e-9), (a, b, z)
            checked += 1

    def test_family_matches_scalar(self):
        pairs = np.array([[1, 1], [3, -2], [7, 0], [12, -5]])
        fam = log_tricomi_u_family(pairs, 0.8)
        for (a, b), lv in zip(pairs, fam):
            assert lv == pytest.approx(_log_u(int(a), int(b), 0.8), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            _log_u(0, 0, 1.0)
        with pytest.raises(ValueError, match="must be > 0"):
            _log_u(2, 0, 0.0)
        with pytest.raises(ValueError):
            log_tricomi_u_family(np.zeros((3, 3)), 1.0)


class TestCoefficients:
    def test_corner_values(self):
        # alpha_{0,0} = 1 and beta_0 = 1 for every parameter set;
        # alpha_{1,1} = (nt-1)(1+delta^2)/c0 = 1 at nt=2, c0=1, delta=0.
        alpha, beta = map(np.exp, build_coefficients(2, 4, 1.0, 0.0))
        assert alpha[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert beta[0] == pytest.approx(1.0, rel=1e-14)
        assert alpha[1, 1] == pytest.approx(1.0, rel=1e-14)

    def test_structural_zeros(self):
        log_alpha, _ = build_coefficients(3, 5, 0.7, 0.1)
        p, k = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        assert np.all(np.isneginf(log_alpha[p > k]))
        assert np.all(np.isfinite(log_alpha[p <= k]))

    def test_exact_fractions(self):
        # Independent exact-arithmetic oracle for a small table.
        from fractions import Fraction

        nt, nr = 3, 4
        c0 = Fraction(1, 2)
        ratio = Fraction(1) / c0  # (1+delta^2)/c0 at delta=0
        alpha, beta = map(np.exp, build_coefficients(nt, nr, float(c0), 0.0))

        def binom(n, k):
            return Fraction(math.comb(n, k)) if 0 <= k <= n else Fraction(0)

        for k in range(nr):
            for p in range(k + 1):
                exact = (
                    binom(nt + p - 2, p)
                    * ratio**p
                    / Fraction(math.factorial(k - p))
                )
                assert alpha[p, k] == pytest.approx(float(exact), rel=1e-12)
            exact_beta = sum(
                binom(nt - 1, k - p) * ratio ** (k - p) / Fraction(math.factorial(p))
                for p in range(k + 1)
            )
            assert beta[k] == pytest.approx(float(exact_beta), rel=1e-12)

    def test_large_table_finite_in_log_space(self):
        log_alpha, log_beta = build_coefficients(8, 256, 0.05, 0.1)
        k = np.arange(256)
        p = np.arange(256)[:, None]
        assert np.all(np.isfinite(log_alpha[(p <= k)]))
        assert np.all(np.isfinite(log_beta))

    def test_single_transmit_antenna_structure(self):
        # nt = 1: C(p-1, p) = 0 for p >= 1, so only alpha_{0,k} survives,
        # and beta_k collapses to 1/k!.
        log_alpha, log_beta = build_coefficients(1, 6, 0.3, 0.05)
        alpha, beta = np.exp(log_alpha), np.exp(log_beta)
        for k in range(6):
            assert alpha[0, k] == pytest.approx(1.0 / math.factorial(k), rel=1e-12)
            assert beta[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-12)
            for p in range(1, k + 1):
                assert np.isneginf(log_alpha[p, k])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_coefficients(0, 4, 1.0, 0.0)
        with pytest.raises(ValueError):
            build_coefficients(2, 4, 0.0, 0.0)
        with pytest.raises(ValueError):
            build_coefficients(2, 4, 1.0, -0.1)
