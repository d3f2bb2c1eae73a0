"""Tests for the adaptive Gauss-Legendre quadrature helpers."""

import math

import numpy as np
import pytest

from mimolink import AccuracyError
from mimolink.quadrature import integrate, integrate_family


class TestIntegrate:
    def test_polynomial_exact(self):
        # Degree-7 polynomial; refinement stops once the error estimate
        # clears rel_tol=1e-12, so the check sits at that level.
        val = integrate(lambda x: 7 * x**6, 0.0, 2.0)
        assert val == pytest.approx(2.0**7, rel=1e-12)

    def test_exponential(self):
        val = integrate(lambda x: np.exp(-x), 0.0, 50.0)
        assert val == pytest.approx(1.0 - math.exp(-50.0), rel=1e-11)

    def test_moderately_peaked_refines(self):
        # Bump wide enough for the base rule to register an error, narrow
        # enough to force several refinement levels.
        s = 0.02
        val = integrate(
            lambda x: np.exp(-((x - 0.7) ** 2) / (2 * s**2)), 0.0, 1.0
        )
        assert val == pytest.approx(s * math.sqrt(2 * math.pi), rel=1e-10)

    def test_narrow_peak_needs_seed_point(self):
        # A width-1e-3 bump is invisible to the base nodes, so adaptivity
        # alone returns ~0; a single seed point at the peak recovers it.
        # This is the contract: structural knowledge travels via `points`.
        s = 1e-3
        f = lambda x: np.exp(-((x - 0.7) ** 2) / (2 * s**2))
        blind = integrate(f, 0.0, 1.0)
        assert blind < 1e-6
        seeded = integrate(f, 0.0, 1.0, points=[0.7])
        assert seeded == pytest.approx(s * math.sqrt(2 * math.pi), rel=1e-10)

    def test_log_endpoint_with_logspaced_seeds(self):
        # Integrable endpoint singularity resolved by log-spaced seed
        # knots, the same pattern the special-function layer uses.
        val = integrate(
            lambda x: np.log(x),
            1e-12,
            1.0,
            points=list(np.logspace(-11, -0.5, 30)),
        )
        exact = -1.0 - (1e-12 * math.log(1e-12) - 1e-12)
        assert val == pytest.approx(exact, rel=1e-10)

    def test_abs_tol_path(self):
        # Integral that is exactly zero by symmetry: only abs_tol can
        # terminate the refinement.
        val = integrate(lambda x: x**3, -1.0, 1.0, abs_tol=1e-13)
        assert abs(val) < 1e-12

    def test_nonconvergence_raises(self):
        # A discontinuous integrand with a tolerance below what any finite
        # refinement reaches must raise rather than return quietly.
        with pytest.raises(AccuracyError):
            integrate(
                lambda x: np.where(x < 1 / 3, 0.0, 1.0),
                0.0,
                1.0,
                rel_tol=1e-15,
                abs_tol=0.0,
                max_levels=6,
            )

    def test_non_finite_integrand_raises_at_once(self):
        # NaN meets no tolerance, so refining it would only double the node
        # count at every level; the first level must raise instead.
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x < 0.5, 1.0, np.nan)

        with pytest.raises(AccuracyError, match="not finite"):
            integrate(f, 0.0, 1.0, max_levels=3)
        assert len(calls) == 2  # the coarse and the fine rule of level 0

    def test_rejects_multi_component_integrand(self):
        with pytest.raises(ValueError):
            integrate(lambda x: np.stack([x, x**2]), 0.0, 1.0)


class TestIntegrateFamily:
    def test_shares_nodes_across_components(self):
        out = integrate_family(
            lambda x: np.stack([np.ones_like(x), x, x**2]), 0.0, 1.0
        )
        assert out.shape == (3,)
        np.testing.assert_allclose(out, [1.0, 0.5, 1 / 3], rtol=1e-13)

    def test_breakpoints(self):
        # Kink at x=1; supplying it as an interior point keeps each panel
        # smooth.
        out = integrate_family(
            lambda x: np.abs(x - 1.0)[None, :], 0.0, 2.0, points=[1.0]
        )
        assert out[0] == pytest.approx(1.0, rel=1e-13)

    def test_matches_scalar_on_single_component(self):
        f = lambda x: np.exp(-(x**2))
        fam = integrate_family(lambda x: f(x)[None, :], 0.0, 3.0)
        scal = integrate(f, 0.0, 3.0)
        assert fam[0] == pytest.approx(scal, rel=1e-13)

    def test_component_count_preserved(self):
        m = 7
        out = integrate_family(
            lambda x: np.stack([x**k for k in range(m)]), 0.0, 1.0
        )
        assert out.shape == (m,)
        np.testing.assert_allclose(out, [1.0 / (k + 1) for k in range(m)], rtol=1e-12)
