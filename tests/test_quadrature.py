"""Tests for the adaptive Gauss-Kronrod quadrature helpers."""

import math

import mpmath as mp
import numpy as np
import pytest

from mimolink import AccuracyError
from mimolink import quadrature
from mimolink.quadrature import integrate, integrate_family

from _util import run_capped


def _gauss_kronrod_20_41(dps=60):
    """The Gauss-Kronrod 20/41 pair on [-1, 1] at ``dps`` digits: the
    nonnegative K41 nodes, descending, with their K41 weights, and the G20
    nodes in (0, 1), descending, with their G20 weights.

    The Kronrod nodes are the roots of the Stieltjes polynomial ``E21``:
    monic, odd, and orthogonal to ``x^j P20`` for ``j <= 20``.  Both
    polynomials are even or odd, so their roots are found as polynomials in
    ``y = x^2``; the K41 weights solve the moment equations of the even
    monomials up to degree 40.
    """
    with mp.workdps(dps):
        n = 20
        # P20 = 2^-n sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)
        p20 = {n - 2 * k: (-1) ** k * mp.binomial(n, k) * mp.binomial(2 * n - 2 * k, n) / 2**n
               for k in range(n // 2 + 1)}

        def moment(k):  # int_{-1}^{1} x^k dx
            return mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)

        def inner(power, j):  # int x^power P20(x) x^j dx
            return sum(c * moment(d + power + j) for d, c in p20.items())

        # E21 = x^21 + sum_i e_i x^(2i+1); odd j gives the 10 nontrivial conditions.
        odd_j = range(1, n, 2)
        a = mp.matrix([[inner(2 * i + 1, j) for i in range(n // 2)] for j in odd_j])
        e = mp.lu_solve(a, mp.matrix([-inner(n + 1, j) for j in odd_j]))
        e21 = [e[i] for i in range(n // 2)] + [mp.mpf(1)]  # coefficients of y^i in E21/x

        def roots_in_y(coeffs):  # ascending coefficients of a polynomial in y
            ys = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * dps)
            return sorted((mp.sqrt(mp.re(y)) for y in ys), reverse=True)

        gauss = roots_in_y([p20[2 * i] for i in range(n // 2 + 1)])
        kronrod = sorted(gauss + roots_in_y(e21), reverse=True) + [mp.mpf(0)]
        # sum_i m_i w_i x_i^(2k) = 2 / (2k + 1), with m_i = 2 off the origin
        mult = [2] * n + [1]
        v = mp.matrix([[m * x ** (2 * k) for m, x in zip(mult, kronrod)] for k in range(n + 1)])
        wk = mp.lu_solve(v, mp.matrix([moment(2 * k) for k in range(n + 1)]))
        wk = [wk[i] for i in range(n + 1)]
        # Exact through degree 3n + 1 = 61, past the 40 the weights were fitted to.
        worst = max(abs(sum(m * w * x ** (2 * k) for m, w, x in zip(mult, wk, kronrod))
                        - moment(2 * k)) for k in range(31))
        assert worst < mp.mpf(10) ** (10 - dps)

        def dp20(x):  # P20'(x) = n (x P20 - P19) / (x^2 - 1)
            return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

        wg = [2 / ((1 - x * x) * dp20(x) ** 2) for x in gauss]
        return kronrod, wk, gauss, wg


class TestGaussKronrodConstants:
    def test_literals_are_the_rounded_rule(self):
        # Every committed literal is the double nearest the 60-digit value.
        xk, wk, xg, wg = _gauss_kronrod_20_41()
        assert [float(x) for x in xk] == list(quadrature._XGK_HALF)
        assert [float(w) for w in wk] == list(quadrature._WGK_HALF)
        assert [float(w) for w in wg] == list(quadrature._WG_HALF)
        with mp.workdps(40):  # QUADPACK's xgk(1), xgk(2), to its 33 digits
            assert abs(xk[0] - mp.mpf("0.998859031588277663838315576545863")) < 1e-32
            assert abs(xk[1] - mp.mpf("0.993128599185094924786122388471320")) < 1e-32
        # G20 reads K41's odd-indexed nodes, ascending over [-1, 1].
        gauss = [-float(x) for x in xg] + [float(x) for x in xg[::-1]]
        assert quadrature._XK[1::2].tolist() == gauss
        assert np.all(np.diff(quadrature._XK) > 0) and quadrature._XK[20] == 0.0

    def test_rules_integrate_monomials(self):
        # K41 is exact through degree 61, G20 through degree 39.
        x = quadrature._XK
        for k in range(62):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert quadrature._WK @ x**k == pytest.approx(exact, abs=1e-15)
            if k < 40:
                assert quadrature._WG @ x[1::2] ** k == pytest.approx(exact, abs=1e-15)


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
        assert calls == [41]  # one call at the K41 nodes of level 0

    def test_level_over_the_node_budget_raises_before_evaluating(self, monkeypatch):
        # An oscillation far finer than the seed intervals fails every
        # interval, so bisection doubles them level after level; the level
        # that would pass the budget raises before its integrand call.
        monkeypatch.setattr(quadrature, "_MAX_NODE_VALUES", 3 * 8 * 41)
        calls = []

        def f(x):
            calls.append(x.size)
            return np.stack([np.sin(1e6 * x)] * 3)

        with pytest.raises(AccuracyError, match="more than 984 values"):
            integrate_family(f, 0.0, 1.0, rel_tol=1e-15, abs_tol=0.0)
        assert max(calls) * 3 <= 3 * 8 * 41

    def test_runaway_refinement_raises_under_a_memory_cap(self):
        # At delta = 0 and 700 dB, c0 ~ 1e-70.  With the rate integral's
        # seed knots placed for c0 = 1 instead, they miss that scale, so
        # bisection alone would have to resolve it, doubling the intervals
        # level after level until memory ran out.  ZF and MMSE stop at the
        # node budget; MRC's active intervals stay few, and it stops at the
        # level budget.
        out = run_capped(
            "from mimolink import AccuracyError, Receiver, SystemConfig, analytic, db_to_linear\n"
            "from mimolink.training import optimize_tp_exact\n"
            "seeds = analytic._u_knots\n"
            "analytic._u_knots = lambda k_max, c0, delta: seeds(k_max, 1.0, delta)\n"
            "cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(700.0))\n"
            "for r in Receiver:\n"
            "    try:\n"
            "        optimize_tp_exact(cfg, r)\n"
            "    except AccuracyError as exc:\n"
            "        print(r, 'nodes' if 'values' in str(exc) else 'levels')\n",
            cap_gib=1,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["zf", "nodes", "mrc", "levels", "mmse", "nodes"]

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
