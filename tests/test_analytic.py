"""Tests for the closed-form SINR distribution and rate expressions.

Reference CDF values were generated with an independent mpmath
implementation of the distribution series at 60-digit precision.
"""

import functools
import itertools
import logging
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mimolink
from mimolink import cli
from mimolink import (
    Receiver,
    SystemConfig,
    analytic,
    db_to_linear,
    derive_params,
    derive_params_at,
)
from mimolink.analytic import (
    _rate_integrand,
    _rate_quadrature_c0,
    _u_knots,
    outage,
    rate_ceiling,
    rate_closed_form,
    rate_low_snr,
    rate_quadrature,
    rate_scan,
    sinr_cdf,
)
from mimolink.quadrature import _eval_panels
from mimolink.simulate import RandomStream, empirical_rate
from mimolink.training import optimize_tp_exact

from _util import run_capped


def _cfg(nt, nr, tp, rho, delta):
    return SystemConfig(nt=nt, nr=nr, t=2 * tp + 2, tp=tp, rho=rho, delta=delta)


class TestSinrCdfFrozenValues:
    # (receiver, nt, nr, tp, rho, delta, gamma, expected CDF)
    CASES = [
        (Receiver.ZF, 4, 4, 4, 10.0, 0.0, 1.0, 0.56828947657092031),
        (Receiver.ZF, 5, 5, 5, 1000.0, 0.1, 50.0, 0.99766676602116315),
        (Receiver.MMSE, 5, 5, 5, 1000.0, 0.1, 30.0, 0.90788663245290771),
        (Receiver.MRC, 5, 5, 5, 1000.0, 0.1, 2.0, 0.76490362914360473),
        (Receiver.ZF, 5, 30, 5, 1000.0, 0.175, 20.0, 1.5458603424785256e-6),
        (Receiver.MRC, 5, 30, 5, 1000.0, 0.175, 8.0, 0.73552344148311308),
        (Receiver.MMSE, 5, 30, 10, 31.6227766016838, 0.05, 15.0, 7.774765748425752e-14),
        (Receiver.ZF, 2, 3, 4, 0.5, 0.02, 0.9, 0.99877148947325992),
        (Receiver.MMSE, 4, 4, 4, 10.0, 0.0, 1.0, 0.1694977439743548),
        (Receiver.MRC, 4, 4, 4, 10.0, 0.0, 1.0, 0.48244470240809467),
        (Receiver.MMSE, 8, 8, 8, 100.0, 0.15, 10.0, 0.95769781254341401),
        (Receiver.MRC, 4, 6, 8, 3.0, 0.1, 1.5, 0.72440380010861769),
        (Receiver.ZF, 3, 7, 3, 100.0, 0.175, 12.0, 0.18061330535192552),
    ]

    @pytest.mark.parametrize("receiver, nt, nr, tp, rho, delta, gamma, expected", CASES)
    def test_frozen(self, receiver, nt, nr, tp, rho, delta, gamma, expected):
        cfg = _cfg(nt, nr, tp, rho, delta)
        assert sinr_cdf(receiver, cfg, gamma) == pytest.approx(expected, rel=1e-10)

    def test_outage_is_cdf(self):
        cfg = _cfg(4, 4, 4, 10.0, 0.1)
        assert outage(Receiver.ZF, cfg, 2.0) == sinr_cdf(Receiver.ZF, cfg, 2.0)

    def test_wall(self):
        # At and above 1/delta^2 the CDF is exactly 1 regardless of SNR.
        # Below it the survival probability is positive but decays
        # exponentially toward the wall, so the strictly-below check sits
        # where the survival is still representable in doubles.
        cfg = _cfg(4, 4, 4, db_to_linear(10), 0.1)
        wall = 1.0 / 0.1**2
        for r in Receiver:
            assert sinr_cdf(r, cfg, wall) == 1.0
            assert sinr_cdf(r, cfg, wall + 5.0) == 1.0
            assert sinr_cdf(r, cfg, 0.2 * wall) < 1.0

    def test_zf_requires_enough_receive_antennas(self):
        cfg = _cfg(4, 3, 4, 10.0, 0.1)
        with pytest.raises(ValueError):
            sinr_cdf(Receiver.ZF, cfg, 1.0)
        sinr_cdf(Receiver.MRC, cfg, 1.0)  # no restriction

    def test_rejects_negative_gamma(self):
        cfg = _cfg(4, 4, 4, 10.0, 0.1)
        with pytest.raises(ValueError):
            sinr_cdf(Receiver.ZF, cfg, -0.5)
        with pytest.raises(ValueError):
            sinr_cdf(Receiver.ZF, cfg, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            sinr_cdf(Receiver.ZF, cfg, math.nan)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_one_at_infinity(self, delta):
        cfg = _cfg(4, 6, 4, 10.0, delta)
        for r in Receiver:
            assert sinr_cdf(r, cfg, math.inf) == 1.0

    def test_array_equals_scalar_on_fig2_grid(self):
        # Every cell of the fig2 preset's grid, those at and above the wall
        # included: an array of thresholds gives, entry by entry, the bits
        # of the scalar call.
        p = cli.PRESETS["fig2"]["params"]
        thresholds = [db_to_linear(x) for x in cli._grid(p, "threshold_db")]
        for (nt, nr), delta in itertools.product(p["configs"], p["delta"]):
            cfg = _cfg(nt, nr, nt, db_to_linear(p["snr_db"]), delta)
            for r in Receiver:
                got = outage(r, cfg, np.array(thresholds))
                want = [sinr_cdf(r, cfg, x) for x in thresholds]
                assert got.shape == (len(thresholds),)
                assert got.tolist() == want, (nt, nr, delta, r)
        assert isinstance(sinr_cdf(Receiver.ZF, cfg, 2.0), float)


@st.composite
def _cdf_case(draw):
    receiver = draw(st.sampled_from(list(Receiver)))
    nt = draw(st.integers(1, 6))
    nr_min = nt if receiver is Receiver.ZF else 1
    nr = draw(st.integers(nr_min, 12))
    tp = draw(st.integers(nt, nt + 6))
    rho = 10.0 ** draw(st.floats(-1.5, 5.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3)))
    gamma = draw(st.floats(0.0, 500.0))
    return receiver, _cfg(nt, nr, tp, rho, delta), gamma


class TestSinrCdfProperties:
    @settings(max_examples=1000, deadline=None)
    @given(_cdf_case())
    def test_is_a_distribution(self, case):
        receiver, cfg, gamma = case
        f = sinr_cdf(receiver, cfg, gamma)
        assert 0.0 <= f <= 1.0
        assert sinr_cdf(receiver, cfg, 0.0) == 0.0
        # monotone against a point further out
        f2 = sinr_cdf(receiver, cfg, gamma * 1.5 + 0.1)
        assert f2 >= f - 1e-12
        if cfg.delta > 0:
            assert sinr_cdf(receiver, cfg, 1.0 / cfg.delta**2) == 1.0


@st.composite
def _link(draw, size=None):
    """A receiver and a link of up to 16x16 antennas, or of ``size``."""
    receiver = draw(st.sampled_from(list(Receiver)))
    if size is None:
        nt = draw(st.integers(1, 16))
        nr = draw(st.integers(nt if receiver is Receiver.ZF else 1, 16))
    else:
        nt, nr = size
    tp = draw(st.integers(nt, nt + 8))
    rho = db_to_linear(draw(st.floats(-10.0, 60.0)))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.3)))
    return receiver, _cfg(nt, nr, tp, rho, delta)


class TestDistributionAndRateProperties:
    @settings(max_examples=150, deadline=None)
    @given(_link(), st.lists(st.floats(0.0, 1e4), min_size=1, max_size=24))
    def test_cdf_over_thresholds_is_nondecreasing_in_unit_interval(self, link, gammas):
        # The CDF is 1 - S, with S a sum of up to 16 mixture terms near 1 in
        # the lower tail, so it is exact only to a few 1e-15 there (steps
        # down of up to 5.9e-15 seen over 6000 random links).
        receiver, cfg = link
        f = sinr_cdf(receiver, cfg, np.sort(gammas))
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) >= -1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_link(), _link(size=(5, 30))), st.sampled_from([1, 2, 3, 7, 17, 101]),
           st.data())
    def test_array_cdf_equals_scalar_calls(self, link, n, data):
        # numpy may run a transcendental ufunc through a different loop for
        # another array length or stride; a threshold's CDF must still be
        # the scalar call's bits, whatever its neighbours.
        receiver, cfg = link
        gammas = data.draw(st.lists(st.floats(-3.0, 4.0).map(lambda x: 10.0**x),
                                    min_size=n, max_size=n))
        got = sinr_cdf(receiver, cfg, np.array(gammas))
        assert got.tolist() == [sinr_cdf(receiver, cfg, g) for g in gammas]

    @settings(max_examples=60, deadline=None)
    @given(_link(), st.floats(0.0, 30.0))
    def test_rate_below_ceiling_and_nondecreasing_in_rho(self, link, gain_db):
        # The engine meets rel_tol 1e-10 per value; 1e-9 covers two of them.
        receiver, cfg = link
        rate = rate_quadrature(receiver, cfg)
        louder = rate_quadrature(receiver, cfg.with_rho(cfg.rho * db_to_linear(gain_db)))
        assert 0.0 < rate <= louder * (1.0 + 1e-9)
        if cfg.delta > 0.0:
            assert louder <= rate_ceiling(receiver, cfg) * (1.0 + 1e-9)


class TestRateClosedVsQuadrature:
    def test_random_configs_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            nt = int(rng.integers(1, 9))
            nr = int(rng.integers(nt, 17))
            tp = int(rng.integers(nt, nt + 8))
            delta = float(rng.uniform(0.02, 0.175))
            rho = db_to_linear(float(rng.uniform(-10, 50)))
            cfg = _cfg(nt, nr, tp, rho, delta)
            for r in Receiver:
                closed = rate_closed_form(r, cfg)
                quad = rate_quadrature(r, cfg)
                assert closed == pytest.approx(quad, rel=1e-6), (r, cfg)

    def test_massive_array_quadrature(self):
        # nr = 256: the survival mixture keeps the quadrature at O(nr) work
        # per node for every receiver.
        cfg = SystemConfig(nt=8, nr=256, t=200, tp=8, rho=db_to_linear(20), delta=0.1)
        rates = {r: rate_quadrature(r, cfg) for r in Receiver}
        assert all(math.isfinite(v) and v > 0 for v in rates.values())
        assert rates[Receiver.MMSE] == pytest.approx(
            rate_closed_form(Receiver.MMSE, cfg), rel=1e-8
        )

    def test_massive_mrc_quadrature_fits_in_3_gib(self):
        # Under a 3 GiB address-space cap (the benchmark's), MRC at 8x256
        # must complete instead of raising MemoryError.
        out = run_capped(
            "from mimolink import Receiver, SystemConfig, db_to_linear\n"
            "from mimolink.analytic import rate_quadrature\n"
            "cfg = SystemConfig(nt=8, nr=256, t=200, tp=8, rho=db_to_linear(20), delta=0.1)\n"
            "print(rate_quadrature(Receiver.MRC, cfg))\n",
            cap_gib=3,
        )
        assert out.returncode == 0, out.stderr
        assert math.isfinite(float(out.stdout)) and float(out.stdout) > 0

    def test_massive_mrc_closed_form_and_ceiling_fit_in_3_gib(self):
        # The closed form's Tricomi family at MRC 8x256 would need a 33.6 GiB
        # (pairs x nodes) array: it refuses past its budget and the rate
        # falls back to the engine; the ceiling is the engine at c0_bar.
        out = run_capped(
            "from mimolink import Receiver, SystemConfig, db_to_linear\n"
            "from mimolink.analytic import rate_ceiling, rate_closed_form, rate_quadrature\n"
            "cfg = SystemConfig(nt=8, nr=256, t=100, tp=12, rho=db_to_linear(20), delta=0.1)\n"
            "for f in (rate_closed_form, rate_quadrature, rate_ceiling):\n"
            "    print(f(Receiver.MRC, cfg))\n",
            cap_gib=3,
        )
        assert out.returncode == 0, out.stderr
        closed, quad, ceiling = (float(v) for v in out.stdout.split())
        assert closed == pytest.approx(quad, rel=1e-12)
        assert quad < ceiling

    def test_runtime_does_not_import_scipy(self):
        # scipy is a test oracle only: the CLI and the rate, CDF and tp
        # engines run on numpy and the standard library.
        code = (
            "import sys\n"
            "import mimolink.cli\n"
            "from mimolink import Receiver, SystemConfig, db_to_linear\n"
            "from mimolink.analytic import rate_closed_form, sinr_cdf\n"
            "from mimolink.training import optimize_tp_exact\n"
            "cfg = SystemConfig(nt=4, nr=6, t=40, tp=4, rho=db_to_linear(10), delta=0.1)\n"
            "for r in Receiver:\n"
            "    optimize_tp_exact(cfg, r); sinr_cdf(r, cfg, 2.0); rate_closed_form(r, cfg)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(mimolink.__path__[0]), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("delta", [1e-200, 2e-153, 1e-100])
    def test_vanishing_delta_falls_back_to_quadrature(self, delta):
        # c0/delta^2 at or past the double range: the closed form cannot be
        # evaluated there and must hand over to quadrature, not raise.
        cfg = SystemConfig(nt=2, nr=3, t=10, tp=2, rho=1.6, delta=delta)
        for r in Receiver:
            assert rate_closed_form(r, cfg) == pytest.approx(
                rate_quadrature(r, cfg), rel=1e-10
            )

    def test_cancellation_fallback_is_logged_and_correct(self, caplog):
        # At this corner the alternating series cancels ~1e8-fold, beyond
        # the 1e6 budget; the value must silently come from quadrature and
        # the event must be logged.
        cfg = SystemConfig(
            nt=5, nr=30, t=100, tp=5, rho=db_to_linear(30), delta=0.175
        )
        with caplog.at_level(logging.WARNING, logger="mimolink.analytic"):
            val = rate_closed_form(Receiver.MRC, cfg)
        assert any("cancelled beyond budget" in r.message for r in caplog.records)
        assert val == pytest.approx(rate_quadrature(Receiver.MRC, cfg), rel=1e-9)

    def test_ideal_hardware_served_by_quadrature(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0)
        assert rate_closed_form(Receiver.ZF, cfg) == rate_quadrature(Receiver.ZF, cfg)

    def test_continuity_at_vanishing_distortion(self):
        # The closed forms degenerate as delta -> 0; values at delta = 1e-4
        # must sit within 0.5% of the ideal-hardware rate.
        for snr_db in (0.0, 10.0, 20.0):
            base = SystemConfig(
                nt=4, nr=4, t=200, tp=8, rho=db_to_linear(snr_db), delta=0.0
            )
            tiny = SystemConfig(
                nt=4, nr=4, t=200, tp=8, rho=db_to_linear(snr_db), delta=1e-4
            )
            for r in Receiver:
                assert rate_closed_form(r, tiny) == pytest.approx(
                    rate_closed_form(r, base), rel=5e-3
                )

    def test_receiver_ordering(self):
        cfg = SystemConfig(nt=4, nr=5, t=100, tp=6, rho=db_to_linear(12), delta=0.1)
        mmse = rate_closed_form(Receiver.MMSE, cfg)
        assert mmse >= rate_closed_form(Receiver.ZF, cfg)
        assert mmse >= rate_closed_form(Receiver.MRC, cfg)

    def test_single_stream_mrc_equals_zf(self):
        # With one transmit stream there is no interference to null, so the
        # two receivers coincide exactly.
        cfg = SystemConfig(nt=1, nr=4, t=50, tp=3, rho=db_to_linear(5), delta=0.1)
        assert rate_closed_form(Receiver.MRC, cfg) == pytest.approx(
            rate_closed_form(Receiver.ZF, cfg), rel=1e-10
        )
        for g in (0.1, 1.0, 10.0, 80.0):
            assert sinr_cdf(Receiver.MRC, cfg, g) == pytest.approx(
                sinr_cdf(Receiver.ZF, cfg, g), rel=1e-10
            )

    def test_matches_monte_carlo(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=8, rho=db_to_linear(10), delta=0.05)
        analytic = rate_closed_form(Receiver.MMSE, cfg)
        mc = empirical_rate(cfg, (Receiver.MMSE,), 20000,
                            RandomStream(303))[Receiver.MMSE]
        assert analytic == pytest.approx(mc, rel=0.02)


@functools.lru_cache(maxsize=None)
def _mp_rate_integral(receiver, nt, nr, delta, c0):
    """30-digit mpmath value of the u-space rate integral
    ``int_0^inf S(u) c0 / ((c0 + d^2 u)(c0 + (1+d^2) u)) du`` that
    ``_rate_quadrature_c0`` evaluates, with the survival mixture of
    ``_survival_u`` summed term by term."""
    with mp.workdps(30):
        d2 = mp.mpf(delta) ** 2
        c0 = mp.mpf(c0)

        def survival(u):
            term, q = mp.exp(-u), [mp.mpf(0)]
            for k in range(1, nr + 1):  # q[a] = Q(a, u) = e^-u sum_{k<a} u^k / k!
                q.append(q[-1] + term)
                term *= u / k
            if receiver is Receiver.ZF:
                return q[nr - nt + 1]
            w = (1 + d2) * u / c0
            if receiver is Receiver.MMSE:  # C(nt-1, j) w^j / (1+w)^(nt-1)
                j_max, z = min(nt, nr), w
            else:  # C(nt+j-2, j) (w/(1+w))^j / (1+w)^(nt-1)
                j_max, z = nr, w / (1 + w)
            coef, total = mp.mpf(1), mp.mpf(0)
            for j in range(j_max):
                total += coef * q[nr - j]
                coef *= z * ((nt - 1 - j) if receiver is Receiver.MMSE else (nt - 1 + j)) / (j + 1)
            return total / (1 + w) ** (nt - 1)

        def f(u):
            return survival(u) * c0 / ((c0 + d2 * u) * (c0 + (1 + d2) * u))

        knots = sorted({mp.mpf(0), c0 / 10, c0, mp.mpf(1), mp.mpf(nr), mp.mpf(2 * nr + 40)})
        return mp.quad(f, knots + [mp.inf])


class TestRateQuadratureReference:
    """The seeded adaptive quadrature against a 30-digit mpmath integral of
    the same survival mixture, at a c0 near 1 (10 dB) and a small one
    (40 dB), whose small-u structure is the finest."""

    @staticmethod
    def _cases(nt, nr, delta):
        """``(receiver, c0, engine value, mpmath value)`` at 10 and 40 dB."""
        for snr_db in (10.0, 40.0):
            cfg = SystemConfig(nt=nt, nr=nr, t=100, tp=nt, rho=db_to_linear(snr_db), delta=delta)
            c0 = derive_params(cfg).c0
            for r in Receiver:
                got = _rate_quadrature_c0(r, nt, nr, delta, np.array([c0]))[0]
                yield r, c0, got, float(_mp_rate_integral(r, nt, nr, delta, c0))

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.15])
    @pytest.mark.parametrize("nt, nr", [(4, 4), (8, 64)])
    def test_matches_mpmath(self, nt, nr, delta):
        for r, c0, got, want in self._cases(nt, nr, delta):
            assert abs(got - want) <= 1e-13 * want, (r, c0, got, want)

    def test_mean_signed_error_is_unbiased(self):
        # Over the 36 cases above, the relative errors average -1.3e-16 on
        # the Gauss-Kronrod 20/41 pair; the unshared 20/41 Gauss pair before
        # it averaged -3.8e-15, a bias of a few ulps per rate.
        errors = [
            (got - want) / want
            for (nt, nr), delta in itertools.product([(4, 4), (8, 64)], [0.0, 0.05, 0.15])
            for _, _, got, want in self._cases(nt, nr, delta)
        ]
        assert len(errors) == 36
        assert abs(np.mean(errors)) <= 1e-15, np.mean(errors)


class TestRateLowSnr:
    def test_frozen_value(self):
        # MRC, nt=nr=4, t=200, tp=100, rho=0.01:
        # 100*100*4*1e-4 / (ln2 * 200 * 4) = 4 / (800 ln 2)
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=100, rho=0.01)
        assert rate_low_snr(Receiver.MRC, cfg) == pytest.approx(
            0.007213475204444817, rel=1e-12
        )

    def test_distortion_free(self):
        a = SystemConfig(nt=4, nr=4, t=200, tp=100, rho=0.01, delta=0.0)
        b = SystemConfig(nt=4, nr=4, t=200, tp=100, rho=0.01, delta=0.15)
        for r in Receiver:
            assert rate_low_snr(r, a) == rate_low_snr(r, b)

    def test_zf_stream_penalty(self):
        cfg = SystemConfig(nt=4, nr=6, t=200, tp=100, rho=0.01)
        # ZF carries (nr-nt+1)=3 effective branches, MRC carries nr=6.
        assert rate_low_snr(Receiver.MRC, cfg) == pytest.approx(
            2.0 * rate_low_snr(Receiver.ZF, cfg), rel=1e-12
        )
        assert rate_low_snr(Receiver.MMSE, cfg) == rate_low_snr(Receiver.MRC, cfg)

    def test_tracks_quadrature_at_very_low_snr(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=100, rho=db_to_linear(-25), delta=0.05)
        for r in Receiver:
            ratio = rate_quadrature(r, cfg) / rate_low_snr(r, cfg)
            assert 0.9 <= ratio <= 1.1, (r, ratio)


class TestRateCeiling:
    def test_power_independent(self):
        a = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1.0, delta=0.1)
        b = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1e6, delta=0.1)
        for r in Receiver:
            assert rate_ceiling(r, a) == rate_ceiling(r, b)

    def test_closed_form_approaches_ceiling(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(60), delta=0.1)
        huge = cfg.with_rho(1e8)
        for r in Receiver:
            ceil = rate_ceiling(r, cfg)
            assert rate_closed_form(r, huge) == pytest.approx(ceil, rel=1e-3)
            assert rate_closed_form(r, cfg) == pytest.approx(ceil, rel=1e-2)

    def test_monotone_in_training_length(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        vals = [rate_ceiling(Receiver.MMSE, cfg.with_tp(tp)) for tp in (4, 8, 16)]
        assert vals[0] < vals[1] < vals[2]

    def test_undefined_for_ideal_hardware(self):
        # delta = 1e-200 squares to 0 in doubles: ideal hardware as far as
        # the arithmetic goes.
        for delta in (0.0, 1e-200):
            cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=delta)
            with pytest.raises(ValueError, match="no rate ceiling"):
                rate_ceiling(Receiver.ZF, cfg)


class TestBlockedIntegrand:
    """The rate integrand is filled in blocks of c0 rows; where the block
    edges fall must not move a bit of any rate or CDF."""

    CONFIGS = [
        SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(10), delta=delta)
        for delta in (0.0, 0.15)
    ] + [
        SystemConfig(nt=5, nr=30, t=40, tp=5, rho=db_to_linear(15), delta=delta)
        for delta in (0.0, 0.15)
    ]

    @staticmethod
    def _bits(cfg):
        gammas = np.geomspace(1e-2, 1e2, 31)
        out = []
        for r in Receiver:
            out.append(rate_scan(r, cfg).tobytes())
            out.append(float(rate_quadrature(r, cfg.with_tp(cfg.nt + 3))).hex())
            if cfg.delta > 0:
                out.append(float(rate_ceiling(r, cfg)).hex())
            out.append(sinr_cdf(r, cfg, gammas).tobytes())
            out.append(float(sinr_cdf(r, cfg, 2.0)).hex())
        return out

    @pytest.mark.parametrize("working_set", [None, 40 * analytic._SEED_KNOTS * 41],
                             ids=["one-chunk", "40-per-chunk"])
    def test_block_edges_do_not_move_bits(self, monkeypatch, working_set):
        if working_set is not None:
            monkeypatch.setattr(analytic, "_WORKING_SET", working_set)
        want = [self._bits(cfg) for cfg in self.CONFIGS]
        for rows in (1, 7, 10**9):  # one row, a ragged last block, one block
            with monkeypatch.context() as m:
                m.setattr(analytic, "_block_rows", lambda n, rows=rows: rows)
                assert [self._bits(cfg) for cfg in self.CONFIGS] == want, rows

    def test_level_peak_memory_is_its_integrand_array(self):
        # MMSE at 4x4, t=200, delta=0, 170 dB: one level at the 1888
        # intervals of the deepest level the 12-knot seeds used to need
        # there, 15.2M values (116 MiB).  The whole-array integrand peaked
        # at 5x that; blocks keep the level near the array itself.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(170), delta=0.0)
        c0 = derive_params_at(cfg, np.arange(4, 200)).c0
        u_max, _ = _u_knots(cfg.nr - 1, float(c0.min()), 0.0)
        edges = np.linspace(0.0, u_max, 1889)
        f = functools.partial(_rate_integrand, Receiver.MMSE, 4, 4, 0.0, c0)
        tracemalloc.start()
        try:
            _eval_panels(f, edges[:-1], edges[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = c0.size * 1888 * 41
        assert peak <= 1.25 * 8 * values, peak / (8 * values)


class TestHighSnrSeedKnots:
    """At delta = 0 and very high SNR, c0 falls below the old seed floor of
    u_max 1e-15 and the seeds reach down to c0 1e-3: every scan returns."""

    SNRS_DB = (172.0, 176.0, 200.0, 250.0, 300.0)

    @staticmethod
    def _cfg(snr_db):
        return SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(snr_db), delta=0.0)

    def test_scans_return_finite_rates_that_grow_with_snr(self):
        for r in Receiver:
            rates = [optimize_tp_exact(self._cfg(s), r).rate_at_star for s in self.SNRS_DB]
            assert all(math.isfinite(x) for x in rates), (r, rates)
            if r is not Receiver.MRC:  # MRC is interference-limited
                assert all(a < b for a, b in zip(rates, rates[1:])), (r, rates)

    def test_matches_mpmath_at_172_db(self):
        cfg = self._cfg(172.0)
        for r in Receiver:
            res = optimize_tp_exact(cfg, r)
            point = cfg.with_tp(res.tp_star)
            c0 = derive_params(point).c0
            want = float(_mp_rate_integral(r, 4, 4, 0.0, c0))
            prefactor = (cfg.t - res.tp_star) * cfg.nt / (math.log(2.0) * cfg.t)
            assert res.rate_at_star == pytest.approx(prefactor * want, rel=1e-9), r
