"""Tests for the large-system deterministic equivalents and RMT checks."""

import math

import numpy as np
import pytest

from mimolink import (
    AccuracyError,
    Receiver,
    SystemConfig,
    db_to_linear,
    derive_params,
    derive_params_at,
)
from mimolink.analytic import rate_scan
from mimolink.largescale import (
    _mmse_m,
    det_rate,
    det_rate_scan,
    det_sinr,
    det_sinr_limit,
)
from mimolink.simulate import RandomStream

from _util import rmt_lemma_check


def _mmse_fixed_point(
    beta: float, c1: float, delta: float, tol: float = 1e-13, max_iter: int = 100000
) -> float:
    """Iterate ``s m = (beta - 1) + 1/(1 + m)`` to its positive fixed point.

    Exists as an independent cross-check of :func:`_mmse_m`; the two must
    agree to ~1e-8 or better for every valid parameter set.
    """
    s = c1 / (1.0 + delta * delta)
    m = beta / (s + 1.0)  # any positive start converges (contraction)
    for _ in range(max_iter):
        nxt = ((beta - 1.0) + 1.0 / (1.0 + m)) / s
        if abs(nxt - m) <= tol * max(1.0, abs(nxt)):
            return nxt
        m = nxt
    raise AccuracyError("MMSE fixed-point iteration did not converge")


class TestDetSinr:
    def test_reference_values_beta_two(self):
        # beta=2, c1=0.21, delta=0 (the rho=10, tp=nt operating point):
        # ZF = 1/0.21 = 100/21, MRC = 2/1.21 = 200/121, MMSE via the
        # quadratic  0.21 m^2 - 0.79 m - 2 = 0.
        assert det_sinr(Receiver.ZF, 2.0, 0.21, 0.0) == pytest.approx(100 / 21, rel=1e-14)
        assert det_sinr(Receiver.MRC, 2.0, 0.21, 0.0) == pytest.approx(
            200 / 121, rel=1e-14
        )
        assert det_sinr(Receiver.MMSE, 2.0, 0.21, 0.0) == pytest.approx(
            5.495062421227851, rel=1e-13
        )

    def test_derive_params_gives_the_inputs(self):
        cfg = SystemConfig(nt=32, nr=64, t=500, tp=32, rho=10.0, delta=0.0)
        dp = derive_params(cfg)
        assert dp.beta == 2.0
        assert dp.epsilon == pytest.approx(10.0, rel=1e-14)
        assert dp.c1 == pytest.approx(0.21, rel=1e-14)
        assert det_sinr(Receiver.ZF, dp.beta, dp.c1, cfg.delta) == pytest.approx(
            100 / 21, rel=1e-13
        )

    def test_validation(self):
        for receiver in Receiver:
            with pytest.raises(ValueError, match="beta >= 1"):
                det_sinr(receiver, 0.5, 0.2, 0.0)
            with pytest.raises(ValueError, match="c1 > 0"):
                det_sinr(receiver, 2.0, 0.0, 0.0)
            with pytest.raises(ValueError, match="c1 > 0"):
                det_sinr(receiver, 2.0, np.array([0.2, -0.1]), 0.0)

    def test_mmse_reference_value_with_distortion(self):
        # beta=2, c1=0.21, delta=0.3: m is the positive root of
        # s m^2 + (s - 1) m - 2 = 0 with s = 0.21/1.09, and the SINR is
        # m/(1.09 + 0.09 m) = 3.6557.
        s = 0.21 / 1.09
        m = max(np.roots([s, s - 1.0, -2.0]).real)
        assert det_sinr(Receiver.MMSE, 2.0, 0.21, 0.3) == pytest.approx(
            m / (1.09 + 0.09 * m), rel=1e-12
        )

    def test_fixed_point_raises_accuracy_error(self):
        with pytest.raises(AccuracyError, match="did not converge"):
            _mmse_fixed_point(2.0, 0.21, 0.1, max_iter=1)

    def test_zf_needs_beta_above_one(self):
        with pytest.raises(ValueError, match="beta > 1"):
            det_sinr(Receiver.ZF, 1.0, 0.21, 0.0)
        # MRC and MMSE are fine at beta = 1.
        det_sinr(Receiver.MRC, 1.0, 0.21, 0.0)
        det_sinr(Receiver.MMSE, 1.0, 0.21, 0.0)

    def test_zf_vanishes_toward_beta_one(self):
        vals = [
            det_sinr(Receiver.ZF, b, 0.21, 0.0)
            for b in (1.5, 1.1, 1.01, 1.001)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.001 / 0.21, rel=1e-12)

    def test_receiver_ordering_and_wall(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            beta = float(1.0 + 10 ** rng.uniform(-2, 1.5))
            c1 = float(10 ** rng.uniform(-2, 1))
            delta = float(rng.uniform(0.01, 0.3))
            zf = det_sinr(Receiver.ZF, beta, c1, delta)
            mrc = det_sinr(Receiver.MRC, beta, c1, delta)
            mmse = det_sinr(Receiver.MMSE, beta, c1, delta)
            wall = 1.0 / delta**2
            assert mmse >= zf >= 0 and mmse >= mrc
            assert max(zf, mrc, mmse) < wall

    def test_fixed_point_cross_check(self):
        # The closed quadratic solution and the independent fixed-point
        # iteration must agree to 1e-8 or better across the grid.
        for beta in (1.0, 1.2, 2.0, 4.0, 31.9):
            for c1 in (0.05, 0.21, 1.7, 9.0):
                for delta in (0.0, 0.05, 0.1, 0.175):
                    closed = _mmse_m(beta, c1, delta)
                    iterated = _mmse_fixed_point(beta, c1, delta)
                    assert closed == pytest.approx(iterated, rel=1e-8), (
                        beta,
                        c1,
                        delta,
                    )

    def test_mmse_m_satisfies_fixed_point_residual(self):
        # s*m = (beta-1) + 1/(1+m) must hold at machine precision; this is
        # what selects the correct root normalization.
        dp = derive_params(
            SystemConfig(nt=32, nr=64, t=500, tp=32, rho=10.0, delta=0.1)
        )
        m = _mmse_m(dp.beta, dp.c1, 0.1)
        s = dp.c1 / 1.01
        residual = s * m - (dp.beta - 1.0) - 1.0 / (1.0 + m)
        assert abs(residual) < 1e-12

    def test_limit_approached_at_huge_beta(self):
        delta = 0.1
        for r in Receiver:
            assert det_sinr(r, 1e6, 0.21, delta) == pytest.approx(
                det_sinr_limit(delta), rel=1e-3
            )


class TestDetSinrLimit:
    def test_values(self):
        assert det_sinr_limit(0.1) == pytest.approx(100.0, rel=1e-14)
        assert det_sinr_limit(0.05) == pytest.approx(400.0, rel=1e-14)

    def test_rate_per_stream_at_limit(self):
        assert math.log2(1.0 + det_sinr_limit(0.1)) == pytest.approx(
            6.658211483, abs=1e-9
        )

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            det_sinr_limit(0.0)


@pytest.mark.parametrize("receiver", list(Receiver) + [None])
@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
def test_bad_delta_raises_instead_of_nan(receiver, delta):
    with pytest.raises(ValueError):
        if receiver is None:
            det_sinr_limit(delta)
        else:
            det_sinr(receiver, 2.0, 0.2, delta)


class TestDetRate:
    def test_reference_value(self):
        # (nt=32, nr=64, t=500, tp=32, rho=10, delta=0), ZF:
        # (1 - 32/500) * 32 * log2(1 + 100/21)
        cfg = SystemConfig(nt=32, nr=64, t=500, tp=32, rho=10.0, delta=0.0)
        assert det_rate(Receiver.ZF, cfg) == pytest.approx(
            75.675100235779227, rel=1e-13
        )

    def test_concave_in_training_length(self):
        cfg = SystemConfig(nt=8, nr=16, t=500, tp=8, rho=db_to_linear(10), delta=0.1)
        rates = [det_rate(Receiver.MMSE, cfg.with_tp(tp)) for tp in range(8, 200)]
        second = np.diff(rates, n=2)
        assert np.all(second <= 1e-10)

    def test_vanishes_as_training_fills_block(self):
        # tp = t is not a constructible configuration (the data phase would
        # be empty); the prefactor (1 - tp/t) drives the rate toward 0 as
        # tp approaches t from below.
        cfg = SystemConfig(nt=4, nr=8, t=100, tp=99, rho=10.0, delta=0.1)
        assert det_rate(Receiver.MMSE, cfg) < det_rate(
            Receiver.MMSE, cfg.with_tp(50)
        )
        dp = derive_params(cfg)
        assert det_rate(Receiver.MMSE, cfg) == pytest.approx(
            0.01 * 4 * math.log2(1 + det_sinr(Receiver.MMSE, dp.beta, dp.c1, 0.1)),
            rel=1e-12,
        )


class TestDetRateScan:
    @pytest.mark.parametrize("receiver", list(Receiver))
    @pytest.mark.parametrize("nr, delta", [(16, 0.0), (16, 0.15), (256, 0.1)])
    @pytest.mark.parametrize("snr_db", [-10.0, 10.0, 30.0])
    def test_equals_scalar_det_rate(self, receiver, nr, delta, snr_db):
        cfg = SystemConfig(nt=8, nr=nr, t=500, tp=8, rho=db_to_linear(snr_db), delta=delta)
        rates = det_rate_scan(receiver, cfg)
        assert rates.shape == (cfg.t - cfg.nt,)
        want = np.array([det_rate(receiver, cfg.with_tp(tp)) for tp in range(8, 500)])
        np.testing.assert_allclose(rates, want, rtol=1e-15, atol=0.0)

    def test_det_sinr_broadcasts(self):
        cfg = SystemConfig(nt=4, nr=8, t=40, tp=4, rho=10.0, delta=0.1)
        tp = np.arange(4, 40)
        c1 = derive_params_at(cfg, tp).c1
        for receiver in Receiver:
            vec = det_sinr(receiver, 2.0, c1, 0.1)
            for k, g in zip(tp, vec):
                point = derive_params(cfg.with_tp(int(k))).c1
                assert g == det_sinr(receiver, 2.0, point, 0.1)

    def test_zf_needs_beta_above_one(self):
        cfg = SystemConfig(nt=4, nr=4, t=40, tp=4, rho=10.0, delta=0.1)
        with pytest.raises(ValueError, match="beta > 1"):
            det_rate_scan(Receiver.ZF, cfg)


class TestRmtLemmaChecks:
    def test_inversion_identity_exact(self):
        for n in (8, 64, 256):
            dev = rmt_lemma_check("inversion", n, RandomStream(1))
            assert dev <= 1e-10, n

    def test_trace_concentration(self):
        dev = rmt_lemma_check("trace", 256, RandomStream(2))
        assert dev <= 0.2

    def test_rank1_bound_never_violated(self):
        # Returns the worst (lhs - bound) margin over the draws; <= 0 means
        # the inequality held every time.
        margin = rmt_lemma_check("rank1", 64, RandomStream(3))
        assert margin <= 0.0

    def test_stieltjes_identity_exact(self):
        for n in (8, 64, 256):
            dev = rmt_lemma_check("stieltjes", n, RandomStream(4))
            assert dev <= 1e-10, n

    def test_validation(self):
        with pytest.raises(ValueError):
            rmt_lemma_check("inversion", 1, RandomStream(1))
        with pytest.raises(ValueError):
            rmt_lemma_check("unknown-lemma", 8, RandomStream(1))


class TestLargeSystemLaw:
    """The exact rate tends to its deterministic equivalent as the array grows
    at fixed beta = nr/nt, checked without Monte Carlo noise: the quadrature
    engine's scan against ``det_rate_scan`` at beta=2, delta=.1, 10 dB,
    t=400."""

    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_gap_halves_per_doubling(self, receiver):
        gaps, stars = [], []
        for nt in (4, 8, 16, 32, 64):
            cfg = SystemConfig(nt=nt, nr=2 * nt, t=400, tp=nt,
                               rho=db_to_linear(10), delta=0.1)
            exact, det = rate_scan(receiver, cfg), det_rate_scan(receiver, cfg)
            gaps.append(float(np.max(np.abs(exact - det) / exact)))
            stars.append((int(np.argmax(exact)), int(np.argmax(det))))
        # A 1/nt law: each doubling of nt measured a ratio of 0.50-0.53.
        ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
        assert np.all((ratios > 0.4) & (ratios < 0.6)), gaps
        # The extra training vanishes: tp* agrees from nt = 32 on.
        assert stars[3][0] == stars[3][1] and stars[4][0] == stars[4][1], stars
