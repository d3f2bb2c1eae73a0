"""Tests for system configuration and derived scalars."""

import math

import numpy as np
import pytest

from mimolink import (
    Receiver,
    SystemConfig,
    db_to_linear,
    derive_params,
    derive_params_at,
    linear_to_db,
)


class TestSystemConfigValidation:
    def test_valid_config_constructs(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        assert cfg.nt == 4
        assert cfg.td == 196

    def test_rejects_tp_below_nt(self):
        with pytest.raises(ValueError, match="nt <= tp < t"):
            SystemConfig(nt=4, nr=4, t=200, tp=3, rho=10.0)

    def test_rejects_tp_at_t(self):
        with pytest.raises(ValueError, match="nt <= tp < t"):
            SystemConfig(nt=4, nr=4, t=200, tp=200, rho=10.0)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError, match="rho"):
            SystemConfig(nt=4, nr=4, t=200, tp=4, rho=0.0)
        with pytest.raises(ValueError, match="rho"):
            SystemConfig(nt=4, nr=4, t=200, tp=4, rho=-1.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="delta"):
            SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=-0.1)

    @pytest.mark.parametrize("field", ["rho", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rho_and_delta(self, field, value):
        kwargs = dict(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("field", ["nt", "nr", "t", "tp"])
    @pytest.mark.parametrize("value", [4.5, 4.0, math.nan, "4"])
    def test_rejects_non_integral_counts(self, field, value):
        kwargs = dict(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SystemConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = SystemConfig(nt=np.int64(4), nr=np.int32(8), t=200, tp=np.int64(6), rho=10.0)
        assert cfg.nr == 8

    def test_rejects_bad_antenna_counts(self):
        with pytest.raises(ValueError, match="antenna counts"):
            SystemConfig(nt=0, nr=4, t=200, tp=4, rho=10.0)

    def test_frozen(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0)
        with pytest.raises(AttributeError):
            cfg.nt = 8

    def test_with_tp_and_with_rho(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.05)
        cfg2 = cfg.with_tp(10)
        assert cfg2.tp == 10 and cfg2.delta == 0.05 and cfg.tp == 4
        cfg3 = cfg.with_rho(100.0)
        assert cfg3.rho == 100.0 and cfg3.tp == 4
        with pytest.raises(ValueError):
            cfg.with_tp(3)


class TestReceiverEnum:
    def test_values_and_str(self):
        assert str(Receiver.ZF) == "zf"
        assert str(Receiver.MRC) == "mrc"
        assert str(Receiver.MMSE) == "mmse"
        assert Receiver("mmse") is Receiver.MMSE


class TestDbConversion:
    def test_round_trip(self):
        for db in [-25.0, -10.0, 0.0, 10.0, 37.5, 60.0]:
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_known_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(30.0) == pytest.approx(1000.0)

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    @pytest.mark.parametrize("convert", [linear_to_db, db_to_linear])
    def test_rejects_nan(self, convert):
        with pytest.raises(ValueError):
            convert(math.nan)


class TestDerivedParams:
    def test_epsilon_and_nmse_ideal(self):
        # nt=4, tp=4, rho=10, delta=0: epsilon = 10*4/4 = 10, NMSE = 1/11.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0)
        dp = derive_params(cfg)
        assert dp.epsilon == pytest.approx(10.0, rel=1e-15)
        assert dp.sigma2_err == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert dp.sigma2_est == pytest.approx(10.0 / 11.0, rel=1e-15)
        assert dp.sigma2_err + dp.sigma2_est == pytest.approx(1.0, rel=1e-15)

    def test_nmse_floor_with_impairments(self):
        # High SNR with delta=0.1: epsilon -> tp/(nt*delta^2) = 100, so the
        # NMSE floor is 1/101.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1e12, delta=0.1)
        dp = derive_params(cfg)
        assert dp.sigma2_err == pytest.approx(1.0 / 101.0, rel=1e-9)

    def test_c0_reference_value(self):
        # nt=nr=4, tp=4, rho=10, delta=0: epsilon=10 and
        # c0 = 4*(10+0+1+10)/(10*10) = 84/100 = 0.84 exactly.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0)
        dp = derive_params(cfg)
        assert dp.c0 == pytest.approx(0.84, rel=1e-15)
        assert dp.c1 == pytest.approx(0.21, rel=1e-15)

    def test_c0_bar_formula(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        dp = derive_params(cfg)
        expected = 0.01 * 1.01 * 16 / 4
        assert dp.c0_bar == pytest.approx(expected, rel=1e-15)

    def test_c0_bar_zero_when_ideal(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.0)
        assert derive_params(cfg).c0_bar == 0.0

    def test_c0_approaches_c0_bar_at_high_snr(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1e10, delta=0.1)
        dp = derive_params(cfg)
        assert dp.c0 == pytest.approx(dp.c0_bar, rel=1e-6)

    def test_c0_decreasing_in_snr(self):
        base = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1.0, delta=0.1)
        c0s = [derive_params(base.with_rho(r)).c0 for r in [0.1, 1.0, 10.0, 1e3, 1e6]]
        assert all(a > b for a, b in zip(c0s, c0s[1:]))

    def test_beta_and_sigma2_err_floor(self):
        cfg = SystemConfig(nt=4, nr=16, t=200, tp=8, rho=10.0, delta=0.1)
        assert derive_params(cfg).beta == 4.0
        # 4x4, tp=4, delta=0.1: tp/(nt delta^2) = 100, so the floor is 1/101
        # at any SNR, and sigma2_err reaches it from above as rho grows.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        assert derive_params(cfg).sigma2_err_floor == pytest.approx(1 / 101, rel=1e-14)
        high = derive_params(cfg.with_rho(1e12))
        assert high.sigma2_err > high.sigma2_err_floor
        assert high.sigma2_err == pytest.approx(high.sigma2_err_floor, rel=1e-9)
        for delta in (0.0, 1e-200):  # delta**2 == 0 in doubles: ideal hardware
            ideal = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=delta)
            assert derive_params(ideal).sigma2_err_floor == 0.0

    def test_c1_is_c0_over_nt(self):
        cfg = SystemConfig(nt=5, nr=30, t=100, tp=7, rho=3.7, delta=0.05)
        dp = derive_params(cfg)
        assert dp.c1 == pytest.approx(dp.c0 / cfg.nt, rel=1e-14)

    def test_pure_function(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        a, b = derive_params(cfg), derive_params(cfg)
        assert a == b


class TestDeriveParamsAt:
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.175])
    @pytest.mark.parametrize("snr_db", [-10.0, 7.3, 40.0])
    def test_array_equals_scalar_bit_for_bit(self, snr_db, delta):
        cfg = SystemConfig(nt=8, nr=64, t=300, tp=8, rho=db_to_linear(snr_db), delta=delta)
        tp = np.arange(cfg.nt, cfg.t)
        vec = derive_params_at(cfg, tp)
        for field in vec.__dataclass_fields__:
            col = np.broadcast_to(getattr(vec, field), tp.shape)
            want = [getattr(derive_params(cfg.with_tp(int(k))), field) for k in tp]
            assert [float(x).hex() for x in col] == [x.hex() for x in want], field

    def test_int_is_derive_params(self):
        cfg = SystemConfig(nt=4, nr=6, t=50, tp=9, rho=3.0, delta=0.1)
        assert derive_params_at(cfg, 9) == derive_params(cfg)
        assert derive_params_at(cfg.with_tp(4), 9) == derive_params(cfg)


class TestEpsilonMonotonicity:
    def test_epsilon_increases_with_tp(self):
        base = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=10.0, delta=0.1)
        eps = [derive_params(base.with_tp(tp)).epsilon for tp in range(4, 17)]
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_epsilon_saturates_under_impairments(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=8, rho=1e14, delta=0.1)
        cap = cfg.tp / (cfg.nt * 0.1**2)
        assert derive_params(cfg).epsilon == pytest.approx(cap, rel=1e-9)
        assert derive_params(cfg).epsilon < cap
