"""Tests for the training-length optimizer."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimolink import Receiver, SystemConfig, analytic, db_to_linear, training
from mimolink.analytic import rate_closed_form, rate_quadrature, rate_scan
from mimolink.largescale import _det_rate, det_rate
from mimolink.training import TpSearchResult, optimize_tp_asymptotic, optimize_tp_exact


class TestTpSearchResult:
    def test_valid(self):
        r = TpSearchResult(
            tp_star=4, rate_at_star=2.0, trace=((4, 2.0), (5, 1.0)), method="exhaustive"
        )
        assert r.tp_star == 4

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown search method"):
            TpSearchResult(
                tp_star=4, rate_at_star=2.0, trace=((4, 2.0),), method="newton"
            )

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="empty"):
            TpSearchResult(tp_star=4, rate_at_star=2.0, trace=(), method="exhaustive")

    def test_rejects_rate_not_max(self):
        with pytest.raises(ValueError, match="best traced rate"):
            TpSearchResult(
                tp_star=4, rate_at_star=1.0, trace=((4, 2.0), (5, 1.0)),
                method="exhaustive",
            )

    def test_rejects_tie_break_toward_larger_tp(self):
        with pytest.raises(ValueError, match="smallest maximizer"):
            TpSearchResult(
                tp_star=5, rate_at_star=2.0, trace=((4, 2.0), (5, 2.0)),
                method="exhaustive",
            )


    def test_trace_reads_like_a_tuple_of_pairs(self):
        pairs = ((4, 2.0), (5, 1.0))
        r = TpSearchResult(tp_star=4, rate_at_star=2.0, trace=pairs, method="exhaustive")
        assert r.trace == pairs and hash(r.trace) == hash(pairs)
        assert list(r.trace) == list(pairs) and len(r.trace) == 2
        assert r.trace[-1] == (5, 1.0) and r.trace[:1] == ((4, 2.0),)
        assert [type(x) for x in r.trace[0]] == [int, float]
        assert r == TpSearchResult(
            tp_star=4, rate_at_star=2.0, trace=list(pairs), method="exhaustive"
        )
        assert pickle.loads(pickle.dumps(r)) == r

    def test_rejects_unsorted_trace(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TpSearchResult(
                tp_star=4, rate_at_star=2.0, trace=((5, 2.0), (4, 2.0)),
                method="exhaustive",
            )

    def test_trace_input_contract(self):
        # Any iterable of pairs; numpy scalars read back as int and float.
        pairs = iter([(np.int64(4), np.float64(2.0)), (np.int32(5), np.float32(1.0))])
        r = TpSearchResult(tp_star=np.int64(4), rate_at_star=2.0, trace=pairs,
                           method="exhaustive")
        assert r.trace == ((4, 2.0), (5, 1.0))
        assert [type(x) for pair in r.trace for x in pair] == [int, float] * 2
        for bad in (((4.0, 2.0),), ((4, "2.0"),), ((4, None),), ((4, 2j),)):
            with pytest.raises(TypeError):
                TpSearchResult(tp_star=4, rate_at_star=2.0, trace=bad, method="exhaustive")

    def test_exhaustive_scan_holding_nan_raises(self, monkeypatch):
        monkeypatch.setattr(
            training, "rate_scan", lambda receiver, cfg: np.array([1.0, np.nan, 0.5, 0.2])
        )
        cfg = SystemConfig(nt=4, nr=4, t=8, tp=4, rho=db_to_linear(10), delta=0.05)
        with pytest.raises(ValueError, match="best traced rate"):
            optimize_tp_exact(cfg, Receiver.ZF)

    def test_exhaustive_result_is_compact(self):
        # A full scan keeps, in place of its pairs, the scan function, the
        # receiver and the config that computed them: ~100 B at t=200,
        # against ~17 KB for the 196 pairs as a tuple of (int, float) tuples.
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(10), delta=0.05)
        res = optimize_tp_exact(cfg, Receiver.MMSE)  # warms every cache
        tracemalloc.start()
        try:
            kept = optimize_tp_exact(cfg, Receiver.MMSE)
            with_kept = tracemalloc.get_traced_memory()[0]
            del kept
            retained = with_kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 160
        pairs = tuple(zip(range(4, 200), rate_scan(Receiver.MMSE, cfg).tolist()))
        trace = res.trace
        assert tuple(trace) == pairs and list(trace) == list(pairs) and len(trace) == 196
        assert trace == pairs and hash(trace) == hash(pairs)
        assert trace[0] == pairs[0] and trace[-1] == pairs[-1] and trace[3:6] == pairs[3:6]
        assert [type(x) for x in trace[5]] == [int, float]
        assert pickle.loads(pickle.dumps(res)) == res

    def test_results_are_slotted_values(self):
        cfg = SystemConfig(nt=4, nr=4, t=40, tp=4, rho=db_to_linear(10), delta=0.05)
        exhaustive = optimize_tp_exact(cfg, Receiver.MMSE)
        pairs = TpSearchResult(tp_star=4, rate_at_star=2.0, trace=((4, 2.0), (5, 1.0)),
                               method="exhaustive")
        for res in (exhaustive, pairs):
            assert not hasattr(res, "__dict__")
            with pytest.raises(AttributeError):
                res.tp_star = 5
            copy = pickle.loads(pickle.dumps(res))
            assert copy == res and hash(copy) == hash(res)
        assert exhaustive == optimize_tp_exact(cfg.with_tp(9), Receiver.MMSE)
        assert exhaustive != optimize_tp_exact(cfg, Receiver.ZF)

    def test_exhaustive_trace_recomputes_its_scan_once(self, monkeypatch):
        # Building the result runs the scan once; the first read of the
        # trace runs it once more, later reads not at all, and the rates
        # read back are the scan's, bit for bit.
        calls = []

        def counting(receiver, cfg):
            calls.append(cfg.tp)
            return rate_scan(receiver, cfg)

        monkeypatch.setattr(training, "rate_scan", counting)
        cfg = SystemConfig(nt=4, nr=4, t=60, tp=4, rho=db_to_linear(20), delta=0.15)
        res = optimize_tp_exact(cfg, Receiver.ZF)
        assert len(calls) == 1
        first = list(res.trace)
        assert len(calls) == 2
        assert res.trace[7] == first[7] and res.trace == tuple(first) and len(res.trace) == 56
        assert hash(res.trace) == hash(tuple(first)) and len(calls) == 2
        want = rate_scan(Receiver.ZF, cfg)
        assert [r for _, r in first] == want.tolist()
        assert [tp for tp, _ in first] == list(range(4, 60))
        assert pickle.loads(pickle.dumps(res)) == res


class TestOptimizeTpExact:
    def test_deterministic_replay(self):
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(10), delta=0.05)
        a = optimize_tp_exact(cfg, Receiver.MMSE)
        b = optimize_tp_exact(cfg, Receiver.MMSE)
        assert a == b

    def test_trace_covers_full_feasible_range(self):
        cfg = SystemConfig(nt=4, nr=4, t=50, tp=4, rho=db_to_linear(10), delta=0.1)
        res = optimize_tp_exact(cfg, Receiver.ZF)
        assert res.method == "exhaustive"
        assert [tp for tp, _ in res.trace] == list(range(4, 50))
        assert cfg.nt <= res.tp_star < cfg.t

    def test_seed_tp_does_not_matter(self):
        base = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(5), delta=0.1)
        other = base.with_tp(60)
        assert optimize_tp_exact(base, Receiver.MRC) == optimize_tp_exact(
            other, Receiver.MRC
        )

    def test_low_snr_approach_to_half_block(self):
        # As SNR vanishes the optimum training share climbs toward half
        # the coherence block (the limiting argmax of tp*(t-tp)).  The
        # finite-SNR values below were confirmed by integrating the rate
        # independently (adaptive quadrature of the survival function over
        # the SINR axis agrees with the package to ~4e-15 and gives the
        # same ordering around the optimum).
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1.0, delta=0.05)
        stars = [
            optimize_tp_exact(cfg.with_rho(db_to_linear(s)), Receiver.MMSE).tp_star
            for s in (-20.0, -25.0, -30.0)
        ]
        assert stars == [90, 96, 99]
        assert all(a < b <= 100 for a, b in zip(stars, stars[1:]))

    def test_low_snr_limit_law_peaks_at_half_block(self):
        # The leading-order low-SNR law itself is exactly symmetric in
        # tp (t - tp), so its integer argmax is t/2.
        from mimolink.analytic import rate_low_snr

        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1e-4)
        rates = [rate_low_snr(Receiver.MMSE, cfg.with_tp(tp)) for tp in range(4, 200)]
        assert 4 + int(np.argmax(rates)) == 100

    def test_ideal_hardware_high_snr_trend(self):
        # tp* shrinks monotonically with SNR toward the antenna count; the
        # 30 dB value for MMSE was cross-checked against a 2e5-trial Monte
        # Carlo rate comparison (tp=10 beats tp=4 by ~4%, far above noise).
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=1.0, delta=0.0)
        stars = [
            optimize_tp_exact(cfg.with_rho(db_to_linear(s)), Receiver.MMSE).tp_star
            for s in (0.0, 10.0, 20.0, 30.0)
        ]
        assert stars == [26, 15, 13, 10]
        assert all(a >= b for a, b in zip(stars, stars[1:]))

    def test_impairments_push_training_up_at_high_snr(self):
        cfg0 = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(30), delta=0.0)
        cfg15 = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(30), delta=0.15)
        assert (
            optimize_tp_exact(cfg15, Receiver.MMSE).tp_star
            > optimize_tp_exact(cfg0, Receiver.MMSE).tp_star
        )


@st.composite
def _scan_case(draw):
    receiver = draw(st.sampled_from(list(Receiver)))
    nt = draw(st.integers(1, 16))
    nr = draw(st.integers(nt, 16))
    t = nt + draw(st.integers(1, 6))
    snr_db = draw(st.floats(-10.0, 50.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.175)))
    return receiver, SystemConfig(
        nt=nt, nr=nr, t=t, tp=nt, rho=db_to_linear(snr_db), delta=delta
    )


class TestBatchedScanEngine:
    @settings(max_examples=100, deadline=None)
    @given(_scan_case())
    def test_trace_matches_single_point_rates(self, case):
        # Every rate of the batched scan is the single-c0 quadrature rate,
        # and for delta > 0 also the closed form.
        receiver, cfg = case
        res = optimize_tp_exact(cfg, receiver)
        assert [tp for tp, _ in res.trace] == list(range(cfg.nt, cfg.t))
        for tp, rate in res.trace:
            point = cfg.with_tp(tp)
            assert rate == pytest.approx(rate_quadrature(receiver, point), rel=1e-10)
            if cfg.delta > 0:
                assert rate == pytest.approx(rate_closed_form(receiver, point), rel=1e-8)

    def test_chunked_scan_matches_single_point_rates(self, monkeypatch):
        # With the working set cut to 40 c0 values a chunk, 196 training
        # lengths span five chunks of the batched integral (a 4x4 scan is
        # one chunk at the real bound); chunk edges must not show in the
        # trace.
        monkeypatch.setattr(analytic, "_WORKING_SET", 40 * analytic._SEED_KNOTS * 41)
        cfg = SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(10), delta=0.05)
        for receiver in Receiver:
            trace = dict(optimize_tp_exact(cfg, receiver).trace)
            for tp in (4, 5, 20, 38, 43, 44, 83, 84, 100, 163, 164, 198, 199):
                assert trace[tp] == pytest.approx(
                    rate_quadrature(receiver, cfg.with_tp(tp)), rel=1e-10
                )

    # fig4 subset: tp* of the closed-form scan this engine replaced, at
    # -10, 0, 10, 20, 30, 40 dB (4x4, t=200).
    FIG4_TP_STAR = {
        (0.0, Receiver.ZF): [59, 31, 19, 14, 11, 9],
        (0.0, Receiver.MRC): [57, 24, 9, 4, 4, 4],
        (0.0, Receiver.MMSE): [58, 26, 15, 13, 10, 9],
        (0.15, Receiver.ZF): [59, 31, 21, 21, 25, 26],
        (0.15, Receiver.MRC): [57, 24, 10, 6, 5, 5],
        (0.15, Receiver.MMSE): [58, 26, 17, 18, 22, 24],
    }

    @pytest.mark.parametrize("delta, receiver", list(FIG4_TP_STAR))
    def test_fig4_tp_star_pinned(self, delta, receiver):
        stars = [
            optimize_tp_exact(
                SystemConfig(nt=4, nr=4, t=200, tp=4, rho=db_to_linear(s), delta=delta),
                receiver,
            ).tp_star
            for s in (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
        ]
        assert stars == self.FIG4_TP_STAR[delta, receiver]

    # Rates of the scan (4x4, t=12) from the 12-knot seeded u-space
    # Gauss-Kronrod quadrature; a change that moves any bit must re-pin them
    # on purpose.
    RATE_SCAN_PINNED = {
        (0.0, 0.0, Receiver.ZF): [
            "0x1.30a0b6e3b60c7p-2", "0x1.3068b271008c6p-2", "0x1.203fcf48314adp-2",
            "0x1.03a744db9c3cfp-2", "0x1.ba53eac6cea36p-3", "0x1.5d57d9055472bp-3",
            "0x1.e6734459c62afp-4", "0x1.f8c81c600ed93p-5",
        ],
        (10.0, 0.05, Receiver.MRC): [
            "0x1.709859c2544e7p+1", "0x1.49545947b2182p+1", "0x1.1e58ee1ba0e7ep+1",
            "0x1.e23cd4e613f98p+0", "0x1.84db0dcb1dd74p+0", "0x1.25766acba8f91p+0",
            "0x1.8940fb4b7bd3dp-1", "0x1.8ae297aed086cp-2",
        ],
        (30.0, 0.15, Receiver.MMSE): [
            "0x1.0161f711bcc14p+3", "0x1.da83a54316016p+2", "0x1.a76143dce728bp+2",
            "0x1.6c5bddbcfdf52p+2", "0x1.2b57464a0b0aap+2", "0x1.cb3446759164fp+1",
            "0x1.38186ae6665a8p+1", "0x1.3d61143622d54p+0",
        ],
    }

    @pytest.mark.parametrize("snr_db, delta, receiver", list(RATE_SCAN_PINNED))
    def test_rate_scan_bits_pinned(self, snr_db, delta, receiver):
        cfg = SystemConfig(nt=4, nr=4, t=12, tp=4, rho=db_to_linear(snr_db), delta=delta)
        got = [float(r).hex() for r in rate_scan(receiver, cfg)]
        assert got == self.RATE_SCAN_PINNED[snr_db, delta, receiver]


def _math_log2(x):
    """``math.log2`` over an array: the logarithm of the scalar ``det_rate``."""
    return np.array([math.log2(v) for v in x])


class TestOptimizeTpAsymptotic:
    def test_small_t_is_exhaustive(self):
        cfg = SystemConfig(nt=8, nr=16, t=500, tp=8, rho=db_to_linear(10), delta=0.1)
        res = optimize_tp_asymptotic(cfg, Receiver.MMSE)
        assert res.method == "exhaustive"
        assert len(res.trace) == 500 - 8
        assert res.rate_at_star == pytest.approx(
            det_rate(Receiver.MMSE, cfg.with_tp(res.tp_star)), rel=1e-14
        )

    def test_large_t_ternary_matches_brute_force(self):
        # 50 random large-block configs: the bracketing search must return
        # exactly the exhaustive argmax while probing far fewer points.  The
        # exhaustive rates run the scalar det_rate's arithmetic over an
        # array of training lengths; the first config checks that they equal
        # the scalar calls bit for bit.
        rng = np.random.default_rng(23)
        for i in range(50):
            nt = int(rng.integers(2, 17))
            nr = nt * int(rng.integers(2, 5))
            t = int(rng.choice([10_000, 20_000, 50_000]))
            snr_db = float(rng.uniform(-10, 30))
            delta = float(rng.choice([0.0, 0.05, 0.1, 0.15]))
            receiver = list(Receiver)[int(rng.integers(0, 3))]
            cfg = SystemConfig(
                nt=nt, nr=nr, t=t, tp=nt, rho=db_to_linear(snr_db), delta=delta
            )
            res = optimize_tp_asymptotic(cfg, receiver)
            assert res.method == "concave-bisection"
            assert len(res.trace) < 200  # far below the ~t-point full scan
            rates = _det_rate(receiver, cfg, np.arange(nt, t), _math_log2)
            if i == 0:
                assert rates.tolist() == [
                    det_rate(receiver, cfg.with_tp(tp)) for tp in range(nt, t)
                ]
            brute = nt + int(np.argmax(rates))  # the smallest maximizer
            assert res.tp_star == brute, cfg

    def test_massive_array_needs_less_training_when_impaired(self):
        cfg0 = SystemConfig(nt=8, nr=256, t=500, tp=8, rho=db_to_linear(30), delta=0.0)
        cfg15 = SystemConfig(
            nt=8, nr=256, t=500, tp=8, rho=db_to_linear(30), delta=0.15
        )
        s0 = optimize_tp_asymptotic(cfg0, Receiver.MMSE).tp_star
        s15 = optimize_tp_asymptotic(cfg15, Receiver.MMSE).tp_star
        assert s15 <= s0


def _scalar_scan_tp_star(receiver, cfg):
    """tp* of a per-tp scan of the scalar det_rate (smallest maximizer)."""
    rates = [det_rate(receiver, cfg.with_tp(tp)) for tp in range(cfg.nt, cfg.t)]
    return cfg.nt + rates.index(max(rates))


@st.composite
def _asymptotic_case(draw):
    nt = draw(st.integers(1, 64))
    nr = draw(st.integers(nt, 64))
    receivers = list(Receiver) if nr > nt else [Receiver.MRC, Receiver.MMSE]
    receiver = draw(st.sampled_from(receivers))
    t = draw(st.integers(nt + 1, 2000))
    snr_db = draw(st.floats(-10.0, 40.0))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    return receiver, SystemConfig(
        nt=nt, nr=nr, t=t, tp=nt, rho=db_to_linear(snr_db), delta=delta
    )


class TestVectorizedAsymptoticScan:
    @settings(max_examples=100, deadline=None)
    @given(_asymptotic_case())
    def test_matches_scalar_scan(self, case):
        receiver, cfg = case
        res = optimize_tp_asymptotic(cfg, receiver)
        assert res.method == "exhaustive"
        assert res.tp_star == _scalar_scan_tp_star(receiver, cfg)
        for tp, rate in res.trace:
            assert rate == pytest.approx(det_rate(receiver, cfg.with_tp(tp)), rel=1e-15)

    # tp* of the per-tp scalar scan this pass replaced, on the fig5 grid
    # (t=500, -10, -5, ..., 30 dB) and the fig6 grid (t=500, -10, -8, ..., 30 dB).
    FIG5_TP_STAR = {
        (8, 16, 0.0, Receiver.ZF): [137, 95, 65, 47, 36, 30, 26, 23, 20],
        (8, 16, 0.0, Receiver.MRC): [132, 83, 48, 27, 15, 9, 8, 8, 8],
        (8, 16, 0.0, Receiver.MMSE): [133, 87, 58, 42, 34, 29, 26, 23, 20],
        (8, 16, 0.1, Receiver.ZF): [137, 95, 65, 47, 37, 31, 28, 27, 26],
        (8, 16, 0.1, Receiver.MRC): [132, 83, 48, 27, 16, 10, 8, 8, 8],
        (8, 16, 0.1, Receiver.MMSE): [133, 87, 58, 43, 35, 30, 28, 26, 26],
        (16, 32, 0.0, Receiver.ZF): [167, 122, 86, 63, 49, 40, 35, 30, 27],
        (16, 32, 0.0, Receiver.MRC): [161, 108, 65, 37, 21, 16, 16, 16, 16],
        (16, 32, 0.0, Receiver.MMSE): [162, 112, 76, 57, 46, 39, 34, 30, 27],
        (16, 32, 0.1, Receiver.ZF): [167, 122, 86, 64, 50, 42, 38, 36, 35],
        (16, 32, 0.1, Receiver.MRC): [161, 108, 65, 38, 22, 16, 16, 16, 16],
        (16, 32, 0.1, Receiver.MMSE): [162, 112, 77, 57, 47, 41, 37, 35, 35],
        (32, 64, 0.0, Receiver.ZF): [194, 151, 112, 84, 65, 54, 45, 40, 35],
        (32, 64, 0.0, Receiver.MRC): [189, 137, 86, 51, 32, 32, 32, 32, 32],
        (32, 64, 0.0, Receiver.MMSE): [190, 141, 99, 75, 61, 52, 45, 39, 35],
        (32, 64, 0.1, Receiver.ZF): [194, 151, 112, 84, 67, 56, 50, 47, 46],
        (32, 64, 0.1, Receiver.MRC): [189, 137, 86, 51, 32, 32, 32, 32, 32],
        (32, 64, 0.1, Receiver.MMSE): [190, 141, 99, 75, 62, 54, 49, 47, 46],
    }
    FIG6_TP_STAR = {
        (8, 16, 0.0, Receiver.ZF): [
            137, 119, 103, 88, 75, 65, 57, 50, 44, 40, 36, 34, 31, 29, 27, 26, 24, 23,
            22, 21, 20,
        ],
        (8, 16, 0.0, Receiver.MRC): [
            132, 111, 92, 75, 60, 48, 38, 30, 24, 19, 15, 12, 10, 8, 8, 8, 8, 8, 8, 8,
            8,
        ],
        (8, 16, 0.0, Receiver.MMSE): [
            133, 113, 95, 80, 67, 58, 50, 45, 40, 37, 34, 32, 30, 28, 27, 26, 24, 23,
            22, 21, 20,
        ],
        (8, 16, 0.15, Receiver.ZF): [
            138, 119, 103, 88, 76, 65, 57, 51, 45, 41, 38, 35, 33, 32, 31, 30, 30, 29,
            29, 29, 29,
        ],
        (8, 16, 0.15, Receiver.MRC): [
            132, 111, 92, 75, 60, 48, 39, 31, 25, 20, 17, 14, 12, 10, 9, 9, 8, 8, 8, 8,
            8,
        ],
        (8, 16, 0.15, Receiver.MMSE): [
            133, 113, 95, 80, 67, 58, 51, 45, 41, 38, 36, 34, 32, 31, 30, 30, 29, 29,
            29, 29, 29,
        ],
        (8, 256, 0.0, Receiver.ZF): [
            110, 89, 71, 58, 48, 40, 35, 30, 28, 25, 24, 22, 21, 20, 20, 19, 18, 18, 17,
            17, 16,
        ],
        (8, 256, 0.0, Receiver.MRC): [
            107, 85, 67, 53, 41, 33, 26, 20, 16, 13, 10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        (8, 256, 0.0, Receiver.MMSE): [
            109, 88, 71, 58, 48, 40, 34, 30, 28, 25, 24, 22, 21, 20, 20, 19, 18, 18, 17,
            17, 16,
        ],
        (8, 256, 0.15, Receiver.ZF): [
            108, 87, 69, 55, 44, 35, 28, 23, 19, 15, 13, 11, 9, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        (8, 256, 0.15, Receiver.MRC): [
            106, 84, 65, 50, 39, 30, 23, 18, 15, 12, 10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
        (8, 256, 0.15, Receiver.MMSE): [
            108, 86, 69, 55, 43, 35, 28, 23, 19, 15, 13, 11, 9, 8, 8, 8, 8, 8, 8, 8, 8,
        ],
    }

    @pytest.mark.parametrize(
        "pins, snrs",
        [(FIG5_TP_STAR, range(-10, 31, 5)), (FIG6_TP_STAR, range(-10, 31, 2))],
        ids=["fig5", "fig6"],
    )
    def test_tp_star_pinned(self, pins, snrs):
        for (nt, nr, delta, receiver), want in pins.items():
            stars = [
                optimize_tp_asymptotic(
                    SystemConfig(
                        nt=nt, nr=nr, t=500, tp=nt, rho=db_to_linear(s), delta=delta
                    ),
                    receiver,
                ).tp_star
                for s in snrs
            ]
            assert stars == want, (nt, nr, delta, receiver)
