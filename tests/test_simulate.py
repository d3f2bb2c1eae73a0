"""Tests for the Monte Carlo link simulator."""

import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.stats

from mimolink import (
    Receiver,
    SystemConfig,
    db_to_linear,
    derive_params,
    sinr_cdf,
)
from mimolink import simulate
from mimolink.config import _require_zf_ok
from mimolink.simulate import (
    RandomStream,
    _batches,
    _cn,
    _estimate_batches,
    _gram_sinr,
    empirical_nmse,
    empirical_outage,
    empirical_rate,
    gen_pilot_matrix,
    lmmse_estimate,
    sample_sinr,
    sample_sinr_model,
    sample_sinr_multi,
    simulate_training,
)

from _util import ks_statistic, run_capped


def _ks_bound(trials):
    """Two-sample KS critical value at alpha = 1e-3, ``trials`` per side."""
    return math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / trials)


class TestPilotMatrix:
    @pytest.mark.parametrize("nt, tp", [(1, 1), (4, 4), (4, 7), (5, 30), (8, 64)])
    def test_rows_exactly_orthogonal(self, nt, tp):
        sp = gen_pilot_matrix(nt, tp)
        assert sp.shape == (nt, tp)
        gram = sp @ sp.conj().T
        np.testing.assert_allclose(gram, tp * np.eye(nt), atol=1e-12 * tp)

    def test_unit_modulus_entries(self):
        sp = gen_pilot_matrix(5, 13)
        np.testing.assert_allclose(np.abs(sp), 1.0, atol=1e-14)

    def test_infeasible_length_rejected(self):
        with pytest.raises(ValueError, match="infeasible pilot length"):
            gen_pilot_matrix(4, 3)


class TestRandomStream:
    def test_same_key_same_draws(self):
        a = RandomStream(42).generator().standard_normal(8)
        b = RandomStream(42).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(42, 0).generator().standard_normal(8)
        b = RandomStream(42, 1).generator().standard_normal(8)
        assert not np.allclose(a, b)

    def test_shifted(self):
        rs = RandomStream(7, stream_id=3)
        assert rs.shifted(5) == RandomStream(7, stream_id=8)

    def test_complex_draw_layout(self):
        # Entry k takes the real part from draw 2k and the imaginary part
        # from draw 2k+1: the layout the replay contract fixes.
        z = _cn(RandomStream(11, 3).generator(), (64, 5, 3))
        x = RandomStream(11, 3).generator().standard_normal((64, 5, 3, 2))
        assert z.shape == (64, 5, 3)
        assert np.array_equal(z, (x[..., 0] + 1j * x[..., 1]) / math.sqrt(2.0))


class TestLmmseEstimate:
    def test_clean_pilots_give_exact_shrinkage(self):
        # With the distortion and noise zeroed, the LMMSE filter reduces to
        # multiplication by sigma2_est = epsilon / (1 + epsilon).
        cfg = SystemConfig(nt=3, nr=4, t=50, tp=5, rho=7.3, delta=0.08)
        dp = derive_params(cfg)
        g = np.random.default_rng(5)
        h = (g.standard_normal((4, 3)) + 1j * g.standard_normal((4, 3))) / math.sqrt(2)
        sp = gen_pilot_matrix(3, 5)
        yp = math.sqrt(cfg.rho / cfg.nt) * h @ sp
        hhat = lmmse_estimate(yp, sp, cfg)
        np.testing.assert_allclose(hhat, dp.sigma2_est * h, atol=1e-13)

    def test_batched_input(self):
        cfg = SystemConfig(nt=2, nr=3, t=20, tp=4, rho=2.0, delta=0.1)
        sp = gen_pilot_matrix(2, 4)
        yp = np.zeros((6, 3, 4), dtype=complex)
        out = lmmse_estimate(yp, sp, cfg)
        assert out.shape == (6, 3, 2)

    def test_pilot_length_mismatch(self):
        cfg = SystemConfig(nt=2, nr=3, t=20, tp=4, rho=2.0)
        with pytest.raises(ValueError, match="pilot-length mismatch"):
            lmmse_estimate(np.zeros((3, 5), dtype=complex), gen_pilot_matrix(2, 4), cfg)

    def test_simulate_training_shapes(self):
        cfg = SystemConfig(nt=3, nr=6, t=40, tp=5, rho=4.0, delta=0.05)
        h, yp = simulate_training(cfg, RandomStream(1))
        assert h.shape == (6, 3)
        assert yp.shape == (6, 5)


def _literal_chain_stream0(cfg, receivers, trials, seed):
    """Stream-0 SINRs from the literal pilot chain: pilots through
    ``gen_pilot_matrix``, distortion and noise of length ``tp``, and the
    ``tp x tp`` LMMSE solve of ``lmmse_estimate``."""
    g = np.random.default_rng(seed)
    sp = gen_pilot_matrix(cfg.nt, cfg.tp)
    dpar = derive_params(cfg)
    out = {r: [] for r in receivers}
    for done in range(0, trials, 1024):
        n = min(1024, trials - done)
        h = _cn(g, (n, cfg.nr, cfg.nt))
        dp = cfg.delta * _cn(g, (n, cfg.nt, cfg.tp))
        yp = math.sqrt(cfg.rho / cfg.nt) * h @ (sp + dp) + _cn(g, (n, cfg.nr, cfg.tp))
        hbar = lmmse_estimate(yp, sp, cfg) / math.sqrt(dpar.sigma2_est)
        gram = hbar.conj().swapaxes(-1, -2) @ hbar
        for r in receivers:
            out[r].append(_gram_sinr(gram, r, dpar, cfg.delta)[:, 0])
    return {r: np.concatenate(v) for r, v in out.items()}


class TestSufficientStatistic:
    """The runtime estimate is the literal chain's, reduced exactly."""

    @pytest.mark.parametrize("nt, nr, tp, delta", [
        (4, 4, 4, 0.1), (4, 4, 96, 0.1), (8, 64, 64, 0.1), (2, 3, 7, 0.0),
        (16, 512, 16, 0.15),
    ])
    def test_same_draws_same_estimate(self, monkeypatch, nt, nr, tp, delta):
        # Feed one (H, Dp, Vp) through both paths: E and W are the
        # distortion and noise seen through the orthonormal Sp^H / sqrt(tp).
        cfg = SystemConfig(nt=nt, nr=nr, t=2 * tp, tp=tp, rho=db_to_linear(20),
                           delta=delta)
        g = np.random.default_rng(17)
        n = 8
        sp = gen_pilot_matrix(nt, tp)
        h, d, vp = _cn(g, (n, nr, nt)), _cn(g, (n, nt, tp)), _cn(g, (n, nr, tp))
        yp = math.sqrt(cfg.rho / nt) * h @ (sp + delta * d) + vp
        want = lmmse_estimate(yp, sp, cfg)
        root = math.sqrt(tp)
        fed = iter([h, d @ sp.conj().T / root, vp @ sp.conj().T / root])
        monkeypatch.setattr(simulate, "_cn", lambda _g, shape: next(fed))
        h_out, got = simulate._estimate_batches(cfg, None, n)
        assert h_out is h
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("nt, nr, tp, snr_db, delta, trials", [
        (4, 4, 96, 20, 0.1, 20000), (8, 64, 64, 20, 0.1, 6000),
        (5, 30, 5, 30, 0.175, 6000), (4, 8, 4, 30, 0.175, 6000),
        (8, 256, 8, 30, 0.175, 6000),
    ])
    def test_same_law_as_literal_chain(self, nt, nr, tp, snr_db, delta, trials):
        # Two-sample KS on stream 0 of each trial (streams of one trial are
        # dependent), at the alpha = 1e-3 critical value.  The 5x30 cell is
        # where the H E term makes the estimate far from Gaussian; 4x8 sits
        # at the Wishart threshold nr = 2 nt, and every cell but 4x4 draws
        # the Gram matrix from its Wishart law.
        cfg = SystemConfig(nt=nt, nr=nr, t=2 * tp, tp=tp, rho=db_to_linear(snr_db),
                           delta=delta)
        fast = sample_sinr_multi(cfg, tuple(Receiver), trials, RandomStream(5, 1))
        chain = _literal_chain_stream0(cfg, tuple(Receiver), trials, seed=6)
        bound = _ks_bound(trials)
        for r in Receiver:
            stream0 = fast[r].samples.reshape(trials, nt)[:, 0]
            d = scipy.stats.ks_2samp(stream0, chain[r]).statistic
            assert d <= bound, (r, d, bound)

    def test_model_sampler_same_law_as_gaussian_gram(self):
        # At 5x30 the model sampler draws T T^H; the reference is the Gram
        # matrix of an i.i.d. CN(0,1) 30 x 5 matrix, through the same maps.
        trials = 6000
        cfg = SystemConfig(nt=5, nr=30, t=10, tp=5, rho=db_to_linear(30), delta=0.175)
        fast = sample_sinr_model(cfg, tuple(Receiver), trials, RandomStream(5, 2))
        z = _cn(np.random.default_rng(7), (trials, cfg.nr, cfg.nt))
        gram = z.conj().swapaxes(-1, -2) @ z
        for r in Receiver:
            stream0 = fast[r].samples.reshape(trials, cfg.nt)[:, 0]
            ref = _gram_sinr(gram, r, derive_params(cfg), cfg.delta)[:, 0]
            d = scipy.stats.ks_2samp(stream0, ref).statistic
            assert d <= _ks_bound(trials), (r, d)

    @pytest.mark.parametrize("nt, nr, tp, snr_db, delta", [
        (4, 8, 4, 30, 0.175), (3, 40, 9, 10, 0.3), (2, 4, 2, 0, 0.0),
    ])
    def test_wishart_conditional_moment(self, monkeypatch, nt, nr, tp, snr_db, delta):
        # With E fixed, E[G | E] = nr Sigma(E) / sigma2_est.  Sigma comes from
        # the estimate path, which is linear in (H, W): fed H = I and W = 0
        # it returns M, fed H = 0 and W = I it returns c I.
        cfg = SystemConfig(nt=nt, nr=nr, t=2 * tp, tp=tp, rho=db_to_linear(snr_db),
                           delta=delta)
        e = _cn(np.random.default_rng(3), (1, nt, nt))
        eye, zero = np.eye(nt)[None].astype(complex), np.zeros((1, nt, nt), complex)
        fed = iter([eye, e, zero, zero, e, eye])
        monkeypatch.setattr(simulate, "_cn", lambda _g, shape: next(fed))
        m_mat = simulate._estimate_batches(cfg, None, 1)[1][0]
        c_mat = simulate._estimate_batches(cfg, None, 1)[1][0]
        monkeypatch.undo()
        sigma = (m_mat.conj().T @ m_mat + c_mat.conj().T @ c_mat) / derive_params(
            cfg).sigma2_est

        shapes = []

        def fixed_e(g, shape):
            shapes.append(shape)
            return np.repeat(e, shape[0], axis=0) if len(shapes) == 1 else _cn(g, shape)

        monkeypatch.setattr(simulate, "_cn", fixed_e)
        n = 20000
        grams = simulate._wishart_gram(cfg, np.random.default_rng(4), n)
        assert shapes[0] == (n, nt, nt)
        # Var(G_ij) = nr Sigma_ii Sigma_jj for CW(nt, nr, Sigma).
        scale = np.sqrt(np.diag(sigma).real)
        std_err = np.sqrt(nr / n) * np.outer(scale, scale)
        assert np.all(np.abs(grams.mean(axis=0) - nr * sigma) <= 5 * std_err)

    def test_chunks_do_not_depend_on_tp(self):
        # The chunk partition is part of the replay contract; it reads only
        # the antenna counts, and splits a batch once max(nr, nt) * nt
        # outgrows the per-array element cap.
        cfg = SystemConfig(nt=64, nr=512, t=200_000, tp=64, rho=1.0)
        sizes = simulate._chunk_sizes(cfg, 4096)
        assert sizes == [512] * 8
        assert simulate._chunk_sizes(cfg.with_tp(100_000), 4096) == sizes
        assert simulate._chunk_sizes(cfg.with_tp(100_000), 1000) == [512, 488]

    @pytest.mark.parametrize("sampler", [sample_sinr_multi, sample_sinr_model],
                             ids=["sample_sinr_multi", "sample_sinr_model"])
    def test_wishart_draws_do_not_grow_with_nr(self, monkeypatch, sampler):
        # Variates drawn per trial, counted by generator method: the same at
        # 8x16 and at 8x4096, nt(3 nt - 1)/2 complex normals (nt(nt - 1)/2
        # without E) and nt gammas.
        counts = {}

        class Counting:
            def __init__(self, g):
                self._g = g

            def __getattr__(self, name):
                def counted(*args, **kwargs):
                    out = getattr(self._g, name)(*args, **kwargs)
                    counts[name] = counts.get(name, 0) + np.size(out)
                    return out
                return counted

        real = RandomStream.generator
        monkeypatch.setattr(RandomStream, "generator", lambda rs: Counting(real(rs)))
        nt, trials = 8, 64
        per_trial = []
        for nr in (16, 4096):
            counts.clear()
            cfg = SystemConfig(nt=nt, nr=nr, t=20, tp=nt, rho=10.0, delta=0.1)
            sampler(cfg, (Receiver.MMSE,), trials, RandomStream(1))
            per_trial.append({name: c / trials for name, c in counts.items()})
        e_draws = nt * nt if sampler is sample_sinr_multi else 0
        assert per_trial[0] == per_trial[1] == {
            "standard_normal": 2 * (e_draws + nt * (nt - 1) // 2),
            "standard_gamma": nt,
        }

    @pytest.mark.parametrize("sampler", [sample_sinr_multi, sample_sinr_model],
                             ids=["sample_sinr_multi", "sample_sinr_model"])
    def test_wishart_batch_is_one_chunk(self, monkeypatch, sampler):
        # The Wishart path holds (m, nt, nt) arrays only, so its chunks are
        # sized by nt^2: at 8x4096 a batch is one chunk, where the estimate
        # path's max(nr, nt) nt per trial splits it eight ways.
        cfg = SystemConfig(nt=8, nr=4096, t=20, tp=8, rho=10.0, delta=0.1)
        assert simulate._chunk_sizes(cfg, 4096) == [512] * 8
        assert simulate._chunk_sizes(cfg, 4096, wishart=True) == [4096]
        chunks = []
        real = simulate._chunk_sizes

        def recording(*args):
            chunks.append(real(*args))
            return chunks[-1]

        monkeypatch.setattr(simulate, "_chunk_sizes", recording)
        sampler(cfg, (Receiver.MRC,), 4096 + 100, RandomStream(2))
        assert chunks == [[4096], [100]]

    def test_nmse_cost_does_not_grow_with_tp(self):
        # tp = 100 000: the literal chain's tp x tp solve alone would need
        # 160 GB; the sufficient statistic runs under a 1 GiB cap.
        out = run_capped(
            "from mimolink import SystemConfig, derive_params\n"
            "from mimolink.simulate import RandomStream, empirical_nmse\n"
            "cfg = SystemConfig(nt=4, nr=4, t=200_000, tp=100_000, rho=0.01, delta=0.1)\n"
            "print(empirical_nmse(cfg, 4096, RandomStream(3)), derive_params(cfg).sigma2_err)\n",
            cap_gib=1,
        )
        assert out.returncode == 0, out.stderr
        emp, ana = (float(v) for v in out.stdout.split())
        assert emp == pytest.approx(ana, rel=0.05)


class TestReproducibility:
    def test_sample_sinr_bit_identical(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        a = sample_sinr(cfg, Receiver.MMSE, 5000, RandomStream(123))
        b = sample_sinr(cfg, Receiver.MMSE, 5000, RandomStream(123))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.trials == 5000 and a.seed == 123

    def test_batch_prefix_stability(self):
        # Each 4096-trial batch draws from its own substream, so the first
        # batch of a longer run matches a shorter run bit for bit.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        short = sample_sinr(cfg, Receiver.ZF, 4096, RandomStream(9))
        long = sample_sinr(cfg, Receiver.ZF, 8192, RandomStream(9))
        np.testing.assert_array_equal(
            long.samples[: 4096 * cfg.nt], short.samples
        )

    def test_empirical_nmse_deterministic(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.05)
        a = empirical_nmse(cfg, 2000, RandomStream(5))
        b = empirical_nmse(cfg, 2000, RandomStream(5))
        assert a == b

    def test_multi_receiver_shares_channels(self):
        # One call drawing several receivers must reuse the same channel
        # realizations as a single-receiver call with the same stream.
        cfg = SystemConfig(nt=4, nr=5, t=100, tp=6, rho=10.0, delta=0.1)
        multi = sample_sinr_multi(
            cfg, [Receiver.ZF, Receiver.MMSE], 2000, RandomStream(77)
        )
        single = sample_sinr(cfg, Receiver.ZF, 2000, RandomStream(77))
        np.testing.assert_array_equal(multi[Receiver.ZF].samples, single.samples)

    @pytest.mark.parametrize("nr", [4, 16], ids=["estimate", "wishart"])
    def test_shared_rate_equals_single_receiver_calls(self, nr):
        # Each receiver's rate from one shared pass equals its own call.
        cfg = SystemConfig(nt=4, nr=nr, t=100, tp=6, rho=10.0, delta=0.1)
        shared = empirical_rate(cfg, tuple(Receiver), 5000, RandomStream(78))
        assert list(shared) == list(Receiver)
        for r in Receiver:
            assert shared[r] == empirical_rate(cfg, (r,), 5000, RandomStream(78))[r]

    def test_rate_prefix_stability(self):
        # A shorter run's rates are the reducer over the first trials of a
        # longer run's samples.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        short = empirical_rate(cfg, tuple(Receiver), 4096, RandomStream(9))
        long = sample_sinr_multi(cfg, tuple(Receiver), 8192, RandomStream(9))
        for r in Receiver:
            head = long[r].samples[: 4096 * cfg.nt]
            want = (cfg.td / cfg.t) * cfg.nt * float(np.mean(np.log2(1.0 + head)))
            assert short[r] == want

    @pytest.mark.parametrize("sampler, digest", [
        (sample_sinr_model,
         "f6f846aa1ed53a1ad1a18d74dae20fe45fb1388f6a6973f6e7b726afbbd11001"),
        (sample_sinr_multi,
         "c4e510c9109c233adc7ca8c035ffd5bb7dadf7ede363478b208bc092c554024d"),
    ], ids=["sample_sinr_model", "sample_sinr_multi"])
    def test_golden_samples_across_two_batches(self, sampler, digest):
        # SHA-256 of the ZF, MRC and MMSE sample bytes; 5000 trials span two
        # 4096-trial batches.  A change that alters a sample bit must update
        # these on purpose.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(10.0), delta=0.1)
        sets = sampler(cfg, tuple(Receiver), 5000, RandomStream(2024, 3))
        h = hashlib.sha256()
        for r in Receiver:
            h.update(sets[r].samples.tobytes())
        assert h.hexdigest() == digest


class TestNmse:
    def test_matches_analytic_moderate_snr(self):
        # nt=tp=4, rho=10, delta=0: NMSE = 1/11.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0)
        est = empirical_nmse(cfg, 20000, RandomStream(2))
        assert est == pytest.approx(1.0 / 11.0, rel=0.03)

    def test_floor_under_impairments(self):
        # 60 dB with delta=0.1: the floor 1/101 dominates.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(60), delta=0.1)
        est = empirical_nmse(cfg, 20000, RandomStream(3))
        assert est == pytest.approx(1.0 / 101.0, rel=0.03)

    def test_monotone_in_training_length(self):
        # Longer training can only help; check with a 3-sigma noise margin.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=3.0, delta=0.1)
        trials = 20000
        vals, sds = [], []
        for tp in (4, 8, 12, 16):
            c = cfg.with_tp(tp)
            nmse = empirical_nmse(c, trials, RandomStream(11))
            vals.append(nmse)
            # |err|^2 entries are exponential with mean sigma2_err, so the
            # estimator's sd is about nmse / sqrt(#entries).
            sds.append(nmse / math.sqrt(trials * c.nt * c.nr))
        for i in range(len(vals) - 1):
            assert vals[i + 1] < vals[i] + 3 * (sds[i] + sds[i + 1])
        analytic = [
            derive_params(cfg.with_tp(tp)).sigma2_err for tp in (4, 8, 12, 16)
        ]
        assert all(a > b for a, b in zip(analytic, analytic[1:]))


class TestSinrSamples:
    def test_wall_strict(self):
        # Every sample must lie strictly below 1/delta^2.
        for nt, nr, delta in [(4, 4, 0.1), (5, 30, 0.175)]:
            cfg = SystemConfig(
                nt=nt, nr=nr, t=100, tp=nt, rho=db_to_linear(30), delta=delta
            )
            for r in Receiver:
                s = sample_sinr(cfg, r, 4000, RandomStream(21))
                assert np.all(s.samples < 1.0 / delta**2), (r, delta)

    @pytest.mark.parametrize("nt", [2, 8, 32])
    def test_wishart_samples_finite_and_below_wall(self, nt):
        # The Wishart path at nr = 2 nt over the whole parameter range: the
        # Cholesky factor exists and every sample is finite, strictly below
        # 1/delta^2 when delta > 0.
        grid = itertools.product(range(-100, 301, 50), (0.0, 1e-8, 0.3, 1.0, 3.0),
                                 (nt, 1000))
        for i, (snr_db, delta, tp) in enumerate(grid):
            cfg = SystemConfig(nt=nt, nr=2 * nt, t=tp + 1, tp=tp,
                               rho=db_to_linear(snr_db), delta=delta)
            out = sample_sinr_multi(cfg, tuple(Receiver), 128, RandomStream(23, i))
            for r, s in out.items():
                assert np.all(np.isfinite(s.samples)), (r, cfg)
                if delta > 0:
                    assert np.all(s.samples < 1.0 / delta**2), (r, cfg)

    def test_mmse_dominates_samplewise(self):
        # On the same channel draw, the MMSE form is at least ZF and at
        # least MRC, stream by stream.
        cfg = SystemConfig(nt=4, nr=5, t=50, tp=6, rho=db_to_linear(12), delta=0.1)
        out = sample_sinr_multi(cfg, list(Receiver), 4000, RandomStream(31))
        mmse = out[Receiver.MMSE].samples
        assert np.all(mmse >= out[Receiver.ZF].samples - 1e-10)
        assert np.all(mmse >= out[Receiver.MRC].samples - 1e-10)

    def test_positive_samples(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=0.1)
        s = sample_sinr(cfg, Receiver.MRC, 2000, RandomStream(41))
        assert np.all(s.samples > 0)
        assert s.samples.shape == (2000 * 4,)

    @pytest.mark.parametrize("entry", [sample_sinr_multi, sample_sinr_model,
                                       empirical_rate])
    def test_bare_receiver_asks_for_a_tuple(self, entry):
        cfg = SystemConfig(nt=2, nr=2, t=20, tp=2, rho=1.0)
        for bare in (Receiver.MMSE, "mmse"):
            with pytest.raises(ValueError, match="tuple"):
                entry(cfg, bare, 10, RandomStream(1))

    @pytest.mark.parametrize("entry", [sample_sinr_multi, sample_sinr_model,
                                       empirical_rate])
    def test_receiver_names_are_coerced(self, entry):
        cfg = SystemConfig(nt=2, nr=2, t=20, tp=2, rho=1.0, delta=0.1)
        named = entry(cfg, ("mmse", "zf"), 10, RandomStream(1))
        typed = entry(cfg, (Receiver.MMSE, Receiver.ZF), 10, RandomStream(1))
        assert all(type(k) is Receiver for k in named)
        assert list(named) == [Receiver.MMSE, Receiver.ZF]
        for r in typed:
            got, want = named[r], typed[r]
            if entry is not empirical_rate:
                got, want = got.samples.tolist(), want.samples.tolist()
            assert got == want
        with pytest.raises(ValueError):
            entry(cfg, ("mmse", "lmmse"), 10, RandomStream(1))

    @pytest.mark.parametrize("entry", [sample_sinr_multi, sample_sinr_model,
                                       empirical_rate])
    def test_no_receivers_raises_before_drawing(self, entry, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew trials for no receiver")

        monkeypatch.setattr(simulate, "_batches", no_draws)
        cfg = SystemConfig(nt=2, nr=2, t=20, tp=2, rho=1.0)
        with pytest.raises(ValueError, match="at least one receiver"):
            entry(cfg, (), 10, RandomStream(1))

    def test_zf_needs_nr_at_least_nt(self):
        cfg = SystemConfig(nt=4, nr=3, t=100, tp=4, rho=1.0)
        with pytest.raises(ValueError):
            sample_sinr(cfg, Receiver.ZF, 100, RandomStream(1))
        # MRC has no such restriction.
        sample_sinr(cfg, Receiver.MRC, 100, RandomStream(1))


def validate_sinr_end_to_end(
    cfg: SystemConfig, receiver: Receiver, trials: int, rs: RandomStream
) -> float:
    """Cross-check the Gram-matrix SINR forms against first principles.

    Per trial and stream, builds the receiver's weight vector explicitly
    (ZF: pseudo-inverse column; MRC: estimated channel column; MMSE: solve
    against the effective-noise covariance), evaluates
    ``sinr = (rho/nt) |a^H hhat_k|^2 / (a^H R_z a)`` with the conditional
    covariance ``R_z`` of the interference-plus-distortion-plus-noise term,
    and returns the maximum relative deviation from the Gram-matrix values.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    dpar = derive_params(cfg)
    scale = cfg.rho / cfg.nt
    noise_var = (cfg.rho + cfg.rho * cfg.delta**2 + 1.0 + dpar.epsilon) / (
        1.0 + dpar.epsilon
    )
    eye = np.eye(cfg.nr)
    worst = 0.0
    for g, m in _batches(cfg, trials, rs):
        hhat = _estimate_batches(cfg, g, m)[1]
        gram = (hhat.conj().swapaxes(-1, -2) @ hhat) / dpar.sigma2_est
        reference = _gram_sinr(gram, receiver, dpar, cfg.delta)
        outer = hhat @ hhat.conj().swapaxes(-1, -2)
        r_base = scale * (1.0 + cfg.delta**2) * outer + noise_var * eye
        for k in range(cfg.nt):
            hk = hhat[:, :, k]
            r_z = r_base - scale * (hk[:, :, None] @ hk.conj()[:, None, :])
            if receiver is Receiver.ZF:
                pinv = np.linalg.solve(
                    hhat.conj().swapaxes(-1, -2) @ hhat, hhat.conj().swapaxes(-1, -2)
                )
                a = pinv[:, k, :].conj()
            elif receiver is Receiver.MRC:
                a = hk
            else:
                a = np.linalg.solve(r_z, hk[:, :, None])[:, :, 0]
            num = scale * np.abs(np.einsum("ni,ni->n", a.conj(), hk)) ** 2
            den = np.einsum("ni,nij,nj->n", a.conj(), r_z, a).real
            sinr = num / den
            dev = np.abs(sinr - reference[:, k]) / reference[:, k]
            worst = max(worst, float(dev.max()))
    return worst


class TestEndToEndConsistency:
    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_gram_forms_match_first_principles(self, receiver):
        cfg = SystemConfig(nt=3, nr=5, t=60, tp=4, rho=db_to_linear(10), delta=0.1)
        dev = validate_sinr_end_to_end(cfg, receiver, 64, RandomStream(51))
        assert dev <= 1e-8

    def test_gram_forms_match_ideal_hardware(self):
        cfg = SystemConfig(nt=4, nr=4, t=60, tp=4, rho=db_to_linear(20))
        dev = validate_sinr_end_to_end(cfg, Receiver.MMSE, 64, RandomStream(52))
        assert dev <= 1e-8

    def test_linear_solve_residual_large_system(self):
        # The SINR forms lean on LAPACK solves; verify the residual stays
        # tiny at the largest supported Gram size.
        g = np.random.default_rng(99)
        n = 64
        h = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / math.sqrt(2)
        gram = h.conj().T @ h
        inv = np.linalg.solve(gram, np.eye(n))
        residual = np.abs(gram @ inv - np.eye(n)).max()
        assert residual <= 1e-9


class TestOutageAndRate:
    def test_outage_edges(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        s = sample_sinr(cfg, Receiver.ZF, 1000, RandomStream(61))
        assert empirical_outage(s, 0.0) == 0.0
        assert empirical_outage(s, 1e9) == 1.0
        mid = float(np.median(s.samples))
        assert empirical_outage(s, mid) == pytest.approx(0.5, abs=0.01)
        with pytest.raises(ValueError):
            empirical_outage(s, -1.0)

    def test_outage_array_equals_scalar(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        s = sample_sinr(cfg, Receiver.MMSE, 1000, RandomStream(62))
        # Sample values themselves probe the ties (at or below counts).
        x = np.concatenate([[0.0, np.inf], np.sort(s.samples, axis=None)[::97],
                            np.geomspace(1e-3, 1e3, 50)])
        got = empirical_outage(s, x)
        assert got.tolist() == [empirical_outage(s, v) for v in x.tolist()]
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError):
                empirical_outage(s, np.array([1.0, bad]))
        with pytest.raises(ValueError):
            empirical_outage(s, np.nan)

    def test_rate_definition(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=10, rho=10.0, delta=0.05)
        rate = empirical_rate(cfg, (Receiver.MMSE,), 2000,
                              RandomStream(71))[Receiver.MMSE]
        s = sample_sinr(cfg, Receiver.MMSE, 2000, RandomStream(71))
        expected = (cfg.td / cfg.t) * cfg.nt * np.mean(np.log2(1 + s.samples))
        assert rate == pytest.approx(expected, rel=1e-12)


class TestDistribution:
    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_ks_ideal_hardware(self, receiver):
        # With delta = 0 the estimate is exactly Gaussian, so the sampled
        # distribution must match the closed-form CDF tightly.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(15))
        s = sample_sinr(cfg, receiver, 20000, RandomStream(81))
        d, bias = ks_statistic(
            s.samples, lambda g: sinr_cdf(receiver, cfg, g)
        )
        assert d + bias <= 0.02, (receiver, d)

    @pytest.mark.parametrize("receiver", list(Receiver))
    def test_ks_model_sampler_impaired(self, receiver):
        # The model-level sampler draws the estimate from its nominal
        # Gaussian law, so it must track the closed form even at strong
        # impairments where the full chain shows a modelling gap.
        cfg = SystemConfig(
            nt=5, nr=30, t=100, tp=5, rho=db_to_linear(30), delta=0.175
        )
        out = sample_sinr_model(cfg, [receiver], 20000, RandomStream(91))
        d, bias = ks_statistic(
            out[receiver].samples, lambda g: sinr_cdf(receiver, cfg, g)
        )
        assert d + bias <= 0.02, (receiver, d)
