"""Tests for the Monte Carlo link simulator."""

import hashlib
import itertools
import math
import tracemalloc

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
    _cn,
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


def _fill(*blocks):
    """One chunk's draws (m, k) from per-trial blocks (m, ...), in order."""
    return np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)


def _record_chunks(monkeypatch):
    """Record ``(per_trial, chunk sizes)`` of every chunk loop."""
    chunks = []
    real = simulate._chunks

    def recording(trials, per_trial):
        chunks.append((per_trial, list(real(trials, per_trial))))
        return iter(chunks[-1][1])

    monkeypatch.setattr(simulate, "_chunks", recording)
    return chunks


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
    def test_same_draws_same_estimate(self, nt, nr, tp, delta):
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
        fill = _fill(h, d @ sp.conj().T / root, vp @ sp.conj().T / root)
        h_out, got = simulate._estimate(cfg, fill)
        assert np.shares_memory(h_out, fill) and np.array_equal(h_out, h)
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
    def test_wishart_conditional_moment(self, nt, nr, tp, snr_db, delta):
        # With E fixed, E[G | E] = nr Sigma(E) / sigma2_est.  Sigma comes from
        # the estimate path, which is linear in (H, W): fed H = [I; 0] and
        # W = 0 it returns [M; 0], fed H = 0 and W = [I; 0] it returns [c I; 0].
        cfg = SystemConfig(nt=nt, nr=nr, t=2 * tp, tp=tp, rho=db_to_linear(snr_db),
                           delta=delta)
        e = _cn(np.random.default_rng(3), (1, nt, nt))
        top = np.eye(nr, nt)[None].astype(complex)
        zero = np.zeros((1, nr, nt), complex)
        m_mat = simulate._estimate(cfg, _fill(top, e, zero))[1][0]
        c_mat = simulate._estimate(cfg, _fill(zero, e, top))[1][0]
        sigma = (m_mat.conj().T @ m_mat + c_mat.conj().T @ c_mat) / derive_params(
            cfg).sigma2_est

        # The Wishart path's draws per trial: E first, then the Bartlett
        # factor's entries below the diagonal; the gammas from their own
        # generator.
        n = 20000
        g = np.random.default_rng(4)
        per_trial, gram = simulate._gram_source(cfg, model=False)
        assert per_trial == nt * nt + nt * (nt - 1) // 2
        fill = _fill(np.repeat(e, n, axis=0), _cn(g, (n, per_trial - nt * nt)))
        grams = gram(fill, g)
        # Var(G_ij) = nr Sigma_ii Sigma_jj for CW(nt, nr, Sigma).
        scale = np.sqrt(np.diag(sigma).real)
        std_err = np.sqrt(nr / n) * np.outer(scale, scale)
        assert np.all(np.abs(grams.mean(axis=0) - nr * sigma) <= 5 * std_err)

    def test_chunks_do_not_depend_on_tp(self, monkeypatch):
        # No draw grows with tp: the draws per trial, and so the chunks that
        # bound memory, read only the antenna counts.
        chunks = _record_chunks(monkeypatch)
        cfg = SystemConfig(nt=16, nr=16, t=200_000, tp=16, rho=1.0)
        for tp in (16, 100_000):
            sample_sinr_multi(cfg.with_tp(tp), (Receiver.MRC,), 600, RandomStream(1))
            empirical_nmse(cfg.with_tp(tp), 600, RandomStream(1))
        per_trial, sizes = chunks[0]
        assert per_trial == 3 * 16 * 16 and len(sizes) > 1 and sum(sizes) == 600
        assert chunks == [chunks[0]] * 4

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

        real = simulate._generators
        monkeypatch.setattr(simulate, "_generators",
                            lambda rs: tuple(Counting(g) for g in real(rs)))
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
        # The Wishart path draws (m, nt, nt) arrays only, so a batch of
        # trials that is one chunk at 8x16 is one chunk at 8x4096 too, where
        # the estimate path would draw 2 nr nt + nt^2 normals per trial.
        chunks = _record_chunks(monkeypatch)
        e_draws = 64 if sampler is sample_sinr_multi else 0
        per_trial = e_draws + 28
        batch = simulate._CHUNK_ELEMENTS // per_trial
        for nr in (16, 4096):
            cfg = SystemConfig(nt=8, nr=nr, t=20, tp=8, rho=10.0, delta=0.1)
            sampler(cfg, (Receiver.MRC,), batch, RandomStream(2))
        assert chunks == [(per_trial, [batch])] * 2

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

    @pytest.mark.parametrize("nr", [4, 16], ids=["estimate", "wishart"])
    @pytest.mark.parametrize("entry", [sample_sinr_multi, sample_sinr_model,
                                       empirical_rate])
    def test_prefix_is_a_shorter_run(self, entry, nr):
        # A call reads its stream trial by trial, so an N-trial run is the
        # first N trials of a longer one for any N, chunk boundaries or not.
        cfg = SystemConfig(nt=4, nr=nr, t=100, tp=4, rho=10.0, delta=0.1)
        sampler = sample_sinr_multi if entry is empirical_rate else entry
        long = sampler(cfg, tuple(Receiver), 10_000, RandomStream(9))
        scale = (cfg.td / cfg.t) * cfg.nt
        for n in (1, 100, 4095, 4097, 9000):
            short = entry(cfg, tuple(Receiver), n, RandomStream(9))
            for r in Receiver:
                head = long[r].samples[: n * cfg.nt]
                if entry is empirical_rate:
                    assert short[r] == scale * float(np.mean(np.log2(1.0 + head))), (n, r)
                else:
                    assert np.array_equal(short[r].samples, head), (n, r)

    @pytest.mark.parametrize("nr", [4, 16], ids=["estimate", "wishart"])
    def test_chunk_budget_moves_no_bit(self, monkeypatch, nr):
        # Chunks bound memory only: with a budget that splits every call
        # into chunks of one or two trials, every sample and the NMSE are
        # the same bits.
        cfg = SystemConfig(nt=4, nr=nr, t=100, tp=4, rho=10.0, delta=0.1)

        def run():
            sets = [sample_sinr_multi(cfg, tuple(Receiver), 999, RandomStream(3)),
                    sample_sinr_model(cfg, tuple(Receiver), 999, RandomStream(3))]
            return ([s[r].samples.tobytes() for s in sets for r in Receiver],
                    empirical_nmse(cfg, 999, RandomStream(3)))

        want = run()
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 100)
        assert run() == want

    @pytest.mark.parametrize("entry", [sample_sinr_multi, sample_sinr_model,
                                       empirical_rate, empirical_nmse])
    @pytest.mark.parametrize("trials", [0, 2.5, 1000.0])
    def test_trials_must_be_a_positive_integer(self, entry, trials):
        cfg = SystemConfig(nt=2, nr=2, t=20, tp=2, rho=1.0)
        args = () if entry is empirical_nmse else ((Receiver.ZF,),)
        with pytest.raises(ValueError, match="integer trials >= 1"):
            entry(cfg, *args, trials, RandomStream(1))

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
         "2afe5a5ddbba9aa2ebb14963f5838b151a4ca79a4f1459d8ee6a08fa28ae7701"),
        (sample_sinr_multi,
         "b0e1f0dc40c8ef96b5b7aa8822f72ca04fca065a380f23e6ac95905c0abcd94a"),
    ], ids=["sample_sinr_model", "sample_sinr_multi"])
    def test_golden_samples(self, sampler, digest):
        # SHA-256 of the ZF, MRC and MMSE sample bytes of 5000 trials, as
        # drawn since version 0.6.0 (trial-major, one stream per call).  A
        # change that alters a sample bit must update these on purpose.
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=db_to_linear(10.0), delta=0.1)
        sets = sampler(cfg, tuple(Receiver), 5000, RandomStream(2024, 3))
        h = hashlib.sha256()
        for r in Receiver:
            h.update(sets[r].samples.tobytes())
        assert h.hexdigest() == digest


class TestConfigSequences:
    """One call serves a sequence of configs that share ``(nt, nr)``: one
    draw per chunk, mapped through every config."""

    @staticmethod
    def _configs(nr):
        # Differ in rho, delta and tp; 4x16 takes the Wishart path.
        return [SystemConfig(nt=4, nr=nr, t=100, tp=tp, rho=db_to_linear(snr_db),
                             delta=delta)
                for tp, snr_db, delta in [(4, -5.0, 0.0), (9, 20.0, 0.1),
                                          (31, 45.0, 0.175), (4, 20.0, 0.1)]]

    @pytest.mark.parametrize("nr", [4, 16], ids=["estimate", "wishart"])
    @pytest.mark.parametrize("entry", [empirical_nmse, empirical_rate,
                                       sample_sinr_multi])
    def test_entry_equals_the_single_config_call(self, entry, nr):
        # 999 trials: several chunks at 4x4, none of them full.
        cfgs = self._configs(nr)
        args = () if entry is empirical_nmse else (tuple(Receiver),)
        got = entry(cfgs, *args, 999, RandomStream(8, 1))
        assert isinstance(got, list) and len(got) == len(cfgs)
        for cfg, entry_i in zip(cfgs, got):
            want = entry(cfg, *args, 999, RandomStream(8, 1))
            if entry is sample_sinr_multi:
                assert list(entry_i) == list(want)
                for r in want:
                    assert entry_i[r].cfg == cfg
                    assert entry_i[r].samples.tobytes() == want[r].samples.tobytes()
            else:
                assert entry_i == want

    @pytest.mark.parametrize("nr", [4, 16], ids=["estimate", "wishart"])
    def test_shared_draws_are_left_as_drawn(self, monkeypatch, nr):
        # The per-config maps write into no shared array: the chunk's draws
        # are the same bits after a sequence call as before it.
        fills = []
        real = simulate._cn

        def recording(g, shape):
            z = real(g, shape)
            fills.append((z, z.copy()))
            return z

        monkeypatch.setattr(simulate, "_cn", recording)
        empirical_nmse(self._configs(nr), 300, RandomStream(2))
        sample_sinr_multi(self._configs(nr), tuple(Receiver), 300, RandomStream(2))
        assert fills and all(np.array_equal(z, copy) for z, copy in fills)

    @pytest.mark.parametrize("entry", [empirical_nmse, empirical_rate,
                                       sample_sinr_multi])
    def test_configs_must_share_the_antennas_and_be_given(self, entry, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew trials for a rejected call")

        monkeypatch.setattr(simulate, "_cn", no_draws)
        args = () if entry is empirical_nmse else ((Receiver.MRC,),)
        cfg = SystemConfig(nt=2, nr=4, t=20, tp=2, rho=1.0)
        mixed = [cfg, SystemConfig(nt=2, nr=5, t=20, tp=2, rho=1.0)]
        with pytest.raises(ValueError, match="share"):
            entry(mixed, *args, 10, RandomStream(1))
        with pytest.raises(ValueError, match="at least one config"):
            entry([], *args, 10, RandomStream(1))


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

        monkeypatch.setattr(simulate, "_generators", no_draws)
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
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    dpar = derive_params(cfg)
    scale = cfg.rho / cfg.nt
    noise_var = (cfg.rho + cfg.rho * cfg.delta**2 + 1.0 + dpar.epsilon) / (
        1.0 + dpar.epsilon
    )
    eye = np.eye(cfg.nr)
    worst = 0.0
    per_trial = 2 * cfg.nr * cfg.nt + cfg.nt * cfg.nt
    hhat = simulate._estimate(cfg, _cn(rs.generator(), (trials, per_trial)))[1]
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
    @staticmethod
    def _outage(cfg, receiver, x, seed):
        return empirical_outage(cfg, (receiver,), x, 1000, RandomStream(seed))[receiver]

    def test_outage_edges(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        s = sample_sinr(cfg, Receiver.ZF, 1000, RandomStream(61))
        assert self._outage(cfg, Receiver.ZF, 0.0, 61) == 0.0
        assert self._outage(cfg, Receiver.ZF, 1e9, 61) == 1.0
        mid = float(np.median(s.samples))
        assert self._outage(cfg, Receiver.ZF, mid, 61) == pytest.approx(0.5, abs=0.01)
        with pytest.raises(ValueError):
            self._outage(cfg, Receiver.ZF, -1.0, 61)

    def test_outage_array_equals_scalar(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=4, rho=10.0, delta=0.1)
        s = sample_sinr(cfg, Receiver.MMSE, 1000, RandomStream(62))
        # Sample values themselves probe the ties (at or below counts).
        x = np.concatenate([[0.0, np.inf], np.sort(s.samples, axis=None)[::97],
                            np.geomspace(1e-3, 1e3, 50)])
        got = self._outage(cfg, Receiver.MMSE, x, 62)
        assert got.tolist() == [self._outage(cfg, Receiver.MMSE, v, 62)
                                for v in x.tolist()]
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError):
                self._outage(cfg, Receiver.MMSE, np.array([1.0, bad]), 62)
        with pytest.raises(ValueError):
            self._outage(cfg, Receiver.MMSE, np.nan, 62)

    def test_rate_definition(self):
        cfg = SystemConfig(nt=4, nr=4, t=100, tp=10, rho=10.0, delta=0.05)
        rate = empirical_rate(cfg, (Receiver.MMSE,), 2000,
                              RandomStream(71))[Receiver.MMSE]
        s = sample_sinr(cfg, Receiver.MMSE, 2000, RandomStream(71))
        expected = (cfg.td / cfg.t) * cfg.nt * np.mean(np.log2(1 + s.samples))
        assert rate == pytest.approx(expected, rel=1e-12)


class TestStreamingOutage:
    """``empirical_outage`` adds each chunk's counts and keeps no sample."""

    @pytest.mark.parametrize("chunk", [None, 256], ids=["default-chunk", "chunk-256"])
    @pytest.mark.parametrize("nt, nr", [(4, 4), (2, 8)], ids=["estimate", "wishart"])
    def test_counts_equal_the_sample_fraction(self, monkeypatch, nt, nr, chunk):
        # 7001 trials: several chunks on both paths, the last one partial.
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", chunk)
        cfgs = [SystemConfig(nt=nt, nr=nr, t=2 * nt + 2, tp=nt,
                             rho=db_to_linear(30.0), delta=delta)
                for delta in (0.0, 0.05, 0.1, 0.175)]
        receivers, trials = tuple(Receiver), 7001
        sets = sample_sinr_multi(cfgs, receivers, trials, RandomStream(5, 1))
        # Sample values probe the ties: a count is of samples at or below.
        x = np.concatenate([[0.0, np.inf], np.geomspace(1e-2, 1e4, 40),
                            np.sort(sets[2][Receiver.MMSE].samples)[::401]])
        got = empirical_outage(cfgs, receivers, x, trials, RandomStream(5, 1))
        assert isinstance(got, list) and len(got) == len(cfgs)
        for cfg, by_receiver, outage in zip(cfgs, sets, got):
            alone = empirical_outage(cfg, receivers, x, trials, RandomStream(5, 1))
            assert list(outage) == list(alone) == list(receivers)
            for r in receivers:
                s = by_receiver[r].samples
                want = [np.count_nonzero(s <= v) / s.size for v in x.tolist()]
                assert outage[r].tolist() == want, (cfg.delta, r)
                assert alone[r].tolist() == want, (cfg.delta, r)

    def test_bad_input_raises_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew trials for a rejected call")

        monkeypatch.setattr(simulate, "_cn", no_draws)
        cfg = SystemConfig(nt=2, nr=2, t=20, tp=2, rho=1.0)
        for bad in (-1.0, np.nan, [1.0, -1e-300], [1.0, np.nan]):
            with pytest.raises(ValueError, match="thresholds >= 0"):
                empirical_outage(cfg, (Receiver.ZF,), bad, 10, RandomStream(1))
        for bare in (Receiver.MMSE, "mmse"):
            with pytest.raises(ValueError, match="tuple"):
                empirical_outage(cfg, bare, 1.0, 10, RandomStream(1))
        with pytest.raises(ValueError, match="integer trials >= 1"):
            empirical_outage(cfg, (Receiver.ZF,), 1.0, 0, RandomStream(1))

    def test_memory_does_not_grow_with_trials(self):
        # Kept samples would add 8 bytes per stream, trial and receiver:
        # 1.7 MB more at 8 x 2048 trials here than at 2048.
        cfg = SystemConfig(nt=5, nr=5, t=12, tp=5, rho=db_to_linear(30.0), delta=0.1)
        x = np.geomspace(1e-2, 1e4, 101)

        def peak(trials):
            tracemalloc.start()
            try:
                empirical_outage(cfg, tuple(Receiver), x, trials, RandomStream(4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(64)  # first-call set-up is no part of a call's working set
        small, large = peak(2048), peak(8 * 2048)
        assert large <= small + (64 << 10), (small, large)


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
