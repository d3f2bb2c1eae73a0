"""Monte Carlo link simulator: the independent oracle for every closed form.

Simulates the full training + data-transmission chain — pilot transmission
with multiplicative transmit distortion, LMMSE channel estimation (drawn from
its sufficient statistic, :func:`_estimate`), and the three linear receivers
(ZF / MRC / MMSE) — and reduces the per-stream SINR draws to empirical NMSE,
outage, and ergodic-rate figures.  Every SINR depends on the estimate only
through its ``nt x nt`` Gram matrix; once ``nr >= 2 nt`` the samplers draw
that matrix directly from its conditional Wishart law (:func:`_sigma_chol`),
so their cost no longer grows with ``nr``.

Reproducibility contract
------------------------
All randomness flows through counter-based Philox streams keyed by
``(seed, stream_id)``, and a call reads its one stream trial by trial: trial
``j`` takes the next fixed number of standard normals after trial ``j - 1``.
A complex entry is a consecutive (re, im) pair scaled by ``1/sqrt(2)``
(:func:`_cn`), and within a trial the entries follow a layout that
``(nr, nt)`` alone selects, each block row-major:

* ``nr < 2 nt``, and always for :func:`empirical_nmse`: channel ``H``
  (``nr x nt``), pilot distortion ``E`` (``nt x nt``), pilot noise ``W``
  (``nr x nt``); :func:`sample_sinr_model` draws the estimate alone;
* ``nr >= 2 nt``: ``E``, then the Bartlett factor's entries below the
  diagonal; :func:`sample_sinr_model` draws no ``E``.  The factor's ``nt``
  gamma draws per trial come, trial by trial, from a sibling stream: the
  same key, jumped ahead by ``2^128`` draws (:func:`_generators`).

numpy's normal and gamma fills do not depend on how a draw is split into
calls, and every per-trial result is computed matrix by matrix, so trials
are processed in chunks that only bound memory (:func:`_chunks`): no sample
bit depends on the chunk size, and the first N trials of a longer run equal
an N-trial run, for any N.  Identical ``(cfg, receivers, trials, seed)``
reproduce bit-identical sample sets.  Receivers never enter the draws: every
receiver of one call is a map of the same Gram matrices, so a call for
several receivers gives each the samples, and :func:`empirical_rate` the
rate, of a call for that receiver alone.  Nor do ``rho``, ``delta``, ``tp``
or ``t``: :func:`empirical_nmse`, :func:`empirical_rate`,
:func:`empirical_outage` and :func:`sample_sinr_multi` also take a sequence
of configs that share ``(nt, nr)``, draw each chunk once, and map it through
every config without writing into the shared draws, so entry ``i`` of the
list they return equals the call for config ``i`` alone on the same stream,
bit for bit.  No reducer keeps a sample, so memory does not grow with
``trials``: :func:`empirical_outage` adds each chunk's integer counts at
every threshold, and :func:`empirical_nmse` and :func:`empirical_rate` fold
per-trial sums in trial order (:func:`_fold`), so no bit depends on the
chunks.  Changing the layout or the ``(nr, nt)`` rule is a breaking change
to this contract.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import DerivedParams, Receiver, SystemConfig, _require_zf_ok, derive_params

__all__ = [
    "RandomStream",
    "SinrSampleSet",
    "gen_pilot_matrix",
    "simulate_training",
    "lmmse_estimate",
    "sample_sinr",
    "sample_sinr_model",
    "sample_sinr_multi",
    "empirical_nmse",
    "empirical_rate",
    "empirical_outage",
]

# Complex normals drawn per chunk; chunks bound resident memory only.
# Sized by measurement (2-core host, one BLAS thread).  A chunk mapped
# through several configs keeps its draws and shared products intact, so it
# holds more arrays at once than a chunk overwritten in place: fig2's outage
# at 8192 trials peaked at 53 MiB at 2^16 (50 MiB when chunks were
# overwritten), at 47 MiB at 2^15.  2^14 made fig1's nmse at 32768 trials
# 1.5x slower than 2^15.
_CHUNK_ELEMENTS = 1 << 15

# The samplers draw the Gram matrix from its Wishart law once
# nr >= _WISHART_RATIO * nt, and the estimate itself below that.  Measured:
# with the Wishart draw at every size, the CLI's 4x4 fixed-tp rate sweep
# ran slower.
_WISHART_RATIO = 2


@dataclass(frozen=True)
class RandomStream:
    """Keyed handle on a deterministic random sequence.

    Identical ``(seed, stream_id)`` always reproduce identical draws;
    distinct stream ids give statistically independent Philox sequences.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


@dataclass(frozen=True)
class SinrSampleSet:
    """Per-stream SINR draws for one receiver under one configuration.

    ``samples`` is a flat float64 array of length ``nt * trials``, ordered
    trial-major (all streams of trial 0, then trial 1, ...).  When
    ``delta > 0`` every sample lies strictly below the SINR wall
    ``1/delta^2``.
    """

    receiver: Receiver
    samples: np.ndarray
    cfg: SystemConfig
    trials: int
    seed: int


def _cn(g: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard circularly-symmetric complex Gaussians."""
    # Consecutive (re, im) draws viewed in place as one complex entry.
    # Scaling the real pair by the reciprocal gives the bits of dividing the
    # complex entry by sqrt(2), without a second array.
    z = g.standard_normal(size=shape + (2,))
    z *= 1.0 / math.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


def gen_pilot_matrix(nt: int, tp: int) -> np.ndarray:
    """Training matrix with exactly orthogonal rows: ``Sp Sp^H = tp I_nt``.

    Rows are the first ``nt`` rows of the ``tp``-point DFT matrix (unit
    modulus entries, so every pilot symbol carries equal energy and each row
    has energy ``tp``).  The phase index is reduced mod ``tp`` in integer
    arithmetic, which keeps the orthogonality exact to rounding rather than
    accumulating argument error for large ``m * n``.

    Args:
        nt: number of transmit antennas (rows), >= 1.
        tp: training length in channel uses (columns), >= nt.
    """
    if tp < nt:
        raise ValueError(f"infeasible pilot length: need tp >= nt, got tp={tp} < nt={nt}")
    m = np.arange(nt)[:, None]
    n = np.arange(tp)[None, :]
    return np.exp((-2j * np.pi / tp) * ((m * n) % tp))


def simulate_training(
    cfg: SystemConfig, rs: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """One trial of the training phase: true channel and received pilots.

    Returns ``(H, Yp)`` with ``H`` of shape (nr, nt) i.i.d. CN(0,1) and
    ``Yp = sqrt(rho/nt) H (Sp + Dp) + Vp`` of shape (nr, tp), where the
    distortion ``Dp`` is i.i.d. CN(0, delta^2) and ``Vp`` i.i.d. CN(0,1).
    This is the literal pilot chain that :func:`_estimate` reduces.
    """
    g = rs.generator()
    h = _cn(g, (cfg.nr, cfg.nt))
    dp = cfg.delta * _cn(g, (cfg.nt, cfg.tp))
    vp = _cn(g, (cfg.nr, cfg.tp))
    sp = gen_pilot_matrix(cfg.nt, cfg.tp)
    return h, math.sqrt(cfg.rho / cfg.nt) * h @ (sp + dp) + vp


def lmmse_estimate(yp: np.ndarray, sp: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """LMMSE channel estimate from received pilots.

    ``Hhat = sqrt(rho/nt) Yp ((rho/nt) Sp^H Sp + (delta^2 rho + 1) I)^{-1} Sp^H``.
    Accepts a single (nr, tp) block or a batch (..., nr, tp); the tp x tp
    system is Hermitian with eigenvalues >= delta^2 rho + 1 >= 1, so it is
    never ill-conditioned.

    Args:
        yp: received pilot block(s), shape (..., nr, tp).
        sp: training matrix, shape (nt, tp).
        cfg: system configuration the pilots were generated under.
    """
    nt, tp = sp.shape
    if yp.shape[-1] != tp:
        raise ValueError(f"pilot-length mismatch: yp has {yp.shape[-1]} uses, sp has {tp}")
    scale = cfg.rho / nt
    a = scale * (sp.conj().T @ sp) + (cfg.delta**2 * cfg.rho + 1.0) * np.eye(tp)
    # One tp x tp solve shared by every trial in the batch.
    filt = np.linalg.solve(a, sp.conj().T)
    return math.sqrt(scale) * (yp @ filt)


def _gram_sinr(
    gram: np.ndarray, receiver: Receiver, dp: DerivedParams, delta: float
) -> np.ndarray:
    """Per-stream SINRs, shape (n, nt), of ``receiver`` from a batch of Gram
    matrices ``G = Hbar^H Hbar``, shape (n, nt, nt); ``dp`` supplies c0."""
    d2 = delta * delta
    nt = gram.shape[-1]
    if receiver is Receiver.ZF:
        ginv = np.linalg.inv(gram)
        diag = np.einsum("...kk->...k", ginv).real
        return 1.0 / (d2 + dp.c0 * diag)
    if receiver is Receiver.MRC:
        diag = np.einsum("...kk->...k", gram).real
        rowsq = np.abs(gram) ** 2
        srow = rowsq.sum(axis=-1)
        interf = srow - diag**2  # sum_{i != k} |G_ki|^2 ; G_kk is real
        return diag**2 / (interf + d2 * srow + dp.c0 * diag)
    if receiver is Receiver.MMSE:
        eye = np.eye(nt)
        q = np.linalg.inv(eye + ((1.0 + d2) / dp.c0) * gram)
        qd = np.einsum("...kk->...k", q).real
        return (1.0 - qd) / (d2 + qd)
    raise ValueError(f"unknown receiver: {receiver!r}")


def _generators(rs: RandomStream) -> tuple[np.random.Generator, np.random.Generator]:
    """The stream's generator, and its sibling for the Bartlett gammas: the
    same key, jumped ahead by ``2^128`` draws."""
    sibling = np.random.Philox(key=[rs.seed, rs.stream_id]).jumped()
    return rs.generator(), np.random.Generator(sibling)


def _each(cfgs) -> tuple[list[SystemConfig], bool]:
    """``(configs, one)``: the configs of a call as a list, and whether it
    was given one :class:`SystemConfig` alone.  A sequence must be non-empty
    and share ``(nt, nr)``, which fix the draws; else ``ValueError``."""
    if isinstance(cfgs, SystemConfig):
        return [cfgs], True
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config")
    shapes = sorted({(c.nt, c.nr) for c in cfgs})
    if len(shapes) > 1:
        raise ValueError(f"the configs of one call must share (nt, nr), got {shapes}")
    return cfgs, False


def _one_or_all(results, one: bool):
    """The per-config ``results`` as the call returns them: the only one
    for a config given alone, else all of them."""
    return next(iter(results)) if one else results


def _chunks(trials: int, per_trial: int):
    """Yield the sizes of consecutive chunks of ``trials`` trials that draw
    ``per_trial`` complex normals each: at most ``_CHUNK_ELEMENTS`` normals,
    but at least one trial, per chunk.  Raises ``ValueError`` before the
    first chunk unless ``trials`` is an integer >= 1."""
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"need an integer trials >= 1, got {trials!r}")
    step = max(1, _CHUNK_ELEMENTS // max(per_trial, 1))
    for done in range(0, trials, step):
        yield min(step, trials - done)


def _draws(trials: int, per_trial: int, rs: RandomStream):
    """Yield ``(z, gam)`` for each chunk of :func:`_chunks`: the chunk's
    draws ``z`` (m, per_trial), read from ``rs`` trial by trial, and the
    sibling generator ``gam`` of :func:`_generators` for its gammas."""
    g, gam = _generators(rs)
    for m in _chunks(trials, per_trial):
        yield _cn(g, (m, per_trial)), gam


def _fold(total: float, per_trial: np.ndarray) -> float:
    """``total`` plus ``per_trial``, added one by one in trial order (as
    ``np.add.accumulate`` does) in place, so no bit depends on the chunks."""
    per_trial[0] += total
    return float(np.add.accumulate(per_trial, out=per_trial)[-1])


def _estimator_scalars(cfg: SystemConfig) -> tuple[float, float, float]:
    """``a = sqrt(rho/nt)``, ``k = a / (a^2 tp + delta^2 rho + 1)`` and
    ``sqrt(tp)``, the scalars of :func:`_estimate`."""
    a = math.sqrt(cfg.rho / cfg.nt)
    return a, a / (a * a * cfg.tp + cfg.delta**2 * cfg.rho + 1.0), math.sqrt(cfg.tp)


def _estimate(cfgs: list[SystemConfig], z: np.ndarray):
    """The channel ``H`` of each trial of a chunk's draws ``z``
    (m, 2 nr nt + nt^2), and its LMMSE estimates ``Hhat`` under each of
    ``cfgs`` (configs that share ``(nt, nr)``), from the sufficient
    statistic of the received pilots; exact in law.

    With ``a = sqrt(rho/nt)`` and ``c = delta^2 rho + 1``,
    :func:`lmmse_estimate` applies ``a Yp (a^2 Sp^H Sp + c I)^{-1} Sp^H`` to
    ``Yp = a H (Sp + Dp) + Vp``.  By the push-through identity this equals
    ``a Yp Sp^H (a^2 Sp Sp^H + c I)^{-1}``, and the orthogonal pilots
    ``Sp Sp^H = tp I`` make the inverse the scalar ``k = a / (a^2 tp + c)``:
    ``Hhat = k (a (tp H + H Dp Sp^H) + Vp Sp^H)``.  ``Sp^H / sqrt(tp)`` has
    orthonormal columns, so ``Dp Sp^H = delta sqrt(tp) E`` and
    ``Vp Sp^H = sqrt(tp) W`` in law, with ``E`` (nt x nt) and ``W`` (nr x nt)
    i.i.d. CN(0,1) and independent of ``H``:

        Hhat = k (a (tp H + delta sqrt(tp) H E) + sqrt(tp) W),

    so no draw grows with ``tp``.  The product ``H E`` keeps the estimate
    non-Gaussian under distortion; no config changes it, so it is formed
    once.  ``z`` holds ``H``, ``E`` and ``W`` in that order; ``H`` is a view
    of ``z``, and nothing is written into ``z``.  The estimates come lazily,
    one per config.
    """
    nr, nt = cfgs[0].nr, cfgs[0].nt
    h = z[:, : nr * nt].reshape(-1, nr, nt)
    e = z[:, nr * nt : (nr + nt) * nt].reshape(-1, nt, nt)
    w = z[:, (nr + nt) * nt :].reshape(-1, nr, nt)
    he = h @ e

    def hhat(cfg):
        a, k, root_tp = _estimator_scalars(cfg)
        out = he * (cfg.delta * root_tp)
        out += cfg.tp * h
        out *= a * k
        out += w * (k * root_tp)
        return out

    return h, map(hhat, cfgs)


def _sigma_chol(cfg: SystemConfig, e: np.ndarray) -> np.ndarray:
    """Cholesky factors ``L`` (m, nt, nt) of ``Sigma(E) / sigma2_est`` for
    the distortions ``e`` (m, nt, nt), which it leaves as they are.

    In the notation of :func:`_estimate`, ``Hhat = H M + c W`` with
    ``M = a k (tp I + delta sqrt(tp) E)`` and ``c = k sqrt(tp)``.  Given
    ``E``, the ``nr`` rows of ``Hhat`` are i.i.d. ``CN(0, Sigma)`` with
    ``Sigma = M^H M + c^2 I``, so ``Hhat^H Hhat`` is ``CW(nt, nr, Sigma)``:
    the normalized Gram matrix has the law of ``L T T^H L^H`` with ``T`` a
    Bartlett factor.  The non-Gaussian ``H E`` term lives in ``Sigma``.
    """
    a, k, root_tp = _estimator_scalars(cfg)
    root_est = math.sqrt(derive_params(cfg).sigma2_est)
    diag = np.arange(cfg.nt)
    m = e * (cfg.delta * root_tp)
    m[:, diag, diag] += cfg.tp
    m *= a * k / root_est
    sigma = _gram(m)
    sigma[:, diag, diag] += (k * root_tp / root_est) ** 2
    return np.linalg.cholesky(sigma)


def _gram(x: np.ndarray) -> np.ndarray:
    """Batched ``X^H X``."""
    return x.conj().swapaxes(-1, -2) @ x


def _outer(x: np.ndarray) -> np.ndarray:
    """Batched ``X X^H``."""
    return x @ x.conj().swapaxes(-1, -2)


def _gram_source(cfgs: list[SystemConfig], model: bool):
    """``(per_trial, gram)``: the complex normals each trial draws, and the
    map ``gram(z, gamma_generator)`` from a chunk's draws ``z``
    (m, per_trial) to its normalized Gram matrices ``Hbar^H Hbar``
    (m, nt, nt), lazily one batch per config of ``cfgs`` (configs that
    share ``(nt, nr)``).  ``Hbar`` is the chain's estimate over its standard
    deviation, or under ``model`` an i.i.d. CN(0,1) matrix.  From
    ``nr = _WISHART_RATIO nt`` on, the Gram matrices come from their Wishart
    law, and only there does ``gram`` draw gammas.  What no config changes
    is computed once per chunk: ``H E`` on the estimate path, the Bartlett
    factor on the Wishart path, and the whole Gram batch under ``model``."""
    nt, nr = cfgs[0].nt, cfgs[0].nr
    n_e = 0 if model else nt * nt
    if nr >= _WISHART_RATIO * nt:
        below, diag = np.tril_indices(nt, -1), np.arange(nt)

        def gram(z, gam):
            # The Bartlett factor T, with T_ii^2 ~ Gamma(nr - i): T T^H is
            # CW(nt, nr, I), the law of Z^H Z for an nr x nt i.i.d. CN(0,1)
            # matrix Z (Goodman 1963).
            t = np.zeros((len(z), nt, nt), dtype=np.complex128)
            t[:, below[0], below[1]] = z[:, n_e:]
            t[:, diag, diag] = np.sqrt(gam.standard_gamma(nr - diag, size=(len(z), nt)))
            if model:
                return itertools.repeat(_outer(t), len(cfgs))
            e = z[:, :n_e].reshape(-1, nt, nt)
            return (_outer(_sigma_chol(c, e) @ t) for c in cfgs)

        return n_e + below[0].size, gram
    if model:
        return nr * nt, lambda z, gam: itertools.repeat(
            _gram(z.reshape(-1, nr, nt)), len(cfgs))
    roots = [math.sqrt(derive_params(c).sigma2_est) for c in cfgs]

    def normalized(hhat, root):
        hhat /= root
        return _gram(hhat)

    def gram(z, gam):
        return map(normalized, _estimate(cfgs, z)[1], roots)

    return 2 * nr * nt + n_e, gram


def _receiver_tuple(receivers) -> tuple[Receiver, ...]:
    """The distinct receivers of a call, in order, from a non-empty iterable
    of :class:`Receiver` or their names (``"mmse"``); a bare receiver, or
    none at all, raises ``ValueError``."""
    if isinstance(receivers, str):  # a Receiver is a str too
        raise ValueError(f"receivers must be a tuple of receivers, got the single "
                         f"receiver {str(receivers)!r}; wrap it as a 1-tuple")
    receivers = tuple(dict.fromkeys(Receiver(r) for r in receivers))
    if not receivers:
        raise ValueError("need at least one receiver")
    return receivers


def _sinr_batches(cfgs: list[SystemConfig], receivers: tuple[Receiver, ...],
                  trials: int, rs: RandomStream, model: bool):
    """Yield, chunk by chunk, one ``{receiver: SINRs (m, nt)}`` per config
    of ``cfgs``, mapped lazily, config by config, from the Gram matrices of
    :func:`_gram_source`, so a chunk holds the SINRs of one config at a
    time.  Bad configs or ``trials`` raise ``ValueError`` before the first
    draw."""
    _require_zf_ok(cfgs[0].nt, cfgs[0].nr, *receivers)
    dpars = [derive_params(c) for c in cfgs]
    per_trial, gram = _gram_source(cfgs, model)
    for z, gam in _draws(trials, per_trial, rs):
        yield ({r: _gram_sinr(grams, r, dpar, cfg.delta) for r in receivers}
               for cfg, dpar, grams in zip(cfgs, dpars, gram(z, gam)))


def _sample_sets(cfgs: list[SystemConfig], receivers, trials: int, rs: RandomStream,
                 model: bool):
    """For each of ``cfgs``, one :class:`SinrSampleSet` per distinct
    receiver (see :func:`_receiver_tuple`), gathered from
    :func:`_sinr_batches`."""
    receivers = _receiver_tuple(receivers)
    parts = [{r: [] for r in receivers} for _ in cfgs]
    for batch in _sinr_batches(cfgs, receivers, trials, rs, model):
        for part, sinrs in zip(parts, batch):
            for r in receivers:
                part[r].append(sinrs[r].ravel())
    return [{r: SinrSampleSet(receiver=r, samples=np.concatenate(part[r]), cfg=cfg,
                              trials=trials, seed=rs.seed) for r in receivers}
            for cfg, part in zip(cfgs, parts)]


def sample_sinr_multi(
    cfg: SystemConfig | Sequence[SystemConfig],
    receivers: tuple[Receiver, ...],
    trials: int,
    rs: RandomStream,
) -> dict[Receiver, SinrSampleSet] | list[dict[Receiver, SinrSampleSet]]:
    """SINR samples for several receivers over the *same* channel draws.

    One simulation pass (the Gram matrix of the estimate, drawn from its
    Wishart law when ``nr >= 2 nt``), then each receiver's SINR map applied
    to the shared Gram batch, so sample k of one receiver and sample k of
    another describe the same channel realization and stream.  See
    :class:`SinrSampleSet` for the sample layout.

    ``cfg`` is one :class:`SystemConfig`, which gives ``{receiver: set}``,
    or a sequence of configs that share ``(nt, nr)``, which gives a list
    with one such dict per config: entry ``i`` equals the call for
    ``cfg[i]`` alone on the same stream, bit for bit, and the configs see
    common random numbers.
    """
    cfgs, one = _each(cfg)
    return _one_or_all(_sample_sets(cfgs, receivers, trials, rs, model=False), one)


def sample_sinr(
    cfg: SystemConfig, receiver: Receiver, trials: int, rs: RandomStream
) -> SinrSampleSet:
    """Per-stream SINR draws for one receiver; ``nt * trials`` samples.

    Each trial draws a fresh channel, runs the training phase, estimates the
    channel, and evaluates the receiver's exact SINR expression for every
    spatial stream.  ZF requires ``nr >= nt``.
    """
    return sample_sinr_multi(cfg, (receiver,), trials, rs)[receiver]


def sample_sinr_model(
    cfg: SystemConfig, receivers: tuple[Receiver, ...], trials: int, rs: RandomStream
) -> dict[Receiver, SinrSampleSet]:
    """SINR draws under the idealized estimate model, not the full chain.

    Draws the variance-normalized channel estimate directly as an i.i.d.
    standard complex Gaussian matrix — the distributional model the SINR
    closed forms describe exactly — and applies the same per-receiver SINR
    maps as :func:`sample_sinr_multi`.  The full training chain produces a
    normalized estimate that is *approximately* Gaussian (the pilot
    distortion enters multiplied by the unknown channel); sampling the
    model directly separates that modelling gap from any numerical error
    in the closed forms, which is what makes this the control experiment
    for distribution-level comparisons.  Stream layout and the sample
    ordering match :func:`sample_sinr_multi`; when ``nr >= 2 nt`` the Gram
    matrix is the Bartlett draw ``T T^H`` of ``CW(nt, nr, I)``.
    """
    cfgs, one = _each(cfg)
    return _one_or_all(_sample_sets(cfgs, receivers, trials, rs, model=True), one)


def empirical_nmse(
    cfg: SystemConfig | Sequence[SystemConfig], trials: int, rs: RandomStream
) -> float | list[float]:
    """Monte Carlo estimate of the per-entry channel-estimation NMSE,
    ``mean ||H - Hhat||_F^2 / (nr nt)`` over ``trials`` channel draws.

    No error is kept: each trial's is folded in (:func:`_fold`).  ``cfg``
    is one :class:`SystemConfig`, which gives a float, or a sequence of
    configs that share ``(nt, nr)``, which gives a list: entry ``i`` equals
    the call for ``cfg[i]`` alone on the same stream, bit for bit.
    """
    cfgs, one = _each(cfg)
    nr, nt = cfgs[0].nr, cfgs[0].nt
    totals = [0.0] * len(cfgs)
    for z, _ in _draws(trials, 2 * nr * nt + nt * nt, rs):
        h, hhats = _estimate(cfgs, z)
        for i, err in enumerate(hhats):
            err -= h  # Hhat - H, in place: the same squares as H - Hhat
            totals[i] = _fold(totals[i], np.sum(err.real**2 + err.imag**2, axis=(1, 2)))
        del z, h, hhats  # free the chunk's draws before the next is drawn
    return _one_or_all([total / (trials * nr * nt) for total in totals], one)


def empirical_rate(
    cfg: SystemConfig | Sequence[SystemConfig],
    receivers: tuple[Receiver, ...],
    trials: int,
    rs: RandomStream,
) -> dict[Receiver, float] | list[dict[Receiver, float]]:
    """Monte Carlo ergodic achievable rate of each receiver, in bits per
    channel use: ``(td/t) * mean(sum_k log2(1 + sinr_k))`` over the trials,
    ``k`` running over the ``nt`` streams of a trial.

    One pass over the SINRs of :func:`sample_sinr_multi` serves every
    receiver and keeps none: each trial's sum is folded in (:func:`_fold`).
    So the rates rest on the same channel draws, and each rate equals a
    call for that receiver alone bit for bit.  The draws do not depend on
    ``tp``: calls that differ only in ``tp`` and share ``rs`` see common
    random numbers.  ``cfg`` is one :class:`SystemConfig`, which gives
    ``{receiver: rate}``, or a sequence of configs that share ``(nt, nr)``,
    which gives a list with one such dict per config, entry ``i`` equal to
    the call for ``cfg[i]`` alone on the same stream, bit for bit.
    """
    cfgs, one = _each(cfg)
    receivers = _receiver_tuple(receivers)
    totals = [dict.fromkeys(receivers, 0.0) for _ in cfgs]
    for batch in _sinr_batches(cfgs, receivers, trials, rs, model=False):
        for total, sinrs in zip(totals, batch):
            for r in receivers:
                total[r] = _fold(total[r], np.sum(np.log2(1.0 + sinrs[r]), axis=1))
    return _one_or_all([{r: (c.td / c.t) * (s / trials) for r, s in total.items()}
                        for c, total in zip(cfgs, totals)], one)


def empirical_outage(
    cfg: SystemConfig | Sequence[SystemConfig],
    receivers: tuple[Receiver, ...],
    threshold: float | np.ndarray,
    trials: int,
    rs: RandomStream,
) -> dict[Receiver, float | np.ndarray] | list[dict[Receiver, float | np.ndarray]]:
    """Monte Carlo outage of each receiver: the fraction of its per-stream
    SINR samples at or below ``threshold`` (the empirical CDF), a float for
    a scalar threshold and an array for an array of thresholds.

    The samples are those of :func:`sample_sinr_multi`, but none is kept:
    each chunk is sorted and adds its integer counts at every threshold
    (one binary search each), and the sum is divided once by
    ``nt * trials``.  So memory does not grow with ``trials``, and each
    entry equals the scalar call, and the fraction over the kept samples,
    bit for bit.  ``cfg`` is one :class:`SystemConfig`, which gives
    ``{receiver: outage}``, or a sequence of configs that share
    ``(nt, nr)``, which gives a list with one such dict per config, entry
    ``i`` equal to the call for ``cfg[i]`` alone on the same stream, bit for
    bit.  A negative or NaN threshold raises ``ValueError`` before anything
    is drawn, as do bad receivers or ``trials``.
    """
    cfgs, one = _each(cfg)
    receivers = _receiver_tuple(receivers)
    x = np.asarray(threshold, dtype=float)
    if not np.all(x >= 0):  # also rejects NaN
        raise ValueError(f"need thresholds >= 0, got {threshold}")
    counts = [dict.fromkeys(receivers, 0) for _ in cfgs]
    for batch in _sinr_batches(cfgs, receivers, trials, rs, model=False):
        for count, sinrs in zip(counts, batch):
            for r in receivers:
                count[r] += np.searchsorted(np.sort(sinrs[r], axis=None), x, side="right")
    n = cfgs[0].nt * trials
    return _one_or_all([{r: c / n if x.ndim else float(c / n) for r, c in count.items()}
                        for count in counts], one)
