"""Monte Carlo link simulator: the independent oracle for every closed form.

Simulates the full training + data-transmission chain — pilot transmission
with multiplicative transmit distortion, LMMSE channel estimation (drawn from
its sufficient statistic, :func:`_estimate_batches`), and the three linear
receivers (ZF / MRC / MMSE) — and reduces the per-stream SINR draws to
empirical NMSE, outage, and ergodic-rate figures.  Every SINR depends on the
estimate only through its ``nt x nt`` Gram matrix; once ``nr >= 2 nt`` the
samplers draw that matrix directly from its conditional Wishart law
(:func:`_wishart_gram`), so their cost no longer grows with ``nr``.

Reproducibility contract
------------------------
All randomness flows through counter-based Philox streams keyed by
``(seed, stream_id)``.  Trials are partitioned into fixed batches of 4096;
batch ``j`` of a run owns the stream ``(seed, stream_id + j)``.  A batch is
split into equal-order chunks whose size depends only on ``nr`` and ``nt``
(:func:`_chunk_sizes`), never on ``tp``: a chunk holds at most
``_CHUNK_ELEMENTS`` complex elements, counting ``max(nr, nt) nt`` per trial
on the estimate path and ``nt^2`` on the Wishart path.  Within a chunk,
draws happen in a fixed order that ``(nr, nt)`` alone selects:

* ``nr < 2 nt``, and always for :func:`empirical_nmse`: channel ``H``, pilot
  distortion ``E``, pilot noise ``W`` (:func:`_estimate_batches`);
  :func:`sample_sinr_model` draws the estimate alone;
* ``nr >= 2 nt``: ``E``, then the Bartlett factor's CN(0,1) entries below
  the diagonal (trial-major, row-major within a trial), then its ``nt``
  gamma draws per trial (:func:`_wishart_gram`); :func:`sample_sinr_model`
  draws no ``E``.

So identical ``(cfg, receiver, trials, seed)`` reproduce bit-identical
sample sets, independent of how batches would be scheduled across workers.
Receivers never enter the draws: every receiver of one call is a map of the
same Gram batch, so a call for several receivers gives each the samples, and
:func:`empirical_rate` the rate, of a call for that receiver alone.
Changing the draw order, the ``(nr, nt)`` rule or the batch/chunk partition
is a breaking change to this contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DerivedParams, Receiver, SystemConfig, _require_zf_ok, derive_params

__all__ = [
    "BATCH_TRIALS",
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

BATCH_TRIALS = 4096

# Cap on complex elements per draw array, (trials, max(nr, nt), nt) on the
# estimate path and (trials, nt, nt) on the Wishart path; bigger batches are
# processed in equal-order sub-chunks to bound resident memory.
_CHUNK_ELEMENTS = 1 << 24

# The samplers draw the Gram matrix from its Wishart law once
# nr >= _WISHART_RATIO * nt, and the estimate itself below that.  Measured:
# with the Wishart draw at every size, the CLI's 4x4 fixed-tp rate sweep
# ran slower.
_WISHART_RATIO = 2


@dataclass(frozen=True)
class RandomStream:
    """Keyed handle on a deterministic, splittable random sequence.

    Identical ``(seed, stream_id)`` always reproduce identical draws;
    distinct stream ids give statistically independent Philox sequences.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def shifted(self, offset: int) -> "RandomStream":
        """The stream ``offset`` slots after this one (used per batch)."""
        return RandomStream(self.seed, self.stream_id + offset)


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


def _chunk_sizes(cfg: SystemConfig, n: int, wishart: bool = False) -> list[int]:
    """Deterministic sub-chunk partition of a batch (memory guard; tp-free).

    A trial holds ``max(nr, nt) * nt`` complex elements on the estimate
    path, and ``nt * nt`` on the Wishart path (``wishart``), which never
    forms an ``nr``-row array.
    """
    per_trial = cfg.nt * cfg.nt if wishart else max(cfg.nr, cfg.nt) * cfg.nt
    chunk = min(BATCH_TRIALS, max(1, _CHUNK_ELEMENTS // per_trial))
    return [min(chunk, n - s) for s in range(0, n, chunk)]


def simulate_training(
    cfg: SystemConfig, rs: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """One trial of the training phase: true channel and received pilots.

    Returns ``(H, Yp)`` with ``H`` of shape (nr, nt) i.i.d. CN(0,1) and
    ``Yp = sqrt(rho/nt) H (Sp + Dp) + Vp`` of shape (nr, tp), where the
    distortion ``Dp`` is i.i.d. CN(0, delta^2) and ``Vp`` i.i.d. CN(0,1).
    This is the literal pilot chain that :func:`_estimate_batches` reduces.
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


def _batches(cfg: SystemConfig, trials: int, rs: RandomStream, wishart: bool = False):
    """Yield ``(generator, m)`` per chunk of ``trials``: batch ``j`` holds the
    next ``min(BATCH_TRIALS, trials - j*BATCH_TRIALS)`` trials, draws from the
    stream ``rs.shifted(j)`` and is split by :func:`_chunk_sizes`."""
    for j, done in enumerate(range(0, trials, BATCH_TRIALS)):
        g = rs.shifted(j).generator()
        for m in _chunk_sizes(cfg, min(BATCH_TRIALS, trials - done), wishart):
            yield g, m


def _estimator_scalars(cfg: SystemConfig) -> tuple[float, float, float]:
    """``a = sqrt(rho/nt)``, ``k = a / (a^2 tp + delta^2 rho + 1)`` and
    ``sqrt(tp)``, the scalars of :func:`_estimate_batches`."""
    a = math.sqrt(cfg.rho / cfg.nt)
    return a, a / (a * a * cfg.tp + cfg.delta**2 * cfg.rho + 1.0), math.sqrt(cfg.tp)


def _estimate_batches(
    cfg: SystemConfig, g: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` trials of the channel ``H`` and its LMMSE estimate ``Hhat``
    from the sufficient statistic of the received pilots; exact in law.

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
    non-Gaussian under distortion.  Draw order: ``H``, ``E``, ``W``.
    """
    h = _cn(g, (n, cfg.nr, cfg.nt))
    e = _cn(g, (n, cfg.nt, cfg.nt))
    w = _cn(g, (n, cfg.nr, cfg.nt))
    a, k, root_tp = _estimator_scalars(cfg)
    hhat = h @ e
    hhat *= cfg.delta * root_tp
    hhat += cfg.tp * h
    hhat *= a * k
    hhat += (k * root_tp) * w
    return h, hhat


def _bartlett_gram(
    g: np.random.Generator, m: int, nr: int, nt: int, chol: np.ndarray | None = None
) -> np.ndarray:
    """``m`` draws (m, nt, nt) of complex Wishart ``CW(nt, nr, chol chol^H)``,
    or ``CW(nt, nr, I)`` without ``chol``: ``(chol T)(chol T)^H`` with ``T``
    the lower-triangular Bartlett factor (Goodman 1963).  ``CW(nt, nr, I)``
    is the law of ``Z^H Z`` for an ``nr x nt`` i.i.d. CN(0,1) matrix ``Z``.
    Needs ``nr >= nt``.

    Draws the CN(0,1) entries of ``T`` below the diagonal first, then
    ``T_ii = sqrt(Gamma(nr - i))`` for ``i = 0 .. nt-1``.
    """
    t = np.zeros((m, nt, nt), dtype=np.complex128)
    below = np.tril_indices(nt, -1)
    t[:, below[0], below[1]] = _cn(g, (m, below[0].size))
    diag = np.arange(nt)
    t[:, diag, diag] = np.sqrt(g.standard_gamma(nr - diag, size=(m, nt)))
    if chol is not None:
        t = chol @ t
    return t @ t.conj().swapaxes(-1, -2)


def _wishart_gram(cfg: SystemConfig, g: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` normalized Gram matrices ``Hbar^H Hbar`` (m, nt, nt), with
    ``Hbar = Hhat / sqrt(sigma2_est)``, from their law given ``E``; exact.

    In the notation of :func:`_estimate_batches`, ``Hhat = H M + c W`` with
    ``M = a k (tp I + delta sqrt(tp) E)`` and ``c = k sqrt(tp)``.  Given
    ``E``, the ``nr`` rows of ``Hhat`` are i.i.d. ``CN(0, Sigma)`` with
    ``Sigma = M^H M + c^2 I``, so ``Hhat^H Hhat`` is ``CW(nt, nr, Sigma)``:
    ``L T T^H L^H`` with ``L L^H = Sigma / sigma2_est`` and ``T`` from
    :func:`_bartlett_gram`.  The non-Gaussian ``H E`` term lives in ``Sigma``.
    Draws ``nt(3 nt - 1)/2`` complex normals and ``nt`` gammas per trial,
    none of them depending on ``nr``.  Draw order: ``E``, then ``T``.
    """
    nt = cfg.nt
    a, k, root_tp = _estimator_scalars(cfg)
    root_est = math.sqrt(derive_params(cfg).sigma2_est)
    diag = np.arange(nt)
    mm = _cn(g, (m, nt, nt))
    mm *= cfg.delta * root_tp
    mm[:, diag, diag] += cfg.tp
    mm *= a * k / root_est
    sigma = _gram(mm)
    sigma[:, diag, diag] += (k * root_tp / root_est) ** 2
    return _bartlett_gram(g, m, cfg.nr, nt, np.linalg.cholesky(sigma))


def _wishart(cfg: SystemConfig) -> bool:
    """Whether the samplers draw the Gram matrix from its Wishart law."""
    return cfg.nr >= _WISHART_RATIO * cfg.nt


def _gram(x: np.ndarray) -> np.ndarray:
    """Batched ``X^H X``."""
    return x.conj().swapaxes(-1, -2) @ x


def _sample_sets(
    cfg: SystemConfig, receivers, trials: int, rs: RandomStream, gram
) -> dict[Receiver, SinrSampleSet]:
    """One :class:`SinrSampleSet` per distinct receiver, from the normalized
    Gram matrices ``gram(g, m)`` (m, nt, nt) of each chunk; ``gram`` draws
    them from their Wishart law exactly when :func:`_wishart` says so.

    ``receivers`` is a non-empty iterable of :class:`Receiver` or their
    names (``"mmse"``); a bare receiver, or none at all, raises
    ``ValueError`` before anything is drawn."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if isinstance(receivers, str):  # a Receiver is a str too
        raise ValueError(f"receivers must be a tuple of receivers, got the single "
                         f"receiver {str(receivers)!r}; wrap it as a 1-tuple")
    receivers = tuple(dict.fromkeys(Receiver(r) for r in receivers))
    if not receivers:
        raise ValueError("need at least one receiver")
    _require_zf_ok(cfg.nt, cfg.nr, *receivers)
    dpar = derive_params(cfg)
    parts: dict[Receiver, list[np.ndarray]] = {r: [] for r in receivers}
    for g, m in _batches(cfg, trials, rs, _wishart(cfg)):
        grams = gram(g, m)
        for r in receivers:
            parts[r].append(_gram_sinr(grams, r, dpar, cfg.delta).ravel())
    return {
        r: SinrSampleSet(
            receiver=r,
            samples=np.concatenate(parts[r]),
            cfg=cfg,
            trials=trials,
            seed=rs.seed,
        )
        for r in receivers
    }


def sample_sinr_multi(
    cfg: SystemConfig, receivers: tuple[Receiver, ...], trials: int, rs: RandomStream
) -> dict[Receiver, SinrSampleSet]:
    """SINR samples for several receivers over the *same* channel draws.

    One simulation pass (the Gram matrix of the estimate, drawn from its
    Wishart law when ``nr >= 2 nt``), then each receiver's SINR map applied
    to the shared Gram batch, so sample k of one receiver and sample k of
    another describe the same channel realization and stream.  See
    :class:`SinrSampleSet` for the sample layout.
    """
    if _wishart(cfg):
        return _sample_sets(
            cfg, receivers, trials, rs, lambda g, m: _wishart_gram(cfg, g, m)
        )
    sigma_est = math.sqrt(derive_params(cfg).sigma2_est)
    return _sample_sets(
        cfg, receivers, trials, rs,
        lambda g, m: _gram(_estimate_batches(cfg, g, m)[1] / sigma_est),
    )


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
    for distribution-level comparisons.  Stream/batch layout and the
    sample ordering match :func:`sample_sinr_multi`; when ``nr >= 2 nt`` the
    Gram matrix is the Bartlett draw ``T T^H`` of ``CW(nt, nr, I)``.
    """
    if _wishart(cfg):
        return _sample_sets(
            cfg, receivers, trials, rs, lambda g, m: _bartlett_gram(g, m, cfg.nr, cfg.nt)
        )
    return _sample_sets(
        cfg, receivers, trials, rs, lambda g, m: _gram(_cn(g, (m, cfg.nr, cfg.nt)))
    )


def empirical_nmse(cfg: SystemConfig, trials: int, rs: RandomStream) -> float:
    """Monte Carlo estimate of the per-entry channel-estimation NMSE,
    ``mean ||H - Hhat||_F^2 / (nr nt)`` over ``trials`` channel draws."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    total = 0.0
    for g, m in _batches(cfg, trials, rs):
        h, hhat = _estimate_batches(cfg, g, m)
        err = h - hhat
        total += float(np.sum(err.real**2 + err.imag**2))
    return total / (trials * cfg.nr * cfg.nt)


def empirical_rate(
    cfg: SystemConfig, receivers: tuple[Receiver, ...], trials: int, rs: RandomStream
) -> dict[Receiver, float]:
    """Monte Carlo ergodic achievable rate of each receiver, in bits per
    channel use: ``(td/t) * nt * mean(log2(1 + sinr))`` over its per-stream
    samples.

    One :func:`sample_sinr_multi` pass serves every receiver, so their
    rates rest on the same channel draws, and each rate equals a call for
    that receiver alone bit for bit.  The draws do not depend on ``tp``:
    calls that differ only in ``tp`` and share ``rs`` see common random
    numbers.
    """
    scale = (cfg.td / cfg.t) * cfg.nt
    return {
        r: scale * float(np.mean(np.log2(1.0 + s.samples)))
        for r, s in sample_sinr_multi(cfg, receivers, trials, rs).items()
    }


def empirical_outage(
    samples: SinrSampleSet, threshold: float | np.ndarray
) -> float | np.ndarray:
    """Fraction of SINR samples at or below ``threshold`` (empirical CDF).

    An array of thresholds is served by one sort and a binary search; the
    counts are exact integers, so each entry equals the scalar call bit for
    bit.
    """
    x = np.asarray(threshold, dtype=float)
    if not np.all(x >= 0):  # also rejects NaN
        raise ValueError(f"need thresholds >= 0, got {threshold}")
    if x.ndim == 0:
        return float(np.mean(samples.samples <= x))
    s = np.sort(samples.samples, axis=None)
    return np.searchsorted(s, x, side="right") / s.size
