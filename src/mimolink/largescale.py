"""Large-system limits: deterministic SINR equivalents and their rate.

When both antenna counts grow with a fixed ratio ``beta = nr/nt``, the
per-stream SINRs of all three receivers stop fluctuating: they converge
almost surely to deterministic equivalents that depend only on
``(beta, c1, delta)``, where ``c1 = c0/nt`` stays finite in the limit.
:func:`det_sinr` takes ``beta`` and ``c1`` as plain arguments; they come
from :func:`~mimolink.config.derive_params_at`, the one home of the derived
scalars.  This module evaluates those equivalents, the associated
deterministic rate (at one training length, or at every feasible one in a
single numpy pass for the training-length search), the common
large-``beta`` limit, and ships a property-check harness for the
random-matrix identities the derivation rests on.

The MMSE equivalent solves the quadratic fixed point
``s m^2 + d m - beta = 0`` with ``s = c1/(1+delta^2)`` and
``d = s + 1 - beta``; the closed solution is
``m = (-d + sqrt(d^2 + 4 beta s))/(2 s)``, and the SINR follows as
``m/(1 + delta^2 + delta^2 m)``.  An explicit fixed-point iteration of the
same equation is provided for cross-checking (it must agree to ~1e-8,
which pins the normalization of the quadratic's leading coefficient).
"""

from __future__ import annotations

import math

import numpy as np

from .config import AccuracyError, Receiver, SystemConfig, derive_params_at
from .simulate import RandomStream, _cn

__all__ = [
    "det_sinr",
    "det_sinr_limit",
    "det_rate",
    "det_rate_scan",
    "rmt_lemma_check",
]


def _mmse_m(beta: float, c1, delta: float) -> float | np.ndarray:
    """Closed solution of the MMSE fixed-point quadratic s m^2 + d m = beta."""
    s = c1 / (1.0 + delta * delta)
    d = s + 1.0 - beta
    # np.sqrt broadcasts and, like math.sqrt, is correctly rounded.
    return (-d + np.sqrt(d * d + 4.0 * beta * s)) / (2.0 * s)


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


def det_sinr(receiver: Receiver, beta: float, c1, delta: float) -> float | np.ndarray:
    """Deterministic equivalent of the per-stream SINR in the large-antenna
    limit at fixed ``beta``.

    ZF: ``(beta-1)/(delta^2 (beta-1) + c1)`` (requires beta > 1); MRC:
    ``beta/(1 + delta^2 + c1 + delta^2 beta)``; MMSE: via the fixed-point
    solution ``m`` as ``m/(1 + delta^2 + delta^2 m)``.  All three stay
    strictly below the distortion wall ``1/delta^2`` for finite beta.
    ``beta`` and ``c1`` are the fields of :class:`DerivedParams`; an array
    ``c1`` (one entry per training length) gives an array of SINRs.
    """
    if not beta >= 1.0:
        raise ValueError(f"need beta >= 1, got {beta}")
    if not np.all(c1 > 0.0):
        raise ValueError(f"need c1 > 0, got {c1}")
    d2 = delta * delta
    if receiver is Receiver.ZF:
        if not beta > 1.0:
            raise ValueError(
                f"the ZF deterministic equivalent needs beta > 1, got beta={beta}"
            )
        return (beta - 1.0) / (d2 * (beta - 1.0) + c1)
    if receiver is Receiver.MRC:
        return beta / (1.0 + d2 + c1 + d2 * beta)
    if receiver is Receiver.MMSE:
        m = _mmse_m(beta, c1, delta)
        return m / (1.0 + d2 + d2 * m)
    raise ValueError(f"unknown receiver: {receiver!r}")


def det_sinr_limit(delta: float) -> float:
    """Common SINR limit ``1/delta^2`` of all receivers as beta grows
    without bound (undefined at delta = 0, where no finite limit exists)."""
    if delta <= 0.0:
        raise ValueError(f"the beta -> inf limit needs delta > 0, got {delta}")
    return 1.0 / (delta * delta)


def _det_rate(receiver: Receiver, cfg: SystemConfig, tp, log2):
    """The rate formula at training length(s) ``tp``, an int or an array."""
    dp = derive_params_at(cfg, tp)
    gbar = det_sinr(receiver, dp.beta, dp.c1, cfg.delta)
    return (1.0 - tp / cfg.t) * cfg.nt * log2(1.0 + gbar)


def det_rate(receiver: Receiver, cfg: SystemConfig) -> float:
    """Deterministic-equivalent achievable rate, bits per channel use:
    ``(1 - tp/t) nt log2(1 + det_sinr)`` with parameters derived from cfg."""
    return float(_det_rate(receiver, cfg, cfg.tp, math.log2))


def det_rate_scan(receiver: Receiver, cfg: SystemConfig) -> np.ndarray:
    """Deterministic-equivalent rate at every feasible training length
    ``tp = nt .. t-1`` (``cfg.tp`` is ignored), in one numpy pass.

    Entry ``i`` is ``det_rate(receiver, cfg.with_tp(nt + i))`` up to the last
    bit of the logarithm (``np.log2`` and ``math.log2`` may differ by an ulp).
    """
    return _det_rate(receiver, cfg, np.arange(cfg.nt, cfg.t), np.log2)


# ---------------------------------------------------------------------------
# Random-matrix identity checks

_LEMMA_DRAWS = {"inversion": 10, "trace": 100, "rank1": 1000, "stieltjes": 10}


def rmt_lemma_check(
    lemma_id: str, n: int, rs: RandomStream, draws: int | None = None
) -> float:
    """Monte Carlo audit of one random-matrix lemma; returns the worst
    deviation over random instances.

    ``"inversion"``: the rank-one update identity
    ``x^H (A + tau x x^H)^{-1} = x^H A^{-1} / (1 + tau x^H A^{-1} x)`` —
    exact, deviation is pure floating-point (<= ~1e-10).

    ``"trace"``: concentration ``|x^H A x - tr(A)/n|`` for ``x ~ CN(0, I/n)``
    and ``A`` of bounded spectral norm; deviation is O(1/sqrt(n)).

    ``"rank1"``: the resolvent perturbation bound
    ``|tr((B - zI)^{-1} A - (B + vv^H - zI)^{-1} A)| <= ||A||_2 / |z|`` for
    ``z < 0``; returns the worst (lhs - bound) margin, which must be <= 0.

    ``"stieltjes"``: the companion-resolvent identity
    ``(n2/n) m_{A^H A}(z) = m_{A A^H}(z) + ((n - n2)/n)(1/z)`` at
    ``z`` away from the positive real axis — exact, deviation ~1e-10.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if lemma_id not in _LEMMA_DRAWS:
        raise ValueError(f"unknown lemma id: {lemma_id!r}")
    if draws is None:
        draws = _LEMMA_DRAWS[lemma_id]
    g = rs.generator()
    worst = -math.inf

    if lemma_id == "inversion":
        for _ in range(draws):
            b = _cn(g, (n, n))
            a = b @ b.conj().T + np.eye(n)
            x = _cn(g, (n,))
            tau = float(g.uniform(0.1, 3.0))
            lhs = x.conj() @ np.linalg.inv(a + tau * np.outer(x, x.conj()))
            xa = x.conj() @ np.linalg.inv(a)
            rhs = xa / (1.0 + tau * (xa @ x).real)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst

    if lemma_id == "trace":
        for _ in range(draws):
            b = _cn(g, (n, n))
            a = b @ b.conj().T
            a /= np.linalg.norm(a, 2)  # bounded spectral norm
            x = _cn(g, (n,)) / math.sqrt(n)
            dev = abs((x.conj() @ a @ x).real - np.trace(a).real / n)
            worst = max(worst, float(dev))
        return worst

    if lemma_id == "rank1":
        z = -1.0
        for _ in range(draws):
            c = _cn(g, (n, n))
            bmat = c @ c.conj().T / n
            amat = _cn(g, (n, n))
            amat = amat @ amat.conj().T / n
            v = _cn(g, (n,))
            r0 = np.linalg.inv(bmat - z * np.eye(n))
            r1 = np.linalg.inv(bmat + np.outer(v, v.conj()) - z * np.eye(n))
            lhs = abs(np.trace((r0 - r1) @ amat))
            bound = np.linalg.norm(amat, 2) / abs(z)
            worst = max(worst, float(lhs - bound))
        return worst

    # stieltjes
    n2 = max(1, n // 2)
    worst = 0.0
    for _ in range(draws):
        a = _cn(g, (n, n2))
        for z in (-2.0, -0.5 + 1.3j):
            m_small = np.trace(np.linalg.inv(a.conj().T @ a - z * np.eye(n2))) / n2
            m_big = np.trace(np.linalg.inv(a @ a.conj().T - z * np.eye(n))) / n
            lhs = (n2 / n) * m_small
            rhs = m_big + ((n - n2) / n) * (1.0 / z)
            worst = max(worst, float(abs(lhs - rhs)))
    return worst
