"""Large-system limits: deterministic SINR equivalents and their rate.

When both antenna counts grow with a fixed ratio ``beta = nr/nt``, the
per-stream SINRs of all three receivers stop fluctuating: they converge
almost surely to deterministic equivalents that depend only on
``(beta, c1, delta)``, where ``c1 = c0/nt`` stays finite in the limit.
:func:`det_sinr` takes ``beta`` and ``c1`` as plain arguments; they come
from :func:`~mimolink.config.derive_params_at`, the one home of the derived
scalars.  This module evaluates those equivalents, the associated
deterministic rate (at one training length, or at every feasible one in a
single numpy pass for the training-length search) and the common
large-``beta`` limit.

The MMSE equivalent solves the quadratic fixed point
``s m^2 + d m - beta = 0`` with ``s = c1/(1+delta^2)`` and
``d = s + 1 - beta``; the closed solution is
``m = (-d + sqrt(d^2 + 4 beta s))/(2 s)``, and the SINR follows as
``m/(1 + delta^2 + delta^2 m)``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Receiver, SystemConfig, derive_params_at

__all__ = [
    "det_sinr",
    "det_sinr_limit",
    "det_rate",
    "det_rate_scan",
]


def _mmse_m(beta: float, c1, delta: float) -> float | np.ndarray:
    """Closed solution of the MMSE fixed-point quadratic s m^2 + d m = beta."""
    s = c1 / (1.0 + delta * delta)
    d = s + 1.0 - beta
    # np.sqrt broadcasts and, like math.sqrt, is correctly rounded.
    return (-d + np.sqrt(d * d + 4.0 * beta * s)) / (2.0 * s)


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
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
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
    if not 0.0 < delta < math.inf:
        raise ValueError(f"the beta -> inf limit needs finite delta > 0, got {delta}")
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
