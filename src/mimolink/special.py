"""Special functions and series coefficients for the closed-form rate family.

Two function families are needed by the closed-form rate expressions: the
generalized exponential integral ``E_n`` and Tricomi's confluent
hypergeometric function of the second kind ``U(a, b; z)`` (sometimes called
the regularized hypergeometric function in the receiver literature; both
names refer to the same object here).

The rate formulas instantiate these at arguments that overflow or underflow
double precision when evaluated naively -- ``E_n`` at ``z ~ 1e7`` multiplied
by ``e^z``, ``U`` values spanning hundreds of orders of magnitude, series
coefficients past ``1e308``.  The module therefore works in scaled or
log-magnitude form internally:

* ``exp_integral_en_scaled`` returns ``theta(n, z) = e^z * E_n(z)`` directly
  (continued fraction / series, never the overflowing product);
* ``log_tricomi_u_family`` returns ``log U`` for a whole batch of ``(a, b)``
  pairs sharing one ``z``, via a single vectorized adaptive quadrature of the
  Laplace integral representation;
* coefficient tables store natural-log magnitudes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import AccuracyError
from .quadrature import _XK, integrate_family

__all__ = [
    "exp_integral_en_scaled",
    "log_tricomi_u_family",
    "build_coefficients",
]

_EULER = float(np.euler_gamma)

# Crossover between the small-z power series and the continued fraction.
_SERIES_CUTOFF = 1.5

# Largest (pairs x nodes) array a Tricomi family may build (128 MiB float64).
_TRICOMI_ELEMENTS = 1 << 24


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.setflags(write=False)  # shared by every caller through the cache
    return table


def _log_factorial(n) -> np.ndarray:
    """``log n!`` elementwise for integer-valued ``n`` (any real dtype).

    Negative ``n`` gives ``+inf``, the pole of ``log Gamma(n + 1)``, so the
    coefficient formulas can mask structural zeros as ``-inf`` terms.  The
    table behind it grows in powers of two, so a process builds a handful.
    Non-integer ``n`` raises ``ValueError`` rather than being truncated.
    """
    n = np.asarray(n)
    idx = n.astype(np.int64)
    if n.dtype.kind == "f" and not np.array_equal(idx, n):
        raise ValueError("log-factorial arguments must be integer-valued")
    size = 1 << max(8, int(idx.max(initial=0)).bit_length())
    return np.where(idx >= 0, _log_factorial_table(size)[np.maximum(idx, 0)], np.inf)


def _theta_series(n: int, z: float) -> float:
    """theta(n, z) for z <= _SERIES_CUTOFF via the power series for E_n.

    Alternating series around the log term; converges in ~25 terms for
    z <= 1.5 with only mild cancellation (factor ~e^z).
    """
    n1 = n - 1
    ans = (1.0 / n1) if n1 != 0 else (-math.log(z) - _EULER)
    fact = 1.0
    for i in range(1, 200):
        fact *= -z / i
        if i != n1:
            delt = -fact / (i - n1)
        else:
            psi = -_EULER + sum(1.0 / ii for ii in range(1, n1 + 1))
            delt = fact * (-math.log(z) + psi)
        ans += delt
        if abs(delt) < abs(ans) * 1e-17:
            return math.exp(z) * ans
    raise AccuracyError(f"E_n series failed to converge for n={n}, z={z}")


def _theta_cf(n: int, z: float) -> float:
    """theta(n, z) for z > _SERIES_CUTOFF via the modified Lentz continued
    fraction, which yields the scaled product e^z * E_n(z) directly."""
    tiny = 1e-300
    b = z + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 100000):
        a = -i * (n - 1 + i)
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < 1e-16:
            return h
    raise AccuracyError(f"E_n continued fraction failed to converge for n={n}, z={z}")


def exp_integral_en_scaled(n: int, z: float) -> float:
    """Scaled generalized exponential integral ``theta(n, z) = e^z * E_n(z)``.

    Well-behaved over the whole parameter range used by the rate formulas
    (z from ~1e-6 up to ~1e9); this is the form every internal consumer
    wants, since the rate expressions always pair ``E_n`` with ``e^z``.

    Args:
        n: order, integer >= 1.
        z: argument, > 0.
    """
    if n < 1:
        raise ValueError(f"E_n order must be >= 1, got n={n}")
    if not z > 0:
        raise ValueError(f"E_n argument must be > 0, got z={z}")
    if z <= _SERIES_CUTOFF:
        return _theta_series(int(n), float(z))
    return _theta_cf(int(n), float(z))


# ---------------------------------------------------------------------------
# Tricomi U


def log_tricomi_u_family(ab_pairs: np.ndarray, z: float) -> np.ndarray:
    """``log U(a, b; z)`` for a batch of integer ``(a, b)`` pairs at shared z.

    Evaluates the Laplace representation
    ``U(a,b;z) = (1/Gamma(a)) int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt``
    after the substitution ``x = z t``, with one vectorized adaptive
    quadrature over all components.  Each component is rescaled by its peak
    log-magnitude first, so families spanning hundreds of orders of
    magnitude converge together.  This is the hot path of the closed-form
    rate assembly -- a single rate evaluation needs the whole
    ``U(a, a-k; z)`` family at once.

    Args:
        ab_pairs: integer array of shape (m, 2); requires a >= 1 per row
            (b may be any integer, including <= 0).
        z: shared argument, > 0.

    Returns:
        Array (m,) of natural-log values (U is positive throughout this
        parameter range).

    Raises:
        AccuracyError: before building any (pairs x nodes) array larger than
            ``_TRICOMI_ELEMENTS``.
    """
    ab = np.asarray(ab_pairs, dtype=float)
    if ab.ndim != 2 or ab.shape[1] != 2:
        raise ValueError("ab_pairs must have shape (m, 2)")
    if not z > 0:
        raise ValueError(f"U argument must be > 0, got z={z}")
    a = ab[:, 0]
    b = ab[:, 1]
    if not np.array_equal(ab, np.round(ab)):
        raise ValueError("U parameters (a, b) must be integers")
    if np.any(a < 1):
        raise ValueError("U first parameter must be >= 1 for the Laplace form")
    q = b - a - 1.0  # exponent of (1 + x/z)

    # Integration range in x = z*t: gamma-like mass near x ~ a-1 (+ any
    # polynomial growth from positive q), exponential tail beyond.
    p_eff = (a - 1.0) + np.maximum(q, 0.0)
    x_max = float(np.max(p_eff) + 15.0 * math.sqrt(np.max(p_eff) + 10.0) + 80.0)

    # Seed knots: log-spaced to resolve the small-x algebraic structure
    # (scale ~ z/|q| when q is large and z small), plus a linear cover of the
    # gamma-peak region.
    q_big = float(np.max(np.abs(q))) + 1.0
    x_floor = min(1e-8, z / q_big * 1e-3, x_max * 1e-14)
    knots = np.concatenate(
        [
            np.logspace(math.log10(x_floor), math.log10(x_max), 80),
            np.linspace(1.0, x_max, 24),
        ]
    )

    a_col = a[:, None]
    q_col = q[:, None]

    def _log_integrand(x: np.ndarray) -> np.ndarray:
        lx = np.log(x)[None, :]
        out = -x[None, :] + q_col * np.log1p(x[None, :] / z)
        np.add(out, (a_col - 1.0) * lx, where=(a_col > 1.0), out=out)
        return out

    # Fix each component's scale from a coarse probe of the seed knots plus
    # the analytic peak location, then keep it frozen during refinement.
    probe = np.concatenate([knots, np.clip(a - 1.0, x_floor, x_max)])
    size = a.size * max(probe.size, knots.size * _XK.size)
    if size > _TRICOMI_ELEMENTS:
        raise AccuracyError(f"Tricomi U family of {a.size} pairs x {size // a.size} "
                            f"nodes exceeds the {_TRICOMI_ELEMENTS}-element budget")
    scale = _log_integrand(probe).max(axis=1)  # (m,)

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(_log_integrand(x) - scale[:, None])

    vals = integrate_family(
        f, 0.0, x_max, points=knots, rel_tol=1e-12, abs_tol=1e-280, max_levels=20
    )
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise AccuracyError("Tricomi U quadrature produced a non-positive component")
    return scale + np.log(vals) - _log_factorial(a - 1.0) - a * math.log(z)


# ---------------------------------------------------------------------------
# Series coefficients of the SINR distribution family


def _lchoose(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Log binomial coefficient with the conventions the series need:
    C(n, 0) = 1 for any n (including negative), C(n, k) = 0 for k > n >= 0."""
    n, k = np.broadcast_arrays(
        np.asarray(n, dtype=float), np.asarray(k, dtype=float)
    )
    out = np.full(n.shape, -np.inf)
    zero_k = k == 0
    out[zero_k] = 0.0
    valid = (~zero_k) & (n >= k)
    nv, kv = n[valid], k[valid]
    out[valid] = _log_factorial(nv) - _log_factorial(kv) - _log_factorial(nv - kv)
    return out


def build_coefficients(
    nt: int, nr: int, c0: float, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the coefficient tables entering the SINR CDF series.

    alpha_{p,k} = C(nt+p-2, p) * ((1+delta^2)/c0)^p / (k-p)!
    beta_k      = sum_{p=max(0, k-nt+1)}^{k}
                      C(nt-1, k-p) * (c0/(1+delta^2))^{p-k} / p!

    Returns ``(log_alpha, log_beta)`` of shapes (nr, nr) and (nr,), natural
    logs with ``-inf`` at the structural zeros ``p > k``: the raw values
    overflow doubles already around nr ~ 200 when c0 is small.

    Args:
        nt: transmit-antenna count, >= 1.
        nr: receive-antenna count (table size), >= 1.
        c0: noise-scaling factor, > 0.
        delta: impairment level, >= 0.
    """
    if nt < 1 or nr < 1:
        raise ValueError(f"need nt, nr >= 1, got nt={nt}, nr={nr}")
    if not c0 > 0:
        raise ValueError(f"need c0 > 0, got {c0}")
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")

    log_ratio = math.log1p(delta * delta) - math.log(c0)  # log((1+d^2)/c0)

    k = np.arange(nr)
    p = np.arange(nr)[:, None]  # (p, 1) against (k,)

    log_alpha = _lchoose(nt + p - 2, p) + p * log_ratio - _log_factorial(k - p)
    log_alpha = np.where(p <= k, log_alpha, -np.inf)

    # beta: for each k sum over admissible p in log space.  Terms with
    # k - p > nt - 1 vanish through the binomial convention.
    terms = _lchoose(nt - 1, k - p) + (p - k) * (-log_ratio) - _log_factorial(p)
    terms = np.where(p <= k, terms, -np.inf)
    peak = terms.max(axis=0)  # finite: the p = k term always is
    log_beta = peak + np.log(np.exp(terms - peak).sum(axis=0))

    if not np.all(np.isfinite(log_beta)):
        raise AccuracyError("beta coefficient table has a non-finite log entry")
    return log_alpha, log_beta
