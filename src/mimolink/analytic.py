"""Closed-form SINR distributions and ergodic rates for the three receivers.

Everything here is an analytical counterpart of what the simulator measures:
per-stream SINR CDFs (= outage probabilities), ergodic achievable rates in
three interchangeable forms (special-function closed form, direct quadrature
of the survival function, low-SNR quadratic law), and the high-SNR rate
ceiling induced by the transmit distortion.

Numerical strategy
------------------
The closed-form rate series involves coefficients and special-function
values spanning hundreds of orders of magnitude, so its assembly happens on
(sign, log-magnitude) pairs.  The series alternates in sign; terms are
accumulated scaled by the peak magnitude, and the cancellation ratio
``sum|t| / |sum t|`` is monitored.  If it exceeds ``_CANCEL_LIMIT`` (a
1e6-ulp error budget), the closed form silently loses more than ~1e-10 of
relative accuracy, so the routine logs the operand magnitudes and falls back
to the quadrature form, which is mathematically identical; it does the same
when a special function of the series fails to converge.

The survival functions (the CDFs and the quadrature integrand) are worked in
the substituted variable ``u = c0*gamma/(1 - delta^2*gamma)``, which maps the
SINR wall to infinity and turns both CDF arguments into polynomials in ``u``:
the integrand is smooth exponential-times-rational on ``[0, inf)`` for every
``delta >= 0``, including ``delta = 0`` where no wall exists.  With the
regularized upper incomplete gamma ``Q(a, u) = e^{-u} sum_{k<a} u^k/k!``
(DLMF 8.4.10), the inner series of the MRC survival sums in closed form,
``sum_{k>=p} u^k/(k-p)! = u^p e^u Q(nr-p, u)`` (and likewise for MMSE), so

    S_MRC(u) = v^{-(nt-1)} sum_p C(nt+p-2, p) (r u / v)^p Q(nr-p, u),

with ``r = (1+delta^2)/c0`` and ``v = 1 + r u``.  Every survival is thereby a
mixture of ``Q(nr-j, u)`` with probability weights (see :func:`_survival_u`):
O(nr) positive terms per node, no cancellation, and no ``nr x nr`` table.

One quadrature engine serves every rate.  It integrates the survival over
``u`` for a whole vector of c0 values at once (one per training length in a
``tp`` scan, a single one for a point rate) with one adaptive-quadrature call
per chunk.  Chunks and blocks split the c0 values for different ends:

* a *chunk* is one quadrature problem.  Chunks are sized so that c0 values
  x seed nodes stays within ``_WORKING_SET``, and each chunk takes its
  knots from its smallest c0, whose small-u structure is the finest; so
  chunks decide where the integrand is evaluated;
* a *block* is a run of c0 rows of one integrand evaluation, about
  ``_BLOCK_VALUES`` values (:func:`_rate_integrand`).  The integrand is
  written into one preallocated c0 values x nodes array, block by block,
  and the survival is summed one mixture term at a time in a few
  block-sized scratch arrays.  Blocks only bound cache use and memory: each
  runs the same ufuncs on contiguous arrays, so no value depends on the
  block it falls in.

So one integrand evaluation holds its c0 values x nodes result, a few
arrays over the nodes alone (the ``log Q`` rows, ``log u``) and four
blocks; a level of the quadrature needs little more than its result.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .config import (
    AccuracyError,
    Receiver,
    SystemConfig,
    _require_zf_ok,
    derive_params,
    derive_params_at,
)
from .quadrature import _XK, integrate_family
from .quadrature import integrate  # noqa: F401  (unused; wrapped by perfbench/spans.py)
from .special import (
    _lchoose,
    _log_factorial,
    build_coefficients,
    exp_integral_en_scaled,
    log_tricomi_u_family,
)

__all__ = [
    "sinr_cdf",
    "outage",
    "rate_closed_form",
    "rate_quadrature",
    "rate_scan",
    "rate_low_snr",
    "rate_ceiling",
]

logger = logging.getLogger(__name__)

# Cancellation budget for the alternating closed-form rate series, expressed
# as the admissible ratio sum|terms| / |sum terms| (~1e6 ulps of headroom).
_CANCEL_LIMIT = 1.0e6

# Bound on the batched rate integrand's working set, in c0 values x seed
# quadrature nodes (one float64 array of this size is 2 MiB).
_WORKING_SET = 1 << 18

# Integrand values per block of c0 rows (:func:`_rate_integrand`): the
# block's arrays stay in cache, where a 4x4 scan's full (196, ~490) arrays
# would stream from L3 at every pass.
_BLOCK_VALUES = 1 << 14

# Log-spaced seed knots of the u-space rate integral; the adaptive bisection
# refines wherever the tolerance needs more.
_SEED_KNOTS = 12


@lru_cache(maxsize=128)
def _table(nt: int, nr: int, c0: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    return build_coefficients(nt, nr, c0, delta)


def _poisson_tail(a_max: int, u: np.ndarray) -> np.ndarray:
    """Rows ``Q(1, u) .. Q(a_max, u)`` of the regularized upper incomplete
    gamma at integer order, shape ``(a_max, len(u))``.

    ``Q(a, u) = e^{-u} sum_{k<a} u^k / k!`` (DLMF 8.4.10) is accumulated from
    Poisson pmfs: positive terms only, so every row keeps full relative
    accuracy, deep in the tail too.
    """
    k = np.arange(a_max)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0: 0 * log 0
        log_pmf = k * np.log(u)
    log_pmf[0] = 0.0
    log_pmf -= u
    log_pmf -= _log_factorial(k)
    return np.cumsum(np.exp(log_pmf, out=log_pmf), axis=0)


@lru_cache(maxsize=128)
def _mixture_log_binomials(receiver: Receiver, nt: int, nr: int) -> np.ndarray:
    """``log C`` of each MMSE or MRC survival mixture term (:func:`_survival_u`)."""
    if receiver is Receiver.MMSE:
        log_c = _lchoose(nt - 1, np.arange(min(nt, nr)))
    elif receiver is Receiver.MRC:
        j = np.arange(nr)
        log_c = _lchoose(nt + j - 2, j)
    else:
        raise ValueError(f"unknown receiver: {receiver!r}")
    log_c.setflags(write=False)  # shared by every caller through the cache
    return log_c


class _Nodes(NamedTuple):
    """What the survival reads of its nodes alone, computed once per call."""

    u: np.ndarray  # (n,), contiguous
    log_u: np.ndarray | None  # (n,); None for ZF
    rows: np.ndarray  # ZF: Q(nr-nt+1, u), (n,); else row j: log C_j + log Q(nr-j, u)


def _nodes(receiver: Receiver, nt: int, nr: int, u: np.ndarray) -> _Nodes:
    u = np.ascontiguousarray(u, dtype=float)
    if receiver is Receiver.ZF:
        return _Nodes(u, None, _poisson_tail(nr - nt + 1, u)[-1])
    log_c = _mixture_log_binomials(receiver, nt, nr)
    with np.errstate(divide="ignore"):  # Q(a, u) underflows to 0 far out; u = 0
        log_q = np.log(_poisson_tail(nr, u)[nr - log_c.size:])
        log_u = np.log(u)
    return _Nodes(u, log_u, log_q[::-1] + log_c[:, None])


def _survival_u(
    receiver: Receiver,
    nt: int,
    ratio: np.ndarray,
    nodes: _Nodes,
    out: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Survival ``1 - F`` of the per-stream SINR in u-space, batched over c0.

    ``ratio = (1+delta^2) / c0`` has shape ``(m,)``, and ``nodes`` is
    ``_nodes(receiver, nt, nr, u)`` for nodes ``u >= 0`` of shape ``(n,)``.
    The survival is written into ``out``, shape ``(m, n)``, and returned
    (for ZF, the one c0-free row is returned broadcast instead); ``scratch``
    holds three more ``(m, n)`` arrays.  With ``w = ratio u``, ``v = 1 + w``
    and ``x = w / v``, every survival is a mixture of ``Q(nr - j, u)``
    (:func:`_poisson_tail`) with probability weights:

    * ZF: ``Q(nr - nt + 1, u)``, independent of c0;
    * MMSE: ``sum_{j<min(nt,nr)} C(nt-1, j) x^j (1-x)^(nt-1-j) Q(nr-j, u)``;
    * MRC: ``sum_{j<nr} C(nt+j-2, j) x^j (1-x)^(nt-1) Q(nr-j, u)``.

    Each term is evaluated in log space as
    ``log C + j log z - (nt-1) log v + log Q`` with ``z = w`` (MMSE) or
    ``z = x`` (MRC), so no intermediate overflows, and every term is
    positive.  Every transcendental ufunc reads a contiguous array: numpy
    may run a strided input through a different loop, whose last bits can
    differ, and then a value would depend on its neighbours.
    """
    if receiver is Receiver.ZF:
        return np.broadcast_to(nodes.rows, out.shape)
    log_v, log_z, term = scratch
    np.multiply(ratio[:, None], nodes.u, out=log_v)
    np.log1p(log_v, out=log_v)
    np.add(np.log(ratio)[:, None], nodes.log_u, out=log_z)
    if receiver is Receiver.MRC:
        log_z -= log_v
    log_v *= -(nt - 1)
    # One term at a time: exp(j log z - (nt-1) log v + log C_j Q).
    # Term 0 skips 0 * log z, which is NaN at u = 0.
    log_cq = nodes.rows
    np.add(log_v, log_cq[0], out=out)
    np.exp(out, out=out)
    for j in range(1, log_cq.shape[0]):
        np.multiply(log_z, j, out=term)
        term += log_v
        term += log_cq[j]
        out += np.exp(term, out=term)
    return out


def sinr_cdf(
    receiver: Receiver, cfg: SystemConfig, gamma: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form CDF of the per-stream output SINR at ``gamma``.

    ``gamma`` is a scalar (returns a float) or an array of thresholds
    (returns an array of their CDFs, each bit-identical to the scalar call).
    For ``delta > 0`` the distribution has an atom-free wall at
    ``1/delta^2``: the CDF is exactly 1 from the wall upward.  The series
    value is clamped to [0, 1] after summation.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):  # NaN fails too
        raise ValueError(f"need gamma >= 0, got {gamma}")
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    d2 = cfg.delta**2
    wall = g * d2 >= 1.0 if d2 > 0 else np.isinf(g)  # at or past 1/delta^2
    cdf = np.where(wall, 1.0, 0.0)
    inner = (g > 0.0) & (cdf == 0.0)
    c0 = derive_params(cfg).c0
    u = c0 * g[inner] / (1.0 - d2 * g[inner])
    nodes = _nodes(receiver, cfg.nt, cfg.nr, u)
    out, *scratch = np.empty((4, 1, u.size))
    ratio = np.array([(1.0 + cfg.delta * cfg.delta) / c0])
    s = _survival_u(receiver, cfg.nt, ratio, nodes, out, scratch)
    cdf[inner] = np.clip(1.0 - s[0], 0.0, 1.0)
    return float(cdf) if cdf.ndim == 0 else cdf


def outage(
    receiver: Receiver, cfg: SystemConfig, threshold: float | np.ndarray
) -> float | np.ndarray:
    """Outage probability at an SINR threshold (or array); identical to the CDF."""
    return sinr_cdf(receiver, cfg, threshold)


def _rate_prefactor(cfg: SystemConfig, tp: int | np.ndarray) -> float | np.ndarray:
    return (cfg.t - tp) * cfg.nt / (math.log(2.0) * cfg.t)


def _u_knots(k_max: int, c0: float, delta: float) -> tuple[float, np.ndarray]:
    """Truncation point and seed knots for the u-space rate integral."""
    u_max = k_max + 15.0 * math.sqrt(k_max + 10.0) + 60.0
    # Small-u structure appears on the scale where v departs from 1,
    # u ~ c0/(1+delta^2); seed it with log-spaced knots.  Below u_max 1e-15
    # (c0 < ~1e-10: delta = 0 at very high SNR), the seeds reach down to
    # c0 1e-3 with one more knot per decade past that point.
    floor = max(min(1e-6, c0 * 1e-3), u_max * 1e-15)
    knots = _SEED_KNOTS
    if c0 * 1e-3 < floor:
        knots += math.ceil(math.log10(floor / (c0 * 1e-3)))
        floor = c0 * 1e-3
    return u_max, np.logspace(math.log10(floor), math.log10(u_max), knots)


def _block_rows(n: int) -> int:
    """c0 rows per integrand block over ``n`` nodes: about ``_BLOCK_VALUES``."""
    return max(1, _BLOCK_VALUES // n)


def _rate_integrand(
    receiver: Receiver, nt: int, nr: int, delta: float, c0: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``S(u) dgamma/du / (1 + gamma) = S(u) c0 / ((c0 + d^2 u)(c0 + (1+d^2) u))``
    at every c0 (rows) and node (columns), shape ``(m, n)``.

    The result is filled one block of c0 rows at a time (:func:`_block_rows`),
    with block-sized scratch arrays, so that the working set stays in cache
    and no temporary is ``(m, n)``.  Every block runs the same ufuncs on
    contiguous arrays, so a value does not depend on the block it falls in.
    """
    d2 = delta * delta
    nodes = _nodes(receiver, nt, nr, u)
    u = nodes.u
    m, n = c0.size, u.size
    d2_u = d2 * u
    d2p_u = (1.0 + d2) * u
    ratio = (1.0 + d2) / c0
    vals = np.empty((m, n))
    rows = min(m, _block_rows(n))
    buffers = np.empty((4, rows * n))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        col = c0[start:stop, None]
        block = vals[start:stop]
        out, *scratch = (b[: block.size].reshape(block.shape) for b in buffers)
        np.add(col, d2_u, out=block)
        np.add(col, d2p_u, out=out)
        block *= out
        np.divide(col, block, out=block)
        block *= _survival_u(receiver, nt, ratio[start:stop], nodes, out, scratch)
    return vals


def _rate_quadrature_c0(
    receiver: Receiver, nt: int, nr: int, delta: float, c0: np.ndarray
) -> np.ndarray:
    """u-space rate integrals ``int_0^inf S(u) dgamma/du / (1 + gamma) du``
    for a vector of c0 values (the rate without its prefactor).

    The c0 values are integrated together in chunks whose working set
    (c0 values x seed nodes) stays within ``_WORKING_SET``
    (a chunk holds at least one c0); a chunk takes its knots from its
    smallest c0, whose small-u structure is the finest.
    """
    c0 = np.atleast_1d(np.asarray(c0, dtype=float))
    k_max = nr - nt if receiver is Receiver.ZF else nr - 1
    chunk = max(1, _WORKING_SET // (_SEED_KNOTS * _XK.size))
    out = []
    for c in np.array_split(c0, -(-c0.size // chunk)):
        u_max, knots = _u_knots(k_max, float(c.min()), delta)
        out.append(
            integrate_family(
                partial(_rate_integrand, receiver, nt, nr, delta, c),
                0.0, u_max, points=knots, rel_tol=1e-10, abs_tol=1e-300,
            )
        )
    return np.concatenate(out)


def rate_quadrature(receiver: Receiver, cfg: SystemConfig) -> float:
    """Ergodic achievable rate by direct quadrature of the SINR survival
    function (bits per channel use).

    This is the reference form: it evaluates
    ``(td nt / (ln 2 t)) * integral (1-F)/(1+gamma) dgamma`` after the
    u-substitution that maps the SINR wall to infinity; the closed form and
    the low-SNR law are both cross-checked against it.
    """
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    dp = derive_params(cfg)
    val = _rate_quadrature_c0(receiver, cfg.nt, cfg.nr, cfg.delta, dp.c0)
    return _rate_prefactor(cfg, cfg.tp) * float(val[0])


def rate_scan(receiver: Receiver, cfg: SystemConfig) -> np.ndarray:
    """Ergodic rate at every feasible training length ``tp = nt .. t-1``
    (``cfg.tp`` is ignored), by the quadrature engine batched over c0.

    Entry ``i`` equals ``rate_quadrature(receiver, cfg.with_tp(nt + i))`` to
    the quadrature tolerance.
    """
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    tp = np.arange(cfg.nt, cfg.t)
    c0 = derive_params_at(cfg, tp).c0
    return _rate_prefactor(cfg, tp) * _rate_quadrature_c0(
        receiver, cfg.nt, cfg.nr, cfg.delta, c0
    )


def _closed_form_terms(
    receiver: Receiver, nt: int, nr: int, delta: float, c0: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log-magnitude) pairs of the alternating closed-form rate series.

    Requires ``delta > 0``.
    """
    d2 = delta * delta
    z_d = c0 / d2  # argument of the E_{k+1} block
    z_c = c0 / (1.0 + d2)  # argument of the Tricomi block
    log_d2 = math.log(d2)
    # log of the geometric coefficient c0/(d^2 (1+d^2)) in the i-sum
    log_c2 = math.log(c0) - log_d2 - math.log1p(d2)

    k_all = np.arange(nr)
    log_theta_d = np.array(
        [math.log(exp_integral_en_scaled(int(k) + 1, z_d)) for k in k_all]
    )
    log_theta_c = np.array(
        [math.log(exp_integral_en_scaled(int(k) + 1, z_c)) for k in k_all]
    )

    if receiver is Receiver.ZF:
        # Positive telescoped form: every term theta(k+1, z_c) - theta(k+1, z_d)
        # is positive (theta decreases in z), so no sign bookkeeping needed.
        k = np.arange(nr - nt + 1)
        mags = np.exp(log_theta_c[k]) - np.exp(log_theta_d[k])
        with np.errstate(divide="ignore"):
            return np.ones_like(mags), np.log(mags)

    log_alpha, log_beta = _table(nt, nr, c0, delta)
    if receiver is Receiver.MMSE:
        base = log_beta + _log_factorial(k_all)  # (k,)
        n_of_row = np.full(nr, nt)
    else:  # MRC: flatten admissible (p, k) pairs
        p_idx, k_idx = np.nonzero(np.isfinite(log_alpha))
        base = log_alpha[p_idx, k_idx] + _log_factorial(k_idx)
        n_of_row = nt + p_idx
        k_all = k_idx

    base = base + (n_of_row - 1) * log_d2  # delta^{2(n-1)}
    sign0 = np.where(n_of_row % 2 == 0, 1.0, -1.0)  # (-1)^n

    # Lead term: (-1)^n * base * theta(k+1, z_d)
    signs = [sign0]
    logs = [base + log_theta_d[k_all]]

    # i-sum: j = n - i runs n-1 .. 0; j = 0 is the theta identity, j >= 1
    # needs U(j+1, j+1-k; z_c).  Batch all distinct (a, b) pairs at once.
    j_max = int(n_of_row.max()) - 1
    if j_max >= 1:
        js = np.arange(1, j_max + 1)
        aa, kk = np.meshgrid(js + 1, np.arange(nr), indexing="ij")
        # row j, column k holds U(j+1, j+1-k; z_c), i.e. (a, b) = (a, a-k)
        pairs = np.stack([aa.ravel(), aa.ravel() - kk.ravel()], axis=1)
        log_u_grid = log_tricomi_u_family(pairs, z_c).reshape(j_max, nr)
    for row in range(len(base)):
        n = int(n_of_row[row])
        k = int(k_all[row])
        jj = np.arange(n)  # j = n - i, i = 1..n
        i_par = n - jj  # i
        # sign: (-1)^{i+1} relative to a positive magnitude
        s = np.where(i_par % 2 == 1, 1.0, -1.0)
        lm = base[row] + jj * log_c2
        lm[0] += log_theta_c[k]  # j = 0: U(1, 1-k; z) = theta(k+1, z)
        if n > 1:
            lm[1:] += log_u_grid[jj[1:] - 1, k]
        signs.append(s)
        logs.append(lm)
    return np.concatenate(signs), np.concatenate(logs)


def _assemble(signs: np.ndarray, logs: np.ndarray) -> tuple[float, float]:
    """Scaled alternating sum: returns (value, cancellation ratio)."""
    finite = np.isfinite(logs)
    signs, logs = signs[finite], logs[finite]
    if logs.size == 0:
        return 0.0, 1.0
    peak = float(logs.max())
    scaled = np.exp(logs - peak)
    total = float(np.sum(signs * scaled))
    mass = float(np.sum(scaled))
    if total <= 0.0 or not math.isfinite(total):
        return math.nan, math.inf
    return total * math.exp(peak), mass / total


def rate_closed_form(receiver: Receiver, cfg: SystemConfig) -> float:
    """Ergodic achievable rate from the special-function closed forms.

    Mathematically identical to :func:`rate_quadrature`; evaluated through
    scaled exponential-integral and Tricomi-U series.  The alternating sums
    are assembled in (sign, log-magnitude) form with a cancellation monitor;
    past the 1e6-ulp budget, or when a special function of the series fails
    (it does not converge, or its Tricomi family exceeds the memory budget),
    the result falls back to quadrature, logged with operand magnitudes.  At
    ``delta = 0`` the rate is served by quadrature directly, since the
    closed forms are parameterized by the distortion level.
    """
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    nt, nr, delta, c0 = cfg.nt, cfg.nr, cfg.delta, derive_params(cfg).c0
    prefactor = _rate_prefactor(cfg, cfg.tp)
    if delta * delta > 0.0:  # the series' arguments include c0/delta^2
        try:
            signs, logs = _closed_form_terms(receiver, nt, nr, delta, c0)
            value, cancel = _assemble(signs, logs)
        except AccuracyError:
            logs, value, cancel = np.empty(0), math.nan, math.inf
        if math.isfinite(value) and cancel <= _CANCEL_LIMIT:
            return prefactor * value
        logger.warning(
            "closed-form rate series for %s (nt=%d nr=%d delta=%g c0=%g) cancelled "
            "beyond budget or failed (ratio %.3g, peak log-magnitude %.3g); "
            "using quadrature",
            receiver, nt, nr, delta, c0, cancel,
            float(np.max(logs[np.isfinite(logs)], initial=-math.inf)),
        )
    return prefactor * float(_rate_quadrature_c0(receiver, nt, nr, delta, c0)[0])


def rate_low_snr(receiver: Receiver, cfg: SystemConfig) -> float:
    """Leading-order (quadratic in rho) rate law of the vanishing-SNR regime.

    ZF: ``tp (t - tp)(nr - nt + 1) rho^2 / (ln 2 t nt)``; MRC and MMSE:
    the same with ``nr`` in place of ``(nr - nt + 1)``.  The distortion
    level does not appear: impairments are second-order at low SNR.
    """
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    streams = (cfg.nr - cfg.nt + 1) if receiver is Receiver.ZF else cfg.nr
    return cfg.tp * (cfg.t - cfg.tp) * streams * cfg.rho**2 / (math.log(2.0) * cfg.t * cfg.nt)


def rate_ceiling(receiver: Receiver, cfg: SystemConfig) -> float:
    """High-SNR rate ceiling under transmit distortion (bits/channel use).

    As rho grows, the effective noise scaling saturates at
    ``c0_bar = delta^2 (1 + delta^2) nt^2 / tp``; the rate at c0_bar, by the
    quadrature engine, is the power-independent ceiling.  Undefined for
    ``delta = 0`` (the ideal-hardware rate grows without bound).
    """
    if cfg.delta * cfg.delta == 0.0:
        raise ValueError("no rate ceiling exists for delta = 0 (or delta**2 = 0 in doubles)")
    _require_zf_ok(cfg.nt, cfg.nr, receiver)
    c0_bar = derive_params(cfg).c0_bar
    val = _rate_quadrature_c0(receiver, cfg.nt, cfg.nr, cfg.delta, c0_bar)
    return _rate_prefactor(cfg, cfg.tp) * float(val[0])
