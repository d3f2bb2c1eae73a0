"""Adaptive Gauss-Kronrod quadrature, vectorized over intervals.

Every active interval is evaluated once, at the 41 nodes of the Kronrod rule
K41; the 20-point Gauss rule G20 reads its values from K41's odd-indexed
nodes, and ``|K41 - G20|`` is the error estimate (QUADPACK's QAG pair,
Piessens et al. 1983).  Refinement is breadth-first: every interval that
misses its (length-prorated) share of the tolerance is bisected, and all
surviving intervals are evaluated in one vectorized call per level.  That
layout is what makes the rest of the package fast -- the integrands here are
whole families of special-function components or survival functions
evaluated on hundreds of nodes at once, so per-interval callbacks would
dominate the runtime.

Integrands may be scalar (``f(x) -> values``) or vectorized families
(``f(x) -> (m, len(x))``); in the family case every component must meet its
own tolerance before an interval is accepted.

Failure to converge within the refinement budget, or a non-finite integrand
value, raises :class:`~mimolink.config.AccuracyError` rather than returning a
degraded value.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config import AccuracyError

__all__ = ["integrate", "integrate_family"]

# The Gauss-Kronrod 20/41 pair on [-1, 1], rounded from a 120-digit solution
# (tests/test_quadrature.py regenerates it with mpmath).  Nodes in [0, 1),
# descending: entries 1, 3, .., 19 are the Gauss nodes, the rest Kronrod's.
# Both rules are open (endpoints never sampled) and meant for smooth
# integrands; multi-scale structure should be flagged via `points`.
_XGK_HALF = (
    0.9988590315882777, 0.9931285991850949, 0.9815078774502503,
    0.9639719272779138, 0.9408226338317548, 0.912234428251326,
    0.878276811252282, 0.8391169718222188, 0.7950414288375512,
    0.7463319064601508, 0.6932376563347514, 0.636053680726515,
    0.5751404468197103, 0.5108670019508271, 0.4435931752387251,
    0.37370608871541955, 0.301627868114913, 0.22778585114164507,
    0.15260546524092267, 0.07652652113349734, 0.0,
)
# K41 weights of those nodes.
_WGK_HALF = (
    0.0030735837185205317, 0.008600269855642943, 0.014626169256971253,
    0.020388373461266523, 0.02588213360495116, 0.0312873067770328,
    0.036600169758200796, 0.041668873327973685, 0.04643482186749767,
    0.05094457392372869, 0.05519510534828599, 0.05911140088063957,
    0.06265323755478117, 0.06583459713361842, 0.06864867292852161,
    0.07105442355344407, 0.07303069033278667, 0.07458287540049918,
    0.07570449768455667, 0.07637786767208074, 0.07660071191799965,
)
# G20 weights of the Gauss nodes 1, 3, .., 19.
_WG_HALF = (
    0.017614007139152118, 0.04060142980038694, 0.06267204833410907,
    0.08327674157670475, 0.10193011981724044, 0.11819453196151841,
    0.13168863844917664, 0.14209610931838204, 0.14917298647260374,
    0.15275338713072584,
)

# The full rules, nodes ascending; G20's nodes are _XK[1::2].
_XK = np.concatenate([np.negative(_XGK_HALF[:-1]), _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF, _WGK_HALF[-2::-1]])
_WG = np.concatenate([_WG_HALF, _WG_HALF[::-1]])


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the K41 and G20 rules to a batch of intervals, with one
    integrand call at the K41 nodes.

    Returns the per-interval integrals of both rules, each of shape
    ``(m, n_intervals)`` where m is the number of integrand components (1 for
    scalar integrands).
    """
    half = 0.5 * (hi - lo)  # (n,)
    mid = 0.5 * (hi + lo)
    # nodes laid out interval-major so a family integrand sees one flat array
    nodes = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    vals = vals.reshape(vals.shape[0], lo.size, _XK.size)
    kronrod = np.einsum("min,n->mi", vals, _WK) * half[None, :]
    gauss = np.einsum("min,n->mi", vals[:, :, 1::2], _WG) * half[None, :]
    return kronrod, gauss


def integrate_family(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    points: Sequence[float] | None = None,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-12,
    max_levels: int = 20,
) -> np.ndarray:
    """Integrate a family of components sharing the same nodes over [a, b].

    Args:
        f: callable mapping an array of nodes ``x`` (shape ``(n,)``) to
            component values of shape ``(m, n)`` (or ``(n,)`` for a single
            component).
        a, b: integration limits, ``a < b``.
        points: optional interior breakpoints seeding the initial subdivision
            (known peaks / scale changes of the integrand).  Values outside
            ``(a, b)`` are ignored.
        rel_tol, abs_tol: per-component convergence targets; an interval is
            accepted once every component's error estimate is below its
            length-prorated share of ``max(abs_tol, rel_tol * |integral|)``.
        max_levels: bisection depth budget.

    Returns:
        Array of shape ``(m,)`` with the component integrals.

    Raises:
        AccuracyError: if some interval still fails its tolerance after
            ``max_levels`` refinements.
    """
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    knots = [a, b]
    if points is not None:
        knots.extend(p for p in points if a < p < b)
    knots = np.unique(np.asarray(knots, dtype=float))

    lo, hi = knots[:-1], knots[1:]
    total_len = b - a

    done_sum = None  # integral over retired intervals, per component
    done_err = None  # error estimate carried by retired intervals
    for level in range(max_levels + 1):
        fine, coarse = _eval_panels(f, lo, hi)
        if not (np.all(np.isfinite(fine)) and np.all(np.isfinite(coarse))):
            # No refinement can fix a non-finite integrand; bisecting anyway
            # would double the node count at every level.
            raise AccuracyError(f"integrand is not finite on [{a}, {b}]")
        if done_sum is None:
            done_sum = np.zeros(fine.shape[0])
            done_err = np.zeros(fine.shape[0])
        err = np.abs(fine - coarse)  # (m, n_intervals)

        # Current best estimate of each component integral, for the relative
        # part of the tolerance.
        estimate = done_sum + fine.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(estimate))  # (m,)

        # Global stop: the summed error estimate meets every component's
        # tolerance.
        total_err = done_err + err.sum(axis=1)
        if np.all(total_err <= tol):
            return done_sum + fine.sum(axis=1)

        # Retire intervals that already meet their length-prorated share of
        # the budget (with headroom for the rest); bisect the remainder.
        share = (hi - lo) / total_len
        ok = np.all(err <= 0.5 * tol[:, None] * share[None, :], axis=0)
        done_sum = done_sum + fine[:, ok].sum(axis=1)
        done_err = done_err + err[:, ok].sum(axis=1)

        lo, hi = lo[~ok], hi[~ok]
        if level == max_levels:
            worst = float(err[:, ~ok].max()) if (~ok).any() else float(err.max())
            raise AccuracyError(
                f"quadrature failed to converge on [{a}, {b}]: "
                f"{lo.size} interval(s) above tolerance after {max_levels} "
                f"refinement levels (worst error estimate {worst:.3e})"
            )
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])

    raise AssertionError("unreachable")


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    points: Sequence[float] | None = None,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-12,
    max_levels: int = 20,
) -> float:
    """Integrate a scalar integrand over [a, b].

    Same contract as :func:`integrate_family` for a single component; returns
    a plain float.  ``f`` must map an array of nodes to an equal-length array
    of values.
    """
    out = integrate_family(
        f, a, b, points=points, rel_tol=rel_tol, abs_tol=abs_tol, max_levels=max_levels
    )
    if out.size != 1:
        raise ValueError("integrand returned multiple components; use integrate_family")
    return float(out[0])
