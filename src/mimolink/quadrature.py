"""Adaptive quadrature on a nested Gauss rule pair, vectorized over intervals.

The integrator evaluates a low-order and a high-order Gauss-Legendre rule on
every active interval; their difference is the error estimate, exactly the
nested-rule idea behind Gauss-Kronrod integrators.  Refinement is
breadth-first: every interval that misses its (length-prorated) share of the
tolerance is bisected, and all surviving intervals are evaluated in one
vectorized call per level.  That layout is what makes the rest of the package
fast -- the integrands here are whole families of special-function components
or survival functions evaluated on hundreds of nodes at once, so per-interval
callbacks would dominate the runtime.

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

# Nested rule pair: the 41-point rule is the reference, the 20-point rule the
# embedded estimate.  Both are open rules (endpoints never sampled).  Meant
# for smooth integrands; multi-scale structure should be flagged via `points`.
_X_LO, _W_LO = np.polynomial.legendre.leggauss(20)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(41)


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray, x01: np.ndarray, w: np.ndarray):
    """Apply one rule to a batch of intervals.

    Returns per-interval integrals with shape ``(m, n_intervals)`` where m is
    the number of integrand components (1 for scalar integrands).
    """
    half = 0.5 * (hi - lo)  # (n,)
    mid = 0.5 * (hi + lo)
    # nodes laid out interval-major so a family integrand sees one flat array
    nodes = (mid[:, None] + half[:, None] * x01[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    vals = vals.reshape(vals.shape[0], lo.size, x01.size)
    return np.einsum("min,n->mi", vals, w) * half[None, :]


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
        coarse = _eval_panels(f, lo, hi, _X_LO, _W_LO)
        fine = _eval_panels(f, lo, hi, _X_HI, _W_HI)
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
