"""Shared helpers for the test suite."""

import math
import os
import subprocess
import sys

import numpy as np

import mimolink
from mimolink.simulate import RandomStream, _cn


def ks_statistic(samples, cdf, max_points=2000):
    """Kolmogorov-Smirnov distance of ``samples`` from a CDF callable that
    maps an array of points to an array of probabilities.

    The exact two-sided statistic needs the CDF at every order statistic;
    for large sample sets this evaluates it on an evenly strided subset
    instead.  Between checked order statistics the empirical CDF moves by at
    most ``stride / n``, so the true statistic exceeds the returned value by
    at most the returned ``bias_bound``.

    Returns:
        (d_subset, bias_bound): measured statistic on the subset, and the
        maximum amount by which the true statistic can exceed it.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    stride = max(1, n // max_points)
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    f = np.asarray(cdf(x[idx]), dtype=float)
    lo = idx / n  # empirical CDF just below x[i]
    hi = (idx + 1) / n  # empirical CDF at x[i]
    d = float(np.max(np.maximum(f - lo, hi - f)))
    return d, stride / n


def trial_order_sum(values, nt):
    """Sum of trial-major ``values`` (``nt`` per trial): each trial's ``nt``
    values summed, then the per-trial sums added one at a time in trial
    order, the order in which the simulator's reducers fold them."""
    total = 0.0
    for per_trial in np.sum(np.reshape(values, (-1, nt)), axis=1).tolist():
        total += per_trial
    return total


def run_capped(code, cap_gib):
    """Run ``code`` in a fresh interpreter whose address space is capped at
    ``cap_gib`` GiB, with one BLAS thread and this checkout's package first
    on the path; returns the ``CompletedProcess``."""
    cap = int(cap_gib * (1 << 30))
    prelude = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(mimolink.__path__[0]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", prelude + code], env=env, capture_output=True,
        text=True, timeout=300,
    )


_LEMMA_DRAWS = {"inversion": 10, "trace": 100, "rank1": 1000, "stieltjes": 10}


def rmt_lemma_check(lemma_id: str, n: int, rs: RandomStream) -> float:
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
