"""Shared helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np

import mimolink


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
