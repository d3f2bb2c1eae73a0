"""Training-length optimization.

Longer training improves the channel estimate (raising the per-stream SINR
through ``c0``) but shortens the data phase; the ergodic-rate objective
``R(tp)`` trades the two and is unimodal over the feasible range
``nt <= tp <= t - 1``.  Two optimizers are provided:

* :func:`optimize_tp_exact` scans every feasible integer ``tp`` against the
  exact ergodic rate, which the batched quadrature engine
  (:func:`~mimolink.analytic.rate_scan`) integrates for all training lengths
  at once — the reference answer at any block length.
* :func:`optimize_tp_asymptotic` optimizes the deterministic-equivalent
  rate instead.  It too scans exhaustively by default, taking every rate
  from one numpy pass (:func:`~mimolink.largescale.det_rate_scan`); only for
  very long blocks (``t >= 10_000``), where a full scan is wasteful, does it
  switch to a ternary search that exploits unimodality, calling
  :func:`~mimolink.largescale.det_rate` per probed ``tp`` and finishing with
  a small exhaustive window so the returned integer is exact.

Both exhaustive scans share one reduction of the rate vector (the first
argmax), and both methods tie-break toward the smallest training length, so
results are unique and replays are bit-identical.  A trace reads as a tuple
of ``(tp, rate)`` pairs; an exhaustive one keeps its scan, not its rates,
and runs it again on first read, so a kept result costs a few hundred bytes.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .analytic import rate_closed_form  # noqa: F401  (unused; wrapped by perfbench/spans.py)
from .analytic import rate_scan
from .config import Receiver, SystemConfig
from .largescale import det_rate, det_rate_scan

__all__ = ["TpSearchResult", "optimize_tp_exact", "optimize_tp_asymptotic"]

_TERNARY_MIN_T = 10_000
_TERNARY_WINDOW = 24


def _pair(tp, rate) -> tuple[int, float]:
    """One trace pair as ``(int, float)``, or ``TypeError``."""
    if not isinstance(rate, numbers.Real):
        raise TypeError(f"trace rates must be real numbers, got {rate!r}")
    return operator.index(tp), float(rate)


class _ScanTrace(Sequence):
    """The ``(tp, rate)`` pairs of a full scan, read lazily: it keeps the
    ``range`` of ``tp`` and the scan, runs the scan on first read and keeps
    its rates, and reads, compares, hashes and pickles as the tuple of
    pairs, with the same bits on every read."""

    __slots__ = ("_tps", "_scan", "_cache")

    def __init__(self, tps: range, scan: Callable[[], np.ndarray]) -> None:
        self._tps, self._scan, self._cache = tps, scan, None

    @property
    def _rates(self) -> list[float]:
        if self._cache is None:
            self._cache = self._scan().tolist()
        return self._cache

    def __len__(self) -> int:
        return len(self._tps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return self._tps[index], self._rates[index]

    def __iter__(self):
        return zip(self._tps, self._rates)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)  # the pairs: a scan need not pickle

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class TpSearchResult:
    """Outcome of a training-length search.

    Attributes:
        tp_star: optimal training length (smallest maximizer on ties).
        rate_at_star: objective value at ``tp_star``.
        trace: every evaluated ``(tp, rate)`` pair, sorted by ``tp``: the
            full feasible range for the exhaustive method (run on first
            read), the probed subset for the ternary method.  Any iterable
            of pairs strictly increasing in ``tp`` is stored as a tuple of
            ``(int, float)``; other pairs raise ``ValueError`` or ``TypeError``.
        method: ``"exhaustive"`` or ``"concave-bisection"``.
    """

    tp_star: int
    rate_at_star: float
    trace: Sequence[tuple[int, float]]
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("exhaustive", "concave-bisection"):
            raise ValueError(f"unknown search method: {self.method!r}")
        if isinstance(self.trace, _ScanTrace):  # checked without building pairs
            tps, rates = self.trace._tps, self.trace._rates
            increasing = tps.step > 0
        else:
            object.__setattr__(self, "trace", tuple(_pair(*p) for p in self.trace))
            tps, rates = zip(*self.trace) if self.trace else ((), ())
            increasing = all(map(operator.lt, tps, tps[1:]))
        if not tps:
            raise ValueError("empty search trace")
        if not increasing:
            raise ValueError("trace pairs must be strictly increasing in tp")
        best = max(rates)
        if not self.rate_at_star == best:
            raise ValueError("rate_at_star must equal the best traced rate")
        # The trace is sorted by tp, so the first maximizer is the smallest.
        if self.tp_star != tps[rates.index(best)]:
            raise ValueError("tp_star must be the smallest maximizer in the trace")


def _exhaustive(cfg: SystemConfig, scan: Callable[[], np.ndarray]) -> TpSearchResult:
    """Search result of the full scan ``scan()``, whose entry ``i`` is the
    rate at ``tp = nt + i``; the first argmax is the smallest maximizer.
    The result is checked against the scan's rates, then keeps ``scan`` in
    their place: its trace runs the scan again on first read."""
    rates = scan()
    i = int(np.argmax(rates))
    trace = _ScanTrace(range(cfg.nt, cfg.t), scan)
    trace._cache = rates.tolist()
    result = TpSearchResult(cfg.nt + i, trace._cache[i], trace, "exhaustive")
    trace._cache = None
    return result


def _ternary(cfg: SystemConfig, objective: Callable[[int], float]) -> TpSearchResult:
    cache: dict[int, float] = {}

    def f(tp: int) -> float:
        if tp not in cache:
            cache[tp] = objective(tp)
        return cache[tp]

    # Narrow the bracket by unimodality, then settle the final window
    # exhaustively so plateaus and float ties cannot mislead the search.
    a, b = cfg.nt, cfg.t - 1
    while b - a > _TERNARY_WINDOW:
        m1 = a + (b - a) // 3
        m2 = b - (b - a) // 3
        if f(m1) < f(m2):
            a = m1 + 1
        else:
            b = m2
    for tp in range(a, b + 1):
        f(tp)

    trace = tuple(sorted(cache.items()))
    tp_star, best = max(trace, key=lambda pair: pair[1])  # the first maximizer
    return TpSearchResult(tp_star, best, trace, "concave-bisection")


def optimize_tp_exact(cfg: SystemConfig, receiver: Receiver) -> TpSearchResult:
    """Maximize the exact ergodic rate over all feasible training lengths by
    exhaustive scan (``cfg.tp`` only seeds the feasible range)."""
    return _exhaustive(cfg, partial(rate_scan, receiver, cfg))


def optimize_tp_asymptotic(cfg: SystemConfig, receiver: Receiver) -> TpSearchResult:
    """Maximize the deterministic-equivalent rate over feasible training
    lengths.

    Exhaustive below ``t = 10_000``; beyond that a ternary search over the
    unimodal objective plus an exhaustive final window, which returns the
    same integer as a full scan at a fraction of the evaluations.
    """
    if cfg.t >= _TERNARY_MIN_T:
        return _ternary(cfg, lambda tp: det_rate(receiver, cfg.with_tp(tp)))
    return _exhaustive(cfg, partial(det_rate_scan, receiver, cfg))
