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
results are unique and replays are bit-identical.  An exhaustive result
keeps the scan that made it, not a copy of its rates: its trace recomputes
them on first read, bit for bit, so a kept result costs a few hundred bytes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .analytic import rate_closed_form  # noqa: F401  (unused; wrapped by perfbench/spans.py)
from .analytic import rate_scan
from .config import Receiver, SystemConfig
from .largescale import det_rate, det_rate_scan

__all__ = ["SearchTrace", "TpSearchResult", "optimize_tp_exact", "optimize_tp_asymptotic"]

_TERNARY_MIN_T = 10_000
_TERNARY_WINDOW = 24


def _rate_array(rates: np.ndarray) -> array:
    out = array("d")
    out.frombytes(np.ascontiguousarray(rates, dtype=np.float64).tobytes())
    return out


class SearchTrace(Sequence):
    """Immutable ``(tp, rate)`` pairs of a search, stored as two typed arrays.

    It reads, compares equal to, hashes and pickles like the tuple of pairs
    it holds, at 16 bytes a pair instead of the ~100 of a tuple of tuples of
    Python numbers, which matters to callers that keep many full-range
    scans.  The ``tp`` column of a full scan is a ``range``, so it holds 8
    bytes a pair.  A full scan may also keep the scan that computed its
    rates (:meth:`from_range` with ``scan``); once the rates are dropped,
    the first read recomputes and caches them, and the same code gives the
    same bits.
    """

    __slots__ = ("_tps", "_cache", "_scan")

    def __init__(self, pairs: Iterable[tuple[int, float]]) -> None:
        self._tps = array("q")
        self._cache = array("d")
        self._scan = None
        for tp, rate in pairs:
            if self._tps and tp <= self._tps[-1]:
                raise ValueError("trace pairs must be strictly increasing in tp")
            self._tps.append(tp)
            self._cache.append(rate)

    @classmethod
    def from_range(
        cls, tps: range, rates: np.ndarray, scan: Callable[[], np.ndarray] | None = None
    ) -> "SearchTrace":
        """Trace of the pairs ``zip(tps, rates)`` of a full scan: the
        increasing ``range`` is kept as it is, the rates are copied in one
        step.  ``scan``, if given, recomputes ``rates`` bit for bit, and
        :meth:`_drop_rates` may then release them."""
        if tps.step < 1 or len(tps) != len(rates):
            raise ValueError("a scan trace needs an increasing tp range, one rate per tp")
        trace = cls(())
        trace._tps = tps
        trace._cache = _rate_array(rates)
        trace._scan = scan
        return trace

    @property
    def _rates(self) -> array:
        if self._cache is None:
            self._cache = _rate_array(self._scan())
        return self._cache

    def _drop_rates(self) -> None:
        """Release the rates of a trace that keeps its scan."""
        if self._scan is not None:
            self._cache = None

    def __len__(self) -> int:
        return len(self._tps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return self._tps[index], self._rates[index]

    def __iter__(self):
        return zip(self._tps, self._rates)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SearchTrace, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return SearchTrace, (tuple(self),)  # the pairs: a scan need not pickle

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class TpSearchResult:
    """Outcome of a training-length search.

    Attributes:
        tp_star: optimal training length (smallest maximizer on ties).
        rate_at_star: objective value at ``tp_star``.
        trace: every evaluated ``(tp, rate)`` pair, sorted by ``tp`` —
            the full feasible range for the exhaustive method (recomputed
            on first read), the probed subset for the ternary method.  Any
            sequence of pairs strictly increasing in ``tp`` is accepted and
            stored as a :class:`SearchTrace`; other pairs raise
            ``ValueError``.
        method: ``"exhaustive"`` or ``"concave-bisection"``.
    """

    tp_star: int
    rate_at_star: float
    trace: Sequence[tuple[int, float]]
    method: str

    def __post_init__(self) -> None:
        if not isinstance(self.trace, SearchTrace):
            object.__setattr__(self, "trace", SearchTrace(self.trace))
        if self.method not in ("exhaustive", "concave-bisection"):
            raise ValueError(f"unknown search method: {self.method!r}")
        if not self.trace:
            raise ValueError("empty search trace")
        rates = self.trace._rates
        best = max(rates)
        if not self.rate_at_star == best:
            raise ValueError("rate_at_star must equal the best traced rate")
        # The trace is sorted by tp, so the first maximizer is the smallest.
        if self.tp_star != self.trace._tps[rates.index(best)]:
            raise ValueError("tp_star must be the smallest maximizer in the trace")


def _exhaustive(cfg: SystemConfig, scan: Callable[[], np.ndarray]) -> TpSearchResult:
    """Search result of the full scan ``scan()``, whose entry ``i`` is the
    rate at ``tp = nt + i``; the first argmax is the smallest maximizer.

    The scan runs once.  The result keeps ``scan`` in place of the rates,
    which its trace recomputes on first read.
    """
    rates = scan()
    i = int(np.argmax(rates))
    trace = SearchTrace.from_range(range(cfg.nt, cfg.t), rates, scan)
    result = TpSearchResult(
        tp_star=cfg.nt + i,
        rate_at_star=float(rates[i]),
        trace=trace,
        method="exhaustive",
    )
    trace._drop_rates()  # checked by TpSearchResult against these rates
    return result


def _ternary(cfg: SystemConfig, objective: Callable[[int], float]) -> TpSearchResult:
    lo, hi = cfg.nt, cfg.t - 1
    cache: dict[int, float] = {}

    def f(tp: int) -> float:
        if tp not in cache:
            cache[tp] = objective(tp)
        return cache[tp]

    # Narrow the bracket by unimodality, then settle the final window
    # exhaustively so plateaus and float ties cannot mislead the search.
    a, b = lo, hi
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
    best = max(r for _, r in trace)
    tp_star = min(tp for tp, r in trace if r == best)
    return TpSearchResult(
        tp_star=tp_star, rate_at_star=best, trace=trace, method="concave-bisection"
    )


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
