"""Span recording at mimolink's layer boundaries, and the per-layer metrics.

Every layer of the package binds the functions it uses from another layer by
name (``from .analytic import rate_closed_form``).  The tracer therefore
measures a boundary from outside by replacing that binding on the importing
module -- ``mimolink.training.rate_closed_form``, say -- with a wrapper that
records a span and calls the original.  Nothing under ``src/`` changes, and
``uninstall`` restores every binding.

A span is ``(id, parent, name, layer, thread, start, end, attrs)``.  Spans are
appended to one in-memory list (``list.append`` is atomic under the GIL); the
open-span stack is per thread.  A span opened on a thread with an empty stack
(a CLI pool worker) takes the current operation's root span as its parent, so
work fanned out to threads is still attributed to the op that caused it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import logging
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (importing module, attribute, span name, layer).  The span name selects the
# metrics below; the layer receives the span's self time.
BOUNDARIES = (
    # the benchmark's own calls into the package
    ("mimolink.training", "optimize_tp_exact", "training.scan", "training"),
    ("mimolink.analytic", "rate_closed_form", "analytic.rate_closed", "analytic"),
    ("mimolink.analytic", "rate_quadrature", "analytic.rate_quad", "analytic"),
    ("mimolink.analytic", "sinr_cdf", "analytic.cdf", "analytic"),
    # training -> analytic, largescale
    ("mimolink.training", "rate_closed_form", "analytic.rate_closed", "analytic"),
    ("mimolink.training", "det_rate", "largescale.det_rate", "largescale"),
    # analytic -> special, quadrature
    ("mimolink.analytic", "exp_integral_en_scaled", "special.theta", "special"),
    ("mimolink.analytic", "log_tricomi_u_family", "special.tricomi", "special"),
    ("mimolink.analytic", "build_coefficients", "special.coeff", "special"),
    ("mimolink.analytic", "integrate", "quadrature.integrate", "quadrature"),
    # special -> quadrature
    ("mimolink.special", "integrate_family", "quadrature.integrate", "quadrature"),
    # cli -> every computing layer
    ("mimolink.cli", "optimize_tp_exact", "training.scan", "training"),
    ("mimolink.cli", "optimize_tp_asymptotic", "training.scan", "training"),
    ("mimolink.cli", "rate_closed_form", "analytic.rate_closed", "analytic"),
    ("mimolink.cli", "rate_ceiling", "analytic.rate_ceiling", "analytic"),
    ("mimolink.cli", "sinr_cdf", "analytic.cdf", "analytic"),
    ("mimolink.cli", "det_rate", "largescale.det_rate", "largescale"),
    ("mimolink.cli", "empirical_nmse", "simulate.nmse", "simulate"),
    ("mimolink.cli", "empirical_rate", "simulate.rate", "simulate"),
    ("mimolink.cli", "sample_sinr_multi", "simulate.sample", "simulate"),
    ("mimolink.cli", "empirical_outage", "simulate.outage", "simulate"),
    # The LMMSE stage is internal to simulate; it is wrapped at the module
    # global its batch loop calls.
    ("mimolink.simulate", "lmmse_estimate", "simulate.lmmse", "simulate"),
)

# Simulator entry points that consume Monte Carlo trials, and the position of
# their ``trials`` argument.
_TRIAL_ARG = {"simulate.nmse": 1, "simulate.rate": 2, "simulate.sample": 2}

_QUADRATURE = "quadrature.integrate"
_INTEGRAND = "quadrature.integrand"

# name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "special.theta.calls": "count",
    "special.theta.s": "s",
    "special.tricomi.calls": "count",
    "special.tricomi.pairs": "count",
    "special.tricomi.s": "s",
    "special.coeff.builds": "count",
    "special.coeff.s": "s",
    "quadrature.calls": "count",
    "quadrature.levels": "count",
    "quadrature.nodes": "count",
    "quadrature.component_nodes": "count",
    "quadrature.self_s": "s",
    "quadrature.accuracy_errors": "count",
    "analytic.rate_closed.calls": "count",
    "analytic.rate_closed.s": "s",
    "analytic.rate_quad.calls": "count",
    "analytic.rate_quad.s": "s",
    "analytic.cdf.calls": "count",
    "analytic.cdf.s": "s",
    "analytic.self_s": "s",
    "analytic.fallbacks": "count",
    "analytic.fallback_ratio": "ratio",
    "analytic.table_cache.hit_ratio": "ratio",
    "training.scans": "count",
    "training.objective_evals": "count",
    "training.self_s": "s",
    "training.eval_ms": "ms",
    "largescale.det_rate.calls": "count",
    "largescale.det_rate.s": "s",
    "simulate.calls": "count",
    "simulate.trials": "count",
    "simulate.trials_per_s": "1/s",
    "simulate.lmmse.calls": "count",
    "simulate.lmmse.s": "s",
    "simulate.self_s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.pool_busy_frac": "ratio",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}

# Metrics that count work; they must repeat exactly for a given seed.  Table
# builds are cache misses, and CLI pool threads can miss the same key at once,
# so that count alone may vary between runs.
COUNT_METRICS = tuple(
    n for n, unit in LAYER_METRICS.items()
    if unit in ("count", "bytes") and n != "special.coeff.builds"
)


class _FallbackCounter(logging.Handler):
    """Counts the WARNING records the analytic layer logs when the closed-form
    series cancels past its budget and the rate falls back to quadrature."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:  # called under self.lock
        self.count += 1


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._fallbacks = _FallbackCounter()

    @property
    def fallbacks(self) -> int:
        return self._fallbacks.count

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name: str, layer: str, attrs: dict | None, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            attrs = dict(attrs or {}, error=type(exc).__name__)
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, layer, threading.get_ident(), start, end, attrs)
            )

    def op(self, fn, name: str, layer: str):
        """Run one benchmark operation as a root span; returns its result."""
        sid = next(self._ids)
        self.root = sid
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self.root = None
            self.spans.append(
                (sid, None, name, layer, threading.get_ident(), start, end, None)
            )

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, owner: str):
        tracer = self

        if name == _QUADRATURE:
            # The integrand is the caller's code: its callbacks are spans of
            # the owning layer, so quadrature keeps only its own bookkeeping.
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                def integrand(x):
                    attrs = {"nodes": len(x), "components": 0}
                    return tracer._call(_sized(f, attrs), _INTEGRAND, owner, attrs, (x,), {})

                return tracer._call(fn, name, layer, None, (integrand,) + args, kwargs)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if name in _TRIAL_ARG:
                attrs = {"trials": int(_arg(args, kwargs, _TRIAL_ARG[name], "trials"))}
            elif name == "special.tricomi":
                attrs = {"pairs": len(_arg(args, kwargs, 0, "ab_pairs"))}
            return tracer._call(fn, name, layer, attrs, args, kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            owner = module_name.rsplit(".", 1)[1]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, layer, owner))
        logging.getLogger("mimolink.analytic").addHandler(self._fallbacks)

    def uninstall(self) -> None:
        logging.getLogger("mimolink.analytic").removeHandler(self._fallbacks)
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV:
        ``id,parent,name,layer,thread,start_s,end_s``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,layer,thread,start_s,end_s\n")
            for sid, parent, name, layer, tid, start, end, _ in self.spans:
                fh.write(f"{sid},{parent or ''},{name},{layer},{tid},{start!r},{end!r}\n")


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def _sized(f, attrs: dict):
    """``f`` recording how many components each call returns into ``attrs``."""

    def sized(x):
        values = f(x)
        shape = getattr(values, "shape", ())
        attrs["components"] = shape[0] if len(shape) == 2 else 1
        return values

    return sized


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(tracer: Tracer, *, cache_hits: int, cache_misses: int,
                  pool_workers: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_frac``)."""
    spans = tracer.spans
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            children[span[1]].append((span[5], span[6]))

    self_s: dict[str, float] = defaultdict(float)
    for sid, _, _, layer, _, start, end, _ in spans:
        self_s[layer] += (end - start) - _covered(children.get(sid, []), start, end)

    def calls(name: str) -> int:
        return len(by_name[name])

    def seconds(name: str) -> float:
        return sum(s[6] - s[5] for s in by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(s[7][key] for s in by_name[name] if s[7] and key in s[7])

    integrands = by_name[_INTEGRAND]
    scan_ids = {s[0] for s in by_name["training.scan"]}
    objective = [s for s in spans if s[1] in scan_ids]
    invoke_ids = {s[0]: s for s in by_name["cli.invoke"]}
    pool_spans = [s for s in spans if s[1] in invoke_ids and s[4] != tracer.main_thread]
    closed_calls = calls("analytic.rate_closed") + calls("analytic.rate_ceiling")
    sim_names = ("simulate.nmse", "simulate.rate", "simulate.sample")
    sim_trials = sum(attr_sum(n, "trials") for n in sim_names)
    sim_seconds = sum(seconds(n) for n in sim_names)
    invoke_seconds = seconds("cli.invoke")

    out = {
        "special.theta.calls": calls("special.theta"),
        "special.theta.s": seconds("special.theta"),
        "special.tricomi.calls": calls("special.tricomi"),
        "special.tricomi.pairs": attr_sum("special.tricomi", "pairs"),
        "special.tricomi.s": seconds("special.tricomi"),
        "special.coeff.builds": calls("special.coeff"),
        "special.coeff.s": seconds("special.coeff"),
        "quadrature.calls": calls(_QUADRATURE),
        "quadrature.levels": len(integrands) // 2,  # coarse + fine rule per level
        "quadrature.nodes": sum(s[7]["nodes"] for s in integrands),
        "quadrature.component_nodes": sum(
            s[7]["nodes"] * s[7]["components"] for s in integrands
        ),
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.accuracy_errors": sum(
            1 for s in by_name[_QUADRATURE] if s[7] and s[7].get("error") == "AccuracyError"
        ),
        "analytic.rate_closed.calls": calls("analytic.rate_closed"),
        "analytic.rate_closed.s": seconds("analytic.rate_closed"),
        "analytic.rate_quad.calls": calls("analytic.rate_quad"),
        "analytic.rate_quad.s": seconds("analytic.rate_quad"),
        "analytic.cdf.calls": calls("analytic.cdf"),
        "analytic.cdf.s": seconds("analytic.cdf"),
        "analytic.self_s": self_s["analytic"],
        "analytic.fallbacks": tracer.fallbacks,
        "analytic.fallback_ratio": tracer.fallbacks / closed_calls if closed_calls else 0.0,
        "analytic.table_cache.hit_ratio": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
        ),
        "training.scans": len(scan_ids),
        "training.objective_evals": len(objective),
        "training.self_s": self_s["training"],
        "training.eval_ms": (
            1e3 * sum(s[6] - s[5] for s in objective) / len(objective) if objective else 0.0
        ),
        "largescale.det_rate.calls": calls("largescale.det_rate"),
        "largescale.det_rate.s": seconds("largescale.det_rate"),
        "simulate.calls": sum(calls(n) for n in sim_names + ("simulate.outage",)),
        "simulate.trials": sim_trials,
        "simulate.trials_per_s": sim_trials / sim_seconds if sim_seconds else 0.0,
        "simulate.lmmse.calls": calls("simulate.lmmse"),
        "simulate.lmmse.s": seconds("simulate.lmmse"),
        "simulate.self_s": self_s["simulate"],
        "cli.invocations": len(invoke_ids),
        "cli.self_s": self_s["cli"],
        "cli.pool_busy_frac": (
            sum(s[6] - s[5] for s in pool_spans) / (invoke_seconds * pool_workers)
            if invoke_seconds else 0.0
        ),
        "cli.bytes_written": bytes_written,
    }
    return out
