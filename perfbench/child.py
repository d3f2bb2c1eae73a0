"""One workload in a fresh process: set up, run the ops, check them, report.

Started by ``run.py`` with BLAS threads pinned in its environment.  It caps
its own address space before importing numpy, so an oversized allocation
becomes a counted ``MemoryError`` in this process and never pressure on the
rest of the machine.  It prints one JSON object as its last stdout line.

Untraced (``--trace 0``): after one untimed warm-up round on inputs of its
own, rounds of ops run back to back until the time spent in ops reaches
``--seconds``; the loop only stops at a round boundary, so every run holds
whole rounds.  Outputs are checked after the loop.

Traced (``--trace 1``): the first round is run as a *pass*, first untraced
and then traced, over and over until ``--seconds`` have passed (at least
twice).  Each traced pass must return the same op results as its untraced
twin, and every pass must repeat the first pass's work counts exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE_CAP = 3 << 30
TAIL_BEYOND = 10  # ops that must lie beyond the tail percentile
CLI_POOL_WORKERS = min(8, os.cpu_count() or 1)  # as mimolink.cli._pmap sizes it


def _cap_address_space() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def _import_package() -> None:
    """Import mimolink from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import mimolink
    import mimolink.cli  # noqa: F401  (part of set-up for every workload)

    if Path(mimolink.__file__).resolve().parent != ROOT / "src" / "mimolink":
        raise SystemExit(f"imported mimolink from {mimolink.__file__}, not from {ROOT / 'src'}")


def _host(cap: int) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cli_pool_workers": CLI_POOL_WORKERS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "address_space_cap_bytes": cap,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _run(wl, ops, tracer=None):
    """Run ``ops`` back to back, each timed on its own; settle each output
    outside its timed region."""
    from workloads import Record

    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            raw = tracer.op(op.call, *wl.op_span) if tracer else op.call()
            error = None
        except Exception as exc:  # a failed op is counted, never fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        output = wl.settle(op, raw) if error is None else None
        records.append(Record(op, output, error, seconds))
    return records


def _failures(wl, records) -> list[str]:
    """One line per failed op: an exception, or an output its check rejects."""
    ok = [r for r in records if r.error is None]
    failures = [f"{r.op.label}: {r.error}" for r in records if r.error is not None]
    failures += [f"{r.op.label}: {why}" for r, why in zip(ok, wl.check(ok)) if why]
    return failures


def run_untraced(wl, seconds: float) -> dict:
    # Round -1 keeps first-call costs (lazy imports, cache fills) out of the
    # op latencies without handing the timed rounds its cached inputs.
    start = time.perf_counter()
    _run(wl, wl.round(-1))
    warmup_s = time.perf_counter() - start
    records, round_s = [], []
    while sum(round_s) < seconds:
        batch = _run(wl, wl.round(len(round_s)))
        records += batch
        round_s.append(sum(r.seconds for r in batch))
    busy = sum(round_s)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = _failures(wl, records)
    lat = sorted(r.seconds * 1e3 for r in records)
    n = len(lat)
    # The highest percentile with TAIL_BEYOND ops beyond it is the value
    # TAIL_BEYOND places from the top; below that many ops, the maximum.
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    attempted = len(records)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "ops_per_s": (attempted / busy, "ops/s"),
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_tail_ms": (lat[n - 1 - beyond], "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
        },
        "warmup_s": warmup_s,
        "round_s": round_s,
        "tail": {"ops": n, "ops_beyond": beyond,
                 "percentile": 100.0 * (n - beyond) / n},
        "digests": _digests(records),
    }


def _digests(records) -> list:
    """SHA-256 of every CLI output file, for information (not a gate)."""
    return [[r.op.label, r.output.digests] for r in records
            if r.error is None and hasattr(r.output, "digests")]


def run_traced(wl, seconds: float, spans_path: Path) -> dict:
    from mimolink import analytic
    from spans import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics

    passes, failures, attempted = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        ops = wl.round(0)
        analytic._table.cache_clear()
        plain = _run(wl, ops)
        analytic._table.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run(wl, ops, tracer)
        finally:
            tracer.uninstall()
        cache = analytic._table.cache_info()
        attempted += len(plain) + len(traced)
        failures += _failures(wl, plain) + _failures(wl, traced)
        for a, b in zip(plain, traced):
            if (a.error, a.output) != (b.error, b.output):
                failures.append(f"{a.op.label}: traced result differs from untraced")
        metrics = layer_metrics(
            tracer, cache_hits=cache.hits, cache_misses=cache.misses,
            pool_workers=CLI_POOL_WORKERS,
            bytes_written=sum(getattr(r.output, "bytes_written", 0) for r in traced),
        )
        metrics["trace.overhead_frac"] = (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
        )
        passes.append(metrics)
    tracer.write(spans_path)

    first = passes[0]
    for k, later in enumerate(passes[1:], start=2):
        moved = [n for n in COUNT_METRICS if later[n] != first[n]]
        if moved:
            failures.append(f"pass {k} repeated the work counts inexactly: {moved}")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            name: (first[name] if name in COUNT_METRICS
                   else statistics.median(p[name] for p in passes), unit)
            for name, unit in LAYER_METRICS.items()
        },
        "passes": len(passes),
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "spans": len(tracer.spans),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--probe", action="store_true",
                        help="exit as soon as the first op could be issued")
    args = parser.parse_args(argv)

    cap = _cap_address_space()
    _import_package()
    import workloads  # found beside this file: a script's directory is on sys.path

    out_dir = ROOT / ".perfbench"
    wl = workloads.build(args.workload, args.seed, args.size, out_dir / f"tmp-{os.getpid()}")
    wl.round(0)
    ready = time.monotonic()
    if args.probe:
        wl.cleanup()
        print(json.dumps({"ready": ready}))
        return

    try:
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            result = run_traced(wl, args.seconds, spans_path)
        else:
            result = run_untraced(wl, args.seconds)
    finally:
        wl.cleanup()
    result["ready"] = ready
    result["host"] = _host(cap)
    for name, (value, _) in result["metrics"].items():
        if not math.isfinite(value):
            raise SystemExit(f"metric {name} is not finite: {value!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
