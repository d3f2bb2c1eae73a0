"""Command-line interface: parameter sweeps as CSV/JSON with manifests.

Subcommands
-----------
``nmse``        channel-estimation quality vs SNR (analytic, floor, empirical)
``outage``      SINR outage probability vs threshold (analytic vs empirical)
``rates``       ergodic achievable rates vs SNR with per-point optimal training
``opt-tp``      optimal training length vs SNR (exact finite-block objective)
``asymptotic``  deterministic-equivalent rate convergence and training tables
``verify``      re-run a previous sweep from its manifest and diff the outputs

Every data run writes, next to its output files, a ``*.manifest.json``
recording the resolved parameters, seed, trial count, tool version, wall
clock, and a SHA-256 digest per output file.  Re-running the same
subcommand with the same parameters and seed reproduces every data file
byte-for-byte (the manifest's wall-clock and timestamp fields are outside
that contract); ``verify`` automates the check and exits 0 on a full
match, 1 on any mismatch.

Reproducibility layout: the sweep points of a table are enumerated in a
fixed nested order (documented at each sweep below).  Every Monte Carlo
point draws from its antenna configuration's stream,
``RandomStream(seed, stream_id=c)`` with ``c`` the configuration's index in
the table (0 for ``nmse`` and ``rates``, the ``--config`` index for
``outage`` and the convergence table).  The simulator reads it trial by
trial, so a run's first N trials per point equal a run at ``--trials N``,
and the points of one configuration see common random numbers: each cell
keeps its own law, but cells of one configuration are correlated.  Every
receiver at a point simulates on the same draw (in ``rates``, one per
distinct optimal training length).  Contiguous runs of one configuration's
points go to a small thread pool, each run simulated in one pass; outputs
are assembled in enumeration order, and a point's draws do not depend on
its run, so neither the pool nor the runs change the bytes.

Exit codes: 0 success; 2 usage error (bad flags or infeasible parameter
combinations); 3 internal accuracy failure (a numerical routine could not
meet its target); 1 verification mismatch.

Presets reproduce the library's reference figures and are the only source
of defaults.  Parameters are layered: the subcommand's default preset
(marked *), then ``--preset`` (one of the subcommand's own), then any
explicitly given flag.  A subcommand takes exactly one flag per key of its
default preset (``--config`` for ``configs``) and the output flags, so a
flag no sweep reads is a usage error:

=======  ===========  ====================================================
preset   subcommand   parameters
=======  ===========  ====================================================
fig1 *   nmse         4x4, T=100, Tp=4, delta {0,.05,.1,.15}, -10..60 dB
fig2 *   outage       5x5 and 5x30 at 30 dB, delta {0,.05,.1,.175}
fig3 *   rates        4x4, T=200, delta {0,.05,.15}, -10..40 dB, Tp opt.
fig4 *   opt-tp       4x4, T=200, delta {0,.15}, -10..40 dB
fig5 *   asymptotic   8x16 -> 32x64, T=500, delta {0,.1} (convergence)
fig6     asymptotic   8x16 and 8x256, T=500, delta {0,.15} (training)
=======  ===========  ====================================================
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analytic import rate_ceiling, rate_closed_form, sinr_cdf
from .config import AccuracyError, Receiver, SystemConfig, db_to_linear, derive_params
from .largescale import det_rate
from .simulate import (
    RandomStream,
    empirical_nmse,
    empirical_outage,
    empirical_rate,
    sample_sinr_multi,
)
from .training import optimize_tp_asymptotic, optimize_tp_exact

__all__ = ["main"]

_RECEIVER_ORDER = (Receiver.ZF, Receiver.MRC, Receiver.MMSE)

# Largest dB grid a sweep builds; a longer one is a usage error, raised
# before any point is built.
_MAX_GRID_POINTS = 10**6

# --------------------------------------------------------------------------
# Presets: resolved parameter values for the reference-figure sweeps.

PRESETS: dict[str, dict] = {
    "fig1": {
        "subcommand": "nmse",
        "params": {
            "nt": 4, "nr": 4, "t": 100, "tp": 4,
            "delta": [0.0, 0.05, 0.1, 0.15],
            "snr_db_min": -10.0, "snr_db_max": 60.0, "snr_db_step": 2.0,
            "trials": 100_000, "seed": 12345,
        },
    },
    "fig2": {
        "subcommand": "outage",
        "params": {
            "configs": [[5, 5], [5, 30]], "tp": None, "snr_db": 30.0,
            "delta": [0.0, 0.05, 0.1, 0.175],
            "threshold_db_min": -10.0, "threshold_db_max": 40.0,
            "threshold_db_step": 0.5,
            "trials": 100_000, "seed": 12345, "receiver": "all",
        },
    },
    "fig3": {
        "subcommand": "rates",
        "params": {
            "nt": 4, "nr": 4, "t": 200, "tp": None,
            "delta": [0.0, 0.05, 0.15],
            "snr_db_min": -10.0, "snr_db_max": 40.0, "snr_db_step": 2.0,
            "trials": 100_000, "seed": 12345, "receiver": "all",
        },
    },
    "fig4": {
        "subcommand": "opt-tp",
        "params": {
            "nt": 4, "nr": 4, "t": 200,
            "delta": [0.0, 0.15],
            "snr_db_min": -10.0, "snr_db_max": 40.0, "snr_db_step": 2.0,
            "receiver": "all",
        },
    },
    "fig5": {
        "subcommand": "asymptotic",
        "params": {
            "mode": "convergence",
            "configs": [[8, 16], [16, 32], [32, 64]], "t": 500, "tp": None,
            "delta": [0.0, 0.1],
            "snr_db_min": -10.0, "snr_db_max": 30.0, "snr_db_step": 5.0,
            "trials": 100_000, "seed": 12345, "receiver": "all",
        },
    },
    "fig6": {
        "subcommand": "asymptotic",
        "params": {
            "mode": "tp",
            "configs": [[8, 16], [8, 256]], "t": 500,
            "delta": [0.0, 0.15],
            "snr_db_min": -10.0, "snr_db_max": 30.0, "snr_db_step": 2.0,
            "receiver": "all", "seed": 12345,
        },
    },
}


# --------------------------------------------------------------------------
# Small shared helpers


def _fmt(x) -> str:
    """One CSV cell: full-precision floats, plain ints, empty for missing."""
    if type(x) is float:  # most cells: tested first, numpy scalars below
        return f"{x:.17g}"
    if x is None:
        return ""
    if isinstance(x, (bool, str)):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _grid(params: dict, name: str) -> list[float]:
    """Inclusive arithmetic dB grid ``{name}_min .. {name}_max`` in steps of
    ``{name}_step``, built from an integer index (no float accumulation, so
    the spacing and endpoints are exact and reproducible)."""
    lo, hi, step = (params[f"{name}_{end}"] for end in ("min", "max", "step"))
    flag = "--" + name.replace("_", "-")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise click.UsageError(
            f"{flag}-min/-max/-step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise click.UsageError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise click.UsageError(f"empty grid: max {hi} < min {lo}")
    last = (hi - lo) / step + 1e-9
    if last >= _MAX_GRID_POINTS:  # also catches an overflow to inf
        raise click.UsageError(
            f"{flag} grid would have {last + 1:.4g} points, "
            f"more than {_MAX_GRID_POINTS}")
    return [lo + i * step for i in range(int(math.floor(last)) + 1)]


def _receivers(name: str) -> tuple[Receiver, ...]:
    if name == "all":
        return _RECEIVER_ORDER
    return (Receiver(name),)


def _write_files(out_dir: Path, fmt: str, tables: dict) -> dict[str, str]:
    """Write every table as CSV or JSON; return ``{filename: sha256hex}``."""
    digests: dict[str, str] = {}
    for stem, (columns, rows) in tables.items():
        if fmt == "csv":
            name = f"{stem}.csv"
            lines = [",".join(columns)]
            lines += [",".join(_fmt(c) for c in row) for row in rows]
            payload = ("\n".join(lines) + "\n").encode("utf-8")
        else:
            name = f"{stem}.json"
            obj = {
                "columns": list(columns),
                "rows": [dict(zip(columns, row)) for row in rows],
            }
            payload = (
                json.dumps(obj, indent=2, allow_nan=False) + "\n"
            ).encode("utf-8")
        (out_dir / name).write_bytes(payload)
        digests[name] = hashlib.sha256(payload).hexdigest()
    return digests


def _emit(out_dir: Path, subcommand: str, params: dict, tables: dict,
          t0: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = _write_files(out_dir, params["format"], tables)
    manifest = {
        "tool": "mimolink",
        "version": __version__,
        "subcommand": subcommand,
        "params": params,
        "seed": params.get("seed"),
        "trials": params.get("trials"),
        "files": digests,
        "wall_clock_sec": round(time.time() - t0, 3),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    mpath = out_dir / f"{subcommand.replace('-', '_')}.manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    for name in digests:
        click.echo(f"wrote {out_dir / name}")
    click.echo(f"wrote {mpath}")
    return mpath


# --------------------------------------------------------------------------
# Sweeps.  Each output table is declared by a function of the resolved
# params that returns ``(points, work, columns, keep)``, or None when the
# params leave the table out:
#
# * ``points``: the sweep points in their nested order, each paired with the
#   index ``c`` of its antenna configuration in the table (0 where the table
#   has one); every Monte Carlo point of configuration ``c`` draws from
#   ``RandomStream(seed, c)``;
# * ``work(c, run) -> rows``: a pure map from a contiguous run of the points
#   of configuration ``c`` to their rows, in point order;
# * ``columns``: the column names;
# * ``keep``: ``keep(c)`` is how many values one point of configuration
#   ``c`` keeps while its run is simulated; None where every point runs
#   alone.
#
# ``_sweep`` maps ``work`` over runs of the points; the tables are pure
# functions of the params, which is what lets `verify` replay them
# bit-for-bit.  ``work`` calls the library through this module's globals at
# run time, so a wrapper bound there afterwards (a tracer, a test's
# counter) sees every call.

# Values one pool task keeps: an nmse point keeps one error per trial, a
# rates or convergence point its SINR samples.  Sized by measurement (2-core
# host, one BLAS thread): fig1's nmse at 32768 trials and fig5 at 4096 ran
# 1.3x and 1.25x faster at 2^20, but peaked 5 and 9 MiB above 2^18, which
# stays at or below the peak of one point per task.
_SLICE_VALUES = 1 << 18

# Runs per pool worker, at least, where there are that many points: enough
# to keep every worker busy while the runs differ in cost.
_RUNS_PER_WORKER = 4


def _each_point(work):
    """``work(c, point) -> rows`` as a map over a run of points."""
    return lambda c, run: [row for point in run for row in work(c, point)]


def _nmse(p: dict):
    """Point order: snr-major, delta-minor."""

    def work(c, run):
        cfgs = [SystemConfig(nt=p["nt"], nr=p["nr"], t=p["t"], tp=p["tp"],
                             rho=db_to_linear(snr_db), delta=delta)
                for snr_db, delta in run]
        emps = empirical_nmse(cfgs, p["trials"], RandomStream(p["seed"], c))
        rows = []
        for (snr_db, delta), cfg, emp in zip(run, cfgs, emps):
            dp = derive_params(cfg)
            rows.append([snr_db, delta, dp.sigma2_err, dp.sigma2_err_floor, emp])
        return rows

    points = [(0, (s, d)) for s in _grid(p, "snr_db") for d in p["delta"]]
    return points, work, ["snr_dB", "delta", "nmse_analytic", "nmse_floor",
                          "nmse_empirical"], lambda c: p["trials"]


def _outage(p: dict):
    """Point order: config-major, delta-minor; one simulation per point is
    shared by every receiver and threshold, and each point runs alone: its
    samples are its data.  The SINR statistics do not depend on the block
    length, so any t > tp serves."""
    rho = db_to_linear(p["snr_db"])
    thresholds = [db_to_linear(x_db) for x_db in _grid(p, "threshold_db")]
    receivers = _receivers(p["receiver"])

    def work(c, point):
        (nt, nr), delta = point
        tp = p["tp"] if p["tp"] is not None else nt
        cfg = SystemConfig(nt=nt, nr=nr, t=2 * tp + 2, tp=tp, rho=rho,
                           delta=delta)
        samples = sample_sinr_multi(cfg, receivers, p["trials"],
                                    RandomStream(p["seed"], c))
        return [[nt, nr, x, str(r), delta, cdf, emp]
                for r in receivers
                for x, cdf, emp in zip(thresholds,
                                       sinr_cdf(r, cfg, thresholds).tolist(),
                                       empirical_outage(samples[r], thresholds).tolist())]

    points = [(c, (tuple(config), d)) for c, config in enumerate(p["configs"])
              for d in p["delta"]]
    return points, _each_point(work), ["nt", "nr", "threshold", "receiver",
                                       "delta", "outage_analytic",
                                       "outage_empirical"], None


def _rates(p: dict):
    """Point order: snr-major, then delta; each point writes one row per
    receiver, in receiver order.  Every point simulates on the one stream:
    the receivers of a point with the same training length share one
    simulation, and since the draws do not depend on ``tp`` or on the
    point, all of them see common random numbers."""
    fixed_tp = p["tp"]
    receivers = _receivers(p["receiver"])
    # The ceiling does not depend on rho: one evaluation per distinct
    # (receiver, delta, tp) serves every SNR.
    ceilings: dict = {}
    ceilings_lock = threading.Lock()

    def ceiling(receiver, cfg):
        key = (receiver, cfg.delta, cfg.tp)
        with ceilings_lock:
            if key not in ceilings:
                ceilings[key] = rate_ceiling(receiver, cfg)
            return ceilings[key]

    def best(base):
        """``(tp, rate_analytic)`` of every receiver at ``base``."""
        if fixed_tp is None:
            opts = [optimize_tp_exact(base, r) for r in receivers]
            return [(opt.tp_star, opt.rate_at_star) for opt in opts]
        return [(fixed_tp, rate_closed_form(r, base)) for r in receivers]

    def work(c, run):
        bases = [SystemConfig(
            nt=p["nt"], nr=p["nr"], t=p["t"],
            tp=fixed_tp if fixed_tp is not None else p["nt"],
            rho=db_to_linear(snr_db), delta=delta,
        ) for snr_db, delta in run]
        bests = [best(base) for base in bases]
        # One simulation per (point, distinct tp), gathered by the receivers
        # it serves: one call per receiver group serves the whole run.
        groups: dict = {}
        for j, (base, point_best) in enumerate(zip(bases, bests)):
            tps = [tp for tp, _ in point_best]
            for tp in dict.fromkeys(tps):
                group = tuple(r for r, r_tp in zip(receivers, tps) if r_tp == tp)
                groups.setdefault(group, []).append((j, base.with_tp(tp)))
        emp = [{} for _ in run]
        for group, sims in groups.items():
            rates = empirical_rate([cfg for _, cfg in sims], group, p["trials"],
                                   RandomStream(p["seed"], c))
            for (j, _), rate in zip(sims, rates):
                emp[j] |= rate
        rows = []
        for (snr_db, delta), base, point_best, point_emp in zip(run, bases, bests, emp):
            for receiver, (tp_star, analytic) in zip(receivers, point_best):
                # Empty exactly where rate_ceiling has no value: delta**2 == 0.
                ceil = (None if delta * delta == 0.0
                        else ceiling(receiver, base.with_tp(tp_star)))
                rows.append([snr_db, str(receiver), delta, analytic,
                             point_emp[receiver], ceil, tp_star])
        return rows

    points = [(0, (s, d)) for s in _grid(p, "snr_db") for d in p["delta"]]
    return points, work, ["snr_dB", "receiver", "delta", "rate_analytic",
                          "rate_empirical", "rate_ceiling", "tp_star"], (
        lambda c: p["nt"] * p["trials"] * len(receivers))


def _opt_tp(p: dict):
    """Point order: snr-major, then delta, then receiver."""

    def work(c, point):
        snr_db, delta, receiver = point
        cfg = SystemConfig(nt=p["nt"], nr=p["nr"], t=p["t"], tp=p["nt"],
                           rho=db_to_linear(snr_db), delta=delta)
        return [[snr_db, str(receiver), delta,
                 optimize_tp_exact(cfg, receiver).tp_star]]

    receivers = _receivers(p["receiver"])
    points = [(0, (s, d, r)) for s in _grid(p, "snr_db") for d in p["delta"]
              for r in receivers]
    return points, _each_point(work), ["snr_dB", "receiver", "delta",
                                       "tp_star"], None


def _convergence(p: dict):
    """Point order: config-major, then delta, then snr; receivers share
    each point's channel draws, and the points of a configuration share
    its stream."""
    if p["mode"] == "tp":
        return None
    receivers = _receivers(p["receiver"])

    def work(c, run):
        cfgs = []
        for (nt, nr), delta, snr_db in run:
            tp = p["tp"] if p["tp"] is not None else nt
            cfgs.append(SystemConfig(nt=nt, nr=nr, t=p["t"], tp=tp,
                                     rho=db_to_linear(snr_db), delta=delta))
        emps = empirical_rate(cfgs, receivers, p["trials"],
                              RandomStream(p["seed"], c))
        rows = []
        for ((nt, nr), delta, snr_db), cfg, emp in zip(run, cfgs, emps):
            for receiver in receivers:
                det, rate = det_rate(receiver, cfg), emp[receiver]
                rows.append([nt, nr, snr_db, str(receiver), delta, det, rate,
                             abs(det - rate) / rate])
        return rows

    snrs = _grid(p, "snr_db")
    points = [(c, (tuple(config), d, s)) for c, config in enumerate(p["configs"])
              for d in p["delta"] for s in snrs]
    return points, work, ["nt", "nr", "snr_dB", "receiver", "delta",
                          "rate_det", "rate_empirical", "rel_deviation"], (
        lambda c: p["configs"][c][0] * p["trials"] * len(receivers))


def _asymptotic_tp(p: dict):
    """Point order: config-major, then delta, then snr, then receiver."""
    if p["mode"] == "convergence":
        return None

    def work(c, point):
        (nt, nr), delta, snr_db, receiver = point
        cfg = SystemConfig(nt=nt, nr=nr, t=p["t"], tp=nt,
                           rho=db_to_linear(snr_db), delta=delta)
        return [[nt, nr, snr_db, str(receiver), delta,
                 optimize_tp_asymptotic(cfg, receiver).tp_star]]

    snrs, receivers = _grid(p, "snr_db"), _receivers(p["receiver"])
    points = [(c, (tuple(config), d, s, r)) for c, config in enumerate(p["configs"])
              for d in p["delta"] for s in snrs for r in receivers]
    return points, _each_point(work), ["nt", "nr", "snr_dB", "receiver",
                                       "delta", "tp_star_asymptotic"], None


def _runs(points: list, keep, tasks: int) -> list:
    """The enumerated ``(c, point)`` pairs cut into contiguous ``(c, run)``
    slices of one configuration each.  A run keeps at most
    ``_SLICE_VALUES`` values by ``keep(c)``, and holds at most
    ``1/tasks`` of the points, so that there are at least ``tasks`` runs
    where there are that many points.  Without ``keep``, every point is a
    run of its own."""
    if keep is None:
        return [(c, [point]) for c, point in points]
    most = -(-len(points) // tasks)
    runs = []
    for c, group in itertools.groupby(points, key=lambda item: item[0]):
        group = [point for _, point in group]
        step = max(1, min(most, _SLICE_VALUES // max(1, keep(c))))
        n = -(-len(group) // step)  # runs of near-equal length, each <= step
        runs += [(c, group[k * len(group) // n:(k + 1) * len(group) // n])
                 for k in range(n)]
    return runs


def _sweep(points: list, work, keep) -> list:
    """Rows of ``work(c, run)`` over the runs of :func:`_runs`, concatenated
    in point order.  Runs go to a small thread pool; the order of the
    results never depends on it, and neither do their bytes: every point
    draws from its configuration's stream whatever else shares its run."""
    workers = max(1, min(8, os.cpu_count() or 1, len(points)))
    runs = _runs(points, keep, _RUNS_PER_WORKER * workers)
    if len(runs) <= 1:
        chunks = [work(c, run) for c, run in runs]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(runs))) as pool:
            chunks = list(pool.map(lambda item: work(*item), runs))
    return [row for chunk in chunks for row in chunk]


def _tables(subcommand: str, params: dict) -> dict:
    """``{file_stem: (columns, rows)}`` of every table the params select."""
    tables = {}
    for stem, declare in _SUBCOMMANDS[subcommand]["tables"].items():
        sweep = declare(params)
        if sweep is not None:
            points, work, columns, keep = sweep
            tables[stem] = (columns, _sweep(points, work, keep))
    return tables


# --------------------------------------------------------------------------
# Subcommands.  Each is one row of ``_SUBCOMMANDS``: its default preset, its
# tables and its help.  It takes the ``_FLAGS`` of the keys in its default
# preset, then the output flags; its ``--preset`` offers only its own
# presets.

_FLAGS = {
    "mode": click.option("--mode", type=click.Choice(["both", "convergence", "tp"]),
                         help="Which asymptotic tables to produce."),
    "configs": click.option("--config", "configs", multiple=True,
                            help="Antenna configuration NTxNR (repeatable), e.g. 5x30."),
    "nt": click.option("--nt", type=int, help="Transmit antennas."),
    "nr": click.option("--nr", type=int, help="Receive antennas."),
    "t": click.option("--t", type=int, help="Coherence block length."),
    "tp": click.option("--tp", type=int, help="Training length."),
    "snr_db": click.option("--snr-db", type=float,
                           help="Operating SNR in dB (the x axis is the SINR threshold)."),
    "delta": click.option("--delta", type=float, multiple=True,
                          help="Impairment level (repeatable)."),
    "snr_db_min": click.option("--snr-db-min", type=float),
    "snr_db_max": click.option("--snr-db-max", type=float),
    "snr_db_step": click.option("--snr-db-step", type=float),
    "threshold_db_min": click.option("--threshold-db-min", type=float),
    "threshold_db_max": click.option("--threshold-db-max", type=float),
    "threshold_db_step": click.option("--threshold-db-step", type=float),
    "trials": click.option("--trials", type=int,
                           help="Monte Carlo trials per sweep point."),
    "seed": click.option("--seed", type=int, help="Base RNG seed."),
    "receiver": click.option("--receiver",
                             type=click.Choice(["zf", "mrc", "mmse", "all"])),
}

_SUBCOMMANDS = {
    "nmse": dict(preset="fig1", tables={"nmse": _nmse}, help=(
        "Channel-estimation NMSE vs SNR: analytic curve, floor, empirical.")),
    "outage": dict(preset="fig2", tables={"outage": _outage}, help=(
        "SINR outage probability vs threshold, analytic vs empirical.")),
    "rates": dict(preset="fig3", tables={"rates": _rates}, help=(
        "Ergodic achievable rates vs SNR; the training length is optimized "
        "per point unless --tp pins it.")),
    "opt-tp": dict(preset="fig4", tables={"opt_tp": _opt_tp}, help=(
        "Optimal training length vs SNR from the exact rate objective.")),
    "asymptotic": dict(preset="fig5", tables={
        "asymptotic_convergence": _convergence, "asymptotic_tp": _asymptotic_tp,
    }, help=("Deterministic-equivalent rates vs simulation, plus asymptotic "
             "training-length tables.")),
}


def _resolve(subcommand: str, preset: str | None, cli: dict) -> dict:
    """Layer parameters: default preset < ``--preset`` < explicit flags."""
    params = dict(PRESETS[_SUBCOMMANDS[subcommand]["preset"]]["params"])
    if preset is not None:
        params.update(PRESETS[preset]["params"])
    configs = cli.pop("configs", ())
    for key, value in cli.items():
        if value is None:
            continue
        if key == "delta":
            if len(value) > 0:
                params["delta"] = [float(v) for v in value]
        else:
            params[key] = value
    if configs:
        params["configs"] = _parse_configs(configs)
    params.setdefault("format", "csv")
    return params


def _plot_script(subcommand: str, stem: str, columns: list[str]) -> str:
    """A small deterministic matplotlib script rendering one CSV."""
    x_col = "threshold" if stem == "outage" else columns[0]
    key_cols = [c for c in ("nt", "nr", "receiver", "delta") if c in columns]
    y_cols = [c for c in columns if c != x_col and c not in key_cols]
    lines = [
        "#!/usr/bin/env python3",
        f'"""Render {stem}.csv (written by `mimolink {subcommand}`)."""',
        "import csv",
        "from collections import defaultdict",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f'with open("{stem}.csv", newline="", encoding="utf-8") as fh:',
        "    rows = list(csv.DictReader(fh))",
        "",
        f"key_cols = {key_cols!r}",
        f'x_col = "{x_col}"',
        f"y_cols = {y_cols!r}",
        "series = defaultdict(list)",
        "for row in rows:",
        "    series[tuple(row[c] for c in key_cols)].append(row)",
        "",
        "fig, ax = plt.subplots(figsize=(7, 5))",
        "for key, pts in series.items():",
        "    xs = [float(p[x_col]) for p in pts]",
        "    for y in y_cols:",
        "        ys = [float(p[y]) if p[y] else float('nan') for p in pts]",
        '        ax.plot(xs, ys, label=" ".join(key) + " " + y)',
        "ax.set_xlabel(x_col)",
        "ax.legend(fontsize=6)",
        "ax.grid(True, alpha=0.3)",
        f'fig.savefig("{stem}.png", dpi=150)',
        f'print("wrote {stem}.png")',
        "",
    ]
    return "\n".join(lines)


def _parse_configs(values) -> list[list[int]]:
    """Parse repeated NTxNR antenna-configuration strings (e.g. ``5x30``)."""
    out = []
    for text in values:
        parts = text.lower().split("x")
        try:
            nt, nr = (int(p) for p in parts)
        except ValueError:
            raise click.UsageError(
                f"bad antenna configuration {text!r}: expected NTxNR, e.g. 5x30"
            ) from None
        if nt < 1 or nr < 1:
            raise click.UsageError(
                f"bad antenna configuration {text!r}: counts must be >= 1"
            )
        out.append([nt, nr])
    return out


def _execute(subcommand: str, cli: dict) -> None:
    t0 = time.time()
    out_dir = Path(cli.pop("out") or ".")
    emit_plot_script = cli.pop("emit_plot_script")
    params = _resolve(subcommand, cli.pop("preset"), cli)
    if emit_plot_script and params["format"] != "csv":
        raise click.UsageError("--emit-plot-script renders CSV tables; "
                               "it cannot be combined with --format json")
    try:
        tables = _tables(subcommand, params)
    except ValueError as exc:
        # Infeasible parameter combinations surface as config validation
        # errors; those are usage errors, not internal failures.
        raise click.UsageError(str(exc)) from exc
    if emit_plot_script:
        out_dir.mkdir(parents=True, exist_ok=True)
        for stem, (columns, _) in tables.items():
            path = out_dir / f"plot_{stem}.py"
            path.write_text(_plot_script(subcommand, stem, columns),
                            encoding="utf-8")
            click.echo(f"wrote {path}")
    _emit(out_dir, subcommand, params, tables, t0)


class _AccuracyExit(click.ClickException):
    exit_code = 3


class _Group(click.Group):
    """Translates internal accuracy failures into exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AccuracyError as exc:
            raise _AccuracyExit(f"accuracy failure: {exc}") from exc


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="mimolink")
def main() -> None:
    """Training-based MIMO link analysis under residual transmit impairments."""


def _command(name: str, spec: dict) -> click.Command:
    keys = PRESETS[spec["preset"]]["params"].keys()
    own = sorted(p for p, pre in PRESETS.items() if pre["subcommand"] == name)
    flags = [flag for key, flag in _FLAGS.items() if key in keys] + [
        click.option("--format", "format", type=click.Choice(["csv", "json"]),
                     help="Output file format (default csv)."),
        click.option("--out", type=click.Path(file_okay=False),
                     help="Output directory (default: current directory)."),
        click.option("--preset", type=click.Choice(own),
                     help=f"Reference-figure parameter set layered on "
                          f"{spec['preset']}; flags override it."),
        click.option("--emit-plot-script", is_flag=True,
                     help="Also write a matplotlib script that renders the CSV."),
    ]

    def run(**cli) -> None:
        _execute(name, cli)

    for flag in reversed(flags):
        run = flag(run)
    return click.command(name, help=spec["help"])(run)


for _name, _spec in _SUBCOMMANDS.items():
    main.add_command(_command(_name, _spec))


@main.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--keep", type=click.Path(file_okay=False), default=None,
              help="Directory to keep the re-run outputs in (default: temp).")
def verify(manifest: str, keep: str | None) -> None:
    """Re-run a sweep from its manifest and diff every output file.

    Each recorded file is checked two ways: the re-run must reproduce the
    recorded digest (MISMATCH otherwise), and any copy still sitting next
    to the manifest must be unmodified (DRIFT otherwise).  Exits 0 when
    everything matches byte-for-byte, 1 otherwise.
    """
    try:
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise click.UsageError(f"manifest is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise click.UsageError("manifest is not a JSON object")
    subcommand = doc.get("subcommand")
    if subcommand not in _SUBCOMMANDS:
        raise click.UsageError(f"manifest names unknown subcommand {subcommand!r}")
    params, files = doc.get("params"), doc.get("files")
    if not isinstance(params, dict):
        raise click.UsageError("manifest has no params object")
    if not (isinstance(files, dict)
            and all(isinstance(d, str) for d in files.values())):
        raise click.UsageError("manifest has no files object of digest strings")
    missing = PRESETS[_SUBCOMMANDS[subcommand]["preset"]]["params"].keys() - params
    if missing:
        raise click.UsageError(
            f"manifest params lack {', '.join(sorted(missing))} for {subcommand}")

    def replay(target: Path) -> dict[str, str]:
        try:
            tables = _tables(subcommand, params)
        except (TypeError, ValueError) as exc:
            # Params that are infeasible or of the wrong type: the manifest
            # is at fault, not the build, so this is no verification failure.
            raise click.UsageError(f"manifest params: {exc}") from exc
        return _write_files(target, params.get("format", "csv"), tables)

    if keep is not None:
        target = Path(keep)
        target.mkdir(parents=True, exist_ok=True)
        fresh = replay(target)
    else:
        with tempfile.TemporaryDirectory(prefix="mimolink-verify-") as tmp:
            fresh = replay(Path(tmp))

    run_dir = Path(manifest).parent
    ok, mismatch = True, False
    for name, digest in sorted(files.items()):
        got = fresh.get(name)
        if got is None:
            click.echo(f"MISSING   {name}")
            ok = False
        elif got != digest:
            click.echo(f"MISMATCH  {name}")
            ok, mismatch = False, True
        else:
            on_disk = run_dir / name
            if on_disk.exists() and (
                hashlib.sha256(on_disk.read_bytes()).hexdigest() != digest
            ):
                click.echo(f"DRIFT     {name} (file next to manifest was modified)")
                ok = False
            else:
                click.echo(f"OK        {name}")
    if mismatch and doc.get("version") != __version__:
        click.echo(f"manifest from mimolink {doc.get('version')}, running {__version__}")
    if not ok:
        sys.exit(1)
    click.echo("verified: all outputs reproduce byte-identically")


if __name__ == "__main__":  # pragma: no cover
    main()
