"""mimolink benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload tp_scan --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same inputs.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the details (host block, tail percentile, failures,
CLI output digests).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tp_scan", "cli_sweep")
SETUP_PROBES = 4  # extra start-ups timed per run, besides the measuring child
CHILD_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(args, started: float, probe: bool = False) -> dict:
    """Run ``child.py`` to completion and return its JSON report."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if probe:
        cmd.append("--probe")
    timeout = CHILD_DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.exit(f"benchmark child exceeded {CHILD_DEADLINE_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input for the benchmark's own test")
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "mimolink" / "__init__.py").is_file():
        sys.exit(f"no mimolink sources under {ROOT / 'src'}: run from a mimolink checkout")

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned = time.monotonic()
            setup.append(_child(args, started, probe=True)["ready"] - spawned)
    spawned = time.monotonic()
    report = _child(args, started)
    setup.append(report["ready"] - spawned)

    metrics = dict(report.pop("metrics"))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
    details = {k: v for k, v in report.items() if k not in ("attempted", "failed", "ready")}
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size, setup_samples_s=setup)
    print(json.dumps(details))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
