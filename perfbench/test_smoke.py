"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from spans import COUNT_METRICS  # noqa: E402


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = _bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.strip().splitlines()
    return json.loads(details), json.loads(last)


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    details, result = _result(workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert len(details["setup_samples_s"]) == 5
    assert details["host"]["blas_threads"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_match_untraced_and_repeat_counts(workload):
    # A correct traced run returned the same op results as its untraced
    # passes and repeated its counts across passes (child.py enforces both).
    first_details, first = _result(workload, trace=1)
    _, second = _result(workload, trace=1)
    for result in (first, second):
        _assert_metrics(result, SPEC["per_layer"])
    assert first_details["passes"] >= 2
    for name in COUNT_METRICS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert isinstance(a, int) and a == b, name
    assert (ROOT / first_details["spans_file"]).is_file()


def test_traced_ops_return_untraced_results():
    """Tracing never changes what an op returns, checked op by op."""
    sys.path.insert(0, str(ROOT / "src"))
    import child
    import workloads
    from spans import Tracer

    scratch = ROOT / ".perfbench" / "smoke-test"
    for name in WORKLOADS:
        wl = workloads.build(name, 11, "smoke", scratch)
        try:
            plain = child._run(wl, wl.round(0))
            tracer = Tracer()
            tracer.install()
            try:
                traced = child._run(wl, wl.round(0), tracer)
            finally:
                tracer.uninstall()
        finally:
            wl.cleanup()
        assert tracer.spans
        assert [(r.error, r.output) for r in plain] == [(r.error, r.output) for r in traced]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
