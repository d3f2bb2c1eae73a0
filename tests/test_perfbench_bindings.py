"""The names the benchmark in ``perfbench/`` binds on the package.

``perfbench/spans.py`` traces a run by replacing module attributes listed in
its ``BOUNDARIES``, and ``perfbench/workloads.py`` calls the package by name.
A rename or deletion of any of them breaks only the benchmark, so these tests
pin them.  ``spans.py`` is loaded by path, as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

from mimolink import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", _PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = [(module, attr) for module, attr, *_ in _load_spans().BOUNDARIES]


@pytest.mark.parametrize("module, attr", BOUNDARIES,
                         ids=[f"{m}.{a}" for m, a in BOUNDARIES])
def test_span_boundary_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, attr", [
    ("mimolink.cli", "main"),
    ("mimolink.analytic", "rate_closed_form"),
    ("mimolink.analytic", "rate_ceiling"),
    ("mimolink.analytic", "rate_quadrature"),
    ("mimolink.analytic", "sinr_cdf"),
    ("mimolink.training", "optimize_tp_exact"),
    ("mimolink.training", "optimize_tp_asymptotic"),
    ("mimolink.config", "SystemConfig.with_tp"),
])
def test_workload_name_is_bound(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("preset, keys", [
    ("fig1", ("nt", "nr", "t", "tp")),
    ("fig2", ("snr_db",)),
    ("fig3", ("nt", "nr", "t")),
    ("fig4", ()),
    ("fig5", ()),
    ("fig6", ("t",)),
])
def test_workload_preset_params(preset, keys):
    params = cli.PRESETS[preset]["params"]
    assert isinstance(params, dict)
    assert all(key in params for key in keys)


def test_cli_sweeps_call_through_module_globals(tmp_path, monkeypatch):
    # The tracer replaces these names on ``mimolink.cli`` after import; the
    # sweeps must call whatever is bound there when they run.
    names = [attr for module, attr in BOUNDARIES if module == "mimolink.cli"]
    called = set()
    for name in names:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    # Each run passes only the flags its subcommand takes.
    mc = ["--delta", "0.1", "--trials", "64", "--seed", "1"]
    snr = ["--snr-db-min", "10", "--snr-db-max", "10"]
    mmse = ["--receiver", "mmse"]
    runs = [
        ["nmse", "--nt", "2", "--nr", "2", "--t", "20", "--tp", "2", *mc, *snr],
        ["outage", "--config", "2x4", "--threshold-db-min", "0",
         "--threshold-db-max", "0", *mc, *mmse],
        ["rates", "--nt", "2", "--nr", "2", "--t", "20", *mc, *snr, *mmse],
        ["rates", "--nt", "2", "--nr", "2", "--t", "20", "--tp", "4", *mc, *snr,
         *mmse],
        ["asymptotic", "--mode", "both", "--config", "2x8", "--t", "40", *mc,
         *snr, *mmse],
    ]
    for args in runs:
        res = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
    # sample_sinr_multi stays bound for the tracer, but no sweep calls it:
    # outage counts per chunk through empirical_outage.
    assert called == set(names) - {"sample_sinr_multi"}
