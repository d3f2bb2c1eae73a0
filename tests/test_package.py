"""Tests for the package's public surface."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import mimolink


def test_every_exported_name_resolves():
    assert len(set(mimolink.__all__)) == len(mimolink.__all__)
    missing = [name for name in mimolink.__all__ if not hasattr(mimolink, name)]
    assert not missing


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(mimolink.__path__))
)
def test_every_submodule_exported_name_resolves(name):
    module = importlib.import_module(f"mimolink.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from mimolink import *", namespace)
    assert set(mimolink.__all__) <= namespace.keys()


def test_version_matches_pyproject():
    # Manifests record __version__; the distribution carries pyproject's.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == mimolink.__version__


def test_readme_quickstart_runs():
    # The README's Python quickstart, run as written: a signature change
    # that leaves it stale fails here.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
