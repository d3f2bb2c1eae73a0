"""Tests for the package's public surface."""

import mimolink


def test_every_exported_name_resolves():
    assert len(set(mimolink.__all__)) == len(mimolink.__all__)
    missing = [name for name in mimolink.__all__ if not hasattr(mimolink, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from mimolink import *", namespace)
    assert set(mimolink.__all__) <= namespace.keys()
