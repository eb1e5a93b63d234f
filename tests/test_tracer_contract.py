"""What the benchmark's tracer (perfbench/tracer.py) needs from the library.

The tracer patches each hot method through its class ``__dict__`` and counts
subgroup construction through ``SubgroupDescription.__post_init__``.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

from mwslice.abelian import SubgroupDescription
from mwslice.fields import REALS, finite_field
from mwslice.filtration import FiltrationQuery

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_hot_methods_are_defined_in_their_own_class(tracer):
    for layer, cls_name, method in tracer.HOT_METHODS:
        cls = getattr(importlib.import_module(f"mwslice.{layer}"), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"


def test_traced_queries_count_built_subgroups(tracer):
    from mwslice import filtration

    original = SubgroupDescription.__dict__["__post_init__"]
    filtration.kmw_times_In.cache_clear()  # levels and eta images built by earlier tests
    filtration.eta_power_image.cache_clear()  # are not rebuilt
    t = tracer.Tracer()
    t.install()
    try:
        for field in (finite_field(7), REALS):
            for n, p, q in ((2, 0, 0), (3, 1, 0), (2, 0, -1)):
                filtration.tate_filtration(FiltrationQuery(n, p, q, field))
    finally:
        t.uninstall()
    assert t.totals["abelian.SubgroupDescription.subgroup_built"][0] > 0
    assert t.totals["filtration.tate_filtration"][0] == 6
    assert t.snapshot()["subgroups_distinct"] > 0
    assert SubgroupDescription.__dict__["__post_init__"] is original
