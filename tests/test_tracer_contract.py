"""What the benchmark's tracer (perfbench/tracer.py) needs from the library.

The tracer patches each hot method through its class ``__dict__`` and counts
subgroup construction through ``SubgroupDescription.__post_init__``.  Each
``"layer.function"`` name its per-layer metrics read must name an attribute
of ``mwslice.<layer>``, or the metric reads 0 whatever the code does.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

from mwslice.abelian import SubgroupDescription
from mwslice.fields import REALS, finite_field
from mwslice.filtration import FiltrationQuery

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Names the metrics still read after the library dropped them; ROADMAP
# direction 2 renames this one.
GONE_NAMES = {"forms.fundamental_power_description"}


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


def metric_names(source: str) -> list[str]:
    """The ``"layer.function"`` strings that ``layer_metrics`` hands to ``calls`` or ``self_s``."""
    fn = next(n for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    return [c.args[0].value for c in ast.walk(fn)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
            and c.func.id in ("calls", "self_s") and isinstance(c.args[0], ast.Constant)]


def unresolved(names: list[str]) -> set[str]:
    """The names whose dotted path is not an attribute of ``mwslice.<layer>``."""
    out = set()
    for name in names:
        layer, *path = name.split(".")
        obj = importlib.import_module(f"mwslice.{layer}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            out.add(name)
    return out


def test_layer_metrics_read_real_names():
    names = metric_names((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    assert "milnor_witt.collect" in names and "abelian.SubgroupDescription.order" in names
    assert unresolved(names) <= GONE_NAMES


def test_the_name_check_sees_a_planted_bad_name():
    source = (PERFBENCH / "tracer.py").read_text(encoding="utf-8")
    planted = source.replace('calls("milnor_witt.collect")', 'calls("milnor_witt.colect")')
    assert planted != source
    assert unresolved(metric_names(planted)) - GONE_NAMES == {"milnor_witt.colect"}
