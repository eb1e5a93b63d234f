"""Every name a library module imports is used, and every top-level name is read.

No linter is a test dependency, so this reads each ``src/mwslice/*.py`` with
``ast``: an imported name must appear as a name somewhere else in the module,
or in its ``__all__``.  ``from __future__`` imports bind nothing and are skipped.
A private module-level name (``_x``, not a dunder, bound by ``def``, ``class``
or an assignment) must be read somewhere in the package: as a name, as an
attribute, or by an import from another module.  A public one must be read,
the same way, somewhere in ``src``, ``tests``, ``demos`` or ``perfbench``; a
string in the package's ``_EXPORTS`` table counts as a read.  So must every
name in a class's ``_fields`` tuple, there as an attribute load (``x.name``).
Walks over every unit of a field, and the exhaustive oracles that run them,
are called only from ``checks`` and the few places named in ``WALK_SITES``,
and only ``cli.cmd_check_all`` imports ``checks``.  Only
``filtration.kmw_times_In`` builds a filtration level from a field's
``level_generators``.  No module subscripts a ``.value`` attribute: a
finite-field carrier is one integer, and no value is read apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mwslice"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom re import compile, match\nmatch\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: compile"]


def top_level_definitions(tree: ast.Module, private: bool) -> dict[str, int]:
    """The private (or public) names a module binds at its top level, with their lines."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__") and name.startswith("_") == private:
                bound.setdefault(name, node.lineno)
    return bound


def read_names(trees: list[ast.Module]) -> set[str]:
    read: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
            ):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return read


def unread_names(modules: dict[str, ast.Module], readers: list[ast.Module],
                 private: bool) -> list[str]:
    read = read_names(readers)
    return [f"{module} line {line}: {name}"
            for module, tree in modules.items()
            for name, line in top_level_definitions(tree, private).items() if name not in read]


def parse_all(paths) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


def test_every_private_helper_is_read():
    modules = parse_all(SRC.glob("*.py"))
    assert unread_names(modules, list(modules.values()), private=True) == []


def test_the_check_sees_an_unread_private_helper():
    a = ast.parse("_T = {}\n_set = setattr\nclass _M: pass\ndef _f(): _set\ndef __g__(): pass\n")
    b = ast.parse("from a import _f\nx = y._M\n_T = 1\n")
    assert unread_names({"a.py": a, "b.py": b}, [a, b], private=True) == [
        "a.py line 1: _T", "b.py line 3: _T"]


def reader_trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8"))
            for folder in ("src", "tests", "demos", "perfbench")
            for p in sorted((ROOT / folder).rglob("*.py"))]


def test_every_public_name_is_read():
    modules = parse_all(SRC.glob("*.py"))
    assert unread_names(modules, reader_trees(), private=False) == []


def test_the_check_sees_an_orphaned_public_helper():
    a = ast.parse("ETA = 1\nSTALE = 2\nclass Atom: pass\ndef leftover(u): return u\n"
                  "def eta(): return ETA\ndef __getattr__(name): pass\n")
    b = ast.parse("import a\na.eta()\n_EXPORTS = {'a': ('Atom',)}\n")
    assert unread_names({"a.py": a}, [a, b], private=False) == [
        "a.py line 2: STALE", "a.py line 4: leftover"]


def record_fields(tree: ast.Module) -> dict[str, int]:
    """``Class.field`` for each name in a class's ``_fields`` tuple, with its line."""
    fields: dict[str, int] = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_fields" for t in node.targets
            ):
                for c in ast.walk(node.value):
                    if isinstance(c, ast.Constant):
                        fields[f"{cls.name}.{c.value}"] = node.lineno
    return fields


def unread_fields(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    read = {n.attr for tree in readers for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{module} line {line}: {name}"
            for module, tree in modules.items()
            for name, line in record_fields(tree).items() if name.split(".")[1] not in read]


def test_every_record_field_is_read():
    assert unread_fields(parse_all(SRC.glob("*.py")), reader_trees()) == []


def test_the_check_sees_a_record_field_nothing_reads():
    a = ast.parse("class R:\n    __slots__ = _fields = ('kept', 'stale')\n"
                  "    def k(self): return self.kept\nclass S:\n    _fields = ('gone',)\n")
    b = ast.parse("s.gone = 1\ndel s.gone\nprint(getattr(r, 'stale'))\n")
    assert unread_fields({"a.py": a}, [a, b]) == ["a.py line 2: R.stale", "a.py line 5: S.gone"]


# The walks: called by name, or as a method such as ``FiniteField._tabulate``.
WALKS = {"enumerate_units", "discrete_log_table", "sum_to_one_tuples", "_tabulate"}
# Where a walk may run outside ``checks``: the one reader of a finite field's
# exp/log tables, whose first call builds them; discrete logs, g^k literals,
# K^MW_1 coordinates, ``enumerate_units`` and ``discrete_log_table`` go
# through it.  Each site must call a walk (``stale_walk_sites``).
WALK_SITES = {"fields.FiniteField._exp_log"}


def nodes_by_site(modules: dict[str, ast.Module]):
    """Each node with its site, ``module.Class.function``, the innermost definition around it."""

    def visit(node: ast.AST, site: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{site}.{child.name}")
            else:
                yield site, child
                yield from visit(child, site)

    for module, tree in modules.items():
        yield from visit(tree, module)


def called_name(node: ast.AST) -> str | None:
    """The name a call calls, by name or as a method; None for anything else."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def misplaced_walks(modules: dict[str, ast.Module]) -> list[str]:
    """Each function outside ``checks`` that walks a field or imports ``checks``
    where ``WALK_SITES`` or ``cli.cmd_check_all`` does not allow it."""
    found: dict[str, str] = {}
    for site, node in nodes_by_site({m: t for m, t in modules.items() if m != "checks"}):
        name = called_name(node)
        if name in WALKS and site not in WALK_SITES:
            found.setdefault(site, f"calls {name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.name for a in node.names}
            if isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{n}" for n in names} | {node.module}
            if "mwslice.checks" in names and site != "cli.cmd_check_all":
                found.setdefault(site, "imports mwslice.checks")
    return [f"{site} {what}" for site, what in sorted(found.items())]


def test_only_checks_walks_fields():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert misplaced_walks(modules) == []


def test_the_check_sees_a_misplaced_walk():
    a = ast.parse("class FiniteField:\n    def _exp_log(self): return self._tabulate()\n"
                  "class K:\n    def logs(self): return [discrete_log_table(self)]\n"
                  "    def literal(self): return enumerate_units(self)\n")
    b = ast.parse("import mwslice.checks\n"
                  "def cmd_check_all(): from mwslice import checks\n"
                  "def cmd_gw(): from mwslice.checks import represents\n")
    c = ast.parse("def f(units): return [x._tabulate for x in units]\n")
    assert misplaced_walks({"fields": a, "cli": b, "forms": c, "checks": a}) == [
        "cli imports mwslice.checks",
        "cli.cmd_gw imports mwslice.checks",
        "fields.K.literal calls enumerate_units",
        "fields.K.logs calls discrete_log_table",
    ]


def stale_walk_sites(modules: dict[str, ast.Module]) -> list[str]:
    """Each site of ``WALK_SITES`` that calls no walk, so allows nothing."""
    walking = {site for site, node in nodes_by_site(modules) if called_name(node) in WALKS}
    return sorted(WALK_SITES - walking)


def test_every_allowed_walk_site_walks():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert stale_walk_sites(modules) == []


def test_the_check_sees_an_allowed_site_that_calls_no_walk():
    walks = ast.parse("class FiniteField:\n    def _exp_log(self): return self._tabulate()\n")
    reads = ast.parse("class FiniteField:\n    def _exp_log(self): return self._tables\n"
                      "    def _log(self, a): return self._tabulate()[1][a]\n")
    assert stale_walk_sites({"fields": walks}) == []
    assert stale_walk_sites({"fields": reads}) == ["fields.FiniteField._exp_log"]


def call_sites(modules: dict[str, ast.Module], name: str) -> list[str]:
    """Each site that calls ``name``, by name or as a method."""
    return sorted({site for site, node in nodes_by_site(modules) if called_name(node) == name})


def test_one_builder_for_the_levels():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert call_sites(modules, "level_generators") == ["filtration.kmw_times_In"]


def test_the_check_sees_a_second_builder():
    a = ast.parse("def kmw_times_In(m, n, f): return f.level_generators(m, n)\n")
    b = ast.parse("def fundamental_power_description(f, n):\n"
                  "    return SubgroupDescription(f.gw_ambient, f.level_generators(0, n))\n"
                  "class K:\n    def level_generators(self, m, n): return level_generators(m, n)\n")
    assert call_sites({"filtration": a, "forms": b}, "level_generators") == [
        "filtration.kmw_times_In", "forms.K.level_generators", "forms.fundamental_power_description"]


def subscripted_values(modules: dict[str, ast.Module]) -> list[str]:
    """Each site that subscripts a ``.value`` attribute, as in ``a.value[0]``."""
    return sorted({site for site, node in nodes_by_site(modules)
                   if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "value"})


def test_no_module_subscripts_a_value():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert subscripted_values(modules) == []


def test_the_check_sees_a_subscripted_value():
    a = ast.parse("def mul(a, b): return (a.value[0] * b.value[0],)\n"
                  "class F:\n    def log(self, a): return self.log[a.value[1:]]\n"
                  "    def add(self, a, b): return self.value + a.value, b.values[0]\n")
    b = ast.parse("def gw(nf): return nf.value.coords[0], nf.value\n")
    assert subscripted_values({"fields": a, "cli": b}) == ["fields.F.log", "fields.mul"]
