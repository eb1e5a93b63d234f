"""What a CLI process imports: each subcommand runs in a fresh interpreter.

No subcommand except ``check-all`` may load ``dataclasses`` or ``inspect``,
and ``gw`` and ``witt`` load no library module beyond ``cli``, ``abelian``,
``fields`` and ``forms``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import mwslice
from mwslice.fields import finite_field, parse_unit
from mwslice.rewriting import derive_extended_steinberg

SRC = pathlib.Path(mwslice.__file__).resolve().parents[1]

# Runs the CLI on sys.argv[1:], then prints the loaded module names to stderr.
CHILD = """
import sys
from mwslice.cli import main
code = main(sys.argv[1:])
print("MODULES", " ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

SUBCOMMANDS = {
    "gw": ["gw", "--field", "Fq(7)", "--form", "<1,g>"],
    "witt": ["witt", "--field", "R", "--form", "<1,-1,3>"],
    "mw-normalize": ["mw-normalize", "--field", "Fq(7)", "--expr", "eta*[3] + eta*eta*[2]*[5]"],
    "mw-derive": ["mw-derive", "--field", "Fq(7)", "--units", "3,5"],
    "mw-verify": ["mw-verify", "--derivation", "{derivation}"],
    "filtration": ["filtration", "--field", "Fq(9)", "--n", "3", "--p", "0", "--q", "1"],
    "graded": ["graded", "--field", "R", "--n", "2", "--p", "0", "--q", "0"],
    "convergence": ["convergence", "--field", "R", "--cutoff", "4"],
    "moore": ["moore", "--field", "R", "--ell", "3", "--n", "2"],
    "transfer": ["transfer", "--ext", "Fq(9)/Fq(3)", "--form", "<1,g>"],
    "transfer-projection": ["transfer", "--ext", "Fq(25)/Fq(5)", "--check", "projection"],
}

LIGHT = {"mwslice", "mwslice.cli", "mwslice.abelian", "mwslice.fields", "mwslice.forms"}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_modules(argv: list[str]) -> set[str]:
    proc = run_python("-c", CHILD, *argv)
    line = next(s for s in proc.stderr.splitlines() if s.startswith("MODULES "))
    return set(line.split()[1:])


@pytest.fixture(scope="module")
def derivation_path(tmp_path_factory) -> str:
    f7 = finite_field(7)
    derivation = derive_extended_steinberg([parse_unit(f7, "3"), parse_unit(f7, "5")])
    path = tmp_path_factory.mktemp("derivation") / "steinberg.json"
    path.write_text(json.dumps(derivation.to_json()), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_loads_neither_dataclasses_nor_inspect(name, derivation_path):
    argv = [a.format(derivation=derivation_path) for a in SUBCOMMANDS[name]]
    modules = loaded_modules(argv)
    assert "dataclasses" not in modules
    assert "inspect" not in modules
    if name in ("gw", "witt"):
        assert {m for m in modules if m.split(".")[0] == "mwslice"} <= LIGHT


def test_package_import_loads_no_submodule():
    code = "import sys, mwslice; print(*(m for m in sys.modules if m.startswith('mwslice')))"
    assert run_python("-c", code).stdout.split() == ["mwslice"]
