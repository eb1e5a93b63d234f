"""Byte-for-byte CLI outputs: every subcommand, table and JSON, over every field family.

``golden/cli_outputs.json`` holds, for each argv (and standard input where
``mw-verify`` reads one), the exact standard output and exit code.  The file
is data, not a snapshot to refresh: a difference here is an output change and
must be announced as one.  Cases are grouped by subcommand and field.
"""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mwslice
from mwslice.cli import main

CASES = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_outputs.json").read_text(encoding="utf-8")
)


def _group(argv: list[str]) -> str:
    command = next(
        w for i, w in enumerate(argv)
        if not w.startswith("-") and (i == 0 or argv[i - 1] != "--output")
    )
    for flag in ("--field", "--ext"):
        if flag in argv:
            return f"{command} {argv[argv.index(flag) + 1]}"
    return command


GROUPS: dict[str, list[dict]] = {}
for _case in CASES:
    GROUPS.setdefault(_group(_case["argv"]), []).append(_case)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_output_is_byte_stable(group, capsys, monkeypatch):
    for case in GROUPS[group]:
        monkeypatch.setattr("sys.stdin", io.StringIO(case.get("stdin", "")))
        code = main(list(case["argv"]))
        got = (capsys.readouterr().out, code)
        assert got == (case["stdout"], case["exit"]), case["argv"]


def _run_module(module: str, argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of ``python -m module argv`` in a fresh interpreter."""
    src = str(pathlib.Path(mwslice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.returncode


def test_python_dash_m_mwslice_runs_the_cli():
    argv = ["--output", "json", "convergence", "--field", "R", "--cutoff", "12"]
    case = next(c for c in CASES if c["argv"] == argv)
    assert _run_module("mwslice", argv) == _run_module("mwslice.cli", argv) == (
        case["stdout"], case["exit"])
    assert _run_module("mwslice", ["no-such-command"]) == ("", 2)
