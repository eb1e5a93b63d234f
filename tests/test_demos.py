"""Byte-for-byte stdout of the narrative demos.

``golden/demo_outputs.json`` maps each file name in ``demos/`` to the exact
standard output of running it as a script.  As with the CLI golden file, a
difference is an output change and must be announced as one.
"""

import json
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "demo_outputs.json").read_text(encoding="utf-8")
)


def test_every_demo_has_a_golden_output():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_is_byte_stable(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out == GOLDEN[name]
