"""No CLI command walks the units of a large field.

``FiniteField.powers`` builds all q - 1 powers of the generator; it is what
``enumerate_units`` and ``discrete_log_table`` run.  Here it refuses every
field of order above 10^5, and each command below must still exit 0 over
fields of order near the 10^6 bound; so must the degree-1 transfer over a
trivial extension, which no command reaches.  ``mw-derive`` is left out: it
prints its units as ``g^k`` literals through ``discrete_log_table``, an O(q)
walk that is still open (the FOUND entry on ``cli.cmd_mw_derive`` in
CHANGES.md).
"""

from __future__ import annotations

import json

import pytest

from mwslice import fields
from mwslice.cli import main
from mwslice.milnor_witt import mw_symbol, normalize
from mwslice.transfers import FiniteExtension, transfer_kmw

WALK_LIMIT = 10**5
BIG = "Fq(999983)"


@pytest.fixture(autouse=True)
def refuse_big_walks(monkeypatch):
    real = fields.FiniteField.powers

    def powers(field, g):
        if field.order > WALK_LIMIT:
            raise AssertionError(f"walked the {field.order - 1} units of {field}")
        return real(field, g)

    monkeypatch.setattr(fields.FiniteField, "powers", powers)
    fields.enumerate_units.cache_clear()
    fields.discrete_log_table.cache_clear()
    yield
    fields.enumerate_units.cache_clear()
    fields.discrete_log_table.cache_clear()


COMMANDS = {
    "gw": ["gw", "--field", BIG, "--form", "<1,g,-3,g^7>"],
    "witt": ["witt", "--field", BIG, "--form", "<1,g,-3,g^7>"],
    "mw-normalize-0": ["mw-normalize", "--field", BIG, "--expr", "2 + eta*[g^5]*[3]*eta"],
    "mw-normalize-1": ["mw-normalize", "--field", BIG, "--expr", "[g^5] + [3] - eta*[2]*[g]"],
    "filtration-0": ["filtration", "--field", BIG, "--n", "1", "--p", "0", "--q", "0"],
    "filtration-1": ["filtration", "--field", BIG, "--n", "2", "--p", "0", "--q", "1"],
    "filtration-neg": ["filtration", "--field", BIG, "--n", "2", "--p", "1", "--q", "0"],
    "graded": ["graded", "--field", BIG, "--n", "1", "--p", "0", "--q", "1"],
    "convergence": ["convergence", "--field", BIG],
    "moore": ["moore", "--field", BIG, "--ell", "3", "--n", "1"],
    "transfer-trivial-form": ["transfer", "--ext", "Fq(994009)/Fq(994009)", "--form", "<1,g>"],
    "transfer-trivial-projection": ["transfer", "--ext", "Fq(994009)/Fq(994009)",
                                    "--check", "projection"],
    "transfer-quadratic": ["transfer", "--ext", "Fq(531441)/Fq(729)", "--form", "<1,g>"],
}


@pytest.mark.parametrize("output", ["table", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_needs_no_walk(name, output, capsys):
    assert main(["--output", output, *COMMANDS[name]]) == 0, capsys.readouterr().err


def test_degree_one_transfer_over_a_trivial_extension():
    field = fields.parse_field("Fq(994009)")
    g = fields.multiplicative_generator(field)
    down = transfer_kmw(FiniteExtension(field, field), normalize(mw_symbol(g)))
    assert (down.field, down.value, down.ideal_bit) == (field, g, 1)


def test_verify_a_certificate_over_a_large_field(tmp_path, capsys):
    # [2][-1] = 0 by the Steinberg relation, since 1 - 2 = -1
    cert = {"field": BIG, "start": "[2]*[-1]", "end": "0",
            "steps": [{"rule": "R-steinberg", "position": {"term": 0, "factor": 0},
                       "bindings": {"u": "2"}}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["--output", "json", "mw-verify", "--derivation", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verified"] is True
