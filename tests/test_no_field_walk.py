"""No CLI command walks the units of a large field.

``FiniteField.powers`` builds all q - 1 powers of the generator; it is what
``enumerate_units`` and ``discrete_log_table`` run.  Here it refuses every
field of order above 10^5, and each command below must still exit 0 over
fields of order near the 10^6 bound; so must the degree-1 transfer over a
trivial extension, which no command reaches.  The exp/log tables of a
``TableField`` are the other walk: these commands ask for no discrete log,
so they build none, not even for the quadratic transfer's base Fq(729),
and no field above ``TABLE_ORDER`` is a ``TableField``.  ``mw-derive`` is
left out: it prints its units as ``g^k`` literals through
``discrete_log_table``, an O(q) walk that is still open (the FOUND entry on
``cli.cmd_mw_derive`` in CHANGES.md).
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


@pytest.fixture
def tables_built(monkeypatch):
    """The fields whose exp/log tables get built while the test runs."""
    built = []
    real = fields.TableField._tabulate

    def tabulate(field):
        built.append(str(field))
        return real(field)

    monkeypatch.setattr(fields.TableField, "_tabulate", tabulate)
    return built


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
def test_command_needs_no_walk(name, output, capsys, tables_built):
    assert main(["--output", output, *COMMANDS[name]]) == 0, capsys.readouterr().err
    assert tables_built == []


def test_no_field_above_the_table_order_is_tabulated(tables_built):
    assert fields.TABLE_ORDER == 2**14
    assert type(fields.parse_field("Fq(16381)")) is fields.TableField  # the last prime below
    for literal in ("Fq(16411)", BIG, "Fq(531441)"):  # 16411 is the first prime above
        field = fields.parse_field(literal)
        assert type(field) is fields.FiniteField
        g = field.generator_power(1)
        fields.square_class(fields.unit_inv(fields.unit_mul(g, fields.unit_neg(g))))
        fields.unit_pow(g, -2)
        if field.order < WALK_LIMIT:
            assert field.literal(g) == "g^1"
    assert tables_built == []


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
