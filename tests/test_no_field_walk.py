"""No CLI command walks the units of a large field.

``FiniteField._tabulate`` builds the exp/log tables of all q - 1 powers of
the generator; it is the walk of a field, run by the first discrete log
and so by ``enumerate_units`` and ``discrete_log_table``.  An extension has
two walks of its own over the q_b - 1 units of its base's copy in the top
field: the root search ``transfers.embedding_image_of_generator`` and the
inverse table ``transfers._embedding_inverse_table``.  Here the first
refuses every field and the other two every base of order above 10^5, and
each command below must still exit 0 over fields of order near the 10^6
bound; so must the degree-1 transfer over a trivial extension, which no
command reaches, and the eta image that ``grid_law`` compares with each
level.  These commands ask for no discrete log, so they build no tables,
not even for the quadratic transfer's base Fq(729).  Unit arithmetic
builds no tables either: it runs on the packed kernel until a discrete log
has built them, and reads them from then on.  ``mw-derive`` is left out:
it prints its units as ``g^k`` literals, so it builds the tables of its
field, an O(q) walk of arrays over F_p (the MENDED entry on
``cli.cmd_mw_derive`` in CHANGES.md); ``tests/test_cli.py`` bounds its
memory and pins its bytes.
"""

from __future__ import annotations

import json

import pytest

from mwslice import fields, transfers
from mwslice.cli import main
from mwslice.filtration import FiltrationQuery, eta_image_subgroup, eta_power_image, tate_filtration
from mwslice.milnor_witt import mw_symbol, normalize
from mwslice.transfers import FiniteExtension, transfer_kmw

WALK_LIMIT = 10**5
BIG = "Fq(999983)"
# Every field this file uses.  Fields are interned, so tables that an earlier
# test built would let a discrete log here skip ``_tabulate`` unseen.
FIELDS = (BIG, "Fq(994009)", "Fq(531441)", "Fq(729)", "Fq(16411)", "Fq(59049)")


# A proper extension has q_b^2 <= MAX_FIELD_ORDER, so only an extension of a
# field by itself has a base above WALK_LIMIT.
SUBFIELD_WALKS = ("embedding_image_of_generator", "_embedding_inverse_table")


def _refusing_a_big_base(name, real):
    def walk(ext):
        if ext.base.order > WALK_LIMIT:
            raise AssertionError(f"{name} walked the {ext.base.order - 1} units of {ext.base}")
        return real(ext)
    return walk


@pytest.fixture(autouse=True)
def refuse_big_walks(monkeypatch):
    real = fields.FiniteField._tabulate

    def tabulate(field):
        if field.order > WALK_LIMIT:
            raise AssertionError(f"walked the {field.order - 1} units of {field}")
        return real(field)

    monkeypatch.setattr(fields.FiniteField, "_tabulate", tabulate)
    for name in SUBFIELD_WALKS:
        monkeypatch.setattr(transfers, name, _refusing_a_big_base(name, getattr(transfers, name)))
    used = [fields.parse_field(f) for f in FIELDS]
    saved = [field._tables for field in used]
    for field in used:
        fields._set(field, "_tables", None)  # as in a fresh process
    fields.enumerate_units.cache_clear()
    fields.discrete_log_table.cache_clear()
    yield
    for field, tables in zip(used, saved):
        fields._set(field, "_tables", tables)
    fields.enumerate_units.cache_clear()
    fields.discrete_log_table.cache_clear()


@pytest.fixture
def tables_built(monkeypatch):
    """The fields whose exp/log tables get built while the test runs."""
    built = []
    real = fields.FiniteField._tabulate

    def tabulate(field):
        built.append(str(field))
        return real(field)

    monkeypatch.setattr(fields.FiniteField, "_tabulate", tabulate)
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


def _arithmetic(field):
    g = field.generator_power(1)
    fields.square_class(fields.unit_inv(fields.unit_mul(g, fields.unit_neg(g))))
    fields.unit_pow(g, -2)
    field.generator_power(77)


def test_no_field_above_the_table_order_is_tabulated(tables_built, monkeypatch):
    above = [fields.parse_field(f) for f in ("Fq(16411)", "Fq(59049)", BIG, "Fq(531441)")]
    for field in above:
        _arithmetic(field)
    assert tables_built == []  # arithmetic asks for no discrete log
    for field in above[:2]:
        g = field.generator_power(1)
        assert [field.literal(g), field.literal(g), field.kmw_coords(g)] == ["g^1", "g^1", (1,)]
    assert tables_built == [str(f) for f in above[:2]]  # once per field, on its first log
    calls = []
    real = fields.FiniteField._mul_packed
    monkeypatch.setattr(fields.FiniteField, "_mul_packed",
                        lambda f, x, y: calls.append(1) or real(f, x, y))
    _arithmetic(above[1])
    assert calls == []  # once tabulated, the arithmetic reads the tables
    assert tables_built == [str(f) for f in above[:2]]


def test_degree_one_transfer_over_a_trivial_extension():
    field = fields.parse_field("Fq(994009)")
    g = fields.multiplicative_generator(field)
    down = transfer_kmw(FiniteExtension(field, field), normalize(mw_symbol(g)))
    assert (down.field, down.value, down.ideal_bit) == (field, g, 1)


@pytest.mark.parametrize("name", [BIG, "Fq(994009)", "Fq(531441)"])
def test_eta_image_needs_no_walk(name, tables_built):
    field = fields.parse_field(name)
    eta_power_image.cache_clear()  # an image kept from an earlier test would hide a walk
    for n, p, q in ((1, 0, 1), (1, 0, 0), (2, 0, 1), (2, 1, 0)):
        query = FiltrationQuery(n, p, q, field)
        assert eta_image_subgroup(query) == tate_filtration(query)
    assert tables_built == []


@pytest.mark.parametrize("output", ["table", "json"])
def test_verify_a_kernel_certificate_over_a_large_prime_power_field(output, tmp_path, capsys,
                                                                     tables_built):
    # over Fq(3^12), -1 = g^265720: [a][-a] = 0 for a = g^5, [a][-1/a] = 0 for a = g^7
    cert = {"field": "Fq(531441)", "start": "[g^5]*[g^265725] + [g^7]*[g^265713]", "end": "0",
            "steps": [{"rule": "R-negself", "position": {"term": 0, "factor": 0},
                       "bindings": {"a": "g^5"}},
                      {"rule": "R-neginv", "position": {"term": 0, "factor": 0},
                       "bindings": {"a": "g^7"}}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["--output", output, "mw-verify", "--derivation", str(path)]) == 0
    out = capsys.readouterr().out
    if output == "json":
        assert json.loads(out)["result"] == {"verified": True, "failed_step": None, "reason": None}
    else:
        assert out == "verified: True\n"
    assert tables_built == []


def test_verify_a_certificate_over_a_large_field(tmp_path, capsys):
    # [2][-1] = 0 by the Steinberg relation, since 1 - 2 = -1
    cert = {"field": BIG, "start": "[2]*[-1]", "end": "0",
            "steps": [{"rule": "R-steinberg", "position": {"term": 0, "factor": 0},
                       "bindings": {"u": "2"}}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["--output", "json", "mw-verify", "--derivation", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verified"] is True
