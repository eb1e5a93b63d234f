"""The in-process workloads: seeded inputs with expected answers, set-up, requests.

Each workload has

* ``stream(seed)``: the endless request stream, as JSON-compatible dicts.
  The benchmark takes it in chunks, off the clock, before the requests of
  each chunk are sent.  Every request carries its expected answer under
  ``"expect"``, fixed by the generator from facts of its own (the reference
  arithmetic in ``refarith`` or the paper's identities), never by calling
  the library;
* ``setup()``: the library set-up the requests rely on (fields, generator
  search, unit enumeration, discrete-log tables, first-call caches);
* ``request(state, inp)``: one request through the library's public
  functions, returning plain values that are compared with ``"expect"``.

The library is reached through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import random

from mwslice import fields, filtration, forms, milnor_witt, rewriting, transfers
from refarith import RefField

# -- filtration_grid ----------------------------------------------------------

GRID_FIELDS = ("R", "C", "Fq(3)", "Fq(5)", "Fq(7)", "Fq(9)", "Fq(25)", "Fq(27)")
CLOSURE_BASES = ("Fq(3)", "Fq(5)")
GRID_BOUND = 6
CLOSURE_BOUND = 3
CLOSURE_DEGREE = 2
GRID_COUNT = 20000


def generate_filtration_grid(seed: int, count: int = GRID_COUNT) -> list[dict]:
    """(n, p, q) queries; every tenth also asks for the transfer closure.

    The expected answer is the paper's identity at every point: the level in
    degree coordinates equals the eta-power image, the next level lies in it,
    the level is invariant under the diagonal shift, the graded piece is 0
    exactly when the two levels agree, and the transfer closure equals the
    level.
    """
    rng = random.Random(f"filtration_grid:{seed}")
    out = []
    for i in range(count):
        closure = i % 10 == 9
        labels, bound = (CLOSURE_BASES, CLOSURE_BOUND) if closure else (GRID_FIELDS, GRID_BOUND)
        field = rng.choice(labels)
        n, p, q = (rng.randint(-bound, bound) for _ in range(3))
        shift = rng.choice((-2, -1, 1, 2))
        expect = [True] * (5 if closure else 4)
        out.append({"field": field, "n": n, "p": p, "q": q, "shift": shift,
                    "closure": closure, "expect": expect})
    return out


def stream_filtration_grid(seed: int):
    """GRID_COUNT queries, over and over: the grid has only 17,576 points,
    so a long run asks some of them again anyway."""
    return itertools.cycle(generate_filtration_grid(seed))


def setup_filtration_grid() -> dict:
    state = {label: fields.parse_field(label) for label in GRID_FIELDS}
    # first-call work: unit tables, extension embeddings, eta generators
    for label in GRID_FIELDS:
        for n, p, q in ((2, 0, 1), (2, 0, 0), (2, 1, 0)):
            request_filtration_grid(state, {"field": label, "n": n, "p": p, "q": q,
                                            "shift": 1, "closure": label in CLOSURE_BASES})
    return state


def request_filtration_grid(state: dict, inp: dict) -> list:
    field, n, p, q, r = state[inp["field"]], inp["n"], inp["p"], inp["q"], inp["shift"]
    query = filtration.FiltrationQuery(n, p, q, field)
    tate = filtration.tate_filtration(query)
    level = filtration.filtration_in_degree_coords(query)
    nxt = filtration.filtration_in_degree_coords(filtration.FiltrationQuery(n + 1, p, q, field))
    graded = filtration.graded_piece(query)
    shifted = filtration.tate_filtration(filtration.FiltrationQuery(n + r, p + r, q + r, field))
    eta = filtration.eta_image_subgroup(query)
    out = [level == eta, nxt <= level, shifted == tate, (str(graded) == "0") == (nxt == level)]
    if inp["closure"]:
        out.append(transfers.transfer_closure_subgroup(field, q, p, n, CLOSURE_DEGREE) == tate)
    return out


# -- bigfield_certs -----------------------------------------------------------

BIG_FIELDS = {"Fq(10007)": 10007, "Fq(2187)": 2187}
BIG_SLOTS = (("gw", "Fq(10007)"), ("normalize", "Fq(2187)"), ("cert", "Fq(10007)"),
             ("gw", "Fq(2187)"), ("normalize", "Fq(10007)"), ("cert", "Fq(2187)"))
MAX_RANK = 8
MAX_TERMS = 4
MAX_TUPLE = 8


def witt_coords(q: int, rank: int, disc_dev: int) -> list[int]:
    """W(F_q) coordinates of a form: Z/4 for q = 3 mod 4, else Z/2 + Z/2."""
    if q % 4 == 3:
        return [(rank + 2 * disc_dev) % 4]
    return [rank % 2, disc_dev]


def _signed_sum(terms: list[tuple[int, str]]) -> str:
    out = ""
    for c, atom in terms:
        word = atom if abs(c) == 1 else f"{abs(c)}*{atom}"
        if not out:
            out = word if c > 0 else f"-{word}"
        else:
            out += f" + {word}" if c > 0 else f" - {word}"
    return out


def stream_bigfield_certs(seed: int):
    """A fixed rotation of form, normalize and certificate requests, endless.

    The exponents are drawn afresh for every request, so however many
    requests fit in a run, one repeats only by chance, as in real traffic.

    All units are g^k literals with drawn exponents k.  Expected answers:
    a form's disc_dev is sum(k) mod 2 (g is a nonsquare); the normal form of
    sum c_i [g^k_i] is the unit g^E, E = sum c_i k_i mod q - 1, with ideal bit
    E mod 2; a certificate for a sum-to-one tuple verifies, starts at the
    product of the given symbols and ends at 0.
    """
    rng = random.Random(f"bigfield_certs:{seed}")
    refs = {label: RefField(q) for label, q in BIG_FIELDS.items()}
    for i in itertools.count():
        kind, label = BIG_SLOTS[i % len(BIG_SLOTS)]
        ref = refs[label]
        order = ref.q - 1
        if kind == "gw":
            ks = [rng.randrange(order) for _ in range(rng.randint(1, MAX_RANK))]
            dd = sum(ks) % 2
            text = "<" + ",".join(f"g^{k}" for k in ks) + ">"
            expect = [len(ks), dd, witt_coords(ref.q, len(ks), dd)]
        elif kind == "normalize":
            ks = rng.sample(range(order), rng.randint(1, MAX_TERMS))
            cs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in ks]
            text = _signed_sum([(c, f"[g^{k}]") for c, k in zip(cs, ks)])
            e = sum(c * k for c, k in zip(cs, ks)) % order
            expect = [1, [e], e % 2]
        else:
            length = rng.randint(2, MAX_TUPLE)
            while True:
                ks = [rng.randrange(order) for _ in range(length - 1)]
                rest = ref.one_minus_sum(ks)
                if rest:
                    ks.append(ref.log[rest])
                    break
            text = ",".join(f"g^{k}" for k in ks)
            expect = [True, "*".join(f"[g^{k}]" for k in ks), "0"]
        yield {"kind": kind, "field": label, "text": text, "expect": expect}


def setup_bigfield_certs() -> dict:
    state = {}
    for label in BIG_FIELDS:
        field = fields.parse_field(label)
        fields.discrete_log_table(field)  # generator search and unit enumeration
        state[label] = field
    return state


def request_bigfield_certs(state: dict, inp: dict) -> list:
    field, kind, text = state[inp["field"]], inp["kind"], inp["text"]
    if kind == "gw":
        cls = forms.gw_of_form(forms.parse_form(field, text))
        return [cls.rank, cls.disc_dev, list(forms.witt_class(cls).coords)]
    if kind == "normalize":
        nf = milnor_witt.normalize(milnor_witt.parse_expression(field, text))
        return [nf.degree, list(nf.coords()), nf.ideal_bit]
    units = [fields.parse_unit(field, tok) for tok in text.split(",")]
    data = rewriting.derive_extended_steinberg(units).to_json()
    replayed = rewriting.derivation_from_json(json.loads(json.dumps(data)))
    return [rewriting.verify_derivation(replayed).ok, data["start"], data["end"]]


IN_PROCESS = {
    "filtration_grid": (stream_filtration_grid, setup_filtration_grid, request_filtration_grid),
    "bigfield_certs": (stream_bigfield_certs, setup_bigfield_certs, request_bigfield_certs),
}
