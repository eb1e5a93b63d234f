"""Every argv ends in a documented exit code (0, 1 or 2) without a traceback."""

import contextlib
import io
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwslice.cli import main

FIELDS = ["R", "C", "Fq(3)", "Fq(5)", "Fq(9)", "Fq(25)"]

ints = st.integers(min_value=-10**9, max_value=10**9)
fields = st.sampled_from(FIELDS)
unit_literals = st.one_of(ints.map(str), ints.map(lambda k: f"g^{k}"),
                          st.tuples(ints, ints).map(lambda t: f"{t[0]}/{t[1]}"))
forms = st.lists(unit_literals, max_size=4).map(lambda us: f"<{','.join(us)}>")
expressions = st.lists(
    st.one_of(ints.map(lambda k: str(abs(k))), unit_literals.map(lambda u: f"[{u}]"),
              st.just("eta"), st.sampled_from(["(", ")", "-", "+"])),
    min_size=1, max_size=6,
).map("*".join)
derivations = st.one_of(
    st.sampled_from(['[1]', '{"result": [1]}', '{}', 'not json',
                     '{"field": "Fq(5)", "start": "[g^1]*[g^2]", "steps": []}']),
    st.tuples(fields, ints).map(
        lambda t: f'{{"field": "{t[0]}", "start": "{t[1]}", "end": "0", "steps": []}}'),
    st.just("[" * 100_000 + "]" * 100_000),  # deeper than the JSON decoder can recurse
)


def _flags(**kw):
    return st.tuples(*kw.values()).map(
        lambda vals: [x for name, v in zip(kw, vals) for x in (f"--{name}", str(v))])


def _with_field(name, **kw):
    return st.tuples(fields, _flags(**kw)).map(lambda t: [name, "--field", t[0], *t[1]])


argvs = st.one_of(
    _with_field("gw", form=forms),
    _with_field("witt", form=forms),
    _with_field("mw-normalize", expr=expressions),
    _with_field("mw-derive", units=st.lists(unit_literals, min_size=1, max_size=3).map(",".join)),
    _with_field("filtration", n=ints, p=ints, q=ints),
    _with_field("graded", n=ints, p=ints, q=ints),
    _with_field("convergence", cutoff=ints),
    _with_field("moore", ell=ints, n=ints),
    st.tuples(fields, fields, forms).map(
        lambda t: ["transfer", "--ext", f"{t[0]}/{t[1]}", "--form", t[2]]),
    st.tuples(fields, fields, ints).map(
        lambda t: ["transfer", "--ext", f"{t[0]}/{t[1]}", "--check", "projection",
                   "--rank-bound", str(t[2])]),
    st.just(["mw-verify", "--derivation", "-"]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs, output=st.sampled_from(["table", "json"]), stdin=derivations)
def test_every_argv_exits_0_1_or_2_without_traceback(argv, output, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--output", output, *argv])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
