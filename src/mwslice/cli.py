"""Command-line front end: parse field/expression syntax, compute, verify.

Exit codes: 0 success or verified; 1 verification failure (first
counterexample in the output); 2 parse or domain error.  JSON output is a
single object {command, input, result, certificate?} with sorted keys and no
floating point anywhere; rationals reach it as unit literals, "a/b" strings.

Each subcommand imports the library modules it runs when it runs, so a
process loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.output == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join(table_lines)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _normal_form_json(nf) -> dict:
    out: dict = {"degree": nf.degree, "zero": nf.is_zero}
    if nf.degree == 0:
        from mwslice.forms import GWClass

        out["gw"] = GWClass(nf.field, nf.value).to_json()
    elif nf.degree is not None and nf.degree < 0:
        out["witt"] = list(nf.value)
    elif nf.value:  # the coordinates of a nontrivial K^MW group
        out.update(nf.field.kmw_json(nf.value))
    return out


def cmd_gw(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.forms import gw_of_form, parse_form

    field = parse_field(args.field)
    cls = gw_of_form(parse_form(field, args.form))
    payload = {"command": "gw", "input": {"field": args.field, "form": args.form},
               "result": cls.to_json()}
    emit(args, payload, [f"GW class of {args.form} over {field}: {cls}"])
    return EXIT_OK


def cmd_witt(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.forms import gw_of_form, parse_form, witt_class

    field = parse_field(args.field)
    w = witt_class(gw_of_form(parse_form(field, args.form)))
    payload = {"command": "witt", "input": {"field": args.field, "form": args.form},
               "result": {"field": str(field), "coords": list(w.coords)}}
    emit(args, payload, [f"Witt class of {args.form} over {field}: {w}"])
    return EXIT_OK


def cmd_mw_normalize(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.milnor_witt import normalize, parse_expression

    field = parse_field(args.field)
    expr = parse_expression(field, args.expr)
    nf = normalize(expr)
    payload = {"command": "mw-normalize",
               "input": {"field": args.field, "expr": args.expr},
               "result": _normal_form_json(nf)}
    emit(args, payload, [f"{expr}  ~>  {nf}"])
    return EXIT_OK


def cmd_mw_derive(args) -> int:
    from mwslice.fields import parse_field, parse_unit
    from mwslice.rewriting import derive_extended_steinberg, verify_derivation

    field = parse_field(args.field)
    units = [parse_unit(field, tok) for tok in args.units.split(",")]
    derivation = derive_extended_steinberg(units)
    verified = verify_derivation(derivation)
    payload = {"command": "mw-derive",
               "input": {"field": args.field, "units": args.units},
               "result": derivation.to_json(),
               "certificate": {"verified": bool(verified.ok)}}
    lines = [f"derivation for [{args.units}] over {field}:"]
    for i, step in enumerate(derivation.steps):
        lines.append(f"  {i}: {step.rule} at term {step.term_index}, factor {step.factor_index}")
    lines.append(f"end: 0, verified: {verified.ok}")
    emit(args, payload, lines)
    return EXIT_OK if verified.ok else EXIT_FAILED


def cmd_mw_verify(args) -> int:
    from mwslice.rewriting import derivation_from_json, verify_derivation

    try:
        if args.derivation == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.derivation, encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError("derivation JSON nests too deeply") from None
    derivation = derivation_from_json(data)
    res = verify_derivation(derivation)
    payload = {"command": "mw-verify", "input": {"derivation": args.derivation},
               "result": {"verified": bool(res.ok), "failed_step": res.failed_step,
                          "reason": res.reason}}
    emit(args, payload, [f"verified: {res.ok}" + (f" ({res.reason})" if res.reason else "")])
    return EXIT_OK if res.ok else EXIT_FAILED


def cmd_filtration(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.filtration import FiltrationQuery, reported_level

    field = parse_field(args.field)
    query = FiltrationQuery(args.n, args.p, args.q, field)
    level = reported_level(query)
    payload = {"command": "filtration", "input": query.to_json(),
               "result": {"query": query.to_json(), "N": query.N, "subgroup": level.describe()}}
    lines = [
        f"F^{args.n} pi_({args.p},{args.p}) Sigma^{args.q} S({field})",
        f"  N = {query.N}",
        f"  subgroup: {level}",
    ]
    if args.p == args.q == 0 < args.n and (row := field.ladder_row(args.n, level)):
        lines.append(row)
    emit(args, payload, lines)
    return EXIT_OK


def cmd_graded(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.filtration import FiltrationQuery, graded_piece

    field = parse_field(args.field)
    query = FiltrationQuery(args.n, args.p, args.q, field)
    shape = graded_piece(query)
    payload = {"command": "graded", "input": query.to_json(),
               "result": {"graded": str(shape), "order": shape.order()}}
    emit(args, payload, [f"gr^{args.n} = F^{args.n}/F^{args.n + 1} = {shape}"])
    return EXIT_OK


def cmd_convergence(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.filtration import convergence_check

    field = parse_field(args.field)
    separated, details = convergence_check(field, args.cutoff)
    payload = {"command": "convergence",
               "input": {"field": args.field, "cutoff": args.cutoff},
               "result": {"separated": separated},
               "certificate": {"kind": field.certificate, "details": list(details)}}
    emit(args, payload, [
        f"convergence over {field} (cutoff {args.cutoff}): separated = {separated}",
        f"  certificate: {field.certificate}",
    ])
    return EXIT_OK if separated else EXIT_FAILED


def cmd_moore(args) -> int:
    from mwslice.fields import parse_field
    from mwslice.filtration import moore_filtration

    field = parse_field(args.field)
    desc = moore_filtration(args.ell, field, args.n)
    if desc.is_zero:
        human = "0"
    elif desc.is_full:
        human = f"full GW/{args.ell}"
    else:  # for an odd prime ell, every other level is cyclic of order ell
        assert desc.order_or_index() == ("order", args.ell), desc
        human = f"Z/{args.ell}"
    payload = {"command": "moore",
               "input": {"field": args.field, "ell": args.ell, "n": args.n},
               "result": {"image": human, "subgroup": desc.describe()}}
    emit(args, payload, [f"image of I^{args.n} in GW({field})/{args.ell}: {human}"])
    return EXIT_OK


def cmd_transfer(args) -> int:
    from mwslice.forms import gw_of_form, parse_form
    from mwslice.transfers import parse_extension, projection_formula_check, trace_transfer_gw

    ext = parse_extension(args.ext)
    if args.check == "projection":
        cases, counterexample = projection_formula_check(ext, args.rank_bound)
        ok = counterexample is None
        result = {"check": "projection_formula", "extension": str(ext), "ok": ok, "cases": cases}
        line = f"projection formula over {ext}: ok={ok} ({cases} cases)"
        if not ok:
            result["counterexample"] = counterexample
            line += f"; first counterexample: {counterexample}"
        payload = {"command": "transfer", "input": {"ext": args.ext, "check": "projection"},
                   "result": result}
        emit(args, payload, [line])
        return EXIT_OK if ok else EXIT_FAILED
    if not args.form:
        raise ValueError("transfer needs --form or --check projection")
    cls = gw_of_form(parse_form(ext.top, args.form))
    image = trace_transfer_gw(ext, cls)
    payload = {"command": "transfer",
               "input": {"ext": args.ext, "form": args.form},
               "result": image.to_json()}
    emit(args, payload, [f"Tr_{ext}({args.form}) = {image}"])
    return EXIT_OK


def cmd_check_all(args) -> int:
    from mwslice import checks

    profile = args.profile
    results = checks.run_all(profile)
    lines = [r.line(with_timing=(profile == "full")) for r in results]
    ok = all(r.ok for r in results)
    lines.append(f"{'ALL CHECKS PASSED' if ok else 'CHECKS FAILED'} (profile {profile})")
    payload = {"command": "check-all", "input": {"profile": profile},
               "result": {"passed": ok,
                          "checks": [{"name": r.name, "ok": r.ok, "cases": r.cases,
                                      "detail": r.detail} for r in results]}}
    emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAILED


def _command(sub, name: str, func, summary: str, field: bool = True) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    if field:
        p.add_argument("--field", required=True)
    # accepted after the subcommand too; SUPPRESS keeps pre-subcommand values
    p.add_argument("--output", choices=("table", "json"), default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mw-slice",
        description="Exact Grothendieck-Witt / Milnor-Witt computations and the slice filtration",
    )
    parser.add_argument("--output", choices=("table", "json"), default="table")
    parser.add_argument("--out", help="also write the output to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _command(sub, "gw", cmd_gw, "GW class of a diagonal form")
    p.add_argument("--form", required=True, help='form literal, e.g. "<1,-1>"')
    p = _command(sub, "witt", cmd_witt, "Witt class of a diagonal form")
    p.add_argument("--form", required=True)
    p = _command(sub, "mw-normalize", cmd_mw_normalize, "normal form of a Milnor-Witt expression")
    p.add_argument("--expr", required=True, help='e.g. "eta*(2 + eta*[-1])"')
    p = _command(sub, "mw-derive", cmd_mw_derive, "certified extended-Steinberg derivation")
    p.add_argument("--units", required=True, help="comma-separated units summing to 1")
    p = _command(sub, "mw-verify", cmd_mw_verify, "replay a serialized derivation", field=False)
    p.add_argument("--derivation", required=True, help="path to JSON, or - for stdin")
    for name, func, summary in (("filtration", cmd_filtration, "Tate filtration subgroup"),
                             ("graded", cmd_graded, "graded piece F^n/F^(n+1)")):
        p = _command(sub, name, func, summary)
        for flag in ("--n", "--p", "--q"):
            p.add_argument(flag, type=int, required=True)
    p = _command(sub, "convergence", cmd_convergence, "separatedness of the filtration")
    p.add_argument("--cutoff", type=int, default=12)
    p = _command(sub, "moore", cmd_moore, "mod-ell Moore spectrum filtration")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = _command(sub, "transfer", cmd_transfer, "trace transfer of a form, or property checks",
                 field=False)
    p.add_argument("--ext", required=True, help='extension literal, e.g. "Fq(9)/Fq(3)"')
    p.add_argument("--form", help="form over the top field")
    p.add_argument("--check", choices=("projection",))
    p.add_argument("--rank-bound", type=int, default=4)
    p = _command(sub, "check-all", cmd_check_all, "run the acceptance suite", field=False)
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
