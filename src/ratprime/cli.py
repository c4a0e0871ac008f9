"""Command-line interface: analyze, decompose, fq and resultant subcommands.

Every run produces a report with a fixed key set (see report_schema.json);
inapplicable sections carry nulls so the layout never depends on the input.
Exit codes: 0 success, 2 expression syntax errors, 3 precondition
violations.  With --json the report (or the error) is printed as a single
JSON document on one line, `json.dumps(report)`; coefficients appear as
decimal strings, never floats.  argv that names a subcommand goes straight
to that subcommand's parser; anything else goes to the top-level parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import PreconditionError
from .fields import PrimeField, parse_field
from .fqring import FqClass, classify, reduce_ring, ring_compose, zero_divisor_witness
from .oracle import OracleBudget, SearchResult, decompose
from .parser import ParseError, format_coeff, format_poly, format_ratfun, parse_expression
from .primality import CompositeWitness, Verdict, analyze
from .ratfun import RatFun
from .resultants import CriticalValueReport, critical_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _blank_report(command: str) -> dict:
    return {
        "report_version": "1",
        "command": command,
        "input": None,
        "field": None,
        "degree": None,
        "ord_infinity": None,
        "critical_values": {
            "disc_coefficients": None,
            "simple_count": None,
            "nonzero_simple_count": None,
            "zero_multiplicity": None,
            "degenerate": False,
        },
        "verdict": {
            "kind": None,
            "scope": None,
            "details": {"degree": None, "prime": None, "d": None,
                        "ord_infinity": None, "valency": None, "count": None},
            "witness_g": None,
            "witness_h": None,
            "notes": None,
            "description": None,
        },
        "fq": {
            "p": None,
            "classification": None,
            "table": None,
            "reduced": None,
            "witness": None,
            "witness_composes_to_zero": None,
        },
        "oracle": {"status": "unused", "exhaustive": None, "candidates": None},
        "timing_ms": None,
        "error": None,
    }


def _read_function(args, report: dict, requirement: str, min_degree: int = 1) -> RatFun:
    """Parse EXPR over --field, reject it with `requirement` unless its degree
    is at least min_degree, and record its field, degree and ord_infinity."""
    field = parse_field(args.field)
    f = parse_expression(args.expr, field)
    if f.is_zero or f.is_constant or f.degree < min_degree:
        raise PreconditionError(requirement)
    report["field"] = repr(field)
    report["degree"] = f.degree
    report["ord_infinity"] = f.ord_infinity
    return f


def _fill_critical_section(report: dict, critical: CriticalValueReport | None) -> None:
    section = report["critical_values"]
    if critical is None:
        section["degenerate"] = True
        return
    section["disc_coefficients"] = [format_coeff(c) for c in critical.disc_t.coeffs]
    section["simple_count"] = critical.simple_count
    section["nonzero_simple_count"] = critical.nonzero_simple_count
    section["zero_multiplicity"] = critical.zero_multiplicity


def _fill_verdict(report: dict, verdict: Verdict) -> None:
    v = report["verdict"]
    v["kind"] = verdict.kind
    v["scope"] = verdict.scope
    v["description"] = verdict.describe()
    details = v["details"]
    for key in details:
        if hasattr(verdict, key):
            details[key] = getattr(verdict, key)
    if isinstance(verdict, CompositeWitness):
        v["witness_g"] = format_ratfun(verdict.g)
        v["witness_h"] = format_ratfun(verdict.h)
    if verdict.notes:
        v["notes"] = list(verdict.notes)


def _fill_oracle_section(report: dict, search: SearchResult | None) -> None:
    """An absent search leaves the status "unused"."""
    if search is None:
        return
    section = report["oracle"]
    section["status"] = "witness" if search.witness else "exhausted"
    section["exhaustive"] = search.exhaustive
    section["candidates"] = search.candidates


def _budget(args) -> OracleBudget | None:
    """The --oracle-budget cap, validated; None when the flag is absent."""
    if args.oracle_budget is None:
        return None
    return OracleBudget(candidate_cap=args.oracle_budget)


def _cmd_analyze(args, report: dict) -> int:
    f = _read_function(args, report, "analysis needs degree >= 2", 2)
    verdict = analyze(f, _budget(args))
    _fill_critical_section(report, verdict.critical)
    _fill_verdict(report, verdict)
    _fill_oracle_section(report, verdict.search)
    return EXIT_OK


def _cmd_decompose(args, report: dict) -> int:
    f = _read_function(args, report, "decomposition needs degree >= 2", 2)
    search = decompose(f, _budget(args) or OracleBudget())
    if search.witness:
        _fill_verdict(report, CompositeWitness(*search.witness))
    _fill_oracle_section(report, search)
    return EXIT_OK


def _cmd_fq(args, report: dict) -> int:
    if args.p is not None:
        field = PrimeField(args.p)
        if args.field is not None and parse_field(args.field) != field:
            raise PreconditionError(f"--field {args.field} and --p {args.p} name "
                                    f"different fields")
    elif args.field not in (None, "Q"):
        field = parse_field(args.field)
    else:
        raise PreconditionError("fq needs a prime field: pass --p P or --field F<p>")
    f = parse_expression(args.expr, field)
    if not f.is_polynomial:
        raise PreconditionError("fq classifies polynomial functions only")
    phi = reduce_ring(f.numerator)
    kind = classify(phi)
    section = report["fq"]
    report["field"] = repr(field)
    section["p"] = field.p
    section["classification"] = kind.value
    section["table"] = list(phi.table)
    section["reduced"] = format_poly(phi.reduced)
    if kind is FqClass.ZERO_DIVISOR:
        psi = zero_divisor_witness(phi)
        section["witness"] = format_poly(psi.reduced)
        section["witness_composes_to_zero"] = ring_compose(psi, phi).is_zero
    return EXIT_OK


def _cmd_resultant(args, report: dict) -> int:
    f = _read_function(args, report, "resultant needs a nonconstant function")
    if f.is_polynomial and f.degree < 2:
        raise PreconditionError("disc-in-t needs degree >= 2")
    _fill_critical_section(report, critical_report(f))
    return EXIT_OK


def _print_text(report: dict, stream) -> None:
    print(f"command: {report['command']}", file=stream)
    if report["input"] is not None:
        print(f"input: {report['input']}", file=stream)
    if report["field"] is not None:
        print(f"field: {report['field']}", file=stream)
    if report["degree"] is not None:
        print(f"degree: {report['degree']}", file=stream)
    if report["ord_infinity"] is not None:
        print(f"ord_infinity: {report['ord_infinity']}", file=stream)
    cv = report["critical_values"]
    if cv["degenerate"]:
        print("critical values: degenerate (derivative vanishes identically)", file=stream)
    elif cv["disc_coefficients"] is not None:
        print(f"disc in t (ascending): {cv['disc_coefficients']}", file=stream)
        print(f"simple critical values: {cv['simple_count']}  "
              f"non-zero simple: {cv['nonzero_simple_count']}  "
              f"multiplicity of t=0: {cv['zero_multiplicity']}", file=stream)
    v = report["verdict"]
    if v["kind"] is not None:
        print(f"verdict: {v['kind']} -- {v['description']}", file=stream)
        if v["witness_g"] is not None:
            print(f"  g = {v['witness_g']}", file=stream)
            print(f"  h = {v['witness_h']}", file=stream)
        if v["notes"]:
            for note in v["notes"]:
                print(f"  note: {note}", file=stream)
    fq = report["fq"]
    if fq["classification"] is not None:
        print(f"classification over F_{fq['p']}: {fq['classification']}", file=stream)
        print(f"value table: {fq['table']}", file=stream)
        print(f"reduced representative: {fq['reduced']}", file=stream)
        if fq["witness"] is not None:
            print(f"zero-divisor witness: {fq['witness']}", file=stream)
    print(f"oracle: {report['oracle']['status']}", file=stream)
    if report["timing_ms"] is not None:
        print(f"time: {report['timing_ms']:.1f} ms", file=stream)


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="ratprime",
        description="Exact primality analysis of polynomials and rational "
                    "functions under composition.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, helptext in (
            ("analyze", "run the certificate tests (and optionally the oracle)"),
            ("decompose", "run the decomposition oracle only"),
            ("fq", "classify a polynomial function over F_p"),
            ("resultant", "print the discriminant-in-t / critical resultant")):
        cmd = commands[name] = sub.add_parser(name, help=helptext)
        cmd.add_argument("expr", help="expression, e.g. '(x+1)^4/x^3'")
        # fq's --field and --p have no default, so an explicit Q beside --p is
        # a conflict and an explicit --p 0 is not prime
        fq = name == "fq"
        cmd.add_argument("--field", default=None if fq else "Q",
                         help="F<p>, or pass --p" if fq else "Q (default) or F<p>")
        cmd.add_argument("--json", action="store_true", help="emit a JSON report")
        if name in ("analyze", "decompose"):
            cmd.add_argument("--oracle-budget", type=int, default=None, metavar="N",
                             help="candidate cap for the decomposition oracle")
        if fq:
            cmd.add_argument("--p", type=int, default=None, help="field size (prime)")
    return parser, commands


# one parser set per process: its objects form reference cycles, and a parser
# per call would leave them to the cyclic collector after every job
_PARSER, _COMMANDS = _build_parsers()


def _parse_args(argv) -> argparse.Namespace:
    """What `_PARSER.parse_args(argv)` returns, by the subcommand's own parser
    when argv[0] names one (the top-level parser would hand it the rest of
    argv anyway), with what it leaves unrecognized reported by the top-level
    parser, as `parse_args` reports it."""
    if argv is None:
        argv = sys.argv[1:]
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return _PARSER.parse_args(argv)
    args, extras = cmd.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


_HANDLERS = {
    "analyze": _cmd_analyze,
    "decompose": _cmd_decompose,
    "fq": _cmd_fq,
    "resultant": _cmd_resultant,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    report = _blank_report(args.command)
    report["input"] = args.expr
    start = time.perf_counter()
    code = EXIT_OK
    try:
        code = _HANDLERS[args.command](args, report)
    except ParseError as exc:
        code = EXIT_PARSE
        report["error"] = {"kind": "parse-error", "message": str(exc),
                           "exit_code": code}
    except (PreconditionError, ZeroDivisionError) as exc:
        code = EXIT_PRECONDITION
        report["error"] = {"kind": "precondition-violation", "message": str(exc),
                           "exit_code": code}
    report["timing_ms"] = (time.perf_counter() - start) * 1000.0
    try:
        if args.json:
            print(json.dumps(report))
        elif report["error"] is not None:
            print(f"error: {report['error']['message']}", file=sys.stderr)
        else:
            _print_text(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head -1`): send what is left of stdout to
        # devnull, so the flush at exit raises no second BrokenPipeError, and
        # keep the command's own exit code (Python docs, signal, "Note on
        # SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
