"""Output checks, run outside the timed region.

Each report is checked against the JSON schema shipped with ratprime and
against facts the generator knows or can recompute with its own arithmetic
(corpus.py), never with ratprime's:

- a constructed composite never gets a PrimeBy* verdict, nor an exhaustive
  answer without a witness;
- every witness (g, h) recomposes to the input, by cross-multiplication;
- the reported critical resultant, evaluated at a random point, equals the
  value recomputed there from the input modulo a large prime;
- an F_p value table is the input's, its class follows from the table, and
  the zero-divisor witness vanishes on the input's image.

For the default seed, each job's signature (verdict kind, digest of the
D[f - t] coefficients, decomposition outcome, ring class) must also match
the golden record in golden.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import corpus as C

GOLDEN = Path(__file__).with_name("golden.json")
CHECK_PRIME = 2 ** 61 - 1


class _Parser:
    """The CLI's expression grammar, evaluated to an unreduced
    (numerator, denominator) pair with the generator's arithmetic."""

    def __init__(self, text, p):
        self.text = text.replace(" ", "")
        self.pos = 0
        self.p = p

    def parse(self):
        value = self.expr()
        if self.pos != len(self.text):
            raise ValueError(f"trailing text in {self.text!r}")
        return value

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            sign = 1 if op == "+" else -1
            value = (C.add(C.mul(value[0], rhs[1], self.p),
                           C.scale(C.mul(rhs[0], value[1], self.p), sign, self.p), self.p),
                     C.mul(value[1], rhs[1], self.p))
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            if op == "*":
                value = (C.mul(value[0], rhs[0], self.p), C.mul(value[1], rhs[1], self.p))
            else:
                value = (C.mul(value[0], rhs[1], self.p), C.mul(value[1], rhs[0], self.p))
        return value

    def factor(self):
        value = self.base()
        if self.peek() == "^":
            self.pos += 1
            e = self.integer()
            value = (C.power(value[0], e, self.p), C.power(value[1], e, self.p))
        return value

    def integer(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected an integer in {self.text!r}")
        return int(self.text[start:self.pos])

    def base(self):
        c = self.peek()
        if c == "x":
            self.pos += 1
            return [0, 1], [1]
        if c == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise ValueError(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return value
        return C.norm([self.integer()], self.p), [1]


def parse(text, p):
    num, den = _Parser(text, p).parse()
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return num, den


def digest(values) -> str:
    return hashlib.sha256("|".join(map(str, values)).encode()).hexdigest()[:16]


def _witness_problems(job, g_text, h_text):
    p = job.p
    g, h = C.reduce(parse(g_text, p), p), C.reduce(parse(h_text, p), p)
    if C.degree(g) < 2 or C.degree(h) < 2:
        return [f"witness factor of degree < 2: g = {g_text}, h = {h_text}"]
    top, bottom = C.rat_compose(g, h, p)
    num, den = job.f
    if C.mul(top, den, p) != C.mul(num, bottom, p):
        return [f"witness does not recompose: g = {g_text}, h = {h_text}"]
    return []


def _critical_problems(job, coefficients, rng):
    q = job.p or CHECK_PRIME
    expected = None
    while expected is None:
        t0 = rng.randrange(q)
        expected = C.critical_resultant_at(job.f, t0, q)
    reported = C.evaluate([C.to_residue(Fraction(c), q) for c in coefficients], t0, q)
    if reported != expected:
        return [f"critical resultant at t = {t0} is {reported}, expected {expected} mod {q}"]
    return []


def _fq_problems(job, section):
    p = job.p
    table = [C.evaluate(list(job.f[0]), a, p) for a in range(p)]
    if section["table"] != table:
        return ["value table differs from the input's"]
    if not any(table):
        expected = "zero"
    elif len(set(table)) == p:
        expected = "unit"
    else:
        expected = "zero-divisor"
    if section["classification"] != expected:
        return [f"class {section['classification']}, expected {expected}"]
    if expected != "zero-divisor":
        return []
    psi = parse(section["witness"], p)[0]
    psi_table = [C.evaluate(psi, a, p) for a in range(p)]
    if not any(psi_table) or any(psi_table[v] for v in table):
        return ["zero-divisor witness does not annihilate the input"]
    if section["witness_composes_to_zero"] is not True:
        return ["witness_composes_to_zero is not true"]
    return []


def problems(job, code, report, validator, rng) -> list[str]:
    """Everything wrong with one job's exit code and report."""
    if code != 0 or report.get("error") is not None:
        return [f"exit code {code}, error {report.get('error')}"]
    errors = [e.message for e in validator.iter_errors(report)]
    if errors:
        return [f"schema: {e}" for e in errors[:3]]
    out = []
    verdict, oracle = report["verdict"], report["oracle"]
    if job.command in ("analyze", "resultant", "decompose"):
        if report["degree"] != C.degree(job.f):
            out.append(f"degree {report['degree']}, expected {C.degree(job.f)}")
    if job.command in ("analyze", "resultant"):
        coefficients = report["critical_values"]["disc_coefficients"]
        if coefficients is None:
            out.append("no critical resultant reported")
        else:
            out += _critical_problems(job, coefficients, rng)
    if job.composite and (verdict["kind"] or "").startswith("PrimeBy"):
        out.append(f"constructed composite certified prime: {verdict['kind']}")
    if verdict["witness_g"] is not None:
        out += _witness_problems(job, verdict["witness_g"], verdict["witness_h"])
    if job.command == "decompose":
        if (oracle["status"] == "witness") != (verdict["witness_g"] is not None):
            out.append(f"oracle status {oracle['status']} disagrees with the witness")
        if job.composite and verdict["witness_g"] is None and oracle["exhaustive"]:
            out.append("constructed composite reported exhaustively absent")
    if job.command == "fq":
        out += _fq_problems(job, report["fq"])
    return out


def signature(job, report) -> str:
    """What the golden record pins for one job."""
    if job.command == "decompose":
        if report["verdict"]["witness_g"] is not None:
            return "witness"
        return "absent" if report["oracle"]["exhaustive"] else "open"
    if job.command == "fq":
        fq = report["fq"]
        return f"{fq['classification']}:{digest([fq['table'], fq['reduced'], fq['witness']])}"
    return (f"{report['verdict']['kind']}:"
            f"{digest(report['critical_values']['disc_coefficients'] or [])}")


def golden_key(workload, smoke):
    return f"{workload}/smoke" if smoke else workload


def golden_problems(key, signatures) -> dict[int, str]:
    """Mismatches against the golden record, by job index.  A budget-bounded
    search ("open") in the record may become conclusive; nothing else may
    change."""
    golden = json.loads(GOLDEN.read_text())[key]
    if len(golden) != len(signatures):
        return {0: f"golden record has {len(golden)} jobs, corpus has {len(signatures)}"}
    return {i: f"signature {got}, golden {want}"
            for i, (want, got) in enumerate(zip(golden, signatures))
            if want != got and want != "open"}


def validator():
    import jsonschema  # here, so the client's measured peak memory excludes it
    root = Path(__file__).resolve().parent.parent
    schema = json.loads((root / "src" / "ratprime" / "report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def check_all(jobs, first_outputs, seed) -> tuple[list[int], dict]:
    """Check each job's first report; return the indices of failed jobs and
    a description of each failure, plus the job signatures."""
    rng = random.Random(f"check:{seed}")
    v = validator()
    failed = {}
    signatures = []
    for i, (job, (code, text)) in enumerate(zip(jobs, first_outputs)):
        try:
            report = json.loads(text)
            found = problems(job, code, report, v, rng)
            signatures.append(signature(job, report) if not found else "failed")
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            found = [f"unreadable report: {exc!r}"]
            signatures.append("failed")
        if found:
            failed[i] = found
    return failed, signatures
