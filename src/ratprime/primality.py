"""Primality certificates for polynomials and rational functions.

A function is prime (over a stated field) when it admits no composition
f = g o h with both factors of degree at least 2.  Every certificate here
is a sufficient condition only, so the aggregate analyzer falls back to a
decomposition-oracle search and, failing that, returns an honest Unknown.

Scopes matter: most certificates prove primality over the algebraic
closure, but the simple-critical-value count proves it over the base field
only, and the two must never be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import ClassVar

from .errors import DegenerateDerivativeError, PreconditionError
from .numutil import greatest_proper_divisor, is_prime, prime_factors
from .oracle import OracleBudget, SearchResult, decompose
from .poly import Poly
from .ratfun import RatFun
from .resultants import (CriticalValueReport, critical_report, critical_values, disc_in_t,
                         rat_resultant_in_t)
from .squarefree import squarefree_decompose

SCOPE_BASE = "base-field"
SCOPE_CLOSURE = "closure"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an analysis.  Beyond its own fields, every verdict carries
    the notes, the critical-value report and the oracle search that produced
    it; none of the three takes part in equality."""

    scope: ClassVar[str | None] = None
    notes: tuple[str, ...] = dc_field(default=(), compare=False, kw_only=True)
    critical: CriticalValueReport | None = dc_field(default=None, compare=False,
                                                    repr=False, kw_only=True)
    search: SearchResult | None = dc_field(default=None, compare=False,
                                           repr=False, kw_only=True)

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def is_prime_certificate(self) -> bool:
        return self.kind.startswith("PrimeBy")


@dataclass(frozen=True)
class PrimeByDegree(Verdict):
    degree: int
    scope = SCOPE_CLOSURE

    def describe(self) -> str:
        return f"degree {self.degree} is prime, so the function is prime over the closure"


@dataclass(frozen=True)
class PrimeByOrdInfinity(Verdict):
    prime: int
    d: int
    ord_infinity: int
    scope = SCOPE_CLOSURE

    def describe(self) -> str:
        return (f"order at infinity {self.ord_infinity} has prime factor "
                f"{self.prime} > d = {self.d}; prime over the closure")


@dataclass(frozen=True)
class PrimeByValency(Verdict):
    valency: int
    d: int
    scope = SCOPE_CLOSURE

    def describe(self) -> str:
        return (f"some point has valency {self.valency}, a prime exceeding "
                f"d = {self.d}; prime over the closure")


@dataclass(frozen=True)
class PrimeBySimpleCriticalValues(Verdict):
    count: int
    d: int
    scope = SCOPE_BASE

    def describe(self) -> str:
        return (f"{self.count} simple critical values >= d = {self.d}; "
                f"prime over the base field")


@dataclass(frozen=True)
class PrimeByNonzeroSimpleCriticalValues(Verdict):
    count: int
    d: int
    scope = SCOPE_CLOSURE

    def describe(self) -> str:
        return (f"{self.count} non-zero simple critical values >= 2d = "
                f"{2 * self.d}; prime over the closure")


@dataclass(frozen=True)
class CompositeWitness(Verdict):
    g: RatFun
    h: RatFun

    def describe(self) -> str:
        return (f"composite: witnessed by factors of degrees "
                f"{self.g.degree} and {self.h.degree}")


@dataclass(frozen=True)
class Unknown(Verdict):
    def describe(self) -> str:
        return "no certificate applies and no witness was found"


def _require_analyzable(f: RatFun) -> int:
    if f.is_zero or f.is_constant:
        raise PreconditionError("primality needs a nonconstant function")
    deg = f.degree
    if deg < 2:
        raise PreconditionError("degree-1 functions are units, not prime or composite")
    return deg


def degree_certificate(f: RatFun) -> PrimeByDegree | None:
    deg = _require_analyzable(f)
    return PrimeByDegree(deg) if is_prime(deg) else None


def ord_infinity_certificate(f: RatFun) -> PrimeByOrdInfinity | None:
    deg = _require_analyzable(f)
    ord_f = f.ord_infinity
    if ord_f == 0:
        return None
    d = greatest_proper_divisor(deg)
    qualifying = [p for p in prime_factors(ord_f) if p > d]
    if not qualifying:
        return None
    return PrimeByOrdInfinity(prime=max(qualifying), d=d, ord_infinity=ord_f)


def valency_certificate(f: Poly) -> PrimeByValency | None:
    """Certificate from a high-valency point, located through the squarefree
    multiplicities of f' (a multiplicity-m factor marks points of valency
    m + 1; no root extraction needed).

    In characteristic p the multiplicity <-> valency correspondence can
    break, so a claim is made only when p does not divide m + 1 and m < p,
    which pins the valency exactly.
    """
    if f.degree < 2:
        raise PreconditionError("needs degree >= 2")
    fp = f.derivative()
    if fp.is_zero:
        raise DegenerateDerivativeError("derivative vanishes identically")
    d = greatest_proper_divisor(f.degree)
    p = f.field.char
    for factor, mult in squarefree_decompose(fp).parts:
        if factor.degree < 1:
            continue
        v = mult + 1
        if p and (v % p == 0 or mult >= p):
            continue
        if is_prime(v) and v > d:
            return PrimeByValency(valency=v, d=d)
    return None


def simple_critical_certificate(f: Poly,
                                report: CriticalValueReport | None = None
                                ) -> PrimeBySimpleCriticalValues | None:
    """At least d simple critical values force primality over the base field."""
    if f.degree < 2:
        raise PreconditionError("needs degree >= 2")
    if report is None:
        report = critical_values(disc_in_t(f))
    d = greatest_proper_divisor(f.degree)
    if report.simple_count >= d:
        return PrimeBySimpleCriticalValues(count=report.simple_count, d=d)
    return None


def nonzero_simple_critical_certificate(f: RatFun,
                                        report: CriticalValueReport | None = None
                                        ) -> PrimeByNonzeroSimpleCriticalValues | None:
    """At least 2d non-zero simple critical values force primality over the
    closure (critical values read off Res_x(f - t, f'))."""
    deg = _require_analyzable(f)
    if report is None:
        report = critical_values(rat_resultant_in_t(f))
    d = greatest_proper_divisor(deg)
    if report.nonzero_simple_count >= 2 * d:
        return PrimeByNonzeroSimpleCriticalValues(count=report.nonzero_simple_count, d=d)
    return None


def _run_certificates(f: RatFun) -> tuple[list[Verdict], list[str],
                                            CriticalValueReport | None]:
    """Evaluate every certificate in the fixed order; collect all that fire,
    one note per failed or degenerate hypothesis, and the critical-value
    report they share."""
    deg = f.degree
    d = greatest_proper_divisor(deg)
    fired: list[Verdict] = []
    failures: list[str] = []

    def record(cert, failure):
        if cert is not None:
            fired.append(cert)
        else:
            failures.append(failure)

    record(degree_certificate(f), f"degree {deg} is not prime")
    record(ord_infinity_certificate(f),
           f"ord_infinity {f.ord_infinity} has no prime factor exceeding d = {d}")

    # for polynomials Res_x(f - t, f') is a nonzero scalar multiple of
    # D[f - t], so one report serves both critical-value certificates
    report = critical_report(f)
    if f.is_polynomial:
        # the reduced form has a monic denominator, so it is exactly 1 here
        numerator = f.numerator
        try:
            record(valency_certificate(numerator),
                   "no point of prime valency exceeding d was certified")
        except DegenerateDerivativeError:
            failures.append("valency test degenerate: derivative vanishes identically")
        if report is None:
            failures.append("critical-value test degenerate: derivative vanishes identically")
        else:
            record(simple_critical_certificate(numerator, report),
                   f"simple critical values {report.simple_count} < d = {d}")
    if report is None:
        failures.append("rational critical-value test degenerate: "
                        "derivative vanishes identically")
    else:
        record(nonzero_simple_critical_certificate(f, report),
               f"non-zero simple critical values "
               f"{report.nonzero_simple_count} < 2d = {2 * d}")
    return fired, failures, report


def analyze(f: RatFun, budget: OracleBudget | None = None) -> Verdict:
    """Run the certificate tests in fixed order, then (with a budget) the
    decomposition oracle.

    Pure in (f, budget).  When several certificates apply, the first in
    the fixed order is returned and every satisfied hypothesis appears in
    its notes; an Unknown's notes record each failed hypothesis instead.
    The verdict carries the critical-value report (None when f' vanishes
    identically) and, when the oracle ran, its SearchResult.
    """
    _require_analyzable(f)
    fired, notes, critical = _run_certificates(f)
    if fired:
        return replace(fired[0], notes=tuple(c.describe() for c in fired),
                       critical=critical)
    if budget is None:
        notes.append("oracle not invoked (no budget)")
        return Unknown(notes=tuple(notes), critical=critical)

    search = decompose(f, budget)
    if search.witness:
        return CompositeWitness(*search.witness, critical=critical, search=search)
    if f.is_polynomial or f.field.char:
        outcome = "search exhaustive" if search.exhaustive else "budget exhausted"
        notes.append(f"{'polynomial' if f.is_polynomial else 'rational'} oracle "
                     f"found no witness ({outcome})")
    else:
        notes.append("reduction-and-lift oracle found no witness "
                     "(never exhaustive over Q)")
    return Unknown(notes=tuple(notes), critical=critical, search=search)
