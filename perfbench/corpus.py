"""Seeded input corpora for the benchmark workloads.

The generator keeps its own polynomial arithmetic on integer lists and never
imports ratprime, so a corpus depends only on the workload, the seed and this
file: a change to `Poly` cannot shift what the benchmark feeds the program.
The checker reuses the same arithmetic to verify witnesses and critical
resultants independently of the library.

Polynomials are ascending coefficient lists without trailing zeros.  A
modulus p > 0 means residues mod p; p == 0 means the rationals, with int or
Fraction coefficients.  A rational function is a (numerator, denominator)
pair of such lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("certify-Q", "certify-Fp", "oracle-ring")
WORD_PRIMES = (1000003, 2 ** 31 - 1)
ORACLE_PRIMES = (3, 5, 7, 11, 13)
FQ_PRIMES = (17, 19, 23, 29, 31)

# ---------------------------------------------------------------------------
# Arithmetic


def norm(a, p):
    a = [c % p for c in a] if p else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def add(a, b, p):
    n = max(len(a), len(b))
    return norm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n)], p)


def sub(a, b, p):
    return add(a, [-c for c in b], p)


def scale(a, c, p):
    return norm([x * c for x in a], p)


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return norm(out, p)


def power(a, e, p):
    out = [1]
    for _ in range(e):
        out = mul(out, a, p)
    return out


def inverse(c, p):
    return pow(c, -1, p) if p else Fraction(1) / c


def rem(a, b, p):
    """Remainder of a by a nonzero b."""
    a = list(a)
    inv = inverse(b[-1], p)
    while len(a) >= len(b):
        c = a[-1] * inv
        off = len(a) - len(b)
        for i, y in enumerate(b):
            a[off + i] -= c * y
        a[-1] = 0
        a = norm(a, p)
    return a


def exact_div(a, b, p):
    """Quotient of a by b, which must divide it."""
    a = list(a)
    inv = inverse(b[-1], p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv
        off = len(a) - len(b)
        quot[off] = c
        for i, y in enumerate(b):
            a[off + i] -= c * y
        a[-1] = 0
        a = norm(a, p)
    if a:
        raise ArithmeticError("inexact division")
    return norm(quot, p)


def gcd(a, b, p):
    """Monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, rem(a, b, p)
    inv = inverse(a[-1], p)
    return norm([c * inv for c in a], p)


def derivative(a, p):
    return norm([i * c for i, c in enumerate(a)][1:], p)


def evaluate(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
        if p:
            acc %= p
    return acc


def compose(g, h, p):
    acc = []
    for c in reversed(g):
        acc = add(mul(acc, h, p), [c], p)
    return acc


def degree(f):
    """Degree of a rational function given as (numerator, denominator)."""
    return max(len(f[0]), len(f[1])) - 1


def rat_compose(g, h, p):
    """g(h) for rational functions, homogenised so no division happens;
    valid for unreduced representatives too."""
    (g1, g2), (h1, h2) = g, h
    m = degree(g)
    h1_pow, h2_pow = [[1]], [[1]]
    for _ in range(m):
        h1_pow.append(mul(h1_pow[-1], h1, p))
        h2_pow.append(mul(h2_pow[-1], h2, p))
    top, bottom = [], []
    for i, c in enumerate(g1):
        top = add(top, scale(mul(h1_pow[i], h2_pow[m - i], p), c, p), p)
    for i, c in enumerate(g2):
        bottom = add(bottom, scale(mul(h1_pow[i], h2_pow[m - i], p), c, p), p)
    return top, bottom


def reduce(f, p):
    """Lowest-terms form (monic gcd removed) of a rational function."""
    g = gcd(f[0], f[1], p)
    return exact_div(f[0], g, p), exact_div(f[1], g, p)


def resultant(a, b, q):
    """Res(a, b) over F_q by Euclid; a and b nonzero."""
    a, b = norm(a, q), norm(b, q)
    acc = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return acc * pow(b[0], da, q) % q
        r = rem(a, b, q)
        if not r:
            return 0
        if da * db % 2:
            acc = -acc
        acc = acc * pow(b[-1], da - len(r) + 1, q) % q
        a, b = b, r


def to_residue(c, q):
    """A rational coefficient as a residue mod q."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, q) % q


def critical_resultant_at(f, t0, q):
    """The value at t = t0 of the critical resultant the CLI reports, mod q,
    or None where specialising t changes the x-degree (the value there is
    not the polynomial's).

    For a polynomial f that is D[f - t] = (-1)^(n(n-1)/2) Res(f - t, f') / lc f.
    For a rational f1/f2 in lowest terms it is Res_x(F1 - t*F2, N), with
    F1/F2 the form whose denominator is monic and N the numerator of the
    lowest-terms derivative.  q must not divide a denominator or a leading
    coefficient.
    """
    num, den = ([to_residue(c, q) for c in part] for part in f)
    if len(den) == 1:
        num = scale(num, pow(den[0], -1, q), q)
        n = len(num) - 1
        shifted = sub(num, [t0], q)
        res = resultant(shifted, derivative(num, q), q)
        sign = -1 if n * (n - 1) // 2 % 2 else 1
        return sign * res * pow(num[-1], -1, q) % q
    lead = pow(den[-1], -1, q)
    f1, f2 = scale(num, lead, q), scale(den, lead, q)
    specialised = sub(f1, scale(f2, t0, q), q)
    if len(specialised) != max(len(f1), len(f2)):
        return None
    top = sub(mul(derivative(f1, q), f2, q), mul(f1, derivative(f2, q), q), q)
    common = gcd(top, mul(f2, f2, q), q)
    return resultant(specialised, exact_div(top, common, q), q)


# ---------------------------------------------------------------------------
# Expression text


def _coeff_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(a):
    """Expression text in the CLI grammar (no unary minus)."""
    if not a:
        return "0"
    pieces = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        text = _coeff_text(abs(c))
        if i == 0:
            body = text
        else:
            power_text = "x" if i == 1 else f"x^{i}"
            body = power_text if text == "1" else f"{text}*{power_text}"
        if not pieces:
            pieces.append(f"0-{body}" if c < 0 else body)
        else:
            pieces.append(f"-{body}" if c < 0 else f"+{body}")
    return "".join(pieces)


def rat_text(f):
    num, den = f
    if len(den) == 1 and den[0] == 1:
        return poly_text(num)
    return f"({poly_text(num)})/({poly_text(den)})"


# ---------------------------------------------------------------------------
# Jobs


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the generator knows about its input."""

    command: str
    p: int                      # 0 for Q
    f: tuple                    # (numerator, denominator) as generated
    stratum: str                # input family, for reports
    composite: bool = False     # built as g o h with deg g, deg h >= 2
    budget: int = 0             # --oracle-budget, 0 for the default

    @property
    def argv(self) -> list[str]:
        argv = [self.command, rat_text(self.f), "--json"]
        if self.command == "fq":
            argv += ["--p", str(self.p)]
        else:
            argv += ["--field", f"F{self.p}" if self.p else "Q"]
        if self.budget:
            argv += ["--oracle-budget", str(self.budget)]
        return argv


class _Gen:
    def __init__(self, rng: random.Random, p: int, bound: int = 9):
        self.rng = rng
        self.p = p
        self.bound = bound          # coefficient bound over Q

    def coeff(self, nonzero=False):
        while True:
            if self.p:
                c = self.rng.randrange(self.p)
            else:
                c = self.rng.randint(-self.bound, self.bound)
            if c or not nonzero:
                return c

    def poly(self, n, monic=False):
        return norm([self.coeff() for _ in range(n)] + [1 if monic else self.coeff(True)],
                    self.p)

    def ratfun(self, n, den_degree):
        """Random numerator of degree n over a denominator of the given
        degree, coprime to it, so the function has exact degree
        max(n, den_degree)."""
        while True:
            num = self.poly(n)
            den = self.poly(den_degree)
            if den_degree == 0:
                return num, [1]
            if len(gcd(num, den, self.p)) == 1:
                return num, den


def _rand_poly(gen, n):
    return gen.poly(n), [1]


def _rand_ratfun(gen, n):
    # alternate ord_infinity: numerator on top, or denominator on top
    if gen.rng.random() < 0.5:
        return gen.ratfun(n, n - 1 - gen.rng.randrange(2))
    return gen.ratfun(n - 1 - gen.rng.randrange(2), n)


def _poly_composite(gen, dg, dh):
    g = gen.poly(dg)
    # over Q a monic inner factor keeps the coefficients of g o h in check
    h = gen.poly(dh, monic=not gen.p and dh > 3)
    return compose(g, h, gen.p), [1]


def _rat_composite(gen, dg, dh):
    g = gen.ratfun(dg, dg - 1 - gen.rng.randrange(dg))
    h = gen.ratfun(dh, dh - 1 - gen.rng.randrange(dh - 1))
    return reduce(rat_compose(g, h, gen.p), gen.p)


def _fq_unit(gen, e):
    """a*(x + b)^e + c with gcd(e, p - 1) = 1: a permutation of F_p."""
    p = gen.p
    a = gen.rng.randrange(1, p)
    inner = compose(power([0, 1], e, p), [gen.rng.randrange(p), 1], p)
    return add(scale(inner, a, p), [gen.rng.randrange(p)], p), [1]


# Each schedule entry is (command, stratum, input maker, size arguments[, p[,
# oracle budget]]): the same list for every seed, so seeds vary coefficients
# and witnesses, not the mix of degrees and job kinds that sets the cost of
# a pass.

_CERTIFY_Q = (
    [("analyze", "rand-poly", _rand_poly, (n,)) for n in
     (8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 25, 26, 27, 28)]
    + [("analyze", "rand-poly", _rand_poly, (n,)) for n in
       (8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 22, 8, 10, 12, 14, 16)]
    + [("analyze", "rand-ratfun", _rand_ratfun, (n,)) for n in
       (6, 7, 8, 9, 10, 11, 12, 6, 8, 9, 10, 12, 6, 8, 9, 10)]
    + [("analyze", "poly-composite", _poly_composite, dims) for dims in
       ((2, 4), (4, 2), (3, 3), (2, 6), (6, 2), (3, 4), (4, 3), (2, 7),
        (7, 2), (4, 4), (3, 5), (5, 3), (2, 9), (3, 6), (6, 3), (4, 5),
        (5, 4), (3, 7), (4, 6), (6, 4), (2, 4), (4, 2), (3, 3), (2, 5))]
    + [("analyze", "ratfun-composite", _rat_composite, dims) for dims in
       ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 2), (2, 3))]
    + [("resultant", "rand-poly", _rand_poly, (n,)) for n in
       (8, 10, 12, 15, 16, 18, 20, 24, 8, 9, 10, 12, 14, 16, 18, 20, 21, 22)]
    + [("resultant", "rand-ratfun", _rand_ratfun, (n,)) for n in
       (6, 8, 10, 12, 6, 7, 8, 9, 10, 11, 12, 6)]
    + [("resultant", "poly-composite", _poly_composite, dims) for dims in
       ((2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (4, 3), (4, 4), (3, 5))]
    + [("resultant", "ratfun-composite", _rat_composite, dims) for dims in
       ((2, 2), (2, 3), (3, 2), (2, 4))]
)

_CERTIFY_FP = (
    [("analyze", "rand-poly", _rand_poly, (n,)) for n in
     (16, 18, 20, 21, 22, 24, 25, 26, 27, 28, 30, 32, 36, 40, 48, 64, 16, 20)]
    + [("analyze", "rand-ratfun", _rand_ratfun, (n,)) for n in (16, 18, 20, 24, 16)]
    + [("analyze", "poly-composite", _poly_composite, dims) for dims in
       ((4, 4), (2, 8), (8, 2), (3, 6), (6, 3), (4, 5), (5, 4), (3, 8),
        (4, 6), (6, 4), (4, 8), (6, 6), (2, 9), (9, 2), (4, 9), (9, 4))]
    # with the degree-36 polynomials above, a band of similar cost that
    # holds the 90th percentile, so job_ms_p90 does not sit on a steep slope
    + [("analyze", "rand-poly", _rand_poly, (36,)) for _ in range(2)]
    + [("analyze", "ratfun-composite", _rat_composite, dims) for dims in
       ((4, 4), (2, 8), (3, 6))]
    + [("resultant", "rand-poly", _rand_poly, (n,)) for n in
       (16, 18, 20, 22, 24, 28, 32, 16)]
    + [("resultant", "rand-ratfun", _rand_ratfun, (n,)) for n in (16, 20, 18)]
)

# Searches that stop at a witness cost a random share of their candidate
# space, so those stay cheap here (small p, or a right-factor degree whose
# space is small); the expensive searches are exhaustive ones, whose cost
# the seed does not move.  The repeated exhaustive searches of 100-200 ms
# widen the band that holds the 90th percentile, so that job_ms_p90 does
# not sit on a step between two cost clusters.
_ORACLE_RING = 2 * (
    [("decompose", "poly-composite", _poly_composite, dims, p)
     for p in (3, 5) for dims in ((2, 4), (4, 2), (3, 3), (2, 6), (5, 2))]
    + [("decompose", "poly-composite", _poly_composite, dims, p)
       for p in (7, 11, 13) for dims in ((4, 2), (3, 3), (2, 3), (3, 2))]
    + [("decompose", "poly-composite", _poly_composite, dims, 7)
       for dims in ((2, 4), (5, 2))]
    + [("decompose", "ratfun-composite", _rat_composite, dims, p)
       for p in ORACLE_PRIMES for dims in ((2, 2), (3, 2))]
    + [("decompose", "ratfun-composite", _rat_composite, (2, 3), p) for p in (3, 5, 7)]
    + [("decompose", "rand-poly", _rand_poly, (n,), p)
       for p in ORACLE_PRIMES for n in (8, 9)]
    + [("decompose", "rand-poly", _rand_poly, (n,), p)
       for p, n in ((3, 10), (5, 10), (7, 10), (3, 12), (7, 10), (13, 8), (13, 8))]
    + [("decompose", "poly-composite", _poly_composite, dims, p)
       for p, dims in ((13, (4, 2)), (7, (5, 2)))]
    # exhaustive searches of 10-15 ms, whose cost the seed barely moves,
    # thicken the band that holds the median, where witness searches whose
    # cost the seed does move would otherwise set job_ms_p50
    + [("decompose", "rand-poly", _rand_poly, (n,), p)
       for p, n in ((5, 8), (5, 8), (11, 9), (11, 9))]
    + [("decompose", "rand-ratfun", _rand_ratfun, (n,), p)
       for p in (3, 5, 7) for n in (6, 9)]
    + [("decompose", "rand-ratfun", _rand_ratfun, (8,), 3)]
    + [("decompose", "rand-poly-budget", _rand_poly, (12,), p, 500)
       for p in ORACLE_PRIMES]
    + [("decompose", "poly-composite", _poly_composite, dims, 0)
       for dims in ((2, 4), (4, 2), (3, 3), (2, 5), (3, 4), (4, 3), (2, 6))]
    + [("decompose", "ratfun-composite", _rat_composite, (2, 2), 0)
       for _ in range(3)]
    + [("decompose", "rand-poly", _rand_poly, (n,), 0) for n in (8, 10)]
    + [("fq", "rand-poly", _rand_poly, (n,), p)
       for p in FQ_PRIMES for n in (p // 2, p + 5)]
    + [("fq", "unit", _fq_unit, (e,), p)
       for p, e in zip(FQ_PRIMES, (3, 5, 3, 3, 7))]
)

_SMOKE = {
    "certify-Q": [("analyze", "rand-poly", _rand_poly, (8,)),
                  ("analyze", "rand-ratfun", _rand_ratfun, (6,)),
                  ("analyze", "poly-composite", _poly_composite, (2, 4)),
                  ("analyze", "ratfun-composite", _rat_composite, (2, 2)),
                  ("resultant", "rand-poly", _rand_poly, (9,))],
    "certify-Fp": [("analyze", "rand-poly", _rand_poly, (16,)),
                   ("analyze", "rand-ratfun", _rand_ratfun, (12,)),
                   ("analyze", "poly-composite", _poly_composite, (4, 4)),
                   ("resultant", "rand-poly", _rand_poly, (16,))],
    "oracle-ring": [("decompose", "poly-composite", _poly_composite, (2, 4), 3),
                    ("decompose", "ratfun-composite", _rat_composite, (2, 2), 5),
                    ("decompose", "rand-poly", _rand_poly, (8,), 3),
                    ("decompose", "rand-poly-budget", _rand_poly, (12,), 7, 50),
                    ("decompose", "poly-composite", _poly_composite, (2, 3), 0),
                    ("decompose", "ratfun-composite", _rat_composite, (2, 2), 0),
                    ("fq", "rand-poly", _rand_poly, (20,), 17),
                    ("fq", "unit", _fq_unit, (5,), 19)],
}


def _schedule(workload: str, smoke: bool):
    if smoke:
        return _SMOKE[workload]
    if workload == "certify-Q":
        return [entry + (0,) for entry in _CERTIFY_Q]
    if workload == "certify-Fp":
        return [entry + (p,) for p in WORD_PRIMES for entry in _CERTIFY_FP]
    return _ORACLE_RING


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The corpus of one workload: a fixed schedule of job kinds and sizes,
    with coefficients drawn from the seed, interleaved so that any prefix of
    a pass has about the mix of the whole pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{int(smoke)}")
    jobs = []
    for entry in _schedule(workload, smoke):
        command, stratum, make, dims = entry[:4]
        p = entry[4] if len(entry) > 4 else 0
        budget = entry[5] if len(entry) > 5 else 0
        gen = _Gen(rng, p, bound=3 if "composite" in stratum else 9)
        f = make(gen, *dims)
        jobs.append(Job(command, p, (tuple(f[0]), tuple(f[1])), stratum,
                        composite="composite" in stratum, budget=budget))
    rng.shuffle(jobs)
    return jobs
