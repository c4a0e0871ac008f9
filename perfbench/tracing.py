"""In-memory span tracing of ratprime's layers, installed from outside.

The library is not changed: `Tracer.install` rebinds the public entry points
of each layer, in every ratprime module that imported them, to wrappers that
time each call.  Every wrapped call updates per-name counters and self time
(its duration minus the time its wrapped children took).  Calls of the
coarse layers are also kept as spans (id, name, start, end, parent id, job
id) and written out when the run ends; the leaf kernels named in HOT run
thousands of times per job, so they only feed the counters.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name, keep spans?)
LAYERS = (
    ("cli", "main", "cli.main", True),
    ("parser", "parse_expression", "parser.parse", True),
    ("ratfun", "RatFun.__init__", "ratfun.construct", False),
    ("ratfun", "rat_compose", "ratfun.compose", False),
    ("poly", "poly_divmod", "poly.divmod", False),
    ("poly", "Poly.__mul__", "poly.mul", False),
    ("poly", "poly_gcd", "poly.gcd", False),
    ("poly", "poly_compose", "poly.compose", False),
    ("_intpoly", "prs_resultant", "intpoly.prs_resultant", True),
    ("_intpoly", "prs_gcd", "intpoly.prs_gcd", False),
    ("_intpoly", "pseudo_rem", "intpoly.pseudo_rem", False),
    ("squarefree", "squarefree_decompose", "squarefree.decompose", True),
    ("resultants", "disc_in_t", "resultants.disc_in_t", True),
    ("resultants", "rat_resultant_in_t", "resultants.rat_resultant_in_t", True),
    ("resultants", "resultant", "resultants.resultant", True),
    ("resultants", "interpolate", "resultants.interpolate", True),
    ("resultants", "critical_values", "resultants.critical_values", True),
    ("primality", "analyze", "primality.analyze", True),
    ("primality", "valency_certificate", "primality.valency", True),
    ("oracle", "poly_decompose", "oracle.search", True),
    ("oracle", "rat_decompose_all_k", "oracle.search", True),
    ("oracle", "rat_decompose_via_reduction", "oracle.search", True),
    ("oracle", "right_factor_quotient", "oracle.rfq", False),
    ("fqring", "reduce_ring", "fqring.reduce", True),
    ("fqring", "ring_compose", "fqring.compose", True),
    ("fqring", "zero_divisor_witness", "fqring.witness", True),
)

# Compositions the oracle performs only to verify a candidate witness: the
# oracle module's own bindings get one more span around the compose layer.
ORACLE_VERIFY = ("poly_compose", "rat_compose")

VERDICT_KINDS = ("PrimeByDegree", "PrimeByOrdInfinity", "PrimeByValency",
                 "PrimeBySimpleCriticalValues",
                 "PrimeByNonzeroSimpleCriticalValues", "CompositeWitness",
                 "Unknown")


class Tracer:
    def __init__(self):
        self.spans = []         # (id, name, start, end, parent id, job id)
        self.calls = Counter()  # name -> calls
        self.inclusive = Counter()  # name -> seconds in outermost calls
        self.self_time = Counter()  # name -> seconds minus wrapped children
        self.events = Counter()  # derived counts (verdicts, searches, ...)
        self.job = None
        self.command = None
        self._stack = []        # frames: [span id, child seconds]
        self._active = Counter()
        self._next_id = 0
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, keep, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_time[name] += duration - frame[1]
                if not self._active[name]:
                    self.inclusive[name] += duration
                if keep:
                    self.spans.append((span_id, name, start, end, parent, self.job))
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def _observe(self, name):
        if name == "primality.analyze":
            return lambda verdict: self.events.update([f"verdict.{verdict.kind}"])
        if name == "oracle.search":
            return self._observe_search
        if name in ("resultants.disc_in_t", "resultants.rat_resultant_in_t"):
            return lambda _: self.events.update([f"disc.{self.command}"])
        return None

    def _observe_search(self, result):
        self.events["search"] += 1
        self.events["candidates"] += result.candidates
        if result.witness:
            self.events["search.witness"] += 1
        elif result.exhaustive:
            self.events["search.proven_absent"] += 1

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every layer entry point wherever ratprime binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module_name, attr, name, keep in LAYERS:
            home = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, meth, self._wrap(cls.__dict__[meth], name, keep))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, keep, self._observe(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapped)
        oracle = sys.modules[f"{package.__name__}.oracle"]
        for attr in ORACLE_VERIFY:
            self._rebind(oracle, attr, self._wrap(getattr(oracle, attr), "oracle.verify", False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """The exact counts of everything traced so far: these must repeat
        when the same corpus is traced again."""
        counts = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        counts.update({f"events.{k}": v for k, v in sorted(self.events.items())})
        return counts

    def write_spans(self, out, pass_number) -> None:
        """One JSON object per span, tagged with the traced pass."""
        for span in self.spans:
            record = dict(zip(("id", "name", "start", "end", "parent", "job"), span))
            record["pass"] = pass_number
            out.write(json.dumps(record) + "\n")


def layer_metrics(tracers: list[Tracer], analyze_jobs: int) -> dict:
    """Per-layer metrics per corpus pass, averaged over traced passes (one
    tracer each).

    `<layer>.<op>_s` is the time inside the outermost calls of that entry
    point, children included; `<layer>.self_s` is the layer's time with its
    wrapped callees taken out (Fp arithmetic is not wrapped, so it lands in
    the self time of the poly spans); counts are calls or outcomes per pass.
    """
    passes = len(tracers)

    def mean(field):
        total = Counter()
        for t in tracers:
            total.update(getattr(t, field))
        return {k: v / passes for k, v in total.items()}

    inc, calls, ev = mean("inclusive"), mean("calls"), mean("events")

    def seconds(*names):
        return sum(inc.get(n, 0.0) for n in names)

    searches = ev.get("search", 0)
    witnessless = searches - ev.get("search.witness", 0)
    search_s = seconds("oracle.search")
    m = {
        "resultants.disc_s": seconds("resultants.disc_in_t", "resultants.rat_resultant_in_t"),
        "resultants.disc_calls_per_job":
            ev.get("disc.analyze", 0) / analyze_jobs if analyze_jobs else 0.0,
        "resultants.resultant_calls": calls.get("resultants.resultant", 0),
        "resultants.interpolate_s": seconds("resultants.interpolate"),
        "resultants.critical_values_s": seconds("resultants.critical_values"),
        "intpoly.prs_s": seconds("intpoly.prs_resultant", "intpoly.prs_gcd"),
        "intpoly.pseudo_rem_calls": calls.get("intpoly.pseudo_rem", 0),
        "squarefree.decompose_s": seconds("squarefree.decompose"),
        "squarefree.calls": calls.get("squarefree.decompose", 0),
        "poly.divmod_s": seconds("poly.divmod"),
        "poly.divmod_calls": calls.get("poly.divmod", 0),
        "poly.mul_s": seconds("poly.mul"),
        "poly.gcd_s": seconds("poly.gcd"),
        "poly.compose_s": seconds("poly.compose"),
        "ratfun.construct_s": seconds("ratfun.construct"),
        "ratfun.compose_s": seconds("ratfun.compose"),
        "parser.parse_s": seconds("parser.parse"),
        "primality.analyze_s": seconds("primality.analyze"),
        "primality.valency_s": seconds("primality.valency"),
        "oracle.search_s": search_s,
        "oracle.candidates": ev.get("candidates", 0),
        "oracle.candidates_per_s": ev.get("candidates", 0) / search_s if search_s else 0.0,
        "oracle.rfq_calls": calls.get("oracle.rfq", 0),
        "oracle.verify_s": seconds("oracle.verify"),
        "oracle.witness_rate": ev.get("search.witness", 0) / searches if searches else 0.0,
        "oracle.proof_rate":
            ev.get("search.proven_absent", 0) / witnessless if witnessless else 0.0,
        "fqring.reduce_s": seconds("fqring.reduce"),
        "fqring.compose_s": seconds("fqring.compose"),
        "fqring.witness_s": seconds("fqring.witness"),
    }
    for kind in VERDICT_KINDS:
        m[f"primality.verdicts.{kind}"] = ev.get(f"verdict.{kind}", 0)
    layer_self = Counter()
    for name, value in mean("self_time").items():
        layer_self[name.split(".")[0]] += value
    for layer in ("cli", "parser", "ratfun", "poly", "intpoly", "squarefree",
                  "resultants", "primality", "oracle", "fqring"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
