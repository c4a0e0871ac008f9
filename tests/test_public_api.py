"""The public API and the library's own hygiene, checked on the source.

An export added or removed here has to be a deliberate change."""

import ast
from pathlib import Path
from types import ModuleType

import ratprime

PACKAGE = Path(ratprime.__file__).resolve().parent

EXPORTS = {
    "CompositeWitness", "CriticalValueReport", "DegenerateDerivativeError", "Field",
    "FieldMismatchError", "FqClass", "FqFunction", "NEG_INF", "OracleBudget", "ParseError",
    "Poly", "PreconditionError", "PrimeByDegree", "PrimeByNonzeroSimpleCriticalValues",
    "PrimeByOrdInfinity", "PrimeBySimpleCriticalValues", "PrimeByValency", "PrimeField",
    "QQ", "RatFun", "RatPrimeError", "RationalField", "SearchResult",
    "SquarefreeFactorization", "Unknown", "Verdict", "analyze", "classify",
    "critical_report", "critical_values", "decompose", "degree_certificate", "disc_in_t",
    "discriminant", "format_poly", "format_ratfun", "from_table", "greatest_proper_divisor",
    "interpolate", "is_permutation", "is_prime", "nonzero_simple_critical_certificate",
    "ord_infinity_certificate", "parse_expression", "parse_field", "poly_compose",
    "poly_decompose", "poly_divmod", "poly_exact_div", "poly_gcd", "prime_factors",
    "rat_compose", "rat_decompose_all_k", "rat_decompose_via_reduction",
    "rat_resultant_in_t", "reduce_ring", "res_x_linear_t", "resultant",
    "right_factor_quotient", "ring_compose", "simple_critical_certificate",
    "solve_left_factor", "squarefree_decompose", "valency_certificate",
    "zero_divisor_witness",
}


def _modules():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def test_exports_are_pinned():
    exported = {name for name, value in vars(ratprime).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == EXPORTS


def test_no_module_imports_a_name_it_never_uses():
    for name, tree in _modules():
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{name} never uses {sorted(imported - used)}"


def test_library_raises_instead_of_asserting():
    # python -O strips assert statements, so an internal check must raise
    for name, tree in _modules():
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), name


def test_every_private_module_name_is_used():
    # a module-level name with one leading underscore that no other
    # top-level statement of the package reads is dead code; a function that
    # only calls itself counts as dead
    defined, used = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            else:
                names = {node.id for node in nodes
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            used.append((names, {node.id for node in nodes if isinstance(node, ast.Name)
                                 and not isinstance(node.ctx, ast.Store)}
                         | {node.attr for node in nodes if isinstance(node, ast.Attribute)}))
    dead = [(module, name) for module, name in defined
            if not any(name in reads for own, reads in used if name not in own)]
    assert not dead, dead
