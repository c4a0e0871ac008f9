"""Exact compositional-primality analysis over Q and prime fields."""

from .errors import (DegenerateDerivativeError, FieldMismatchError,
                     PreconditionError, RatPrimeError)
from .fields import Field, PrimeField, QQ, RationalField, parse_field
from .fqring import (FqClass, FqFunction, classify, from_table, is_permutation,
                     reduce_ring, ring_compose, zero_divisor_witness)
from .numutil import greatest_proper_divisor, is_prime, prime_factors
from .oracle import (OracleBudget, SearchResult, decompose,
                     poly_decompose, rat_decompose_all_k,
                     rat_decompose_via_reduction, right_factor_quotient,
                     solve_left_factor)
from .parser import ParseError, format_poly, format_ratfun, parse_expression
from .poly import NEG_INF, Poly, poly_compose, poly_divmod, poly_exact_div, poly_gcd
from .primality import (CompositeWitness, PrimeByDegree, PrimeByNonzeroSimpleCriticalValues,
                        PrimeByOrdInfinity, PrimeBySimpleCriticalValues,
                        PrimeByValency, Unknown, Verdict, analyze,
                        degree_certificate, nonzero_simple_critical_certificate,
                        ord_infinity_certificate, simple_critical_certificate,
                        valency_certificate)
from .ratfun import RatFun, rat_compose
from .resultants import (CriticalValueReport, critical_report, critical_values, disc_in_t,
                         discriminant, interpolate, rat_resultant_in_t, res_x_linear_t,
                         resultant)
from .squarefree import SquarefreeFactorization, squarefree_decompose

__version__ = "0.1.0"
