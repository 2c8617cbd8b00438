"""charclass: symbolic calculus of characteristic classes of real vector
bundles and their complexifications.

The package decides which polynomial classes of real bundles are determined
by the complexification (mod 2 and integrally), computes the degree-raising
Steenrod square, works in Feshbach's presentation of the integral class
ring, and ships machine-checkable verification suites for every identity it
relies on.
"""

from .bundlecalc import (
    FormalBundle,
    cartan_restrict,
    chern_mod2,
    evaluate_class,
    fiber_bundle,
    pontrjagin_mod2,
    roots_bundle,
    sw,
    trivial_bundle,
    underlying_of_complexification,
    universal_bundle,
    whitney_sum,
)
from .complexifiability import (
    ChernExpr,
    SquaresPoly,
    express_via_chern,
    ideal_decomposition,
    invariance_oracle,
    is_complexifiable_integral,
    is_complexifiable_mod2,
    lemma3_lhs,
    lemma3_rhs,
    subring_decomposition,
)
from .errors import (
    CapsTooSmallError,
    CharclassError,
    DigitLimitError,
    InvalidIndexSetError,
    MissingImageError,
    MixedExpressionError,
    NamespaceMismatchError,
    NotComplexifiableError,
    NotInIdealError,
    ParseError,
)
from .expr import parse, parse_integral, parse_mod2
from .feshbach import (
    HALF,
    IndexSet,
    IntClass,
    int_add,
    int_mul,
    relation,
    rho,
    torsion_equal,
    verify_relations,
)
from .report import Report
from .serialize import dumps, loads
from .steenrod import sq1
from .verify import run_suite
from .wring import (
    MPoly2,
    RingContext,
    add,
    constant_term,
    grade_component,
    mul,
    power,
    r,
    reduce_poly,
    square,
    substitute,
    v,
    w,
)

__version__ = "0.1.0"
