"""Workbench for exact bilinear matrix-multiplication programs.

Construct programs (classical, the rank-7 2x2 scheme, shifted-partner
aggregation), verify them exactly or probabilistically, derive new ones by
duality, tensor product, and equivalence transforms, and run them
recursively on concrete matrices - including block inversion and the
multiplication/inversion reductions.  All arithmetic is exact.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadArgument,
    BadField,
    BadTransform,
    DimensionError,
    ExponentUndefined,
    FormatError,
    InvalidAlgorithm,
    MmalgError,
    SingularMatrix,
)
from .exact_algebra import (
    Matrix,
    ModularScalar,
    PrimeField,
    QQ,
    Rational,
    RationalField,
    is_prime,
    mat_classical_multiply,
    mat_inverse,
    random_matrix,
)
from .bilinear_core import (
    DEFAULT_PRIME,
    BilinearAlgorithm,
    CostReport,
    DimensionTriple,
    KnownRankBounds,
    RankBound,
    VerificationReport,
    exponent,
    generic_lower_bound,
    known_bounds,
    sanity_rank_lower_bound,
    verify_brent,
    verify_trilinear_random,
)
from .generators import classical, pan_aggregation, strassen_222
from .transforms import (
    DualityPermutation,
    EquivalenceTransform,
    apply_equivalence,
    dual,
    random_equivalence,
    squareify,
    tensor_product,
)
from .formats import (
    dump_algorithm,
    dump_matrix,
    dump_transform,
    format_algorithm,
    format_matrix,
    format_transform,
    load_algorithm,
    load_matrix,
    load_transform,
    parse_algorithm,
    parse_matrix,
    parse_transform,
)
from .recursion import (
    RecursionConfig,
    apply_elementary,
    cost_model,
    multiply_via_inversion,
    recursive_invert,
    recursive_multiply,
)

__version__ = "0.1.0"

# Every public name imported above, and nothing else.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
