"""Recursive application of a square base program, and block inversion.

recursive_multiply splits its operands into a grid matching the base
program's side, runs the program with blocks in place of scalars, and
recurses on each bilinear block product.  Inputs are zero-padded once, up
front, to the next power of the base side; below the threshold the plain
triple loop takes over.  The base program is compiled once per product
(bilinear_core._compile) and the same evaluator that runs it on scalars runs
it on blocks.  Costs are tallied at the nodes actually visited and predicted
in closed form by cost_model from the same per-level counts: at threshold 1
and K a power of the base side the two agree exactly.

recursive_invert reduces inversion to multiplication by 2x2 block
elimination: invert the leading block, form the complement
S - R P^-1 Q, invert that, and assemble.  It never pivots, so it can fail
on an invertible matrix whose leading blocks are singular (PivotFailure);
matrices that are unit-triangular products never trigger this.
multiply_via_inversion closes the loop in the other direction by reading a
product off one corner block of the inverse of a 3x3 block unit-triangular
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bilinear_core import (
    BilinearAlgorithm, CostReport, _compile, _embedder, _evaluate, _Program,
)
from .errors import BadArgument, DimensionError, PivotFailure, SingularMatrix
from .exact_algebra import Matrix, mat_classical_multiply, mat_inverse


@dataclass(frozen=True)
class RecursionConfig:
    """A square base program plus the side at or below which recursion stops."""

    base_alg: BilinearAlgorithm
    threshold: int = 1

    def __post_init__(self):
        if not self.base_alg.dims.is_square:
            raise BadArgument(
                f"base program must be square, got {self.base_alg.dims}; "
                "squareify rectangular programs first"
            )
        if self.base_alg.dims.m < 2:
            raise BadArgument("base program side must be at least 2")
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise BadArgument(f"threshold must be a positive integer, got {self.threshold!r}")

    @property
    def side(self) -> int:
        return self.base_alg.dims.m


class _Cost:
    __slots__ = ("bilinear", "scalar", "adds")

    def __init__(self):
        self.bilinear = 0
        self.scalar = 0
        self.adds = 0

    def absorb(self, report: CostReport):
        self.bilinear += report.bilinear_mults
        self.scalar += report.scalar_mults
        self.adds += report.additions


def _multiply_rec(a: Matrix, b: Matrix, prog: _Program, s0: int, times,
                  threshold: int, cost: _Cost) -> Matrix:
    side = a.rows
    if side <= threshold or side == 1:
        cost.bilinear += side**3
        cost.adds += side * side * (side - 1)
        return mat_classical_multiply(a, b)
    sub = side // s0
    area = sub * sub
    cost.adds += prog.additions * area
    cost.scalar += prog.scalar_mults * area
    blocks_a = [a.submatrix(i * sub, j * sub, sub, sub) for i in range(s0) for j in range(s0)]
    blocks_b = [b.submatrix(i * sub, j * sub, sub, sub) for i in range(s0) for j in range(s0)]
    out = _evaluate(
        prog, blocks_a, blocks_b,
        lambda x, y: _multiply_rec(x, y, prog, s0, times, threshold, cost),
        times, lambda: Matrix.zeros(a.ring, sub, sub),
    )
    return Matrix.from_blocks([out[l * s0:(l + 1) * s0] for l in range(s0)])


def recursive_multiply(cfg: RecursionConfig, a: Matrix, b: Matrix):
    """Multiply square matrices of equal side; returns (product, CostReport).

    The operands are padded with zeros to the next power of the base side,
    so the result is exact for every K.
    """
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("expected matrices")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionError(
            f"need square matrices of equal side, got {a.rows}x{a.cols} "
            f"and {b.rows}x{b.cols}"
        )
    k = a.rows
    s0 = cfg.side
    padded = 1
    while padded < k:
        padded *= s0
    cost = _Cost()
    embed = _embedder(a.ring)
    result = _multiply_rec(a.embed(padded, padded), b.embed(padded, padded),
                           _compile(cfg.base_alg), s0,
                           lambda c, x: x.scale(embed(c)), cfg.threshold, cost)
    if padded != k:
        result = result.submatrix(0, 0, k, k)
    report = CostReport(
        bilinear_mults=cost.bilinear,
        scalar_mults=cost.scalar,
        additions=cost.adds,
        context=(
            f"recursive multiply side {k} (padded {padded}), "
            f"base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, "
            f"threshold {cfg.threshold}"
        ),
    )
    return result, report


def cost_model(alg: BilinearAlgorithm, k: int) -> CostReport:
    """Closed-form cost of recursive_multiply at threshold 1 for K a power of
    the base side.

    With rank R, side S, per-level addition count A (terms beyond the first
    across all linear combinations) and scalar count C (coefficients outside
    {1,-1}), recursing t levels gives R^t bilinear multiplications and
    A * sum_{d<t} R^d S^{2(t-1-d)} additions (likewise C for scalings).
    """
    if not alg.dims.is_square:
        raise BadArgument(f"cost model needs a square base program, got {alg.dims}")
    if not isinstance(k, int) or k < 1:
        raise BadArgument(f"K must be a positive integer, got {k!r}")
    s0 = alg.dims.m
    t = 0
    power = 1
    while power < k:
        power *= s0
        t += 1
    if power != k:
        raise BadArgument(f"K={k} is not a power of the base side {s0}")
    prog = _compile(alg)
    geom = sum(alg.rank**d * s0 ** (2 * (t - 1 - d)) for d in range(t))
    return CostReport(
        bilinear_mults=alg.rank**t,
        scalar_mults=prog.scalar_mults * geom,
        additions=prog.additions * geom,
        context=f"cost model: base {alg.dims} rank {alg.rank}, K={k}",
    )


class _PivotZero(Exception):
    pass


def _mul_rect(cfg: RecursionConfig, a: Matrix, b: Matrix, cost: _Cost, calls: list) -> Matrix:
    side = max(a.rows, a.cols, b.cols)
    product, report = recursive_multiply(cfg, a.embed(side, side), b.embed(side, side))
    cost.absorb(report)
    calls[0] += 1
    return product.submatrix(0, 0, a.rows, b.cols)


def _invert_rec(a: Matrix, cfg: RecursionConfig, cost: _Cost, calls: list) -> Matrix:
    side = a.rows
    ring = a.ring
    if side == 1:
        x = a[0, 0]
        if x == ring.zero:
            raise _PivotZero
        return Matrix(ring, 1, 1, [ring.one / x])
    p = side // 2
    lead = a.submatrix(0, 0, p, p)
    q = a.submatrix(0, p, p, side - p)
    r = a.submatrix(p, 0, side - p, p)
    s = a.submatrix(p, p, side - p, side - p)
    lead_inv = _invert_rec(lead, cfg, cost, calls)
    lead_inv_q = _mul_rect(cfg, lead_inv, q, cost, calls)
    r_lead_inv = _mul_rect(cfg, r, lead_inv, cost, calls)
    complement = s - _mul_rect(cfg, r, lead_inv_q, cost, calls)
    comp_inv = _invert_rec(complement, cfg, cost, calls)
    x21 = -_mul_rect(cfg, comp_inv, r_lead_inv, cost, calls)
    x12 = -_mul_rect(cfg, lead_inv_q, comp_inv, cost, calls)
    x11 = lead_inv - _mul_rect(cfg, lead_inv_q, x21, cost, calls)
    return Matrix.from_blocks([[x11, x12], [x21, comp_inv]])


def recursive_invert(cfg: RecursionConfig, a: Matrix):
    """Invert a square matrix over a field; returns (inverse, CostReport).

    The CostReport aggregates the multiplication subcalls (block additions
    and the scalar divisions at 1x1 leaves are not counted).  Raises
    SingularMatrix when no inverse exists, PivotFailure when the matrix is
    invertible but a leading block met during elimination is not.
    """
    if a.rows != a.cols:
        raise DimensionError("only square matrices have inverses")
    cost = _Cost()
    calls = [0]
    try:
        inverse = _invert_rec(a, cfg, cost, calls)
    except _PivotZero:
        try:
            mat_inverse(a)
        except SingularMatrix:
            raise SingularMatrix(f"{a.rows}x{a.cols} matrix is singular") from None
        raise PivotFailure(
            "singular leading block; the matrix is invertible but this "
            "pivot-free elimination cannot proceed"
        ) from None
    report = CostReport(
        bilinear_mults=cost.bilinear,
        scalar_mults=cost.scalar,
        additions=cost.adds,
        context=(
            f"recursive invert side {a.rows}, {calls[0]} multiplication "
            f"subcalls, base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, "
            f"threshold {cfg.threshold}"
        ),
    )
    return inverse, report


def multiply_via_inversion(
    a: Matrix, b: Matrix, invert: Callable[[Matrix], Matrix]
):
    """Compute A*B using only the supplied inversion procedure.

    Embeds A and B into a block unit-triangular T =
    [[I, A, 0], [0, I, B], [0, 0, I]]; the top-right block of T^-1 is A*B
    (the middle blocks of the inverse are -A and -B).  T is unit-triangular,
    so every leading block is invertible and pivot-free elimination succeeds.
    """
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    m, k, n = a.rows, a.cols, b.cols
    size = m + k + n
    ring = a.ring
    rows = Matrix.identity(ring, size).to_rows()
    for i in range(m):
        for j in range(k):
            rows[i][m + j] = a[i, j]
    for g in range(k):
        for h in range(n):
            rows[m + g][m + k + h] = b[g, h]
    t = Matrix.from_rows(ring, rows)
    t_inv = invert(t)
    return t_inv.submatrix(0, m + k, m, n)
