"""Recursive application of a square base program, and block inversion.

recursive_multiply takes any conforming m x k by k x n pair, embeds both
operands with zeros once into the least power of the base side that is at
least max(m, k, n), splits them into a grid matching the base program's
side, runs the program with blocks in place of scalars, recurses on each
bilinear block product, and crops the result to m x n; below the threshold
the plain triple loop takes over.  The base program is compiled once per
product (bilinear_core._compile) and the same evaluator that runs it on
scalars runs it on blocks.  Costs are tallied into one CostReport at the
nodes actually visited and predicted in closed form by cost_model from the
same per-level counts: at threshold 1 and K a power of the base side the
two agree exactly.

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

    def padded_side(self, k: int) -> int:
        """The least power of the base side that is at least k."""
        return self.side ** _depth(self.side, k)


def _depth(side: int, k: int) -> int:
    """The least t with side**t >= k."""
    t = 0
    while side**t < k:
        t += 1
    return t


def _multiply_rec(a: Matrix, b: Matrix, prog: _Program, s0: int, times,
                  threshold: int, cost: CostReport) -> Matrix:
    side = a.rows
    if side <= threshold:
        cost.bilinear_mults += side**3
        cost.additions += side * side * (side - 1)
        return mat_classical_multiply(a, b)
    sub = side // s0
    area = sub * sub
    cost.additions += prog.additions * area
    cost.scalar_mults += prog.scalar_mults * area
    blocks_a = [a.submatrix(i * sub, j * sub, sub, sub) for i in range(s0) for j in range(s0)]
    blocks_b = [b.submatrix(i * sub, j * sub, sub, sub) for i in range(s0) for j in range(s0)]
    out = _evaluate(
        prog, blocks_a, blocks_b,
        lambda x, y: _multiply_rec(x, y, prog, s0, times, threshold, cost),
        times, lambda: Matrix.zeros(a.ring, sub, sub),
    )
    return Matrix.from_blocks([out[l * s0:(l + 1) * s0] for l in range(s0)])


def recursive_multiply(cfg: RecursionConfig, a: Matrix, b: Matrix):
    """Multiply an m x k by a k x n matrix; returns (product, CostReport).

    Both operands are embedded with zeros into the least power of the base
    side that is at least max(m, k, n), and the product is cropped back to
    m x n, so the result is exact for every conforming shape.  The counts
    are those of the square product at the padded side.
    """
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("expected matrices")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    m, k, n = a.rows, a.cols, b.cols
    padded = cfg.padded_side(max(m, k, n))
    report = CostReport(context=(
        f"recursive multiply {m}x{k} by {k}x{n} (padded {padded}), "
        f"base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, threshold {cfg.threshold}"
    ))
    embed = _embedder(a.ring)
    result = _multiply_rec(a.embed(padded, padded), b.embed(padded, padded),
                           _compile(cfg.base_alg), cfg.side,
                           lambda c, x: x.scale(embed(c)), cfg.threshold, report)
    if (m, n) != (padded, padded):
        result = result.submatrix(0, 0, m, n)
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
    t = _depth(s0, k)
    if s0**t != k:
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


def _invert_rec(a: Matrix, mul: Callable[[Matrix, Matrix], Matrix]) -> Matrix:
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
    lead_inv = _invert_rec(lead, mul)
    lead_inv_q = mul(lead_inv, q)
    r_lead_inv = mul(r, lead_inv)
    complement = s - mul(r, lead_inv_q)
    comp_inv = _invert_rec(complement, mul)
    x21 = -mul(comp_inv, r_lead_inv)
    x12 = -mul(lead_inv_q, comp_inv)
    x11 = lead_inv - mul(lead_inv_q, x21)
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
    reports = []

    def mul(x: Matrix, y: Matrix) -> Matrix:
        product, report = recursive_multiply(cfg, x, y)
        reports.append(report)
        return product

    try:
        inverse = _invert_rec(a, mul)
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
        bilinear_mults=sum(r.bilinear_mults for r in reports),
        scalar_mults=sum(r.scalar_mults for r in reports),
        additions=sum(r.additions for r in reports),
        context=(
            f"recursive invert side {a.rows}, {len(reports)} multiplication "
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
