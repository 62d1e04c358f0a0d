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

The recursion runs on the raw values a Matrix stores (ints in [0, p) over
GF(p), Fractions over QQ), not on Matrix objects.  recursive_multiply
reorders both padded operands into block order (see _block_order), so that
every block of every level is one contiguous slice, and crops the result
once.  Block additions, subtractions and scalings are the ring's _block
arithmetic (exact_algebra); the leaves run the flat kernel
exact_algebra._classical, and a level whose blocks are single entries runs
the program on the entries themselves with the ring's _entry arithmetic, as
apply_elementary does.

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

from .bilinear_core import BilinearAlgorithm, CostReport, _compile, _evaluate, _Program
from .errors import BadArgument, DimensionError, PivotFailure, SingularMatrix
from .exact_algebra import Matrix, PrimeField, RationalField, _classical, mat_inverse


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


def _block_order(side: int, s0: int, threshold: int) -> list:
    """The row-major positions of a side x side matrix, listed in block order.

    Block order lists the s0 x s0 grid of blocks one block after another,
    row by row, each block itself in block order, down to blocks of side at
    most threshold, which are row-major.  Every block _multiply_rec visits
    is then one contiguous slice of its parent.
    """
    if side <= threshold:
        return list(range(side * side))
    sub = side // s0
    inner = [(i // sub) * side + i % sub for i in _block_order(sub, s0, threshold)]
    return [(bi * side + bj) * sub + i for bi in range(s0) for bj in range(s0) for i in inner]


def _multiply_rec(a: list, b: list, side: int, prog: _Program, s0: int,
                  ring: RationalField | PrimeField, threshold: int, cost: CostReport) -> list:
    """The product of two side x side raw operands in block order (see
    _block_order), in block order."""
    if side <= threshold:
        cost.bilinear_mults += side**3
        cost.additions += side * side * (side - 1)
        return _classical(a, b, side, side, side, ring._modulus)
    sub = side // s0
    area = sub * sub
    cost.additions += prog.additions * area
    cost.scalar_mults += prog.scalar_mults * area
    if sub == 1:
        # The blocks are single entries, and each product a 1x1 leaf.
        cost.bilinear_mults += len(prog.u)
        return _evaluate(prog, a, b, ring._mul, ring._entry)
    cuts = range(0, side * side, area)
    out = _evaluate(
        prog, [a[i:i + area] for i in cuts], [b[i:i + area] for i in cuts],
        lambda x, y: _multiply_rec(x, y, sub, prog, s0, ring, threshold, cost), ring._block,
    )
    return [v for blk in out for v in blk]


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
    order = _block_order(padded, cfg.side, cfg.threshold)
    ae, be = a.embed(padded, padded)._values, b.embed(padded, padded)._values
    out = _multiply_rec([ae[i] for i in order], [be[i] for i in order], padded,
                        _compile(cfg.base_alg), cfg.side, a.ring, cfg.threshold, report)
    c = [None] * len(out)  # the product, row-major
    for i, v in zip(order, out):
        c[i] = v
    cropped = [v for r in range(0, m * padded, padded) for v in c[r:r + n]]
    return Matrix._from_values(a.ring, m, n, cropped), report


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
    if not isinstance(a, Matrix):
        raise TypeError("expected a Matrix")
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
