"""Recursive application of a base program of any shape, and block inversion.

recursive_multiply takes any conforming m x k by k x n pair and recurses on
(m, k, n) directly, over a base program of any shape (m0, k0, n0) larger
than 1x1x1, run as it is.  At dims (m, k, n) it runs the plain triple loop
on the rectangle when one of m, k, n is at most the threshold; otherwise it
splits m into m0, k into k0 and n into n0 parts, runs the base program with
blocks in place of scalars, and recurses on each bilinear block product.
Since ceil(ceil(x/a)/b) = ceil(x/(ab)), splitting into parts of
ceil(x / s_x) level by level reaches the same depth and the same leaves as
padding once at the top, which is what recursive_multiply does: with d the
least depth at which min over x of ceil(x / s_x^d) is at most the
threshold (_plan), each dimension x is embedded with zeros into
s_x^d * ceil(x / s_x^d), and the product is cropped back to m x n once.
A side of 1 is never split.  A product whose dimensions are the powers
s_x^t of the base sides is not padded at all.  The base program is
compiled once per RecursionConfig (bilinear_core._compile) and the same
evaluator that runs it on scalars runs it on blocks.  Costs are tallied
into one CostReport at the nodes actually visited: the U, V and W
combinations of a level are charged per entry of an A, a B and a C block,
and a leaf m x k x n triple loop m*k*n multiplications and m*(k-1)*n
additions.
cost_model predicts the square case in closed form from the same per-level
counts: at threshold 1 and K a power of a square base's side the two agree
exactly.

The recursion runs on raw values, not on Matrix objects: ints in [0, p)
over GF(p), and over QQ the ints left by clearing denominators once per
product.  The ring's _clear scales row i of A by the lcm r_i of its
denominators and column j of B by the lcm c_j of its own, and _restore
turns entry (i, j) of the int product into a Fraction over r_i * c_j
(both are the identity over GF(p)).  A base program with a Fraction
coefficient runs on the same path, since a Fraction times an int is exact.
recursive_multiply reorders both padded operands into block order (see
_block_order), so that every block of every level is one contiguous slice,
and reorders and crops the result once.  Block additions, subtractions and
scalings are the ring's _block arithmetic (exact_algebra); the leaves run
the flat kernel exact_algebra._classical, and a level whose blocks are
single entries runs the program on the entries themselves with the ring's
_entry arithmetic, as apply_elementary does.

recursive_invert reduces inversion to multiplication by 2x2 block
elimination: invert the leading block, form the complement
S - R P^-1 Q, invert that, and assemble.  It follows the leaf rule of
recursive_multiply: it splits while the side is above the threshold and
inverts a leaf with mat_inverse.  The elimination does not pivot between
blocks, so a singular leading block or complement of an invertible matrix
stops it; recursive_invert then returns mat_inverse of the whole matrix,
which pivots by rows.  Matrices that are unit-triangular products never
take that fallback.
multiply_via_inversion closes the loop in the other direction by reading a
product off one corner block of the inverse of a 3x3 block unit-triangular
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Callable

from .bilinear_core import BilinearAlgorithm, CostReport, _compile, _evaluate, _Program
from .errors import BadArgument, DimensionError, SingularMatrix
from .exact_algebra import Matrix, PrimeField, RationalField, _classical, mat_inverse


@dataclass(frozen=True)
class RecursionConfig:
    """A base program of any shape larger than 1x1x1, plus the threshold:
    recursive_multiply stops at a block dimension at or below it and runs
    the triple loop, recursive_invert at a side at or below it and runs
    mat_inverse."""

    base_alg: BilinearAlgorithm
    threshold: int = 1
    # The compiled base program, shared by every product this config runs.
    _prog: _Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if max(self.base_alg.dims) < 2:
            raise BadArgument(f"base program must be larger than 1x1x1, got {self.base_alg.dims}")
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise BadArgument(f"threshold must be a positive integer, got {self.threshold!r}")
        object.__setattr__(self, "_prog", _compile(self.base_alg))


def _plan(sides: tuple, dims: tuple, threshold: int) -> tuple:
    """(d, leaf) of a product of dims (m, k, n) over a base of sides
    (m0, k0, n0): d is the least depth with min over x of ceil(x / s_x^d)
    <= threshold, and leaf[i] = ceil(dims[i] / sides[i]^d).  Some side is at
    least 2, so the loop ends; a side of 1 is never split."""
    d = 0
    while True:
        leaf = tuple(-(-x // s**d) for x, s in zip(dims, sides))
        if min(leaf) <= threshold:
            return d, leaf
        d += 1


def _block_order(rows: int, cols: int, rside: int, cside: int, depth: int) -> list:
    """The row-major positions of a rows x cols matrix, listed in block order.

    Block order lists the rside x cside grid of blocks one block after
    another, row by row, each block itself in block order, for depth levels;
    blocks at the last level are row-major.  rows is a multiple of
    rside**depth and cols of cside**depth.  Every block _multiply_rec visits
    is then one contiguous slice of its parent.
    """
    if depth == 0:
        return list(range(rows * cols))
    br, bc = rows // rside, cols // cside
    inner = [(i // bc) * cols + i % bc for i in _block_order(br, bc, rside, cside, depth - 1)]
    return [bi * br * cols + bj * bc + i
            for bi in range(rside) for bj in range(cside) for i in inner]


def _levels(prog: _Program, sides: tuple, leaf: tuple, depth: int) -> list:
    """levels[j] = (dims, additions, scalar_mults) of one node with j levels
    below it, for a product whose leaves have dims leaf = (m, k, n) over a
    base of sides (m0, k0, n0).

    A leaf is charged m*(k-1)*n additions; a node above it is charged its
    program's U, V and W combinations once per entry of an A, a B and a C
    block one level down."""
    m, k, n = leaf
    levels = [(leaf, m * (k - 1) * n, 0)]
    for _ in range(depth):
        areas = (m * k, k * n, m * n)
        m, k, n = m * sides[0], k * sides[1], n * sides[2]
        levels.append(((m, k, n), sum(map(mul, prog.form_additions, areas)),
                       sum(map(mul, prog.form_scalar_mults, areas))))
    return levels


def _multiply_rec(a: list, b: list, depth: int, levels: list, prog: _Program,
                  ring: RationalField | PrimeField, cost: CostReport) -> list:
    """The product of two raw operands of levels[depth]'s dims in block
    order with depth levels (see _block_order), in block order."""
    (m, k, n), additions, scalar_mults = levels[depth]
    cost.additions += additions
    cost.scalar_mults += scalar_mults
    if depth == 0:
        cost.bilinear_mults += m * k * n
        return _classical(a, b, m, k, n, ring._modulus)
    mb, kb, nb = levels[depth - 1][0]
    if mb == kb == nb == 1:
        # The blocks are single entries, and each product a 1x1x1 leaf.
        cost.bilinear_mults += len(prog.u)
        return _evaluate(prog, a, b, ring._mul, ring._entry)
    area_a, area_b = mb * kb, kb * nb
    out = _evaluate(
        prog,
        [a[i:i + area_a] for i in range(0, m * k, area_a)],
        [b[i:i + area_b] for i in range(0, k * n, area_b)],
        lambda x, y: _multiply_rec(x, y, depth - 1, levels, prog, ring, cost), ring._block,
    )
    return [v for blk in out for v in blk]


def recursive_multiply(cfg: RecursionConfig, a: Matrix, b: Matrix):
    """Multiply an m x k by a k x n matrix; returns (product, CostReport).

    Over a base of sides (m0, k0, n0), each level splits m into m0, k into
    k0 and n into n0 parts, and the recursion takes d levels, d the least
    depth with min over x of ceil(x / s_x^d) <= threshold (see _plan).  Each
    dimension x is embedded with zeros into s_x^d * ceil(x / s_x^d), the
    least multiple of s_x^d that is at least x, and the product is cropped
    back to m x n, so the result is exact for every conforming shape.  The
    counts are those of the nodes the padded product visits.  Over QQ the
    recursion runs on ints: rows of A and columns of B are cleared of
    denominators once (the ring's _clear) and each output entry is divided
    by its row and column scales once (_restore).
    """
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("expected matrices")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    m, k, n = a.rows, a.cols, b.cols
    m0, k0, n0 = sides = tuple(cfg.base_alg.dims)
    depth, leaf = _plan(sides, (m, k, n), cfg.threshold)
    prog = cfg._prog
    levels = _levels(prog, sides, leaf, depth)
    pm, pk, pn = levels[depth][0]
    report = CostReport(context=(
        f"recursive multiply {m}x{k} by {k}x{n}, "
        f"base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, threshold {cfg.threshold}"
    ))
    # One block order per distinct operand shape: a square product has one.
    a_key, b_key, c_key = (pm, pk, m0, k0), (pk, pn, k0, n0), (pm, pn, m0, n0)
    orders = {key: _block_order(*key, depth) for key in {a_key, b_key, c_key}}
    ring = a.ring
    ae, row_scales = ring._clear(a.embed(pm, pk)._values, pk)
    be, col_scales = ring._clear(b.embed(pk, pn)._values, pn, by_columns=True)
    out = _multiply_rec([ae[i] for i in orders[a_key]], [be[i] for i in orders[b_key]],
                        depth, levels, prog, ring, report)
    c = [None] * len(out)  # the product, row-major
    for i, v in zip(orders[c_key], out):
        c[i] = v
    cropped = [v for r in range(0, m * pn, pn) for v in c[r:r + n]]
    return Matrix._from_values(
        ring, m, n, ring._restore(cropped, row_scales[:m], col_scales[:n])), report


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
    t, _ = _plan(alg.dims, (k, k, k), 1)
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


def _invert_rec(a: Matrix, threshold: int, mul: Callable[[Matrix, Matrix], Matrix]) -> Matrix:
    side = a.rows
    if side <= threshold:
        return mat_inverse(a)
    p = side // 2
    lead = a.submatrix(0, 0, p, p)
    q = a.submatrix(0, p, p, side - p)
    r = a.submatrix(p, 0, side - p, p)
    s = a.submatrix(p, p, side - p, side - p)
    lead_inv = _invert_rec(lead, threshold, mul)
    lead_inv_q = mul(lead_inv, q)
    r_lead_inv = mul(r, lead_inv)
    complement = s - mul(r, lead_inv_q)
    comp_inv = _invert_rec(complement, threshold, mul)
    x21 = -mul(comp_inv, r_lead_inv)
    x12 = -mul(lead_inv_q, comp_inv)
    x11 = lead_inv - mul(lead_inv_q, x21)
    return Matrix.from_blocks([[x11, x12], [x21, comp_inv]])


def recursive_invert(cfg: RecursionConfig, a: Matrix):
    """Invert a square matrix over a field; returns (inverse, CostReport).

    Block elimination splits while the side is above cfg.threshold and
    inverts each leaf with mat_inverse.  When a leading block or a
    complement is singular, the matrix is inverted by mat_inverse instead,
    which pivots by rows, and the report's context says so.  The
    CostReport aggregates the multiplication subcalls that ran (block
    additions and the leaf inversions are not counted).  Raises
    SingularMatrix when no inverse exists.
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

    finish = ""
    try:
        inverse = _invert_rec(a, cfg.threshold, mul)
    except SingularMatrix:
        try:
            inverse = mat_inverse(a)
        except SingularMatrix:
            raise SingularMatrix(f"{a.rows}x{a.cols} matrix is singular") from None
        finish = ", finished by elimination with row pivoting"
    report = CostReport(
        bilinear_mults=sum(r.bilinear_mults for r in reports),
        scalar_mults=sum(r.scalar_mults for r in reports),
        additions=sum(r.additions for r in reports),
        context=(
            f"recursive invert side {a.rows}, {len(reports)} multiplication "
            f"subcalls, base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, "
            f"threshold {cfg.threshold}{finish}"
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
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("expected matrices")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    m, k, n = a.rows, a.cols, b.cols
    ring = a.ring
    eye, zero = Matrix.identity, Matrix.zeros
    t_inv = invert(Matrix.from_blocks([
        [eye(ring, m), a, zero(ring, m, n)],
        [zero(ring, k, m), eye(ring, k), b],
        [zero(ring, n, m), zero(ring, n, k), eye(ring, n)],
    ]))
    return t_inv.submatrix(0, m + k, m, n)
