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
s_x^t of the base sides is not padded at all.  A plan that needs more leaf
multiplications than the unpadded triple loop, and more than
_MAX_LEAF_PRODUCTS, is refused before anything is padded.  The base
program is compiled once per RecursionConfig (_compile: its cleared U, V
and W forms, their per-form counts and the base sides), and its linear
forms run through _linear_combination, exact list arithmetic with the +-1
shortcuts.  apply_elementary runs a program once through the same core as
one level over 1x1x1 leaves, on which level order is row-major.
cost_model predicts the square case in closed form from the same per-form
counts: at threshold 1 and K a power of a square base's side the two agree
exactly.

The recursion runs on raw values, not on Matrix objects: _multiply is its
core and the only code that runs a product.  recursive_multiply and
apply_elementary reach it through one Matrix wrapper (_cleared_product),
and recursive_invert's block products call it directly.  It reads the ring
only through the ring's private members (exact_algebra), never its
modulus.  Over GF(p) the ints are the raw values; over QQ they are the
ints left by clearing denominators once per product.  The ring's
_clear scales row i of A by the lcm r_i of its denominators and column j
of B by the lcm c_j of its own (the identity over GF(p)), and _restore
turns entry (i, j) of the int product back into a raw value: a Fraction
over r_i * c_j over QQ, the int reduced mod p over GF(p).  The program
runs cleared too: _compile scales its coefficients to ints over one
denominator D, so each level computes D times its products, and _multiply
divides the D^d of d levels out once; recursive_multiply folds the
denominator left over QQ into the row scales it gives _restore.  So no
Fraction enters the evaluation, in either ring.

Delayed reduction (as in FFLAS-FFPACK; Dumas, Giorgi and Pernet, ACM TOMS
2008): over GF(p) no block operation reduces mod p.  Block additions,
subtractions and scalings are exact list arithmetic on ints.  A product
that recurses needs p not to divide D, that is an image mod p for every
coefficient, and the ring's _check_denominator raises BadArgument
otherwise; a product that does not recurse evaluates no form, so a
coefficient with no image mod p does not stop it.  _restore reduces the
product once.

Level order and batches.  _multiply pads both operands and puts them in
level order (see _level_order) with one C-level gather each, an
operator.itemgetter over the row-major list with a 0 appended that the
padding positions read, and puts the product back in row order and crops
it with one more; the gathers are cached per shape (_gather), and a
product that does not recurse skips all three.  Level order lists the
entries of a leaf block outermost, then the block index of each level from
the last to the first, which is innermost.  Block q of a node of A is then
the strided slice [q::m0*k0] (of B, [q::k0*n0]), and the same slice of a
batch of sibling nodes stored end to end, node index outermost, holds
block q of every one of them, so each U and V form of _run_batch is one
list operation for the whole batch.  A whole level at once would hold R^d
blocks at depth d, so one rule bounds memory (as in the hybrid scheme of
Benson and Ballard, arXiv:1409.2908): a level runs its R products in
consecutive groups, each as large as keeps its next batch within
_BATCH_ENTRIES operand entries, and at least one product.  Near the leaves
a group is the whole level; near the root it may be a single product.  Over
GF(p) a batch of large leaves is one call of the packed kernel
exact_algebra._packed_products, which returns its products unreduced, so
delayed reduction reaches the leaves.

recursive_invert reduces inversion to multiplication by 2x2 block
elimination (Strassen, "Gaussian elimination is not optimal", Numer. Math.
1969): invert the leading block, form the complement S - R P^-1 Q, invert
that, and assemble.  One rule decides every block: it is a leaf, inverted
by mat_inverse's fraction-free elimination (exact_algebra._bareiss), which
pivots by rows, when its side is at or below the threshold or its own
leading block is singular; otherwise it is split.  A singular complement
means the block itself is singular, so by induction a block is refused
exactly when it is singular, and only a singular matrix is.  It clears
the rows of the matrix once, as mat_inverse does, and then holds every
block as a row-major list of ints and one denominator, which the ring's
_normal keeps in normal form (over QQ a positive denominator prime to the
ints, over GF(p) the denominator 1 and ints in [0, p)), so one recursion
serves both rings.  Each block product is one call of _multiply on the
ints, and the inverse takes one raw value per entry at the end
(exact_algebra._cleared_inverse, which mat_inverse shares).
multiply_via_inversion closes the loop in the other direction by reading a
product off one corner block of the inverse of a 3x3 block unit-triangular
embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mul, neg, sub
from typing import Callable, Mapping, NamedTuple

from .bilinear_core import BilinearAlgorithm, CostReport
from .errors import BadArgument, DimensionError, SingularMatrix
from .exact_algebra import Matrix, _bareiss, _cleared_inverse, _product_dims, _square_side

# A level runs its R products in groups of as many as keep the next batch
# within this many operand entries (at least one product per group), so
# memory stays near that of a depth-first recursion: 0 runs every product
# on its own, a cap above any level's size runs each level whole.
_BATCH_ENTRIES = 4096
# A batch of nodes m x k x n leaves with m*k*n <= _LEAF_BATCH * nodes runs
# the triple loop as maps over the batch; any other runs a kernel (see
# _run_batch).
_LEAF_BATCH = 16
# _multiply refuses a plan of more leaf multiplications than this and than
# the unpadded triple loop, before it pads anything.
_MAX_LEAF_PRODUCTS = 10**8


class _Program(NamedTuple):
    """A BilinearAlgorithm compiled for evaluation, cleared of denominators.

    sides is the base dims (m0, k0, n0).  u[s] and v[s] list (index,
    coefficient) over the row-major entries of A and B; w[l*n0 + q] lists
    (product index, coefficient) for output entry (l, q).  Every
    coefficient is an int: product s's U form is scaled by du_s and its V
    form by dv_s, the lcms of their denominators, and its W terms by
    denominator / (du_s * dv_s), where denominator is the lcm over s of
    du_s * dv_s * dw_s.  One evaluation then gives denominator times the
    product.  form_additions and form_scalar_mults are the operations of
    one evaluation in the (U, V, W) combinations, which act on blocks of
    three different shapes when the recursion runs the program on a
    rectangular product: a term beyond the first in any combination costs
    an addition, a coefficient outside {1, -1} a scalar multiplication.
    Both are decided on the rational coefficients, whatever ring runs the
    program.
    """

    sides: tuple
    u: tuple
    v: tuple
    w: tuple
    denominator: int
    form_additions: tuple
    form_scalar_mults: tuple


def _compile(alg: BilinearAlgorithm) -> _Program:
    m, k, n = sides = tuple(alg.dims)
    du, dv, dw = ([lcm(*(c.denominator for c in d.values())) for d in t]
                  for t in (alg.u, alg.v, alg.w))
    denominator = lcm(*map(mul, map(mul, du, dv), dw))

    def cleared(d: Mapping, scale: int, cols: int) -> tuple:
        """(row-major index, scale * coefficient as an int) for each entry of d."""
        return tuple((r * cols + c, x.numerator * (scale // x.denominator))
                     for (r, c), x in d.items())

    u = tuple(map(cleared, alg.u, du, repeat(k)))
    v = tuple(map(cleared, alg.v, dv, repeat(n)))
    by_output = [[] for _ in range(m * n)]
    for s, d in enumerate(alg.w):
        for i, c in cleared(d, denominator // (du[s] * dv[s]), n):
            by_output[i].append((s, c))
    w = tuple(map(tuple, by_output))
    return _Program(
        sides, u, v, w, denominator,
        form_additions=tuple(sum(max(0, len(terms) - 1) for terms in f) for f in (u, v, w)),
        form_scalar_mults=tuple(sum(c != 1 and c != -1 for d in t for c in d.values())
                                for t in (alg.u, alg.v, alg.w)),
    )


@dataclass(frozen=True)
class RecursionConfig:
    """A base program of any shape larger than 1x1x1, plus the threshold:
    recursive_multiply stops at a block dimension at or below it and runs
    the triple loop, recursive_invert at a side at or below it (or at a
    block whose leading block is singular) and runs mat_inverse's
    elimination."""

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


@lru_cache(maxsize=256)
def _plan(sides: tuple, dims: tuple, threshold: int) -> tuple:
    """(d, leaf) of a product of dims (m, k, n) over a base of sides
    (m0, k0, n0): d is the least depth with min over x of ceil(x / s_x^d)
    <= threshold, and leaf[i] = ceil(dims[i] / sides[i]^d).  Some side is at
    least 2, so the loop ends; a side of 1 is never split.  Plans are
    cached, as the gathers are: block inversion asks for a few many times."""
    d = 0
    while True:
        leaf = tuple(-(-x // s**d) for x, s in zip(dims, sides))
        if min(leaf) <= threshold:
            return d, leaf
        d += 1


def _level_order(rows: int, cols: int, rside: int, cside: int, depth: int) -> list:
    """The row-major positions of a rows x cols matrix, listed in level order.

    Split depth times into an rside x cside grid of blocks, a matrix in
    level order lists its entries by their row-major position in a leaf
    block, outermost, then by their block index (row by row) at each level
    from the last up to the first, which is innermost.  rows is a multiple
    of rside**depth and cols of cside**depth.  Block q of the first split is
    then the strided slice [q::rside * cside], itself in level order, and so
    is block q of every node of a batch of such matrices stored end to end.
    """
    if depth == 0:
        return list(range(rows * cols))
    br, bc = rows // rside, cols // cside
    inner = [(i // bc) * cols + i % bc for i in _level_order(br, bc, rside, cside, depth - 1)]
    return [bi * br * cols + bj * bc + i
            for i in inner for bi in range(rside) for bj in range(cside)]


@lru_cache(maxsize=64)
def _gather(rows: int, cols: int, prows: int, pcols: int, rside: int, cside: int,
            depth: int, back: bool = False) -> Callable:
    """A C-level gather between row order and the level order of a prows x
    pcols matrix (_level_order), prows >= rows and pcols >= cols.

    It reads a row-major rows x cols list with a 0 appended as its
    embedding into prows x pcols in level order, each padding position the
    0; back, it reads a prows x pcols list in level order as its top-left
    rows x cols corner in row order.  Either gives a tuple, a 1-tuple too
    (where itemgetter of one index would give the entry itself), as a base
    with a side of 1 needs.  Gathers are cached: block inversion repeats a
    few shapes many times.
    """
    order = _level_order(prows, pcols, rside, cside, depth)
    if back:
        where = sorted(range(len(order)), key=order.__getitem__)
        index = [where[r * pcols + c] for r in range(rows) for c in range(cols)]
    else:
        index = [i // pcols * cols + i % pcols if i // pcols < rows and i % pcols < cols
                 else rows * cols for i in order]
    return itemgetter(*index) if len(index) > 1 else lambda x: (x[index[0]],)


def _leaves(a: list, b: list, nodes: int, m: int, k: int, n: int) -> list:
    """The products of a batch of m x k by k x n leaves stored end to end,
    row-major, by the triple loop: each multiplication and addition is one
    map over the whole batch, entry (i, j) of every node the slice
    [i*n + j::m*n] of the result."""
    area_a, area_b = m * k, k * n
    a_entries = [a[x::area_a] for x in range(area_a)]
    b_entries = [b[x::area_b] for x in range(area_b)]
    out = [None] * (nodes * m * n)
    for i in range(m):
        for j in range(n):
            acc = list(map(mul, a_entries[i * k], b_entries[j]))
            for l in range(1, k):
                acc = list(map(add, acc, map(mul, a_entries[i * k + l], b_entries[l * n + j])))
            out[i * n + j::m * n] = acc
    return out


def _linear_combination(terms, blocks: list) -> list:
    """The sum of c * blocks[i] over terms, exact list arithmetic with the
    +-1 shortcuts; an empty combination is a zero block."""
    acc = None
    for i, c in terms:
        x = blocks[i]
        if acc is None:
            acc = x if c == 1 else list(map(neg, x)) if c == -1 else list(map(mul, repeat(c), x))
        elif c == 1:
            acc = list(map(add, acc, x))
        elif c == -1:
            acc = list(map(sub, acc, x))
        else:
            acc = list(map(add, acc, map(mul, repeat(c), x)))
    return [0] * len(blocks[0]) if acc is None else acc


def _run_batch(a: list, b: list, dims: tuple, depth: int, prog: _Program, ring,
               cost: CostReport) -> list:
    """The products, in level order, of a batch of sibling pairs of m x k by
    k x n operands, dims = (m, k, n), with depth levels below them, stored
    end to end.

    A leaf is charged m*k*n multiplications and m*(k-1)*n additions; a node
    above it its program's U, V and W combinations once per entry of an A,
    a B and a C block one level down.  It runs its R products in
    consecutive groups of step, the most whose operands (nodes * step block
    pairs) fit in _BATCH_ENTRIES entries, at least 1: each group's U and V
    forms are concatenated into one batch, one recursive call runs it, and
    its result is split back into one slice per product for the W forms.
    A batch of leaves runs _leaves when a leaf's multiplications are at
    most _LEAF_BATCH per node of the batch, and otherwise the ring's
    _leaf_products: over GF(p) one call of the packed kernel for the whole
    batch, whose products stay unreduced like every other block, and over
    QQ _classical per node.
    """
    m, k, n = dims
    nodes = len(a) // (m * k)
    if depth == 0:
        cost.bilinear_mults += nodes * m * k * n
        cost.additions += nodes * m * (k - 1) * n
        if m * k * n <= _LEAF_BATCH * nodes:
            return _leaves(a, b, nodes, m, k, n)
        return ring._leaf_products(a, b, nodes, m, k, n)
    m0, k0, n0 = prog.sides
    sa, sb, sc = m0 * k0, k0 * n0, m0 * n0
    mb, kb, nb = child = m // m0, k // k0, n // n0
    areas = (mb * kb, kb * nb, mb * nb)
    cost.additions += nodes * sum(map(mul, prog.form_additions, areas))
    cost.scalar_mults += nodes * sum(map(mul, prog.form_scalar_mults, areas))
    a_blocks = [a[q::sa] for q in range(sa)]
    b_blocks = [b[q::sb] for q in range(sb)]
    step = max(1, _BATCH_ENTRIES // (nodes * (areas[0] + areas[1])))
    size = nodes * areas[2]
    products = []
    for g in range(0, len(prog.u), step):
        us, vs = prog.u[g:g + step], prog.v[g:g + step]
        c = _run_batch(list(chain.from_iterable(_linear_combination(t, a_blocks) for t in us)),
                       list(chain.from_iterable(_linear_combination(t, b_blocks) for t in vs)),
                       child, depth - 1, prog, ring, cost)
        products += (c[i:i + size] for i in range(0, len(c), size))
    out = [None] * (nodes * m * n)
    for r, ws in enumerate(prog.w):
        out[r::sc] = _linear_combination(ws, products)
    return out


def _leaf_count(rank: int, plan: tuple, dims: tuple) -> int:
    """R^d * prod(leaf), the leaf multiplications of a product of dims
    (m, k, n) over a base of rank R with plan = (d, leaf); BadArgument when
    that is more than both m*k*n, the unpadded triple loop's, and
    _MAX_LEAF_PRODUCTS."""
    (m, k, n), (depth, leaf) = dims, plan
    count, limit = rank**depth * prod(leaf), max(m * k * n, _MAX_LEAF_PRODUCTS)
    if count > limit:
        raise BadArgument(f"a {m}x{k} by {k}x{n} product over a rank-{rank} base needs "
                          f"{count} leaf multiplications at depth {depth}, "
                          f"over the limit of {limit}")
    return count


def _multiply(prog: _Program, plan: tuple, ring, a, b, dims: tuple, cost: CostReport) -> tuple:
    """(c, e) with c / e the m x n product of row-major m x k and k x n raw
    ints (over QQ, cleared ones), dims = (m, k, n), c row-major (a list or
    a tuple) and unreduced mod p, by the program prog with plan = (d, leaf):
    d levels over leaves of dims leaf (see _plan).  Its counts are tallied
    into cost; the operands are left as they are.

    A plan of too many leaf multiplications is refused first (_leaf_count).
    A plan with d = 0 splits and pads nothing: _run_batch runs the operands
    as they are, as one leaf.  Otherwise each dimension x is embedded with
    zeros into leaf[x] * s_x^d and both operands are put in level order, by
    one cached gather each (_gather) over the operand with a 0 appended for
    the padding to read; they run as one batch of one node (_run_batch),
    and one more gather puts the product back in row order and crops it.
    prog's int coefficients make each level multiply the product by
    prog.denominator D, so _run_batch gives D^d times the product.  The
    ring checks D^d first (_check_denominator: over GF(p), BadArgument when
    p divides it, that is when some coefficient has no image mod p; so a
    product with d = 0 is never refused), and when D^d > 1 its _normal
    divides it out once (over GF(p) e is then 1).
    """
    (m0, k0, n0), (m, k, n), (depth, leaf) = prog.sides, dims, plan
    _leaf_count(len(prog.u), plan, dims)
    if depth == 0:
        return _run_batch(a, b, dims, 0, prog, ring, cost), 1
    e = prog.denominator ** depth
    ring._check_denominator(e)
    pm, pk, pn = padded = tuple(x * s**depth for x, s in zip(leaf, prog.sides))
    out = _run_batch(_gather(m, k, pm, pk, m0, k0, depth)([*a, 0]),
                     _gather(k, n, pk, pn, k0, n0, depth)([*b, 0]),
                     padded, depth, prog, ring, cost)
    c = _gather(m, n, pm, pn, m0, n0, depth, True)(out)
    return (c, 1) if e == 1 else ring._normal(c, e)


def _cleared_product(a: Matrix, b: Matrix, prog: _Program, plan: tuple,
                     cost: CostReport) -> Matrix:
    """The product of the conforming matrices a and b by _multiply, run on
    their values cleared by the ring's _clear; _restore divides each entry
    of its (c, e) by its row scale times e and its column scale."""
    ring = a.ring
    ae, row_scales = ring._clear(a._values, a.cols)
    be, col_scales = ring._clear(b._values, b.cols, by_columns=True)
    c, e = _multiply(prog, plan, ring, ae, be, (a.rows, a.cols, b.cols), cost)
    return Matrix._from_values(ring, a.rows, b.cols,
                               ring._restore(c, [r * e for r in row_scales], col_scales))


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
    by its row and column scales, and by the power of the program's
    denominator that _multiply leaves, once (_restore).  Over GF(p) it
    reduces mod p once, at the end (_restore).  The recursion itself is
    _multiply.
    """
    m, k, n = dims = _product_dims(a, b)
    report = CostReport(context=(
        f"recursive multiply {m}x{k} by {k}x{n}, "
        f"base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, threshold {cfg.threshold}"
    ))
    plan = _plan(cfg._prog.sides, dims, cfg.threshold)
    return _cleared_product(a, b, cfg._prog, plan, report), report


def apply_elementary(alg: BilinearAlgorithm, a: Matrix, b: Matrix):
    """Run the program once on concrete matrices; returns (product, CostReport).

    It runs as one level of the recursion (_multiply) with 1x1x1 leaves,
    whatever _plan would choose for a base with a side of 1, on values
    cleared by the ring's _clear as in recursive_multiply, so its counts
    are one level's: one bilinear multiplication per product, a scalar
    multiplication for each coefficient outside {1, -1}, and an addition
    for each term beyond the first in any linear combination.
    """
    prog = _compile(alg)
    if _product_dims(a, b) != prog.sides:
        raise DimensionError(
            f"{alg.dims} program cannot run on {a.rows}x{a.cols} * {b.rows}x{b.cols}"
        )
    report = CostReport(context=f"elementary program {alg.dims} rank {alg.rank}")
    return _cleared_product(a, b, prog, (1, (1, 1, 1)), report), report


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
        scalar_mults=sum(prog.form_scalar_mults) * geom,
        additions=sum(prog.form_additions) * geom,
        context=f"cost model: base {alg.dims} rank {alg.rank}, K={k}",
    )


def _quarters(a, n: int, h: int) -> tuple:
    """The blocks [[P, Q], [R, S]] of a row-major n x n block, P of side h."""
    rows = [a[i:i + n] for i in range(0, n * n, n)]
    return ([v for row in rows[:h] for v in row[:h]], [v for row in rows[:h] for v in row[h:]],
            [v for row in rows[h:] for v in row[:h]], [v for row in rows[h:] for v in row[h:]])


def _difference(ring, a: list, da: int, b: list, db: int) -> tuple:
    """a / da - b / db as a normalised block (see _invert_rec)."""
    if da == db:
        return ring._normal(list(map(sub, a, b)), da)
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return ring._normal([x * sa - y * sb for x, y in zip(a, b)], sa * da)


def _invert_rec(a, d: int, n: int, threshold: int, ring, mul: Callable) -> tuple:
    """(x, e) with x / e the inverse of the n x n block a / d.

    A block is a row-major list of ints and one denominator, normalised by
    the ring's _normal: over QQ, e > 0 and gcd(e, *x) = 1; over GF(p),
    e = 1 and x in [0, p).  mul(x, y, m, k, n, d) is (c, e) with c / e the
    product of an m x k by a k x n block, divided by d.  The block is a
    leaf, inverted by _bareiss, when n is at or below threshold or its
    leading block is singular; otherwise it is split.  Raises
    SingularMatrix exactly when the block is singular.
    """
    if n <= threshold:
        x, e = _bareiss(ring, a, n)
        return ring._normal(x if d == 1 else [v * d for v in x], e)
    h, t = n // 2, n - n // 2
    lead, q, r, s = _quarters(a, n, h)
    try:
        li, dl = _invert_rec(lead, d, h, threshold, ring, mul)
    except SingularMatrix:
        # No pivot between blocks: _bareiss pivots by rows, and refuses
        # only a singular block.
        return _invert_rec(a, d, n, n, ring, mul)
    lq, dlq = ring._normal(*mul(li, q, h, h, t, dl * d))
    rl, drl = ring._normal(*mul(r, li, t, h, h, d * dl))
    comp, dc = _difference(ring, s, d, *mul(r, lq, t, h, t, d * dlq))
    ci, dci = _invert_rec(comp, dc, t, threshold, ring, mul)
    # A negative denominator negates: _normal makes it positive.
    x21, d21 = ring._normal(*mul(ci, rl, t, t, h, -dci * drl))
    x12, d12 = ring._normal(*mul(lq, ci, h, t, t, -dlq * dci))
    x11, d11 = _difference(ring, li, dl, *mul(lq, x21, h, t, h, dlq * d21))
    e = lcm(d11, d12, d21, dci)
    x11, x12, x21, ci = (x if dx == e else [v * (e // dx) for v in x]
                         for x, dx in ((x11, d11), (x12, d12), (x21, d21), (ci, dci)))
    out = []
    for i in range(h):
        out += x11[i * h:(i + 1) * h]
        out += x12[i * t:(i + 1) * t]
    for i in range(t):
        out += x21[i * h:(i + 1) * h]
        out += ci[i * t:(i + 1) * t]
    return out, e


def recursive_invert(cfg: RecursionConfig, a: Matrix):
    """Invert a square matrix over a field; returns (inverse, CostReport).

    Rows are cleared of denominators once, as mat_inverse clears them (the
    ring's _clear), and block elimination (_invert_rec) runs on blocks of
    ints with one denominator each, calling the multiplication core
    _multiply directly.  It splits a block while its side is above
    cfg.threshold and its leading block is invertible, and inverts every
    other block with mat_inverse's elimination (_bareiss), which pivots by
    rows; the inverse takes one value per entry at the end
    (_cleared_inverse).  The CostReport aggregates the multiplication
    subcalls that ran (block additions and the leaf inversions are not
    counted).  Raises SingularMatrix when no inverse exists.
    """
    side = _square_side(a)
    ring = a.ring
    report = CostReport()
    subcalls = 0

    def mul(x: list, y: list, m: int, k: int, n: int, d: int) -> tuple:
        nonlocal subcalls
        subcalls += 1
        plan = _plan(cfg._prog.sides, (m, k, n), cfg.threshold)
        c, e = _multiply(cfg._prog, plan, ring, x, y, (m, k, n), report)
        return c, d * e

    cleared, scales = ring._clear(a._values, side)
    try:
        x, e = _invert_rec(cleared, 1, side, cfg.threshold, ring, mul)
    except SingularMatrix:
        raise SingularMatrix(f"{a.rows}x{a.cols} matrix is singular") from None
    report.context = (
        f"recursive invert side {side}, {subcalls} multiplication "
        f"subcalls, base {cfg.base_alg.dims} rank {cfg.base_alg.rank}, "
        f"threshold {cfg.threshold}"
    )
    return _cleared_inverse(ring, side, x, e, scales), report


def multiply_via_inversion(
    a: Matrix, b: Matrix, invert: Callable[[Matrix], Matrix]
):
    """Compute A*B using only the supplied inversion procedure.

    Embeds A and B into a block unit-triangular T =
    [[I, A, 0], [0, I, B], [0, 0, I]]; the top-right block of T^-1 is A*B
    (the middle blocks of the inverse are -A and -B).  T is unit-triangular,
    so every leading block is invertible and pivot-free elimination succeeds.
    """
    m, k, n = _product_dims(a, b)
    ring = a.ring
    eye, zero = Matrix.identity, Matrix.zeros
    t_inv = invert(Matrix.from_blocks([
        [eye(ring, m), a, zero(ring, m, n)],
        [zero(ring, k, m), eye(ring, k), b],
        [zero(ring, n, m), zero(ring, n, k), eye(ring, n)],
    ]))
    return t_inv.submatrix(0, m + k, m, n)
