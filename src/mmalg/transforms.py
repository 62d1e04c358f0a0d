"""Symmetry operations on bilinear programs.

Three families:

* duality - the trace form sum a_ij b_jh d_hi is invariant under cyclic
  rotation of its three factors and under transposition of all of them, so
  any correct program yields six (generally distinct) programs of the same
  rank, one per permutation of the dimension triple;
* tensor product - running one program with blocks handed to another, which
  multiplies both dimensions and ranks, turning rectangular schemes into
  square ones (squareify);
* equivalence - a change of basis on each of the three matrix spaces plus a
  relabeling of the products, which preserves correctness and rank exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .bilinear_core import (
    BilinearAlgorithm, DimensionTriple, _canonical, _check_size, verify_brent,
)
from .errors import BadArgument, BadTransform, InvalidAlgorithm
from .exact_algebra import Matrix, QQ, _classical, mat_classical_multiply, mat_inverse


def _t(d: dict) -> dict:
    return {(c, r): val for (r, c), val in d.items()}


class DualityPermutation(Enum):
    """The six duals, named by the dimension triple of the result."""

    MKN = "mkn"
    KNM = "knm"
    NMK = "nmk"
    MNK = "mnk"
    NKM = "nkm"
    KMN = "kmn"

    def target_dims(self, dims: DimensionTriple) -> DimensionTriple:
        m, k, n = dims
        lookup = {"m": m, "k": k, "n": n}
        a, b, c = self.value
        return DimensionTriple(lookup[a], lookup[b], lookup[c])


# For each dual, the source factor (0 = u, 1 = v, 2 = w) of the result's u,
# v and w, and whether it is transposed.  KNM is the cyclic rotation of the
# roles (A, B, D) -> (B, D, A) and MNK the transposition of all three
# factors; the other three are their compositions.
_DUAL_ROLES = {
    DualityPermutation.MKN: ((0, False), (1, False), (2, False)),
    DualityPermutation.KNM: ((1, False), (2, True), (0, True)),
    DualityPermutation.NMK: ((2, True), (0, False), (1, True)),
    DualityPermutation.MNK: ((2, False), (1, True), (0, False)),
    DualityPermutation.NKM: ((1, True), (0, True), (2, True)),
    DualityPermutation.KMN: ((0, True), (2, False), (1, False)),
}


def _dual(alg: BilinearAlgorithm, perm: DualityPermutation) -> BilinearAlgorithm:
    factors = (alg.u, alg.v, alg.w)
    u, v, w = ([_t(d) if transposed else d for d in factors[src]]
               for src, transposed in _DUAL_ROLES[perm])
    return BilinearAlgorithm._from_slices(perm.target_dims(alg.dims), alg.rank, u, v, w)


def dual(alg: BilinearAlgorithm, perm) -> BilinearAlgorithm:
    """Return the dual program for the given permutation (enum or its string value).

    The input must verify; the output then verifies by construction and has
    the same rank.
    """
    if isinstance(perm, str):
        try:
            perm = DualityPermutation(perm)
        except ValueError:
            raise BadArgument(
                f"unknown duality permutation {perm!r}; "
                f"expected one of {[p.value for p in DualityPermutation]}"
            ) from None
    if not isinstance(perm, DualityPermutation):
        raise BadArgument(f"expected a DualityPermutation, got {perm!r}")
    if not verify_brent(alg).valid:
        raise InvalidAlgorithm("dual of an invalid program is undefined")
    return _dual(alg, perm)


def _numbered(tensor) -> dict:
    """Each distinct key of the tensor's slices, numbered in order of first use."""
    index: dict = {}
    for d in tensor:
        for key in d:
            index.setdefault(key, len(index))
    return index


def _kron(x, y, rows: int, cols: int) -> list:
    """The Kronecker products of each slice of tensor x with each slice of
    tensor y, x's outer, y's slices rows x cols: c1 at (i1, j1) and c2 at
    (i2, j2) give c1 * c2 at (i1 * rows + i2, j1 * cols + j2).

    The distinct keys of each tensor are numbered once, and each output key
    is built once per (x-key, y-key) pair, in a table with one row per
    x-key.  Every output slice takes its keys from that table, so all of
    them share at most one key tuple per position of the output shape, not
    one tuple per nonzero, and a term costs one product and one lookup.  A
    product with a Fraction may be integral (2 * 1/2), so when either tensor
    holds a Fraction every slice is put back in canonical form, which keeps
    the shared keys."""
    x_keys, y_keys = _numbered(x), _numbered(y)
    table = [[(i1 * rows + i2, j1 * cols + j2) for i2, j2 in y_keys] for i1, j1 in x_keys]
    rowed = [[(table[x_keys[key]], c1) for key, c1 in d1.items()] for d1 in x]
    listed = [[(y_keys[key], c2) for key, c2 in d2.items()] for d2 in y]
    out = []
    for s1 in rowed:
        for s2 in listed:
            out.append(d := {})
            for t, c1 in s1:
                for j, c2 in s2:
                    d[t[j]] = c1 * c2
    if any(type(c) is not int for t in (x, y) for d in t for c in d.values()):
        return list(map(_canonical, out))
    return out


def _tensor(a: BilinearAlgorithm, b: BilinearAlgorithm) -> BilinearAlgorithm:
    _check_size(map(mul, a.nonzero_counts(), b.nonzero_counts()))
    m1, k1, n1 = a.dims
    m2, k2, n2 = b.dims
    dims = DimensionTriple(m1 * m2, k1 * k2, n1 * n2)
    return BilinearAlgorithm._from_slices(
        dims, a.rank * b.rank, _kron(a.u, b.u, m2, k2), _kron(a.v, b.v, k2, n2),
        _kron(a.w, b.w, m2, n2))


def tensor_product(a: BilinearAlgorithm, b: BilinearAlgorithm) -> BilinearAlgorithm:
    """Blockwise composition: dims and ranks multiply, indices flatten row-major.

    Both inputs must verify.  tensor_product(x, classical(1,1,1)) == x exactly.
    A result with more than _MAX_NONZEROS nonzeros in u, v or w, that is
    nnz(u) * nnz(u') and likewise, is refused with BadArgument.
    """
    for side, name in ((a, "first"), (b, "second")):
        if not verify_brent(side).valid:
            raise InvalidAlgorithm(f"{name} operand fails verification")
    return _tensor(a, b)


def squareify(alg: BilinearAlgorithm) -> BilinearAlgorithm:
    """Tensor the program with its two cyclic duals: an (mkn)^3-sized square
    scheme of rank R^3 with the same exponent.

    Each of its tensors holds nnz(u) * nnz(v) * nnz(w) nonzeros; past
    _MAX_NONZEROS the program is refused with BadArgument before any work.
    """
    _check_size([prod(alg.nonzero_counts())] * 3)
    if not verify_brent(alg).valid:
        raise InvalidAlgorithm("cannot squareify an invalid program")
    c1 = _dual(alg, DualityPermutation.KNM)
    c2 = _dual(alg, DualityPermutation.NMK)
    return _tensor(_tensor(alg, c1), c2)


@dataclass(frozen=True)
class EquivalenceTransform:
    """Basis changes (sigma, gamma), (nabla, lam), (mu, beta) plus a product
    relabeling.

    Each pair must multiply to the identity (sigma*gamma == I etc.); perm is
    a 0-based bijection and product s of the result takes its coefficients
    from product perm[s] of the source.
    """

    sigma: Matrix
    gamma: Matrix
    nabla: Matrix
    lam: Matrix
    mu: Matrix
    beta: Matrix
    perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        for left, right, name in (
            (self.sigma, self.gamma, "sigma/gamma"),
            (self.nabla, self.lam, "nabla/lam"),
            (self.mu, self.beta, "mu/beta"),
        ):
            if left.ring != QQ or right.ring != QQ:
                raise BadTransform(f"{name} must be rational matrices")
            if left.rows != left.cols or right.rows != right.cols or left.rows != right.rows:
                raise BadTransform(f"{name} must be square of equal size")
            if mat_classical_multiply(left, right) != Matrix.identity(QQ, left.rows):
                raise BadTransform(f"{name} do not multiply to the identity")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise BadTransform("perm is not a bijection on 0..R-1")

    @classmethod
    def identity(cls, dims: DimensionTriple, rank: int) -> "EquivalenceTransform":
        m, k, n = dims
        return cls(
            Matrix.identity(QQ, m), Matrix.identity(QQ, m),
            Matrix.identity(QQ, k), Matrix.identity(QQ, k),
            Matrix.identity(QQ, n), Matrix.identity(QQ, n),
            tuple(range(rank)),
        )


def _cleared(vectors) -> list:
    """Each vector as (d, list of (index, d * value) over its nonzero
    values), d the lcm of their denominators, so every d * value is an int."""
    out = []
    for vec in vectors:
        nonzero = [(a, x) for a, x in enumerate(vec) if x]
        d = lcm(*(x.denominator for _, x in nonzero))
        out.append((d, [(a, x.numerator * (d // x.denominator)) for a, x in nonzero]))
    return out


def _outer_sum(d: dict, left: list, right: list) -> dict:
    """sum over the entries c at (i, j) of d of c * left[i] (x) right[j], as
    a canonical slice; left and right hold _cleared vectors.

    Every term is an int over the slice's one denominator, the lcm over the
    entries of den(c) * den(left[i]) * den(right[j]), so the sums run on
    ints and each output entry is divided once."""
    terms = [(c.numerator, c.denominator * left[i][0] * right[j][0], left[i][1], right[j][1])
             for (i, j), c in d.items()]
    den = lcm(*(t[1] for t in terms))
    acc: dict = {}
    for num, part, lv, rv in terms:
        scale = num * (den // part)
        for a, x in lv:
            cx = scale * x
            for b, y in rv:
                acc[a, b] = acc.get((a, b), 0) + cx * y
    return _canonical(acc if den == 1 else {key: Fraction(x, den) for key, x in acc.items()})


def _check_equivalence_size(alg: BilinearAlgorithm) -> None:
    """BadArgument when a transform of alg could pass _MAX_NONZEROS: the
    result holds at most R slices of each of the three shapes."""
    m, k, n = alg.dims
    _check_size((alg.rank * m * k, alg.rank * k * n, alg.rank * m * n))


def _equivalence(alg: BilinearAlgorithm, transform: EquivalenceTransform) -> BilinearAlgorithm:
    """apply_equivalence without checking that alg verifies; BadTransform
    unless transform fits alg."""
    m, k, n = alg.dims
    if transform.sigma.rows != m or transform.nabla.rows != k or transform.mu.rows != n:
        raise BadTransform(
            f"transform sized {transform.sigma.rows}/{transform.nabla.rows}/"
            f"{transform.mu.rows} does not fit a {alg.dims} program"
        )
    if len(transform.perm) != alg.rank:
        raise BadTransform(
            f"perm length {len(transform.perm)} does not match rank {alg.rank}"
        )
    t = transform
    sigma_c, nabla_c, mu_c = (_cleared(zip(*x.to_rows())) for x in (t.sigma, t.nabla, t.mu))
    lam_r, gamma_r, beta_r = (_cleared(x.to_rows()) for x in (t.lam, t.gamma, t.beta))
    u, v, w = [], [], []
    for src in t.perm:
        u.append(_outer_sum(alg.u[src], sigma_c, nabla_c))
        v.append(_outer_sum(alg.v[src], lam_r, mu_c))
        w.append(_outer_sum(alg.w[src], gamma_r, beta_r))
    return BilinearAlgorithm._from_slices(alg.dims, alg.rank, u, v, w)


def apply_equivalence(
    alg: BilinearAlgorithm, transform: EquivalenceTransform
) -> BilinearAlgorithm:
    """Change bases and relabel products; preserves correctness and rank.

    The input must verify; the output then verifies by construction.  A
    transform that does not fit the program raises BadTransform.

    New coefficients: u-bar^s = sigma u^t(s) nabla^T, v-bar^s = lam^T v^t(s) mu^T,
    w-bar^s = gamma^T w^t(s) beta, with t(s) = perm[s].  Each is a sum of
    outer products over the nonzeros of the source slice: a coefficient c
    at (i, j) adds c times column i of sigma (x) column j of nabla to u-bar,
    c at (g, h) adds c times row g of lam (x) column h of mu to v-bar, and
    c at (l, q) adds c times row l of gamma (x) row q of beta to w-bar.
    Each of those rows and columns is cleared of denominators once, so the
    sums run on ints and each output coefficient is one division
    (_outer_sum).  The work is _equivalence.  A program whose R*m*k, R*k*n
    or R*m*n passes _MAX_NONZEROS is refused with BadArgument before any
    work, since its result could hold that many nonzeros.
    """
    _check_equivalence_size(alg)
    if not verify_brent(alg).valid:
        raise InvalidAlgorithm("cannot transform an invalid program")
    return _equivalence(alg, transform)


# The diagonal entries 1, -1, 2, -2, 1/2, -1/2, 3 and 1/3, in sixths.
_DIAG_SIXTHS = (6, -6, 12, -12, 3, -3, 18, 2)


def _random_invertible(size: int, rng: random.Random) -> Matrix:
    # L * D * U with unit triangular L, U and nonzero diagonal D: invertible
    # by construction, entries stay small.  L, U and 6 D are integral, so
    # the product runs on ints and is divided by 6 once.
    lower = [1 if i == j else (rng.randint(-2, 2) if i > j else 0)
             for i in range(size) for j in range(size)]
    upper = [1 if i == j else (rng.randint(-2, 2) if i < j else 0)
             for i in range(size) for j in range(size)]
    diag = [rng.choice(_DIAG_SIXTHS) for _ in range(size)]
    ldu = _classical(list(map(mul, lower, diag * size)), upper, size, size, size, None)
    return Matrix._from_values(QQ, size, size, [Fraction(x, 6) for x in ldu])


def random_equivalence(
    dims: DimensionTriple, rank: int, seed: int
) -> EquivalenceTransform:
    """Deterministic-per-seed random transform with invertible-by-construction
    basis matrices and a shuffled product relabeling."""
    if not isinstance(dims, DimensionTriple):
        dims = DimensionTriple(*dims)
    if rank < 1:
        raise BadArgument("rank must be positive")
    rng = random.Random(seed)
    sigma = _random_invertible(dims.m, rng)
    nabla = _random_invertible(dims.k, rng)
    mu = _random_invertible(dims.n, rng)
    perm = list(range(rank))
    rng.shuffle(perm)
    return EquivalenceTransform(
        sigma, mat_inverse(sigma),
        nabla, mat_inverse(nabla),
        mu, mat_inverse(mu),
        tuple(perm),
    )
