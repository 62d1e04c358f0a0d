"""Bilinear matrix-multiplication programs and their verification.

A bilinear algorithm for multiplying an m x k matrix A by a k x n matrix B
is a list of R products P_s = (sum_ij u^s_ij a_ij) * (sum_gh v^s_gh b_gh)
together with output coefficients w, so that c_lq = sum_s w^s_lq P_s.  The
coefficient tensors are stored sparsely: one dict per product, keyed by the
index pair, holding nonzero exact rationals in one canonical form: an int
when the value is integral, else a Fraction with denominator > 1.  The
constructor makes that choice once, so every later step (verification, the
transforms, the writer, the recursion) does int arithmetic on the integral
coefficients that the shipped programs consist of.  The generators, the
transforms and the reader of canonical text (formats) build slices in
that form themselves and hand them to BilinearAlgorithm._from_slices,
which checks nothing; the public constructor checks and cleans every
coefficient.

Correctness is equivalent to the coefficient equations

    sum_s u^s_ij v^s_gh w^s_lq = [i == l] [j == g] [h == q]

(one equation per (l, q, i, j, g, h)), checked exactly by verify_brent.
The same condition can be tested probabilistically through the trilinear
trace identity sum_s l_s(A) l'_s(B) l''_s(D) = trace(A B D) at random
matrices over GF(p), where the third linear form reads D transposed:
l''_s(D) = sum_lq w^s_lq d_ql with D of shape n x m.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import mul
from typing import Mapping, Optional, Sequence

from .errors import BadArgument, DimensionError, ExponentUndefined
from .exact_algebra import PrimeField, _packed, _packed_products, _slot_words, _slots, _words

# A 61-bit Mersenne prime; default modulus for randomized identity checks.
DEFAULT_PRIME = 2**61 - 1


@dataclass(frozen=True)
class DimensionTriple:
    """Problem shape: multiply m x k by k x n."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        for side in (self.m, self.k, self.n):
            if not isinstance(side, int) or side < 1:
                raise BadArgument(f"dimensions must be positive integers, got {self}")

    def __iter__(self):
        return iter((self.m, self.k, self.n))

    @property
    def volume(self) -> int:
        return self.m * self.k * self.n

    @property
    def is_square(self) -> bool:
        return self.m == self.k == self.n

    def __str__(self):
        return f"{self.m}x{self.k}x{self.n}"


def _clean_tensor(slices, rows: int, cols: int, name: str):
    for s, entries in enumerate(slices):
        for (r, c), val in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionError(
                    f"{name}[{s}] entry ({r},{c}) outside {rows}x{cols}"
                )
            if not isinstance(val, (int, Fraction)):
                raise BadArgument(
                    f"{name}[{s}] entry ({r},{c}) is {val!r}, not an exact "
                    f"integer or Fraction"
                )
    return tuple(map(_canonical, slices))


# The most nonzero coefficients any one tensor of a built program may hold:
# the generators, tensor_product and squareify know their counts (or a bound
# on them) before building, and refuse a program past this limit (hundreds
# of MB as text).
_MAX_NONZEROS = 2_000_000


def _canonical(d: Mapping) -> dict:
    """The slice d without its zero entries and with each integral value as
    an int (2 * 1/2 is the int 1)."""
    return {key: c.numerator if c.denominator == 1 else c for key, c in d.items() if c}


def _check_size(counts) -> None:
    """BadArgument unless each of the program's (u, v, w) nonzero counts is
    within _MAX_NONZEROS."""
    for name, count in zip("uvw", counts):
        if count > _MAX_NONZEROS:
            raise BadArgument(
                f"result would hold {count} nonzero {name} coefficients, "
                f"over the limit of {_MAX_NONZEROS}"
            )


class BilinearAlgorithm:
    """An elementary bilinear program; structural validity is enforced here.

    Whether the program actually computes matrix multiplication is a separate
    question, answered by verify_brent / verify_trilinear_random.
    """

    __slots__ = ("dims", "rank", "u", "v", "w")

    def __init__(
        self,
        dims: DimensionTriple,
        rank: int,
        u: Sequence[Mapping],
        v: Sequence[Mapping],
        w: Sequence[Mapping],
    ):
        if not isinstance(dims, DimensionTriple):
            dims = DimensionTriple(*dims)
        if not isinstance(rank, int) or rank < 1:
            raise BadArgument(f"rank must be a positive integer, got {rank!r}")
        if len(u) != rank or len(v) != rank or len(w) != rank:
            raise DimensionError(
                f"rank {rank} needs {rank} coefficient slices per tensor, "
                f"got {len(u)}/{len(v)}/{len(w)}"
            )
        m, k, n = dims
        self.dims = dims
        self.rank = rank
        self.u = _clean_tensor(u, m, k, "u")
        self.v = _clean_tensor(v, k, n, "v")
        self.w = _clean_tensor(w, m, n, "w")

    @classmethod
    def _from_slices(cls, dims: DimensionTriple, rank: int, u: Sequence[dict],
                     v: Sequence[dict], w: Sequence[dict]) -> "BilinearAlgorithm":
        """The program of rank slices per tensor already in canonical form,
        taken as they are.

        The caller guarantees what the public constructor checks: every key
        lies inside its tensor's shape, and every value is a nonzero int or a
        Fraction with denominator > 1.  The slices are not copied, so two
        programs may share one (_dual reuses the slices it does not
        transpose); nothing mutates a slice once a program holds it.
        """
        alg = cls.__new__(cls)
        alg.dims, alg.rank, alg.u, alg.v, alg.w = dims, rank, tuple(u), tuple(v), tuple(w)
        return alg

    def nonzero_counts(self) -> tuple[int, int, int]:
        return (
            sum(len(d) for d in self.u),
            sum(len(d) for d in self.v),
            sum(len(d) for d in self.w),
        )

    def coefficient_values(self) -> set:
        vals = set()
        for tensor in (self.u, self.v, self.w):
            for d in tensor:
                vals.update(d.values())
        return vals

    def __eq__(self, other):
        if not isinstance(other, BilinearAlgorithm):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.rank == other.rank
            and self.u == other.u
            and self.v == other.v
            and self.w == other.w
        )

    def __hash__(self):
        return hash((self.dims, self.rank))

    def __repr__(self):
        return f"<BilinearAlgorithm {self.dims} rank {self.rank}>"


class VerificationReport:
    """The coefficient equations a program violates, as verify_brent found
    them.

    count is their number.  violations lists them sorted, each as (output
    (l, q), left (i, j), right (g, h), expected, actual), and is built on
    first read: a program with no products violates all m k n equations
    whose right side is 1, so valid and first(limit) never build it.
    """

    def __init__(self, count: int, listing):
        self.count = count
        # listing(limit): the first limit violations, sorted (all for None)
        self._listing = listing

    @property
    def valid(self) -> bool:
        return not self.count

    def first(self, limit: int) -> tuple:
        """The first limit violations, in sorted order."""
        return tuple(self._listing(limit))

    @cached_property
    def violations(self) -> tuple:
        return tuple(self._listing(None))


@dataclass
class CostReport:
    """Operation counts; the recursion (recursion._run_batch) tallies
    into one as it runs."""

    bilinear_mults: int = 0
    scalar_mults: int = 0
    additions: int = 0
    context: str = ""


def verify_brent(alg: BilinearAlgorithm) -> VerificationReport:
    """Check the coefficient equations exactly over the rationals.

    The triple sum is accumulated sparsely, touching only nonzero coefficient
    combinations, so cost is sum_s nnz(u_s) nnz(v_s) nnz(w_s) rather than the
    full (mkn)^2 grid.  The equations that no term reaches are counted, not
    listed, until the report's violations are read.
    """
    sums: dict = {}
    for us, vs, ws in zip(alg.u, alg.v, alg.w):
        for (i, j), cu in us.items():
            for (g, h), cv in vs.items():
                cuv = cu * cv
                for (l, q), cw in ws.items():
                    key = (l, q, i, j, g, h)
                    prev = sums.get(key)
                    sums[key] = cuv * cw if prev is None else prev + cuv * cw
    wrong = []
    present = 0  # equations with expected value 1 that have a term
    for key, val in sums.items():
        l, q, i, j, g, h = key
        expected = 1 if (i == l and j == g and h == q) else 0
        present += expected
        if val != expected:
            wrong.append(((l, q), (i, j), (g, h), expected, val))
    m, k, n = alg.dims

    def listing(limit: Optional[int]) -> list:
        # The equations with no term at all, in sorted order: the first limit
        # of them and the wrong sums hold the first limit violations.
        missing = (((l, q), (l, j), (j, q), 1, 0) for l in range(m) for q in range(n)
                   for j in range(k) if (l, q, l, j, j, q) not in sums)
        return sorted(chain(wrong, islice(missing, limit)))[:limit]

    return VerificationReport(m * k * n - present + len(wrong), listing)


# Trials checked together: every packed int holds one slot per trial of a
# batch, so memory stays bounded however many trials are asked for.
_TRIAL_BATCH = 64
# Products read back together: the bytes that hold their sums stay bounded
# however large the rank.
_PRODUCT_CHUNK = 1024


def verify_trilinear_random(
    alg: BilinearAlgorithm,
    trials: int = 20,
    prime: int = DEFAULT_PRIME,
    seed: Optional[int] = None,
) -> bool:
    """Randomized check of sum_s l_s(A) l'_s(B) l''_s(D) = trace(A B D) mod p.

    Each trial draws uniform A (m x k), B (k x n), D (n x m) over GF(p) and
    compares both sides.  A valid program never fails; an invalid one slips
    through a single trial with probability at most 3/p, so for a 61-bit
    prime even a handful of trials is conclusive in practice.  A coefficient
    whose denominator is divisible by prime raises BadArgument.  A program
    of rank below generic_lower_bound fails without a trial: a trial costs
    O(mkn) whatever the rank.

    Trials run in batches of up to 64 (Kronecker substitution): each entry
    of A, B and D holds its values for the whole batch as slots of one int,
    so a linear form is one bigint sum per product for every trial at once.
    Each coefficient is taken as its residue nearest zero, so +-1 and +-2
    stay small.  Let top be the largest |residue|, low the largest size of a
    negative one (0 when none is negative), and size_s the most nonzeros in
    one slice of product s.  Product s then gets slots of the fewest 64-bit
    words that hold size_s (top + low) p, and the products run in one group
    per width.  Every slot of a group's form sums starts from size low p,
    size the group's largest size_s: a multiple of p, so no residue changes,
    and large enough that no slot goes negative and borrows from the next.
    The sums of up to 1024 of a group's products per tensor are written out
    as 64-bit words (exact_algebra._words), and a strided read (_slots)
    gives one trial's slot in every product, so a trial's part of the
    left-hand side is one sum over three such reads, with no Python step
    per product; a one-word slot is read as a plain slice.  The draws
    are those of a trial-by-trial loop (per trial: A row-major, then B,
    then D, each by rng.randrange(p)), so a seed gives the same samples and
    the same verdict; they are taken as randrange takes them on CPython
    3.10-3.13, getrandbits(p.bit_length()) until a value is below p, but by
    one filter over a map, with no Python step per draw.  The check stops
    after the first batch with a failing trial.  The right-hand side takes
    every trial's A B from one call of the packed kernel
    (exact_algebra._packed_products, the trials as its nodes) and dots each
    with D's columns.
    """
    if not isinstance(trials, int) or trials < 1:
        raise BadArgument(f"trials must be a positive integer, got {trials!r}")
    field = PrimeField(prime)
    m, k, n = alg.dims
    if prime <= max(m, k, n, alg.rank):
        raise BadArgument(f"prime {prime} too small for a {alg.dims} rank-{alg.rank} program")
    tensors = (alg.u, alg.v, alg.w)
    # Each distinct coefficient is mapped once, in the order the forms meet it.
    image = dict.fromkeys(chain.from_iterable(map(dict.values, chain(*tensors))))
    try:
        for c in image:
            image[c] = (field._value(c) + prime // 2) % prime - prime // 2
    except ZeroDivisionError:
        raise BadArgument(f"coefficient {c} has no image mod {prime}") from None
    if alg.rank < generic_lower_bound(alg.dims):
        return False
    top = max(map(abs, image.values()), default=0)
    low = max(0, -min(image.values(), default=0))
    # Product s needs slots that hold size_s (top + low) p; the products run in
    # one group per slot width, each group a mask over the products.
    sizes = list(map(max, map(len, alg.u), map(len, alg.v), map(len, alg.w)))
    width = {size: _slot_words(size * (top + low) * prime) for size in set(sizes)}
    groups = {w: [width[z] == w for z in sizes] for w in set(width.values())}
    # The keys of A, B and D in the order of one trial's draws; the third
    # form reads D's entry (q, l) for w_lq.
    keys = ([(i, j) for i in range(m) for j in range(k)],
            [(g, h) for g in range(k) for h in range(n)],
            [(l, q) for q in range(n) for l in range(m)])
    mk, kn, mn = m * k, k * n, m * n

    rng = random.Random(seed)
    samples = filter(prime.__gt__, map(rng.getrandbits, repeat(prime.bit_length())))
    for start in range(0, trials, _TRIAL_BATCH):
        batch = min(_TRIAL_BATCH, trials - start)
        draws = [list(islice(samples, mk + kn + n * m)) for _ in range(batch)]
        lhs = [0] * batch
        for words, mask in groups.items():
            packed = iter(_packed(chain.from_iterable(zip(*draws)), words, batch))
            # zip stops at the end of ks before it takes from packed, so each
            # tensor gets its own run of the packed entries.
            by_key = [dict(zip(ks, packed)).__getitem__ for ks in keys]
            stride = words * batch
            # Each slot of a form sum starts from size * low * p, size the group's
            # largest: a multiple of p that keeps every slot from going negative.
            bias = max(compress(sizes, mask)) * low * prime * _packed(
                repeat(1, batch), words, batch)[0]
            # Each pass below takes the next chunk of the group's slices.
            forms = [compress(tensor, mask) for tensor in tensors]
            for _ in range(0, sum(mask), _PRODUCT_CHUNK):
                views = [_words((sum(map(mul, map(image.__getitem__, d.values()), map(value, d)),
                                     bias) for d in islice(form, _PRODUCT_CHUNK)), stride)
                         for form, value in zip(forms, by_key)]
                for t in range(batch):
                    la, lb, ld = (_slots(view, words, t * words, stride) for view in views)
                    lhs[t] += sum(map(mul, map(mul, la, lb), ld))
            del packed, by_key, views  # before the next group packs its draws
        # trace(A B D): each trial's A B, row-major, dotted with D's columns in turn.
        a, b = ([x for vals in draws for x in vals[i:j]] for i, j in ((0, mk), (mk, mk + kn)))
        ab = _packed_products(a, b, batch, m, k, n, prime)
        for t, (left, vals) in enumerate(zip(lhs, draws)):
            cols = chain.from_iterable(vals[mk + kn + i::m] for i in range(m))
            if (left - sum(map(mul, ab[t * mn:(t + 1) * mn], cols))) % prime:
                return False
    return True


def exponent(alg: BilinearAlgorithm) -> float:
    """Multiplication exponent 3 ln R / ln(mkn) of the scheme under recursion."""
    vol = alg.dims.volume
    if vol == 1:
        raise ExponentUndefined("1x1x1 has no exponent")
    return 3.0 * math.log(alg.rank) / math.log(vol)


@dataclass(frozen=True)
class RankBound:
    dims: DimensionTriple
    lower: Optional[int]
    upper: Optional[int]
    note: str = ""


def generic_lower_bound(dims: DimensionTriple) -> int:
    """Every correct program for m x k times k x n needs at least (m+n-1)k products."""
    return (dims.m + dims.n - 1) * dims.k


_TABLE = (
    RankBound(DimensionTriple(2, 2, 2), 7, 7, "tight: the rank-7 scheme is optimal"),
    RankBound(DimensionTriple(2, 3, 3), 15, 16, "gap of one between bounds"),
    RankBound(DimensionTriple(2, 3, 4), 19, None, "lower bound only"),
    RankBound(DimensionTriple(3, 3, 3), 18, None, "lower bound only"),
    RankBound(DimensionTriple(2, 4, 4), None, 27, "upper bound only"),
)


@dataclass(frozen=True)
class KnownRankBounds:
    entries: tuple = _TABLE
    rules: tuple = (
        "rank(2,2,n) >= 3n+2 for n >= 3",
        "rank(m,k,n) >= (m+n-1)k",
    )

    def lookup(self, dims: DimensionTriple) -> RankBound:
        """Best known bounds for literal dims (no permutation normalization)."""
        if not isinstance(dims, DimensionTriple):
            dims = DimensionTriple(*dims)
        lower = generic_lower_bound(dims)
        upper = None
        notes = ["(m+n-1)k"]
        if dims.m == 2 and dims.k == 2 and dims.n >= 3:
            special = 3 * dims.n + 2
            if special > lower:
                lower = special
                notes = ["3n+2"]
        for row in self.entries:
            if row.dims == dims:
                if row.lower is not None and row.lower > lower:
                    lower = row.lower
                    notes = ["table"]
                upper = row.upper
                break
        return RankBound(dims, lower, upper, "source: " + ", ".join(notes))


def known_bounds() -> KnownRankBounds:
    return KnownRankBounds()


def sanity_rank_lower_bound(alg: BilinearAlgorithm) -> bool:
    """True when the program's rank respects the generic lower bound."""
    return alg.rank >= generic_lower_bound(alg.dims)
