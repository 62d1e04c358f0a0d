"""Bilinear matrix-multiplication programs and their verification.

A bilinear algorithm for multiplying an m x k matrix A by a k x n matrix B
is a list of R products P_s = (sum_ij u^s_ij a_ij) * (sum_gh v^s_gh b_gh)
together with output coefficients w, so that c_lq = sum_s w^s_lq P_s.  The
coefficient tensors are stored sparsely: one dict per product, keyed by the
index pair, holding nonzero exact rationals in one canonical form: an int
when the value is integral, else a Fraction with denominator > 1.  The
constructor makes that choice once, so every later step (verification, the
transforms, the writer, the evaluator) does int arithmetic on the integral
coefficients that the shipped programs consist of.  The generators, the
transforms and the reader of canonical text build slices in that form
themselves and hand them to BilinearAlgorithm._from_slices, which checks
nothing; the public constructor checks and cleans every coefficient.

Correctness is equivalent to the coefficient equations

    sum_s u^s_ij v^s_gh w^s_lq = [i == l] [j == g] [h == q]

(one equation per (l, q, i, j, g, h)), checked exactly by verify_brent.
The same condition can be tested probabilistically through the trilinear
trace identity sum_s l_s(A) l'_s(B) l''_s(D) = trace(A B D) at random
matrices over GF(p), where the third linear form reads D transposed:
l''_s(D) = sum_lq w^s_lq d_ql with D of shape n x m.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter, lshift, mul, or_
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import BadArgument, DimensionError, ExponentUndefined, FormatError
from .exact_algebra import (
    PrimeField, _classical, _exact, _packed, _read_header, _read_text, _records, _shown,
    _unwritable, _write_text,
)

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
    out = []
    for s, entries in enumerate(slices):
        d = {}
        for (r, c), val in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionError(
                    f"{name}[{s}] entry ({r},{c}) outside {rows}x{cols}"
                )
            if type(val) is not int:
                if isinstance(val, Fraction):
                    val = val.numerator if val.denominator == 1 else val
                elif isinstance(val, int):
                    val = int(val)
                else:
                    raise BadArgument(
                        f"{name}[{s}] entry ({r},{c}) is {val!r}, not an exact "
                        f"integer or Fraction"
                    )
            if val:
                d[(r, c)] = val
        out.append(d)
    return tuple(out)


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
    """Operation counts; the recursion (recursion._multiply_levels) tallies
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
    whose denominator is divisible by prime raises BadArgument.

    Trials run in batches of up to 64 (Kronecker substitution): each entry
    of A, B and D holds its values for the whole batch as slots of one int,
    so a linear form is one bigint sum per product for every trial at once.
    A slot is the fewest 64-bit words that hold (most nonzeros in a slice)
    * (p-1)^2, so a form's sum never carries into the next slot.  The sums
    of up to 1024 products per tensor are written to bytes, one to_bytes
    per product, and read back as 64-bit words: a strided view holds one
    word of one trial's slot in every product, so a trial's part of the
    left-hand side is one sum over three views, with no Python step per
    product.  The draws are those of a trial-by-trial loop (per trial: A
    row-major, then B, then D, each by rng.randrange(p)), so a seed gives
    the same samples and the same verdict; the check stops after the first
    batch with a failing trial.  The right-hand side runs per trial on
    plain ints: A B by the classical kernel (exact_algebra._classical),
    dotted with D's columns.
    """
    if not isinstance(trials, int) or trials < 1:
        raise BadArgument(f"trials must be a positive integer, got {trials!r}")
    field = PrimeField(prime)
    m, k, n = alg.dims
    if prime <= max(m, k, n, alg.rank):
        raise BadArgument(
            f"prime {prime} too small for a {alg.dims} rank-{alg.rank} program"
        )
    tensors = (alg.u, alg.v, alg.w)
    # Each distinct coefficient is mapped once, in the order the forms meet it.
    image = dict.fromkeys(c for tensor in tensors for d in tensor for c in d.values())
    try:
        for c in image:
            image[c] = field._value(c)
    except ZeroDivisionError:
        raise BadArgument(f"coefficient {c} has no image mod {prime}") from None
    words = max(1, -(-(max(map(len, chain(*tensors))) * (prime - 1) ** 2).bit_length() // 64))
    # The keys of A, B and D in the order of one trial's draws; the third
    # form reads D's entry (q, l) for w_lq.
    keys = ([(i, j) for i in range(m) for j in range(k)],
            [(g, h) for g in range(k) for h in range(n)],
            [(l, q) for q in range(n) for l in range(m)])
    mk, kn = m * k, k * n

    rng = random.Random(seed)
    for start in range(0, trials, _TRIAL_BATCH):
        batch = min(_TRIAL_BATCH, trials - start)
        draws = [[rng.randrange(prime) for _ in range(mk + kn + n * m)] for _ in range(batch)]
        packed = iter([_packed(column, 8 * words) for column in zip(*draws)])
        # zip stops at the end of ks before it takes from packed, so each
        # tensor gets its own run of the packed entries.
        by_key = [dict(zip(ks, packed)).__getitem__ for ks in keys]
        size, stride = 8 * words * batch, words * batch
        # Written in the host's byte order, a product's sum reads back as
        # native words, lowest first on a little-endian host and highest
        # first on a big-endian one: place[i] is where its i-th lowest sits.
        place = range(stride) if sys.byteorder == "little" else range(stride - 1, -1, -1)
        lhs = [0] * batch
        for first in range(0, alg.rank, _PRODUCT_CHUNK):
            views = [memoryview(b"".join(
                sum(map(mul, map(image.__getitem__, d.values()), map(value, d)))
                .to_bytes(size, sys.byteorder) for d in tensor[first:first + _PRODUCT_CHUNK]
            )).cast("Q") for tensor, value in zip(tensors, by_key)]
            for t in range(batch):
                la, lb, ld = (_slots(view, place[t * words:(t + 1) * words], stride)
                              for view in views)
                lhs[t] += sum(map(mul, map(mul, la, lb), ld))
        for left, vals in zip(lhs, draws):
            # trace(A B D): A B, row-major, dotted with D's columns in turn.
            ab = _classical(vals[:mk], vals[mk:mk + kn], m, k, n, None)
            d = vals[mk + kn:]
            if (left - sum(map(mul, ab, chain.from_iterable(d[i::m] for i in range(m))))) % prime:
                return False
    return True


def _slots(view, places, stride: int):
    """The values of one slot in each block of stride 64-bit words of view:
    the words at places in the block, lowest first."""
    values = view[places[0]::stride]
    for w in range(1, len(places)):
        values = map(or_, values, map(lshift, view[places[w]::stride], repeat(64 * w)))
    return values


class _Program(NamedTuple):
    """A BilinearAlgorithm compiled for evaluation, cleared of denominators.

    u[s] and v[s] list (index, coefficient) over the row-major entries of A
    and B; w[l*n + q] lists (product index, coefficient) for output entry
    (l, q).  Every coefficient is an int: product s's U form is scaled by
    du_s and its V form by dv_s, the lcms of their denominators, and its W
    terms by denominator / (du_s * dv_s), where denominator is the lcm over
    s of du_s * dv_s * dw_s.  One evaluation then gives denominator times
    the product.  form_additions and form_scalar_mults are the operations
    of one evaluation in the (U, V, W) combinations, which act on blocks of
    three different shapes when the recursion runs the program on a
    rectangular product: a term beyond the first in any combination costs
    an addition, a coefficient outside {1, -1} a scalar multiplication.
    Both are decided on the rational coefficients, whatever ring runs the
    program.
    """

    u: tuple
    v: tuple
    w: tuple
    denominator: int
    form_additions: tuple
    form_scalar_mults: tuple


def _compile(alg: BilinearAlgorithm) -> _Program:
    m, k, n = alg.dims
    du, dv, dw = ([math.lcm(*(c.denominator for c in d.values())) for d in t]
                  for t in (alg.u, alg.v, alg.w))
    denominator = math.lcm(*map(mul, map(mul, du, dv), dw))

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
        u, v, w, denominator,
        form_additions=tuple(sum(max(0, len(terms) - 1) for terms in f) for f in (u, v, w)),
        form_scalar_mults=tuple(sum(c != 1 and c != -1 for d in t for c in d.values())
                                for t in (alg.u, alg.v, alg.w)),
    )


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


# ---------------------------------------------------------------------------
# Algorithm text format.
#
# Header line:  mmalg-v1 m k n R
# Then, for each product s = 1..R, three labeled blocks
#     U / V / W, each holding lines "i j value" (0-based indices, value an
# integer or p/q fraction, read by exact_algebra._exact).  The canonical
# writer sorts entries within a block and separates products by a blank
# line; the reader accepts entries in any order and arbitrary blank lines.
#
# parse_algorithm reads text in the writer's exact form (_HEADER, then one
# _PRODUCT per product: "\n" line ends, one space between tokens, no '+',
# no leading zero and no zero coefficient, at most one blank line after a
# product) in bulk, with no Python step per line.  Any other text, and
# writer-form text that fails a check (an index outside its block, a
# duplicate entry, a product count other than R, a number past Python's
# int-string digit limit), goes unchanged to the line reader _parse_lines,
# the one source of FormatErrors.
# ---------------------------------------------------------------------------

_MAGIC = "mmalg-v1"
_POSITIVE = "[1-9][0-9]*"
_ENTRY = rf"(?:0|{_POSITIVE}) (?:0|{_POSITIVE}) -?{_POSITIVE}(?:/{_POSITIVE})?\n"
_HEADER = re.compile(rf"{_MAGIC} ({_POSITIVE}) ({_POSITIVE}) ({_POSITIVE}) ({_POSITIVE})\n")
_PRODUCT = re.compile(rf"U\n(?:{_ENTRY})*V\n(?:{_ENTRY})*W\n(?:{_ENTRY})*\n?")
_FRACTION = re.compile(r"(-?[0-9]+/[0-9]+)")


def format_algorithm(alg: BilinearAlgorithm) -> str:
    m, k, n = alg.dims
    lines = [f"{_MAGIC} {m} {k} {n} {alg.rank}"]
    try:
        for s in range(alg.rank):
            if s:
                lines.append("")
            for label, d in (("U", alg.u[s]), ("V", alg.v[s]), ("W", alg.w[s])):
                lines.append(label)
                for (r, c) in sorted(d):
                    lines.append(f"{r} {c} {d[(r, c)]}")
    except ValueError:
        raise _unwritable(
            (f"{name}[{s}] entry ({r},{c})", x)
            for name, tensor in (("u", alg.u), ("v", alg.v), ("w", alg.w))
            for s, d in enumerate(tensor)
            for (r, c), x in d.items()
        ) from None
    return "\n".join(lines) + "\n"


def _read_canonical(text: str) -> Optional[BilinearAlgorithm]:
    """The program that text in the writer's exact form holds, or None when
    text is in another form or fails a check (see the text-format comment).

    String replacements turn the blocks into one JSON list of numbers each
    (a label line becomes "],[" and an entry line "i,j,value,"), with each
    p/q quoted as a string, so json.loads reads every number; each block is
    then one dict built by C-level calls.
    """
    header = _HEADER.match(text)
    if header is None:
        return None
    body = text[header.end():]
    # The body is in the writer's form when removing every _PRODUCT match
    # leaves nothing.  Matching one product at a time keeps the regex
    # engine's backtracking state to one product, not the whole text.
    rest, products = _PRODUCT.subn("", body)
    if rest:
        return None
    body = body.replace("\n\n", "\n")
    fractional = "/" in body
    if fractional:
        # split keeps each p/q (the group) between the texts around it
        body = '"'.join(_FRACTION.split(body))
    for label in "UVW":
        body = body.replace(label + "\n", "],[")
    body = ("[[" + body[3:].replace(" ", ",").replace("\n", ",") + "]]").replace(",]", "]")
    try:
        m, k, n, rank = map(int, header.groups())
        if products != rank:
            return None
        blocks = json.loads(body)
        slices = [dict(zip(zip(it, it), it)) for it in map(iter, blocks)]
        if 3 * sum(map(len, slices)) != sum(map(len, blocks)):
            return None
        if fractional:
            slices = [_canonical({key: c if type(c) is int else _exact(c) for key, c in d.items()})
                      for d in slices]
    except ValueError:
        return None
    u, v, w = slices[0::3], slices[1::3], slices[2::3]
    for tensor, rows, cols in ((u, m, k), (v, k, n), (w, m, n)):
        keys = set().union(*tensor)
        if keys and (max(keys)[0] >= rows or max(map(itemgetter(1), keys)) >= cols):
            return None
    return BilinearAlgorithm._from_slices(DimensionTriple(m, k, n), rank, u, v, w)


def parse_algorithm(text: str) -> BilinearAlgorithm:
    """The program of a text in the format above: read in bulk when the text
    is in the writer's exact form, else line by line."""
    alg = _read_canonical(text)
    return _parse_lines(text) if alg is None else alg


def _parse_lines(text: str) -> BilinearAlgorithm:
    """The line reader: any text in the format, or a FormatError naming the
    first line at fault."""
    records = _records(text)
    m, k, n, rank = _read_header(records, _MAGIC, ("m", "k", "n", "R"), "algorithm")
    shapes = {"U": (m, k), "V": (k, n), "W": (m, n)}
    order = ("U", "V", "W")
    u, v, w = [], [], []
    dest = {"U": u, "V": v, "W": w}
    current = None  # (label, dict)
    blocks_seen = 0

    for lineno, tokens in records:
        if not tokens:
            break
        if len(tokens) == 1 and tokens[0] in shapes:
            label = tokens[0]
            want = order[blocks_seen % 3]
            if label != want:
                raise FormatError(lineno, f"expected block '{want}', found '{label}'")
            if blocks_seen >= 3 * rank:
                raise FormatError(lineno, f"more than {rank} products in file")
            current = (label, {})
            dest[label].append(current[1])
            blocks_seen += 1
            continue
        if current is None:
            raise FormatError(lineno, "coefficient entry before any block label")
        if len(tokens) != 3:
            raise FormatError(lineno, "expected 'i j value'")
        try:
            r, c = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(lineno, "indices must be integers") from None
        try:
            val = _exact(tokens[2])
        except (ValueError, ZeroDivisionError):
            raise FormatError(lineno, f"bad coefficient {_shown(tokens[2])}") from None
        label, block = current
        rows, cols = shapes[label]
        if not (0 <= r < rows and 0 <= c < cols):
            raise FormatError(
                lineno, f"index ({r},{c}) outside {rows}x{cols} block '{label}'"
            )
        if (r, c) in block:
            raise FormatError(lineno, f"duplicate entry ({r},{c}) in block '{label}'")
        block[(r, c)] = val

    if blocks_seen != 3 * rank:
        raise FormatError(
            lineno,
            f"file ends after {blocks_seen} blocks; rank {rank} needs {3 * rank}",
        )
    return BilinearAlgorithm(DimensionTriple(m, k, n), rank, u, v, w)


def load_algorithm(path) -> BilinearAlgorithm:
    return parse_algorithm(_read_text(path))


def dump_algorithm(alg: BilinearAlgorithm, path) -> None:
    _write_text(path, format_algorithm(alg))
