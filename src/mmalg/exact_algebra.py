"""Exact scalar and matrix arithmetic.

Everything in this package computes over an exact ring: arbitrary-precision
rationals (``QQ``) or a prime field (``PrimeField(p)``).  Rationals are
``fractions.Fraction`` values, which are always stored in lowest terms with a
positive denominator, so equality is plain structural equality.  Matrices are
dense, row-major and immutable.

A Matrix stores raw values: ints in [0, p) over GF(p), the Fractions
themselves over QQ.  Its constructor takes every entry through the ring once;
ring elements (``ModularScalar`` over GF(p)) appear only where a caller reads
a scalar: ``entries``, ``m[r, c]`` and ``to_rows()``.  Only this module knows
the raw form.  Each ring carries its raw arithmetic as private members, which
every other module uses:

- ``_modulus``: p, or None over QQ, where raw values are never reduced;
- ``_value(x)``: an int, a Fraction or a ring element as a raw value;
  ``_element(v)`` and ``_elements(values)`` turn raw values into elements;
- ``_clear`` and ``_restore``: over QQ, ``_clear`` scales each row (or each
  column) of raw values by the lcm of its denominators to Python ints and
  returns those lcms, and ``_restore`` divides entry (i, j) of an int
  result by its row and column scales back into Fractions; over GF(p)
  ``_clear`` returns the values unchanged, with scales of 1, and
  ``_restore`` reduces an int result of any size mod p.  ``_quotient``
  divides cleared values exactly: ``//`` over QQ, times d^-1 mod p over
  GF(p), and ``_normal(ints, d)`` puts a block ints / d of cleared values
  in normal form: over QQ with d > 0 and gcd(d, *ints) divided out, over
  GF(p) times d^-1 mod p, so that d = 1.

Matrix sums, negation and scaling compute on the raw values and take each
result through ``_value``; program evaluation (recursion) is exact list
arithmetic on ints, with a program's coefficients cleared to ints over one
denominator (bilinear_core._compile), and reduces once, through
``_restore``.

So QQ products (recursion.recursive_multiply), block inversion
(recursion.recursive_invert) and mat_inverse's fraction-free elimination
run on ints, with one Fraction per output entry.  The two inverses share
the elimination (_bareiss, which gives d times the inverse of the cleared
matrix) and the conversion of its result into the inverse
(_cleared_inverse).
Two flat kernels multiply raw row-major operands: _classical, the plain
loop with one reduction mod p per dot product (none over QQ, where it takes
ints or Fractions alike), and over GF(p) _packed_classical, which packs
each row of B into one int (Kronecker substitution) with _packed and reads
the slots of a row of C back with _unpacked.  The batched trace-identity
verifier (bilinear_core) packs its trials with _packed too.

A small text format for matrices is provided: a ``rows cols`` header line
followed by one whitespace-separated row per line, entries written as
integers or ``p/q`` fractions.  Writing and re-reading a matrix reproduces it
exactly.  The program and transform formats share its conventions, and the
private helpers here (_read_text, _records, _read_header, _exact, _shown,
_read_rows, _row_lines, _write_text) read and write all three.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import cycle, repeat
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence

from .errors import BadArgument, BadField, DimensionError, FormatError, SingularMatrix

# The exact scalar of QQ: lowest terms, positive denominator.  Program
# coefficients take it only when they are not integral (bilinear_core).
Rational = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_KNOWN_PRIMES: set[int] = set()


def _require_prime(p: int) -> None:
    if p not in _KNOWN_PRIMES:
        if not isinstance(p, int) or not is_prime(p):
            raise BadField(f"modulus {p!r} is not prime")
        _KNOWN_PRIMES.add(p)


class ModularScalar:
    """An element of GF(p), stored reduced to [0, p).

    Arithmetic mixes freely with Python ints (reduced mod p).  Mixing two
    scalars with different moduli is an error.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        _require_prime(p)
        self.value = value % p
        self.p = p

    def _lift(self, other) -> Optional[int]:
        if isinstance(other, ModularScalar):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModularScalar(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModularScalar(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModularScalar(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModularScalar(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return ModularScalar(-self.value, self.p)

    def inverse(self) -> "ModularScalar":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return ModularScalar(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return ModularScalar(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is None:
            return NotImplemented
        return ModularScalar(v, self.p) / self

    def __eq__(self, other):
        if isinstance(other, ModularScalar):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModularScalar({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """The field of exact rationals.  Use the module-level singleton QQ."""

    zero = Fraction(0)
    one = Fraction(1)

    # Raw values are the Fractions themselves; see the module docstring.
    _modulus = None

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise BadArgument(f"cannot coerce {x!r} into QQ: not an int or Fraction")

    from_rational = _value = coerce

    def _element(self, v: Fraction) -> Fraction:
        return v

    def _elements(self, values: tuple) -> tuple:
        return values

    def _clear(self, values: Sequence, cols: int, by_columns: bool = False) -> tuple:
        """(ints, scales): each row of the raw row-major values (each column,
        by_columns) times the lcm of its denominators, and those lcms."""
        if by_columns:
            scales = [lcm(*(x.denominator for x in values[j::cols])) for j in range(cols)]
            each = scales * (len(values) // cols)
        else:
            scales = [lcm(*(x.denominator for x in values[i:i + cols]))
                      for i in range(0, len(values), cols)]
            each = [s for s in scales for _ in range(cols)]
        return [x.numerator * (s // x.denominator) for x, s in zip(values, each)], scales

    def _restore(self, values: Sequence, row_scales: Sequence, col_scales: Sequence) -> list:
        """Entry (i, j) of the raw row-major values over row_scales[i] * col_scales[j]."""
        n = len(col_scales)
        return [Fraction(v, r * c) for r, i in zip(row_scales, range(0, len(values), n))
                for v, c in zip(values[i:i + n], col_scales)]

    def _quotient(self, values: Sequence, d: int) -> list:
        """The cleared values divided by d, which divides each of them."""
        return [v // d for v in values]

    def _normal(self, values: Sequence, d: int) -> tuple:
        """The block values / d as (ints, e) with e > 0 and gcd(e, *ints) = 1."""
        g = gcd(d, *values)
        if d < 0:
            g = -g
        if g == 1:
            return values, d
        return [v // g for v in values], d // g

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """GF(p) for prime p.  Primality is checked at construction."""

    def __init__(self, p: int):
        _require_prime(p)
        self.p = p
        self.zero = ModularScalar(0, p)
        self.one = ModularScalar(1, p)
        # Raw values are ints in [0, p); see the module docstring.
        self._modulus = p

    def coerce(self, x) -> ModularScalar:
        return self._element(self._value(x))

    from_rational = coerce

    def _value(self, x) -> int:
        p = self.p
        if isinstance(x, int):
            return x % p
        if isinstance(x, ModularScalar):
            if x.p != p:
                raise ValueError(f"mixed moduli {p} and {x.p}")
            return x.value
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(den, -1, p) % p
        raise BadArgument(
            f"cannot coerce {x!r} into GF({p}): not an int, Fraction or ModularScalar"
        )

    def _element(self, v: int) -> ModularScalar:
        # v is already in [0, p): skip ModularScalar.__init__'s check and %.
        x = ModularScalar.__new__(ModularScalar)
        x.value = v
        x.p = self.p
        return x

    def _elements(self, values: tuple) -> tuple:
        return tuple(map(self._element, values))

    def _clear(self, values: Sequence, cols: int, by_columns: bool = False) -> tuple:
        return values, [1] * (cols if by_columns else len(values) // cols)

    def _restore(self, values: Sequence, row_scales: Sequence, col_scales: Sequence) -> list:
        p = self.p
        return [v % p for v in values]

    def _quotient(self, values: Sequence, d: int) -> list:
        p = self.p
        q = pow(d, -1, p)
        return [v * q % p for v in values]

    def _normal(self, values: Sequence, d: int) -> tuple:
        return self._quotient(values, d), 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# Ring annotations in this package are strings (from __future__ import
# annotations) and are never evaluated.  A module-level alias such as
# Union[RationalField, PrimeField] would enter both classes in typing's
# cache, which would keep every earlier import of the package alive.


class Matrix:
    """Dense immutable matrix over an exact ring, stored row-major as raw values."""

    __slots__ = ("ring", "rows", "cols", "_values")

    def __init__(self, ring: RationalField | PrimeField, rows: int, cols: int, entries: Iterable):
        """entries, row-major, are ints, Fractions or elements of ring."""
        if rows < 1 or cols < 1:
            raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")
        values = tuple(map(ring._value, entries))
        if len(values) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(values)}"
            )
        self.ring, self.rows, self.cols, self._values = ring, rows, cols, values

    @classmethod
    def _from_values(cls, ring: RationalField | PrimeField, rows: int, cols: int,
                     values: Iterable) -> "Matrix":
        """The rows x cols Matrix of raw row-major values, taken as they are."""
        a = cls.__new__(cls)
        a.ring, a.rows, a.cols, a._values = ring, rows, cols, tuple(values)
        return a

    @classmethod
    def from_rows(cls, ring: RationalField | PrimeField, rows: Sequence[Sequence]) -> "Matrix":
        """Build from a list of row lists; entries are coerced into the ring."""
        if not rows or not rows[0]:
            raise DimensionError("matrix dimensions must be positive")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise DimensionError("ragged rows")
        return cls(ring, len(rows), width, [x for row in rows for x in row])

    @classmethod
    def identity(cls, ring: RationalField | PrimeField, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return cls(ring, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring: RationalField | PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, [ring.zero] * (rows * cols))

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block grid; blocks in a row share height, in a column width."""
        ring = grid[0][0].ring
        heights = [row[0].rows for row in grid]
        widths = [blk.cols for blk in grid[0]]
        for bi, row in enumerate(grid):
            if len(row) != len(widths):
                raise DimensionError("ragged block grid")
            for bj, blk in enumerate(row):
                if blk.ring != ring:
                    raise ValueError("mixed rings")
                if blk.rows != heights[bi] or blk.cols != widths[bj]:
                    raise DimensionError("block shapes do not tile")
        values = []
        for bi, row in enumerate(grid):
            for r in range(heights[bi]):
                for blk in row:
                    base = r * blk.cols
                    values.extend(blk._values[base : base + blk.cols])
        return cls._from_values(ring, sum(heights), sum(widths), values)

    @property
    def entries(self) -> tuple:
        """The entries, row-major, as ring elements (over QQ, the stored tuple)."""
        return self.ring._elements(self._values)

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(rc)
        return self.ring._element(self._values[r * self.cols + c])

    def to_rows(self) -> list:
        n = self.cols
        e = self.entries
        return [list(e[i * n : (i + 1) * n]) for i in range(self.rows)]

    def _check_same_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _like(self, values) -> "Matrix":
        """A Matrix of self's ring and shape holding values, raw values
        computed from self's, each taken through the ring's _value."""
        ring = self.ring
        return Matrix._from_values(ring, self.rows, self.cols, map(ring._value, values))

    def __add__(self, other):
        self._check_same_shape(other)
        return self._like(map(add, self._values, other._values))

    def __sub__(self, other):
        self._check_same_shape(other)
        return self._like(map(sub, self._values, other._values))

    def __neg__(self):
        return self._like(map(neg, self._values))

    def scale(self, s) -> "Matrix":
        """s times self; s is an int, a Fraction or an element of the ring."""
        return self._like(map(mul, repeat(self.ring._value(s)), self._values))

    def __matmul__(self, other):
        return mat_classical_multiply(self, other)

    def transpose(self) -> "Matrix":
        e = self._values
        n = self.cols
        return Matrix._from_values(
            self.ring, n, self.rows,
            [e[r * n + c] for c in range(n) for r in range(self.rows)],
        )

    def submatrix(self, r0: int, c0: int, rows: int, cols: int) -> "Matrix":
        if r0 < 0 or c0 < 0 or r0 + rows > self.rows or c0 + cols > self.cols:
            raise DimensionError("submatrix out of range")
        e = self._values
        w = self.cols
        out = []
        for r in range(r0, r0 + rows):
            base = r * w + c0
            out.extend(e[base : base + cols])
        return Matrix._from_values(self.ring, rows, cols, out)

    def embed(self, rows: int, cols: int) -> "Matrix":
        """Return a rows x cols matrix with self in the top-left corner, zeros elsewhere."""
        if rows < self.rows or cols < self.cols:
            raise DimensionError("embedding target smaller than matrix")
        ring = self.ring
        return Matrix._from_values(ring, rows, cols, _padded(self._values, self.rows, self.cols,
                                                             rows, cols, ring._value(0)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self._values))

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over {self.ring!r}>"


def _padded(values: Sequence, rows: int, cols: int, prows: int, pcols: int, zero=0) -> Sequence:
    """Row-major rows x cols values embedded with zero into prows x pcols."""
    if (rows, cols) == (prows, pcols):
        return values
    pad = [zero] * (pcols - cols)
    out = []
    for i in range(0, rows * cols, cols):
        out += values[i:i + cols]
        out += pad
    return out + [zero] * ((prows - rows) * pcols)


def _classical(ae: Sequence, be: Sequence, m: int, k: int, n: int, p: Optional[int]) -> list:
    """Raw row-major m x n product of raw row-major m x k and k x n operands.

    Each dot product is summed unreduced and reduced mod p once (not at all
    when p is None).  The sum starts from its first term, so a QQ entry
    never adds an int 0 to a Fraction.  It serves the oracle
    mat_classical_multiply and the recursion's QQ leaves; GF(p) leaves run
    _packed_classical.
    """
    cols = [be[j::n] for j in range(n)]
    out = []
    for i in range(0, m * k, k):
        row = ae[i:i + k]
        for col in cols:
            terms = map(mul, row, col)
            out.append(sum(terms, next(terms)))
    return out if p is None else [x % p for x in out]


def _packed(values, width: int) -> int:
    """The values (each below 2^(8 width)) as consecutive width-byte slots."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))), "little"
    )


def _unpacked(x: int, slots: list):
    """The slot values of x, one per slice in slots (the inverse of _packed)."""
    return map(int.from_bytes, map(x.to_bytes(slots[-1].stop, "little").__getitem__, slots),
               repeat("little"))


def _packed_classical(ae: Sequence, be: Sequence, m: int, k: int, n: int, p: int) -> list:
    """Raw row-major m x n product mod p of row-major operands of any ints,
    each entry reduced to [0, p).

    Kronecker substitution (Dumas, Fousse and Salvy, J. Symbolic Comput.
    2011): the operands are reduced mod p first, and each row of B becomes
    one int of n slots of w bytes (_packed), w enough for k * (p-1)^2, so
    that row i of C is the one sum of a_ij times packed row j, whose slots
    never carry into each other.
    """
    ae = [x % p for x in ae]
    width = -(-(k * (p - 1) ** 2).bit_length() // 8)
    packed = [_packed([x % p for x in be[j:j + n]], width) for j in range(0, k * n, n)]
    slots = [slice(j, j + width) for j in range(0, n * width, width)]
    out = []
    for i in range(0, m * k, k):
        out += [x % p for x in _unpacked(sum(map(mul, ae[i:i + k], packed)), slots)]
    return out


def _product_dims(a: Matrix, b: Matrix) -> tuple:
    """(m, k, n) of the product of an m x k matrix a and a k x n matrix b;
    raises TypeError, ValueError or DimensionError for any other operands."""
    if not isinstance(a, Matrix) or not isinstance(b, Matrix):
        raise TypeError("expected matrices")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return a.rows, a.cols, b.cols


def _square_side(a: Matrix) -> int:
    """The side of the square matrix a; raises TypeError or DimensionError
    for any other operand."""
    if not isinstance(a, Matrix):
        raise TypeError("expected a Matrix")
    if a.rows != a.cols:
        raise DimensionError("only square matrices have inverses")
    return a.rows


def mat_classical_multiply(a: Matrix, b: Matrix) -> Matrix:
    """Plain triple-loop product, run on raw values (see _classical).

    Over QQ it runs on the Fractions themselves, with no denominator
    clearing, so it stays the independent oracle for the cleared-integer
    paths of recursion.recursive_multiply and mat_inverse; over GF(p) it
    shares no kernel with the recursion, whose leaves run _packed_classical.
    """
    m, k, n = _product_dims(a, b)
    ring = a.ring
    return Matrix._from_values(ring, m, n,
                               _classical(a._values, b._values, m, k, n, ring._modulus))


def _bareiss(ring: RationalField | PrimeField, values: Sequence, n: int) -> tuple:
    """(right, d) for the n x n cleared values a': right, row-major, is
    d * a'^-1 and d the last pivot of fraction-free Gauss-Jordan elimination
    with row pivoting (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968).

    One loop eliminates on [a' | I]: at each column every row other than the
    pivot row becomes (piv * row - f * pivot_row) / prev, prev the previous
    pivot, a division the ring's _quotient makes exact (// on the QQ
    integers, times prev^-1 mod p over GF(p), whose values must lie in
    [0, p)).  The left half ends as d * I.  Raises SingularMatrix when a
    column has no pivot.
    """
    rows = [[*values[i * n:(i + 1) * n], *(int(i == j) for j in range(n))] for i in range(n)]
    # Each step drops the column it eliminates, so rows[r][0] is always the
    # current column and the right half is rows[r][-n:].
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][0]), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        piv, *top = rows[col]
        for r in range(n):
            if r != col:
                row = rows[r]
                f = row[0]
                rows[r] = ring._quotient([piv * x - f * y for x, y in zip(row[1:], top)], prev)
        rows[col] = top
        prev = piv
    return [x for row in rows for x in row], prev


def _cleared_inverse(ring: RationalField | PrimeField, n: int, right: Sequence, d: int,
                     scales: Sequence) -> Matrix:
    """The inverse of an n x n matrix a whose row j the ring's _clear scaled
    by s_j = scales[j] to a', given right / d = a'^-1: since a^-1 = a'^-1 S,
    entry (i, j) is right[i][j] * s_j / d, one raw value built per entry."""
    right, d = ring._normal(right, d)
    return Matrix._from_values(ring, n, n, ring._restore(
        [x * s for x, s in zip(right, cycle(scales))], [d] * n, [1] * n))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by fraction-free elimination (_bareiss).

    Row j of a is first scaled by the ring's _clear to a' (times the lcm s_j
    of its denominators over QQ, unchanged with s_j = 1 over GF(p)).
    _bareiss then gives d * a'^-1 on the integers, and _cleared_inverse
    turns it into the inverse, one value per entry: right[i][j] * s_j / d.
    recursion.recursive_invert shares both steps.  Works over either field
    ring; raises SingularMatrix when no inverse exists.
    """
    n = _square_side(a)
    ring = a.ring
    cleared, scales = ring._clear(a._values, n)
    return _cleared_inverse(ring, n, *_bareiss(ring, cleared, n), scales)


def random_matrix(ring: RationalField | PrimeField, rows: int, cols: int, rng) -> Matrix:
    """Uniform entries over GF(p); small random rationals over QQ."""
    p = ring._modulus
    if p is not None:
        values = [rng.randrange(p) for _ in range(rows * cols)]
    else:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows * cols)]
    return Matrix._from_values(ring, rows, cols, values)


def _decode(data: bytes) -> str:
    """data as UTF-8 text; an undecodable byte raises FormatError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte, plus the one it starts
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        return _decode(fh.read())


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _records(text: str):
    """Yield (1-based line number, tokens) for each non-blank line of text.

    A last (number of the final line, []) record marks the end of the text,
    so a reader that runs out reports the line where the text stopped.
    """
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            yield lineno, tokens
    yield lineno or 1, []


def _read_header(records, magic, names, what: str) -> list:
    """Read a header record: magic (unless None), then one positive integer per name."""
    lineno, tokens = next(records)
    if not tokens:
        raise FormatError(1, f"empty {what} file")
    lead = [] if magic is None else [magic]
    if len(tokens) != len(lead) + len(names) or tokens[: len(lead)] != lead:
        raise FormatError(lineno, f"expected '{' '.join(lead + list(names))}' header")
    try:
        values = [int(t) for t in tokens[len(lead):]]
    except ValueError:
        raise FormatError(lineno, "header dimensions must be integers") from None
    if min(values) < 1:
        raise FormatError(lineno, "header dimensions must be positive")
    return values


_EXACT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _exact(tok: str) -> int | Fraction:
    """The value of an entry token: an optional sign, ASCII digits, and
    optionally '/' and ASCII digits.  A token without '/' is an int, one
    with it a Fraction in lowest terms (so '4/2' is Fraction(2)).

    Any other token, or one past Python's integer-string conversion limit,
    raises ValueError; a zero denominator raises ZeroDivisionError.
    """
    match = _EXACT.fullmatch(tok)
    if match is None:
        raise ValueError(tok)
    num, den = match.groups()
    return int(num) if den is None else Fraction(int(num), int(den))


def _shown(tok: str) -> str:
    """tok quoted for an error message, cut after its first 20 characters."""
    return repr(tok if len(tok) <= 20 else tok[:20] + "...")


def _read_rows(records, rows: int, cols: int, ring: RationalField | PrimeField) -> Matrix:
    """Read rows records of cols exact entries (see _exact) each."""
    value = ring._value
    flat = []
    for found in range(rows):
        lineno, tokens = next(records)
        if not tokens:
            raise FormatError(lineno, f"expected {rows} rows, found {found}")
        if len(tokens) != cols:
            raise FormatError(lineno, f"expected {cols} entries, found {len(tokens)}")
        for tok in tokens:
            try:
                flat.append(value(_exact(tok)))
            except (ValueError, ZeroDivisionError):
                raise FormatError(lineno, f"bad entry {_shown(tok)}") from None
    return Matrix._from_values(ring, rows, cols, flat)


def _unwritable(named) -> BadArgument:
    """The error for the first (name, value) of named that str() refuses.

    str() of an integer past Python's integer-string conversion limit (4,300
    digits by default) raises ValueError; a writer that meets it calls this
    to name the entry.
    """
    for name, x in named:
        try:
            str(x)
        except ValueError:
            break
    return BadArgument(
        f"{name} has more than {sys.get_int_max_str_digits()} digits, "
        "Python's integer-string conversion limit"
    )


def _row_lines(a: Matrix, name: str = "entry") -> list:
    """One line per row of a, entries separated by single spaces."""
    e, n = a._values, a.cols
    try:
        return [" ".join(map(str, e[i : i + n])) for i in range(0, len(e), n)]
    except ValueError:
        named = ((f"{name} ({i // n},{i % n})", x) for i, x in enumerate(e))
        raise _unwritable(named) from None


def format_matrix(a: Matrix) -> str:
    """Render in the matrix text format; exact round-trip with parse_matrix."""
    return "\n".join([f"{a.rows} {a.cols}", *_row_lines(a)]) + "\n"


def parse_matrix(text: str, ring: RationalField | PrimeField = QQ) -> Matrix:
    """Parse the matrix text format.  Raises FormatError with a line number."""
    records = _records(text)
    rows, cols = _read_header(records, None, ("rows", "cols"), "matrix")
    matrix = _read_rows(records, rows, cols, ring)
    *extra, (end, _) = records
    if extra:
        raise FormatError(end, f"expected {rows} rows, found {rows + len(extra)}")
    return matrix


def load_matrix(path, ring: RationalField | PrimeField = QQ) -> Matrix:
    return parse_matrix(_read_text(path), ring)


def dump_matrix(a: Matrix, path) -> None:
    _write_text(path, format_matrix(a))
