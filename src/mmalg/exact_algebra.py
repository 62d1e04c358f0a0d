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
the raw form.  Each ring carries its raw arithmetic as private members,
which the other modules use; only this module reads ``_modulus``:

- ``_modulus``: p, or None over QQ, where raw values are never reduced;
- ``_value(x)``: an int, a Fraction or a ring element as a raw value;
  ``_element(v)`` and ``_elements(values)`` turn raw values into elements;
- ``_clear`` and ``_restore``: over QQ, ``_clear`` scales each row (or each
  column) of raw values by the lcm of its denominators to Python ints and
  returns those lcms, reading only the numerator where that lcm is 1, and
  ``_restore`` divides entry (i, j) of an int result by its row and column
  scales back into Fractions; where both are 1 it builds no gcd and shares
  one Fraction per distinct int (a _Memo, the dict that makes each missing
  value once, which the program writer and readers of formats share), as
  the integral inverses of block inversion and mat_inverse have it; over
  GF(p) ``_clear`` returns the values unchanged, with scales of 1, and
  ``_restore`` reduces an int result of any size mod p.  ``_quotient``
  divides cleared values exactly: ``//`` over QQ, times d^-1 mod p over
  GF(p), and ``_normal(ints, d)`` puts a block ints / d of cleared values
  in normal form: over QQ with d > 0 and gcd(d, *ints) divided out, over
  GF(p) times d^-1 mod p, so that d = 1;
- the recursion's two per-ring steps: ``_leaf_products`` runs a batch of
  leaf products on cleared ints, over QQ _classical one node at a time, over
  GF(p) one call of _packed_products; ``_check_denominator(d)`` refuses a
  program denominator d with no inverse, over GF(p) with BadArgument when p
  divides d, over QQ never.

Matrix sums, negation and scaling compute on the raw values and take each
result through ``_value``; program evaluation (recursion) is exact list
arithmetic on ints, with a program's coefficients cleared to ints over one
denominator (recursion._compile), and reduces once, through
``_restore``.

So QQ products (recursion.recursive_multiply), block inversion
(recursion.recursive_invert) and mat_inverse's fraction-free elimination
run on ints, with one Fraction per output entry.  The two inverses share
the elimination (_bareiss, which gives d times the inverse of the cleared
matrix) and the conversion of its result into the inverse
(_cleared_inverse).  _bareiss runs in place on rows of n entries, not on
the 2n of [a' | I]: each column it eliminates leaves its slot to the
matching column of the inverse.  It leaves alone a row that would not
change, skips division by 1 over QQ, and undoes its row swaps with one
permutation of the result's columns.
Two flat kernels multiply raw row-major operands: _classical, the plain
loop with one reduction mod p per dot product (none over QQ, where it takes
ints or Fractions alike), and over GF(p) _packed_products, which runs a
whole batch of leaf products stored end to end in one call: it packs each
row of B into one int (Kronecker substitution), reads every row of C back
in one strided pass over 64-bit words and leaves its results unreduced, so
the recursion's delayed reduction reaches the leaves; the randomized
verifier's right-hand side is one call of it too, with a batch's trials as
its nodes.  The layout of such
packed ints lives only here, in a small codec that the batched
trace-identity verifier (bilinear_core) uses too: _slot_words sizes a slot,
_little_endian writes values out as little-endian bytes in chunks of about
64 KB, which _packed reads back as ints of slots and _words as 64-bit
words on either host byte order, and _slots reads one slot of every block
of words back.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import cycle, islice, repeat
from math import gcd, lcm
from operator import add, attrgetter, lshift, mul, neg, or_, sub
from typing import Iterable, Optional, Sequence

from .errors import BadArgument, BadField, DimensionError, SingularMatrix

# The exact scalar of QQ: lowest terms, positive denominator.  Program
# coefficients take it only when they are not integral (bilinear_core).
Rational = Fraction

_denominator = attrgetter("denominator")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: exact for every n below
    psi_13 = 3317044064679887385961981 (about 3.3e24), the least strong
    pseudoprime to all of them; above it, a strong probable-prime test."""
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

    def _lifted(op):
        """The operator that lifts its other operand (an int or a scalar of
        the same field) and returns op(self.value, it) mod p, or
        NotImplemented for any other operand."""

        def method(self, other):
            v = self._lift(other)
            if v is None:
                return NotImplemented
            return ModularScalar(op(self.value, v), self.p)

        return method

    __add__ = __radd__ = _lifted(add)
    __sub__ = _lifted(sub)
    __rsub__ = _lifted(lambda value, v: v - value)
    __mul__ = __rmul__ = _lifted(mul)
    del _lifted

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


class _Memo(dict):
    """A dict that makes a missing key's value with make(key) and keeps it,
    so equal keys share one value object."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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
        by_columns) times the lcm of its denominators, and those lcms.  In a
        row or column whose scale is 1 every entry is its numerator."""
        if by_columns:
            scales = [lcm(*map(_denominator, values[j::cols])) for j in range(cols)]
            each = scales * (len(values) // cols)
        else:
            scales = [lcm(*map(_denominator, values[i:i + cols]))
                      for i in range(0, len(values), cols)]
            each = [s for s in scales for _ in range(cols)]
        return [x.numerator if s == 1 else x.numerator * (s // x.denominator)
                for x, s in zip(values, each)], scales

    def _restore(self, values: Sequence, row_scales: Sequence, col_scales: Sequence) -> list:
        """Entry (i, j) of the raw row-major values over row_scales[i] *
        col_scales[j], the scales positive.  Where both scales are 1 it is
        one Fraction per distinct int, shared (Fractions are immutable) and
        built without a gcd."""
        n, whole, units = len(col_scales), _Memo(Fraction), all(c == 1 for c in col_scales)
        out = []
        for r, i in zip(row_scales, range(0, len(values), n)):
            row = values[i:i + n]
            if r != 1:
                out += map(Fraction, row, map(mul, repeat(r), col_scales))
            elif units:
                out += map(whole.__getitem__, row)
            else:
                out += [whole[v] if c == 1 else Fraction(v, c) for v, c in zip(row, col_scales)]
        return out

    def _quotient(self, values: Sequence, d: int) -> list:
        """The cleared values divided by d, which divides each of them:
        values itself when d is 1."""
        return values if d == 1 else [v // d for v in values]

    def _normal(self, values: Sequence, d: int) -> tuple:
        """The block values / d as (ints, e) with e > 0 and gcd(e, *ints) = 1."""
        g = gcd(d, *values)
        if d < 0:
            g = -g
        if g == 1:
            return values, d
        return [v // g for v in values], d // g

    def _leaf_products(self, a: list, b: list, nodes: int, m: int, k: int, n: int) -> list:
        """The products of a batch of nodes m x k by k x n pairs of cleared
        ints, stored as _packed_products stores them: _classical per node."""
        return [x for i in range(nodes) for x in _classical(
            a[i * m * k:(i + 1) * m * k], b[i * k * n:(i + 1) * k * n], m, k, n, None)]

    def _check_denominator(self, d: int) -> None:
        """Every program denominator is invertible over QQ."""

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
            try:
                return x.numerator * pow(den, -1, p) % p
            except ValueError:
                # gcd(den, p) > 1 with den != 0 mod p: p has a proper factor
                raise BadField(f"modulus {p} is not prime: {x} has no image") from None
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

    def _leaf_products(self, a: list, b: list, nodes: int, m: int, k: int, n: int) -> list:
        return _packed_products(a, b, nodes, m, k, n, self.p)

    def _check_denominator(self, d: int) -> None:
        """Raise BadArgument when p divides d, that is when some coefficient
        of a program of denominator d has no image mod p."""
        if d % self.p == 0:
            raise BadArgument(f"a coefficient of the program has no image mod {self.p}")

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


def _check_shape(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")


class Matrix:
    """Dense immutable matrix over an exact ring, stored row-major as raw values."""

    __slots__ = ("ring", "rows", "cols", "_values")

    def __init__(self, ring: RationalField | PrimeField, rows: int, cols: int, entries: Iterable):
        """entries, row-major, are ints, Fractions or elements of ring."""
        _check_shape(rows, cols)
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
        if not grid or not grid[0] or any(len(row) != len(grid[0]) for row in grid):
            raise DimensionError("block grid must be a non-empty rectangle")
        ring = grid[0][0].ring
        heights = [row[0].rows for row in grid]
        widths = [blk.cols for blk in grid[0]]
        for bi, row in enumerate(grid):
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
        _check_shape(rows, cols)
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
        zero, w, out = self.ring._value(0), self.cols, []
        for i in range(0, len(self._values), w):
            out += self._values[i:i + w]
            out += repeat(zero, cols - w)
        out += repeat(zero, (rows - self.rows) * cols)
        return Matrix._from_values(self.ring, rows, cols, out)

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


def _classical(ae: Sequence, be: Sequence, m: int, k: int, n: int, p: Optional[int]) -> list:
    """Raw row-major m x n product of raw row-major m x k and k x n operands.

    Each dot product is summed unreduced and reduced mod p once (not at all
    when p is None).  The sum starts from its first term, so a QQ entry
    never adds an int 0 to a Fraction.  It serves the oracle
    mat_classical_multiply and the recursion's QQ leaves
    (RationalField._leaf_products); GF(p) leaf batches run _packed_products.
    """
    cols = [be[j::n] for j in range(n)]
    out = []
    for i in range(0, m * k, k):
        row = ae[i:i + k]
        for col in cols:
            terms = map(mul, row, col)
            out.append(sum(terms, next(terms)))
    return out if p is None else [x % p for x in out]


def _slot_words(bound: int) -> int:
    """The fewest 64-bit words, at least one, that hold every int in [0, bound]."""
    return max(1, -(-bound.bit_length() // 64))


def _little_endian(values, width: int):
    """Yield the values (each below 2^(8 width)) end to end as width bytes
    each, lowest byte first, in chunks of about 64 KB, so that a caller that
    copies each chunk into its result holds one chunk beside it.  A chunk's
    count is sized by what its join holds: one bytes object per value
    besides the chunk."""
    values, count = iter(values), max(1, 65536 // (width + sys.getsizeof(b"")))
    while chunk := b"".join(map(int.to_bytes, islice(values, count), repeat(width),
                                repeat("little"))):
        yield chunk


def _packed(values, words: int, group: int) -> list:
    """The values (each below 2^(64 words)) in consecutive groups of group,
    each group one int of slots of words 64-bit words, its first value
    lowest: _little_endian writes them all, and one from_bytes reads each
    group."""
    data = bytearray()
    for chunk in _little_endian(values, 8 * words):
        data += chunk
    size = 8 * words * group
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _words(ints, count: int) -> array:
    """The ints (each below 2^(64 count)) end to end as count 64-bit words
    each, lowest word first, on either byte order: the one place that reads
    the host's."""
    view = array("Q")
    for chunk in _little_endian(ints, 8 * count):
        view.frombytes(chunk)
    if sys.byteorder == "big":
        view.byteswap()
    return view


def _slots(view, words: int, first: int, stride: int):
    """The values of the slot of words words that starts at word first of
    each block of stride words of view (see _words)."""
    values = view[first::stride]
    for w in range(1, words):
        values = map(or_, values, map(lshift, view[first + w::stride], repeat(64 * w)))
    return values


def _packed_products(ae: Sequence, be: Sequence, nodes: int, m: int, k: int, n: int,
                     p: int) -> list:
    """The products of a batch of nodes m x k by k x n pairs of operands
    of any ints, each stored row-major and the nodes end to end, stored the
    same way and unreduced: each entry is in [0, k (p-1)^2] and congruent
    mod p to the entry of the product.

    Kronecker substitution (Dumas, Fousse and Salvy, J. Symbolic Comput.
    2011): the operands are reduced mod p once, and each row of B becomes
    one int of n slots of w 64-bit words, w enough for k * (p-1)^2, so that
    row i of C is the one sum of a_ij times packed row j, whose slots never
    carry into each other.  Every row of every node is written out as words
    at once (_words), and every slot is read back, in order, in one strided
    pass (_slots).
    """
    ae = [x % p for x in ae]
    words = _slot_words(k * (p - 1) ** 2)
    packed = _packed([x % p for x in be], words, n)
    rows = [sum(map(mul, ae[i:i + k], packed[t * k:(t + 1) * k]))
            for t in range(nodes) for i in range(t * m * k, (t + 1) * m * k, k)]
    return list(_slots(_words(rows, n * words), words, 0, words))


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
    shares no kernel with the recursion, whose leaf batches run
    _packed_products, one call per batch, and reduce only at the end.
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

    The elimination runs in place, n entries a row.  At each column c every
    row other than the pivot row becomes (piv * row - f * pivot_row) / prev,
    prev the previous pivot, a division the ring's _quotient makes exact
    (// on the QQ integers, times prev^-1 mod p over GF(p), whose values
    must lie in [0, p)).  Slot c then holds column c of the right half of
    [a' | I]: prev in the pivot row, and in every other row -f, which the
    same update makes of a slot set to 0.  A row with f = 0 is left as it
    is when piv == prev, and over QQ a division by 1 is skipped.  The rows
    end as d (P a')^-1 for the row swaps P, so the columns are permuted once
    at the end: a'^-1 = (P a')^-1 P.  Raises SingularMatrix when a column
    has no pivot.
    """
    rows = [list(values[i:i + n]) for i in range(0, n * n, n)]
    order = list(range(n))
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrix(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        order[col], order[pivot_row] = order[pivot_row], order[col]
        top = rows[col]
        piv, top[col] = top[col], prev
        for r, row in enumerate(rows):
            f = row[col]
            if r != col and (f or piv != prev):
                row[col] = 0
                rows[r] = ring._quotient([piv * x - f * y for x, y in zip(row, top)], prev)
        prev = piv
    where = sorted(range(n), key=order.__getitem__)
    return [row[k] for row in rows for k in where], prev


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
    _check_shape(rows, cols)
    p = ring._modulus
    if p is not None:
        values = [rng.randrange(p) for _ in range(rows * cols)]
    else:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows * cols)]
    return Matrix._from_values(ring, rows, cols, values)
