"""Scalar rings, matrices, and the matrix text format."""

import hashlib
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import lcm
from operator import add, mul, sub, truediv

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mmalg
from mmalg import (
    BadArgument,
    BadField,
    DimensionError,
    FormatError,
    Matrix,
    ModularScalar,
    PrimeField,
    QQ,
    Rational,
    RecursionConfig,
    SingularMatrix,
    apply_elementary,
    format_matrix,
    is_prime,
    mat_classical_multiply,
    mat_inverse,
    multiply_via_inversion,
    parse_matrix,
    random_matrix,
    recursive_invert,
    recursive_multiply,
    strassen_222,
)

from mmalg import exact_algebra
from mmalg.exact_algebra import (_bareiss, _classical, _packed, _packed_products, _slot_words,
                                 _slots, _words)

from helpers import P31, P61, naive_product, reference_bareiss, unit_lu_matrix


def test_rational_examples():
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    assert Rational(2, 4).numerator == 1 and Rational(2, 4).denominator == 2
    # denominators stay positive
    assert Rational(6, -4) == Rational(-3, 2)
    assert Rational(6, -4).denominator == 2
    with pytest.raises(ZeroDivisionError):
        Rational(1) / Rational(0)


def test_modular_examples():
    x = ModularScalar(3, 7)
    assert x * 5 == 1
    assert x * 5 == ModularScalar(1, 7)
    assert x.inverse() == 5
    assert (x + 4) == 0 and not (x + 4)
    assert 1 - x == ModularScalar(-2, 7) == 5
    with pytest.raises(ZeroDivisionError):
        ModularScalar(0, 7).inverse()
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ValueError):
        ModularScalar(1, 7) + ModularScalar(1, 11)


def test_modular_operators_match_int_arithmetic_mod_p():
    # Forward and reflected, against ints of either sign and at least p and
    # against scalars of the same field; anything else is refused.
    p, a = 7, 3
    x = ModularScalar(a, p)

    def check(got, want):
        assert type(got) is ModularScalar and got.p == p and got.value == want % p, (got, want)

    check(-x, -a)
    for other in (0, 5, -12, 7, 30, ModularScalar(0, p), ModularScalar(5, p)):
        b = other.value if isinstance(other, ModularScalar) else other
        for op in (add, sub, mul):
            check(op(x, other), op(a, b))
            check(op(other, x), op(b, a))
        check(other / x, b * pow(a, -1, p))
        if b % p:
            check(x / other, a * pow(b, -1, p))
        else:
            with pytest.raises(ZeroDivisionError):
                x / other
    for other, error in ((Fraction(1, 2), TypeError), (0.5, TypeError),
                         (ModularScalar(1, 11), ValueError)):
        for op in (add, sub, mul, truediv):
            with pytest.raises(error):
                op(x, other)
            with pytest.raises(error):
                op(other, x)


def test_prime_checks():
    assert is_prime(2) and is_prime(7919) and is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**61 + 1)
    with pytest.raises(BadField):
        PrimeField(6)
    with pytest.raises(BadField):
        PrimeField(1)
    with pytest.raises(BadField):
        ModularScalar(3, 10)


# psi_12, the least strong pseudoprime to every prime base up to 37, and its
# smaller factor: PSI_12 = 399165290221 * 798330580441.
PSI_12 = 318665857834031151167461
PSI_12_FACTOR = 399165290221


def test_prime_check_is_exact_past_the_bases_up_to_37():
    assert PSI_12 == PSI_12_FACTOR * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(BadField):
        PrimeField(PSI_12)
    with pytest.raises(BadField):
        ModularScalar(PSI_12_FACTOR, PSI_12)
    assert is_prime(798330580441) and is_prime(2**89 - 1)


def test_a_denominator_without_an_inverse_is_a_bad_field(monkeypatch):
    # A composite modulus that passes the prime check (as psi_12 passed the
    # bases up to 37) shows when a denominator has no inverse modulo it.
    monkeypatch.setattr(exact_algebra, "_MR_BASES", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    monkeypatch.setattr(exact_algebra, "_KNOWN_PRIMES", set())
    field = PrimeField(PSI_12)
    assert field._value(Fraction(1, 2)) == (PSI_12 + 1) // 2
    with pytest.raises(BadField, match=f"modulus {PSI_12} is not prime"):
        field._value(Fraction(1, PSI_12_FACTOR))
    with pytest.raises(ZeroDivisionError):
        field._value(Fraction(1, PSI_12))


def test_field_embedding():
    f = PrimeField(7)
    assert f.from_rational(Fraction(1, 2)) == ModularScalar(4, 7)  # 2*4 = 8 = 1 mod 7
    assert f.from_rational(Fraction(-3, 2)) == ModularScalar(2, 7)  # -3*4 = -12 = 2
    with pytest.raises(ZeroDivisionError):
        f.from_rational(Fraction(1, 7))


def test_rational_ring_properties():
    rng = random.Random(42)
    for _ in range(1000):
        a, b, c = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if b:
            assert (a / b) * b == a


def test_modular_ring_properties():
    rng = random.Random(43)
    p = 97
    for _ in range(500):
        a, b, c = (ModularScalar(rng.randrange(p), p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        if b:
            assert (a / b) * b == a


def test_matrix_multiply_examples():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[5, 6], [7, 8]])
    assert mat_classical_multiply(a, b) == Matrix.from_rows(QQ, [[19, 22], [43, 50]])
    assert mat_classical_multiply(Matrix.identity(QQ, 2), b) == b
    assert a @ b == mat_classical_multiply(a, b)
    with pytest.raises(DimensionError):
        mat_classical_multiply(Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 2, 2))
    with pytest.raises(ValueError):
        mat_classical_multiply(a, Matrix.identity(PrimeField(7), 2))


@given(p=st.sampled_from((2, 3, 97, P31, P61, 2**89 - 1)), nodes=st.integers(1, 4),
       m=st.integers(1, 20), k=st.integers(1, 20), n=st.integers(1, 20),
       bits=st.sampled_from((0, 8, 64, 200)), seed=st.integers(0, 2**32))
@example(p=P61, nodes=1, m=20, k=20, n=20, bits=0, seed=0)
@example(p=2, nodes=1, m=20, k=20, n=20, bits=0, seed=0)
@example(p=P61, nodes=3, m=3, k=64, n=3, bits=0, seed=0)
@example(p=P61, nodes=3, m=3, k=65, n=3, bits=0, seed=0)
@example(p=P31, nodes=2, m=3, k=4, n=5, bits=0, seed=0)
@example(p=2**89 - 1, nodes=2, m=3, k=7, n=5, bits=0, seed=0)
def test_packed_kernel_matches_the_plain_loop(p, nodes, m, k, n, bits, seed):
    # A batch of nodes stored end to end, entries unreduced and of either
    # sign; bits=0 makes every entry -1, which is p-1 once reduced, so every
    # slot of every row of every node holds its largest sum.  Over 2^61-1
    # that sum fills two 64-bit words to the top bit at k=64 and just
    # passes 2^128 at k=65, so a slot one word short there would carry into
    # the next slot, row and node.  Slots are one word over 2^31-1 at
    # k <= 4 and three over 2^89-1 at k=7.
    rng = random.Random(seed)

    def draw(count):
        return [rng.randrange(-2**bits, 2**bits) if bits else -1 for _ in range(count)]
    a, b = draw(nodes * m * k), draw(nodes * k * n)
    got = _packed_products(a, b, nodes, m, k, n, p)
    assert len(got) == nodes * m * n
    assert all(0 <= x <= k * (p - 1) ** 2 for x in got)
    for t in range(nodes):
        at, bt = a[t * m * k:(t + 1) * m * k], b[t * k * n:(t + 1) * k * n]
        mine = [x % p for x in got[t * m * n:(t + 1) * m * n]]
        assert mine == _classical(at, bt, m, k, n, p)
        assert mine == [x for row in naive_product([at[i:i + k] for i in range(0, m * k, k)],
                                                   [bt[j:j + n] for j in range(0, k * n, n)], p)
                        for x in row]


@given(data=st.data(), words=st.integers(1, 3), group=st.integers(1, 4))
def test_packed_values_read_back_through_words_and_slots(data, words, group):
    # _packed joins each group of values into one int, _words writes those
    # ints out lowest word first, and _slots reads slot j of every int back
    # from first = j * words, or every slot in order with a stride of one
    # slot.
    count = data.draw(st.integers(1, 5))
    values = data.draw(st.lists(st.integers(0, 2 ** (64 * words) - 1),
                                min_size=count * group, max_size=count * group))
    ints = _packed(values, words, group)
    assert ints == [sum(v << (64 * words * j) for j, v in enumerate(values[i:i + group]))
                    for i in range(0, len(values), group)]
    stride = words * group
    view = _words(ints, stride)
    assert list(view) == [x >> (64 * w) & (2**64 - 1) for x in ints for w in range(stride)]
    for j in range(group):
        assert list(_slots(view, words, j * words, stride)) == values[j::group]
    assert list(_slots(view, words, 0, words)) == values


def test_packed_peak_stays_near_its_result():
    # _packed writes its bytes in chunks of about 64 KB, counting the bytes
    # object each value takes before a chunk's join, so it never holds one
    # bytes object per value: on 100,000 one-word values, 64 to a group, its
    # traced peak stays under 2 times the ints it returns.
    rng = random.Random(8)
    values = [rng.getrandbits(61) for _ in range(100_000)]
    tracemalloc.start()
    try:
        ints = _packed(values, 1, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(ints) + sum(map(sys.getsizeof, ints))
    assert peak < 2 * size, (peak, size)
    assert ints == [sum(v << (64 * j) for j, v in enumerate(values[i:i + 64]))
                    for i in range(0, len(values), 64)]
    assert list(_words(ints[:100], 64)) == values[:6400]


def test_words_peak_stays_near_its_view():
    # _words copies each chunk of bytes into its array as it is written, so
    # on 2,000 ints of 64 words it holds its 1 MB of words once, not twice.
    rng = random.Random(9)
    ints = [rng.getrandbits(64 * 64) for _ in range(2000)]
    tracemalloc.start()
    try:
        view = _words(ints, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(view) * view.itemsize
    assert peak < 1.5 * size, (peak, size)
    assert [sum(w << (64 * j) for j, w in enumerate(view[i:i + 64]))
            for i in range(0, len(view), 64)] == ints


def test_slot_words_is_the_fewest_words_that_hold_the_bound():
    assert _slot_words(0) == 1
    assert _slot_words(1) == 1
    assert _slot_words(2**64 - 1) == 1
    assert _slot_words(2**64) == 2
    assert _slot_words(2**128 - 1) == 2
    assert _slot_words(2**128) == 3


def test_gf_multiply_matches_rational_reduction():
    rng = random.Random(44)
    p = 101
    f = PrimeField(p)
    for _ in range(25):
        rows_a = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(4)]
        rows_b = [[rng.randint(-50, 50) for _ in range(2)] for _ in range(3)]
        qa = Matrix.from_rows(QQ, rows_a)
        qb = Matrix.from_rows(QQ, rows_b)
        fa = Matrix.from_rows(f, rows_a)
        fb = Matrix.from_rows(f, rows_b)
        exact = mat_classical_multiply(qa, qb)
        modular = mat_classical_multiply(fa, fb)
        for r in range(4):
            for c in range(2):
                assert f.from_rational(exact[r, c]) == modular[r, c]


def test_matrix_structure_helpers():
    a = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose() == Matrix.from_rows(QQ, [[1, 4], [2, 5], [3, 6]])
    assert a.transpose().transpose() == a
    assert a.submatrix(0, 1, 2, 2) == Matrix.from_rows(QQ, [[2, 3], [5, 6]])
    padded = a.embed(3, 4)
    assert padded.submatrix(0, 0, 2, 3) == a
    assert padded[2, 3] == 0
    grid = [[a.submatrix(0, 0, 1, 2), a.submatrix(0, 2, 1, 1)],
            [a.submatrix(1, 0, 1, 2), a.submatrix(1, 2, 1, 1)]]
    assert Matrix.from_blocks(grid) == a
    with pytest.raises(DimensionError):
        a.submatrix(0, 0, 3, 3)
    with pytest.raises(DimensionError):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix(QQ, 0, 2, [])


def test_every_public_builder_keeps_shapes_positive():
    # A matrix with no rows or no columns has no text form (format_matrix
    # needs a column), so no public path may build one.
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    for shape in ((0, 0, 0, 0), (1, 1, 0, 1), (0, 0, 2, 0), (0, 0, -1, 1)):
        with pytest.raises(DimensionError, match="must be positive"):
            a.submatrix(*shape)
    rng = random.Random(5)
    for ring in (QQ, PrimeField(P61)):
        for rows, cols in ((0, 3), (-1, 2), (3, 0), (0, 0)):
            with pytest.raises(DimensionError, match="must be positive"):
                random_matrix(ring, rows, cols, rng)
    for grid in ([], [[]], [[], [a]], [[a], []], [[a], [a, a]]):
        with pytest.raises(DimensionError):
            Matrix.from_blocks(grid)


def test_mat_inverse():
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert mat_inverse(a) == Matrix.from_rows(QQ, [[1, -1], [0, 1]])
    rng = random.Random(45)
    for size in (1, 2, 3, 4, 6):
        m = unit_lu_matrix(size, rng)
        assert mat_classical_multiply(m, mat_inverse(m)) == Matrix.identity(QQ, size)
    # needs pivoting: leading entry is zero but the matrix is invertible
    swapped = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert mat_inverse(swapped) == swapped
    with pytest.raises(SingularMatrix):
        mat_inverse(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(DimensionError):
        mat_inverse(Matrix.zeros(QQ, 2, 3))
    f = PrimeField(13)
    g = Matrix.from_rows(f, [[2, 1], [1, 1]])
    assert mat_classical_multiply(g, mat_inverse(g)) == Matrix.identity(f, 2)


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_UNITS = st.builds(Fraction, st.integers(-9, -1) | st.integers(1, 9), st.integers(1, 9))


@given(ring=st.sampled_from((QQ, PrimeField(97))), data=st.data())
def test_mat_inverse_inverts_or_refuses(ring, data):
    # An invertible matrix is a row permutation of L U: L unit lower
    # triangular, with column 0 zero below the diagonal and about half its
    # other entries there zero; U upper triangular with a nonzero diagonal
    # (a unit mod 97 too).  Column 0 of L U is U[0][0] e_0 and the
    # permutation moves row 0 away, so column 0 needs a row swap; the sparse
    # L makes zero pivots in later columns too.  Block inversion at a
    # threshold in 1..3 meets the same zero blocks and must give the same
    # inverse, or refuse the same singular matrix.
    n = data.draw(st.integers(1, 8))
    cfg = RecursionConfig(strassen_222(), data.draw(st.integers(1, 3)))
    lower = [[Fraction(i == j) if i <= j or j == 0 or data.draw(st.booleans())
              else data.draw(_FRACTIONS) for j in range(n)] for i in range(n)]
    upper = [[data.draw(_UNITS) if i == j else data.draw(_FRACTIONS) if i < j else Fraction(0)
              for j in range(n)] for i in range(n)]
    product = naive_product(lower, upper)
    order = data.draw(st.permutations(range(n)).filter(lambda q: n == 1 or q[0] != 0))
    rows = [product[i] for i in order]
    a = Matrix.from_rows(ring, rows)
    inverse = mat_inverse(a)
    _checked_rows(ring, inverse)
    assert mat_classical_multiply(a, inverse) == Matrix.identity(ring, n)
    assert recursive_invert(cfg, a)[0] == inverse
    # One row a rational combination of the others (the zero row when n = 1).
    r = data.draw(st.integers(0, n - 1))
    coefficients = [data.draw(_FRACTIONS) for _ in range(n)]
    rows[r] = [sum((c * row[j] for i, (c, row) in enumerate(zip(coefficients, rows)) if i != r),
                   Fraction(0)) for j in range(n)]
    singular = Matrix.from_rows(ring, rows)
    with pytest.raises(SingularMatrix):
        mat_inverse(singular)
    with pytest.raises(SingularMatrix, match="singular"):
        recursive_invert(cfg, singular)


@given(p=st.sampled_from((None, 2, 3, 97, P61)), data=st.data())
def test_bareiss_matches_the_augmented_reference(p, data):
    # A row permutation of L U as in test_mat_inverse_inverts_or_refuses,
    # so that rows are swapped in column 0 and, through L's zeros, later;
    # over GF(p) with integer entries and a diagonal of 1 or -1, so that it
    # is invertible mod every p.  Then the same rows with one of them a
    # combination of the others.  _bareiss must give the reference's
    # (right, d), or the same error, and leave its input as it was.
    ring = QQ if p is None else PrimeField(p)
    entries = _FRACTIONS if p is None else st.integers(-9, 9)
    diagonal = _UNITS if p is None else st.sampled_from((1, -1))
    n = data.draw(st.integers(1, 12))
    lower = [[int(i == j) if i <= j or j == 0 or data.draw(st.booleans())
              else data.draw(entries) for j in range(n)] for i in range(n)]
    upper = [[data.draw(diagonal) if i == j else data.draw(entries) if i < j else 0
              for j in range(n)] for i in range(n)]
    product = naive_product(lower, upper)
    order = data.draw(st.permutations(range(n)).filter(lambda q: n == 1 or q[0] != 0))
    rows = [product[i] for i in order]
    r = data.draw(st.integers(0, n - 1))
    coefficients = [data.draw(entries) for _ in range(n)]
    singular = [*rows[:r], [sum((c * row[j] for i, (c, row) in enumerate(zip(coefficients, rows))
                                 if i != r), 0) for j in range(n)], *rows[r + 1:]]
    for source in (rows, singular):
        cleared, _ = ring._clear(Matrix.from_rows(ring, source)._values, n)
        before = list(cleared)
        try:
            expected = reference_bareiss(ring, cleared, n)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix) as got:
                _bareiss(ring, cleared, n)
            assert str(got.value) == str(exc)
        else:
            right, d = _bareiss(ring, cleared, n)
            assert (right, d) == expected
            if p is not None:
                assert all(0 <= x < p for x in right) and 0 < d < p
        assert list(cleared) == before


@pytest.mark.parametrize("ring", [QQ, PrimeField(2)])
def test_permutation_matrices_invert_to_their_transposes(ring):
    # Each column but the last (the middle one too, for the reversal) needs
    # a row swap, so the inverse is the inverse of the swapped rows with its
    # columns permuted back; the cyclic shift is not its own inverse, so a
    # permutation applied the wrong way round shows.
    for image in ([(i + 1) % 7 for i in range(7)], [6 - i for i in range(7)]):
        perm = Matrix.from_rows(ring, [[int(j == image[i]) for j in range(7)] for i in range(7)])
        assert mat_inverse(perm) == perm.transpose()
        for threshold in (1, 2, 3):
            cfg = RecursionConfig(strassen_222(), threshold)
            assert recursive_invert(cfg, perm)[0] == perm.transpose()


@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_rational_clear_and_restore_match_their_definitions(rows, cols, data):
    # Rows and columns mix integral ones (scale 1) with fractional ones; an
    # entry is fractional only where both its row and its column may be.
    fractional = [data.draw(st.booleans()) for _ in range(rows + cols)]
    ints = st.integers(-10**20, 10**20)
    values = [Fraction(data.draw(ints), data.draw(st.integers(1, 12)))
              if fractional[i] and fractional[rows + j] else Fraction(data.draw(ints))
              for i in range(rows) for j in range(cols)]
    for by_columns in (False, True):
        lines = ([values[j::cols] for j in range(cols)] if by_columns
                 else [values[i:i + cols] for i in range(0, rows * cols, cols)])
        scales = [lcm(*(x.denominator for x in line)) for line in lines]
        each = [scales[t % cols if by_columns else t // cols] for t in range(rows * cols)]
        assert QQ._clear(values, cols, by_columns) == (
            [x.numerator * (s // x.denominator) for x, s in zip(values, each)], scales)
    # _restore: row and column scales of 1 and above, ints that repeat.
    scale = st.sampled_from((1, 1, 2, 3, 12))
    row_scales = [data.draw(scale) for _ in range(rows)]
    col_scales = [data.draw(scale) for _ in range(cols)]
    raw = [data.draw(st.integers(-3, 3) | ints) for _ in range(rows * cols)]
    got = QQ._restore(raw, row_scales, col_scales)
    assert got == [Fraction(raw[i * cols + j], row_scales[i] * col_scales[j])
                   for i in range(rows) for j in range(cols)]
    assert all(type(x) is Fraction for x in got)
    # Where both scales are 1, equal ints share one Fraction.
    shared = {}
    for i in range(rows):
        for j in range(cols):
            if row_scales[i] == col_scales[j] == 1:
                x = got[i * cols + j]
                assert shared.setdefault(x, x) is x


def test_matrix_format_round_trip():
    rng = random.Random(46)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(QQ, rows, cols, rng)
        assert parse_matrix(format_matrix(m)) == m
    text = format_matrix(Matrix.from_rows(QQ, [[Fraction(-7, 3), 0], [5, Fraction(1, 2)]]))
    assert "-7/3" in text and "1/2" in text
    f = PrimeField(97)
    g = random_matrix(f, 3, 3, rng)
    assert parse_matrix(format_matrix(g), ring=f) == g


def test_matrix_format_errors():
    with pytest.raises(FormatError) as err:
        parse_matrix("")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_matrix("2 x\n1 2\n3 4\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_matrix("2 2\n1 2\n3\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        parse_matrix("2 2\n1 2\n3 4/0\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        parse_matrix("2 2\n1 2\n")  # missing a row


def test_from_rows_rejects_inexact_entries():
    for ring in (QQ, PrimeField(97)):
        for x in (0.5, Decimal("0.5"), "1"):
            with pytest.raises(BadArgument):
                Matrix.from_rows(ring, [[1, x]])


def test_constructor_takes_entries_through_the_ring():
    f7 = PrimeField(7)
    a = Matrix(f7, 1, 1, [3])
    assert a @ a == Matrix.from_rows(f7, [[2]])
    assert (a @ a).entries == (ModularScalar(2, 7),)
    b = Matrix(f7, 1, 3, [10, -1, Fraction(1, 2)])
    assert [(x.value, x.p) for x in b.entries] == [(3, 7), (6, 7), (4, 7)]
    assert b == Matrix.from_rows(f7, [[3, 6, 4]])
    with pytest.raises(ValueError, match="mixed moduli"):
        Matrix(f7, 1, 1, [ModularScalar(3, 5)])
    q = Matrix(QQ, 1, 2, [2, Fraction(1, 3)])
    assert all(type(x) is Fraction for x in q.entries)
    for ring, x in ((QQ, 0.5), (QQ, ModularScalar(3, 5)), (f7, 0.5), (f7, "1")):
        with pytest.raises(BadArgument):
            Matrix(ring, 1, 1, [x])
    with pytest.raises(ValueError, match="mixed rings"):
        Matrix.from_blocks([[q, a]])


def test_scale_takes_the_factor_through_the_ring():
    f7 = PrimeField(7)
    a = Matrix.from_rows(f7, [[1, 2], [3, 6]])
    assert a.scale(Fraction(1, 2)) == Matrix.from_rows(f7, [[4, 1], [5, 3]])
    assert a.scale(ModularScalar(3, 7)) == a.scale(10) == Matrix.from_rows(f7, [[3, 6], [2, 4]])
    with pytest.raises(ValueError, match="mixed moduli"):
        a.scale(ModularScalar(3, 5))
    q = Matrix.from_rows(QQ, [[1, 3]])
    half = q.scale(Fraction(1, 2))
    assert half == Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(3, 2)]])
    assert all(type(x) is Fraction for x in half.entries)
    for m in (a, q):
        for s in (0.5, "2"):
            with pytest.raises(BadArgument):
                m.scale(s)
    with pytest.raises(BadArgument):
        q.scale(ModularScalar(1, 7))


def test_matrices_survive_pickling():
    for ring in (QQ, PrimeField(7)):
        a = Matrix.from_rows(ring, [[1, 2], [3, 4]])
        b = pickle.loads(pickle.dumps(a))
        assert b == a and b @ b == a @ a and b.scale(3) == a.scale(3)


def test_inverses_require_a_matrix():
    for invert in (mat_inverse, lambda a: recursive_invert(RecursionConfig(strassen_222()), a)):
        with pytest.raises(TypeError, match="expected a Matrix"):
            invert([[1]])


def test_products_require_matrices():
    one = Matrix.identity(QQ, 2)
    products = (
        mat_classical_multiply,
        lambda a, b: recursive_multiply(RecursionConfig(strassen_222()), a, b),
        lambda a, b: apply_elementary(strassen_222(), a, b),
        lambda a, b: multiply_via_inversion(a, b, mat_inverse),
    )
    for multiply in products:
        for a, b in ((one, [[1, 0], [0, 1]]), ([[1, 0], [0, 1]], one)):
            with pytest.raises(TypeError, match="expected matrices"):
                multiply(a, b)


RINGS = (PrimeField(2), PrimeField(7), PrimeField(2**61 - 1), QQ)


def _scalar(ring, x):
    """x as a ring element, built with the public scalar constructors only."""
    return Fraction(x) if ring == QQ else ModularScalar(x.numerator, ring.p) / x.denominator


def _det(rows):
    """Determinant by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, x in enumerate(rows[0]):
        term = x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = term if total is None else (total - term if j % 2 else total + term)
    return total


def _checked_rows(ring, a):
    """a.to_rows(), once a's entries, a[r, c] and to_rows() are checked to
    give the same ring elements."""
    def ok(x):
        if ring == QQ:
            return type(x) is Fraction
        return type(x) is ModularScalar and x.p == ring.p and 0 <= x.value < ring.p
    rows = a.to_rows()
    assert [x for row in rows for x in row] == list(a.entries)
    assert all(ok(x) for x in a.entries)
    assert all(ok(a[r, c]) and a[r, c] == rows[r][c]
               for r in range(a.rows) for c in range(a.cols))
    return rows


@st.composite
def _scalars(draw, ring, count):
    if ring == QQ:
        num, den = st.integers(-50, 50), st.integers(1, 9)
    else:
        # entries outside [0, p) and fractions whose denominator is a unit mod p
        num = st.integers(-(10**20), 10**20)
        den = st.integers(1, 9).filter(lambda d: d % ring.p)
    return [Fraction(draw(num), draw(den)) for _ in range(count)]


@given(data=st.data())
def test_matrix_operations_match_entrywise_scalar_arithmetic(data):
    ring = data.draw(st.sampled_from(RINGS))
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    xs, ys, zs = (data.draw(_scalars(ring, count)) for count in (m * k, m * k, k * n))
    a, b, c = Matrix(ring, m, k, xs), Matrix(ring, m, k, ys), Matrix(ring, k, n, zs)
    ea = [[_scalar(ring, xs[i * k + j]) for j in range(k)] for i in range(m)]
    eb = [[_scalar(ring, ys[i * k + j]) for j in range(k)] for i in range(m)]
    ec = [[_scalar(ring, zs[i * n + j]) for j in range(n)] for i in range(k)]
    s = data.draw(_scalars(ring, 1))[0]
    es = _scalar(ring, s)

    assert _checked_rows(ring, a) == ea
    assert _checked_rows(ring, a + b) == [[x + y for x, y in zip(r, t)] for r, t in zip(ea, eb)]
    assert _checked_rows(ring, a - b) == [[x - y for x, y in zip(r, t)] for r, t in zip(ea, eb)]
    assert _checked_rows(ring, -a) == [[-x for x in r] for r in ea]
    for factor in (s, es):
        assert _checked_rows(ring, a.scale(factor)) == [[es * x for x in r] for r in ea]
    assert _checked_rows(ring, a @ c) == [
        [sum((r[t] * ec[t][j] for t in range(1, k)), r[0] * ec[0][j]) for j in range(n)]
        for r in ea]
    assert _checked_rows(ring, a.transpose()) == [list(col) for col in zip(*ea)]

    r0, c0 = data.draw(st.integers(1, m)), data.draw(st.integers(1, k))
    heights = [(0, r0)] + ([(r0, m - r0)] if r0 < m else [])
    widths = [(0, c0)] + ([(c0, k - c0)] if c0 < k else [])
    grid = [[a.submatrix(r, c, h, w) for c, w in widths] for r, h in heights]
    for (r, h), row in zip(heights, grid):
        for (c, w), blk in zip(widths, row):
            assert _checked_rows(ring, blk) == [line[c:c + w] for line in ea[r:r + h]]
    assert Matrix.from_blocks(grid) == a
    big = a.embed(m + r0, k + c0)
    zero = _scalar(ring, 0)
    assert _checked_rows(ring, big) == [
        [ea[i][j] if i < m and j < k else zero for j in range(k + c0)] for i in range(m + r0)]
    assert big.submatrix(0, 0, m, k) == a

    ws = data.draw(_scalars(ring, m * m))
    square = Matrix(ring, m, m, ws)
    rows = [[_scalar(ring, x) for x in ws[i * m:(i + 1) * m]] for i in range(m)]
    if _det(rows) == 0:
        with pytest.raises(SingularMatrix):
            mat_inverse(square)
    else:
        inv = _checked_rows(ring, mat_inverse(square))
        one = _scalar(ring, 1)
        assert [[sum((r[t] * inv[t][j] for t in range(1, m)), r[0] * inv[0][j])
                 for j in range(m)] for r in rows] == [
            [one if i == j else zero for j in range(m)] for i in range(m)]


_REIMPORT = """
import gc, importlib, sys, weakref

refs = []
for _ in range(20):
    for name in [n for n in sys.modules if n == "mmalg" or n.startswith("mmalg.")]:
        del sys.modules[name]
    mm = importlib.import_module("mmalg")
    field = mm.PrimeField(97)
    a = mm.Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    mm.recursive_multiply(mm.RecursionConfig(mm.strassen_222(), 1), a, a)
    mm.mat_classical_multiply(a, a)
    refs.append(weakref.ref(sys.modules["mmalg.exact_algebra"].Matrix))
    del mm, field, a
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_reimport_frees_the_previous_package():
    # A fresh interpreter, so this suite's own classes are not re-imported.
    src = os.path.dirname(os.path.dirname(mmalg.__file__))
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1"]


PUBLIC_NAMES_DIGEST = "14f06849d937554e03600bb5183874a53398958263d839e98b8a515e3b65a7f9"


def test_public_names_resolve():
    # A stale name in __all__ would break "from mmalg import *".
    for name in mmalg.__all__:
        getattr(mmalg, name)
    # __all__ is derived from the package's imports, so a name imported there
    # in passing would become public: the sorted list is pinned (sha256 of
    # its repr).
    names = sorted(mmalg.__all__)
    assert len(names) == 60
    assert hashlib.sha256(repr(names).encode()).hexdigest() == PUBLIC_NAMES_DIGEST
