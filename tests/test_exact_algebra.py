"""Scalar rings, matrices, and the matrix text format."""

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

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
    SingularMatrix,
    format_matrix,
    is_prime,
    mat_classical_multiply,
    mat_inverse,
    parse_matrix,
    random_matrix,
)

from helpers import unit_lu_matrix


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


def test_prime_checks():
    assert is_prime(2) and is_prime(7919) and is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**61 + 1)
    with pytest.raises(BadField):
        PrimeField(6)
    with pytest.raises(BadField):
        PrimeField(1)
    with pytest.raises(BadField):
        ModularScalar(3, 10)


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
