"""The three program families: shapes, ranks, validity, coefficient alphabets."""

import random
from fractions import Fraction

import pytest

from mmalg import bilinear_core
from mmalg import (
    BadArgument,
    DimensionTriple,
    Matrix,
    PrimeField,
    QQ,
    apply_elementary,
    classical,
    mat_classical_multiply,
    pan_aggregation,
    random_matrix,
    strassen_222,
    verify_brent,
)

from helpers import P61, brute_force_brent


def test_classical_shapes_and_validity():
    for m, k, n in ((1, 1, 1), (2, 2, 2), (2, 3, 4), (3, 2, 2), (1, 4, 2)):
        alg = classical(m, k, n)
        assert alg.dims == DimensionTriple(m, k, n)
        assert alg.rank == m * k * n
        assert verify_brent(alg).valid, (m, k, n)
    with pytest.raises(BadArgument):
        classical(0, 1, 1)


def test_generators_refuse_programs_past_the_size_limit(monkeypatch):
    # Refused before anything is built: 8,000,000 products, and pan(100)'s
    # bound of 2,020,000 nonzeros per tensor.
    with pytest.raises(BadArgument, match="over the limit of 2000000"):
        classical(200, 200, 200)
    with pytest.raises(BadArgument, match="over the limit of 2000000"):
        pan_aggregation(100)
    # The limit itself is allowed: m*k*n for classical, 2n^3 + 2n^2 for pan.
    monkeypatch.setattr(bilinear_core, "_MAX_NONZEROS", 24)
    assert classical(2, 3, 4).nonzero_counts() == (24, 24, 24)
    assert max(pan_aggregation(2).nonzero_counts()) <= 24
    for build, arg in ((classical, (5, 5, 1)), (pan_aggregation, (4,))):
        with pytest.raises(BadArgument, match="over the limit of 24"):
            build(*arg)


def test_pan_nonzeros_stay_within_the_checked_bound():
    for n in range(2, 21, 2):
        assert max(pan_aggregation(n).nonzero_counts()) <= 2 * n**3 + 2 * n**2, n


def test_classical_coefficients_are_unit():
    alg = classical(2, 3, 4)
    assert alg.coefficient_values() == {Fraction(1)}
    for tensor in (alg.u, alg.v, alg.w):
        assert all(len(d) == 1 for d in tensor)


def test_strassen_structure():
    alg = strassen_222()
    assert alg.dims == DimensionTriple(2, 2, 2)
    assert alg.rank == 7
    assert verify_brent(alg).valid
    assert brute_force_brent(alg) == []
    assert alg.coefficient_values() == {Fraction(1), Fraction(-1)}


def test_strassen_multiplies_correctly():
    rng = random.Random(51)
    classical_alg = classical(2, 2, 2)
    fast = strassen_222()
    for _ in range(50):
        a = random_matrix(QQ, 2, 2, rng)
        b = random_matrix(QQ, 2, 2, rng)
        fast_product, _ = apply_elementary(fast, a, b)
        slow_product, _ = apply_elementary(classical_alg, a, b)
        assert fast_product == slow_product == mat_classical_multiply(a, b)


def test_pan_rank_and_validity():
    for n in (2, 4, 6, 8):
        alg = pan_aggregation(n)
        assert alg.dims == DimensionTriple(n, n, n)
        assert alg.rank == n**3 // 2 + 3 * n**2
        assert verify_brent(alg).valid, n


def test_pan_against_dense_oracle():
    assert brute_force_brent(pan_aggregation(2)) == []
    assert brute_force_brent(pan_aggregation(4)) == []


def test_pan_rejects_bad_sizes():
    for bad in (1, 3, 5, 0, -2, 7):
        with pytest.raises(BadArgument):
            pan_aggregation(bad)


def test_pan_coefficient_alphabet():
    # wraparound collisions merge formal terms, so magnitude-2 entries appear
    for n in (2, 4, 6):
        values = pan_aggregation(n).coefficient_values()
        assert values <= {Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)}, n
        assert Fraction(2) in values or Fraction(-2) in values, n


def test_pan_crossover_against_classical():
    # cheaper than the classical n^3 from n = 8 on; break-even at n = 6
    assert pan_aggregation(2).rank > 2**3
    assert pan_aggregation(4).rank > 4**3
    assert pan_aggregation(6).rank == 6**3
    assert pan_aggregation(8).rank < 8**3
    assert pan_aggregation(12).rank < 12**3


def test_pan_multiplies_correctly():
    rng = random.Random(52)
    field = PrimeField(P61)
    for n in (2, 4):
        alg = pan_aggregation(n)
        for _ in range(10):
            a = random_matrix(field, n, n, rng)
            b = random_matrix(field, n, n, rng)
            product, report = apply_elementary(alg, a, b)
            assert product == mat_classical_multiply(a, b)
            assert report.bilinear_mults == alg.rank
