"""The three program families: shapes, ranks, validity, coefficient alphabets."""

import hashlib
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


# sha256 of repr([list(d.items()) for d in t]) for t = u, v, w.
PAN_SLICE_DIGESTS = {
    2: ("3f4e942a066e00a5389c5a369ce7799dbb824279ea03f15068ef14b3005fecde",
        "4fbe53e71463bf96bc4202a1c2c08a531ece22cee3c762998d7881be3677a9cc",
        "774ba644ff12bcd61a449606efac84ada2fa8b4e22678a49b04d7cb9089e417c"),
    4: ("687aee8e3895a80572a2187f18007418f038e14ff558368613948d7944e9f6ed",
        "81fc6fa1d80e1bc32b35404f7ec3cba1706a5fc0af4e70d9bd406147bc9e3d10",
        "dc50fe9ac3c078f34ade7b998f5b7a72c50bd3e7da1231f53a3fc1ea3dcab2fc"),
    6: ("250c1e45170c130509d5a9979132b97a002c4b709086926d57348b5e985641de",
        "87ee428368da17fb382e72e8e8366df5b48c4ee791ff4787b1cdee667cf978f2",
        "626b1a4dc8007c741d04a5cb5f5dd3b9d9465c16033fa7c0789624b0a37e6a40"),
    8: ("b6e751487dbbe0a1cd9064192320c2cc4450be8cf6451892fb2dc0e84cd6ecb8",
        "c66e4d0643a2970298da968860a953f8b51e70d69d6c388a566455af50717f81",
        "6127549821ee2e4aeb84477a8d5735f087ca5355abf41105e23024d2bbe69b66"),
    12: ("0e22c306f7f2f4c96efee405f2ffd1adf7a526e281bea3194234b3772dff9bd4",
         "61eb4b86feb35482462f5fc1fdafc14c740cc1c07100fd062a93aeddf83bb145",
         "a236e28a02aa6f8856c96572e78b3d8862ec6227269ae1669a253258cc88041f"),
    16: ("255f6c6680d8218925dd91cf2a71da26212e728249c5349c4d59c456d5a2f973",
         "39457b5a2213b0182a6969acf70527ba127b9ded6c0a489851b9ce373100707f",
         "a5bef55b39e435c6f16332c3a6a750e9693f114a857f5a095ac17bccd83bd454"),
    34: ("e5d8e870684a0ae9976d6410712af1af92d656e90b7fdf2746e9ae77a3aad17a",
         "f01848f6e821826bcdcb087e00ade6a3d1eac831c0c7429c3adc67ee1834b2ba",
         "2043f5174b5d15312253aa1b562013186b410c0a5318bef29a206de2b25cc694"),
}


def test_pan_slices_are_pinned():
    # Product order, key order within a slice and the int type of every
    # coefficient: the program file's bytes and the compiled evaluator's
    # term order follow all three, and equality and the writer (which sorts
    # keys) see none of them.
    for n, digests in PAN_SLICE_DIGESTS.items():
        alg = pan_aggregation(n)
        got = tuple(hashlib.sha256(repr([list(d.items()) for d in t]).encode()).hexdigest()
                    for t in (alg.u, alg.v, alg.w))
        assert got == digests, n
