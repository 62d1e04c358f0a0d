"""Duality, tensor products, squareify, and equivalence transforms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmalg import (
    BadArgument,
    BadTransform,
    BilinearAlgorithm,
    DimensionTriple,
    DualityPermutation,
    EquivalenceTransform,
    FormatError,
    InvalidAlgorithm,
    Matrix,
    PrimeField,
    QQ,
    apply_elementary,
    apply_equivalence,
    classical,
    dual,
    exponent,
    format_transform,
    mat_classical_multiply,
    mat_inverse,
    pan_aggregation,
    parse_transform,
    random_equivalence,
    random_matrix,
    squareify,
    strassen_222,
    tensor_product,
    verify_brent,
)

from helpers import P61, corrupt_one, reference_apply_equivalence


def test_all_six_duals_of_strassen():
    alg = strassen_222()
    seen = set()
    for perm in DualityPermutation:
        d = dual(alg, perm)
        assert verify_brent(d).valid, perm
        assert d.rank == 7
        assert d.dims == perm.target_dims(alg.dims)
        seen.add(perm)
    assert len(seen) == 6


def test_all_six_duals_of_rectangular():
    alg = classical(2, 3, 4)
    expected_dims = {
        "mkn": (2, 3, 4), "knm": (3, 4, 2), "nmk": (4, 2, 3),
        "mnk": (2, 4, 3), "nkm": (4, 3, 2), "kmn": (3, 2, 4),
    }
    for name, dims in expected_dims.items():
        d = dual(alg, name)
        assert d.dims == DimensionTriple(*dims), name
        assert d.rank == 24 and verify_brent(d).valid, name


def test_dual_composition_laws():
    alg = strassen_222()
    assert dual(alg, "mkn") == alg
    assert dual(dual(dual(alg, "knm"), "knm"), "knm") == alg
    assert dual(dual(alg, "mnk"), "mnk") == alg
    rect = classical(2, 3, 4)
    assert dual(dual(dual(rect, "knm"), "knm"), "knm") == rect


def test_dual_of_pan():
    alg = pan_aggregation(2)
    for perm in ("knm", "mnk"):
        d = dual(alg, perm)
        assert verify_brent(d).valid and d.rank == alg.rank


def test_dual_requires_valid_input():
    rng = random.Random(53)
    bad = corrupt_one(strassen_222(), rng)
    with pytest.raises(InvalidAlgorithm):
        dual(bad, "knm")
    with pytest.raises(BadArgument):
        dual(strassen_222(), "xyz")


def test_tensor_product_structure():
    s = strassen_222()
    t = tensor_product(s, s)
    assert t.dims == DimensionTriple(4, 4, 4)
    assert t.rank == 49
    assert verify_brent(t).valid
    rect = tensor_product(classical(2, 1, 1), classical(1, 3, 1))
    assert rect.dims == DimensionTriple(2, 3, 1)
    assert rect.rank == 6
    assert verify_brent(rect).valid


def test_tensor_product_identity_and_associativity():
    s = strassen_222()
    one = classical(1, 1, 1)
    assert tensor_product(s, one) == s
    assert tensor_product(one, s) == s
    a, b, c = classical(2, 1, 1), classical(1, 2, 1), strassen_222()
    assert tensor_product(tensor_product(a, b), c) == tensor_product(a, tensor_product(b, c))


def test_tensor_product_multiplies_correctly():
    rng = random.Random(54)
    field = PrimeField(P61)
    t = tensor_product(strassen_222(), classical(2, 2, 2))
    assert t.dims == DimensionTriple(4, 4, 4) and t.rank == 56
    for _ in range(5):
        a = random_matrix(field, 4, 4, rng)
        b = random_matrix(field, 4, 4, rng)
        product, _ = apply_elementary(t, a, b)
        assert product == mat_classical_multiply(a, b)


def test_tensor_product_requires_valid_inputs():
    rng = random.Random(55)
    bad = corrupt_one(classical(2, 2, 2), rng)
    with pytest.raises(InvalidAlgorithm):
        tensor_product(bad, strassen_222())
    with pytest.raises(InvalidAlgorithm):
        tensor_product(strassen_222(), bad)


def test_apply_equivalence_requires_valid_input():
    rng = random.Random(58)
    bad = corrupt_one(strassen_222(), rng)
    with pytest.raises(InvalidAlgorithm):
        apply_equivalence(bad, EquivalenceTransform.identity(bad.dims, bad.rank))
    with pytest.raises(InvalidAlgorithm):
        apply_equivalence(bad, random_equivalence(bad.dims, bad.rank, 3))


def test_squareify():
    sq = squareify(strassen_222())
    assert sq.dims == DimensionTriple(8, 8, 8)
    assert sq.rank == 343
    assert verify_brent(sq).valid
    assert abs(exponent(sq) - math.log2(7)) <= 1e-12

    sq = squareify(pan_aggregation(2))
    assert sq.dims == DimensionTriple(8, 8, 8)
    assert sq.rank == 4096
    assert abs(exponent(sq) - 4.0) <= 1e-12

    sq = squareify(classical(2, 3, 4))
    assert sq.dims == DimensionTriple(24, 24, 24)
    assert sq.rank == 13824
    assert verify_brent(sq).valid
    assert exponent(sq) == 3.0


def test_identity_transform_is_fixed_point():
    for alg in (strassen_222(), classical(2, 3, 4)):
        ident = EquivalenceTransform.identity(alg.dims, alg.rank)
        assert apply_equivalence(alg, ident) == alg


def test_permutation_only_transform_relabels_products():
    alg = strassen_222()
    perm = (3, 0, 6, 1, 2, 5, 4)
    ident = EquivalenceTransform.identity(alg.dims, alg.rank)
    shuffled = EquivalenceTransform(
        ident.sigma, ident.gamma, ident.nabla, ident.lam, ident.mu, ident.beta, perm
    )
    out = apply_equivalence(alg, shuffled)
    for s in range(alg.rank):
        assert out.u[s] == alg.u[perm[s]]
        assert out.v[s] == alg.v[perm[s]]
        assert out.w[s] == alg.w[perm[s]]
    assert verify_brent(out).valid


def test_transform_invariants_enforced():
    two = Matrix.from_rows(QQ, [[2, 0], [0, 2]])
    eye = Matrix.identity(QQ, 2)
    with pytest.raises(BadTransform):
        EquivalenceTransform(two, eye, eye, eye, eye, eye, (0,))
    with pytest.raises(BadTransform):
        EquivalenceTransform(eye, eye, eye, eye, eye, eye, (0, 0))
    half = Matrix.from_rows(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    t = EquivalenceTransform(two, half, eye, eye, eye, eye, (0,))
    assert t.sigma == two


def test_apply_equivalence_size_mismatch():
    alg = classical(2, 3, 4)
    wrong = EquivalenceTransform.identity(DimensionTriple(2, 2, 2), alg.rank)
    with pytest.raises(BadTransform):
        apply_equivalence(alg, wrong)
    short = EquivalenceTransform.identity(alg.dims, 5)
    with pytest.raises(BadTransform):
        apply_equivalence(alg, short)


def test_random_equivalence_preserves_validity():
    for alg, seeds in ((strassen_222(), range(30)), (classical(2, 3, 4), range(20)),
                       (pan_aggregation(2), range(5))):
        for seed in seeds:
            transform = random_equivalence(alg.dims, alg.rank, seed)
            out = apply_equivalence(alg, transform)
            assert out.rank == alg.rank
            assert verify_brent(out).valid, (alg.dims, seed)


def test_random_equivalence_determinism_and_invariants():
    assert random_equivalence(DimensionTriple(2, 2, 2), 7, 9) == random_equivalence(
        DimensionTriple(2, 2, 2), 7, 9
    )
    assert random_equivalence(DimensionTriple(2, 2, 2), 7, 9) != random_equivalence(
        DimensionTriple(2, 2, 2), 7, 10
    )
    for seed in range(1000):
        dims = DimensionTriple(2, 3, 4) if seed % 2 else DimensionTriple(2, 2, 2)
        t = random_equivalence(dims, 7, seed)
        for left, right, size in (
            (t.sigma, t.gamma, dims.m),
            (t.nabla, t.lam, dims.k),
            (t.mu, t.beta, dims.n),
        ):
            assert mat_classical_multiply(left, right) == Matrix.identity(QQ, size)
        assert sorted(t.perm) == list(range(7))


def test_transform_file_round_trip():
    alg = classical(2, 3, 4)
    transform = random_equivalence(alg.dims, alg.rank, 77)
    text = format_transform(transform)
    # The header is read off the transform itself.
    assert text.splitlines()[0] == "mmtrans-v1 2 3 4 24"
    again = parse_transform(text)
    assert again == transform
    assert format_transform(again) == text


def test_transform_file_errors():
    alg = strassen_222()
    transform = random_equivalence(alg.dims, alg.rank, 3)
    lines = format_transform(transform).splitlines()

    with pytest.raises(FormatError) as err:
        parse_transform("")
    assert err.value.line == 1
    with pytest.raises(FormatError):
        parse_transform("mmtrans-v2 2 2 2 7\n")
    # wrong label order
    swapped = list(lines)
    sigma_at = swapped.index("sigma")
    gamma_at = swapped.index("gamma")
    swapped[sigma_at], swapped[gamma_at] = swapped[gamma_at], swapped[sigma_at]
    with pytest.raises(FormatError):
        parse_transform("\n".join(swapped))
    # perm too short
    broken = list(lines)
    broken[-1] = "1 2 3"
    with pytest.raises(FormatError):
        parse_transform("\n".join(broken))
    # perm out of range
    broken[-1] = "1 2 3 4 5 6 9"
    with pytest.raises(FormatError):
        parse_transform("\n".join(broken))
    # trailing junk
    with pytest.raises(FormatError):
        parse_transform("\n".join(lines) + "\nextra\n")
    # structurally fine but not mutually inverse
    bad = list(lines)
    sigma_row = bad.index("sigma") + 1
    bad[sigma_row] = "5 0"
    with pytest.raises(BadTransform):
        parse_transform("\n".join(bad))


def _dense_slice(d, rows, cols):
    return Matrix(QQ, rows, cols, [d.get((r, c), 0) for r in range(rows) for c in range(cols)])


def _nonzeros(mat):
    return {divmod(i, mat.cols): x for i, x in enumerate(mat.entries) if x}


def test_apply_equivalence_matches_dense_formulas():
    # u-bar = sigma U nabla^T, v-bar = lam^T V mu^T, w-bar = gamma^T W beta,
    # each product taken densely with the classical kernel.
    s = strassen_222()
    halved = BilinearAlgorithm(
        s.dims, s.rank,
        [{key: c * Fraction(1, 2) for key, c in s.u[0].items()}, *s.u[1:]],
        s.v,
        [{key: c * 2 for key, c in s.w[0].items()}, *s.w[1:]],
    )
    assert verify_brent(halved).valid
    mul = mat_classical_multiply
    for alg, seeds in ((s, range(6)), (pan_aggregation(4), range(2)),
                       (classical(2, 3, 4), range(4)), (halved, range(4))):
        m, k, n = alg.dims
        for seed in seeds:
            t = random_equivalence(alg.dims, alg.rank, seed)
            out = apply_equivalence(alg, t)
            for r, src in enumerate(t.perm):
                u = mul(mul(t.sigma, _dense_slice(alg.u[src], m, k)), t.nabla.transpose())
                v = mul(mul(t.lam.transpose(), _dense_slice(alg.v[src], k, n)),
                        t.mu.transpose())
                w = mul(mul(t.gamma.transpose(), _dense_slice(alg.w[src], m, n)), t.beta)
                assert out.u[r] == _nonzeros(u), (alg.dims, seed, r)
                assert out.v[r] == _nonzeros(v), (alg.dims, seed, r)
                assert out.w[r] == _nonzeros(w), (alg.dims, seed, r)


def _canonical(alg):
    """Every coefficient is a nonzero int, or a Fraction with denominator > 1,
    and the public constructor, which checks and cleans every coefficient,
    gives back the same program."""
    return all(
        c and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
        for tensor in (alg.u, alg.v, alg.w) for d in tensor for c in d.values()
    ) and BilinearAlgorithm(alg.dims, alg.rank, alg.u, alg.v, alg.w) == alg


_SMALL = (classical(1, 1, 1), classical(1, 1, 2), classical(2, 1, 1), classical(1, 2, 2),
          classical(2, 1, 2), classical(2, 2, 1), classical(1, 2, 3), strassen_222(),
          pan_aggregation(2))
_SCALES = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def valid_programs(draw, max_volume=8):
    """A shipped small program, each product's U scaled by some f and its W
    by 1/f, then optionally put through a random equivalence."""
    alg = draw(st.sampled_from([a for a in _SMALL if a.dims.volume <= max_volume]))
    scales = [draw(st.sampled_from(_SCALES)) for _ in range(alg.rank)]
    alg = BilinearAlgorithm(
        alg.dims, alg.rank,
        [{key: c * f for key, c in d.items()} for d, f in zip(alg.u, scales)],
        alg.v,
        [{key: c / Fraction(f) for key, c in d.items()} for d, f in zip(alg.w, scales)],
    )
    if draw(st.booleans()):
        alg = apply_equivalence(
            alg, random_equivalence(alg.dims, alg.rank, draw(st.integers(0, 2**32))))
    return alg


# The generators build their programs in canonical form themselves.
_GENERATED = (*(classical(*dims) for dims in ((1, 1, 1), (1, 2, 3), (2, 2, 2), (2, 3, 4),
                                              (3, 3, 3))),
              strassen_222(), *map(pan_aggregation, range(2, 13, 2)))


@pytest.mark.parametrize("source", (None, *_GENERATED),
                         ids=lambda a: "drawn" if a is None else f"{a.dims}-rank{a.rank}")
@given(st.data())
def test_dual_maps_valid_to_valid_canonical(source, data):
    # A fixed source runs once per permutation: Hypothesis stops when the
    # six are spent.
    alg = data.draw(valid_programs()) if source is None else source
    perm = data.draw(st.sampled_from(DualityPermutation))
    assert _canonical(alg)
    out = dual(alg, perm)
    assert verify_brent(out).valid and _canonical(out)


@given(valid_programs(), valid_programs(max_volume=4))
def test_tensor_product_maps_valid_to_valid_canonical(a, b):
    out = tensor_product(a, b)
    assert verify_brent(out).valid and _canonical(out)


@given(valid_programs(max_volume=2))
def test_squareify_maps_valid_to_valid_canonical(alg):
    out = squareify(alg)
    assert verify_brent(out).valid and _canonical(out)


@given(valid_programs(), st.integers(0, 2**32))
def test_apply_equivalence_maps_valid_to_valid_canonical(alg, seed):
    out = apply_equivalence(alg, random_equivalence(alg.dims, alg.rank, seed))
    assert verify_brent(out).valid and _canonical(out)


_DIAGONALS = st.fractions(-5, 5, max_denominator=7).filter(bool)


@st.composite
def equivalences(draw, dims, rank):
    """A transform of unit-triangular L D U basis changes, D drawn from
    nonzero Fractions, and a drawn relabeling."""
    pairs = []
    for size in dims:
        entries = st.integers(-3, 3)
        lower = [[1 if i == j else draw(entries) if i > j else 0 for j in range(size)]
                 for i in range(size)]
        upper = [[1 if i == j else draw(entries) if i < j else 0 for j in range(size)]
                 for i in range(size)]
        diag = [draw(_DIAGONALS) for _ in range(size)]
        a = mat_classical_multiply(
            Matrix.from_rows(QQ, [[x * d for x, d in zip(row, diag)] for row in lower]),
            Matrix.from_rows(QQ, upper))
        pairs += [a, mat_inverse(a)]
    return EquivalenceTransform(*pairs, draw(st.permutations(range(rank))))


def _typed(tensor):
    return [[(key, type(c), c) for key, c in d.items()] for d in tensor]


@given(st.data())
def test_apply_equivalence_matches_the_fraction_reference(data):
    # Same slices, keys in the same order, and the same value types as the
    # transform computed term by term in Fractions, on programs with int
    # and Fraction coefficients and transforms with Fraction entries.
    alg = data.draw(valid_programs())
    t = data.draw(st.one_of(
        equivalences(alg.dims, alg.rank),
        st.integers(0, 2**32).map(lambda seed: random_equivalence(alg.dims, alg.rank, seed))))
    out = apply_equivalence(alg, t)
    for got, expected in zip((out.u, out.v, out.w), reference_apply_equivalence(alg, t)):
        assert _typed(got) == _typed(expected)
