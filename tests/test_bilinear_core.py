"""Program representation, both verifiers, execution, exponent, bounds, files."""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from mmalg import (
    BadArgument,
    BadField,
    BilinearAlgorithm,
    DimensionError,
    DimensionTriple,
    ExponentUndefined,
    FormatError,
    Matrix,
    PrimeField,
    QQ,
    apply_elementary,
    apply_equivalence,
    classical,
    cost_model,
    exponent,
    format_algorithm,
    generic_lower_bound,
    known_bounds,
    mat_classical_multiply,
    pan_aggregation,
    parse_algorithm,
    random_equivalence,
    random_matrix,
    sanity_rank_lower_bound,
    strassen_222,
    verify_brent,
    verify_trilinear_random,
)

from mmalg import bilinear_core, exact_algebra

from helpers import (
    P31, P61, brute_force_brent, corrupt_one, reference_trilinear_random,
)


def small_shipped():
    return [
        ("classical222", classical(2, 2, 2)),
        ("classical234", classical(2, 3, 4)),
        ("strassen", strassen_222()),
        ("pan2", pan_aggregation(2)),
        ("pan4", pan_aggregation(4)),
    ]


def test_structural_validation():
    dims = DimensionTriple(2, 2, 2)
    with pytest.raises(DimensionError):
        BilinearAlgorithm(dims, 2, [{}], [{}, {}], [{}, {}])
    with pytest.raises(DimensionError):
        BilinearAlgorithm(dims, 1, [{(2, 0): 1}], [{}], [{}])
    with pytest.raises(BadArgument):
        BilinearAlgorithm(dims, 0, [], [], [])
    with pytest.raises(BadArgument):
        DimensionTriple(2, 0, 2)
    # zero coefficients are dropped on construction
    alg = BilinearAlgorithm(dims, 1, [{(0, 0): 0, (0, 1): 2}], [{}], [{}])
    assert alg.u[0] == {(0, 1): Fraction(2)}


def test_coefficients_must_be_exact():
    dims = DimensionTriple(1, 1, 1)
    half = Fraction(1, 2)
    alg = BilinearAlgorithm(dims, 1, [{(0, 0): 3}], [{(0, 0): half}], [{}])
    assert type(alg.u[0][(0, 0)]) is int and alg.u[0][(0, 0)] == 3
    assert alg.v[0][(0, 0)] is half
    for bad in (0.1, Decimal("0.1"), "1/2"):
        with pytest.raises(BadArgument) as err:
            BilinearAlgorithm(dims, 1, [{}], [{}], [{(0, 0): bad}])
        assert "w[0]" in str(err.value) and repr(bad) in str(err.value)


def test_coefficients_take_one_canonical_form():
    # An integral value is an int, whatever spelled it; any other value is a
    # Fraction with denominator > 1.
    text = "mmalg-v1 1 2 1 1\nU\n0 0 4/2\n0 1 -0\nV\n0 0 007\nW\n0 0 -3/6\n"
    alg = parse_algorithm(text)
    assert alg.u[0] == {(0, 0): 2} and type(alg.u[0][(0, 0)]) is int
    assert alg.v[0] == {(0, 0): 7} and type(alg.v[0][(0, 0)]) is int
    assert alg.w[0] == {(0, 0): Fraction(-1, 2)} and type(alg.w[0][(0, 0)]) is Fraction
    built = BilinearAlgorithm(DimensionTriple(1, 1, 1), 1, [{(0, 0): True}],
                              [{(0, 0): Fraction(6, 3)}], [{(0, 0): False}])
    assert built.u[0] == {(0, 0): 1} and type(built.u[0][(0, 0)]) is int
    assert built.v[0] == {(0, 0): 2} and type(built.v[0][(0, 0)]) is int
    assert built.w[0] == {}


def test_verify_brent_accepts_correct_programs():
    for name, alg in small_shipped():
        report = verify_brent(alg)
        assert report.valid and report.violations == (), name
    assert verify_brent(classical(1, 1, 1)).valid


def test_verify_brent_single_missing_coefficient():
    base = classical(2, 2, 2)
    u = [dict(d) for d in base.u]
    # product 0 is (i,j,h) = (0,0,0); delete its only u entry
    assert u[0] == {(0, 0): Fraction(1)}
    u[0] = {}
    broken = BilinearAlgorithm(base.dims, base.rank, u, base.v, base.w)
    report = verify_brent(broken)
    assert not report.valid
    assert report.violations == (
        ((0, 0), (0, 0), (0, 0), Fraction(1), Fraction(0)),
    )


def test_verify_brent_agrees_with_dense_oracle():
    rng = random.Random(47)
    for name, alg in small_shipped():
        assert brute_force_brent(alg) == [], name
        assert verify_brent(alg).valid, name
    for name, alg in small_shipped()[:4]:
        for _ in range(6):
            bad = corrupt_one(alg, rng)
            dense_bad = brute_force_brent(bad)
            report = verify_brent(bad)
            assert dense_bad and not report.valid, name
            dense_keys = {tup[:6] for tup in dense_bad}
            sparse_keys = {lq + ij + gh for (lq, ij, gh, _, _) in report.violations}
            assert dense_keys == sparse_keys, name
            assert report.count == len(report.violations) == len(dense_bad)
            assert report.first(3) == report.violations[:3]


def test_verify_brent_counts_missing_equations_without_listing_them():
    # Every one of the m k n equations with right side 1 lacks a term; the
    # count and the first violations come without building the list.
    empty = BilinearAlgorithm(DimensionTriple(300, 300, 300), 1, [{}], [{}], [{}])
    start = time.perf_counter()
    report = verify_brent(empty)
    assert not report.valid and report.count == 300**3
    assert report.first(2) == (((0, 0), (0, 0), (0, 0), 1, 0), ((0, 0), (0, 1), (1, 0), 1, 0))
    assert time.perf_counter() - start < 1
    # Missing equations merge in order with wrong sums.
    c = classical(2, 2, 2)
    u = [dict(d) for d in c.u]
    u[1] = {}           # product 1 was the only term of (0,1,0,0,0,1)
    u[7] = {(1, 1): 2}  # sum (1,1,1,1,1,1) is 2
    report = verify_brent(BilinearAlgorithm(c.dims, c.rank, u, c.v, c.w))
    assert report.violations == (
        ((0, 1), (0, 0), (0, 1), 1, 0),
        ((1, 1), (1, 1), (1, 1), 1, 2),
    )
    assert report.count == 2 and report.first(1) == report.violations[:1]


def test_trilinear_random_examples():
    assert verify_trilinear_random(strassen_222(), trials=10, prime=P31, seed=0)
    base = classical(3, 3, 3)
    w = [dict(d) for d in base.w]
    w[0][(0, 0)] = Fraction(2)
    broken = BilinearAlgorithm(base.dims, base.rank, base.u, base.v, w)
    assert not verify_trilinear_random(broken, trials=10, prime=P31, seed=1)
    assert not verify_trilinear_random(broken, trials=10, prime=P61, seed=2)


def test_trilinear_random_argument_errors():
    alg = strassen_222()
    with pytest.raises(BadArgument):
        verify_trilinear_random(alg, trials=0)
    with pytest.raises(BadField):
        verify_trilinear_random(alg, trials=1, prime=6)
    with pytest.raises(BadArgument):
        verify_trilinear_random(alg, trials=1, prime=7)  # not above rank 7
    assert verify_trilinear_random(alg, trials=5, prime=11, seed=3)


def test_trilinear_agrees_with_brent():
    rng = random.Random(48)
    disagreements = 0
    for name, alg in small_shipped():
        brent_ok = verify_brent(alg).valid
        random_ok = verify_trilinear_random(alg, trials=10, prime=P61, seed=10)
        disagreements += brent_ok != random_ok
        for case in range(8):
            bad = corrupt_one(alg, rng)
            brent_ok = verify_brent(bad).valid
            random_ok = verify_trilinear_random(bad, trials=10, prime=P61, seed=case)
            disagreements += brent_ok != random_ok
    assert disagreements == 0


@pytest.mark.parametrize("p, alg", [(2, classical(1, 1, 1)), (3, classical(1, 1, 2)),
                                    (97, strassen_222()), (P61, classical(2, 3, 4)),
                                    (2**127 - 1, strassen_222())])
def test_trilinear_random_draws_what_randrange_draws(monkeypatch, p, alg):
    # Every value the check packs (each trial's A, B and D, trial-minor) is
    # the one a loop of rng.randrange(p) draws from the same seed.
    packed, real = [], bilinear_core._packed

    def spy(values, words, group):
        packed.append(list(values))
        return real(packed[-1], words, group)

    monkeypatch.setattr(bilinear_core, "_packed", spy)
    m, k, n = alg.dims
    for seed in range(6):
        for trials in (1, 5, 64):
            packed.clear()
            assert verify_trilinear_random(alg, trials=trials, prime=p, seed=seed)
            rng = random.Random(seed)
            draws = [[rng.randrange(p) for _ in range(m * k + k * n + n * m)]
                     for _ in range(trials)]
            assert packed[0] == [x for entry in zip(*draws) for x in entry], (seed, trials)


def test_trilinear_random_matches_the_trial_by_trial_reference():
    # At small primes an invalid program passes some trials and fails
    # others, so agreeing on every seed pins the samples each seed draws.
    # The error term (a10 + a11) b00 d10 of this change is symmetric in no
    # two of A, B and D, so drawing them in another order changes verdicts.
    base = strassen_222()
    w = [dict(d) for d in base.w]
    w[1][(0, 1)] = 1
    bad = BilinearAlgorithm(base.dims, base.rank, base.u, base.v, w)
    verdicts = set()
    for p in (11, 13, 101):
        for trials in (1, 2, 3):
            for seed in range(150):
                expected = reference_trilinear_random(bad, trials, p, seed)
                got = verify_trilinear_random(bad, trials=trials, prime=p, seed=seed)
                assert got == expected, (p, trials, seed)
                verdicts.add(expected)
    assert verdicts == {True, False}
    # Fraction coefficients, slots of two (2^61-1) and four (2^127-1) words,
    # a non-square shape, and trial counts on both sides of the batch of 64.
    rng = random.Random(12)
    for seed, alg in enumerate((strassen_222(), classical(2, 3, 4))):
        valid = apply_equivalence(alg, random_equivalence(alg.dims, alg.rank, seed))
        assert any(type(c) is Fraction for c in valid.coefficient_values())
        invalid = corrupt_one(valid, rng)
        for p in (P61, 2**127 - 1):
            for trials in (1, 63, 64, 65, 130):
                for prog, expected in ((valid, True), (invalid, False)):
                    assert reference_trilinear_random(prog, trials, p, trials) == expected
                    got = verify_trilinear_random(prog, trials=trials, prime=p, seed=trials)
                    assert got == expected, (alg.dims, p, trials, expected)
    # A program of more products than one chunk (pan(12), rank 1296), and
    # the same with one coefficient changed in the second chunk.
    big = pan_aggregation(12)
    assert big.rank > bilinear_core._PRODUCT_CHUNK
    w = list(big.w)
    w[1200] = {**w[1200], (0, 0): w[1200].get((0, 0), 0) + 1}
    bad = BilinearAlgorithm(big.dims, big.rank, big.u, big.v, w)
    for seed in range(4):
        for prog, expected in ((big, True), (bad, False)):
            assert reference_trilinear_random(prog, 2, 1301, seed) == expected
            assert verify_trilinear_random(prog, trials=2, prime=1301, seed=seed) == expected


@pytest.mark.parametrize("chunk", (1, 2, 5))
def test_trilinear_random_product_chunks_and_word_views(chunk, monkeypatch):
    # Every chunk size reads the same sums back, for slots of one, two and
    # four 64-bit words.
    monkeypatch.setattr(bilinear_core, "_PRODUCT_CHUNK", chunk)
    rng = random.Random(chunk)
    s = strassen_222()
    dense = apply_equivalence(s, random_equivalence(s.dims, s.rank, chunk))
    progs = [s, corrupt_one(s, rng), dense, corrupt_one(dense, rng), classical(2, 3, 2)]
    seen_words = set()
    for prog in progs:
        for p in (101, P61, 2**127 - 1):
            seen_words.update(_slot_widths(prog, p))
            for trials in (1, 3, 66):
                for seed in range(3):
                    got = verify_trilinear_random(prog, trials=trials, prime=p, seed=seed)
                    assert got == reference_trilinear_random(prog, trials, p, seed), (p, trials)
    assert {1, 2, 4} <= seen_words


def _centred(c, p: int) -> int:
    """The residue of the rational c mod p nearest zero."""
    c = Fraction(c)
    x = c.numerator * pow(c.denominator, -1, p) % p
    return x - p if 2 * x > p else x


def _slot_widths(alg: BilinearAlgorithm, p: int) -> set:
    """The slot widths in 64-bit words of alg's products at prime p: product s
    needs size_s (top + low) p, where size_s is its largest slice, top the
    largest |centred image| and low the largest negative one's size."""
    images = [_centred(c, p) for c in alg.coefficient_values()]
    top = max(map(abs, images), default=0)
    low = max(0, -min(images, default=0))
    return {-(-(max(map(len, t)) * (top + low) * p).bit_length() // 64)
            for t in zip(alg.u, alg.v, alg.w)}


def _negated(alg: BilinearAlgorithm, *slices) -> BilinearAlgorithm:
    """alg with each slice named in slices negated: ("u", 0) negates u[0]."""
    tensors = {name: list(getattr(alg, name)) for name in "uvw"}
    for name, s in slices:
        tensors[name][s] = {key: -c for key, c in tensors[name][s].items()}
    return BilinearAlgorithm(alg.dims, alg.rank, tensors["u"], tensors["v"], tensors["w"])


def test_trilinear_random_gives_each_product_its_own_slot_width(monkeypatch):
    # pan(4)'s coefficients are +-1 and +-2.  Kept signed at 2^61-1, they put
    # a product of at most 2 entries per slice (product 0) in one-word slots,
    # since 2 (2 + 2) p < 2^64, and a wider one (product 32) in two-word
    # slots, so one call reads both widths.  Negating slices puts negative
    # coefficients in the narrow and the wide product: the valid program must
    # pass, so no slot borrows from the next, and each verdict is the
    # reference's.
    words_read = set()

    def spy(view, words, first, stride):
        words_read.add(words)
        return exact_algebra._slots(view, words, first, stride)

    monkeypatch.setattr(bilinear_core, "_slots", spy)
    pan4 = pan_aggregation(4)
    assert _slot_widths(pan4, P61) == {1, 2}
    sizes = [max(map(len, t)) for t in zip(pan4.u, pan4.v, pan4.w)]
    assert (sizes[0], sizes[32]) == (2, 4)
    cases = ((_negated(pan4, ("u", 0), ("w", 0), ("v", 32), ("w", 32)), True),
             (_negated(pan4, ("u", 0)), False),
             (_negated(pan4, ("v", 32)), False))
    for prog, expected in cases:
        assert min(prog.u[0].values()) < 0 or min(prog.v[32].values()) < 0
        for seed in range(3):
            words_read.clear()
            assert verify_trilinear_random(prog, trials=3, prime=P61, seed=seed) == expected
            assert reference_trilinear_random(prog, 3, P61, seed) == expected
            assert words_read == {1, 2}


@pytest.mark.parametrize("p", (11, 13, 101))
def test_trilinear_random_on_centred_images_that_change_sign(p):
    # At a small prime many coefficients have a centred image of the other
    # sign (1/2 becomes -(p-1)/2, and 7 mod 11 becomes -4).  Every verdict
    # on a Fraction-coefficient program and on changed copies of it is the
    # reference's, on both sides of the batch of 64 trials.
    s = strassen_222()
    valid = apply_equivalence(s, random_equivalence(s.dims, s.rank, 2))
    values = valid.coefficient_values()
    assert any(type(c) is Fraction for c in values)
    assert any((_centred(c, p) < 0) != (c < 0) for c in values)
    rng = random.Random(p)
    progs = [valid] + [corrupt_one(valid, rng) for _ in range(3)]
    verdicts = set()
    for prog in progs:
        for trials in (2, 63, 64, 65):
            for seed in range(2):
                expected = reference_trilinear_random(prog, trials, p, seed)
                got = verify_trilinear_random(prog, trials=trials, prime=p, seed=seed)
                assert got == expected, (p, trials, seed)
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_apply_elementary_identity_case():
    alg = strassen_222()
    b = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    product, report = apply_elementary(alg, Matrix.identity(QQ, 2), b)
    assert product == b
    assert report.bilinear_mults == 7
    assert report.scalar_mults == 0
    assert report.additions == 18  # 5 + 5 on the inputs, 8 on the outputs


def test_apply_elementary_matches_classical():
    rng = random.Random(49)
    field = PrimeField(P61)
    for name, alg in small_shipped():
        m, k, n = alg.dims
        for _ in range(100):
            a = random_matrix(field, m, k, rng)
            b = random_matrix(field, k, n, rng)
            product, _ = apply_elementary(alg, a, b)
            assert product == mat_classical_multiply(a, b), name
        for _ in range(20):
            a = random_matrix(QQ, m, k, rng)
            b = random_matrix(QQ, k, n, rng)
            product, report = apply_elementary(alg, a, b)
            assert product == mat_classical_multiply(a, b), name
            assert report.bilinear_mults == alg.rank


def test_apply_elementary_shape_errors():
    alg = strassen_222()
    with pytest.raises(DimensionError):
        apply_elementary(alg, Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 3, 2))
    with pytest.raises(ValueError):
        apply_elementary(alg, Matrix.identity(QQ, 2), Matrix.identity(PrimeField(7), 2))


def test_pan_counts_scalar_multiplications():
    # aggregation programs carry coefficients of magnitude 2
    rng = random.Random(50)
    alg = pan_aggregation(2)
    a = random_matrix(QQ, 2, 2, rng)
    b = random_matrix(QQ, 2, 2, rng)
    product, report = apply_elementary(alg, a, b)
    assert product == mat_classical_multiply(a, b)
    assert report.bilinear_mults == 16
    assert report.scalar_mults > 0
    assert (report.scalar_mults, report.additions) == (6, 30)
    for n, k, counts in ((2, 4, (256, 120, 600)), (4, 16, (6400, 1728, 27456))):
        model = cost_model(pan_aggregation(n), k)
        assert (model.bilinear_mults, model.scalar_mults, model.additions) == counts


def test_exponent_values():
    assert exponent(classical(2, 2, 2)) == 3.0
    assert exponent(classical(2, 3, 4)) == 3.0
    assert abs(exponent(strassen_222()) - math.log2(7)) <= 1e-12
    with pytest.raises(ExponentUndefined):
        exponent(classical(1, 1, 1))


def test_exponent_monotone_in_rank():
    dims = DimensionTriple(2, 2, 2)
    prev = None
    for rank in (7, 8, 9, 12):
        alg = BilinearAlgorithm(dims, rank, [{}] * rank, [{}] * rank, [{}] * rank)
        e = exponent(alg)
        if prev is not None:
            assert e > prev
        prev = e


def test_known_bounds_table():
    table = known_bounds()
    rows = {(r.dims.m, r.dims.k, r.dims.n): (r.lower, r.upper) for r in table.entries}
    assert rows == {
        (2, 2, 2): (7, 7),
        (2, 3, 3): (15, 16),
        (2, 3, 4): (19, None),
        (3, 3, 3): (18, None),
        (2, 4, 4): (None, 27),
    }
    assert len(table.rules) == 2


def test_known_bounds_lookup():
    table = known_bounds()
    row = table.lookup(DimensionTriple(2, 2, 2))
    assert (row.lower, row.upper) == (7, 7)
    row = table.lookup(DimensionTriple(2, 3, 3))
    assert (row.lower, row.upper) == (15, 16)
    # special family beats the generic bound: 3n+2 vs (2+n-1)*2
    row = table.lookup(DimensionTriple(2, 2, 5))
    assert row.lower == 17 and row.upper is None
    row = table.lookup(DimensionTriple(3, 1, 3))
    assert row.lower == 5
    # table lower for 2x4x4 comes from the generic rule
    row = table.lookup(DimensionTriple(2, 4, 4))
    assert row.lower == 20 and row.upper == 27


def test_generic_lower_bound_sanity():
    assert generic_lower_bound(DimensionTriple(2, 2, 2)) == 6
    assert generic_lower_bound(DimensionTriple(2, 3, 4)) == 15
    for _, alg in small_shipped():
        assert sanity_rank_lower_bound(alg)
    dims = DimensionTriple(2, 2, 2)
    runt = BilinearAlgorithm(dims, 5, [{}] * 5, [{}] * 5, [{}] * 5)
    assert not sanity_rank_lower_bound(runt)


def test_algorithm_format_round_trip():
    for name, alg in small_shipped():
        text = format_algorithm(alg)
        again = parse_algorithm(text)
        assert again == alg, name
        # canonical writer output is a fixed point
        assert format_algorithm(again) == text, name
    assert parse_algorithm(format_algorithm(pan_aggregation(6))) == pan_aggregation(6)


def test_algorithm_format_header():
    text = format_algorithm(classical(2, 3, 4))
    assert text.splitlines()[0] == "mmalg-v1 2 3 4 24"


def test_algorithm_format_tolerates_reordering():
    alg = strassen_222()
    lines = format_algorithm(alg).splitlines()
    # swap the two entries of the first U block
    assert lines[1] == "U" and lines[2] == "0 0 1" and lines[3] == "1 1 1"
    lines[2], lines[3] = lines[3], lines[2]
    assert parse_algorithm("\n".join(lines)) == alg
    # extra blank lines are harmless
    padded = "\n\n" + "\n\n".join(lines) + "\n\n"
    assert parse_algorithm(padded) == alg


def test_algorithm_format_errors():
    with pytest.raises(FormatError) as err:
        parse_algorithm("")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v2 2 2 2 7\nU\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 2 2 x 7\nU\n")
    assert err.value.line == 1

    good = format_algorithm(strassen_222())
    # truncation: drop the final W block
    lines = good.splitlines()
    last_w = max(i for i, line in enumerate(lines) if line == "W")
    truncated = "\n".join(lines[:last_w])
    with pytest.raises(FormatError) as err:
        parse_algorithm(truncated)
    assert "blocks" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_algorithm(good + "\nU\n0 0 1\nV\n0 0 1\nW\n0 0 1\n")
    assert str(err.value) == "line 66: more than 7 products in file"

    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 1 1 1 1\nU\n0 0 1\nV\n0 0 1\nW\n0 5 1\n")
    assert err.value.line == 7  # index out of range
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 1 1 1 1\nU\n0 0 1\n0 0 2\nV\n0 0 1\nW\n0 0 1\n")
    assert err.value.line == 4  # duplicate entry
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 1 1 1 1\nV\n0 0 1\nU\n0 0 1\nW\n0 0 1\n")
    assert err.value.line == 2  # blocks out of order
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 1 1 1 1\n0 0 1\n")
    assert err.value.line == 2  # entry before any label
    with pytest.raises(FormatError) as err:
        parse_algorithm("mmalg-v1 1 1 1 1\nU\n0 0 1/0\nV\n0 0 1\nW\n0 0 1\n")
    assert err.value.line == 3  # bad coefficient


def test_parse_drops_explicit_zeros():
    text = "mmalg-v1 1 1 1 1\nU\n0 0 0\nV\n0 0 1\nW\n0 0 1\n"
    alg = parse_algorithm(text)
    assert alg.u[0] == {}
