"""Recursive multiplication, the closed-form cost model, and block inversion."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmalg import (
    BadArgument,
    BilinearAlgorithm,
    DimensionError,
    Matrix,
    ModularScalar,
    PrimeField,
    QQ,
    RecursionConfig,
    SingularMatrix,
    apply_elementary,
    apply_equivalence,
    classical,
    cost_model,
    mat_classical_multiply,
    mat_inverse,
    multiply_via_inversion,
    pan_aggregation,
    random_equivalence,
    random_matrix,
    recursive_invert,
    recursive_multiply,
    strassen_222,
    tensor_product,
)

from mmalg import exact_algebra, recursion
from mmalg.recursion import _BATCH_ENTRIES, _compile, _leaf_count, _plan

from helpers import P61, naive_product, unit_lu_matrix

FIELD = PrimeField(P61)


def test_config_validation():
    # A rectangular base runs as it is; only 1x1x1 has nothing to split.
    assert tuple(RecursionConfig(classical(2, 3, 4)).base_alg.dims) == (2, 3, 4)
    with pytest.raises(BadArgument):
        RecursionConfig(strassen_222(), threshold=0)
    with pytest.raises(BadArgument):
        RecursionConfig(classical(1, 1, 1))
    cfg = RecursionConfig(strassen_222())
    assert cfg.threshold == 1


def test_multiply_input_validation():
    cfg = RecursionConfig(strassen_222())
    a, b = Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 3, 3)
    assert recursive_multiply(cfg, a, b)[0] == mat_classical_multiply(a, b)
    with pytest.raises(DimensionError):
        recursive_multiply(cfg, Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 3, 3))
    with pytest.raises(ValueError):
        recursive_multiply(cfg, Matrix.zeros(QQ, 2, 2), Matrix.zeros(FIELD, 2, 2))


def _form_counts(alg):
    """[(additions, scalar mults)] of the U, V and W combinations of one
    evaluation, read off the coefficients: a term beyond the first in a
    combination is an addition, a coefficient outside {1, -1} a scaling."""
    outputs = {}
    for d in alg.w:
        for key, c in d.items():
            outputs.setdefault(key, []).append(c)
    groups = ([list(d.values()) for d in alg.u], [list(d.values()) for d in alg.v],
              list(outputs.values()))
    return [(sum(max(len(f) - 1, 0) for f in g), sum(c not in (1, -1) for f in g for c in f))
            for g in groups]


def _shape_counts(alg, threshold, m, k, n):
    """(bilinear_mults, scalar_mults, additions) of an m x k by k x n product
    over a base of sides (sm, sk, sn) under the pad-once rule: d levels, d
    the least depth with min(ceil(m / sm^d), ceil(k / sk^d), ceil(n / sn^d))
    <= threshold; leaves of ceil(x / s_x^d); each of the R^(d-j) nodes j
    levels above the leaves charged its U, V and W combinations once per
    entry of an A, a B and a C block one level down."""
    (sm, sk, sn), r = alg.dims, alg.rank
    d = 0
    while min(-(-m // sm**d), -(-k // sk**d), -(-n // sn**d)) > threshold:
        d += 1
    lm, lk, ln = -(-m // sm**d), -(-k // sk**d), -(-n // sn**d)
    mults = r**d * lm * lk * ln
    adds = r**d * lm * (lk - 1) * ln
    scalings = 0
    (ua, us), (va, vs), (wa, ws) = _form_counts(alg)
    for j in range(1, d + 1):
        bm, bk, bn = lm * sm ** (j - 1), lk * sk ** (j - 1), ln * sn ** (j - 1)
        nodes = r ** (d - j)
        adds += nodes * (ua * bm * bk + va * bk * bn + wa * bm * bn)
        scalings += nodes * (us * bm * bk + vs * bk * bn + ws * bm * bn)
    return mults, scalings, adds


def test_multiply_any_conforming_shape():
    # Every m x k by k x n product equals the triple loop, and its counts
    # equal the pad-once recurrence computed above.
    rng = random.Random(65)
    cfgs = [RecursionConfig(strassen_222(), 1), RecursionConfig(strassen_222(), 2),
            RecursionConfig(classical(3, 3, 3), 1)]
    for cfg in cfgs:
        for m in range(1, 7):
            for k in range(1, 7):
                for n in range(1, 7):
                    a = random_matrix(FIELD, m, k, rng)
                    b = random_matrix(FIELD, k, n, rng)
                    got, report = recursive_multiply(cfg, a, b)
                    assert got == mat_classical_multiply(a, b), (cfg, m, k, n)
                    assert (report.bilinear_mults, report.scalar_mults, report.additions) == (
                        _shape_counts(cfg.base_alg, cfg.threshold, m, k, n)), (cfg, m, k, n)
    for m, k, n in ((1, 5, 2), (3, 2, 7), (6, 1, 4)):
        a = random_matrix(QQ, m, k, rng)
        b = random_matrix(QQ, k, n, rng)
        got, _ = recursive_multiply(cfgs[1], a, b)
        assert got == mat_classical_multiply(a, b), (m, k, n)


SHAPE_BASES = (strassen_222(), classical(3, 3, 3), pan_aggregation(4), classical(2, 3, 4),
               tensor_product(strassen_222(), classical(1, 2, 3)), classical(1, 2, 2))
SHAPE_RINGS = (PrimeField(97), QQ)


@given(base=st.sampled_from(SHAPE_BASES), threshold=st.integers(1, 3),
       ring=st.sampled_from(SHAPE_RINGS), m=st.integers(1, 17), k=st.integers(1, 17),
       n=st.integers(1, 17), seed=st.integers(0, 2**32))
@example(SHAPE_BASES[0], 1, QQ, 8, 8, 8, 0)
@example(SHAPE_BASES[0], 1, SHAPE_RINGS[0], 16, 16, 16, 0)
@example(SHAPE_BASES[1], 1, SHAPE_RINGS[0], 9, 9, 9, 0)
@example(SHAPE_BASES[2], 1, QQ, 4, 4, 4, 0)
@example(SHAPE_BASES[2], 1, SHAPE_RINGS[0], 16, 16, 16, 0)
@example(SHAPE_BASES[3], 1, QQ, 17, 17, 17, 0)
@example(SHAPE_BASES[4], 1, SHAPE_RINGS[0], 17, 17, 17, 0)
@example(SHAPE_BASES[4], 2, QQ, 9, 13, 5, 0)
@example(SHAPE_BASES[5], 1, SHAPE_RINGS[0], 5, 8, 3, 0)
def test_every_shape_is_exact_and_counted(base, threshold, ring, m, k, n, seed):
    rng = random.Random(seed)
    if ring == QQ:
        p = None
        a_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                  for _ in range(m)]
        b_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                  for _ in range(k)]
    else:
        p = ring.p
        a_rows = [[rng.randrange(-10**6, 10**6) for _ in range(k)] for _ in range(m)]
        b_rows = [[rng.randrange(-10**6, 10**6) for _ in range(n)] for _ in range(k)]
    got, report = recursive_multiply(RecursionConfig(base, threshold),
                                     Matrix.from_rows(ring, a_rows), Matrix.from_rows(ring, b_rows))
    rows = got.to_rows() if p is None else [[x.value for x in row] for row in got.to_rows()]
    assert rows == naive_product(a_rows, b_rows, p)
    counts = (report.bilinear_mults, report.scalar_mults, report.additions)
    assert counts == _shape_counts(base, threshold, m, k, n)
    side = base.dims.m
    if (base.dims.is_square and threshold == 1 and m == k == n
            and any(side**t == m for t in range(5))):
        model = cost_model(base, m)
        assert counts == (model.bilinear_mults, model.scalar_mults, model.additions)


def test_batches_above_the_entry_cap_are_exact_and_counted():
    # Sides beyond the property test's 17: the next batch of each root
    # would hold more than _BATCH_ENTRIES operand entries, so the root runs
    # its products in groups that fit, and levels nearer the leaves batch
    # more of them at once.
    rng = random.Random(67)
    cases = ((strassen_222(), PrimeField(97), 64, 64, 64),
             (strassen_222(), FIELD, 64, 64, 64),
             (pan_aggregation(4), FIELD, 64, 64, 64),
             (classical(2, 3, 4), PrimeField(97), 40, 72, 90))
    for base, ring, m, k, n in cases:
        sides = tuple(base.dims)
        depth, leaf = _plan(sides, (m, k, n), 1)
        bm, bk, bn = (x * s ** (depth - 1) for x, s in zip(leaf, sides))
        assert base.rank * (bm * bk + bk * bn) > _BATCH_ENTRIES, sides
        a, b = random_matrix(ring, m, k, rng), random_matrix(ring, k, n, rng)
        got, report = recursive_multiply(RecursionConfig(base, 1), a, b)
        assert got == mat_classical_multiply(a, b), (sides, ring)
        assert (report.bilinear_mults, report.scalar_mults, report.additions) == (
            _shape_counts(base, 1, m, k, n)), (sides, ring)


@pytest.mark.parametrize("batch_entries, leaf_batch", [(0, 0), (0, 10**9), (10**9, 0),
                                                       (10**9, 10**9), (100, 16)])
def test_every_traversal_gives_the_same_product_and_counts(monkeypatch, batch_entries,
                                                           leaf_batch):
    # All depth-first, all breadth-first or groups in between (at a cap of
    # 100, the 8x8 blocks of a 16-cube Strassen product run their 7 products
    # in groups of 3, 3 and 1), every leaf through the kernel or every leaf
    # batch through the mapped triple loop: the same result.
    monkeypatch.setattr(recursion, "_BATCH_ENTRIES", batch_entries)
    monkeypatch.setattr(recursion, "_LEAF_BATCH", leaf_batch)
    rng = random.Random(70)
    for base, threshold, (m, k, n) in ((strassen_222(), 1, (16, 16, 16)),
                                       (strassen_222(), 3, (21, 17, 19)),
                                       (classical(2, 3, 4), 2, (9, 10, 11))):
        for ring in (PrimeField(97), QQ):
            a, b = random_matrix(ring, m, k, rng), random_matrix(ring, k, n, rng)
            got, report = recursive_multiply(RecursionConfig(base, threshold), a, b)
            assert got == mat_classical_multiply(a, b), (base.dims, ring)
            assert (report.bilinear_mults, report.scalar_mults, report.additions) == (
                _shape_counts(base, threshold, m, k, n)), (base.dims, ring)


def test_fraction_coefficients_over_prime_fields():
    # Equivalence transforms of Strassen have Fraction coefficients, which
    # the compiled program clears to ints over one denominator D.  Over
    # GF(p) the recursion reduces only once, at the end, so at depths 4 and
    # 5 the blocks grow far past p and carry D^d; the all-(p-1) inputs make
    # every product largest.
    base = strassen_222()
    rng = random.Random(68)
    for seed in (1, 2):
        alg = apply_equivalence(base, random_equivalence(base.dims, base.rank, seed))
        assert any(type(c) is Fraction for c in alg.coefficient_values()), seed
        for p in (97, P61):
            field = PrimeField(p)
            for side in (16, 32):
                top = Matrix(field, side, side, [p - 1] * (side * side))
                pairs = ((random_matrix(field, side, side, rng),
                          random_matrix(field, side, side, rng)), (top, top))
                for a, b in pairs:
                    got, _ = recursive_multiply(RecursionConfig(alg, 1), a, b)
                    assert got == mat_classical_multiply(a, b), (seed, p, side)
                    # Raw values stay ints: no Fraction ran through the blocks.
                    assert all(type(x.value) is int for x in got.entries), (seed, p, side)


def _scaled_strassen(factor):
    """Strassen with product 0's U times factor and its W over factor."""
    alg = strassen_222()
    u, w = list(alg.u), list(alg.w)
    u[0] = {key: c * factor for key, c in u[0].items()}
    w[0] = {key: Fraction(c, factor) for key, c in w[0].items()}
    return BilinearAlgorithm(alg.dims, alg.rank, u, alg.v, w)


@pytest.mark.parametrize("ring", [QQ, PrimeField(3), PrimeField(7), FIELD])
def test_apply_elementary_is_one_level_of_the_recursion(ring):
    # apply_elementary runs a program once as one recursion level, so at the
    # base's dims its counts are recursive_multiply's.  The variant's W
    # coefficients +-1/4 clear to the ints +-1, which take the +-1 shortcut
    # while they are still counted as scalar multiplications: counts are
    # decided on the rational coefficients.
    rng = random.Random(70)
    for alg in (strassen_222(), classical(2, 3, 4), pan_aggregation(2), _scaled_strassen(4)):
        m, k, n = alg.dims
        cfg = RecursionConfig(alg, 1)
        for _ in range(5):
            a, b = random_matrix(ring, m, k, rng), random_matrix(ring, k, n, rng)
            got, report = apply_elementary(alg, a, b)
            assert got == mat_classical_multiply(a, b), (alg, ring)
            # Raw values keep the ring's type: no Fraction left over GF(p).
            raw = [x if ring == QQ else x.value for x in got.entries]
            assert all(type(x) is (Fraction if ring == QQ else int) for x in raw), (alg, ring)
            _, want = recursive_multiply(cfg, a, b)
            assert (report.bilinear_mults, report.scalar_mults, report.additions) == (
                want.bilinear_mults, want.scalar_mults, want.additions), (alg, ring)
            assert report.bilinear_mults == alg.rank


@pytest.mark.parametrize("ring", [QQ, PrimeField(97)])
def test_apply_elementary_runs_one_level_on_a_base_with_a_side_of_1(ring):
    # At a base with a side of 1, _plan gives depth 0, the triple loop;
    # apply_elementary runs the program itself as one level over 1x1x1
    # leaves, so its counts are R multiplications and the compiled forms'
    # additions and scalings, which the triple loop's differ from here.
    rng = random.Random(77)
    for dims in ((1, 2, 3), (3, 1, 2)):
        base = classical(*dims)
        m, k, n = dims
        assert _plan(dims, dims, 1) == (0, dims)
        for seed in (1, 2):
            alg = apply_equivalence(base, random_equivalence(base.dims, base.rank, seed))
            prog = _compile(alg)
            counts = (alg.rank, sum(prog.form_additions), sum(prog.form_scalar_mults))
            assert counts != (m * k * n, m * (k - 1) * n, 0), (dims, seed)
            for _ in range(3):
                a, b = random_matrix(ring, m, k, rng), random_matrix(ring, k, n, rng)
                got, report = apply_elementary(alg, a, b)
                assert got == mat_classical_multiply(a, b), (dims, seed)
                assert (report.bilinear_mults, report.additions, report.scalar_mults) == counts


def test_leaf_count_refuses_only_plans_past_the_triple_loop_and_the_floor():
    # A plan of R^d * prod(leaf) leaf products is refused only above both
    # m*k*n and _MAX_LEAF_PRODUCTS = 10^8: pan(34), rank 23,120, at 35 and
    # 1414 pads to depths 2 and 3 over 1x1x1 leaves.
    rank, sides = 23120, (34, 34, 34)
    for k, depth in ((35, 2), (1414, 3)):
        plan = _plan(sides, (k, k, k), 1)
        assert plan == (depth, (1, 1, 1))
        with pytest.raises(BadArgument, match=f"needs {rank**depth} leaf multiplications"):
            _leaf_count(rank, plan, (k, k, k))
    assert _leaf_count(rank, _plan(sides, (34, 34, 34), 1), (34, 34, 34)) == rank
    # An unpadded product runs however large, and so does a padded one under
    # the floor: Strassen pads 3x3 to 4x4, 49 leaf products against 27.
    assert _leaf_count(rank, (0, (3000, 3000, 3000)), (3000, 3000, 3000)) == 27 * 10**9
    assert _leaf_count(7, _plan((2, 2, 2), (3, 3, 3), 1), (3, 3, 3)) == 49
    assert _leaf_count(7, (8, (2, 2, 2)), (512, 512, 512)) == 7**8 * 8


def test_compiled_coefficients_are_ints_over_one_denominator():
    # Product s's U and V forms are scaled by the lcms du_s, dv_s of their
    # denominators and its W form by D / (du_s dv_s), D the lcm over s of
    # du_s dv_s dw_s, so every coefficient is an int and a run computes D
    # times the product.
    base = strassen_222()
    cases = [(classical(2, 3, 4), 1), (base, 1), (pan_aggregation(4), 1),
             (_scaled_strassen(3), 3)]
    cases += [(apply_equivalence(base, random_equivalence(base.dims, base.rank, seed)), None)
              for seed in (1, 7)]
    for alg, denominator in cases:
        prog = _compile(alg)
        assert all(type(c) is int for form in (prog.u, prog.v, prog.w)
                   for terms in form for _, c in terms), alg
        if denominator is None:
            assert prog.denominator > 1, alg
        else:
            assert prog.denominator == denominator, alg


def test_coefficient_without_an_image_stops_only_a_recursing_product():
    # Over GF(3) the coefficient 1/3 has no image.  A product that does not
    # recurse evaluates no linear form, so it succeeds; one that recurses,
    # apply_elementary and a block inversion whose products recurse refuse
    # the program.
    alg = _scaled_strassen(3)
    field = PrimeField(3)
    cfg = RecursionConfig(alg, 1)
    rng = random.Random(71)
    a, b = random_matrix(field, 1, 4, rng), random_matrix(field, 4, 3, rng)
    got, report = recursive_multiply(cfg, a, b)
    assert got == mat_classical_multiply(a, b)
    assert report.bilinear_mults == 12
    a, b = random_matrix(field, 2, 2, rng), random_matrix(field, 2, 2, rng)
    with pytest.raises(BadArgument, match="no image mod 3"):
        recursive_multiply(cfg, a, b)
    with pytest.raises(BadArgument, match="no image mod 3"):
        apply_elementary(alg, a, b)
    with pytest.raises(BadArgument, match="no image mod 3"):
        recursive_invert(cfg, Matrix.identity(field, 4))
    # Over a field where 1/3 has an image, the program runs at any depth.
    field = PrimeField(7)
    a, b = random_matrix(field, 4, 4, rng), random_matrix(field, 4, 4, rng)
    assert recursive_multiply(cfg, a, b)[0] == mat_classical_multiply(a, b)
    a = Matrix.from_rows(field, [[1, 2, 0, 3], [3, 1, 5, 0], [0, 6, 1, 2], [3, 0, 2, 1]])
    assert recursive_invert(cfg, a)[0] == mat_inverse(a)
    a, b = random_matrix(field, 2, 2, rng), random_matrix(field, 2, 2, rng)
    assert apply_elementary(alg, a, b)[0] == mat_classical_multiply(a, b)


def test_deep_product_memory_stays_bounded():
    # Whole levels at once would hold every block of a level: about 31 MB
    # traced here.  Capped batches stay near a depth-first recursion's peak.
    rng = random.Random(69)
    a, b = random_matrix(FIELD, 64, 64, rng), random_matrix(FIELD, 64, 64, rng)
    cfg = RecursionConfig(strassen_222(), 1)
    tracemalloc.start()
    try:
        recursive_multiply(cfg, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_thin_product_is_not_padded_to_a_cube():
    # The least side is 2, so one Strassen level over 2x33x1 leaves does;
    # padding every side to 128 would cost 7**7 multiplications.
    rng = random.Random(66)
    a_rows = [[rng.randint(-9, 9) for _ in range(65)] for _ in range(3)]
    b_rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(65)]
    got, report = recursive_multiply(RecursionConfig(strassen_222(), 1),
                                     Matrix.from_rows(QQ, a_rows), Matrix.from_rows(QQ, b_rows))
    assert got.to_rows() == naive_product(a_rows, b_rows)
    assert report.bilinear_mults <= 2 * 3 * 65 * 2


def test_products_match_an_independent_triple_loop():
    # mat_classical_multiply and the recursion both run on raw values; the
    # oracle is a plain int loop that shares no code with either.
    rng = random.Random(61)
    cfgs = [RecursionConfig(strassen_222(), 1), RecursionConfig(strassen_222(), 2),
            RecursionConfig(classical(3, 3, 3), 1)]
    for p in (2, 3, 97, P61):
        field = PrimeField(p)
        for m, k, n in itertools.product(range(1, 6), repeat=3):
            a_rows = [[rng.randrange(-10**20, 10**20) for _ in range(k)] for _ in range(m)]
            b_rows = [[rng.randrange(-10**20, 10**20) for _ in range(n)] for _ in range(k)]
            a, b = Matrix.from_rows(field, a_rows), Matrix.from_rows(field, b_rows)
            want = naive_product(a_rows, b_rows, p)
            products = [mat_classical_multiply(a, b)]
            products += [recursive_multiply(cfg, a, b)[0] for cfg in cfgs]
            for got in products:
                assert (got.ring, got.rows, got.cols) == (field, m, n)
                assert all(type(x) is ModularScalar and x.p == p and 0 <= x.value < p
                           for x in got.entries), (p, m, k, n)
                assert [[x.value for x in row] for row in got.to_rows()] == want, (p, m, k, n)
    a_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
              for _ in range(3)]
    b_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
              for _ in range(5)]
    a, b = Matrix.from_rows(QQ, a_rows), Matrix.from_rows(QQ, b_rows)
    products = [mat_classical_multiply(a, b)]
    products += [recursive_multiply(cfg, a, b)[0] for cfg in cfgs]
    for got in products:
        assert all(type(x) is Fraction for x in got.entries)
        assert got.to_rows() == naive_product(a_rows, b_rows)


def test_leaf_batches_run_the_packed_kernel_once_each(monkeypatch):
    # Strassen at K=64, threshold 16, has 7^2 = 49 leaves of 16x16x16, too
    # large for the mapped triple loop; they reach the GF(p) kernel a batch
    # of sibling leaves per call.
    batches = []
    kernel = exact_algebra._packed_products

    def spy(a, b, nodes, m, k, n, p):
        batches.append(nodes)
        return kernel(a, b, nodes, m, k, n, p)

    monkeypatch.setattr(exact_algebra, "_packed_products", spy)
    rng = random.Random(74)
    a, b = random_matrix(FIELD, 64, 64, rng), random_matrix(FIELD, 64, 64, rng)
    got, report = recursive_multiply(RecursionConfig(strassen_222(), 16), a, b)
    assert got == mat_classical_multiply(a, b)
    assert report.bilinear_mults == 49 * 16**3
    assert sum(batches) == 49 and len(batches) < 49


def test_rational_products_and_the_oracle_never_run_the_packed_kernel(monkeypatch):
    # QQ leaves run _classical one node at a time (10x10x10 leaves are too
    # large for the mapped loop), and mat_classical_multiply runs it over
    # either ring.
    def refuse(*args):
        raise AssertionError("the packed GF(p) kernel ran")

    monkeypatch.setattr(exact_algebra, "_packed_products", refuse)
    rng = random.Random(75)
    for ring in (QQ, FIELD):
        a, b = random_matrix(ring, 20, 20, rng), random_matrix(ring, 20, 20, rng)
        want = naive_product(*(x.to_rows() for x in (a, b)))
        got = mat_classical_multiply(a, b)
        if ring == QQ:
            assert got.to_rows() == want
            assert recursive_multiply(RecursionConfig(strassen_222(), 10), a, b)[0] == got
        else:
            assert got == Matrix.from_rows(ring, want)


@given(p=st.sampled_from((2, 3, 97, P61)), threshold=st.integers(8, 12), data=st.data())
def test_products_and_inverses_through_the_packed_kernel_are_exact(p, threshold, data):
    # Every side in [5, 2 * threshold]: a product is one leaf, or one level
    # over leaves of at least 5 on a side, either way through the kernel;
    # so are the products of inverting a unit-LU matrix (every leading
    # minor 1) of a side above the threshold.
    ring = PrimeField(p)
    m, k, n = (data.draw(st.integers(5, 2 * threshold)) for _ in range(3))
    side = data.draw(st.integers(threshold + 1, 2 * threshold))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = random_matrix(ring, m, k, rng), random_matrix(ring, k, n, rng)
    lu = Matrix.from_rows(ring, [[int(x) for x in row]
                                 for row in unit_lu_matrix(side, rng).to_rows()])
    cfg = RecursionConfig(strassen_222(), threshold)
    with mock.patch.object(exact_algebra, "_packed_products",
                           wraps=exact_algebra._packed_products) as kernel:
        assert recursive_multiply(cfg, a, b)[0] == mat_classical_multiply(a, b)
        assert kernel.call_count
        kernel.reset_mock()
        assert recursive_invert(cfg, lu)[0] == mat_inverse(lu)
        assert kernel.call_count


def test_fractional_coefficient_programs_over_rationals():
    # QQ products run on cleared integers; a base with Fraction coefficients
    # takes the same path, compiled to ints over one denominator, which the
    # product divides out once.
    base = strassen_222()
    for seed in range(20):
        alg = apply_equivalence(base, random_equivalence(base.dims, base.rank, seed))
        assert any(c.denominator != 1 for c in alg.coefficient_values()), seed
        rng = random.Random(seed)
        for threshold in (1, 2, 3):
            cfg = RecursionConfig(alg, threshold)
            m, k, n = (rng.randint(1, 9) for _ in range(3))
            a_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                      for _ in range(m)]
            b_rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                      for _ in range(k)]
            zero_row = [row[:] for row in a_rows]
            zero_row[rng.randrange(m)] = [Fraction(0)] * k
            zeros = [[Fraction(0)] * n for _ in range(k)]
            for left, right in ((a_rows, b_rows), (zero_row, b_rows), (a_rows, zeros)):
                got, _ = recursive_multiply(cfg, Matrix.from_rows(QQ, left),
                                            Matrix.from_rows(QQ, right))
                # Over QQ, entries is the stored tuple: no int may leak into it.
                assert all(type(x) is Fraction for x in got.entries), (seed, threshold)
                assert got.to_rows() == naive_product(left, right), (seed, threshold)


def test_multiplication_count_law():
    cfg = RecursionConfig(strassen_222(), threshold=1)
    rng = random.Random(56)
    additions = {2: 18, 4: 198, 8: 1674, 16: 12870}
    for t in range(1, 5):
        k = 2**t
        a = random_matrix(FIELD, k, k, rng)
        b = random_matrix(FIELD, k, k, rng)
        product, report = recursive_multiply(cfg, a, b)
        assert product == mat_classical_multiply(a, b)
        assert report.bilinear_mults == 7**t
        predicted = cost_model(strassen_222(), k)
        assert report.bilinear_mults == predicted.bilinear_mults
        assert report.additions == predicted.additions == additions[k]
        assert report.scalar_mults == predicted.scalar_mults == 0


def test_cost_model_classical_base():
    base = classical(2, 2, 2)
    cfg = RecursionConfig(base, threshold=1)
    rng = random.Random(57)
    for t in (1, 2, 3):
        k = 2**t
        a = random_matrix(FIELD, k, k, rng)
        b = random_matrix(FIELD, k, k, rng)
        product, report = recursive_multiply(cfg, a, b)
        assert product == mat_classical_multiply(a, b)
        assert report.bilinear_mults == 8**t
        predicted = cost_model(base, k)
        assert (report.bilinear_mults, report.scalar_mults, report.additions) == (
            predicted.bilinear_mults, predicted.scalar_mults, predicted.additions
        )
    # hand-computed: per level one addition per output entry (4), zero on inputs;
    # at K=8 the level sum is 4*(16 + 8*4 + 64) = 4 * 112
    assert cost_model(base, 8).additions == 448
    assert cost_model(base, 8).bilinear_mults == 512


def test_cost_model_k_validation():
    with pytest.raises(BadArgument):
        cost_model(strassen_222(), 3)
    with pytest.raises(BadArgument):
        cost_model(strassen_222(), 0)
    with pytest.raises(BadArgument):
        cost_model(classical(2, 3, 4), 4)
    report = cost_model(strassen_222(), 1)
    assert report.bilinear_mults == 1 and report.additions == 0


def test_multiply_matches_classical_across_sizes():
    rng = random.Random(58)
    strassen_cfgs = [RecursionConfig(strassen_222(), t) for t in (1, 2, 4)]
    for k in list(range(1, 18)) + [24, 31, 32, 33]:
        a = random_matrix(FIELD, k, k, rng)
        b = random_matrix(FIELD, k, k, rng)
        want = mat_classical_multiply(a, b)
        for cfg in strassen_cfgs:
            got, report = recursive_multiply(cfg, a, b)
            assert got == want, (k, cfg.threshold)
            assert report.bilinear_mults > 0
    cfg8 = RecursionConfig(strassen_222(), 8)
    for k in (48, 63, 64):
        a = random_matrix(FIELD, k, k, rng)
        b = random_matrix(FIELD, k, k, rng)
        got, _ = recursive_multiply(cfg8, a, b)
        assert got == mat_classical_multiply(a, b), k


def test_multiply_exact_over_rationals():
    rng = random.Random(59)
    cfg = RecursionConfig(strassen_222(), 2)
    for k in (1, 2, 3, 5, 7, 8, 10):
        a = random_matrix(QQ, k, k, rng)
        b = random_matrix(QQ, k, k, rng)
        got, _ = recursive_multiply(cfg, a, b)
        assert got == mat_classical_multiply(a, b), k


def test_multiply_with_other_bases():
    rng = random.Random(60)
    for base in (classical(3, 3, 3), pan_aggregation(2)):
        cfg = RecursionConfig(base, 1)
        for k in (2, 3, 4, 6, 9):
            a = random_matrix(FIELD, k, k, rng)
            b = random_matrix(FIELD, k, k, rng)
            got, _ = recursive_multiply(cfg, a, b)
            assert got == mat_classical_multiply(a, b), (base.dims, k)


def test_invert_examples():
    cfg = RecursionConfig(strassen_222(), 1)
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    inverse, report = recursive_invert(cfg, a)
    assert inverse == Matrix.from_rows(QQ, [[1, -1], [0, 1]])
    assert mat_classical_multiply(a, inverse) == Matrix.identity(QQ, 2)
    assert report.bilinear_mults > 0
    assert "subcalls" in report.context


def test_invert_round_trips():
    rng = random.Random(61)
    cfg = RecursionConfig(strassen_222(), 2)
    for size in (1, 2, 3, 4, 5, 8, 11, 16):
        a = unit_lu_matrix(size, rng)
        inverse, _ = recursive_invert(cfg, a)
        assert mat_classical_multiply(a, inverse) == Matrix.identity(QQ, size), size
        assert inverse == mat_inverse(a), size


def test_invert_over_prime_field():
    rng = random.Random(62)
    cfg = RecursionConfig(strassen_222(), 2)
    for size in (2, 3, 5, 8):
        rows = [[rng.randint(-2, 2) if i != j else 1 for j in range(size)]
                for i in range(size)]
        lower = [[rows[i][j] if i > j else (1 if i == j else 0) for j in range(size)]
                 for i in range(size)]
        upper = [[rows[i][j] if i < j else (1 if i == j else 0) for j in range(size)]
                 for i in range(size)]
        a = mat_classical_multiply(
            Matrix.from_rows(FIELD, lower), Matrix.from_rows(FIELD, upper)
        )
        inverse, _ = recursive_invert(cfg, a)
        assert mat_classical_multiply(a, inverse) == Matrix.identity(FIELD, size)


def test_products_and_inverses_leave_no_cyclic_garbage():
    # The CLI runs its commands with the cyclic collector paused, so what a
    # product or an inverse leaves behind must be freed by reference counts.
    cfg = RecursionConfig(strassen_222(), 1)
    rng = random.Random(63)
    a = random_matrix(FIELD, 5, 5, rng)
    q = unit_lu_matrix(5, rng)
    was = gc.isenabled()
    gc.disable()
    try:
        for run in (lambda: recursive_multiply(cfg, a, a), lambda: recursive_multiply(cfg, q, q),
                    lambda: recursive_invert(cfg, q)):
            gc.collect()
            run()
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_invert_failure_taxonomy():
    cfg = RecursionConfig(strassen_222(), 1)
    with pytest.raises(SingularMatrix):
        recursive_invert(cfg, Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrix):
        recursive_invert(cfg, Matrix.zeros(QQ, 1, 1))
    # The leading 1x1 block is zero, so the matrix is inverted as a leaf by
    # mat_inverse's elimination, which pivots by rows.
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    inverse, report = recursive_invert(cfg, swap)
    assert inverse == swap
    with pytest.raises(DimensionError):
        recursive_invert(cfg, Matrix.zeros(QQ, 2, 3))


@pytest.mark.parametrize("ring", [QQ, PrimeField(2), PrimeField(3), PrimeField(97)])
def test_invert_makes_a_leaf_of_a_block_with_a_singular_leading_block(ring):
    # The leading 2x2 block [[0, 1], [1, 0]] is invertible, but its own
    # leading 1x1 block is zero: that 2x2 block is inverted as a leaf, and
    # the rest of the matrix still splits, six products at each of the two
    # levels (7 mults per 2x2 product, 1 per 1x1).
    a = Matrix.from_rows(ring, [[0, 1, 2, 0], [1, 0, 0, 3], [5, 0, 1, 0], [0, 7, 0, 1]])
    inverse, report = recursive_invert(RecursionConfig(strassen_222(), 1), a)
    assert inverse == mat_inverse(a)
    assert " 12 multiplication subcalls" in report.context
    assert report.bilinear_mults == 6 * 7 + 6 * 1


def test_singular_matrix_is_never_eliminated_whole(monkeypatch):
    # A = [[I, Q], [R, R Q]] of side 16: the leading block I splits into
    # leaves of side 4, and the complement R Q - R Q = 0 of side 8, whose own
    # leading block is zero, is eliminated as a leaf and refused there.
    rng = random.Random(71)
    q = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
    r = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
    rows = ([[int(i == j) for j in range(8)] + q[i] for i in range(8)]
            + [x + y for x, y in zip(r, naive_product(r, q))])
    sides = []
    bareiss = recursion._bareiss

    def spy(ring, a, n):
        sides.append(n)
        return bareiss(ring, a, n)

    monkeypatch.setattr(recursion, "_bareiss", spy)
    with pytest.raises(SingularMatrix, match="16x16 matrix is singular"):
        recursive_invert(RecursionConfig(strassen_222(), 4), Matrix.from_rows(QQ, rows))
    assert set(sides) == {4, 8}


@pytest.mark.parametrize("ring", [QQ, PrimeField(97), FIELD])
def test_invert_over_fraction_coefficient_bases(ring):
    # Equivalence transforms of Strassen have Fraction coefficients; block
    # inversion runs their products on ints over one denominator like any
    # other program's.
    base = strassen_222()
    rng = random.Random(73)
    for seed in (1, 2, 7):
        alg = apply_equivalence(base, random_equivalence(base.dims, base.rank, seed))
        for threshold in (1, 2, 4):
            cfg = RecursionConfig(alg, threshold)
            for side in (5, 16, 33):
                a = random_matrix(ring, side, side, rng)
                assert recursive_invert(cfg, a)[0] == mat_inverse(a), (seed, threshold, side)


def test_multiply_via_inversion():
    rng = random.Random(63)
    cfg = RecursionConfig(strassen_222(), 2)

    def block_invert(mat):
        return recursive_invert(cfg, mat)[0]

    for m, k, n in ((1, 1, 1), (2, 2, 2), (2, 3, 4), (4, 2, 3)):
        a = random_matrix(QQ, m, k, rng)
        b = random_matrix(QQ, k, n, rng)
        want = mat_classical_multiply(a, b)
        assert multiply_via_inversion(a, b, mat_inverse) == want
        assert multiply_via_inversion(a, b, block_invert) == want
    with pytest.raises(DimensionError):
        multiply_via_inversion(Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 2, 3), mat_inverse)


def test_invert_cost_aggregates_multiplications():
    cfg = RecursionConfig(strassen_222(), 1)
    rng = random.Random(64)
    a = unit_lu_matrix(4, rng)
    _, report = recursive_invert(cfg, a)
    # six side-2 product subcalls (7 mults each) plus two side-2 inversions
    # that each make six unit-size products
    assert report.bilinear_mults == 6 * 7 + 2 * 6
    # At threshold 2 the six side-2 products are leaves (8 mults each) and
    # the side-2 blocks are inverted by mat_inverse; at 4 nothing is split.
    for threshold, subcalls, mults in ((2, 6, 48), (4, 0, 0)):
        inverse, report = recursive_invert(RecursionConfig(strassen_222(), threshold), a)
        assert mat_classical_multiply(a, inverse) == Matrix.identity(QQ, 4)
        assert f" {subcalls} multiplication subcalls" in report.context
        assert report.bilinear_mults == mults


def test_invert_odd_side_costs_about_as_much_as_the_even_one():
    # Side 33 splits into 16 and 17, so most of its products have odd or
    # unequal sides; they must not pay for padding to 64.
    cfg = RecursionConfig(strassen_222(), 4)
    rng = random.Random(67)
    mults = {}
    for side in (32, 33):
        a = unit_lu_matrix(side, rng)
        inverse, report = recursive_invert(cfg, a)
        assert mat_classical_multiply(a, inverse) == Matrix.identity(QQ, side), side
        mults[side] = report.bilinear_mults
    assert 2 * mults[33] <= 3 * mults[32], mults


@pytest.mark.parametrize("side, mults, additions, subcalls", [
    (32, 25_728, 41_760, 42),
    (33, 34_710, 54_680, 48),
    (24, 10_854, 19_872, 42),
])
def test_invert_counts_are_pinned(side, mults, additions, subcalls):
    # The counts depend only on the shapes of the block products, so any
    # unit-LU input of a side gives the same report.
    cfg = RecursionConfig(strassen_222(), 4)
    a = unit_lu_matrix(side, random.Random(side))
    inverse, report = recursive_invert(cfg, a)
    assert inverse == mat_inverse(a)
    assert (report.bilinear_mults, report.additions, report.scalar_mults) == (mults, additions, 0)
    assert f" {subcalls} multiplication subcalls" in report.context
    assert "finished by elimination" not in report.context


_INVERT_RINGS = (QQ, PrimeField(2), PrimeField(3), PrimeField(97), PrimeField(P61))


def _entries(ring, data, count):
    """count entries: over QQ Fractions whose numerators and denominators
    reach 10^18, over GF(p) ints in [0, p)."""
    if ring == QQ:
        return [Fraction(data.draw(st.integers(-10**18, 10**18)), data.draw(st.integers(1, 10**18)))
                for _ in range(count)]
    return [data.draw(st.integers(0, ring.p - 1)) for _ in range(count)]


def _det(rows):
    """The determinant, by Gaussian elimination on Fractions."""
    rows = [list(map(Fraction, row)) for row in rows]
    n, det = len(rows), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _same_inverse(cfg, a):
    """recursive_invert(cfg, a) equals mat_inverse(a), an inverse by the
    independent triple loop, or both refuse a; returns the report, or None
    when a is singular."""
    try:
        want = mat_inverse(a)
    except SingularMatrix:
        with pytest.raises(SingularMatrix, match="singular"):
            recursive_invert(cfg, a)
        return None
    got, report = recursive_invert(cfg, a)
    assert got == want
    assert mat_classical_multiply(a, got) == Matrix.identity(a.ring, a.rows)
    return report


@settings(max_examples=100)
@given(ring=st.sampled_from(_INVERT_RINGS), threshold=st.integers(1, 5), data=st.data())
def test_invert_matches_mat_inverse_on_dense_matrices(ring, threshold, data):
    # Dense random matrices; over QQ the determinant is made negative by
    # negating a row, so the blocks meet negative denominators and gcds
    # above 1, which unit-LU inputs (determinant 1) never do.
    n = data.draw(st.integers(1, 12))
    rows = [_entries(ring, data, n) for _ in range(n)]
    if ring == QQ and _det(rows) > 0:
        rows[0] = [-x for x in rows[0]]
    _same_inverse(RecursionConfig(strassen_222(), threshold), Matrix.from_rows(ring, rows))


@settings(max_examples=100)
@given(ring=st.sampled_from(_INVERT_RINGS), threshold=st.integers(1, 5),
       invertible=st.booleans(), data=st.data())
def test_invert_falls_back_from_inside_the_recursion(ring, threshold, invertible, data):
    # A = [[P, Q], [R, S]] with P = [[I, B], [C, C B]]: the leading block I
    # of P is invertible and P's complement C B - C I^-1 B is zero.  When A
    # is invertible, elimination finds P singular inside the recursion on P,
    # and A is inverted as a leaf by mat_inverse's elimination; otherwise
    # S = R Q makes A's own complement singular (P = I) and both refuse.
    n = data.draw(st.integers(2 * threshold + 2, 12)) if invertible else data.draw(st.integers(2, 12))
    h = n // 2
    cfg = RecursionConfig(strassen_222(), threshold)
    if invertible:
        g = h // 2
        b = [_entries(ring, data, h - g) for _ in range(g)]
        c = [_entries(ring, data, g) for _ in range(h - g)]
        lead = ([[int(i == j) for j in range(g)] + b[i] for i in range(g)]
                + [c[i] + row for i, row in enumerate(naive_product(c, b))])
    else:
        lead = [[int(i == j) for j in range(h)] for i in range(h)]
    q = [_entries(ring, data, n - h) for _ in range(h)]
    r = [_entries(ring, data, h) for _ in range(n - h)]
    s = [_entries(ring, data, n - h) for _ in range(n - h)] if invertible else naive_product(r, q)
    a = Matrix.from_rows(ring, [x + y for x, y in zip(lead, q)] + [x + y for x, y in zip(r, s)])
    report = _same_inverse(cfg, a)
    assert (report is not None) <= invertible


@given(ring=st.sampled_from(_INVERT_RINGS),
       values=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=8),
       d=st.integers(-10**30, 10**30).filter(bool), common=st.integers(1, 10**6))
def test_normal_form_of_a_block(ring, values, d, common):
    # The block values / d in normal form: over QQ, Fraction's own (the
    # least positive common denominator), over GF(p) denominator 1.  The
    # common factor makes a gcd above 1 the usual case.
    values, d = [v * common for v in values], d * common
    if ring != QQ and d % ring.p == 0:
        return
    ints, e = ring._normal(values, d)
    if ring == QQ:
        fractions = [Fraction(v, d) for v in values]
        assert e == lcm(*(x.denominator for x in fractions))
        assert list(ints) == [x * e for x in fractions]
    else:
        p = ring.p
        assert e == 1
        assert list(ints) == [v * pow(d, -1, p) % p for v in values]
