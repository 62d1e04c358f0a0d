"""Property tests for the three text formats: matrices, programs, transforms.

Formatting then parsing gives back the input exactly, and the canonical
writers reproduce the text they read.  A valid text with one line deleted,
duplicated or cut short, or one token replaced, is either still accepted or
rejected with an MmalgError, never any other exception.  Entry tokens follow
one strict grammar, and writers refuse an entry Python cannot spell.
"""

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmalg import (
    BadArgument,
    BilinearAlgorithm,
    DimensionTriple,
    EquivalenceTransform,
    FormatError,
    Matrix,
    MmalgError,
    PrimeField,
    QQ,
    dump_algorithm,
    dump_matrix,
    dump_transform,
    format_algorithm,
    format_matrix,
    format_transform,
    parse_algorithm,
    parse_matrix,
    parse_transform,
    random_equivalence,
)

GF97 = PrimeField(97)

rationals = st.fractions(max_denominator=1000)
nonzero_rationals = rationals.filter(bool)


@st.composite
def matrices(draw, ring):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = rationals if ring == QQ else st.integers(0, 96)
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(ring, grid)


def _slices(draw, rank, rows, cols):
    index = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return [draw(st.dictionaries(index, nonzero_rationals, max_size=rows * cols))
            for _ in range(rank)]


@st.composite
def programs(draw):
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    rank = draw(st.integers(1, 6))
    return BilinearAlgorithm(
        DimensionTriple(m, k, n), rank,
        _slices(draw, rank, m, k), _slices(draw, rank, k, n), _slices(draw, rank, m, n),
    )


@st.composite
def transforms(draw):
    dims = DimensionTriple(*(draw(st.integers(1, 3)) for _ in range(3)))
    rank = draw(st.integers(1, 6))
    return random_equivalence(dims, rank, draw(st.integers(0, 2**32)))


@given(matrices(QQ))
def test_matrix_round_trip_over_qq(a):
    text = format_matrix(a)
    assert parse_matrix(text) == a
    assert format_matrix(parse_matrix(text)) == text


@given(matrices(GF97))
def test_matrix_round_trip_over_gf97(a):
    text = format_matrix(a)
    assert parse_matrix(text, GF97) == a
    assert format_matrix(parse_matrix(text, GF97)) == text


@given(programs())
def test_program_round_trip(alg):
    text = format_algorithm(alg)
    assert parse_algorithm(text) == alg
    assert format_algorithm(parse_algorithm(text)) == text


@given(transforms())
def test_transform_round_trip(transform):
    text = format_transform(transform)
    assert parse_transform(text) == transform
    assert format_transform(parse_transform(text)) == text


# Replacement tokens: numbers, bad fractions (1/97 has no image in GF(97)),
# words of the formats, and whitespace or digits outside ASCII.
_TOKENS = ("0", "1", "-1", "99", "1/2", "1/0", "1/97", "1.5", "1_0", "x", "",
           "U", "W", "sigma", "perm", "mmalg-v1", "mmtrans-v1",
           "\u0663", "\xa0", "\u2028")


def _mutations(text, data):
    """For each line of text: the text with that line deleted, duplicated,
    cut short, and with one of its tokens replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split() or [""]
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(_TOKENS))
        cut = line[: data.draw(st.integers(0, len(line)))]
        for edit in ([], [line, line], [cut], [" ".join(tokens)]):
            yield "\n".join(lines[:i] + edit + lines[i + 1:]) + "\n"


_CASES = {
    "matrix-qq": (matrices(QQ).map(format_matrix), parse_matrix),
    "matrix-gf97": (matrices(GF97).map(format_matrix), lambda t: parse_matrix(t, GF97)),
    "program": (programs().map(format_algorithm), parse_algorithm),
    "transform": (transforms().map(format_transform), parse_transform),
}


@pytest.mark.parametrize("case", sorted(_CASES))
@given(data=st.data())
def test_mutated_text_parses_or_raises_mmalg_error(case, data):
    valid, parse = _CASES[case]
    for text in _mutations(data.draw(valid), data):
        try:
            parse(text)
        except MmalgError:
            pass


def test_entry_grammar():
    text = "1 5\n+3 -2/4 007 0/5 -0\n"
    assert parse_matrix(text).entries == (3, Fraction(-1, 2), 7, 0, 0)


@pytest.mark.parametrize("tok", ["1.5", "1e4000000", "1_0", "\u0663"])
def test_entry_tokens_are_strict(tok):
    # Only an optional sign, ASCII digits and an optional '/digits' make an
    # entry; an exponent token is refused at once, not expanded.
    cases = (
        (parse_matrix, f"2 2\n1 2\n3 {tok}\n", 3),
        (parse_algorithm, f"mmalg-v1 1 1 1 1\nU\n0 0 1\nV\n0 0 {tok}\nW\n0 0 1\n", 5),
    )
    for parse, text, line in cases:
        start = time.perf_counter()
        with pytest.raises(FormatError) as err:
            parse(text)
        assert time.perf_counter() - start < 0.1
        assert err.value.line == line


def test_writers_refuse_entries_past_the_digit_limit(tmp_path):
    big = Fraction(10**5000)
    one = Matrix.identity(QQ, 1)
    alg = BilinearAlgorithm(DimensionTriple(1, 1, 1), 1,
                            [{(0, 0): 1}], [{(0, 0): big}], [{(0, 0): 1 / big}])
    transform = EquivalenceTransform(one, one, Matrix.from_rows(QQ, [[big]]),
                                     Matrix.from_rows(QQ, [[1 / big]]), one, one, (0,))
    cases = (
        (lambda path: dump_matrix(Matrix.from_rows(QQ, [[1, big]]), path), "entry (0,1)"),
        (lambda path: dump_algorithm(alg, path), "v[0] entry (0,0)"),
        (lambda path: dump_transform(transform, path), "nabla entry (0,0)"),
    )
    for i, (dump, name) in enumerate(cases):
        path = tmp_path / f"out{i}"
        with pytest.raises(BadArgument, match=re.escape(name) + r" has more than \d+ digits"):
            dump(str(path))
        assert not path.exists()
