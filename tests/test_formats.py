"""Property tests for the three text formats: matrices, programs, transforms.

Formatting then parsing gives back the input exactly, and the canonical
writers reproduce the text they read.  A valid text with one line deleted,
duplicated or cut short, or one token replaced, is either still accepted or
rejected with an MmalgError, never any other exception.  Entry tokens follow
one strict grammar, and writers refuse an entry Python cannot spell.
Program text read in bulk reads exactly as the line reader reads it.
"""

import hashlib
import re
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mmalg import (
    BadArgument,
    BilinearAlgorithm,
    DimensionTriple,
    DualityPermutation,
    EquivalenceTransform,
    FormatError,
    Matrix,
    MmalgError,
    PrimeField,
    QQ,
    apply_equivalence,
    classical,
    dump_algorithm,
    dump_matrix,
    dump_transform,
    dual,
    format_algorithm,
    format_matrix,
    format_transform,
    parse_algorithm,
    parse_matrix,
    pan_aggregation,
    parse_transform,
    random_equivalence,
    squareify,
    strassen_222,
    tensor_product,
)
from mmalg import formats
from mmalg.formats import _parse_lines, _read_canonical

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


def _line_per_entry(alg):
    """The program text as one str per line, joined once."""
    lines = [f"mmalg-v1 {alg.dims.m} {alg.dims.k} {alg.dims.n} {alg.rank}"]
    for s in range(alg.rank):
        if s:
            lines.append("")
        for label, d in (("U", alg.u[s]), ("V", alg.v[s]), ("W", alg.w[s])):
            lines.append(label)
            lines += [f"{r} {c} {d[r, c]}" for r, c in sorted(d)]
    return "\n".join(lines) + "\n"


@given(programs(), st.integers(1, 12))
def test_program_text_in_pieces_matches_one_line_per_entry(alg, piece_strings):
    # Pieces of any length join to the same bytes, a piece ending mid-product
    # or between products alike.
    assert format_algorithm(alg) == _line_per_entry(alg)
    with mock.patch.object(formats, "_PIECE_STRINGS", piece_strings):
        assert format_algorithm(alg) == _line_per_entry(alg)


def test_program_writer_holds_about_twice_its_text():
    # The squared classical(2,3,4) is 0.39 MB of text in 96,768 lines; one
    # str per line would hold about 3.7 MB at the peak.
    alg = pan_aggregation(16)
    assert format_algorithm(alg) == _line_per_entry(alg)
    alg = squareify(classical(2, 3, 4))
    tracemalloc.start()
    try:
        text = format_algorithm(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _line_per_entry(alg)
    assert peak < 1_500_000, peak


# sha256 of format_algorithm's text, computed at the writer that looped once
# per slice and sorted every slice (before the per-product loop): any writer
# must keep these bytes.
PROGRAM_TEXT_DIGESTS = {
    "pan2": "ef58c78d8504a07395b3ba66ecc16a1dee01375bdd9bef9bd014822ae53c6361",
    "pan4": "56d6fbba37ccb73ea34c673d89712660b5e4873765eced5a255668c2ed30dfdb",
    "pan6": "6ad4f9720bf0e8c0e28a3045129d76454f17a1827b9d7aa97254a768e46d2ef8",
    "pan8": "ffee95da5fbe4e31a17e546a96c488689cba0d26d28c82070c8af8da0aeef819",
    "pan10": "e5860c3f9ec718fa902acc264c3bfcddbae9832bf34f1d9b8c8d1abbac8323ff",
    "pan12": "1acc21406068727e48c512fe29a28fcb8b6da808bad023e1b985d1f7b3fca089",
    "pan14": "33990bd86b51157410e013f57b09a4f66366f4bc42de661e7928fd4ef53e74fd",
    "pan16": "74950cb89c722223bce1a3f6cc0f4be81064a76484a90dffa23253c0f470ad58",
    "strassen": "98188a5d9568e14fe803e7d28830827e3c42b3933ffcbf172550f4606a66d48d",
    "c234": "df4cc596cc03c6656a97fcab54b03a4c2d4d1d2d153d0be94a31fe4c47539f18",
    "c234-sq": "24ae4a50299013da9f16cc898226ea3c7288c6aa8bbd19fce7b5979b63b8cdf4",
    "s3": "ab850cec0efbd27860068a8297a9728aaebae4d56f8840afcfc5eb91b3a659eb",
    "pan12-mkn": "1acc21406068727e48c512fe29a28fcb8b6da808bad023e1b985d1f7b3fca089",
    "pan12-knm": "2eeb6474f8467ce82c8bdff8d0b71004314531d8c105faf486f41ce9046335e7",
    "pan12-nmk": "80e7adf3bc00c53a436789a6a5e788dc0489ca2da8d15f3d61f771fadb492bbb",
    "pan12-mnk": "047e81a099b4bf77f1625e36f9bc38a0ec6847481b18352765db2ae3d1cb307d",
    "pan12-nkm": "ef6fbb2335f9252c10bddf2c5cef78fc476cc1c35a4c8628afcca98d9935f3f4",
    "pan12-kmn": "ad5bff7ba720e14a2180f5560584e44916082eeba9524a164d86d100a90f3273",
    "pan4-eq1": "5fa37dab572285caf1c251e1befa1aad43f4c46f2316f14ad7481b2713009812",
    "pan4-eq2": "980b1dda0b3767911acc1cad002b95ac88237c2b15b8d2ee96fd0f8e3f54bf91",
    "pan4-eq3": "3ced76afa0cef1954a643ff97ecb38f065ccfed326dd343fb887bdd61a3cf801",
    "pan4-eq4": "ffa907ce9f6f1460dc3618c3d7b8385895994ed78d84eb3d29b452821470cbb5",
    "pan4-eq5": "f5890eb9eda75d1aa407e77af63990d26c5751dd21d62d1dd289cde83206b895",
}


def _pinned_programs():
    """(name, program) for each name of PROGRAM_TEXT_DIGESTS."""
    for n in range(2, 17, 2):
        yield f"pan{n}", pan_aggregation(n)
    s = strassen_222()
    yield "strassen", s
    yield "c234", classical(2, 3, 4)
    yield "c234-sq", squareify(classical(2, 3, 4))
    yield "s3", tensor_product(tensor_product(s, s), s)
    pan12 = pan_aggregation(12)
    for perm in DualityPermutation:
        yield f"pan12-{perm.value}", dual(pan12, perm)
    pan4 = pan_aggregation(4)
    for seed in range(1, 6):
        transform = random_equivalence(pan4.dims, pan4.rank, seed)
        yield f"pan4-eq{seed}", apply_equivalence(pan4, transform)


def test_program_text_is_pinned():
    # Byte identity at scale: one-entry slices (the squared classical, the
    # tensor cube), Pan's multi-entry slices, transposed duals and Fraction
    # coefficients (the equivalence outputs).
    programs = dict(_pinned_programs())
    assert all(any(type(c) is Fraction for d in programs[f"pan4-eq{seed}"].w for c in d.values())
               for seed in range(1, 6))
    got = {name: hashlib.sha256(format_algorithm(alg).encode()).hexdigest()
           for name, alg in programs.items()}
    assert got == PROGRAM_TEXT_DIGESTS


def test_bulk_reader_shares_one_key_tuple_per_position():
    # pan(8), a Fraction-coefficient equiv output and a tensor product, each
    # read in bulk and, as CRLF text, by the line reader: every slice of u, v
    # and w holds the same tuple object for the same (i, j).
    pan4 = pan_aggregation(4)
    equiv = apply_equivalence(pan4, random_equivalence(pan4.dims, pan4.rank, 1))
    assert any(type(c) is Fraction for d in equiv.w for c in d.values())
    s = strassen_222()
    for alg in (pan_aggregation(8), equiv, tensor_product(s, s)):
        text = format_algorithm(alg)
        crlf = text.replace("\n", "\r\n")
        assert _read_canonical(text) is not None and _read_canonical(crlf) is None
        for read in (parse_algorithm(text), parse_algorithm(crlf)):
            assert read == alg
            keys = [key for tensor in (read.u, read.v, read.w) for d in tensor for key in d]
            assert len(set(map(id, keys))) == len(set(keys))


def test_bulk_reader_peaks_near_its_program():
    # The reader makes one block's line list at a time: holding every
    # block's lines at once would peak near twice the program it returns.
    text = format_algorithm(pan_aggregation(16))
    tracemalloc.start()
    try:
        alg = parse_algorithm(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg == pan_aggregation(16)
    assert peak < 1.6 * held, (peak, held)


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


def _outcome(parse, text):
    """The program parse reads from text, down to each value's type and each
    slice's order, or the class, line and message of the MmalgError raised."""
    try:
        alg = parse(text)
    except MmalgError as err:
        return type(err), getattr(err, "line", None), str(err)
    return alg, [[(key, type(c), c) for key, c in d.items()] for d in alg.u + alg.v + alg.w]


@given(programs(), st.data())
def test_bulk_reader_matches_the_line_reader(alg, data):
    # Writer output is read in bulk; every text reads as the line reader reads it.
    text = format_algorithm(alg)
    assert _read_canonical(text) == alg
    for case in (text, *_mutations(text, data)):
        assert _outcome(parse_algorithm, case) == _outcome(_parse_lines, case)


_STRASSEN = format_algorithm(strassen_222())
_DIGITS = "7" * 5000
_EDGE_CASES = {
    "empty-blocks": "mmalg-v1 1 1 1 1\nU\nV\nW\n",
    "some-empty-blocks": "mmalg-v1 2 1 2 2\nU\n1 0 1\nV\nW\n0 1 -1\n\nU\nV\n0 1 2\nW\n",
    "fractions": "mmalg-v1 1 2 1 1\nU\n0 0 -3/4\n0 1 5/2\nV\n1 0 1/3\nW\n0 0 7\n",
    "integral-fractions": "mmalg-v1 1 1 1 1\nU\n0 0 4/2\nV\n0 0 2/4\nW\n0 0 -3/1\n",
    "unsorted": "mmalg-v1 2 2 1 1\nU\n1 1 1\n0 1 2\n1 0 3\nV\n1 0 1\n0 0 1\nW\n1 0 1\n",
    "extra-blank-lines": "\n" + _STRASSEN.replace("\n\n", "\n\n\n") + "\n\n",
    "no-blank-lines": _STRASSEN.replace("\n\n", "\n"),
    "crlf": _STRASSEN.replace("\n", "\r\n"),
    "no-final-newline": _STRASSEN[:-1],
    "long-coefficient": f"mmalg-v1 1 1 1 1\nU\n0 0 {_DIGITS}\nV\nW\n",
    "long-denominator": f"mmalg-v1 1 1 1 1\nU\n0 0 1/{_DIGITS}\nV\nW\n",
    "long-rank": f"mmalg-v1 1 1 1 {_DIGITS}\nU\nV\nW\n",
    "zeros-and-signs": "mmalg-v1 1 1 1 1\nU\n0 0 0\nV\n0 0 -0\nW\n0 0 +1\n",
    "leading-zero-index": "mmalg-v1 1 1 1 1\nU\n00 0 1\nV\nW\n",
    "zero-denominator": "mmalg-v1 1 1 1 1\nU\n0 0 1/0\nV\nW\n",
    "duplicate": "mmalg-v1 2 1 1 1\nU\n1 0 1\n1 0 2\nV\nW\n",
    "index-outside": "mmalg-v1 2 1 1 1\nU\nV\n1 0 1\nW\n",
    "too-few-blocks": "mmalg-v1 1 1 1 2\nU\nV\nW\n",
    "too-many-blocks": "mmalg-v1 1 1 1 1\nU\nV\nW\n\nU\nV\nW\n",
    "zero-dimension": "mmalg-v1 0 1 1 1\nU\nV\nW\n",
    "label-order": "mmalg-v1 1 1 1 1\nV\nU\nW\n",
    "empty": "",
    "carriage-return-in-line": "mmalg-v1 2 1 1 1\nU\n0 0 1\r1 0 1\n0 0 1\nV\nW\n",
    "blank-line-in-block": "mmalg-v1 2 1 1 1\nU\n0 0 1\n\n1 0 1\nV\nW\n",
    "trailing-space": "mmalg-v1 1 1 1 1\nU\n0 0 1 \nV\nW\n",
    "tab-separator": "mmalg-v1 1 1 1 1\nU\n0\t0 1\nV\nW\n",
    "empty-u-block": "mmalg-v1 1 1 1 1\nU\nV\n0 0 1\nW\n0 0 -1\n",
    "no-final-newline-duplicate": "mmalg-v1 1 1 1 1\nU\nV\nW\n0 0 1\n0 0 12",
}
# The cases in the writer's form (a program may lack the blank lines).  A
# "\r" inside a line keeps it from the bulk reader, which splits on "\n"
# alone: a reader that split on the breaks of str.splitlines but counted
# "\n" would accept the duplicate (0, 0) of "carriage-return-in-line", where
# the line reader raises.
_READ_IN_BULK = {"empty-blocks", "some-empty-blocks", "fractions", "integral-fractions",
                 "unsorted", "no-blank-lines", "empty-u-block"}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_bulk_reader_matches_the_line_reader_on_edge_cases(name):
    text = _EDGE_CASES[name]
    assert (_read_canonical(text) is not None) == (name in _READ_IN_BULK)
    assert _outcome(parse_algorithm, text) == _outcome(_parse_lines, text)


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


def _last_token_replaced(lines, i, tok):
    """The text of lines with the last token of line i replaced by tok."""
    lines = list(lines)
    lines[i] = lines[i].rsplit(" ", 1)[0] + " " + tok
    return "\n".join(lines) + "\n"


# int() reads each of these as a number (10, 2 and 2); the entry rule does not.
@pytest.mark.parametrize("tok", ["1_0", "\u0662", "\uff12"])
def test_header_index_and_perm_tokens_follow_the_entry_rule(tok):
    value = int(tok)
    transform = format_transform(
        EquivalenceTransform.identity(DimensionTriple(1, 1, 1), value)).splitlines()
    cases = (
        (parse_matrix, f"{tok} 1\n" + "1\n" * value, 1,
         "header dimensions must be integers"),
        (parse_algorithm, f"mmalg-v1 {tok} 1 1 1\nU\nV\nW\n", 1,
         "header dimensions must be integers"),
        (parse_transform, _last_token_replaced(transform, 0, tok), 1,
         "header dimensions must be integers"),
        (parse_algorithm, f"mmalg-v1 {value + 1} 1 1 1\n\nU\n{tok} 0 1\nV\nW\n", 4,
         "indices must be integers"),
        (parse_algorithm, f"mmalg-v1 1 {value + 1} 1 1\nU\n0 {tok} 1\nV\nW\n", 3,
         "indices must be integers"),
        (parse_transform, _last_token_replaced(transform, -1, tok), len(transform),
         "perm entries must be integers"),
    )
    for parse, text, line, message in cases:
        with pytest.raises(FormatError) as err:
            parse(text)
        assert (err.value.line, err.value.message) == (line, message)


def test_matrix_reader_counts_extra_rows_without_keeping_them():
    text = "1 1\n1\n" + "7 7 7 7\n" * 300_000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^line 300002: expected 1 rows, found 300001$"):
            parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000, peak


def test_matrix_reader_peaks_under_twice_its_text():
    # Lines are cut from the text a piece at a time, so the reader never
    # holds one str per line of its input.
    text = "1 1\n1\n" + "7 7 7 7\n" * 300_000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^line 300002: expected 1 rows, found 300001$"):
            parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), peak


_SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


@given(pieces=st.lists(st.sampled_from(_SEPARATORS + ["", " ", "\t", "7", "ab", "1/2 -3"]),
                       max_size=40),
       pad=st.sampled_from([0, 65530, 65534, 65535, 65536, 65537]))
@example(pieces=["\r\n", "7"], pad=65536)
@example(pieces=["ab", "\r\n", "\n"], pad=65535)
def test_records_are_the_lines_that_splitlines_finds(pieces, pad):
    # Padding of about 64K characters puts the drawn separators next to the
    # end of the first piece the reader cuts, "\r\n" straddling it included.
    text = "x" * pad + "".join(pieces)
    lines = text.splitlines()
    want = [(i, line.split()) for i, line in enumerate(lines, start=1) if line.split()]
    assert list(formats._records(text)) == want + [(len(lines) or 1, [])]


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


def test_program_writer_refuses_a_repeated_entry_past_the_digit_limit(tmp_path):
    # The writer's string caches are warm with ordinary entries before it
    # meets the over-limit coefficient, and meets it twice: it keeps no
    # string for it and names its first entry.
    big = 10**5000
    one = [{(0, 0): 1}] * 4
    alg = BilinearAlgorithm(DimensionTriple(1, 1, 1), 4, one, one,
                            [{(0, 0): 1}, {(0, 0): 2}, {(0, 0): big}, {(0, 0): big}])
    path = tmp_path / "out"
    with pytest.raises(BadArgument, match=r"^w\[2\] entry \(0,0\) has more than \d+ digits"):
        dump_algorithm(alg, str(path))
    assert not path.exists()
