"""The three text formats: matrices, programs (mmalg-v1) and equivalence
transforms (mmtrans-v1).

Every reader and writer of the package lives here, and so does the only
code that opens a file: _read_text decodes a file as UTF-8 (an undecodable
byte is a FormatError naming its line, _decode), and _write_text writes one.
The formats share their conventions: blank lines are ignored anywhere,
tokens are separated by whitespace (_records), a header is a magic word
(none for matrices) and positive integers (_read_header), and every number
token, an entry, a coefficient, a header number, an index or a perm entry,
is read by one rule (_exact: an optional sign, ASCII digits and optionally
'/' and ASCII digits), the last four refusing a token that is not an
integer (_integer).  Every parse error is a FormatError naming its 1-based
line.  A writer formats its whole text before it opens the file, and
refuses an entry past Python's integer-string conversion limit with a
BadArgument naming it (_unwritable), so a refused write leaves no file.

Matrices: a ``rows cols`` header line followed by one whitespace-separated
row per line, entries written as integers or ``p/q`` fractions.  Writing and
re-reading a matrix reproduces it exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import repeat
from operator import itemgetter

from .bilinear_core import BilinearAlgorithm, DimensionTriple
from .errors import BadArgument, FormatError
from .exact_algebra import QQ, Matrix, PrimeField, RationalField
from .transforms import EquivalenceTransform


def _decode(data: bytes) -> str:
    """data as UTF-8 text; an undecodable byte raises FormatError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte, plus the one it starts
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from None


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        return _decode(fh.read())


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# The line breaks of str.splitlines, "\r\n" first so that it is one break.
_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _records(text: str):
    """Yield (1-based line number, tokens) for each non-blank line of text.

    The text is split into lines (str.splitlines) a piece at a time, each
    piece about 64K characters that ends at the end of a line (_BREAK), so
    a reader holds one piece's lines, not all of them.  A last (number of
    the final line, []) record marks the end of the text, so a reader that
    runs out reports the line where the text stopped.
    """
    lineno = start = 0
    while start < len(text):
        brk = _BREAK.search(text, start + 65536)
        end = brk.end() if brk else len(text)
        for lineno, line in enumerate(text[start:end].splitlines(), start=lineno + 1):
            tokens = line.split()
            if tokens:
                yield lineno, tokens
        start = end
    yield lineno or 1, []


_EXACT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _exact(tok: str) -> int | Fraction:
    """The value of an entry token: an optional sign, ASCII digits, and
    optionally '/' and ASCII digits.  A token without '/' is an int, one
    with it a Fraction in lowest terms (so '4/2' is Fraction(2)).

    Any other token, or one past Python's integer-string conversion limit,
    raises ValueError; a zero denominator raises ZeroDivisionError.
    """
    match = _EXACT.fullmatch(tok)
    if match is None:
        raise ValueError(tok)
    num, den = match.groups()
    return int(num) if den is None else Fraction(int(num), int(den))


def _integer(tok: str) -> int:
    """The int that tok spells by the entry rule (_exact), which gives an int
    exactly for a token without '/'; ValueError for any other token."""
    if "/" in tok:
        raise ValueError(tok)
    return _exact(tok)


def _read_header(records, magic, names, what: str) -> list:
    """Read a header record: magic (unless None), then one positive integer per name."""
    lineno, tokens = next(records)
    if not tokens:
        raise FormatError(1, f"empty {what} file")
    lead = [] if magic is None else [magic]
    if len(tokens) != len(lead) + len(names) or tokens[: len(lead)] != lead:
        raise FormatError(lineno, f"expected '{' '.join(lead + list(names))}' header")
    try:
        values = [_integer(t) for t in tokens[len(lead):]]
    except ValueError:
        raise FormatError(lineno, "header dimensions must be integers") from None
    if min(values) < 1:
        raise FormatError(lineno, "header dimensions must be positive")
    return values


def _shown(tok: str) -> str:
    """tok quoted for an error message, cut after its first 20 characters."""
    return repr(tok if len(tok) <= 20 else tok[:20] + "...")


def _read_rows(records, rows: int, cols: int, ring: RationalField | PrimeField) -> Matrix:
    """Read rows records of cols exact entries (see _exact) each."""
    value = ring._value
    flat = []
    for found in range(rows):
        lineno, tokens = next(records)
        if not tokens:
            raise FormatError(lineno, f"expected {rows} rows, found {found}")
        if len(tokens) != cols:
            raise FormatError(lineno, f"expected {cols} entries, found {len(tokens)}")
        for tok in tokens:
            try:
                flat.append(value(_exact(tok)))
            except (ValueError, ZeroDivisionError):
                raise FormatError(lineno, f"bad entry {_shown(tok)}") from None
    return Matrix._from_values(ring, rows, cols, flat)


def _unwritable(named) -> BadArgument:
    """The error for the first (name, value) of named that str() refuses.

    str() of an integer past Python's integer-string conversion limit (4,300
    digits by default) raises ValueError; a writer that meets it calls this
    to name the entry.
    """
    for name, x in named:
        try:
            str(x)
        except ValueError:
            break
    return BadArgument(
        f"{name} has more than {sys.get_int_max_str_digits()} digits, "
        "Python's integer-string conversion limit"
    )


def _row_lines(a: Matrix, name: str = "entry") -> list:
    """One line per row of a, entries separated by single spaces."""
    e, n = a._values, a.cols
    try:
        return [" ".join(map(str, e[i : i + n])) for i in range(0, len(e), n)]
    except ValueError:
        named = ((f"{name} ({i // n},{i % n})", x) for i, x in enumerate(e))
        raise _unwritable(named) from None


def format_matrix(a: Matrix) -> str:
    """Render in the matrix text format; exact round-trip with parse_matrix."""
    return "\n".join([f"{a.rows} {a.cols}", *_row_lines(a), ""])


def parse_matrix(text: str, ring: RationalField | PrimeField = QQ) -> Matrix:
    """Parse the matrix text format.  Raises FormatError with a line number.

    Rows past the header's count are counted as they are read, not kept."""
    records = _records(text)
    rows, cols = _read_header(records, None, ("rows", "cols"), "matrix")
    matrix = _read_rows(records, rows, cols, ring)
    # The end record comes last, so extra ends as the count of rows before it.
    for extra, (end, _) in enumerate(records):
        pass
    if extra:
        raise FormatError(end, f"expected {rows} rows, found {rows + extra}")
    return matrix


def load_matrix(path, ring: RationalField | PrimeField = QQ) -> Matrix:
    return parse_matrix(_read_text(path), ring)


def dump_matrix(a: Matrix, path) -> None:
    _write_text(path, format_matrix(a))


# ---------------------------------------------------------------------------
# Algorithm text format.
#
# Header line:  mmalg-v1 m k n R
# Then, for each product s = 1..R, three labeled blocks
#     U / V / W, each holding lines "i j value" (0-based indices, value an
# integer or p/q fraction, read by _exact).  The canonical writer sorts
# entries within a block and separates products by a blank line; the reader
# accepts entries in any order and arbitrary blank lines.
#
# parse_algorithm reads text in the writer's exact form in bulk, with a
# Python step per block and per distinct line but none per entry line.  That
# form is _HEADER, then R products of three label lines U, V and W
# (_LABEL_LINE; one blank line may come before each), each followed by its
# entry lines (_ENTRY_LINE: one space between tokens, no '+', no leading
# zero and no zero coefficient), every line ended by "\n".  Lines are split
# on "\n" alone, so any other line break stays inside a line and fails
# _ENTRY_LINE.  Any other text, and writer-form text that fails a check (an
# index outside its block, a duplicate entry, a product count other than R,
# a number past Python's int-string digit limit), goes unchanged to the line
# reader _parse_lines, the one source of FormatErrors.
#
# The writer and both readers draw what they make per entry from a _Memo:
# one object per distinct key (its "r c " string, or its (r, c) tuple), per
# distinct coefficient (its "x\n" string) and, in the bulk reader, per
# distinct entry line (its (key, coefficient) pair), not one per entry.
# The writer takes one step per product: it writes the U, V and W entries
# inline, sorts a slice's keys only when it holds two or more entries (one
# key is already in order), and checks the piece size once per product.
# ---------------------------------------------------------------------------

_PROGRAM_MAGIC = "mmalg-v1"
_POSITIVE = "[1-9][0-9]*"
_HEADER = re.compile(
    rf"{_PROGRAM_MAGIC} ({_POSITIVE}) ({_POSITIVE}) ({_POSITIVE}) ({_POSITIVE})\n")
# A label line, after at most one blank line.
_LABEL_LINE = re.compile("^\n?([UVW])\n", re.M)
# An entry line without its "\n": the two indices and the coefficient.
_ENTRY_LINE = re.compile(rf"(0|{_POSITIVE}) (0|{_POSITIVE}) (-?{_POSITIVE}(?:/{_POSITIVE})?)")


# Strings per piece of format_algorithm's text, at least: a piece ends with
# the product that reaches this count.
_PIECE_STRINGS = 8192


class _Memo(dict):
    """A dict that makes a missing key's value with make(key) and keeps it,
    so equal keys share one value object."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def format_algorithm(alg: BilinearAlgorithm) -> str:
    """The program in the text format; BadArgument naming the first entry
    past Python's int-string digit limit.

    An entry line is two strings made once per distinct key ("r c ") and
    once per distinct coefficient ("x\n"), not once per entry; a slice's
    keys are sorted only when it holds two or more.  Whenever a product
    brings the pending strings to _PIECE_STRINGS, they are joined into one
    piece (which ends at that product's end), and the text is the join of
    the pieces: the writer holds about twice its text (the pieces and their
    join), not one str object per line.  The text is built in full before
    dump_algorithm opens its file, so a refused entry leaves no file.
    """
    m, k, n = alg.dims
    keys = _Memo(lambda key: f"{key[0]} {key[1]} ")
    values = _Memo(lambda x: f"{x}\n")
    pieces = []
    # Each product opens with "\nU\n": the break that ends the line before
    # it (the header, or the blank line after the previous product) and its
    # U label.
    strings = [f"{_PROGRAM_MAGIC} {m} {k} {n} {alg.rank}"]
    append = strings.append
    try:
        for u, v, w in zip(alg.u, alg.v, alg.w):
            append("\nU\n")
            for key in sorted(u) if len(u) > 1 else u:
                append(keys[key])
                append(values[u[key]])
            append("V\n")
            for key in sorted(v) if len(v) > 1 else v:
                append(keys[key])
                append(values[v[key]])
            append("W\n")
            for key in sorted(w) if len(w) > 1 else w:
                append(keys[key])
                append(values[w[key]])
            if len(strings) >= _PIECE_STRINGS:
                pieces.append("".join(strings))
                strings.clear()
    except ValueError:
        raise _unwritable(
            (f"{name}[{s}] entry ({r},{c})", x)
            for name, tensor in (("u", alg.u), ("v", alg.v), ("w", alg.w))
            for s, d in enumerate(tensor)
            for (r, c), x in d.items()
        ) from None
    pieces.append("".join(strings))
    return "".join(pieces)


def _read_canonical(text: str) -> BilinearAlgorithm | None:
    """The program that text in the writer's exact form holds, or None when
    text is in another form or fails a check (see the text-format comment).

    One re.split on the label lines (_LABEL_LINE) gives the labels and the
    block texts.  Each block becomes one dict, built by C-level calls from
    its lines, each line looked up in a _Memo that reads every distinct line
    once (_ENTRY_LINE, then _exact) into a (key, coefficient) pair, the key
    drawn from one _Memo so that every slice shares one tuple per distinct
    (i, j).  A block's line list is made inside the comprehension, so the
    reader holds one block's lines at a time, not every block's.
    """
    header = _HEADER.match(text)
    if header is None or not text.endswith("\n"):
        return None
    parts = _LABEL_LINE.split(text)
    blocks = parts[2::2]
    key = _Memo(lambda pair: pair)

    def read(line):
        match = _ENTRY_LINE.fullmatch(line)
        if match is None:
            raise ValueError(line)
        r, c, x = match.groups()
        x = _exact(x)
        return key[int(r), int(c)], x.numerator if x.denominator == 1 else x

    entry = _Memo(read).__getitem__
    try:
        m, k, n, rank = map(int, header.groups())
        # The length test comes first: it keeps a huge header rank from
        # building a huge label list.
        if (len(parts[0]) != header.end() or len(parts) != 6 * rank + 1
                or parts[1::2] != ["U", "V", "W"] * rank):
            return None
        # A label line starts a line and the text ends with "\n", so every
        # block ends with "\n" or is empty.
        slices = [dict(map(entry, block[:-1].split("\n"))) if block else {} for block in blocks]
    except ValueError:
        return None
    # A duplicate key leaves its slice one entry short of its lines.
    if sum(map(len, slices)) != sum(map(str.count, blocks, repeat("\n"))):
        return None
    u, v, w = slices[0::3], slices[1::3], slices[2::3]
    for tensor, rows, cols in ((u, m, k), (v, k, n), (w, m, n)):
        keys = set().union(*tensor)
        if keys and (max(keys)[0] >= rows or max(map(itemgetter(1), keys)) >= cols):
            return None
    return BilinearAlgorithm._from_slices(DimensionTriple(m, k, n), rank, u, v, w)


def parse_algorithm(text: str) -> BilinearAlgorithm:
    """The program of a text in the format above: read in bulk when the text
    is in the writer's exact form, else line by line."""
    alg = _read_canonical(text)
    return _parse_lines(text) if alg is None else alg


def _parse_lines(text: str) -> BilinearAlgorithm:
    """The line reader: any text in the format, or a FormatError naming the
    first line at fault.  Its keys come from one _Memo, so every slice shares
    one tuple per distinct (i, j)."""
    records = _records(text)
    m, k, n, rank = _read_header(records, _PROGRAM_MAGIC, ("m", "k", "n", "R"), "algorithm")
    shapes = {"U": (m, k), "V": (k, n), "W": (m, n)}
    order = ("U", "V", "W")
    u, v, w = [], [], []
    dest = {"U": u, "V": v, "W": w}
    key = _Memo(lambda pair: pair)
    current = None  # (label, dict)
    blocks_seen = 0

    for lineno, tokens in records:
        if not tokens:
            break
        if len(tokens) == 1 and tokens[0] in shapes:
            label = tokens[0]
            want = order[blocks_seen % 3]
            if label != want:
                raise FormatError(lineno, f"expected block '{want}', found '{label}'")
            if blocks_seen >= 3 * rank:
                raise FormatError(lineno, f"more than {rank} products in file")
            current = (label, {})
            dest[label].append(current[1])
            blocks_seen += 1
            continue
        if current is None:
            raise FormatError(lineno, "coefficient entry before any block label")
        if len(tokens) != 3:
            raise FormatError(lineno, "expected 'i j value'")
        try:
            r, c = _integer(tokens[0]), _integer(tokens[1])
        except ValueError:
            raise FormatError(lineno, "indices must be integers") from None
        try:
            val = _exact(tokens[2])
        except (ValueError, ZeroDivisionError):
            raise FormatError(lineno, f"bad coefficient {_shown(tokens[2])}") from None
        label, block = current
        rows, cols = shapes[label]
        if not (0 <= r < rows and 0 <= c < cols):
            raise FormatError(
                lineno, f"index ({r},{c}) outside {rows}x{cols} block '{label}'"
            )
        if (r, c) in block:
            raise FormatError(lineno, f"duplicate entry ({r},{c}) in block '{label}'")
        block[key[r, c]] = val

    if blocks_seen != 3 * rank:
        raise FormatError(
            lineno,
            f"file ends after {blocks_seen} blocks; rank {rank} needs {3 * rank}",
        )
    return BilinearAlgorithm(DimensionTriple(m, k, n), rank, u, v, w)


def load_algorithm(path) -> BilinearAlgorithm:
    return parse_algorithm(_read_text(path))


def dump_algorithm(alg: BilinearAlgorithm, path) -> None:
    _write_text(path, format_algorithm(alg))


# ---------------------------------------------------------------------------
# Transform text format.
#
# Header:  mmtrans-v1 m k n R
# Six labeled matrix blocks (sigma, gamma: m x m; nabla, lambda: k x k;
# mu, beta: n x n), each label on its own line followed by its rows, then a
# "perm" block with one line of R 1-based product indices.
# ---------------------------------------------------------------------------

_TRANSFORM_MAGIC = "mmtrans-v1"
_LABELS = ("sigma", "gamma", "nabla", "lambda", "mu", "beta")


def format_transform(transform: EquivalenceTransform) -> str:
    mats = (transform.sigma, transform.gamma, transform.nabla,
            transform.lam, transform.mu, transform.beta)
    lines = [f"{_TRANSFORM_MAGIC} {transform.sigma.rows} {transform.nabla.rows} "
             f"{transform.mu.rows} {len(transform.perm)}"]
    for label, mat in zip(_LABELS, mats):
        lines.append(label)
        lines.extend(_row_lines(mat, f"{label} entry"))
    lines.append("perm")
    lines += [" ".join(str(s + 1) for s in transform.perm), ""]
    return "\n".join(lines)


def _expect_label(records, label: str) -> None:
    lineno, tokens = next(records)
    if tokens != [label]:
        found = _shown(" ".join(tokens)) if tokens else "end of file"
        raise FormatError(lineno, f"expected block '{label}', found {found}")


def parse_transform(text: str) -> EquivalenceTransform:
    records = _records(text)
    m, k, n, rank = _read_header(records, _TRANSFORM_MAGIC, ("m", "k", "n", "R"), "transform")
    mats = []
    for label, size in zip(_LABELS, (m, m, k, k, n, n)):
        _expect_label(records, label)
        mats.append(_read_rows(records, size, size, QQ))
    _expect_label(records, "perm")
    lineno, tokens = next(records)
    if len(tokens) != rank:
        raise FormatError(lineno, f"perm needs {rank} entries, found {len(tokens)}")
    try:
        perm = tuple(_integer(t) - 1 for t in tokens)
    except ValueError:
        raise FormatError(lineno, "perm entries must be integers") from None
    if any(s < 0 or s >= rank for s in perm):
        raise FormatError(lineno, f"perm entries must lie in 1..{rank}")
    lineno, tokens = next(records)
    if tokens:
        raise FormatError(lineno, "trailing content after perm")
    return EquivalenceTransform(*mats, perm)


def load_transform(path) -> EquivalenceTransform:
    return parse_transform(_read_text(path))


def dump_transform(transform: EquivalenceTransform, path) -> None:
    _write_text(path, format_transform(transform))
