"""Constructors for the shipped multiplication programs.

Three families: the classical one-product-per-entry scheme for any shape,
the rank-7 scheme for 2x2, and a shifted-partner aggregation scheme that
reaches rank n^3/2 + 3n^2 for any even n, which beats classical n^3 from
n = 8 onward and drives the multiplication exponent below 2.85 at n = 34.
"""

from __future__ import annotations

from .bilinear_core import BilinearAlgorithm, DimensionTriple, _check_size
from .errors import BadArgument


def classical(m: int, k: int, n: int) -> BilinearAlgorithm:
    """One bilinear product a_ij * b_jh per coefficient of the result: rank mkn.

    Each tensor holds mkn nonzeros; past bilinear_core._MAX_NONZEROS the
    program is refused with BadArgument before it is built.
    """
    dims = DimensionTriple(m, k, n)
    _check_size([dims.volume] * 3)
    u, v, w = [], [], []
    for i in range(m):
        for j in range(k):
            for h in range(n):
                u.append({(i, j): 1})
                v.append({(j, h): 1})
                w.append({(i, h): 1})
    return BilinearAlgorithm._from_slices(dims, dims.volume, u, v, w)


def strassen_222() -> BilinearAlgorithm:
    """The rank-7 scheme for 2x2 matrices (optimal; classical needs 8)."""
    products = [
        # (u, v, w) per bilinear product
        ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1}),
        ({(1, 0): 1, (1, 1): 1}, {(0, 0): 1}, {(1, 0): 1, (1, 1): -1}),
        ({(0, 0): 1}, {(0, 1): 1, (1, 1): -1}, {(0, 1): 1, (1, 1): 1}),
        ({(1, 1): 1}, {(1, 0): 1, (0, 0): -1}, {(0, 0): 1, (1, 0): 1}),
        ({(0, 0): 1, (0, 1): 1}, {(1, 1): 1}, {(0, 0): -1, (0, 1): 1}),
        ({(1, 0): 1, (0, 0): -1}, {(0, 0): 1, (0, 1): 1}, {(1, 1): 1}),
        ({(0, 1): 1, (1, 1): -1}, {(1, 0): 1, (1, 1): 1}, {(0, 0): 1}),
    ]
    u, v, w = zip(*products)
    return BilinearAlgorithm._from_slices(DimensionTriple(2, 2, 2), 7, u, v, w)


def _slice(keys: list, sign: int = 1) -> dict:
    # One slice of a product from the keys of its factor: `sign` per
    # occurrence of a key, so a repeated key adds up.  All keys share one
    # sign, so no entry sums to 0.
    d: dict = {}
    for key in keys:
        d[key] = d.get(key, 0) + sign
    return d


def pan_aggregation(n: int) -> BilinearAlgorithm:
    """Shifted-partner aggregation for square n x n multiplication, n even.

    Rank n^3/2 + 3n^2.  Writing ' for a subscript shifted by one modulo n,
    each index triple (i, j, h) of even parity i+j+h contributes one
    aggregate product

        (a_ij + a_h'i') (b_jh + b_i'j') (d_hi + d_j'h'),

    which expands to the wanted term a_ij b_jh d_hi, the shifted image of
    the wanted term at the odd-parity triple (h', i', j'), and six cross
    terms.  Each cross term degenerates in one of the three indices, so
    three families of n^2 cheap correction products - one per free index
    pair, each aggregating the degenerate factor over its lost index -
    cancel them:

      (1) a_h'i' (sum over even j of b_jh + b_i'j') d_hi     per (i, h)
      (2) a_ij b_i'j' (sum over even h of d_hi + d_j'h')     per (i, j)
      (3) (sum over even i of a_ij + a_h'i') b_jh d_j'h'     per (j, h)

    all carried with weight -1 on the output side.  "Even j" abbreviates
    i+j+h even for the fixed values of the other two indices.

    Coefficients accumulate as a multiset: when shifting makes two formal
    terms land on the same matrix entry (wraparound makes this unavoidable
    for every n), their coefficients add, so entries of magnitude 2 occur.

    Each tensor holds at most 2n^3 + 2n^2 nonzeros (at most two per
    aggregate product, at most n per correction product of the family that
    aggregates it, one per other correction product); past
    bilinear_core._MAX_NONZEROS the program is refused with BadArgument
    before it is built.
    """
    if not isinstance(n, int) or n < 2 or n % 2:
        raise BadArgument(f"aggregation scheme requires even n >= 2, got {n!r}")
    _check_size([2 * n**3 + 2 * n**2] * 3)

    # key[x][y] is the entry (x mod n, y mod n), so the shifted x' is x + 1.
    # Each entry is one tuple, shared by every slice that holds it.
    key = [[(x % n, y % n) for y in range(n + 1)] for x in range(n + 1)]
    r = range(n)

    def even(x: int, y: int) -> range:
        # The values z that make x+y+z even, in increasing order.
        return range((x + y) % 2, n, 2)

    # Each product is stated once, as the keys of its a, b and d factors,
    # which give its u, v and w slices.
    # Aggregate products, one per even-parity triple.  The d factor d_xy
    # lands at output entry (y, x): output coefficients follow c_lq while
    # the trace form reads d_ql.
    products = [(_slice([key[i][j], key[h + 1][i + 1]]), _slice([key[j][h], key[i + 1][j + 1]]),
                 _slice([key[i][h], key[h + 1][j + 1]])) for i in r for j in r for h in even(i, j)]
    # Correction family (1): kills cross terms degenerate in j.
    products += [(_slice([key[h + 1][i + 1]]),
                  _slice([k for j in even(i, h) for k in (key[j][h], key[i + 1][j + 1])]),
                  _slice([key[i][h]], -1)) for i in r for h in r]
    # Correction family (2): kills cross terms degenerate in h.
    products += [(_slice([key[i][j]]), _slice([key[i + 1][j + 1]]),
                  _slice([k for h in even(i, j) for k in (key[i][h], key[h + 1][j + 1])], -1))
                 for i in r for j in r]
    # Correction family (3): kills cross terms degenerate in i.
    products += [(_slice([k for i in even(j, h) for k in (key[i][j], key[h + 1][i + 1])]),
                  _slice([key[j][h]]), _slice([key[h + 1][j + 1]], -1)) for j in r for h in r]
    u, v, w = zip(*products)

    rank = n**3 // 2 + 3 * n**2
    return BilinearAlgorithm._from_slices(DimensionTriple(n, n, n), rank, u, v, w)
