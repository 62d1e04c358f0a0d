"""Shared test utilities: an independent brute-force verifier, an
independent matrix product, corruption helpers, and matrix builders.

brute_force_brent deliberately shares nothing with the package's sparse
verifier: it densifies the coefficient tensors and walks the full
six-index grid, so the two can cross-check each other.  naive_product
likewise shares nothing with the package's product kernels, and
reference_trilinear_random is the trial-by-trial form of the package's
batched trace-identity check, and reference_apply_equivalence the
equivalence transform in plain Fraction arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mmalg import BilinearAlgorithm, Matrix, QQ, mat_classical_multiply

P61 = 2**61 - 1
P31 = 2**31 - 1


def _densify(slices, rows, cols):
    out = []
    for d in slices:
        grid = [[0] * cols for _ in range(rows)]
        for (r, c), val in d.items():
            grid[r][c] = int(val) if val.denominator == 1 else val
        out.append(grid)
    return out


def brute_force_brent(alg: BilinearAlgorithm) -> list:
    """All violated coefficient equations, by exhaustive six-index enumeration."""
    m, k, n = alg.dims
    u = _densify(alg.u, m, k)
    v = _densify(alg.v, k, n)
    w = _densify(alg.w, m, n)
    ranks = range(alg.rank)
    bad = []
    for l in range(m):
        for q in range(n):
            for i in range(m):
                for j in range(k):
                    for g in range(k):
                        for h in range(n):
                            total = 0
                            for s in ranks:
                                total += u[s][i][j] * v[s][g][h] * w[s][l][q]
                            expected = 1 if (i == l and j == g and h == q) else 0
                            if total != expected:
                                bad.append((l, q, i, j, g, h, total))
    return bad


def reference_trilinear_random(alg: BilinearAlgorithm, trials: int, prime: int, seed) -> bool:
    """The trace identity checked one trial at a time, drawing A, B and D
    exactly as verify_trilinear_random does (per trial: A row-major, then B,
    then D, each by randrange(prime))."""
    p = prime

    def image(c) -> int:
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, p) % p

    m, k, n = alg.dims
    u_flat = [[(i, j, image(c)) for (i, j), c in d.items()] for d in alg.u]
    v_flat = [[(g, h, image(c)) for (g, h), c in d.items()] for d in alg.v]
    w_flat = [[(q, l, image(c)) for (l, q), c in d.items()] for d in alg.w]
    rng = random.Random(seed)
    for _ in range(trials):
        A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        B = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        D = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
        lhs = 0
        for eu, ev, ew in zip(u_flat, v_flat, w_flat):
            la = sum(c * A[i][j] for i, j, c in eu) % p
            lb = sum(c * B[g][h] for g, h, c in ev) % p
            ld = sum(c * D[q][l] for q, l, c in ew) % p
            lhs += la * lb % p * ld
        rhs = 0
        for i in range(m):
            for h in range(n):
                ab = sum(A[i][j] * B[j][h] for j in range(k)) % p
                rhs += ab * D[h][i]
        if lhs % p != rhs % p:
            return False
    return True


def reference_apply_equivalence(alg: BilinearAlgorithm, t) -> tuple:
    """The (u, v, w) slices of apply_equivalence(alg, t), each coefficient a
    sum of Fraction products c * x * y over the source entries c and the
    transform's columns or rows x and y, then an int when integral and
    dropped when zero."""

    def nonzeros(vectors):
        return [[(a, x) for a, x in enumerate(vec) if x] for vec in vectors]

    def outer_sum(d, left, right):
        acc = {}
        for (i, j), c in d.items():
            for a, x in left[i]:
                cx = c * x
                for b, y in right[j]:
                    acc[a, b] = acc.get((a, b), 0) + cx * y
        return {key: c.numerator if c.denominator == 1 else c for key, c in acc.items() if c}

    sigma_c, nabla_c, mu_c = (nonzeros(zip(*x.to_rows())) for x in (t.sigma, t.nabla, t.mu))
    lam_r, gamma_r, beta_r = (nonzeros(x.to_rows()) for x in (t.lam, t.gamma, t.beta))
    return ([outer_sum(alg.u[s], sigma_c, nabla_c) for s in t.perm],
            [outer_sum(alg.v[s], lam_r, mu_c) for s in t.perm],
            [outer_sum(alg.w[s], gamma_r, beta_r) for s in t.perm])


def naive_product(a_rows, b_rows, p=None) -> list:
    """Rows of the product of two lists of rows of ints or Fractions, by the
    plain triple loop; each entry is reduced mod p when p is given."""
    k, n = len(b_rows), len(b_rows[0])
    out = []
    for row in a_rows:
        out_row = []
        for j in range(n):
            total = 0
            for t in range(k):
                total += row[t] * b_rows[t][j]
            out_row.append(total if p is None else total % p)
        out.append(out_row)
    return out


def corrupt_one(alg: BilinearAlgorithm, rng) -> BilinearAlgorithm:
    """Copy with exactly one coefficient of one product changed."""
    m, k, n = alg.dims
    u = [dict(d) for d in alg.u]
    v = [dict(d) for d in alg.v]
    w = [dict(d) for d in alg.w]
    tensors = ((u, m, k), (v, k, n), (w, m, n))
    target, rows, cols = tensors[rng.randrange(3)]
    s = rng.randrange(alg.rank)
    r = rng.randrange(rows)
    c = rng.randrange(cols)
    delta = rng.choice((1, -1, 2, Fraction(1, 2)))
    target[s][(r, c)] = target[s].get((r, c), Fraction(0)) + delta
    return BilinearAlgorithm(alg.dims, alg.rank, u, v, w)


def unit_lu_matrix(size: int, rng, spread: int = 2) -> Matrix:
    """Integer matrix with every leading principal minor equal to 1."""
    lower = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-spread, spread)) if i > j else Fraction(0))
              for j in range(size)] for i in range(size)]
    upper = [[Fraction(1) if i == j else
              (Fraction(rng.randint(-spread, spread)) if i < j else Fraction(0))
              for j in range(size)] for i in range(size)]
    return mat_classical_multiply(
        Matrix.from_rows(QQ, lower), Matrix.from_rows(QQ, upper)
    )
