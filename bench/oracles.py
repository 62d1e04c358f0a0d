"""Output checks that share no code with mmalg.

The program under test is never its own oracle: products over GF(p) are
checked by Freivalds' test in plain Python ints, inverses by multiplying back
against a random vector in exact ``Fraction``s, small products by a triple
loop written here, and program files by reading their header and block
labels directly.
"""

from __future__ import annotations

import random
from fractions import Fraction


def freivalds_ok(a, b, c, p, rng: random.Random, trials: int = 2) -> bool:
    """C == A*B mod p for square int matrices given as row lists.

    A wrong C passes one trial with probability at most 1/p.
    """
    n = len(a)
    for _ in range(trials):
        x = [rng.randrange(p) for _ in range(n)]
        bx = [sum(bi * xi for bi, xi in zip(row, x)) % p for row in b]
        abx = [sum(ai * yi for ai, yi in zip(row, bx)) % p for row in a]
        cx = [sum(ci * xi for ci, xi in zip(row, x)) % p for row in c]
        if abx != cx:
            return False
    return True


def matvec(rows, x):
    return [sum(r * xi for r, xi in zip(row, x)) for row in rows]


def inverse_ok(a, a_inv, rng: random.Random, trials: int = 2) -> bool:
    """A * (A^-1 x) == x exactly, for random rational x."""
    n = len(a)
    if len(a_inv) != n or any(len(row) != n for row in a_inv):
        return False
    for _ in range(trials):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        if matvec(a, matvec(a_inv, x)) != x:
            return False
    return True


def product(a, b):
    """Triple-loop product of row lists."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def rows_of(matrix):
    """Row lists of an mmalg Matrix, read from its public attributes."""
    e, n = matrix.entries, matrix.cols
    return [list(e[i * n:(i + 1) * n]) for i in range(matrix.rows)]


def program_file_shape(path):
    """(m, k, n, rank, products) from a mmalg-v1 program file.

    ``products`` counts complete U/V/W block triples, so a truncated or
    mislabeled file disagrees with its header.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[0] != "mmalg-v1":
        return None
    labels = [line for line in lines[1:] if line in ("U", "V", "W")]
    triples = len(labels) // 3
    if labels != ["U", "V", "W"] * triples:
        return None
    return (*(int(t) for t in head[1:]), triples)
