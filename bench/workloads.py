"""The three workloads: inputs from the seed, the operations of one pass, and
the checks on their outputs.

A pass is a fixed sequence of operations.  Its inputs come from
``random.Random(f"{name}/{seed}/{index}")``, so every pass sees fresh inputs
of the same shapes: the same seed gives the same inputs, shape-driven counts
repeat exactly from pass to pass, and a cache keyed on repeated inputs cannot
turn later passes into lookups.

Operations reach the program through module attributes at call time
(``self.mm.recursion.recursive_multiply``), so the tracer's wrappers see them.
Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import Counter
from fractions import Fraction

import oracles

P61 = 2**61 - 1


def _pan_rank(n: int) -> int:
    return n**3 // 2 + 3 * n**2


class Workload:
    name = ""

    def __init__(self, mm, workdir: str):
        self.mm = mm
        self.workdir = workdir
        # Per-pass tallies filled by check(); the runner reads and clears them.
        self.stats = Counter()

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{index}")

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def ops(self, inp):
        """[(label, thunk)] for one pass over ``inp``; called before timing starts."""
        raise NotImplementedError

    def check(self, inp, label, result) -> bool:
        raise NotImplementedError

    def warm_up(self, seed: int):
        """Run every code path once at small sizes, so lazy set-up is done."""
        raise NotImplementedError


class RecurseGFp(Workload):
    """Recursive products over GF(2^61 - 1) with boxed ModularScalar entries."""

    name = "recurse-gfp"
    # (label, base, threshold, side); threshold-1 power-of-side products must
    # also match cost_model exactly.
    CASES = (
        ("strassen-k32-t1", "strassen", 1, 32),
        ("strassen-k64-t16", "strassen", 16, 64),
        ("pan4-k16-t1", "pan4", 1, 16),
    )

    def __init__(self, mm, workdir):
        super().__init__(mm, workdir)
        self.field = mm.exact_algebra.PrimeField(P61)
        self.bases = {
            "strassen": mm.generators.strassen_222(),
            "pan4": mm.generators.pan_aggregation(4),
        }
        cfg = mm.recursion.RecursionConfig
        self.configs = {label: cfg(self.bases[base], t) for label, base, t, _ in self.CASES}

    def _pair(self, rng, n):
        rows = [[[rng.randrange(P61) for _ in range(n)] for _ in range(n)] for _ in range(2)]
        mats = [self.mm.exact_algebra.Matrix.from_rows(self.field, r) for r in rows]
        return rows, mats

    def inputs(self, seed, index):
        rng = self.rng(seed, index)
        inp = {side: self._pair(rng, side) for side in (16, 32, 64)}
        inp["check_seed"] = rng.randrange(2**32)
        return inp

    def ops(self, inp):
        mm = self.mm
        out = []
        for label, _base, _t, side in self.CASES:
            a, b = inp[side][1]
            cfg = self.configs[label]
            out.append((label, lambda cfg=cfg, a=a, b=b:
                        mm.recursion.recursive_multiply(cfg, a, b)))
        a, b = inp[64][1]
        out.append(("classical-64", lambda: mm.exact_algebra.mat_classical_multiply(a, b)))
        return out

    def check(self, inp, label, result):
        rng = random.Random(f"{inp['check_seed']}/{label}")
        if label == "classical-64":
            side, product, report = 64, result, None
        else:
            case = next(c for c in self.CASES if c[0] == label)
            side, (product, report) = case[3], result
        (a_rows, b_rows), _ = inp[side]
        if (product.rows, product.cols) != (side, side):
            return False
        c_rows = [[x.value for x in row] for row in oracles.rows_of(product)]
        ok = oracles.freivalds_ok(a_rows, b_rows, c_rows, P61, rng)
        if report is not None and case[2] == 1:
            model = self.mm.recursion.cost_model(self.bases[case[1]], side)
            match = (report.bilinear_mults, report.scalar_mults, report.additions) == (
                model.bilinear_mults, model.scalar_mults, model.additions)
            self.stats["model_eligible"] += 1
            self.stats["model_match"] += match
            ok = ok and match
        return ok

    def warm_up(self, seed):
        rng = self.rng(seed, -1)
        _, (a, b) = self._pair(rng, 4)
        for base in self.bases.values():
            cfg = self.mm.recursion.RecursionConfig(base, 1)
            self.mm.recursion.recursive_multiply(cfg, a, b)
        self.mm.exact_algebra.mat_classical_multiply(a, b)


class InvertQQ(Workload):
    """Recursive block inversion over QQ with Strassen at threshold 4."""

    name = "invert-qq"

    def __init__(self, mm, workdir):
        super().__init__(mm, workdir)
        self.cfg = mm.recursion.RecursionConfig(mm.generators.strassen_222(), 4)

    @staticmethod
    def _unit_lu(rng, n):
        # L*U with unit-triangular 0/1 factors: every leading minor is 1, so
        # pivot-free elimination always succeeds and the inverse is integral.
        lower = [[1 if i == j else (rng.randint(0, 1) if i > j else 0) for j in range(n)]
                 for i in range(n)]
        upper = [[1 if i == j else (rng.randint(0, 1) if i < j else 0) for j in range(n)]
                 for i in range(n)]
        return oracles.product(lower, upper)

    @staticmethod
    def _dominant(rng, n):
        # Strictly diagonally dominant: every leading block and every Schur
        # complement stays nonsingular, so no pivot is ever needed.
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1 + sum(abs(x) for j, x in enumerate(row) if j != i)
        return rows

    def inputs(self, seed, index):
        rng = self.rng(seed, index)
        rows = {
            "lu32": self._unit_lu(rng, 32),
            "lu33": self._unit_lu(rng, 33),
            "dom24": self._dominant(rng, 24),
            "a7x5": [[rng.randint(-9, 9) for _ in range(5)] for _ in range(7)],
            "b5x9": [[rng.randint(-9, 9) for _ in range(9)] for _ in range(5)],
        }
        qq = self.mm.exact_algebra.QQ
        mats = {k: self.mm.exact_algebra.Matrix.from_rows(qq, v) for k, v in rows.items()}
        return {"rows": rows, "mats": mats, "check_seed": rng.randrange(2**32)}

    def _invert(self, t):
        return self.mm.recursion.recursive_invert(self.cfg, t)[0]

    def ops(self, inp):
        rec = self.mm.recursion
        m = inp["mats"]
        cfg = self.cfg
        return [
            ("invert-lu32", lambda: rec.recursive_invert(cfg, m["lu32"])),
            # Side 33 pads every block product up to the next power of two:
            # the padding blow-up, kept in on purpose.
            ("invert-lu33", lambda: rec.recursive_invert(cfg, m["lu33"])),
            ("invert-dom24", lambda: rec.recursive_invert(cfg, m["dom24"])),
            ("mat-inverse-lu32", lambda: self.mm.exact_algebra.mat_inverse(m["lu32"])),
            ("via-inversion-7x5x9",
             lambda: rec.multiply_via_inversion(m["a7x5"], m["b5x9"], self._invert)),
        ]

    def check(self, inp, label, result):
        rows = inp["rows"]
        if label == "via-inversion-7x5x9":
            return oracles.rows_of(result) == oracles.product(rows["a7x5"], rows["b5x9"])
        inverse = result if label.startswith("mat-inverse") else result[0]
        source = rows[label.rsplit("-", 1)[1]]
        rng = random.Random(f"{inp['check_seed']}/{label}")
        return oracles.inverse_ok(source, oracles.rows_of(inverse), rng)

    def warm_up(self, seed):
        rng = self.rng(seed, -1)
        mat = self.mm.exact_algebra.Matrix.from_rows(self.mm.exact_algebra.QQ,
                                                      self._unit_lu(rng, 6))
        self.mm.recursion.recursive_invert(self.cfg, mat)
        self.mm.exact_algebra.mat_inverse(mat)
        small = self.mm.exact_algebra.Matrix.from_rows(self.mm.exact_algebra.QQ, [[1, 2], [3, 4]])
        self.mm.recursion.multiply_via_inversion(small, small, self._invert)


class ProgramPipeline(Workload):
    """In-process ``mmalg`` CLI commands on program files in a work directory."""

    name = "program-pipeline"

    def _steps(self, verify_seed, equiv_seed):
        """(label, argv, (written file, its m k n rank) or None, line prefix the
        output must contain or None)."""
        p = lambda f: os.path.join(self.workdir, f)  # noqa: E731
        return [
            ("gen-pan16", ["gen", "pan", "--n", "16", "--out", p("pan16.alg")],
             (p("pan16.alg"), (16, 16, 16, _pan_rank(16))), None),
            ("verify-random-pan16",
             ["verify", p("pan16.alg"), "--mode", "random", "--trials", "20",
              "--seed", str(verify_seed)], None, "VALID"),
            ("gen-pan12", ["gen", "pan", "--n", "12", "--out", p("pan12.alg")],
             (p("pan12.alg"), (12, 12, 12, _pan_rank(12))), None),
            ("verify-brent-pan12", ["verify", p("pan12.alg")], None, "VALID"),
            ("dual-pan12-nkm",
             ["dual", p("pan12.alg"), "--perm", "nkm", "--out", p("pan12-nkm.alg")],
             (p("pan12-nkm.alg"), (12, 12, 12, _pan_rank(12))), None),
            ("gen-strassen", ["gen", "strassen", "--out", p("s.alg")],
             (p("s.alg"), (2, 2, 2, 7)), None),
            ("product-s-s", ["product", p("s.alg"), p("s.alg"), "--out", p("s4.alg")],
             (p("s4.alg"), (4, 4, 4, 49)), None),
            ("product-s4-s", ["product", p("s4.alg"), p("s.alg"), "--out", p("s8.alg")],
             (p("s8.alg"), (8, 8, 8, 343)), None),
            ("gen-classical-234",
             ["gen", "classical", "--m", "2", "--k", "3", "--n", "4", "--out", p("c234.alg")],
             (p("c234.alg"), (2, 3, 4, 24)), None),
            ("square-c234", ["square", p("c234.alg"), "--out", p("c234-sq.alg")],
             (p("c234-sq.alg"), (24, 24, 24, 24**3)), None),
            ("gen-pan4", ["gen", "pan", "--n", "4", "--out", p("pan4.alg")],
             (p("pan4.alg"), (4, 4, 4, _pan_rank(4))), None),
            # Most of this step re-verifies the dense output, which is valid
            # by construction: a known cost, kept in on purpose.
            ("equiv-pan4",
             ["equiv", p("pan4.alg"), "--seed", str(equiv_seed), "--out", p("pan4-eq.alg")],
             (p("pan4-eq.alg"), (4, 4, 4, _pan_rank(4))), None),
            ("info-pan16", ["info", p("pan16.alg")], None,
             f"rank: {_pan_rank(16)}"),
        ]

    def inputs(self, seed, index):
        rng = self.rng(seed, index)
        return {"steps": self._steps(rng.randrange(2**31), rng.randrange(2**31))}

    def _run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.mm.cli.main(argv)
        return code, out.getvalue()

    def ops(self, inp):
        # No output may survive from an earlier pass to pass this one's checks.
        for _, _, expect_file, _ in inp["steps"]:
            if expect_file is not None and os.path.exists(expect_file[0]):
                os.remove(expect_file[0])
        return [(label, lambda argv=argv: self._run(argv)) for label, argv, _, _ in inp["steps"]]

    def check(self, inp, label, result):
        code, text = result
        _, _, expect_file, verdict = next(s for s in inp["steps"] if s[0] == label)
        if code != 0:
            return False
        if verdict is not None and not any(
                line.startswith(verdict) for line in text.splitlines()):
            return False
        if expect_file is not None:
            path, (m, k, n, rank) = expect_file
            if oracles.program_file_shape(path) != (m, k, n, rank, rank):
                return False
            self.stats["bytes_written"] += os.path.getsize(path)
        return True

    def warm_up(self, seed):
        p = lambda f: os.path.join(self.workdir, f)  # noqa: E731
        for argv in (["gen", "strassen", "--out", p("warm.alg")],
                     ["verify", p("warm.alg")],
                     ["verify", p("warm.alg"), "--mode", "random", "--trials", "1"],
                     ["product", p("warm.alg"), p("warm.alg"), "--out", p("warm4.alg")],
                     ["equiv", p("warm.alg"), "--seed", "1", "--out", p("warm-eq.alg")],
                     ["info", p("warm.alg")]):
            code, _ = self._run(argv)
            if code != 0:
                raise RuntimeError(f"warm-up step {argv[0]} exited {code}")


WORKLOADS = {w.name: w for w in (RecurseGFp, ProgramPipeline, InvertQQ)}
