"""Command-line interface.

Exit codes: 0 success, 1 verification failure (a failed check, or an
InvalidAlgorithm or SingularMatrix error), 2 usage errors and every other
MmalgError or OSError.  Every command is deterministic given its inputs
and seed flags.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

from . import bilinear_core
from .bilinear_core import (
    DEFAULT_PRIME,
    BilinearAlgorithm,
    DimensionTriple,
    exponent,
    generic_lower_bound,
    known_bounds,
    verify_brent,
    verify_trilinear_random,
)
from .errors import (
    BadArgument,
    ExponentUndefined,
    InvalidAlgorithm,
    MmalgError,
    SingularMatrix,
)
from .exact_algebra import PrimeField, random_matrix
from .formats import (
    _decode,
    _write_text,
    dump_algorithm,
    dump_matrix,
    dump_transform,
    format_algorithm,
    load_algorithm,
    load_matrix,
    load_transform,
    parse_algorithm,
)
from .generators import classical, pan_aggregation, strassen_222
from .recursion import (RecursionConfig, _leaf_count, _plan, recursive_invert,
                        recursive_multiply)
from .transforms import (
    DualityPermutation,
    _check_equivalence_size,
    _equivalence,
    dual,
    random_equivalence,
    squareify,
    tensor_product,
)


def _exponent_str(alg: BilinearAlgorithm) -> str:
    try:
        return f"{exponent(alg):.4f}"
    except ExponentUndefined:
        return "undefined"


def _print_summary(alg: BilinearAlgorithm, file=None) -> None:
    print(f"dims: {alg.dims}", file=file)
    print(f"rank: {alg.rank}", file=file)
    print(f"exponent: {_exponent_str(alg)}", file=file)


def _read_algorithm(path: str) -> BilinearAlgorithm:
    if path != "-":
        return load_algorithm(path)
    # Decode the bytes under stdin, when there are any, as a file is decoded.
    raw = getattr(sys.stdin, "buffer", None)
    return parse_algorithm(sys.stdin.read() if raw is None else _decode(raw.read()))


def _below_bound(alg: BilinearAlgorithm):
    """Why no correct program has alg's dims and rank, or None."""
    bound = generic_lower_bound(alg.dims)
    if alg.rank < bound:
        return (f"rank {alg.rank} is below the generic lower bound {bound}; "
                "no such correct program exists")
    return None


def _require(value, flag: str):
    if value is None:
        raise BadArgument(f"missing required option {flag}")
    return value


def cmd_gen(args) -> int:
    if args.kind == "classical":
        alg = classical(
            _require(args.m, "--m"), _require(args.k, "--k"), _require(args.n, "--n")
        )
    elif args.kind == "strassen":
        alg = strassen_222()
    else:
        alg = pan_aggregation(_require(args.n, "--n"))
    if args.out:
        return _write_program(alg, args.out)
    sys.stdout.write(format_algorithm(alg))
    _print_summary(alg, sys.stderr)
    return 0


def cmd_verify(args) -> int:
    alg = _read_algorithm(args.path)
    if args.mode == "brent":
        report = verify_brent(alg)
        if report.valid:
            print(f"VALID ({alg.dims} rank {alg.rank}, coefficient equations hold exactly)")
            return 0
        print(f"INVALID: {report.count} violated equations")
        for (lq, ij, gh, expected, actual) in report.first(10):
            print(f"  output {lq} left {ij} right {gh}: expected {expected}, got {actual}")
        if report.count > 10:
            print(f"  ... and {report.count - 10} more")
        return 1
    ok = verify_trilinear_random(alg, trials=args.trials, prime=args.prime, seed=args.seed)
    if ok:
        print(
            f"VALID ({alg.dims} rank {alg.rank}, {args.trials} random trials "
            f"mod {args.prime} agree)"
        )
        return 0
    # A rank too low to be correct fails without a trial drawn.
    print(f"INVALID: {_below_bound(alg) or 'trilinear trace identity failed on a random trial'}")
    return 1


def cmd_info(args) -> int:
    alg = _read_algorithm(args.path)
    nu, nv, nw = alg.nonzero_counts()
    bound = known_bounds().lookup(alg.dims)
    print(f"file: {args.path}")
    _print_summary(alg)
    print(f"nonzeros: u={nu} v={nv} w={nw}")
    print(f"bounds: {_bounds_text(bound)}")
    if bound.upper is not None and alg.rank > bound.upper:
        print(
            f"note: rank {alg.rank} exceeds the known upper bound {bound.upper}; "
            "a cheaper program exists"
        )
    reason = _below_bound(alg)
    if reason:
        print(f"warning: {reason}")
    return 0


def _bounds_text(row) -> str:
    """'lower L, upper U' for a bounds row, a missing bound shown as '-'."""
    lower = "-" if row.lower is None else row.lower
    upper = "-" if row.upper is None else row.upper
    return f"lower {lower}, upper {upper}"


def cmd_bounds(args) -> int:
    table = known_bounds()
    if args.m or args.k or args.n:
        dims = DimensionTriple(
            _require(args.m, "--m"), _require(args.k, "--k"), _require(args.n, "--n")
        )
        row = table.lookup(dims)
        print(f"{dims}: {_bounds_text(row)} ({row.note})")
        return 0
    print("known rank bounds:")
    for row in table.entries:
        print(f"  {row.dims}: {_bounds_text(row)} ({row.note})")
    print("rules:")
    for rule in table.rules:
        print(f"  {rule}")
    return 0


def _write_program(alg: BilinearAlgorithm, out_path: str) -> int:
    # Every generator builds a valid program, and every transform verifies
    # its input and maps valid programs to valid ones, so the program is
    # written without a second check.
    dump_algorithm(alg, out_path)
    print(f"wrote {out_path}")
    _print_summary(alg)
    return 0


def cmd_dual(args) -> int:
    alg = _read_algorithm(args.path)
    return _write_program(dual(alg, args.perm), args.out)


def cmd_product(args) -> int:
    a = _read_algorithm(args.first)
    b = _read_algorithm(args.second)
    return _write_program(tensor_product(a, b), args.out)


def cmd_square(args) -> int:
    alg = _read_algorithm(args.path)
    if not alg.dims.is_square:
        return _write_program(squareify(alg), args.out)
    print(f"{alg.dims} is already square; writing it unchanged", file=sys.stderr)
    if not verify_brent(alg).valid:
        raise InvalidAlgorithm("program fails verification")
    return _write_program(alg, args.out)


def cmd_equiv(args) -> int:
    alg = _read_algorithm(args.path)
    if args.transform and args.seed is not None:
        raise BadArgument("give either --seed or --transform, not both")
    if not args.transform and args.seed is None:
        raise BadArgument("need --seed N or --transform FILE")
    _check_equivalence_size(alg)
    # Checked before a transform is drawn, which costs far more at large sides.
    if not verify_brent(alg).valid:
        raise InvalidAlgorithm("cannot transform an invalid program")
    if args.transform:
        transform = load_transform(args.transform)
    else:
        transform = random_equivalence(alg.dims, alg.rank, args.seed)
    result = _equivalence(alg, transform)
    if args.transform_out and not args.transform:
        dump_transform(transform, args.transform_out)
        print(f"wrote transform {args.transform_out}")
    return _write_program(result, args.out)


def _load_config(args) -> RecursionConfig:
    """The verified base program args.alg, run as it is, at args.threshold."""
    base = _read_algorithm(args.alg)
    if not verify_brent(base).valid:
        raise InvalidAlgorithm(f"base program {args.alg} fails verification")
    return RecursionConfig(base, args.threshold)


def _write_result(matrix, report, out_path: str) -> int:
    dump_matrix(matrix, out_path)
    print(f"wrote {out_path} ({matrix.rows}x{matrix.cols})")
    print(f"bilinear mults: {report.bilinear_mults}")
    print(f"scalar mults: {report.scalar_mults}")
    print(f"additions: {report.additions}")
    return 0


def cmd_multiply(args) -> int:
    cfg = _load_config(args)
    product, report = recursive_multiply(cfg, load_matrix(args.a), load_matrix(args.b))
    return _write_result(product, report, args.out)


def cmd_invert(args) -> int:
    cfg = _load_config(args)
    inverse, report = recursive_invert(cfg, load_matrix(args.a))
    return _write_result(inverse, report, args.out)


def _parse_sizes(spec: str, side: int) -> list:
    """The sizes K of spec; "auto" is the powers of side (at least 2) up to 64.

    A K x K operand past bilinear_core._MAX_NONZEROS entries is refused with
    BadArgument before any size is listed or any matrix built.
    """
    try:
        if spec == "auto":
            sizes = []
            power = side
            while power <= 64:
                sizes.append(power)
                power *= side
            sizes = sizes or [side]
            largest = sizes[-1]
        elif ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo < 1 or hi < lo:
                raise ValueError
            sizes, largest = range(lo, hi + 1), hi
        else:
            sizes = [int(tok) for tok in spec.split(",")]
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError
            largest = max(sizes)
    except ValueError:
        raise BadArgument(f"bad --sizes {spec!r}; use N, A..B, or A,B,C") from None
    limit = bilinear_core._MAX_NONZEROS
    if largest * largest > limit:
        raise BadArgument(f"--sizes {spec!r}: a {largest}x{largest} operand holds "
                          f"{largest * largest} entries, over the limit of {limit}")
    return list(sizes)


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    base = cfg.base_alg
    sizes = _parse_sizes(args.sizes, max(base.dims))
    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(args.seed)
    rows = []
    for k in sizes:
        # Refused (_leaf_count) before the operands are drawn.
        dims = (k, k, k)
        predicted = _leaf_count(base.rank, _plan(base.dims, dims, cfg.threshold), dims)
        a = random_matrix(field, k, k, rng)
        b = random_matrix(field, k, k, rng)
        _, report = recursive_multiply(cfg, a, b)
        rows.append((k, report.bilinear_mults, report.additions, predicted))
    widths = (6, 15, 15, 16)
    header = ("K", "measured_mults", "measured_adds", "predicted_mults")
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "  fast")
    for k, mm, ma, pm in rows:
        marker = "*" if mm < k**3 else ""
        print("  ".join(str(x).rjust(w) for x, w in zip((k, mm, ma, pm), widths))
              + (f"  {marker}" if marker else ""))
    print("(* = fewer multiplications than the K^3 triple loop)")
    if args.out:
        _write_text(args.out, "K,measured_mults,measured_adds,predicted_mults\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
        print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmalg",
        description="Workbench for exact bilinear matrix-multiplication programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a shipped program")
    p.add_argument("kind", choices=("classical", "strassen", "pan"))
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out", help="output path (default: program text to stdout)")

    p = sub.add_parser("verify", help="check a program file")
    p.add_argument("path", help="program file, or - for stdin")
    p.add_argument("--mode", choices=("brent", "random"), default="brent")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("info", help="print statistics and known bounds")
    p.add_argument("path")

    p = sub.add_parser("bounds", help="known rank bounds table or one lookup")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)

    p = sub.add_parser("dual", help="one of the six duals")
    p.add_argument("path")
    p.add_argument("--perm", required=True,
                   choices=[perm.value for perm in DualityPermutation])
    p.add_argument("--out", required=True)

    p = sub.add_parser("product", help="tensor product of two programs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)

    p = sub.add_parser("square", help="tensor cube of a rectangular program")
    p.add_argument("path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("equiv", help="apply an equivalence transform")
    p.add_argument("path")
    p.add_argument("--seed", type=int)
    p.add_argument("--transform", help="transform file to apply")
    p.add_argument("--transform-out", help="where to save a generated transform")
    p.add_argument("--out", required=True)

    p = sub.add_parser("multiply", help="multiply two matrix files recursively")
    p.add_argument("alg")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("invert", help="invert a matrix file by block elimination")
    p.add_argument("alg")
    p.add_argument("a")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="measured vs predicted cost over sizes")
    p.add_argument("alg")
    p.add_argument("--sizes", default="auto", help="N, A..B, or comma list")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write a CSV table")

    return parser


# The parser, built on the first call of main and kept for the process;
# parse_args leaves it unchanged.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command makes no reference cycles, so the cyclic collector would only
    # walk objects that reference counting frees: it is paused while one
    # runs, and left as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Looked up by name on each call, not bound into the kept parser, so
        # that a wrapper rebound over a cmd_ function (bench/tracing.py) runs.
        return globals()["cmd_" + args.command](args)
    except (InvalidAlgorithm, SingularMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MmalgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
