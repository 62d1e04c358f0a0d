"""End-to-end command-line tests, run in process through main(argv)."""

import io
import os
import random
import time
from fractions import Fraction

import pytest

from mmalg import (
    Matrix,
    QQ,
    classical,
    dump_algorithm,
    dump_matrix,
    format_algorithm,
    load_algorithm,
    load_matrix,
    mat_classical_multiply,
    mat_inverse,
    pan_aggregation,
    random_matrix,
    strassen_222,
)
from mmalg.bilinear_core import BilinearAlgorithm
from mmalg import cli
from mmalg.cli import main

from helpers import corrupt_one, unit_lu_matrix


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def strassen_file(tmp_path):
    path = tmp_path / "strassen.alg"
    dump_algorithm(strassen_222(), str(path))
    return str(path)


def test_gen_to_file_and_verify(tmp_path, capsys):
    path = str(tmp_path / "c222.alg")
    rc, out, _ = run(capsys, "gen", "classical", "--m", "2", "--k", "2", "--n", "2",
                     "--out", path)
    assert rc == 0
    assert f"wrote {path}" in out
    assert "dims: 2x2x2" in out and "rank: 8" in out and "exponent: 3.0000" in out
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 0
    assert out.startswith("VALID (2x2x2 rank 8")


def test_gen_streams_to_stdout(capsys, monkeypatch):
    rc, out, err = run(capsys, "gen", "strassen")
    assert rc == 0
    assert out.startswith("mmalg-v1 2 2 2 7")
    assert "dims: 2x2x2" in err and "rank: 7" in err and "exponent: 2.8074" in err
    # the streamed text feeds straight back into verify -
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0
    assert "VALID" in out


def test_gen_argument_errors(capsys):
    rc, _, err = run(capsys, "gen", "classical", "--m", "2", "--k", "2")
    assert rc == 2
    assert "missing required option --n" in err
    rc, _, err = run(capsys, "gen", "pan", "--n", "3")
    assert rc == 2
    assert "error:" in err
    rc, _, _ = run(capsys, "gen", "nosuch")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2


def test_gen_refuses_programs_past_the_size_limit(capsys):
    for argv in (("classical", "--m", "200", "--k", "200", "--n", "200"), ("pan", "--n", "100")):
        start = time.perf_counter()
        rc, out, err = run(capsys, "gen", *argv)
        assert rc == 2, argv
        assert out == "" and err.startswith("error:") and "over the limit" in err, argv
        assert time.perf_counter() - start < 1, argv


def test_verify_modes(strassen_file, capsys):
    rc, out, _ = run(capsys, "verify", strassen_file, "--mode", "brent")
    assert rc == 0
    assert "coefficient equations hold exactly" in out
    rc, out, _ = run(capsys, "verify", strassen_file, "--mode", "random",
                     "--trials", "5", "--seed", "3")
    assert rc == 0
    assert "5 random trials" in out
    rc, _, err = run(capsys, "verify", strassen_file, "--mode", "random", "--prime", "6")
    assert rc == 2
    assert "error:" in err
    # Trials run in batches, so a large count costs memory for one batch.
    rc, out, _ = run(capsys, "verify", strassen_file, "--mode", "random", "--trials", "5000")
    assert rc == 0
    assert out == "VALID (2x2x2 rank 7, 5000 random trials mod 2305843009213693951 agree)\n"
    rc, _, err = run(capsys, "verify", strassen_file, "--mode", "random", "--trials", "0")
    assert rc == 2
    assert "error:" in err


def test_verify_rejects_invalid(tmp_path, capsys):
    bad = corrupt_one(strassen_222(), random.Random(7))
    path = str(tmp_path / "bad.alg")
    dump_algorithm(bad, path)
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 1
    first = out.splitlines()[0]
    assert first.startswith("INVALID: ") and "violated equations" in first
    assert any(line.startswith("  output ") for line in out.splitlines()[1:])
    rc, out, _ = run(capsys, "verify", path, "--mode", "random", "--seed", "1")
    assert rc == 1
    assert "INVALID" in out
    # No output term at all: every one of the 27 equations whose right side
    # is 1 fails; the first 10 are listed.
    c = classical(3, 3, 3)
    dump_algorithm(BilinearAlgorithm(c.dims, c.rank, c.u, c.v, [{}] * c.rank), path)
    rc, out, _ = run(capsys, "verify", path)
    lines = out.splitlines()
    assert rc == 1 and lines[0] == "INVALID: 27 violated equations"
    assert len(lines) == 12 and all(line.startswith("  output ") for line in lines[1:11])
    assert lines[11] == "  ... and 17 more"


def test_verify_malformed_and_missing(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text("mmalg-v1 2 2 2\n")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 2
    assert "error: line 1:" in err
    rc, _, err = run(capsys, "verify", str(tmp_path / "absent.alg"))
    assert rc == 2
    assert "error:" in err


def test_info_fields_and_upper_bound_note(tmp_path, capsys):
    path = str(tmp_path / "c233.alg")
    dump_algorithm(classical(2, 3, 3), path)
    rc, out, _ = run(capsys, "info", path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == f"file: {path}"
    assert "dims: 2x3x3" in lines
    assert "rank: 18" in lines
    assert "exponent: 3.0000" in lines
    assert "nonzeros: u=18 v=18 w=18" in lines
    assert "bounds: lower 15, upper 16" in lines
    assert any("exceeds the known upper bound 16" in line for line in lines)


def test_info_warns_below_generic_bound(tmp_path, capsys):
    one = {(0, 0): Fraction(1)}
    runt = BilinearAlgorithm(
        (2, 2, 2), 3, u=[dict(one)] * 3, v=[dict(one)] * 3, w=[dict(one)] * 3
    )
    path = str(tmp_path / "runt.alg")
    dump_algorithm(runt, path)
    rc, out, _ = run(capsys, "info", path)
    assert rc == 0
    assert "below the generic lower bound 6" in out
    assert "no such correct program exists" in out


def test_bounds_table_and_lookup(capsys):
    rc, out, _ = run(capsys, "bounds")
    assert rc == 0
    assert "known rank bounds:" in out
    assert "2x2x2: lower 7, upper 7" in out
    assert "rules:" in out
    rc, out, _ = run(capsys, "bounds", "--m", "2", "--k", "3", "--n", "3")
    assert rc == 0
    assert out.splitlines()[0] == "2x3x3: lower 15, upper 16 (source: table)"
    rc, _, err = run(capsys, "bounds", "--m", "2")
    assert rc == 2
    assert "missing required option --k" in err


def test_dual_command(tmp_path, capsys):
    src = str(tmp_path / "c234.alg")
    dump_algorithm(classical(2, 3, 4), src)
    out_path = str(tmp_path / "dual.alg")
    rc, out, _ = run(capsys, "dual", src, "--perm", "knm", "--out", out_path)
    assert rc == 0
    assert f"wrote {out_path}" in out and "dims: 3x4x2" in out and "rank: 24" in out
    assert load_algorithm(out_path).dims.m == 3
    rc, _, _ = run(capsys, "dual", src, "--perm", "xyz", "--out", out_path)
    assert rc == 2


def test_product_and_square(strassen_file, tmp_path, capsys):
    prod_path = str(tmp_path / "s_x_s.alg")
    rc, out, _ = run(capsys, "product", strassen_file, strassen_file, "--out", prod_path)
    assert rc == 0
    assert "dims: 4x4x4" in out and "rank: 49" in out
    rc, out, _ = run(capsys, "product", prod_path, strassen_file,
                     "--out", str(tmp_path / "s8.alg"))
    assert rc == 0
    assert "dims: 8x8x8" in out and "rank: 343" in out

    rect = str(tmp_path / "c234.alg")
    dump_algorithm(classical(2, 3, 4), rect)
    sq_path = str(tmp_path / "square.alg")
    rc, out, _ = run(capsys, "square", rect, "--out", sq_path)
    assert rc == 0
    assert "dims: 24x24x24" in out and "rank: 13824" in out and "exponent: 3.0000" in out

    rc, out, err = run(capsys, "square", strassen_file, "--out", sq_path)
    assert rc == 0
    assert "already square" in err
    assert load_algorithm(sq_path).rank == 7

    bad = str(tmp_path / "bad.alg")
    dump_algorithm(corrupt_one(strassen_222(), random.Random(7)), bad)
    bad_out = str(tmp_path / "bad-square.alg")
    rc, out, err = run(capsys, "square", bad, "--out", bad_out)
    assert rc == 1 and out == "" and not os.path.exists(bad_out)
    assert err.endswith("error: program fails verification\n")


def test_square_and_product_refuse_oversized_results(tmp_path, capsys):
    c234 = str(tmp_path / "c234.alg")
    dump_algorithm(classical(2, 3, 4), c234)
    dense = str(tmp_path / "c234-eq.alg")
    assert run(capsys, "equiv", c234, "--seed", "5", "--out", dense)[0] == 0
    # nnz 108 * 240 * 135 = 3,499,200 per tensor: a 116 MB file if built.
    out = str(tmp_path / "sq.alg")
    start = time.perf_counter()
    rc, _, err = run(capsys, "square", dense, "--out", out)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and not os.path.exists(out)
    assert err.startswith("error:") and "3499200" in err and "2000000" in err
    pan12 = str(tmp_path / "pan12.alg")
    dump_algorithm(pan_aggregation(12), pan12)
    rc, _, err = run(capsys, "product", pan12, pan12, "--out", out)
    assert rc == 2 and not os.path.exists(out)
    assert err.startswith("error:") and "2000000" in err


def test_equiv_generate_save_replay(strassen_file, tmp_path, capsys):
    out1 = str(tmp_path / "e1.alg")
    out2 = str(tmp_path / "e2.alg")
    tfile = str(tmp_path / "t.mmtrans")
    rc, out, _ = run(capsys, "equiv", strassen_file, "--seed", "5",
                     "--transform-out", tfile, "--out", out1)
    assert rc == 0
    assert f"wrote transform {tfile}" in out and "rank: 7" in out
    rc, _, _ = run(capsys, "equiv", strassen_file, "--transform", tfile, "--out", out2)
    assert rc == 0
    with open(out1) as f1, open(out2) as f2:
        assert f1.read() == f2.read()
    # same seed is reproducible end to end
    out3 = str(tmp_path / "e3.alg")
    rc, _, _ = run(capsys, "equiv", strassen_file, "--seed", "5", "--out", out3)
    assert rc == 0
    with open(out1) as f1, open(out3) as f3:
        assert f1.read() == f3.read()


def test_equiv_flag_validation(strassen_file, tmp_path, capsys):
    rc, _, err = run(capsys, "equiv", strassen_file, "--out", str(tmp_path / "o.alg"))
    assert rc == 2
    assert "need --seed N or --transform FILE" in err
    rc, _, err = run(capsys, "equiv", strassen_file, "--seed", "1", "--transform", "x",
                     "--out", str(tmp_path / "o.alg"))
    assert rc == 2
    assert "not both" in err


def test_multiply_rectangular(strassen_file, tmp_path, capsys):
    a = Matrix.from_rows(QQ, [[1, 2, 3], [4, Fraction(5, 2), 6]])
    b = Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]])
    a_path, b_path = str(tmp_path / "a.mat"), str(tmp_path / "b.mat")
    out_path = str(tmp_path / "ab.mat")
    dump_matrix(a, a_path)
    dump_matrix(b, b_path)
    rc, out, _ = run(capsys, "multiply", strassen_file, a_path, b_path, "--out", out_path)
    assert rc == 0
    assert f"wrote {out_path} (2x2)" in out
    # 2x3 by 3x2 has least side 2: one Strassen level on 1x2x1 leaves.
    assert "bilinear mults: 14" in out
    assert load_matrix(out_path) == mat_classical_multiply(a, b)
    assert load_matrix(out_path)[1, 1] == Fraction(17, 2)

    bad_b = str(tmp_path / "bad_b.mat")
    dump_matrix(Matrix.from_rows(QQ, [[1, 2], [3, 4]]), bad_b)
    rc, _, err = run(capsys, "multiply", strassen_file, a_path, bad_b, "--out", out_path)
    assert rc == 2
    assert "cannot multiply 2x3 by 2x2" in err


def test_multiply_runs_rectangular_base_as_it_is(tmp_path, capsys):
    rect = str(tmp_path / "c234.alg")
    dump_algorithm(classical(2, 3, 4), rect)
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    a_path = str(tmp_path / "a.mat")
    out_path = str(tmp_path / "aa.mat")
    dump_matrix(a, a_path)
    rc, out, err = run(capsys, "multiply", rect, a_path, a_path, "--out", out_path)
    assert rc == 0 and err == ""
    # One 2x3x4 level on 1x1x1 leaves, not the 24x24x24 tensor cube's 13,824.
    assert "bilinear mults: 24" in out and "additions: 16" in out
    assert load_matrix(out_path) == mat_classical_multiply(a, a)


def test_multiply_rejects_invalid_base(tmp_path, capsys):
    bad = corrupt_one(strassen_222(), random.Random(11))
    bad_path = str(tmp_path / "bad.alg")
    dump_algorithm(bad, bad_path)
    a_path = str(tmp_path / "a.mat")
    dump_matrix(Matrix.identity(QQ, 2), a_path)
    rc, _, err = run(capsys, "multiply", bad_path, a_path, a_path,
                     "--out", str(tmp_path / "o.mat"))
    assert rc == 1
    assert "fails verification" in err


def test_invert_round_trip(strassen_file, tmp_path, capsys):
    a = unit_lu_matrix(5, random.Random(21))
    a_path = str(tmp_path / "a.mat")
    out_path = str(tmp_path / "ainv.mat")
    dump_matrix(a, a_path)
    rc, out, _ = run(capsys, "invert", strassen_file, a_path, "--out", out_path)
    assert rc == 0
    assert f"wrote {out_path} (5x5)" in out
    inverse = load_matrix(out_path)
    assert mat_classical_multiply(a, inverse) == Matrix.identity(QQ, 5)


def test_fraction_coefficient_base_program(strassen_file, tmp_path, capsys):
    # An equiv output has Fraction coefficients; invert and multiply run it
    # as a base program like any other.
    base = str(tmp_path / "v.alg")
    assert run(capsys, "equiv", strassen_file, "--seed", "7", "--out", base)[0] == 0
    rng = random.Random(23)
    a, b = random_matrix(QQ, 8, 8, rng), random_matrix(QQ, 8, 5, rng)
    paths = {name: str(tmp_path / f"{name}.mat") for name in ("a", "b", "x", "c")}
    dump_matrix(a, paths["a"])
    dump_matrix(b, paths["b"])
    rc, out, _ = run(capsys, "invert", base, paths["a"], "--out", paths["x"])
    assert rc == 0 and f"wrote {paths['x']} (8x8)" in out
    assert load_matrix(paths["x"]) == mat_inverse(a)
    rc, out, _ = run(capsys, "multiply", base, paths["a"], paths["b"], "--out", paths["c"])
    assert rc == 0 and f"wrote {paths['c']} (8x5)" in out
    assert load_matrix(paths["c"]) == mat_classical_multiply(a, b)


def test_invert_failure_exit_codes(strassen_file, tmp_path, capsys):
    sing = str(tmp_path / "sing.mat")
    dump_matrix(Matrix.from_rows(QQ, [[1, 2], [2, 4]]), sing)
    rc, _, err = run(capsys, "invert", strassen_file, sing, "--out", str(tmp_path / "o"))
    assert rc == 1
    assert "singular" in err
    swap = str(tmp_path / "swap.mat")
    dump_matrix(Matrix.from_rows(QQ, [[0, 1], [1, 0]]), swap)
    rc, _, _ = run(capsys, "invert", strassen_file, swap, "--out", str(tmp_path / "o"))
    assert rc == 0
    assert load_matrix(str(tmp_path / "o")) == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    rect = str(tmp_path / "rect.mat")
    dump_matrix(Matrix.zeros(QQ, 2, 3), rect)
    rc, _, _ = run(capsys, "invert", strassen_file, rect, "--out", str(tmp_path / "o"))
    assert rc == 2


def test_bench_table_and_csv(strassen_file, tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    rc, out, _ = run(capsys, "bench", strassen_file, "--sizes", "1..5",
                     "--out", csv_path)
    assert rc == 0
    lines = out.splitlines()
    assert "measured_mults" in lines[0] and lines[0].endswith("fast")
    by_k = {line.split()[0]: line for line in lines[1:6]}
    assert by_k["2"].endswith("*")
    assert by_k["4"].endswith("*")
    assert not by_k["3"].endswith("*")
    with open(csv_path) as fh:
        assert fh.read() == (
            "K,measured_mults,measured_adds,predicted_mults\n"
            "1,1,0,1\n"
            "2,7,18,7\n"
            "3,49,198,49\n"
            "4,49,198,49\n"
            "5,343,1674,343\n"
        )
    # reruns with the same seed are bit-identical
    csv2 = str(tmp_path / "bench2.csv")
    rc, _, _ = run(capsys, "bench", strassen_file, "--sizes", "1..5", "--out", csv2)
    assert rc == 0
    with open(csv_path) as f1, open(csv2) as f2:
        assert f1.read() == f2.read()


def _bench_counts(out):
    """(K, measured_mults, predicted_mults) of each row of a bench table."""
    return [(int(f[0]), int(f[1]), int(f[3])) for f in map(str.split, out.splitlines()[1:])
            if f and f[0].isdigit()]


def test_bench_predicts_the_measured_count_at_any_threshold(strassen_file, capsys):
    rc, out, _ = run(capsys, "bench", strassen_file, "--sizes", "4,8,6", "--threshold", "2")
    assert rc == 0
    assert _bench_counts(out) == [(4, 56, 56), (8, 392, 392), (6, 392, 392)]


def test_bench_rectangular_base(tmp_path, capsys):
    rect = str(tmp_path / "c234.alg")
    dump_algorithm(classical(2, 3, 4), rect)
    rc, out, _ = run(capsys, "bench", rect, "--sizes", "2,5")
    assert rc == 0
    assert _bench_counts(out) == [(2, 24, 24), (5, 1152, 1152)]
    # auto takes powers of the largest side, so a side of 1 cannot stall it.
    thin = str(tmp_path / "c122.alg")
    dump_algorithm(classical(1, 2, 2), thin)
    rc, out, _ = run(capsys, "bench", thin, "--sizes", "auto")
    assert rc == 0
    assert [row[0] for row in _bench_counts(out)] == [2, 4, 8, 16, 32, 64]


def test_verify_coefficient_without_image_mod_p_is_a_usage_error(tmp_path, capsys):
    third = BilinearAlgorithm(
        (1, 1, 1), 1, [{(0, 0): 3}], [{(0, 0): 1}], [{(0, 0): Fraction(1, 3)}]
    )
    path = str(tmp_path / "third.alg")
    dump_algorithm(third, path)
    rc, out, err = run(capsys, "verify", path, "--mode", "random", "--prime", "3")
    assert rc == 2 and out == "" and err == "error: coefficient 1/3 has no image mod 3\n"
    rc, out, _ = run(capsys, "verify", path, "--mode", "random", "--prime", "5")
    assert rc == 0 and out.startswith("VALID")


def test_bench_coefficient_without_image_mod_p_is_a_usage_error(tmp_path, capsys):
    p61 = 2**61 - 1
    s = strassen_222()
    u = [dict(d) for d in s.u]
    w = [dict(d) for d in s.w]
    u[0] = {key: c * p61 for key, c in u[0].items()}
    w[0] = {key: Fraction(c, p61) for key, c in w[0].items()}
    scaled = str(tmp_path / "scaled.alg")
    dump_algorithm(BilinearAlgorithm(s.dims, s.rank, u, s.v, w), scaled)
    rc, _, _ = run(capsys, "verify", scaled)
    assert rc == 0
    rc, _, err = run(capsys, "bench", scaled, "--sizes", "2")
    assert rc == 2 and err.startswith("error:") and f"no image mod {p61}" in err


def test_bench_size_specs(strassen_file, capsys):
    rc, out, _ = run(capsys, "bench", strassen_file, "--sizes", "auto")
    assert rc == 0
    ks = [line.split()[0] for line in out.splitlines()[1:]
          if line and line[0] == " " and line.split()[0].isdigit()]
    assert ks[:6] == ["2", "4", "8", "16", "32", "64"]
    rc, out, _ = run(capsys, "bench", strassen_file, "--sizes", "3,6")
    assert rc == 0
    for spec in ("0,2", "5..2", "abc", ""):
        rc, _, err = run(capsys, "bench", strassen_file, "--sizes", spec)
        assert rc == 2, spec
        assert "bad --sizes" in err


def test_dual_refuses_corrupt_input(tmp_path, capsys):
    bad = corrupt_one(classical(2, 3, 4), random.Random(31))
    path = str(tmp_path / "bad.alg")
    dump_algorithm(bad, path)
    out_path = tmp_path / "o.alg"
    trans_path = tmp_path / "t.mmtrans"
    for argv in (
        ("dual", path, "--perm", "knm"),
        ("product", path, path),
        ("square", path),
        ("equiv", path, "--seed", "1", "--transform-out", str(trans_path)),
    ):
        rc, _, err = run(capsys, *argv, "--out", str(out_path))
        assert rc == 1, argv
        assert "error:" in err
        assert not out_path.exists() and not trans_path.exists(), argv


def test_written_algorithms_reload_identically(strassen_file, tmp_path, capsys):
    out_path = str(tmp_path / "same.alg")
    rc, _, _ = run(capsys, "dual", strassen_file, "--perm", "mkn", "--out", out_path)
    assert rc == 0
    assert load_algorithm(out_path) == strassen_222()
    with open(out_path) as fh:
        assert fh.read() == format_algorithm(strassen_222())


def test_non_utf8_input_is_a_usage_error(strassen_file, tmp_path, capsys, monkeypatch):
    bad_alg = tmp_path / "bad.alg"
    bad_alg.write_bytes(b"mmalg-v1 2 2 2 7\n\xff\n")
    bad_mat = tmp_path / "bad.mat"
    bad_mat.write_bytes(b"1 1\n\xc3\x28\n")
    bad_trans = tmp_path / "bad.mmtrans"
    bad_trans.write_bytes(b"mmtrans-v1 2 2 2 7\nsigma\xfe\n")
    out = str(tmp_path / "out")
    for argv in (
        ("verify", str(bad_alg)),
        ("multiply", strassen_file, str(bad_mat), str(bad_mat), "--out", out),
        ("equiv", strassen_file, "--transform", str(bad_trans), "--out", out),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error: line 2: byte 0x") and "not valid UTF-8" in err, argv
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\n\n\xff")))
    rc, _, err = run(capsys, "verify", "-")
    assert rc == 2
    assert err.startswith("error: line 3: byte 0xff is not valid UTF-8")


def test_multiply_result_past_the_digit_limit_is_a_usage_error(strassen_file, tmp_path, capsys):
    a_path = str(tmp_path / "a.mat")
    dump_matrix(Matrix.from_rows(QQ, [[10**4000]]), a_path)
    out_path = tmp_path / "aa.mat"
    rc, _, err = run(capsys, "multiply", strassen_file, a_path, a_path, "--out", str(out_path))
    assert rc == 2
    assert err.startswith("error: entry (0,0) has more than")
    assert not out_path.exists()


def test_refused_huge_token_is_echoed_short(strassen_file, tmp_path, capsys):
    # A 100,000-digit token is refused by line number; the message quotes
    # only its start, so the error stays one short line.
    huge = "7" * 100_000
    bad_mat = tmp_path / "huge.mat"
    bad_mat.write_text(f"2 2\n1 2\n3 {huge}\n")
    bad_alg = tmp_path / "huge.alg"
    bad_alg.write_text(f"mmalg-v1 1 1 1 1\nU\n0 0 1\nV\n0 0 {huge}\nW\n0 0 1\n")
    bad_trans = tmp_path / "huge.mmtrans"
    bad_trans.write_text(f"mmtrans-v1 2 2 2 7\n\n{huge}\n")
    out = str(tmp_path / "out")
    for argv, line in (
        (("multiply", strassen_file, str(bad_mat), str(bad_mat), "--out", out), 3),
        (("verify", str(bad_alg)), 5),
        (("equiv", strassen_file, "--transform", str(bad_trans), "--out", out), 3),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith(f"error: line {line}: ") and "'7777" in err, argv
        assert err.count("\n") == 1 and len(err.encode()) < 200, argv


def test_verify_of_an_empty_program_with_large_sides_is_fast(tmp_path, capsys):
    # 64,000,000 equations lack a term; they are counted, not listed.
    path = tmp_path / "empty.alg"
    path.write_text("mmalg-v1 400 400 400 1\nU\nV\nW\n")
    start = time.perf_counter()
    rc, out, _ = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "INVALID: 64000000 violated equations"
    assert lines[1:3] == ["  output (0, 0) left (0, 0) right (0, 0): expected 1, got 0",
                          "  output (0, 0) left (0, 1) right (1, 0): expected 1, got 0"]
    assert lines[11:] == ["  ... and 63999990 more"]


def test_parser_is_built_once_and_reused(strassen_file, tmp_path, capsys, monkeypatch):
    # The parser main keeps gives every exit code, output and error message
    # that a parser built afresh for each call gives.
    calls = [
        ["gen", "classical", "--m", "1", "--k", "2", "--n", "1", "--out",
         str(tmp_path / "c121.alg")],
        ["verify", strassen_file, "--mode", "random", "--trials", "3"],
        ["info", strassen_file],
        ["verify", strassen_file, "--mode", "exact"],
        ["gen"],
        ["--help"],
        ["verify", "--help"],
        [],
    ]
    monkeypatch.setattr(cli, "_PARSER", None)
    kept = [run(capsys, *calls[0])]
    parser = cli._PARSER
    kept += [run(capsys, *argv) for argv in calls[1:]]
    assert parser is not None and cli._PARSER is parser
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv))
    assert kept == fresh
    assert [rc for rc, _, _ in kept] == [0, 0, 0, 2, 2, 0, 0, 2]
    assert "usage: mmalg verify" in kept[3][2] and "invalid choice: 'exact'" in kept[3][2]
    # A handler is looked up when it runs, so one rebound on the module runs,
    # even after the command has run once.
    monkeypatch.setattr(cli, "cmd_info", lambda args: 7)
    assert main(["info", strassen_file]) == 7
