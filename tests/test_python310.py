"""The CLI behaves the same under Python 3.10, the floor that pyproject.toml
declares, and under 3.12 and 3.13, as under the interpreter running the
tests: the same exit codes, the same stdout and the same bytes in every file
it writes.

Each interpreter is pythonX.Y on PATH when it runs, else one under pyenv's
root; a version's test skips when neither is there.  The running
interpreter's results are made once and shared by every version's test.
"""

import glob
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# The one command that reports an invalid program and exits 1.
FAILING = ["verify", "s-bad.alg", "--mode", "random", "--trials", "5"]
# The one usage error, exit 2: pan(34) would pad 35x35 operands to 23,120^2
# leaf products.
REFUSED = ["bench", "pan34.alg", "--sizes", "35"]

# The benchmark's program pipeline, random verifies of a Fraction-coefficient
# program and of an invalid one, then products and an inverse of small matrix
# files, over a shipped program and over a Fraction-coefficient one, and a
# refused bench.
COMMANDS = [
    ["gen", "pan", "--n", "16", "--out", "pan16.alg"],
    ["verify", "pan16.alg", "--mode", "random", "--trials", "20", "--seed", "5"],
    ["gen", "pan", "--n", "12", "--out", "pan12.alg"],
    ["verify", "pan12.alg"],
    ["dual", "pan12.alg", "--perm", "nkm", "--out", "pan12-nkm.alg"],
    ["gen", "strassen", "--out", "s.alg"],
    ["product", "s.alg", "s.alg", "--out", "s4.alg"],
    ["product", "s4.alg", "s.alg", "--out", "s8.alg"],
    ["gen", "classical", "--m", "2", "--k", "3", "--n", "4", "--out", "c234.alg"],
    ["square", "c234.alg", "--out", "c234-sq.alg"],
    ["gen", "pan", "--n", "4", "--out", "pan4.alg"],
    ["equiv", "pan4.alg", "--seed", "7", "--out", "pan4-eq.alg"],
    ["verify", "pan4-eq.alg", "--mode", "random", "--trials", "3", "--prime", "101"],
    FAILING,
    ["info", "pan16.alg"],
    ["multiply", "s.alg", "a.mat", "b.mat", "--out", "ab.mat"],
    ["multiply", "pan4-eq.alg", "a.mat", "b.mat", "--threshold", "2", "--out", "ab-eq.mat"],
    ["invert", "s.alg", "a.mat", "--threshold", "2", "--out", "inv.mat"],
    ["gen", "pan", "--n", "34", "--out", "pan34.alg"],
    REFUSED,
]

# Strassen's program as `gen strassen` writes it, except that the second
# product's W coefficient of output (1, 1) is 1/2 where it is -1.
STRASSEN_BAD = "\n".join(
    f"U\n{u}V\n{v}W\n{w}" for u, v, w in (
        ("0 0 1\n1 1 1\n", "0 0 1\n1 1 1\n", "0 0 1\n1 1 1\n"),
        ("1 0 1\n1 1 1\n", "0 0 1\n", "1 0 1\n1 1 1/2\n"),
        ("0 0 1\n", "0 1 1\n1 1 -1\n", "0 1 1\n1 1 1\n"),
        ("1 1 1\n", "0 0 -1\n1 0 1\n", "0 0 1\n1 0 1\n"),
        ("0 0 1\n0 1 1\n", "1 1 1\n", "0 0 -1\n0 1 1\n"),
        ("0 0 -1\n1 0 1\n", "0 0 1\n0 1 1\n", "1 1 1\n"),
        ("0 1 1\n1 1 -1\n", "1 0 1\n1 1 1\n", "0 0 1\n"),
    ))

INPUTS = {
    "a.mat": "5 5\n2 1/2 0 -3 1\n1 4 2/3 0 5\n0 -1 3 1 1/4\n7 0 1 2 -2\n1 1 1 1 3/5\n",
    "b.mat": "5 3\n1 0 -1/2\n2 3 4\n-5 1/7 0\n0 0 9\n1 2 3\n",
    "s-bad.alg": "mmalg-v1 2 2 2 7\n" + STRASSEN_BAD,
}

# Runs each argv of the JSON list in its first argument through cli.main and
# prints [exit code, stdout] per command, as JSON.
RUNNER = """
import contextlib, io, json, sys
from mmalg.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _runs_version(exe: str, version: str) -> bool:
    check = f"import sys; sys.exit('%d.%d' % sys.version_info[:2] != {version!r})"
    try:
        return subprocess.run([exe, "-c", check], capture_output=True, timeout=60).returncode == 0
    except OSError:
        return False


def _python(version: str):
    """A working Python interpreter of version ("3.10", say), or None."""
    name = f"python{version}"
    candidates = [shutil.which(name)]
    root = os.environ.get("PYENV_ROOT")
    pyenv = shutil.which("pyenv")
    if not root and pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
    if root:
        candidates += sorted(glob.glob(os.path.join(root, "versions", f"{version}*", "bin", name)))
    return next((exe for exe in candidates if exe and _runs_version(exe, version)), None)


def _run(exe: str, workdir: pathlib.Path) -> tuple:
    """(results, files): each command's [exit code, stdout] under exe, run in
    workdir, and the bytes of every file in workdir afterwards."""
    workdir.mkdir()
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([exe, "-c", RUNNER, json.dumps(COMMANDS)], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return json.loads(done.stdout), files


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    """The running interpreter's (results, files), checked for exit codes."""
    new, new_files = _run(sys.executable, tmp_path_factory.mktemp("current") / "run")
    assert [code for code, _ in new] == [1 if argv == FAILING else 2 if argv == REFUSED else 0
                                         for argv in COMMANDS]
    assert len(new_files) == len(INPUTS) + sum("--out" in argv for argv in COMMANDS)
    return new, new_files


def _check_parity(version: str, current, workdir: pathlib.Path) -> None:
    exe = _python(version)
    if exe is None:
        pytest.skip(f"no working Python {version} interpreter")
    old, old_files = _run(exe, workdir)
    new, new_files = current
    for argv, got, want in zip(COMMANDS, old, new):
        assert got == want, argv
    assert sorted(old_files) == sorted(new_files)
    for name, data in new_files.items():
        assert old_files[name] == data, name


def test_cli_under_python_3_10_matches_the_running_interpreter(current, tmp_path):
    _check_parity("3.10", current, tmp_path / "py310")


@pytest.mark.parametrize("version", ["3.12", "3.13"])
def test_cli_under_later_pythons_matches_the_running_interpreter(version, current, tmp_path):
    _check_parity(version, current, tmp_path / "run")
