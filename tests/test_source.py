"""The source keeps to the Python 3.10 floor that pyproject.toml declares,
to one module for the layout of packed words and the rings' raw form (the
only one that reads a ring's modulus), to the recursion for the compiled
form of a program, to one module for the text formats
(the only one that opens files or imports re or json), and to one module
that touches the cyclic garbage collector."""

import ast
import importlib
import pathlib
import re

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

import mmalg

SOURCES = sorted(pathlib.Path(mmalg.__file__).parent.glob("*.py"))


def test_every_source_file_parses_as_python_3_10():
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _opcodes(parsed):
    """Every opcode name in a parsed regex, nested ones included."""
    for op, arg in parsed:
        yield str(op)
        for item in arg if isinstance(arg, (tuple, list)) else (arg,):
            if isinstance(item, sre_parse.SubPattern):
                yield from _opcodes(item)
            elif isinstance(item, (tuple, list)):
                for sub in item:
                    if isinstance(sub, sre_parse.SubPattern):
                        yield from _opcodes(sub)


def _patterns():
    """The text of every regex in src/: the compiled patterns each module
    holds, and every string literal handed straight to a function of re."""
    for path in SOURCES:
        module = importlib.import_module(f"mmalg.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, re.Pattern):
                yield path.name, value.pattern
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                yield path.name, node.args[0].value


def test_no_regex_uses_possessive_quantifiers_or_atomic_groups():
    # Python's re accepts both only from 3.11.
    patterns = list(_patterns())
    assert len(patterns) >= 4
    for name, pattern in patterns:
        ops = set(_opcodes(sre_parse.parse(pattern)))
        assert not ops & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, (name, pattern)


def test_only_exact_algebra_handles_byte_order_and_word_views():
    # The packed-word codec (exact_algebra._words and _slots) is the one
    # place that knows the host's byte order and how words are viewed.
    for path in SOURCES:
        if path.name != "exact_algebra.py":
            text = path.read_text(encoding="utf-8")
            assert "byteorder" not in text and "memoryview" not in text, path.name


def test_only_exact_algebra_reads_a_ring_modulus():
    # Each ring carries the recursion's per-ring steps (_leaf_products and
    # _check_denominator) next to its raw arithmetic, so no other module
    # branches on the modulus, and the recursion reaches a leaf kernel only
    # through the ring.
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "exact_algebra.py":
            reads = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_modulus"]
            assert not reads, (path.name, reads)
        if path.name == "recursion.py":
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names}
            assert not imported & {"_classical", "_packed_products"}, imported


def test_the_recursion_owns_its_compiled_program():
    # _Program and _compile live next to the evaluator that runs them, so
    # recursion takes no private name from bilinear_core.
    core = importlib.import_module("mmalg.bilinear_core")
    assert not {"_compile", "_Program"} & set(vars(core))
    tree = ast.parse((SOURCES[0].parent / "recursion.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module == "bilinear_core"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_only_formats_opens_files():
    # formats._read_text and _write_text are the one read path and the one
    # write path of the three text formats.
    for path in SOURCES:
        if path.name != "formats.py":
            assert not re.search(r"\bopen\(", path.read_text(encoding="utf-8")), path.name


def test_only_formats_imports_re_or_json():
    # Text is parsed in one module; the others compute on objects.
    for path in SOURCES:
        if path.name != "formats.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module.split(".")[0]]
                else:
                    continue
                assert not {"re", "json"} & set(names), (path.name, node.lineno)


def test_lower_modules_hold_no_reader_or_writer():
    # The formats left these modules whole: no reader or writer is defined or
    # re-exported there, so a text format has one import path.
    for name in ("exact_algebra", "bilinear_core", "transforms"):
        module = importlib.import_module(f"mmalg.{name}")
        held = [n for n in vars(module) if re.match(r"_?(parse|format|load|dump)_", n)]
        assert not held, (name, held)


def test_only_the_cli_touches_the_garbage_collector():
    # cli.main pauses the cyclic collector while a command runs and restores
    # it after; a library call keeps its caller's collector policy.
    for path in SOURCES:
        if path.name != "cli.py":
            assert not re.search(r"\bgc\b", path.read_text(encoding="utf-8")), path.name
