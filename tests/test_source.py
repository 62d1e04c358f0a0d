"""The source keeps to the Python 3.10 floor that pyproject.toml declares."""

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
