"""Every name a polyapprox module imports is read in that module, and only
numcore knows the scalar backends.

No linter ships with the package, so this ast scan stands in for an
unused-import check: an import left behind by a deletion fails here.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyapprox"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree):
    """{bound name: line} for every import statement of the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"numcore", "composed", "extension",
                                         "blocks", "symmetric", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    read = _read(tree)
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in _imported(tree).items()
                    if name not in read)
    assert not unused, "%s imports names it never reads: %s" % (
        path.name, ", ".join(unused))


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numcore"],
                         ids=lambda p: p.stem)
def test_only_numcore_names_a_backend(path):
    # A polynomial is exact (prec None) or a float at prec bits; the backend
    # name is derived from prec inside numcore, so no caller picks or reads it.
    tree = ast.parse(path.read_text(), str(path))
    named = sorted(
        "%s (line %d)" % (alias.name, node.lineno)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in ("RATIONAL", "FLOAT"))
    named += sorted("backend (line %d)" % node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "backend")
    assert not named, "%s names a backend: %s" % (path.name, ", ".join(named))


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom fractions import Fraction as F\n"
                     "x = F(1)\n")
    assert set(_imported(tree)) - _read(tree) == {"math"}
