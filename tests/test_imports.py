"""Every name a polyapprox module or a test file imports is read in that
file, every parameter of its functions is read in the function's body,
every parameter default is passed by some call, every top-level
definition and class method is used somewhere, every record field is
read, only numcore knows the scalar backends and writes
a Fraction, only UniPoly's one constructor sets a polynomial's integer
form, no module touches a float's bits through libmp or imports
mpmath, the oracle imports only numcore, only the measured of a class
verify reads artifacts as builds an approximant with its claims, every
construction label is one verify reads, every cache is bounded, no
module has an assert statement, and importing the CLI loads no
dataclasses, inspect or csv.

No linter ships with the package, so these ast scans stand in for
unused-import, unused-argument and unused-definition checks: an import, a
parameter, a definition or a field left behind by a deletion fails here.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from polyapprox import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polyapprox"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
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


def _fraction_formats(tree):
    """The line of every "%d/%d" string literal of the module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "%d/%d"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numcore"],
                         ids=lambda p: p.stem)
def test_only_numcore_formats_a_fraction(path):
    # scalar_to_json is the one writer of an exact scalar, so every artifact
    # spells a Fraction the same way.
    lines = _fraction_formats(ast.parse(path.read_text(), str(path)))
    assert not lines, "%s formats a Fraction itself (lines %s)" % (
        path.name, lines)


def test_the_scan_sees_a_fraction_format():
    tree = ast.parse('x = "%d/%d" % (a, b)\ny = "%d" % a\n')
    assert _fraction_formats(tree) == [1]


def _scopes(stmt):
    """(where, node) for a top-level statement: each statement of a class
    as Class.method (Class. for one that is not a def), any other as the
    def's name or <module>."""
    if isinstance(stmt, ast.ClassDef):
        return [("%s.%s" % (stmt.name, getattr(fn, "name", "")), fn)
                for fn in stmt.body]
    return [(getattr(stmt, "name", "<module>"), stmt)]


# the one class whose instances carry a certificate: verify reads every
# artifact as one, over the domain cli.ARTIFACTS maps its target to
APPROX_CLASS = "SymApprox"


def _approx_builds(tree):
    """'where (line N)' for every call that builds an approximant:
    SymApprox(...) or a bare replace(...), a copy with new fields,
    anywhere, and cls(...) in a method of the class; where is the
    enclosing top-level def or Class.method, or <module>."""
    out = []
    for stmt in tree.body:
        scopes = _scopes(stmt)
        names = {"replace", APPROX_CLASS}
        if isinstance(stmt, ast.ClassDef) and stmt.name == APPROX_CLASS:
            names.add("cls")
        out += ["%s (line %d)" % (where, node.lineno)
                for where, scope in scopes for node in ast.walk(scope)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id in names]
    return out


def test_only_measured_builds_a_symmetric_approximant():
    # Every claim of a SymApprox (its certified error and, where its domain
    # claims them, its construction and exact_on) is measured on its
    # polynomial by measured; from_json reads claims back for verify to
    # measure again.  No construction states one.
    assert {d.__name__ for d in cli.ARTIFACTS.values()} == {"SymSpec",
                                                           "SurjSpec"}
    allowed = tuple("%s.%s (" % (APPROX_CLASS, m)
                    for m in ("measured", "from_json"))
    builds = [b for p in MODULES
              for b in _approx_builds(ast.parse(p.read_text(), str(p)))
              if not b.startswith(allowed)]
    assert not builds, "approximant built outside measured: %s" % (
        ", ".join(builds))


def test_the_scan_sees_a_symmetric_approximant_built():
    tree = ast.parse("class SymApprox:\n"
                     "    def measured(cls):\n        return cls(1)\n"
                     "    def other(cls):\n        return cls(2)\n"
                     "class B:\n    def f(cls):\n        return cls(3)\n"
                     "def g(a):\n    return replace(a, exact_on=set())\n"
                     "x = SymApprox(4)\n")
    assert _approx_builds(tree) == [
        "SymApprox.measured (line 3)", "SymApprox.other (line 5)",
        "g (line 10)", "<module> (line 11)"]


# the one function that sets a UniPoly's nums, den and prec
CONSTRUCTOR = "numcore.UniPoly._from_ints"


def _form_setters(tree):
    """'where: what (line N)' for every call of _lowest or of a __new__ and
    every assignment to an attribute nums, den or prec, as _scopes names
    where, in line order."""
    found = []
    for stmt in tree.body:
        for where, scope in _scopes(stmt):
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call)
                        and _callee(node) in ("_lowest", "__new__")):
                    what = _callee(node) + "()"
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and node.attr in ("nums", "den", "prec")):
                    what = "." + node.attr + " ="
                else:
                    continue
                found.append((node.lineno, "%s: %s" % (where, what)))
    return ["%s (line %d)" % (what, line) for line, what in sorted(found)]


def test_only_the_constructor_sets_a_polynomial_form():
    # A UniPoly's integer form is reduced (exact) or rounded (float) in one
    # place: no other function reduces with _lowest, makes a bare object
    # with __new__, or assigns nums, den or prec, in numcore or elsewhere.
    found = ["%s.%s" % (p.stem, s) for p in MODULES
             for s in _form_setters(ast.parse(p.read_text(), str(p)))]
    mine = [s for s in found if s.startswith(CONSTRUCTOR + ":")]
    assert mine, "the scan no longer sees %s" % CONSTRUCTOR
    rest = [s for s in found if s not in mine]
    assert not rest, "a polynomial form set outside %s: %s" % (
        CONSTRUCTOR, ", ".join(rest))


def test_the_scan_sees_a_polynomial_form_set():
    tree = ast.parse("class UniPoly:\n"
                     "    def _from_ints(nums, den, prec):\n"
                     "        p = object.__new__(UniPoly)\n"
                     "        p.nums, p.den = _lowest(nums, den, prec)\n"
                     "        p.prec = prec\n"
                     "    def degree(self):\n"
                     "        return len(self.nums) - 1\n"
                     "def g(q):\n    q.den = 3\n"
                     "    return numcore._lowest([], q.den, q.prec)\n"
                     "x = UniPoly.__new__(UniPoly)\n")
    assert _form_setters(tree) == [
        "UniPoly._from_ints: __new__() (line 3)",
        "UniPoly._from_ints: .den = (line 4)",
        "UniPoly._from_ints: .nums = (line 4)",
        "UniPoly._from_ints: _lowest() (line 4)",
        "UniPoly._from_ints: .prec = (line 5)",
        "g: .den = (line 9)", "g: _lowest() (line 10)",
        "<module>: __new__() (line 11)"]


def _libmp_uses(tree):
    """The line of every import of mpmath's libmp and of every attribute
    named libmp or _mpf_ (an mpf's raw bit tuple)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("mpmath.libmp") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = ((node.module or "").startswith("mpmath.libmp")
                   or (node.module == "mpmath"
                       and any(a.name == "libmp" for a in node.names)))
        else:
            hit = (isinstance(node, ast.Attribute)
                   and node.attr in ("libmp", "_mpf_"))
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_numcore_touches_libmp(path):
    # numcore rounds, writes and reads every float's bits in integers, and
    # no module makes an mpf: none reads libmp or an mpf's raw bits.
    lines = _libmp_uses(ast.parse(path.read_text(), str(path)))
    assert not lines, "%s touches libmp or an mpf's bits (lines %s)" % (
        path.name, lines)


def test_the_scan_sees_libmp():
    tree = ast.parse("import mpmath.libmp\nfrom mpmath import libmp, mp\n"
                     "from mpmath.libmp import from_man_exp\n"
                     "x = mpmath.libmp.fzero\ny = z._mpf_\nw = mp.prec\n")
    assert _libmp_uses(tree) == [1, 2, 3, 4, 5]


def _mpmath_imports(tree):
    """The line of every import of mpmath or of a module inside it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Import)
                      and any(a.name.split(".")[0] == "mpmath"
                              for a in node.names))
                  or (isinstance(node, ast.ImportFrom)
                      and (node.module or "").split(".")[0] == "mpmath"))


def _package_imports(tree):
    """'module (line N)' for every polyapprox module the tree imports, by a
    relative import or by an absolute one of polyapprox."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "polyapprox":
                    continue
                parts = parts[1:]
            names = (parts[:1] if parts and parts[0] else
                     [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names
                     if a.name.startswith("polyapprox.")]
        else:
            continue
        out += [(node.lineno, name) for name in names]
    return ["%s (line %d)" % (name, line) for line, name in sorted(out)]


def test_oracle_imports_only_numcore():
    # The oracle is the ground truth the constructions are checked against,
    # so it shares only numcore's integer kernels with them.
    path = SRC / "oracle.py"
    found = [m for m in _package_imports(ast.parse(path.read_text(), str(path)))
             if not m.startswith("numcore ")]
    assert not found, "oracle imports more than numcore: %s" % ", ".join(found)


def test_the_scan_sees_a_package_import():
    tree = ast.parse("from .numcore import UniPoly\nfrom . import composed\n"
                     "from .symmetric import SymSpec\nimport polyapprox.blocks\n"
                     "from polyapprox.chebyshev import cheb_poly\n"
                     "from polyapprox import cli\nfrom fractions import Fraction\n"
                     "import math\ndef f():\n    from .extension import g\n")
    assert _package_imports(tree) == [
        "numcore (line 1)", "composed (line 2)", "symmetric (line 3)",
        "blocks (line 4)", "chebyshev (line 5)", "cli (line 6)",
        "extension (line 10)"]


def _construction_labels(tree):
    """(label, where, line) for every call SymApprox.measured(...) of the
    module, and cls.measured(...) in class SymApprox, that has no *
    argument: label is its construction argument if that is a string
    literal, else None, and where is its scope as _scopes names it."""
    out = []
    for stmt in tree.body:
        names = {"SymApprox"}
        if isinstance(stmt, ast.ClassDef) and stmt.name == "SymApprox":
            names.add("cls")
        for where, scope in _scopes(stmt):
            for node in ast.walk(scope):
                if not (isinstance(node, ast.Call)
                        and _callee(node) == "measured"
                        and getattr(node.func.value, "id", None) in names
                        and not any(isinstance(a, ast.Starred)
                                    for a in node.args)):
                    continue
                arg = node.args[2:3] + [k.value for k in node.keywords
                                        if k.arg == "construction"]
                label = getattr(arg[0], "value", None) if arg else None
                out.append((label if isinstance(label, str) else None,
                            where, node.lineno))
    return sorted(out, key=lambda t: t[2])


# The one measure that passes no label: surjectivity's domain, SurjSpec,
# claims no construction.  Every spectrum construction must pass one.
UNLABELLED = "composed.surjectivity_approx"


def _labels_verify_refuses(labels):
    """'label at module.where (line N)' for every (label, module.where,
    line) whose label verify refuses, but for no label in UNLABELLED."""
    from polyapprox.symmetric import CONSTRUCTIONS
    return ["%r at %s (line %d)" % t for t in labels
            if t[0] not in CONSTRUCTIONS and t[:2] != (None, UNLABELLED)]


def _module_labels(stem, tree):
    return [(label, "%s.%s" % (stem, where), line)
            for label, where, line in _construction_labels(tree)]


def test_every_construction_label_is_one_verify_reads():
    # verify rejects a label outside symmetric.CONSTRUCTIONS (exit 2), so a
    # construction that wrote one would build artifacts verify refuses.
    from polyapprox.symmetric import CONSTRUCTIONS
    labels = [t for p in MODULES for t in _module_labels(
        p.stem, ast.parse(p.read_text(), str(p)))]
    bad = _labels_verify_refuses(labels)
    assert not bad, "labels verify refuses: %s" % ", ".join(bad)
    assert {label for label, _, _ in labels} == CONSTRUCTIONS | {None}


def test_the_scan_sees_a_construction_label():
    tree = ast.parse("class SymApprox:\n"
                     "    def interpolant(cls, s, p):\n"
                     "        return cls.measured(s, p, 'a')\n"
                     "class B:\n    def f(cls, n):\n"
                     "        return cls.measured(n, 1, 'x')\n"
                     "def g(s, p, lab):\n"
                     "    SymApprox.measured(s, p, lab)\n"
                     "    SymApprox.measured(s, p, construction='b')\n"
                     "    Other.measured(s, p, 'y')\n"
                     "    return SymApprox.measured(*p)\n")
    assert _construction_labels(tree) == [
        ("a", "SymApprox.interpolant", 3), (None, "g", 8), ("b", "g", 9)]


def test_the_scan_sees_a_spectrum_measure_with_no_label():
    # Only surjectivity's measure may pass no label: a spectrum
    # construction that forgets its label is caught, in composed too.
    tree = ast.parse("def surjectivity_approx(s, p):\n"
                     "    return SymApprox.measured(s, p, prec=64)\n"
                     "def and_or_approx(s, p):\n"
                     "    return SymApprox.measured(s, p)\n")
    assert _labels_verify_refuses(_module_labels("composed", tree)) == [
        "None at composed.and_or_approx (line 4)"]
    assert _labels_verify_refuses(_module_labels("symmetric", tree)) == [
        "None at symmetric.surjectivity_approx (line 2)",
        "None at symmetric.and_or_approx (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_no_mpmath(path):
    # The package needs only the standard library: every scalar is an int
    # or a Fraction, and each cosine and pi a construction takes is
    # computed in integers.  mpmath is a test-only reference.
    lines = _mpmath_imports(ast.parse(path.read_text(), str(path)))
    assert not lines, "%s imports mpmath (lines %s)" % (path.name, lines)


def test_the_scan_sees_an_mpmath_import():
    tree = ast.parse("import mpmath\nfrom mpmath import mp\n"
                     "import mpmath.libmp as lm\n"
                     "from fractions import Fraction\n"
                     "import mpmathx\nfrom . import mpmath\n"
                     "def f():\n    import mpmath\n")
    assert _mpmath_imports(tree) == [1, 2, 3, 8]


def _asserts(tree):
    """The line of every assert statement of the module."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_assert(path):
    # python -O strips every assert, so a check on a caller's input that is
    # an assert lets a bad input through to a wrong value: it raises.
    lines = _asserts(ast.parse(path.read_text(), str(path)))
    assert not lines, "%s asserts (lines %s)" % (path.name, lines)


def test_the_scan_sees_an_assert():
    tree = ast.parse("assert x\ndef f(w):\n    assert len(w) == 2, w\n"
                     "    return w\nif not y:\n    raise ValueError(y)\n")
    assert _asserts(tree) == [1, 3]


def _is_stub(fn):
    """A body that only raises NotImplementedError, after its docstring."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def _unread_parameters(tree):
    """'name(param)' for every parameter of a def that its body never reads.
    The cmd_* handlers share one dispatch signature and stubs read nothing,
    so both are exempt; a lambda matches the callable it is passed as."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("cmd_") or _is_stub(fn):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = set().union(*(_read(stmt) for stmt in fn.body))
        out += ["%s(%s) (line %d)" % (fn.name, p, fn.lineno)
                for p in params if p not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text(), str(path)))
    assert not unread, "%s has parameters no body reads: %s" % (
        path.name, ", ".join(unread))


def test_the_scan_sees_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *rest, c=1):\n    return a + c\n"
        "def cmd_x(args):\n    return 0\n"
        "class S:\n    def g(self, t):\n        'stub'\n"
        "        raise NotImplementedError(type(self))\n")
    assert _unread_parameters(tree) == ["f(b) (line 1)", "f(rest) (line 1)"]


def _unpassed_defaults(modules, others):
    """'module.callee(param) (line N)' for every parameter with a default of
    a def in the modules ({name: tree}) that no call in any tree passes, by
    position or by keyword.  A call matches every def of the name it looks
    up, a class's name stands for its __new__ and __init__, a method's self
    or cls takes no position, a *args passes every position and a **kwargs
    every keyword."""
    passed = {}
    for tree in list(modules.values()) + others:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                npos, kws = passed.get(_callee(call), (0, set()))
                if any(isinstance(a, ast.Starred) for a in call.args):
                    npos = float("inf")
                passed[_callee(call)] = (max(npos, len(call.args)),
                                         kws | {k.arg for k in call.keywords})
    out = []
    for mod, tree in modules.items():
        owner = {fn: cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a, name = fn.args, fn.name
            pos = [p.arg for p in a.posonlyargs + a.args]
            if fn in owner and pos[:1] in (["self"], ["cls"]):
                pos = pos[1:]
            if fn in owner and name in ("__new__", "__init__"):
                name = owner[fn]
            first = len(pos) - len(a.defaults)
            params = [(p, i) for i, p in enumerate(pos) if i >= first]
            params += [(p.arg, float("inf")) for p, dflt
                       in zip(a.kwonlyargs, a.kw_defaults) if dflt is not None]
            npos, kws = passed.get(name, (0, set()))
            out += ["%s.%s(%s) (line %d)" % (mod, name, p, fn.lineno)
                    for p, i in params
                    if npos <= i and p not in kws and None not in kws]
    return out


def test_every_default_is_passed_somewhere():
    # a default that no call overrides is a constant spelled as a knob
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    tests = [ast.parse(p.read_text(), str(p)) for p in TESTS]
    unpassed = _unpassed_defaults(modules, tests)
    assert not unpassed, "defaults no call passes: %s" % ", ".join(unpassed)


def test_the_scan_sees_a_default_no_call_passes():
    mod = ast.parse("def f(a, b=1, c=2, *, k=3, j=4):\n    return a\n"
                    "def g(x=0):\n    return x\n"
                    "def h(y=0):\n    return y\n"
                    "class C:\n"
                    "    def __init__(self, p=1, q=2):\n        self.p = p\n"
                    "    def m(self, s=0):\n        return s\n"
                    "f(1, 2, k=0)\nC(5)\nC().m()\n")
    test = ast.parse("from m import g, h\ng(*[1])\nh(**{'y': 1})\n")
    assert _unpassed_defaults({"m": mod}, [test]) == [
        "m.f(c) (line 1)", "m.f(j) (line 1)", "m.C(q) (line 8)",
        "m.m(s) (line 10)"]


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom fractions import Fraction as F\n"
                     "x = F(1)\n")
    assert set(_imported(tree)) - _read(tree) == {"math"}


def _referenced(node, skip=None):
    """Every name the subtree reads, binds by import or looks up as an
    attribute, outside the subtree skip."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _definitions(tree):
    """(qualified name, node) for every top-level def or class of the
    module and every method of a top-level class.  main dispatches the
    cmd_* handlers through globals(), and Python calls the dunders, so
    both are exempt."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for stmt in tree.body:
        if isinstance(stmt, defs) and not stmt.name.startswith("cmd_"):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for fn in stmt.body:
                if (isinstance(fn, defs[:2])
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))):
                    yield "%s.%s" % (stmt.name, fn.name), fn


def _orphans(modules, others):
    """'module.name' for every definition of the modules ({name: tree})
    whose name nothing outside its own body references: no other statement
    of its module, and no other tree.  A method counts as used wherever
    its name is looked up, on any object."""
    names = [_referenced(tree) for tree in list(modules.values()) + others]
    out = []
    for i, (mod, tree) in enumerate(modules.items()):
        elsewhere = set().union(*(n for j, n in enumerate(names) if j != i))
        for qual, node in _definitions(tree):
            if node.name not in elsewhere | _referenced(tree, skip=node):
                out.append("%s.%s (line %d)" % (mod, qual, node.lineno))
    return out


def test_every_top_level_definition_is_used():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    tests = [ast.parse(p.read_text(), str(p)) for p in TESTS]
    orphans = _orphans(modules, tests)
    assert not orphans, "defined but never used: %s" % ", ".join(orphans)


def test_the_scan_sees_an_orphaned_definition():
    mod = ast.parse("def f(n):\n    return f(n - 1)\n"
                    "def g():\n    return 0\n"
                    "def cmd_x(args):\n    return 0\n"
                    "class C:\n    pass\n")
    test = ast.parse("from m import g\n")
    assert _orphans({"m": mod}, [test]) == ["m.f (line 1)", "m.C (line 7)"]


def test_the_scan_sees_an_orphaned_method():
    mod = ast.parse("class C:\n"
                    "    def __init__(self):\n        self.g()\n"
                    "    def f(self):\n        return self.f()\n"
                    "    def g(self):\n        return 0\n"
                    "    @property\n    def h(self):\n        return 1\n"
                    "    def __len__(self):\n        return 0\n"
                    "x = C()\n")
    test = ast.parse("from m import C\nassert C().h\n")
    assert _orphans({"m": mod}, [test]) == ["m.C.f (line 4)"]


def _record_fields(tree):
    """(class, field, line) for every record field of the module: each
    self.<name> a class's __init__ assigns, and each field of a
    namedtuple(...) call, in line order."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if getattr(fn, "name", None) == "__init__":
                    for t in ast.walk(fn):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.ctx, ast.Store)
                                and getattr(t.value, "id", None) == "self"):
                            out.setdefault((node.name, t.attr), t.lineno)
        elif isinstance(node, ast.Call) and _callee(node) == "namedtuple":
            for field in node.args[1].value.replace(",", " ").split():
                out.setdefault((node.args[0].value, field), node.lineno)
    return sorted(((cls, field, line) for (cls, field), line in out.items()),
                  key=lambda f: f[2])


def _unread_fields(modules, others):
    """'module.class.field' for every record field of the modules ({name:
    tree}) that no tree reads as an attribute."""
    read = {node.attr for tree in list(modules.values()) + others
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return ["%s.%s.%s (line %d)" % (mod, cls, field, line)
            for mod, tree in modules.items()
            for cls, field, line in _record_fields(tree) if field not in read]


def test_every_record_field_is_read():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    tests = [ast.parse(p.read_text(), str(p)) for p in TESTS]
    # the six records, plain classes and namedtuples, are among those scanned
    scanned = {cls for tree in modules.values()
               for cls, _, _ in _record_fields(tree)}
    assert scanned >= {"SymSpec", "SymApprox", "SurjSpec", "MinimaxResult",
                       "Pi", "SelectorApprox"}
    unread = _unread_fields(modules, tests)
    assert not unread, "fields never read: %s" % ", ".join(unread)


def test_the_scan_sees_an_unread_field():
    mod = ast.parse("from collections import namedtuple\n"
                    "P = namedtuple('P', 'a, b')\n"
                    "class R:\n"
                    "    def __init__(self, a):\n"
                    "        self.a, self.d = a, 0\n"
                    "        self.e = 1\n"
                    "    def f(self):\n        self.g = 2\n"
                    "        return self.a\n"
                    "def h(p):\n    p.e = 1\n    return p.a\n")
    assert _unread_fields({"m": mod}, []) == [
        "m.P.b (line 2)", "m.R.d (line 5)", "m.R.e (line 6)"]


def test_the_cli_imports_no_dataclasses_inspect_or_csv():
    # A CLI call computes about a millisecond; these modules (inspect pulls
    # in ast, dis and tokenize) would cost several times that to import.
    code = "import sys, polyapprox.cli\nprint(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    loaded = set(run.stdout.split())
    assert "polyapprox.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}


def _callee(node):
    """The name a call or decorator looks up: f for f and f(...), and
    attr for m.attr and m.attr(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None))


def _is_empty_container(node):
    return ((isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, (ast.List, ast.Set)) and not node.elts)
            or (isinstance(node, ast.Call) and not node.args
                and not node.keywords and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "dict")))


def _unbounded_caches(tree):
    """'what (line N)' for every store the module may grow without bound:
    an lru_cache not called with an integer maxsize, functools.cache on a
    function that takes arguments, and an empty {}, [], set() or dict()
    bound at module or class level or to a self attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            takes = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            for dec in node.decorator_list:
                if _callee(dec) == "lru_cache":
                    size = ([] if not isinstance(dec, ast.Call) else
                            dec.args[:1] + [k.value for k in dec.keywords
                                            if k.arg == "maxsize"])
                    bad = not size or type(getattr(size[0], "value",
                                                   None)) is not int
                else:
                    bad = _callee(dec) == "cache" and any(takes)
                if bad:
                    found.append((dec.lineno, "%s on %s" % (ast.unparse(dec),
                                                            node.name)))
        elif (isinstance(node, (ast.Assign, ast.AnnAssign))
              and _is_empty_container(node.value)):
            targets = getattr(node, "targets", None) or [node.target]
            at_top = any(node in c.body for c in [tree] + [
                c for c in tree.body if isinstance(c, ast.ClassDef)])
            on_self = any(isinstance(t, ast.Attribute)
                          and getattr(t.value, "id", None) == "self"
                          for t in targets)
            if at_top or on_self:
                found.append((node.lineno, ast.unparse(node)))
    return ["%s (line %d)" % (what, line) for line, what in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_cache_is_bounded(path):
    # A memo is one lru_cache with a stated maxsize, keyed by value; a
    # module or object that collects entries into a container of its own
    # holds them as long as the process or the object lives.
    found = _unbounded_caches(ast.parse(path.read_text(), str(path)))
    assert not found, "%s has an unbounded cache: %s" % (
        path.name, ", ".join(found))


def test_the_scan_sees_an_unbounded_cache():
    tree = ast.parse("import functools\n"
                     "X = {}\nY: list = []\nZ = {1: 2}\n"
                     "@functools.lru_cache(maxsize=None)\ndef f(a):\n"
                     "    seen = set()\n    return a\n"
                     "@lru_cache(maxsize=4096)\ndef g(a):\n    return a\n"
                     "@lru_cache\ndef h(a):\n    return a\n"
                     "@functools.cache\ndef k():\n    return 1\n"
                     "@functools.cache\ndef m(a):\n    return a\n"
                     "class C:\n    memo = dict()\n"
                     "    def __init__(self):\n        self.memo = set()\n"
                     "        self.parts = [1]\n")
    assert _unbounded_caches(tree) == [
        "X = {} (line 2)", "Y: list = [] (line 3)",
        "functools.lru_cache(maxsize=None) on f (line 5)",
        "lru_cache on h (line 12)", "functools.cache on m (line 18)",
        "memo = dict() (line 22)", "self.memo = set() (line 24)"]
