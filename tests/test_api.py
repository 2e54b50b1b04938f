"""Every name a module exports has a caller in the package or in perfbench.

The guarded names are each module's ``__all__`` and the public methods,
properties and fields (dataclass and NamedTuple annotations) of the classes
in it (``Class.member``).  A name counts as used when code outside its own
definition refers to it; a member counts as used when some live code reads
an attribute of its name, its own class's other methods included, so
constructing a class does not use its fields.  Imports, ``__all__`` entries
and docstrings are not references, so the package's ``__init__`` re-exports
do not count, and neither do tests.  Code inside the definition of an unused
name does not count either: a name whose only callers are themselves unused
is reported with them.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "diminish").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Exports kept without a caller, each with the reason it stays.
ALLOWED = {
    "to_barycentric": "ROADMAP item 3: weights of the full process's simplex centers",
    "change_probability": "ROADMAP item 5: the jump engine's change clock for the simplex",
    "heights_after_changes": "ROADMAP item 5: the simplex cap kernel without the clock; its "
    "test is the only check that geometric changes follow the thinned height law",
    "df_form_cdf": "the analytic CDF that df_form_ppf's round-trip tests invert "
    "(tests/test_distributions.py::TestDfForm)",
    "ks_two_sample": "the two-sample statistic of the engine-against-sampler and self-similarity "
    "tests (tests/test_interval.py, tests/test_simplex.py, tests/test_distributions.py)",
    "BoundConstants.rate_envelope_upper": "ROADMAP item 7: the upper rate envelope of the heptagon, "
    "tested against samples (tests/test_stats.py::test_heptagon_rate_envelope_upper_bound); "
    "no verify check reads the upper envelope yet",
    "BoundConstants.c2": "ROADMAP item 7: the odd-k rate bound's constant, pinned by "
    "tests/test_polygon.py::TestBoundConstants; no verify check reads it yet",
    "BoundConstants.c3": "ROADMAP item 7: the scale of the upper rate envelope, read only by "
    "rate_envelope_upper",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _guarded(mod, tree):
    """``{(mod, name)}`` per export, and ``(mod, "Class.member")`` per public method,
    property or field of an exported class."""
    exports = _exports(tree)
    out = {(mod, name) for name in exports}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exports:
            members = [
                item.name if isinstance(item, ast.FunctionDef) else item.target.id
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AnnAssign))
            ]
            out |= {(mod, f"{node.name}.{m}") for m in members if not m.startswith("_")}
    return out


def _references(mod, tree):
    """``(name, read, owners)`` per reference: ``read`` marks an attribute read, and
    ``owners`` are the enclosing top-level definition and method, if any."""
    for node in tree.body:
        top = ((mod, node.name),) if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else ()
        method = {}
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    method.update(dict.fromkeys(map(id, ast.walk(item)), (mod, f"{node.name}.{item.name}")))
        for sub in ast.walk(node):
            owners = top + ((method[id(sub)],) if id(sub) in method else ())
            if isinstance(sub, ast.Name):
                yield sub.id, False, owners
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, isinstance(sub.ctx, ast.Load), owners


def unused_exports(trees=None):
    """``{(module, name)}`` of guarded names with no reference from live code.

    ``trees`` maps module names to parsed sources; the default is the package
    and perfbench.
    """
    if trees is None:
        trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    guarded = set().union(*(_guarded(mod, tree) for mod, tree in trees.items()))
    refs = [ref for mod, tree in trees.items() for ref in _references(mod, tree)]
    # greatest fixed point: drop every name referenced from outside the unused set
    unused = guarded
    while True:
        live = [(name, read) for name, read, owners in refs if unused.isdisjoint(owners)]
        names, reads = {name for name, _ in live}, {name for name, read in live if read}
        still = {
            (mod, name)
            for mod, name in unused
            if name.rpartition(".")[2] not in (reads if "." in name else names)
        }
        if still == unused:
            return unused
        unused = still


def test_every_export_has_a_caller():
    unused = unused_exports()
    stray = sorted(f"{mod}.{name}" for mod, name in unused if name not in ALLOWED)
    assert not stray, f"exported but never used in src/ or perfbench/: {', '.join(stray)}"


def test_allowlist_is_current():
    # an allowed name that gained a caller, or was deleted, leaves the list
    unused = {name for _, name in unused_exports()}
    assert sorted(set(ALLOWED) - unused) == []


def test_methods_are_guarded():
    source = """
        __all__ = ["Box", "use"]

        class Box:
            def used(self):
                return self._helper() + self.sibling()

            def sibling(self):
                return 1

            def lonely(self):
                return self.lonely()

            @property
            def size(self):
                return 0

            def _helper(self):
                return 0

        def use(box):
            return box.used()

        RESULT = use(Box())
    """
    tree = ast.parse(textwrap.dedent(source))
    # a sibling method's call counts; a method's call to itself does not
    assert unused_exports({"m": tree}) == {("m", "Box.lonely"), ("m", "Box.size")}


def test_fields_are_guarded():
    source = """
        from dataclasses import dataclass
        from typing import NamedTuple

        __all__ = ["Pair", "Point", "use"]

        @dataclass(frozen=True)
        class Pair:
            left: int
            right: int
            built: int

            def total(self):
                return self.left

        class Point(NamedTuple):
            x: float
            y: float

        def use(pair, point):
            return pair.total() + point.x

        RESULT = use(Pair(left=1, right=2, built=3), Point(0.0, y=1.0))
        right = RESULT
    """
    tree = ast.parse(textwrap.dedent(source))
    # a read inside a live method counts; construction, keywords and a bare name do not
    unused = {("m", "Pair.right"), ("m", "Pair.built"), ("m", "Point.y")}
    assert unused_exports({"m": tree}) == unused
