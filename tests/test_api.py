"""Every name a module exports has a caller in the package or in perfbench.

A name counts as used when code outside its own definition refers to it.
Imports, ``__all__`` entries and docstrings are not references, so the
package's ``__init__`` re-exports do not count, and neither do tests.  Code
inside the definition of an unused export does not count either: a name
whose only callers are themselves unused is reported with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "diminish").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Exports kept without a caller, each with the reason it stays.
ALLOWED = {
    "perpetuity_step": "ROADMAP item 3: fixed-point map of the interval center law "
    "(tests/test_interval.py::TestRepresentationConsistency::test_perpetuity_fixed_point)",
    "simplex_perpetuity_step": "ROADMAP item 3: fixed-point map of the simplex center law "
    "(tests/test_simplex.py::TestLimitLaws::test_perpetuity_fixed_point)",
    "to_barycentric": "ROADMAP item 3: weights of the full process's simplex centers",
    "change_probability": "ROADMAP item 5: the jump engine's change clock for the simplex",
    "heights_after_changes": "ROADMAP item 5: the simplex cap kernel without the clock; its "
    "test is the only check that geometric changes follow the thinned height law",
    "df_form_cdf": "the analytic CDF that df_form_ppf's round-trip tests invert "
    "(tests/test_distributions.py::TestDfForm)",
    "ks_two_sample": "the two-sample statistic of the fixed-point and self-similarity tests "
    "(tests/test_interval.py, tests/test_simplex.py, tests/test_distributions.py)",
}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree):
    """``(name, owner)`` per reference; ``owner`` is the enclosing top-level definition, or None."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id, owner
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, owner


def unused_exports():
    """``{(module, name)}`` of exports with no reference from live code."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    exported = {(mod, name) for mod, tree in trees.items() for name in _exports(tree)}
    refs = [(name, (mod, owner)) for mod, tree in trees.items() for name, owner in _references(tree)]
    # greatest fixed point: drop every export referenced from outside the unused set
    unused = set(exported)
    while True:
        live = {name for name, owner in refs if owner not in unused}
        still = {(mod, name) for mod, name in unused if name not in live}
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
