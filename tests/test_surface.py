"""Every public ttalab name has a reader outside its unit tests.

A public module-level function or class, or a public method of a
module-level class, must be referenced (as a name, an attribute or an
imported alias) somewhere in the package, the demos, the benchmark or the
acceptance criteria. A name that only its own unit tests reach is surface
to delete, not to maintain."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ttalab"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# Kept without an in-repo reader, with the reason.
EXEMPT = {
    # the hook for the paper's external classifiers: a library-only API
    # that the CLI never constructs (ROADMAP north star, robustness: a slow
    # external scorer must not poison every later call)
    "scoring.PluginScorer",
}


def _public(name):
    return not name.startswith("_")


def defined_names():
    """(qualified name, bare name) of every public module-level function or
    class and every public method of a module-level class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and _public(item.name)]
    return out


def referenced_names():
    seen = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name.rsplit(".", 1)[-1])
    return seen


def test_every_public_name_has_a_reader():
    seen = referenced_names()
    unread = {qual for qual, bare in defined_names() if bare not in seen}
    assert sorted(unread - EXEMPT) == [], "public names that only unit tests read"
    assert EXEMPT <= unread, "an exempt name is gone or has a reader now: drop it"
