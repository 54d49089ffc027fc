"""Every public ttalab name has a reader, and every default has a setter.

A public module-level function or class, or a public method of a
module-level class, must be referenced (as a name, an attribute or an
imported alias) somewhere in the package, the demos, the benchmark or the
acceptance criteria. A name that only its own unit tests reach is surface
to delete, not to maintain.

A parameter with a default, on any module-level function or method of a
module-level class, must be passed by some call in the package, the demos,
the benchmark or any test: by keyword, by position, or through `*`/`**`
unpacking. A default that no call overrides is a constant, not a knob.

Only `artifacts` puts bytes into a file: every other module hands its text
to `artifacts.write_text`, which writes a temporary file and renames it into
place, so a crashed command leaves no half-written artifact.

Every module-level import in the package, the tests and the demos is read
by its module, or is marked `# noqa: F401` for its side effect."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ttalab"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
READERS = [*CALLERS, ROOT / "tests" / "test_acceptance.py"]
SETTERS = [*CALLERS, *sorted((ROOT / "tests").glob("*.py"))]

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
    assert sorted(unread) == [], "public names that only unit tests read"


def _functions(path):
    """(qualified name, name a call uses, def node, leading parameters that a
    call does not pass) for each module-level function and each method of a
    module-level class; an `__init__` is called by its class name."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", callee, item, 0 if static else 1


def defaulted_parameters():
    """(qualified name, name a call uses, parameter, position in a call or
    None for keyword-only) for every parameter with a default."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, callee, fn, skip in _functions(path):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(f"{path.stem}.{qual}({a.arg})", callee, a.arg, i - skip)
                    for i, a in enumerate(positional) if i >= first]
            out += [(f"{path.stem}.{qual}({a.arg})", callee, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls_by_name():
    calls = {}
    for path in SETTERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, param, position):
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def test_every_defaulted_parameter_has_a_setter():
    calls = calls_by_name()
    unset = {qual for qual, callee, param, position in defaulted_parameters()
             if not any(_sets(c, param, position) for c in calls.get(callee, ()))}
    assert sorted(unset) == [], "defaulted parameters that no call sets: make them constants"


# The one module that writes files.
WRITER = PACKAGE / "artifacts.py"
_MODE_CHARS = set("rwaxbt+")


def _write_mode(node) -> bool:
    """A constant open mode that writes, appends or creates."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= _MODE_CHARS and bool(set(node.value) & set("wax+")))


def file_writes(path):
    """`file:line call` for each call in `path` that opens a file with a write,
    append or create mode, or calls `.write_text`/`.write_bytes` on anything
    but the `artifacts` module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            hit = getattr(func.value, "id", None) != "artifacts"
        elif getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
            # open(file, mode) or Path.open(mode)
            modes = node.args[1:] if isinstance(func, ast.Name) else node.args
            hit = any(_write_mode(a) for a in
                      [*modes, *(kw.value for kw in node.keywords if kw.arg == "mode")])
        else:
            hit = False
        if hit:
            out.append(f"{path.name}:{node.lineno} {ast.unparse(func)}")
    return out


def test_only_artifacts_writes_files():
    writes = [w for path in sorted(PACKAGE.glob("*.py")) if path != WRITER
              for w in file_writes(path)]
    assert writes == [], "file writes that bypass artifacts.write_text"
    assert file_writes(WRITER), "the writer itself is gone: update WRITER"


# -- every import has a reader ------------------------------------------------------

IMPORTERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]


def unused_imports(path):
    """`file:line name` for each module-level import whose bound name the
    module never reads (a name listed in `__all__` counts as read)."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                or "# noqa: F401" in lines[node.lineno - 1]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_no_unused_imports():
    unused = [u for path in IMPORTERS for u in unused_imports(path)]
    assert unused == [], "imports that their module never reads"
