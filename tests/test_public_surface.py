"""Every public name in the package has a caller outside the tests, and no
module reaches into a sibling's private names.

A public module-level function or class, or a public method, must be named in
code (not in a comment or docstring) somewhere in `src/qetlab`, `scripts/` or
`perfbench/`, other than on its own `def`/`class` line.  Re-exports in
`__init__.py` do not count: an import is not a caller.  A method counts as
referenced where its name follows a `.`.  Reference computations that only
the tests read belong in `tests/oracles.py`.

A module in `src/qetlab` may import a `_private` name (dunders excepted) only
from `fields`, which holds the value rules every layer shares.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qetlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLER_FILES = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions():
    """(module, qualified name, bare name, is_method, def line) for each public definition."""
    defs = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            defs.append((path, node.name, node.name, False, node.lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        defs.append((path, f"{node.name}.{item.name}", item.name, True, item.lineno))
    return defs


def code_names():
    """{(name, follows a dot): {(path, line), ...}} over the NAME tokens of every caller file."""
    seen = {}
    for path in CALLER_FILES:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        prev = None
        for tok in tokens:
            if tok.type == tokenize.NAME:
                dotted = prev is not None and prev.type == tokenize.OP and prev.string == "."
                seen.setdefault((tok.string, dotted), set()).add((path, tok.start[0]))
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                prev = tok
    return seen


DEFINITIONS = public_definitions()
NAMES = code_names()


def test_walk_finds_the_package():
    assert len(MODULES) >= 8
    assert len(DEFINITIONS) > 50


@pytest.mark.parametrize(
    "path, qualname, name, is_method, lineno",
    DEFINITIONS,
    ids=[f"{d[0].stem}.{d[1]}" for d in DEFINITIONS],
)
def test_public_name_has_a_caller(path, qualname, name, is_method, lineno):
    keys = [(name, True)] if is_method else [(name, False), (name, True)]
    refs = set().union(*(NAMES.get(k, set()) for k in keys)) - {(path, lineno)}
    assert refs, (
        f"{path.stem}.{qualname} is named nowhere in src/qetlab, scripts/ or perfbench/ "
        "outside its definition; delete it or move it to tests/oracles.py"
    )


SHARED_PRIVATE_MODULE = "fields"


def private_imports():
    """(importing module, line, source module, name) for each `_private` name imported from a sibling."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("qetlab."):
                source = node.module.removeprefix("qetlab.")
            else:
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append((path.stem, node.lineno, source, name))
    return found


def test_private_imports_come_only_from_fields():
    crossings = [
        f"{module}.py:{line} imports {source}.{name}"
        for module, line, source, name in private_imports()
        if source != SHARED_PRIVATE_MODULE
    ]
    assert not crossings, (
        "private names cross module boundaries; make the name public with a caller "
        "or move the shared rule to fields: " + "; ".join(crossings)
    )


def test_private_import_walk_sees_the_value_rules():
    # the walk must find the package's own imports of the fields rules
    assert any(source == SHARED_PRIVATE_MODULE for _, _, source, _ in private_imports())
