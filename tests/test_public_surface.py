"""Every public name in the package has a caller outside the tests, and no
module reaches into a sibling's private names.

A public module-level function or class, or a public method, must be named in
code (not in a comment or docstring) somewhere in `src/qetlab`, `scripts/` or
`perfbench/`, other than on its own `def`/`class` line.  Re-exports in
`__init__.py` do not count: an import is not a caller.  A method counts as
referenced where its name follows a `.`.  Reference computations that only
the tests read belong in `tests/oracles.py`.

A module in `src/qetlab` may import or read a `_private` name (dunders
excepted) of a sibling module only from `fields`, which holds the value rules
every layer shares.  No module but `cli` imports `verify`, which holds the
oracle cross-checks and the routes only they read.

The third-party modules the package imports, deferred imports included, are
exactly the runtime dependencies that `pyproject.toml` declares.
"""

import ast
import io
import re
import sys
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


SIBLINGS = {p.stem for p in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_sibling(node: ast.ImportFrom):
    """The sibling a `from` import names: "x" for `from .x` or `from qetlab.x`,
    None for `from .` or `from qetlab`, and False outside the package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module is not None and node.module.split(".")[0] == "qetlab":
        return node.module.removeprefix("qetlab").removeprefix(".") or None
    return False


def private_uses(source: str) -> list:
    """(line, source module, name) for each sibling `_private` name a module's source reaches.

    Sees `from .sibling import _name` and attribute reads `sibling._name` on a
    sibling module bound by `from . import sibling`, `from qetlab import
    sibling` or `import qetlab.sibling [as alias]`.
    """
    tree = ast.parse(source)
    modules = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source_module = _from_sibling(node)
            if source_module is False:
                continue
            for alias in node.names:
                if source_module is None and alias.name in SIBLINGS:
                    modules[alias.asname or alias.name] = alias.name
                elif source_module is not None and _private(alias.name):
                    found.append((node.lineno, source_module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if len(parts) == 2 and parts[0] == "qetlab" and parts[1] in SIBLINGS and alias.asname:
                    modules[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in modules:
            found.append((node.lineno, modules[value.id], node.attr))
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "qetlab"
            and value.attr in SIBLINGS
        ):
            found.append((node.lineno, value.attr, node.attr))
    return found


def private_imports():
    """(importing module, line, source module, name) for each `_private` name reached in a sibling."""
    return [
        (path.stem, line, source, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, source, name in private_uses(path.read_text(encoding="utf-8"))
    ]


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


def test_private_walk_sees_attribute_reads_on_sibling_modules():
    source = (
        "import qetlab.results as res\n"
        "import qetlab.scenario\n"
        "from . import spectral\n"
        "from qetlab import fields as f\n"
        "from .protocols import PairInvariants, _check_assembly\n"
        "def g():\n"
        "    return spectral._integrand, res._jsonable, qetlab.scenario._strict, f._real, spectral.__name__\n"
    )
    assert sorted(private_uses(source)) == [
        (5, "protocols", "_check_assembly"),
        (7, "fields", "_real"),
        (7, "results", "_jsonable"),
        (7, "scenario", "_strict"),
        (7, "spectral", "_integrand"),
    ]


def test_private_import_walk_sees_the_value_rules():
    # the walk must find the package's own imports of the fields rules
    assert any(source == SHARED_PRIVATE_MODULE for _, _, source, _ in private_imports())


VERIFY_IMPORTER = "cli"


def verify_imports(source: str) -> list:
    """Lines of a module's source that import the sibling `verify`, in any of the
    forms `private_uses` reads: `from . import verify`, `from .verify import ...`,
    their `qetlab` spellings, and `import qetlab.verify [as alias]`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = _from_sibling(node)
            if module == "verify" or (module is None and any(a.name == "verify" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "qetlab.verify" for a in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_only_cli_imports_verify():
    # check code stays out of the paper's modules and out of `import qetlab`
    importers = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != VERIFY_IMPORTER
        for line in verify_imports(path.read_text(encoding="utf-8"))
    ]
    assert not importers, f"only {VERIFY_IMPORTER}.py may import verify: " + ", ".join(importers)


def test_verify_walk_sees_every_import_form():
    source = (
        "from . import fields, verify\n"
        "from .verify import run\n"
        "from qetlab import verify as checks\n"
        "from qetlab.verify import checks\n"
        "import qetlab.verify\n"
        "import numpy, qetlab.verify as v\n"
        "from .spectral import verify_rows\n"
        "import verify\n"
        "def f():\n"
        "    from . import verify\n"
    )
    assert verify_imports(source) == [1, 2, 3, 4, 5, 6, 10]


def test_verify_walk_sees_the_cli_import():
    assert verify_imports((PACKAGE / f"{VERIFY_IMPORTER}.py").read_text(encoding="utf-8"))


# distributions whose import name is not their own
IMPORT_NAMES = {"pyyaml": "yaml"}


def third_party_imports(source: str) -> set:
    """Top-level modules that a source imports by absolute name at any depth,
    outside the standard library and the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"qetlab"}


def test_third_party_imports_are_the_runtime_dependencies():
    # a stray `import scipy` in the package, deferred or not, fails here
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    assert imported == {IMPORT_NAMES.get(name, name) for name in declared}


def test_third_party_walk_sees_deferred_and_dotted_imports():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy.linalg as la\n"
        "from . import fields\n"
        "from qetlab.spectral import overlap_kernel\n"
        "def f():\n"
        "    from scipy.special import hyp1f1\n"
        "    import yaml\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy", "yaml"}
