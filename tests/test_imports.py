"""What the package imports.

No module imports a name that it never reads, nor a ``_``-private name from
another module of the package: a module uses another through its public
names.  A name bound by a module-level
import counts as read when the module loads it somewhere (an ``ast.Name`` in a
load context, which includes the base of an attribute access).  The one
exception is a name that ``perfbench/tracer.py`` patches in that module: the
tracer wraps the binding to see the calls made through it.

Every top-level function and class is read somewhere in the package outside
its own body, so code that no command reaches does not stay in ``src/``.  The
exceptions are the names that ``perfbench/tracer.py`` patches and the graph
constructors that only the tests build graphs with.

Every CLI command pays for the start-up of ``u3local.cli``, so the package does
not use ``dataclasses`` (with ``inspect`` and ``ast`` it costs about half of
that start-up), ``hashlib`` is imported by the one function that takes a
digest, and neither the import nor a command that reads its argv flat and
writes an ASCII report loads ``argparse``, ``gettext`` or ``json``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from .test_tracer_targets import _targets

SRC = Path(__file__).resolve().parent.parent / "src" / "u3local"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport os.path as osp\nfrom x import a, b as c\nprint(a)\n"
    assert _unused_imports(source) == ["os", "osp", "c"]
    assert _unused_imports("from __future__ import annotations\nimport re\nre.compile\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_unused_module_imports(path):
    patched = {attr for module, attr in _targets() if module == path.stem}
    assert [name for name in _unused_imports(path.read_text()) if name not in patched] == []


def _private_imports(source: str) -> list[str]:
    """The ``_``-private names that ``source`` imports, anywhere, from a module
    of the package (a relative import, or one from ``u3local``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "u3local"
        ):
            out += [alias.name for alias in node.names if alias.name.startswith("_")]
    return out


def test_private_imports_are_found():
    source = (
        "from .linalg import Matrix, _bareiss as b\nfrom . import _x\nfrom os import _exit\n"
        "def f():\n    from u3local.cosets import _two_walks\n"
    )
    assert _private_imports(source) == ["_bareiss", "_x", "_two_walks"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_private_imports(path):
    assert _private_imports(path.read_text()) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules imported anywhere in ``source``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_imported_modules_are_found():
    source = "import os.path\nfrom dataclasses import field\nfrom . import cli\ndef f():\n    import hashlib\n"
    assert _imported_modules(source) == {"os", "dataclasses", "hashlib"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path.read_text())


def _run_loaded(code: str, *args: str) -> tuple[list[str], set[str]]:
    """The stdout lines of ``code`` run in a fresh interpreter with the package
    importable, and the modules loaded when it ends (its last line)."""
    # -S: the modules that .pth files of site-packages load are not the package's
    code = f"import sys; sys.path.insert(0, sys.argv[1])\n{code}\nprint(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC.parent), *args],
        capture_output=True, text=True, check=True, timeout=60,
    )
    *lines, loaded = done.stdout.splitlines()
    return lines, set(loaded.split())


# argparse (with gettext) only reads the argv that the flat read declines, and
# json only encodes text that is not ASCII
ARGV_ONLY = {"argparse", "gettext", "json"}


def test_cli_start_up_stays_light():
    _, loaded = _run_loaded("import u3local.cli")
    assert "u3local.cli" in loaded
    assert loaded & ({"dataclasses", "inspect", "hashlib", "_hashlib"} | ARGV_ONLY) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "verify", "--l", "2", "--radius", "3"],
        ["graph", "analyze", "{graph}", "--prime", "3"],
        ["satake", "eig", "--alpha", "4", "--l", "2"],
        ["moduli", "components", "--diag", "l^2,l,1", "--l", "2"],
        ["--format", "table", "slope", "polygon", "--poly=1,-4,3", "--p", "3"],
        ["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "1"],
    ],
    ids=["tree", "graph", "satake", "moduli", "slope", "analytic"],
)
def test_a_command_loads_neither_argparse_nor_json(tmp_path, argv):
    from u3local.cosets import complete_biregular

    graph = tmp_path / "k39.graph"
    graph.write_text(complete_biregular(2).describe())
    argv = [a.format(graph=graph) for a in argv]
    code = "import u3local.cli\nprint(u3local.cli.main(sys.argv[2:]))"
    lines, loaded = _run_loaded(code, *argv)
    assert lines[-1] in ("0", "1")  # a verdict
    assert loaded & ARGV_ONLY == set()


def test_help_loads_argparse():
    code = (
        "import u3local.cli\n"
        "try:\n    u3local.cli.main(['-h'])\nexcept SystemExit as exc:\n    print(exc.code)"
    )
    lines, loaded = _run_loaded(code)
    assert lines[0].startswith("usage: u3local") and lines[-1] == "0"
    assert "argparse" in loaded


# graph constructors that only the tests call
TEST_ONLY_DEFS = {
    ("cosets", "parallel_multigraph"),
    ("cosets", "twisted_complete"),
    ("cosets", "disjoint_union"),
    ("cosets", "random_biregular_graph"),
}


def _unread_defs(sources: dict[str, str]) -> list[tuple[str, str]]:
    """The top-level functions and classes of the modules in ``sources`` (module
    name to source text) that no code outside their own body reads, by name or
    as an attribute."""
    defs, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                defs.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.append((sub.id, owner))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    reads.append((sub.attr, owner))
    readers = {}
    for name, owner in reads:
        readers.setdefault(name, set()).add(owner)
    return [d for d in defs if not readers.get(d[1], set()) - {d}]


def test_unread_defs_are_found():
    source = (
        "def a(n):\n    return a(n - 1) if n else 0\n"
        "def b():\n    return a(2)\n"
        "class C:\n    def a(self):\n        return C\n"
        "x = m.D\n"
    )
    assert _unread_defs({"m": source, "n": "class D:\n    pass\n"}) == [("m", "b"), ("m", "C")]


def test_every_def_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    exempt = {(module, attr) for module, attr in _targets()} | TEST_ONLY_DEFS
    assert [d for d in _unread_defs(sources) if d not in exempt] == []
