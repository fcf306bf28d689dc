"""What the package imports.

No module imports a name that it never reads.  A name bound by a module-level
import counts as read when the module loads it somewhere (an ``ast.Name`` in a
load context, which includes the base of an attribute access).  The one
exception is a name that ``perfbench/tracer.py`` patches in that module: the
tracer wraps the binding to see the calls made through it.

Every CLI command pays for the start-up of ``u3local.cli``, so the package does
not use ``dataclasses`` (with ``inspect`` and ``ast`` it costs about half of
that start-up), and ``hashlib`` is imported by the one function that takes a
digest.
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


def test_cli_start_up_stays_light():
    # -S: the modules that .pth files of site-packages load are not the package's
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import u3local.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "u3local.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "hashlib", "_hashlib"} == set()
