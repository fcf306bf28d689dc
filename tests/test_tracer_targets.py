"""The benchmark tracer finds its targets by name; each name must still resolve.

``perfbench/tracer.py`` patches ``(module, attr)`` pairs on the package with
``getattr``, so a traced function that is deleted or renamed would otherwise
surface only when a traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"u3local.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
