"""Smoke test: the shipped examples that drive the runtime API directly.

Each example's ``main()`` runs at its own (tiny) size and must complete;
the examples assert their own results, so a runtime API change that
breaks them fails here instead of silently in the docs.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["quickstart", "programmability",
                                  "protocol_trace"])
def test_example_main_runs(name, capsys):
    load(name).main()
    assert capsys.readouterr().out.strip()
