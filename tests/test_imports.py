"""Every name a racsim module imports is read by that module.

__init__.py is left out: it imports names in order to export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "racsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression in it
    reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "detection.py", "graph.py", "sim.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n", ["field (line 1)"]),
        ("import json\nx = json.loads('1')\n", []),
        ("import os.path\n", ["os (line 1)"]),
        ("from typing import Optional as Opt\ndef f() -> Opt[int]: pass\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=["unused-from", "attribute-read", "unused-dotted", "aliased-annotation", "future"],
)
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused
