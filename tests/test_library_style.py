"""Library-wide rules checked on the source, not on behaviour."""

from __future__ import annotations

import ast
from pathlib import Path

import patsim

SRC = Path(patsim.__file__).resolve().parent


def test_no_print_outside_the_cli():
    # diagnostics go through logging or the trace; only the CLI writes
    # to the terminal
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert sorted(p.name for p in SRC.glob("*.py")) != ["cli.py"]
    assert calls == []
