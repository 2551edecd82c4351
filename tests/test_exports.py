"""The package's exported names."""

import ast
from pathlib import Path

import catqkd

SRC = Path(catqkd.__file__).parent


def _used_names(path: Path):
    """Names a module reads, bare or as an attribute; definitions and imports are not uses."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_is_used_inside_the_package():
    used = {name for path in SRC.glob("*.py") if path.name != "__init__.py"
            for name in _used_names(path)}
    assert sorted(set(catqkd.__all__) - used) == []
