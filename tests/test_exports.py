"""Every name a module lists in ``__all__`` must resolve; no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrlink"

MODULES = ["corrlink", "corrlink.analysis", "corrlink.errors", "corrlink.estimators",
           "corrlink.harness", "corrlink.linalg", "corrlink.protocol", "corrlink.sources",
           "corrlink.statmath"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)


def unused_imports(source: str) -> list[str]:
    """Names a module imports (anywhere in it) but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_guard_sees_a_leftover():
    source = "from .errors import DomainError, ConfigurationError\n__all__ = ['f']\n" \
             "def f():\n    raise ConfigurationError('x')\n"
    assert unused_imports(source) == ["DomainError"]
