"""The package's public names: each exported one exists, each one is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mixtvp

MODULES = ["mixtvp"] + [
    f"mixtvp.{info.name}" for info in pkgutil.iter_modules(mixtvp.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicated __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


SRC = Path(mixtvp.__file__).resolve().parent


def _unreferenced_names(private: bool) -> list[str]:
    """Module-level functions and classes that no ``src/`` code uses.

    ``private`` picks the ``_``-prefixed names instead of the public ones.
    A use is a name, an attribute or an imported name anywhere in the
    package outside the definition itself.  Names in ``mixtvp.__all__``
    are public surface and need no use.
    """
    defined: dict[str, ast.AST] = {}
    uses: dict[str, list[ast.AST]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_") == private:
                defined[f"{path.stem}.{top.name}"] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                uses.setdefault(name, []).append(top)
    return sorted(
        qualified
        for qualified, node in defined.items()
        if qualified.split(".")[1] not in mixtvp.__all__
        and all(top is node for top in uses.get(qualified.split(".")[1], []))
    )


def test_every_public_name_is_used_by_the_package_or_exported():
    assert _unreferenced_names(private=False) == []


def test_every_private_name_has_a_caller_in_the_package():
    # code that only the tests call belongs in the tests
    assert _unreferenced_names(private=True) == []
