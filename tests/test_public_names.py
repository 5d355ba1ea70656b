import ast
import importlib
import pathlib

import pytest

import cvbound

MODULES = ["states", "stabilizer", "factory", "separability", "protocols", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is removed breaks star-import
    module = importlib.import_module(f"cvbound.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from cvbound.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_only_exported_names():
    # the package may not keep re-exporting a name that its module dropped from __all__
    tree = ast.parse(pathlib.Path(cvbound.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        exported = importlib.import_module(f"cvbound.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []
