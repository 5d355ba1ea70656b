import importlib

import pytest

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
