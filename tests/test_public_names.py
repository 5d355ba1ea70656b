import importlib

import pytest

import cvbound

MODULES = ["states", "stabilizer", "factory", "separability", "protocols", "cli", "exact"]


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
    # the package may not keep re-exporting a name that its module dropped
    # from __all__; its re-exports are the lazy table read by its __getattr__
    assert set(cvbound._EXPORTS) == set(MODULES) - {"cli"}
    for module, names in cvbound._EXPORTS.items():
        exported = importlib.import_module(f"cvbound.{module}").__all__
        assert [name for name in names if name not in exported] == []
    for name in cvbound.__all__:
        assert getattr(cvbound, name) is getattr(importlib.import_module(f"cvbound.{cvbound._ORIGIN[name]}"), name)
    assert set(cvbound.__all__) <= set(dir(cvbound))
    namespace = {}
    exec("from cvbound import *", namespace)
    assert set(cvbound.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cvbound.no_such_name
