"""Simulation of continuous-variable multipartite unlockable bound entanglement.

Covariance-matrix Gaussian states, nullifier algebra, bound-state
constructors, separability tests and the unlocking / superactivation
measurement protocols, plus a CLI (``cvbound``).

Importing the package loads no numpy.  The five numpy-backed submodules are
registered as lazy modules (``importlib.util.LazyLoader``): each one, and
numpy with it, is executed on the first attribute read.  The names re-exported
below resolve the same way, through the module ``__getattr__`` of PEP 562.
The closed forms of ``cvbound.exact`` need no numpy at all.
"""

import importlib.util
import sys

from . import exact  # numpy-free, and small

__version__ = "0.1.0"

# the names each submodule re-exports through the package
_EXPORTS = {
    "states": (
        "GaussianState",
        "beamsplitter",
        "epr_pair",
        "partial_transpose",
        "quad_variance",
        "sample_oracle",
        "symplectic_eigenvalues",
        "symplectic_form",
        "tensor",
        "vacuum_state",
    ),
    "stabilizer": (
        "Bipartition",
        "Nullifier",
        "Partition",
        "is_complete_on",
        "nullifier_variance",
        "p_alternating_nullifier",
        "partition_commutation_table",
        "symplectic_phase",
        "x_sum_nullifier",
    ),
    "exact": ("BoundStateSpec", "duan_threshold_sigma_sq"),
    "factory": (
        "GROUP_12_34",
        "GROUP_13_24",
        "GROUP_14_23",
        "ConstructionVariant",
        "equivalent_construction",
        "smolin_cv_2n",
        "smolin_cv_four",
    ),
    "separability": (
        "SeparabilityVerdict",
        "duan_value",
        "log_negativity",
        "named_bipartition",
        "ppt_min_symplectic",
        "ppt_threshold_search",
    ),
    "protocols": (
        "ProtocolReport",
        "bell_measure",
        "measure_with_feedforward",
        "superactivate",
        "unlock",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_ORIGIN)


def _lazy_submodule(name: str):
    """Register ``cvbound.<name>`` in ``sys.modules`` without executing it yet."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


states = _lazy_submodule("states")
stabilizer = _lazy_submodule("stabilizer")
factory = _lazy_submodule("factory")
separability = _lazy_submodule("separability")
protocols = _lazy_submodule("protocols")


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
