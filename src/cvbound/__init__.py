"""Simulation of continuous-variable multipartite unlockable bound entanglement.

Covariance-matrix Gaussian states, nullifier algebra, bound-state
constructors, separability tests and the unlocking / superactivation
measurement protocols, plus a CLI (``cvbound``).
"""

from .states import (
    GaussianState,
    beamsplitter,
    epr_pair,
    partial_transpose,
    quad_variance,
    sample_oracle,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum_state,
)
from .stabilizer import (
    Bipartition,
    Nullifier,
    Partition,
    is_complete_on,
    nullifier_variance,
    p_alternating_nullifier,
    partition_commutation_table,
    symplectic_phase,
    x_sum_nullifier,
)
from .factory import (
    GROUP_12_34,
    GROUP_13_24,
    GROUP_14_23,
    BoundStateSpec,
    ConstructionVariant,
    equivalent_construction,
    smolin_cv_2n,
    smolin_cv_four,
)
from .separability import (
    SeparabilityVerdict,
    duan_threshold_sigma_sq,
    duan_value,
    log_negativity,
    named_bipartition,
    ppt_min_symplectic,
    ppt_threshold_search,
)
from .protocols import (
    ProtocolReport,
    bell_measure,
    measure_with_feedforward,
    superactivate,
    unlock,
)

__version__ = "0.1.0"
