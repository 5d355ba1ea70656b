"""Nullifier algebra: quadrature combinations and their commutation phases.

A quadrature combination ``H = sum_k (a_k x_k + b_k p_k)`` is stored as its
interleaved coefficient vector ``(a_1, b_1, a_2, b_2, ...)``, the ordering of
``quad_variance``, the chain-noise patterns of ``factory`` and the protocol
readouts.  H generates the displacement ``exp(i H)``, and the displacements
of two combinations with coefficient vectors u and v commute up to the phase
``omega = u^T Omega v``, Omega the symplectic form; they commute as operators
exactly when omega vanishes.  H is called a nullifier of a state when the state has zero
variance in it; at finite squeezing the canonical constructions drive these
variances to zero exponentially instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# parity_sign is defined in the numpy-free exact module and re-exported here
from .exact import p_alternating_coeffs, parity_sign, x_sum_coeffs
from .states import GaussianState, quad_variance, symplectic_form

RANK_TOL = 1e-9

__all__ = [
    "Nullifier",
    "Partition",
    "Bipartition",
    "symplectic_phase",
    "partition_commutation_table",
    "all_local_commuting",
    "nullifier_variance",
    "is_complete_on",
    "x_sum_nullifier",
    "parity_sign",
    "p_alternating_nullifier",
]


@dataclass(frozen=True)
class Nullifier:
    """Quadrature combination H = sum(a_k x_k + b_k p_k), interleaved coeffs."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.shape[0] % 2:
            raise ValueError("coefficient vector must have even length")
        if not np.any(coeffs):
            raise ValueError("nullifier must be nonzero")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0] // 2

    def to_dict(self) -> dict:
        return {"ordering": "xp-interleaved", "coeffs": self.coeffs.tolist()}


@dataclass(frozen=True)
class Partition:
    """Disjoint mode subsets covering 0..n-1, the parties of a grouping."""

    subsets: tuple[tuple[int, ...], ...]

    def __init__(self, subsets):
        normalized = tuple(tuple(sorted(sub)) for sub in subsets)
        if any(len(sub) == 0 for sub in normalized):
            raise ValueError("partition subsets must be nonempty")
        flat = [m for sub in normalized for m in sub]
        if len(set(flat)) != len(flat):
            raise ValueError("partition subsets must be disjoint")
        if set(flat) != set(range(len(flat))):
            raise ValueError("partition subsets must cover modes 0..n-1")
        object.__setattr__(self, "subsets", normalized)

    @property
    def n_modes(self) -> int:
        return sum(len(sub) for sub in self.subsets)


class Bipartition(Partition):
    """A two-party partition, a cut ``side_a | side_b``."""

    def __init__(self, side_a, side_b):
        super().__init__((side_a, side_b))

    @property
    def side_a(self) -> tuple[int, ...]:
        return self.subsets[0]

    @property
    def side_b(self) -> tuple[int, ...]:
        return self.subsets[1]


def symplectic_phase(u: Nullifier, v: Nullifier) -> float:
    """Commutation phase omega(u, v) = u.coeffs^T Omega v.coeffs."""
    if u.n_modes != v.n_modes:
        raise ValueError("elements act on different mode counts")
    return float(u.coeffs @ symplectic_form(u.n_modes) @ v.coeffs)


def _local_phases(gens: list[Nullifier], subset) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of ``gens`` zeroed outside the modes of ``subset``, and their omega matrix.

    A row may be all zero, which :class:`Nullifier` refuses, so the rows stay an array.
    """
    n = gens[0].n_modes
    if any(g.n_modes != n for g in gens):
        raise ValueError("elements act on different mode counts")
    local = np.array([g.coeffs for g in gens]) * np.repeat(np.isin(np.arange(n), list(subset)), 2)
    return local, local @ symplectic_form(n) @ local.T


def partition_commutation_table(gens: list[Nullifier], part: Partition) -> np.ndarray:
    """omega values between local restrictions, one k x k table per subset.

    Returns an array of shape (len(part.subsets), k, k); entry [a, i, j] is
    omega of generators i and j with their coefficients zeroed outside
    subset a.
    """
    if not gens:
        raise ValueError("need at least one generator")
    return np.array([_local_phases(gens, sub)[1] for sub in part.subsets])


def all_local_commuting(table: np.ndarray) -> bool:
    """True when every entry of a commutation table vanishes within 1e-12."""
    return bool(np.abs(table).max() <= 1e-12)


def nullifier_variance(state: GaussianState, h: Nullifier) -> float:
    """Variance of the nullifier on the state, quad_variance with h.coeffs."""
    if h.n_modes != state.n_modes:
        raise ValueError("nullifier and state mode counts differ")
    return quad_variance(state, h.coeffs)


def is_complete_on(gens: list[Nullifier], subset) -> bool:
    """Do the restricted generators form a complete commuting set on ``subset``?

    True when the restrictions span an isotropic subspace of dimension equal
    to the subset size: their stacked coefficient vectors have rank
    len(subset) (singular values above RANK_TOL * largest) and all pairwise
    commutation phases vanish within RANK_TOL.  This is the counting
    criterion for pure entanglement being distillable inside the subset once
    the remaining parties measure jointly.
    """
    subset = set(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if not gens:
        return False
    local, phases = _local_phases(gens, subset)
    if (np.abs(np.triu(phases, 1)) > RANK_TOL).any():
        return False
    svals = np.linalg.svd(local, compute_uv=False)
    if svals[0] == 0.0:
        return False
    rank = int(np.sum(svals > RANK_TOL * svals[0]))
    return rank == len(subset)


def x_sum_nullifier(n_modes: int) -> Nullifier:
    """x_1 + x_2 + ... + x_n, the position-sum generator."""
    return Nullifier(x_sum_coeffs(n_modes))


def p_alternating_nullifier(n_modes: int) -> Nullifier:
    """p_1 - p_2 + p_3 - ..., the alternating momentum generator."""
    return Nullifier(p_alternating_coeffs(n_modes))

