"""Nullifier and phase-space displacement (Pauli) algebra.

A displacement element is indexed by real parameter vectors ``s`` and ``t``
through ``U = exp(i * sum_k(-s_k p_k + t_k x_k))``.  Two elements commute up
to the phase ``omega = sum_k (s'_k t_k - s_k t'_k)``; they commute as
operators exactly when omega vanishes.  The Hermitian generator
``H = sum_k (a_k x_k + b_k p_k)`` of such an element is called a nullifier of
a state when the state has zero variance in it; at finite squeezing the
canonical constructions drive these variances to zero exponentially instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import GaussianState, quad_variance

RANK_TOL = 1e-9

__all__ = [
    "PauliElement",
    "Nullifier",
    "Partition",
    "Bipartition",
    "symplectic_phase",
    "commutes",
    "restrict",
    "partition_commutation_table",
    "all_local_commuting",
    "nullifier_variance",
    "is_complete_on",
    "x_sum_nullifier",
    "parity_sign",
    "p_alternating_nullifier",
    "x_sum_generator",
    "p_alternating_generator",
]


@dataclass(frozen=True)
class PauliElement:
    """Displacement element with X-parameters ``s`` and Z-parameters ``t``."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        t = np.array(self.t, dtype=float)
        if s.ndim != 1 or s.shape != t.shape:
            raise ValueError("s and t must be vectors of equal length")
        s.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0]

    def to_nullifier(self) -> "Nullifier":
        """Generator H with x-coefficients t and p-coefficients -s."""
        coeffs = np.empty(2 * self.n_modes)
        coeffs[0::2] = self.t
        coeffs[1::2] = -self.s
        return Nullifier(coeffs)


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

    def to_pauli(self) -> PauliElement:
        return PauliElement(s=-self.coeffs[1::2], t=self.coeffs[0::2])

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


def symplectic_phase(u: PauliElement, v: PauliElement) -> float:
    """Commutation phase omega(u, v) = sum_k (v.s_k u.t_k - u.s_k v.t_k)."""
    if u.n_modes != v.n_modes:
        raise ValueError("elements act on different mode counts")
    return float(v.s @ u.t - u.s @ v.t)


def commutes(u: PauliElement, v: PauliElement, tol: float = 1e-12) -> bool:
    return abs(symplectic_phase(u, v)) <= tol


def restrict(g: PauliElement, subset) -> PauliElement:
    """Zero all displacement parameters outside ``subset``.

    The restrictions over the subsets of any partition sum back to ``g``
    componentwise.
    """
    subset = set(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    mask = np.zeros(g.n_modes)
    for m in subset:
        mask[m] = 1.0
    return PauliElement(s=g.s * mask, t=g.t * mask)


def partition_commutation_table(gens: list[PauliElement], part: Partition) -> np.ndarray:
    """omega values between local restrictions, one k x k table per subset.

    Returns an array of shape (len(part.subsets), k, k); entry [a, i, j] is
    omega of generators i and j restricted to subset a.
    """
    if not gens:
        raise ValueError("need at least one generator")
    k = len(gens)
    table = np.zeros((len(part.subsets), k, k))
    for a, sub in enumerate(part.subsets):
        local = [restrict(g, sub) for g in gens]
        for i in range(k):
            for j in range(k):
                table[a, i, j] = symplectic_phase(local[i], local[j])
    return table


def all_local_commuting(table: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every entry of a commutation table vanishes within tol."""
    return bool(np.abs(table).max() <= tol)


def nullifier_variance(state: GaussianState, h: Nullifier) -> float:
    """Variance of the nullifier on the state, quad_variance with h.coeffs."""
    if h.n_modes != state.n_modes:
        raise ValueError("nullifier and state mode counts differ")
    return quad_variance(state, h.coeffs)


def is_complete_on(gens: list[PauliElement], subset, tol: float = RANK_TOL) -> bool:
    """Do the restricted generators form a complete commuting set on ``subset``?

    True when the restrictions span an isotropic subspace of dimension equal
    to the subset size: their stacked coefficient vectors have rank
    len(subset) (singular values above tol * largest) and all pairwise
    commutation phases vanish.  This is the counting criterion for pure
    entanglement being distillable inside the subset once the remaining
    parties measure jointly.
    """
    subset = set(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if not gens:
        return False
    local = [restrict(g, subset) for g in gens]
    for i in range(len(local)):
        for j in range(i + 1, len(local)):
            if abs(symplectic_phase(local[i], local[j])) > tol:
                return False
    rows = np.array([np.concatenate([g.s, g.t]) for g in local])
    svals = np.linalg.svd(rows, compute_uv=False)
    if svals[0] == 0.0:
        return False
    rank = int(np.sum(svals > tol * svals[0]))
    return rank == len(subset)


def x_sum_nullifier(n_modes: int) -> Nullifier:
    """x_1 + x_2 + ... + x_n, the position-sum generator."""
    coeffs = np.zeros(2 * n_modes)
    coeffs[0::2] = 1.0
    return Nullifier(coeffs)


def parity_sign(m: int) -> float:
    """Sign of p_m (0-based mode m) in the alternating momentum nullifier."""
    return 1.0 if m % 2 == 0 else -1.0


def p_alternating_nullifier(n_modes: int) -> Nullifier:
    """p_1 - p_2 + p_3 - ..., the alternating momentum generator."""
    coeffs = np.zeros(2 * n_modes)
    coeffs[1::2] = [parity_sign(m) for m in range(n_modes)]
    return Nullifier(coeffs)


def x_sum_generator(n_modes: int) -> PauliElement:
    """Displacement element of the position-sum nullifier (t = 1, s = 0)."""
    return PauliElement(s=np.zeros(n_modes), t=np.ones(n_modes))


def p_alternating_generator(n_modes: int) -> PauliElement:
    """Displacement element with alternating X-parameters s = (1, -1, 1, ...)."""
    return PauliElement(s=np.array([parity_sign(m) for m in range(n_modes)]), t=np.zeros(n_modes))
