"""Measurement protocols: homodyne conditioning, joint sum/difference
measurements with unit-gain feedforward, entanglement unlocking, and two-copy
superactivation.

Two measurement semantics appear here and they are not the same thing:

* :func:`homodyne_condition` is plain Gaussian conditioning.  The conditioned
  covariance is the Schur complement of the measured quadrature block and is
  outcome independent; the outcome-dependent mean is cancelled by the
  (regression-gain) displacement, leaving the averaged mean.

* :func:`bell_measure` and the protocols model the broadcast-and-displace
  scheme with *unit* feedforward gain.  The receiver adds the communicated
  outcomes to its own quadratures with gain of magnitude 1, so the surviving
  ensemble is Gaussian with moments obtained by the linear map
  ``R_out = (P + G L) R``: P selects the surviving quadratures, L the
  measured combinations and G the gains.  Its covariance ``M cov M^T``
  equals the Schur-conditioned covariance plus the positive residue of the
  gain mismatch, hence every conditioned state is physical.  Unit gain is
  what makes the corrected survivor combinations equal the global nullifiers
  exactly, which is why the protocol witnesses come out at 2 exp(-2r) per
  copy independent of the classical noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factory import BoundStateSpec, smolin_cv_four
from .separability import _duan_coeffs, duan_value, duan_verdict
from .stabilizer import parity_sign
from .states import GaussianState, quad_variance, symplectic_form, tensor

PINV_CUTOFF = 1e-12
COMMUTE_TOL = 1e-10

__all__ = [
    "ProtocolReport",
    "homodyne_condition",
    "measure_with_feedforward",
    "bell_measure",
    "unlock",
    "superactivate",
]


@dataclass(frozen=True)
class ProtocolReport:
    """Result of an unlocking or superactivation run."""

    surviving_modes: tuple[int, ...]
    conditioned_state: GaussianState
    witness_sum_x: float
    witness_diff_p: float
    duan_plus: float
    duan_minus: float
    duan: float
    entangled: bool
    params: dict

    def to_dict(self) -> dict:
        return {
            "survivors": list(self.surviving_modes),
            "witness_sum_x": self.witness_sum_x,
            "witness_diff_p": self.witness_diff_p,
            "duan": self.duan,
            "duan_plus": self.duan_plus,
            "duan_minus": self.duan_minus,
            "entangled": self.entangled,
            "params": self.params,
        }


def homodyne_condition(state: GaussianState, mode: int, quad: str) -> GaussianState:
    """Condition on an ideal homodyne measurement of one quadrature.

    Removes the measured mode.  The remaining covariance is
    ``A - B (pi C pi)^+ B^T`` with A/B/C the kept, cross and measured blocks,
    pi the projector onto the measured quadrature and a pseudo-inverse cutoff
    of 1e-12 (singular measured directions simply drop out).  The mean is the
    outcome-averaged one, i.e. the kept entries unchanged.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise ValueError("mode index out of range")
    if n < 2:
        raise ValueError("conditioning would leave no modes")
    if quad not in ("x", "p"):
        raise ValueError("quad must be 'x' or 'p'")
    meas = [2 * mode, 2 * mode + 1]
    keep = [q for q in range(2 * n) if q not in meas]
    A = state.cov[np.ix_(keep, keep)]
    B = state.cov[np.ix_(keep, meas)]
    C = state.cov[np.ix_(meas, meas)]
    pi = np.diag([1.0, 0.0]) if quad == "x" else np.diag([0.0, 1.0])
    inv = np.linalg.pinv(pi @ C @ pi, rcond=PINV_CUTOFF, hermitian=True)
    return GaussianState(state.mean[keep], A - B @ inv @ B.T)


def _support_modes(combo: np.ndarray) -> set[int]:
    return {q // 2 for q in np.nonzero(combo)[0]}


def measure_with_feedforward(
    state: GaussianState,
    removed_modes,
    measured_combos,
    corrections,
) -> GaussianState:
    """Ensemble state after measuring quadrature combinations and displacing.

    ``measured_combos`` are coefficient vectors (length 2n) of pairwise
    commuting quadrature combinations supported only on ``removed_modes``,
    which are destroyed by the measurement.  Each correction
    ``(mode, quad, gain, combo_index)`` adds gain times the broadcast outcome
    of a combo to a surviving quadrature.  The output moments are the exact
    Gaussian ensemble moments ``M mean`` and ``M cov M^T`` with
    ``M = P + G L`` (see module docstring); output modes keep ascending
    order of the surviving indices.
    """
    n = state.n_modes
    removed = sorted(set(removed_modes))
    if not removed or len(removed) >= n:
        raise ValueError("removed modes must be a nonempty proper subset")
    if removed[0] < 0 or removed[-1] >= n:
        raise ValueError("mode index out of range")
    survivors = [m for m in range(n) if m not in removed]
    combos = [np.asarray(c, dtype=float) for c in measured_combos]
    omega = symplectic_form(n)
    for k, c in enumerate(combos):
        if c.shape != (2 * n,):
            raise ValueError("measured combination has wrong length")
        if not _support_modes(c) <= set(removed):
            raise ValueError("measured combinations must be supported on the removed modes")
        for c2 in combos[k + 1 :]:
            if abs(c @ omega @ c2) > COMMUTE_TOL:
                raise ValueError("measured combinations must commute pairwise")
    if combos and np.linalg.matrix_rank(np.array(combos)) > len(removed):
        raise ValueError("more independent commuting combinations than destroyed modes")

    row_of = {}
    M = np.zeros((2 * len(survivors), 2 * n))
    for out, m in enumerate(survivors):
        for q in (0, 1):
            row_of[(m, q)] = 2 * out + q
            M[2 * out + q, 2 * m + q] = 1.0
    for mode, quad, gain, combo_index in corrections:
        if mode not in set(survivors):
            raise ValueError("feedforward must target a surviving mode")
        if quad not in ("x", "p"):
            raise ValueError("quad must be 'x' or 'p'")
        M[row_of[(mode, 0 if quad == "x" else 1)]] += gain * combos[combo_index]
    return GaussianState(M @ state.mean, M @ state.cov @ M.T)


def _joint_readout(n_modes: int, pairs, target: int) -> tuple[list[np.ndarray], list[tuple]]:
    """Readout vectors and unit-gain feedforward of joint measurements on ``pairs``.

    Pair (i, j) is read out as (x_i + x_j, p_i - p_j) and both outcomes go to
    mode ``target``: x with gain 1, p with ``eps_target * eps_i`` when i and j
    differ in mode parity (1 otherwise), so that on the canonical family the
    corrected target reproduces the global nullifiers.  Pair by pair, x first.
    """
    combos, corrections = [], []
    for i, j in pairs:
        y1, y2 = _duan_coeffs(n_modes, i, j, +1)
        mixed = parity_sign(i) != parity_sign(j)
        p_gain = parity_sign(target) * parity_sign(i) if mixed else 1.0
        corrections += [(target, "x", 1.0, len(combos)), (target, "p", p_gain, len(combos) + 1)]
        combos += [y1, y2]
    return combos, corrections


def bell_measure(state: GaussianState, i: int, j: int) -> GaussianState:
    """Joint measurement of (x_i + x_j, p_i - p_j) with unit-gain feedforward.

    Optically this is a balanced beamsplitter on (i, j) followed by an x
    homodyne on one port and a p homodyne on the other; the outcomes are
    broadcast and added to the lowest surviving mode with the gains of
    :func:`_joint_readout`.
    """
    n = state.n_modes
    if i == j:
        raise ValueError("need two distinct modes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("mode index out of range")
    if n < 3:
        raise ValueError("measurement would leave no modes")
    i, j = min(i, j), max(i, j)
    target = min(m for m in range(n) if m not in (i, j))
    combos, corrections = _joint_readout(n, [(i, j)], target)
    return measure_with_feedforward(state, (i, j), combos, corrections)


def _pair_report(conditioned: GaussianState, survivors, params: dict) -> ProtocolReport:
    wx, wp = (quad_variance(conditioned, c) for c in _duan_coeffs(2, 0, 1, +1))
    duan_plus = wx + wp
    duan_minus = duan_value(conditioned, 0, 1, -1)
    duan = min(duan_plus, duan_minus)
    return ProtocolReport(
        surviving_modes=tuple(survivors),
        conditioned_state=conditioned,
        witness_sum_x=wx,
        witness_diff_p=wp,
        duan_plus=duan_plus,
        duan_minus=duan_minus,
        duan=duan,
        entangled=duan_verdict(duan).verdict == "entangled",
        params=params,
    )


def unlock(spec: BoundStateSpec, measured_pair) -> ProtocolReport:
    """Measure two modes of the four-mode state jointly and report the rest.

    Measuring a mixed-parity pair ({0,3}, {1,2}, {0,1} or {2,3}) leaves the
    survivors with both witness variances equal to 2 exp(-2r), independent of
    the noise strengths: the unit-gain corrections turn the survivor sum and
    difference into the two global nullifiers.  Measuring {0,2} or {1,3}
    cannot align the momentum correction with the alternating nullifier (the
    local restrictions fail to commute there) and establishes nothing.
    """
    i, j = measured_pair
    if i == j or not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("measured pair must be two distinct modes of 0..3")
    if spec.n_pairs != 2:
        raise ValueError("unlocking is defined for the four-mode state")
    state = smolin_cv_four(spec)
    conditioned = bell_measure(state, i, j)
    survivors = [m for m in range(4) if m not in (i, j)]
    params = dict(spec.to_dict(), measured_pair=sorted((i, j)))
    return _pair_report(conditioned, survivors, params)


# measured party pairs of the two-copy protocol and the mode that receives the
# outcomes; copy A holds modes 0..3, copy B holds modes 4..7
_SUPERACTIVATION_PAIRS = ((0, 5), (1, 6), (2, 7))
_RECEIVER_MODE = 3


def superactivate(spec: BoundStateSpec) -> ProtocolReport:
    """Distill a squeezed pair from two copies of the four-mode state.

    Three parties each hold one mode of either copy and measure their pairs
    (0,5), (1,6), (2,7) jointly; the receiver (mode 3) adds the broadcast
    x outcomes with gains (+1, +1, +1) and the p outcomes with gains
    (-1, +1, -1), the mode-parity rule of :func:`_joint_readout`.  The
    corrected receiver and the untouched far mode 4 are then left with
    var(x_4 + x_3') = var(p_4 - p_3') = 4 exp(-2r): each corrected
    combination is the sum of one nullifier from each copy, two independent
    terms of variance 2 exp(-2r) apiece.
    """
    if spec.n_pairs != 2:
        raise ValueError("superactivation is defined for the four-mode state")
    one_copy = smolin_cv_four(spec)
    state = tensor(one_copy, one_copy)
    combos, corrections = _joint_readout(state.n_modes, _SUPERACTIVATION_PAIRS, _RECEIVER_MODE)
    removed = sorted(m for pair in _SUPERACTIVATION_PAIRS for m in pair)
    conditioned = measure_with_feedforward(state, removed, combos, corrections)
    params = dict(spec.to_dict(), measured_pairs=[list(p) for p in _SUPERACTIVATION_PAIRS])
    return _pair_report(conditioned, (3, 4), params)
