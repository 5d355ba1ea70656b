"""Entanglement and separability verdicts for Gaussian states.

Verdict discipline: entanglement is only claimed from a strict witness
violation (a partial-transpose symplectic eigenvalue below 1/2, or a two-mode
sum/difference variance below 2).  A passing witness is *inconclusive* except
where it is genuinely conclusive: positivity of the partial transpose
certifies separability for one-mode-versus-one-mode cuts, and an explicit
mixture-of-products construction (``exact.construction_separable``)
certifies separability wherever it exists.
Bound entanglement lives exactly in the gap between those statements, so the
gap is surfaced rather than hidden.

The two-mode criterion used here reads var(x_i + x_j) + var(p_i - p_j) >= 2
for all separable states (in vacuum-variance-1/2 units); a value below 2
witnesses entanglement.  It is sometimes quoted in the literature as a
criterion "for separability"; the direction implemented is the standard one,
violation implies entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the tolerance, the verdict rules and the closed-form thresholds live in the
# numpy-free exact module, which the built-state commands use without this one
from .exact import VERDICT_TOL, duan_rule, duan_threshold_sigma_sq, ppt_rule, ppt_threshold_sigma
from .factory import GROUP_12_34, GROUP_13_24, GROUP_14_23, BoundStateSpec, smolin_cv_four
from .stabilizer import Bipartition
from .states import GaussianState, partial_transpose, quad_variance, symplectic_eigenvalues

_SEARCH_SIGMA_MAX = 10.0  # upper end of the noise bracket of ppt_threshold_search

__all__ = [
    "Bipartition",
    "SeparabilityVerdict",
    "FOUR_MODE_BIPARTITIONS",
    "named_bipartition",
    "ppt_min_symplectic",
    "log_negativity",
    "duan_value",
    "duan_threshold_sigma_sq",
    "ppt_threshold_sigma",
    "ppt_threshold_search",
    "ppt_verdict",
    "duan_verdict",
]


FOUR_MODE_BIPARTITIONS = {"12-34": GROUP_12_34, "14-23": GROUP_14_23, "13-24": GROUP_13_24}


def named_bipartition(label: str) -> Bipartition:
    """Four-mode 2:2 bipartition from its 1-based label, e.g. "14-23"."""
    try:
        return FOUR_MODE_BIPARTITIONS[label]
    except KeyError:
        raise ValueError(
            f"unknown bipartition label {label!r}; expected one of {sorted(FOUR_MODE_BIPARTITIONS)}"
        ) from None


@dataclass(frozen=True)
class SeparabilityVerdict:
    method: str  # ppt | duan
    verdict: str  # entangled | separable | inconclusive
    witness_value: float
    threshold: float

    def __post_init__(self):
        if self.method not in ("ppt", "duan"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.verdict not in ("entangled", "separable", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


def ppt_min_symplectic(state: GaussianState, bp: Bipartition) -> float:
    """Minimum symplectic eigenvalue of the partial transpose across ``bp``.

    A value below 1/2 witnesses entanglement (and distillability for 1xN
    cuts); a value at or above 1/2 is conclusive for separability only when
    both sides hold a single mode.
    """
    if bp.n_modes != state.n_modes:
        raise ValueError("bipartition does not match the state's mode count")
    return float(symplectic_eigenvalues(partial_transpose(state, bp.side_b)).min())


def log_negativity(state: GaussianState, bp: Bipartition) -> float:
    """Logarithmic negativity: sum of -log2(2 nu) over nu < 1/2, 0 when PPT.

    Raises ``ValueError`` when an eigenvalue is not positive: the spectrum
    comes from a positive-definite covariance matrix, so such a value is
    float64 rounding, and the log-negativity it would give is infinite.
    """
    if bp.n_modes != state.n_modes:
        raise ValueError("bipartition does not match the state's mode count")
    nus = symplectic_eigenvalues(partial_transpose(state, bp.side_b))
    if (nus <= 0).any():
        raise ValueError(
            "a partial-transpose symplectic eigenvalue rounded to 0: float64 cannot resolve this "
            "state's spectrum, so its log-negativity is undefined"
        )
    # the same cutoff as ppt_verdict, so the value is positive exactly when
    # the verdict is "entangled"; log2(1) = 0 stands in for the other terms,
    # and subtracting from 0.0 keeps an empty sum at +0
    below = nus < 0.5 - VERDICT_TOL
    return float(0.0 - np.log2(np.where(below, 2.0 * nus, 1.0)).sum())


def duan_value(state: GaussianState, i: int, j: int, sign: int = +1) -> float:
    """Two-mode witness var(x_i + x_j) + var(p_i - p_j) (sign = +1).

    With sign = -1 the pairing is var(x_i - x_j) + var(p_i + p_j).  Any value
    below 2 witnesses entanglement between modes i and j.
    """
    if i == j:
        raise ValueError("need two distinct modes")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = state.n_modes
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("mode index out of range")
    cx, cp = _duan_coeffs(n, i, j, sign)
    return quad_variance(state, cx) + quad_variance(state, cp)


def _duan_coeffs(n_modes: int, i: int, j: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature coefficients of x_i + sign x_j and p_i - sign p_j."""
    cx = np.zeros(2 * n_modes)
    cp = np.zeros(2 * n_modes)
    cx[2 * i], cx[2 * j] = 1.0, float(sign)
    cp[2 * i + 1], cp[2 * j + 1] = 1.0, -float(sign)
    return cx, cp


def ppt_threshold_search(r: float, bp: Bipartition, tol: float = 1e-6) -> float | None:
    """Noise strength at which the partial transpose across ``bp`` turns positive.

    Finds the sign change of nu_min(sigma) - 1/2 for the four-mode state with
    sigma_x = sigma_p = sigma on [0, 10] by :func:`_bracketed_root`, a
    safeguarded Illinois search, and returns the midpoint of a final bracket at
    most ``tol`` wide.  Each gap evaluation builds the state, which is
    physical by construction and runs no Williamson check of its own, and
    takes one partial-transpose spectrum.  On the 14-23 cut, for r in
    [0.005, 3.34] at tol 1e-6 or 1e-8, it
    takes the two end points plus a median of 5 (at most 13) interior
    evaluations, where a bisection takes 24 or 30.  Returns None when there
    is no strict sign change (the cut is NPT throughout, or never NPT to
    begin with).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    floor = 2 * np.spacing(_SEARCH_SIGMA_MAX)  # a narrower bracket may hold no float strictly inside
    if tol < floor:
        raise ValueError(f"tolerance must be at least twice the float spacing at sigma = {_SEARCH_SIGMA_MAX:g}, {floor:.3g}")

    def gap(sigma: float) -> float:
        spec = BoundStateSpec(n_pairs=2, r=r, sigma_x=sigma, sigma_p=sigma)
        return ppt_min_symplectic(smolin_cv_four(spec), bp) - 0.5

    guard = 1e-9  # treat eigenvalues numerically at 1/2 as non-crossing
    gap_lo, gap_hi = gap(0.0), gap(_SEARCH_SIGMA_MAX)
    if not (gap_lo < -guard and gap_hi > guard) and not (gap_lo > guard and gap_hi < -guard):
        return None
    lo, hi = _bracketed_root(gap, 0.0, _SEARCH_SIGMA_MAX, gap_lo, gap_hi, tol)
    return 0.5 * (lo + hi)


def _bracketed_root(gap, lo: float, hi: float, gap_lo: float, gap_hi: float, tol: float) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` around a sign change of ``gap`` to at most ``tol`` wide.

    ``gap_lo`` and ``gap_hi`` are gap(lo) and gap(hi), one negative and one
    not (zero counts with the positive side).  Each step evaluates the
    false-position point of the bracket, held tol/2 inside it.  When the same
    end survives two steps in a row its stored value is halved, the Illinois
    rule of M. Dowell and P. Jarratt, BIT 11, 168 (1971), which keeps the
    convergence superlinear on a smooth gap.  Whenever the last three steps
    have not halved the bracket the step is a plain midpoint instead, so a
    bracket of width W needs at most 4 ceil(log2(W / tol)) evaluations of
    ``gap`` whatever its shape.  Returns the final bracket.
    """
    # the sign at lo never changes; it is kept apart from gap_lo, which the
    # halving could take to -0.0
    lo_negative = gap_lo < 0
    widths = [hi - lo]
    kept = None  # the end that survived the last step: "lo" or "hi"
    while hi - lo > tol:
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (lo + hi)
        else:
            x = hi - gap_hi * (hi - lo) / (gap_hi - gap_lo)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        gap_x = gap(x)
        if (gap_x < 0) == lo_negative:
            lo, gap_lo = x, gap_x
            if kept == "hi":
                gap_hi *= 0.5
            kept = "hi"
        else:
            hi, gap_hi = x, gap_x
            if kept == "lo":
                gap_lo *= 0.5
            kept = "lo"
        widths.append(hi - lo)
    return lo, hi


def ppt_verdict(state: GaussianState, bp: Bipartition) -> SeparabilityVerdict:
    """PPT test with the one-sidedness discipline described in the module docstring."""
    nu_min = ppt_min_symplectic(state, bp)
    one_by_one = len(bp.side_a) == 1 and len(bp.side_b) == 1
    return SeparabilityVerdict("ppt", ppt_rule(nu_min, one_by_one), nu_min, 0.5)


def duan_verdict(value: float) -> SeparabilityVerdict:
    return SeparabilityVerdict("duan", duan_rule(value), value, 2.0)
