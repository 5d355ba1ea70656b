"""Closed forms of the built bound-state family, on Python floats.

Every number that the built-state commands (``sep-check`` without
``--state``, ``sweep``, ``nullifiers``, ``unlock`` and ``superactivate``)
print comes from this module.  It imports no numpy: those commands need no
matrix, and the import was most of their run time.  The parameter rules of the family
(:class:`BoundStateSpec` and its caps), the cut labels, the nullifier sign
``parity_sign``, the verdict tolerance and the verdict rules also live here,
so that the matrix code in the other modules reads the same definitions.

The family (``factory.smolin_cv_2n``) is n squeezed pairs on modes
(2k, 2k+1) plus classical displacement noise along a chain of n - 1
nearest-neighbour pair patterns.  In the interleaved ordering
(x_0, p_0, x_1, p_1, ...) its covariance has no x-p correlations.  With
C = cosh(2r)/2 and S = sinh(2r)/2, pair k contributes C on its four
diagonal entries, -S between its two x's and +S between its two p's; chain
link k adds sigma_x^2 px px^T and sigma_p^2 pp pp^T, where px puts +1 on the
x's of pair k and -1 on the x's of pair k + 1, and pp puts -eps_m on p_m for
the modes m of pair k and +eps_m for those of pair k + 1 (eps_m =
``parity_sign(m)``).

Each closed form below is written as a sum of non-negative terms in
e^{-2r} and e^{2r}, with no difference of cosh and sinh, so its relative
error is a few units in the last place at every accepted r and sigma.  The
float64 matrix path loses roughly a factor e^{4r} more: from about r = 3.8
its 12-34 nu_min reads below 1/2 - 1e-10.
"""

from __future__ import annotations

import math
import sys

# the squeezing cap: e^{2r} and its square stay far from overflow
MAX_SQUEEZING = 20.0
# building the (4n, 4n) state of n pairs peaks at 578 MB for 512 pairs and
# 2.1 GB for 1024; the largest count in use is 32
MAX_PAIRS = 512
# sigma is squared as a Python float, which overflows above this
MAX_SIGMA = math.sqrt(sys.float_info.max)
# a witness must pass its threshold by more than this to count
VERDICT_TOL = 1e-10

# the four-mode 2:2 cuts by their 1-based labels, as 0-based (side_a, side_b)
FOUR_MODE_CUTS = {"12-34": ((0, 1), (2, 3)), "14-23": ((0, 3), (1, 2)), "13-24": ((0, 2), (1, 3))}

# measured party pairs of the two-copy protocol and the mode that receives the
# outcomes; copy A holds modes 0..3, copy B holds modes 4..7
SUPERACTIVATION_PAIRS = ((0, 5), (1, 6), (2, 7))
RECEIVER_MODE = 3

__all__ = [
    "MAX_SQUEEZING",
    "MAX_PAIRS",
    "MAX_SIGMA",
    "VERDICT_TOL",
    "FOUR_MODE_CUTS",
    "SUPERACTIVATION_PAIRS",
    "RECEIVER_MODE",
    "BoundStateSpec",
    "parity_sign",
    "x_sum_coeffs",
    "p_alternating_coeffs",
    "feedforward_p_gain",
    "ppt_rule",
    "duan_rule",
    "duan_threshold_sigma_sq",
    "ppt_threshold_sigma",
    "construction_separable",
    "variance",
    "nullifier_variances",
    "commutation_table",
    "cut_nu_squared",
    "cut_report",
    "unlock_report",
    "superactivation_report",
]


class BoundStateSpec:
    """Parameters of the bound-state family: pair count, squeezing, noise.

    Immutable, and compared, hashed and pickled by value, like a frozen
    dataclass.  It is written out because importing ``dataclasses`` (and
    ``inspect`` with it) took about 12 ms of the ~100 ms a numpy-free command
    takes in a fresh process.
    """

    __slots__ = ("n_pairs", "r", "sigma_x", "sigma_p")

    def __init__(self, n_pairs: int = 2, r: float = 1.0, sigma_x: float = 1.0, sigma_p: float = 1.0):
        if not float(n_pairs).is_integer() or int(n_pairs) != n_pairs or n_pairs < 2:
            raise ValueError("n_pairs must be an integer >= 2")
        n_pairs = int(n_pairs)  # 2.0 becomes 2, as range() needs
        if n_pairs > MAX_PAIRS:
            raise ValueError(f"n_pairs must be at most {MAX_PAIRS}: the state takes memory quadratic in n_pairs")
        if not 0.0 <= r <= MAX_SQUEEZING:
            raise ValueError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING:g}]")
        if sigma_x < 0 or sigma_p < 0:
            raise ValueError("noise strengths must be nonnegative")
        if not (sigma_x < math.inf and sigma_p < math.inf):  # NaN compares False too
            raise ValueError("noise strengths must be finite")
        if max(sigma_x, sigma_p) > MAX_SIGMA:
            raise ValueError(f"noise strengths must be at most sqrt(largest float) = {MAX_SIGMA:.12g}")
        for name, value in zip(self.__slots__, (n_pairs, r, sigma_x, sigma_p)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable BoundStateSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable BoundStateSpec")

    def _fields(self) -> tuple:
        return self.n_pairs, self.r, self.sigma_x, self.sigma_p

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        return "BoundStateSpec({})".format(", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields())))

    @property
    def n_modes(self) -> int:
        return 2 * self.n_pairs

    def to_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "r": self.r,
            "sigma_x": self.sigma_x,
            "sigma_p": self.sigma_p,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundStateSpec":
        try:
            n_pairs = data["n_pairs"]  # int() alone would truncate 2.9; the string "3" stands for 3
            if not isinstance(n_pairs, str) and int(n_pairs) != n_pairs:
                raise ValueError("n_pairs must be an integer >= 2")
            return cls(
                n_pairs=int(n_pairs),
                r=float(data["r"]),
                sigma_x=float(data["sigma_x"]),
                sigma_p=float(data["sigma_p"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed state spec: {exc}") from exc


def parity_sign(m: int) -> float:
    """Sign of p_m (0-based mode m) in the alternating momentum nullifier."""
    return 1.0 if m % 2 == 0 else -1.0


def x_sum_coeffs(n_modes: int) -> list[float]:
    """Interleaved coefficients of x_1 + x_2 + ... + x_n."""
    return [1.0, 0.0] * n_modes


def p_alternating_coeffs(n_modes: int) -> list[float]:
    """Interleaved coefficients of p_1 - p_2 + p_3 - ..."""
    return [v for m in range(n_modes) for v in (0.0, parity_sign(m))]


def feedforward_p_gain(target: int, i: int, j: int) -> float:
    """Gain with which the p outcome of a joint (i, j) readout is added to mode ``target``.

    eps_target * eps_i when i and j differ in mode parity, 1 otherwise: on the
    canonical family the corrected target then reproduces the alternating
    nullifier.
    """
    return parity_sign(target) * parity_sign(i) if parity_sign(i) != parity_sign(j) else 1.0


def ppt_rule(nu_min: float, one_by_one: bool) -> str:
    """PPT verdict of a cut from its smallest partial-transpose symplectic eigenvalue.

    "entangled" below 1/2 by more than ``VERDICT_TOL``; otherwise "separable"
    for a one-mode-versus-one-mode cut, where PPT is conclusive, and
    "inconclusive" for any larger cut.
    """
    if nu_min < 0.5 - VERDICT_TOL:
        return "entangled"
    return "separable" if one_by_one else "inconclusive"


def duan_rule(value: float) -> str:
    """Two-mode witness verdict: "entangled" below 2 by more than ``VERDICT_TOL``."""
    return "entangled" if value < 2.0 - VERDICT_TOL else "inconclusive"


def duan_threshold_sigma_sq(r: float) -> float:
    """Displacement-noise variance at which the two-mode witness reaches 2.

    For a squeezed pair carrying common-mode x displacements of variance v,
    the witness reads 2 exp(-2r) + 4 v; it meets the separability bound at
    v = (1 - exp(-2r)) / 2, the minimum noise strength the mixer must supply.
    It is computed as -expm1(-2r) / 2, which does not cancel at small r, and
    is +0.0 at r = -0.0 as at r = 0.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    return 0.0 - math.expm1(-2.0 * r) / 2.0


def ppt_threshold_sigma(r: float) -> float | None:
    """Noise strength sqrt(sinh(2r)/4) at which the 14-23 cut turns PPT.

    With sigma_x = sigma_p = sigma the four-mode state is NPT across 14-23
    below this value and PPT from it on (see :func:`cut_nu_squared`); it is
    also where the {0,3 | 1,2} mixture recipe of
    ``factory.equivalent_construction`` becomes feasible.  Returns None at
    r = 0, where the state is PPT for every sigma.
    ``separability.ppt_threshold_search`` finds the same value numerically.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    if r == 0:
        return None
    return math.sqrt(math.sinh(2 * r) / 4.0)


def construction_separable(label: str, r: float, min_sigma_sq: float) -> bool:
    """Whether the four-mode state's own recipe is a mixture of products across ``label``.

    ``min_sigma_sq`` is min(sigma_x, sigma_p)**2.  12-34 is always a mixture
    of pair products, 14-23 is one when min_sigma_sq reaches sinh(2r)/4, and
    13-24 only when its noise-free pair is not entangled, at r = 0 (or -0.0):
    for every r > 0 the pair's nu = e^{-2r}/2 is below 1/2, however little.
    """
    if label == "12-34":
        return True
    if label == "14-23":
        return min_sigma_sq >= math.sinh(2 * r) / 4.0
    if label == "13-24":
        return r == 0
    raise ValueError(f"unknown bipartition label {label!r}")


def variance(spec: BoundStateSpec, coeffs) -> float:
    """Variance of the quadrature combination ``coeffs`` on the state of ``spec``'s family.

    ``coeffs`` is interleaved, of length 4k for a state of k pairs; k need
    not equal ``spec.n_pairs`` (the two-copy protocol sums one call per
    copy).  With e = e^{-2r} and E = e^{2r}, pair (a, b) with x-coefficients
    (u, v) and p-coefficients (u', v') contributes

        u^2 C + v^2 C - 2 u v S     = ((u + v)^2 e + (u - v)^2 E) / 4,
        u'^2 C + v'^2 C + 2 u' v' S = ((u' + v')^2 E + (u' - v')^2 e) / 4,

    because C - S = e/2 and C + S = E/2.  Chain link k contributes
    sigma_x^2 (c.px)^2 + sigma_p^2 (c.pp)^2.  There are no x-p terms, and
    every term is non-negative, so nothing cancels.  A term whose true value
    exceeds the largest float is inf.
    """
    if len(coeffs) % 4:
        raise ValueError("coefficient vector must cover whole pairs")
    e, E = math.exp(-2.0 * spec.r), math.exp(2.0 * spec.r)
    total = 0.0
    dots = []  # per pair: sum of its x coefficients, eps-weighted sum of its p coefficients
    for k in range(0, len(coeffs), 4):
        u, up, v, vp = coeffs[k : k + 4]
        total += ((u + v) ** 2 * e + (u - v) ** 2 * E + (up + vp) ** 2 * E + (up - vp) ** 2 * e) / 4.0
        dots.append((u + v, up - vp))  # eps = +1 on the pair's even mode, -1 on its odd mode
    for (x_here, p_here), (x_next, p_next) in zip(dots, dots[1:]):
        dx, dp = x_here - x_next, p_next - p_here
        # skip zero dot products: 0 * sigma^2 is 0, and the square is only
        # needed where the pattern reaches the combination
        if dx:
            total += spec.sigma_x**2 * dx**2
        if dp:
            total += spec.sigma_p**2 * dp**2
    return total


def nullifier_variances(spec: BoundStateSpec) -> tuple[float, float]:
    """Variances of the x-sum and alternating-p nullifiers: n_pairs e^{-2r} each.

    Each pair contributes (2^2 e) / 4 = e, and each chain pattern is
    orthogonal to both nullifiers, so the noise drops out exactly.
    """
    n = spec.n_modes
    return variance(spec, x_sum_coeffs(n)), variance(spec, p_alternating_coeffs(n))


def commutation_table(subset) -> list[list[float]]:
    """omega table of the two canonical nullifiers restricted to the modes of ``subset``.

    The x-sum restricted to S is sum_{m in S} x_m and the alternating sum is
    sum_{m in S} eps_m p_m; with omega(x_m, p_m) = 1 their phase is
    s = sum_{m in S} eps_m, so the table is [[0, s], [-s, 0]].  This is what
    ``stabilizer.partition_commutation_table`` gives for the pair of them.
    """
    s = sum(parity_sign(m) for m in subset)
    return [[0.0, s], [0.0 - s, 0.0]]  # 0.0 - s keeps +0.0 where s = 0


def cut_nu_squared(spec: BoundStateSpec, label: str) -> tuple[float, float, float, float]:
    """Squared symplectic eigenvalues of the four-mode state's partial transpose across ``label``.

    Without x-p correlations the covariance is X + P (x block and p block),
    and the partial transpose only flips p signs, P -> T P T with T diagonal
    +-1.  The symplectic eigenvalues of such a matrix are the square roots
    of the eigenvalues of X T P T.  Let J swap the partners of each pair,
    px = (1, 1, -1, -1), pp = (-1, 1, 1, -1), a = sigma_x^2, b = sigma_p^2,
    e = e^{-2r} and E = e^{2r}; then X = C - S J + a px px^T and
    P = C + S J + b pp pp^T, with C - S = e/2 and C + S = E/2.  J has
    eigenvalue +1 on w1 = (1, 1, 0, 0) and w3 = (0, 0, 1, 1), and -1 on
    w2 = (1, -1, 0, 0) and w4 = (0, 0, 1, -1); px = w1 - w3 and
    |px|^2 = |pp|^2 = 4.

    * 12-34: T J T = J and T pp = -(w2 + w4).  On (w1, w3), X = e/2 +
      a px px^T and T P T = E/2; on (w2, w4), X = E/2 and T P T = e/2 +
      b (T pp)(T pp)^T.  So nu^2 = 1/4, 1/4, 1/4 + 2aE, 1/4 + 2bE.
    * 14-23: T J T = -J and T pp = -(w1 + w3).  On (w2, w4) both are E/2,
      so nu^2 = E^2/4 twice.  On (w1, w3), X and T P T are both diagonal
      in (w1 - w3, w1 + w3): X = (e/2 + 4a, e/2) and T P T = (e/2,
      e/2 + 4b), so nu^2 = e^2/4 + 2ae and e^2/4 + 2be.
    * 13-24: T J T = -J and T pp = -px.  On (w2, w4) nu^2 = E^2/4 twice.
      On (w1, w3), X = (e/2 + 4a, e/2) and T P T = (e/2 + 4b, e/2) in the
      same basis, so nu^2 = (e/2 + 4a)(e/2 + 4b) and e^2/4.

    So nu_min is 1/2 exactly on 12-34 and e/2 on 13-24 at every noise.  The
    values are in that order; one whose true value exceeds the largest float
    is inf, and never the smallest.
    """
    e, E = math.exp(-2.0 * spec.r), math.exp(2.0 * spec.r)
    a, b = spec.sigma_x**2, spec.sigma_p**2
    if label == "12-34":
        return 0.25, 0.25, 0.25 + 2.0 * (a * E), 0.25 + 2.0 * (b * E)
    if label == "14-23":
        return E * E / 4.0, E * E / 4.0, e * e / 4.0 + 2.0 * (a * e), e * e / 4.0 + 2.0 * (b * e)
    if label == "13-24":
        return e * e / 4.0, E * E / 4.0, E * E / 4.0, (e / 2.0 + 4.0 * a) * (e / 2.0 + 4.0 * b)
    raise ValueError(f"unknown bipartition label {label!r}")


def _four_mode(spec: BoundStateSpec, what: str) -> None:
    if spec.n_pairs != 2:
        raise ValueError(f"{what} defined for the four-mode state")


def _unit_vector(n_modes: int, quad: int, mode: int) -> list[float]:
    c = [0.0] * (2 * n_modes)
    c[2 * mode + quad] = 1.0
    return c


def cut_report(spec: BoundStateSpec, label: str) -> dict:
    """nu_min, log-negativity, smallest cross two-mode witness and PPT verdict across ``label``.

    The log-negativity sums -log2(2 nu) = -log2(4 nu^2) / 2 over the nu below
    1/2 - ``VERDICT_TOL``, the cutoff of the PPT verdict, so it is positive
    exactly when the verdict is "entangled".

    The witness is the minimum of var(x_i + s x_j) + var(p_i - s p_j) over i
    in side_a, j in side_b and s = +-1; with :func:`variance`'s pair and
    chain terms, a = sigma_x^2 and b = sigma_p^2:

    * i, j one pair: the pair gives 2e at s = +1 and 2E at s = -1, and the
      chain link sees x and p sums 1 + s, so 2e + 4(a + b) and 2E.
    * i, j in different pairs: each pair gives (e + E)/2, and the link sees
      an x difference 1 - s and a p difference eps_i + s eps_j; so E + e at
      the better s when eps_i != eps_j, else E + e + 4b (s = +1) and
      E + e + 4a (s = -1).

    Across 12-34 every couple (i, j) spans both pairs, and two of the four
    have unequal parity.  Across 14-23 and 13-24 two couples lie in one
    pair, and the two that span both pairs have equal parity on 14-23 and
    unequal parity on 13-24.  So the witness is
    E + e on 12-34, min(2E, 2e + 4(a + b), E + e + 4 min(a, b)) on 14-23
    and min(2E, 2e + 4(a + b), E + e) on 13-24, with min taken before the
    last addition because rounding is monotone.
    """
    _four_mode(spec, "cut reports are")
    nu_sq = cut_nu_squared(spec, label)
    nus = [math.sqrt(v) for v in nu_sq]
    log_neg = 0.0
    for nu, v in zip(nus, nu_sq):
        if nu < 0.5 - VERDICT_TOL:
            log_neg -= 0.5 * math.log2(4.0 * v)
    e, E = math.exp(-2.0 * spec.r), math.exp(2.0 * spec.r)
    a, b = spec.sigma_x**2, spec.sigma_p**2
    duan = E + e
    if label != "12-34":
        cross = duan + 4.0 * min(a, b) if label == "14-23" else duan
        duan = min(2.0 * E, 2.0 * e + 4.0 * (a + b), cross)
    nu_min = min(nus)
    return {"nu_min": nu_min, "log_neg": log_neg, "duan": duan, "ppt": ppt_rule(nu_min, False)}


def _pair_witnesses(spec: BoundStateSpec, n_copies: int, pairs, target: int, other: int) -> dict:
    """Witnesses of (target, other) after joint readout of ``pairs`` with feedforward to ``target``.

    Each pair (i, j) is read out as (x_i + x_j, p_i - p_j); the x outcome
    goes to x_target with gain 1 and the p outcome to p_target with
    :func:`feedforward_p_gain`, as in ``protocols._joint_readout``.  The
    corrected quadratures are x_t' = x_t + sum (x_i + x_j) and
    p_t' = p_t + sum g (p_i - p_j), so each witness of the survivors is a
    variance of the state itself, taken copy by copy with :func:`variance`.
    """
    n = 4 * n_copies
    x_t, p_t = _unit_vector(n, 0, target), _unit_vector(n, 1, target)
    for i, j in pairs:
        x_t[2 * i] += 1.0
        x_t[2 * j] += 1.0
        gain = feedforward_p_gain(target, i, j)
        p_t[2 * i + 1] += gain
        p_t[2 * j + 1] -= gain

    def var(coeffs):
        return sum(variance(spec, coeffs[8 * c : 8 * c + 8]) for c in range(n_copies))

    def with_other(coeffs, quad, sign):
        out = list(coeffs)
        out[2 * other + quad] += sign
        return var(out)

    wx, wp = with_other(x_t, 0, +1.0), with_other(p_t, 1, -1.0)
    duan_plus = wx + wp
    duan_minus = with_other(x_t, 0, -1.0) + with_other(p_t, 1, +1.0)
    # each witness is a sum of non-negative terms, so an infinite sum is a true
    # value above the largest float (sigma above about 4.7e153), not rounding
    if not (math.isfinite(duan_plus) and math.isfinite(duan_minus)):
        raise ValueError(
            f"a protocol witness exceeds the largest float at sigma_x = {spec.sigma_x:.12g}, "
            f"sigma_p = {spec.sigma_p:.12g}"
        )
    duan = min(duan_plus, duan_minus)
    return {
        "witness_sum_x": wx,
        "witness_diff_p": wp,
        "duan": duan,
        "duan_plus": duan_plus,
        "duan_minus": duan_minus,
        "entangled": duan_rule(duan) == "entangled",
    }


def unlock_report(spec: BoundStateSpec, measured_pair) -> dict:
    """What ``protocols.unlock(spec, measured_pair).to_dict()`` reports, from closed forms.

    On a mixed-parity pair the corrected survivor sum and difference are the
    two global nullifiers, so both witnesses equal 2 e^{-2r} whatever the
    noise; on {0,2} or {1,3} the noise does not cancel.
    """
    i, j = measured_pair
    if i == j or not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("measured pair must be two distinct modes of 0..3")
    _four_mode(spec, "unlocking is")
    survivors = [m for m in range(4) if m not in (i, j)]
    witnesses = _pair_witnesses(spec, 1, [(min(i, j), max(i, j))], survivors[0], survivors[1])
    params = dict(spec.to_dict(), measured_pair=sorted((i, j)))
    return {"survivors": survivors, **witnesses, "params": params}


def superactivation_report(spec: BoundStateSpec) -> dict:
    """What ``protocols.superactivate(spec).to_dict()`` reports, from closed forms.

    Each corrected combination is one nullifier of each copy, so both
    witnesses equal 4 e^{-2r}.
    """
    _four_mode(spec, "superactivation is")
    witnesses = _pair_witnesses(spec, 2, SUPERACTIVATION_PAIRS, RECEIVER_MODE, 4)
    params = dict(spec.to_dict(), measured_pairs=[list(p) for p in SUPERACTIVATION_PAIRS])
    return {"survivors": [RECEIVER_MODE, 4], **witnesses, "params": params}
