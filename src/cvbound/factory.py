"""Constructors for the unlockable bound-entangled Gaussian states.

The four-mode state is built from two position-sum / momentum-difference
squeezed pairs (modes (0,1) and (2,3)) mixed over correlated classical
displacements driven by two Gaussian random number generators: an x-pattern
(+1, +1, -1, -1) of strength sigma_x and a p-pattern (-1, +1, +1, -1) of
strength sigma_p.  Both canonical nullifier variances equal 2*exp(-2r)
independently of the noise strengths, because the patterns are orthogonal to
the nullifiers by construction.

The 2n-mode generalization keeps the two global nullifiers (position sum and
alternating momentum sum) and injects the classical noise as a chain of
n_pairs - 1 nearest-neighbour pair patterns.  A chain is used because it
cancels in both nullifiers for every n and reduces to the two-generator
four-mode circuit at n_pairs = 2; a single globally alternating pattern would
cancel only for even pair counts.

``equivalent_construction`` rebuilds the same covariance matrix from
resources placed on a different pairing of the four modes:

* grouping {0,3 | 1,2}: squeezed pairs sit on (0,3) and (1,2) and are mixed
  over two classically correlated displacement families.  Matching the target
  covariance exactly forces the pair squeezing to equal r and is possible
  precisely when sigma^2 >= sinh(2r)/4 in each quadrature sector (the
  positive-semidefiniteness window of the required noise).  That window
  coincides with the set of noise strengths for which the state is separable
  across this grouping, as it must for a mixture-of-products recipe.
* grouping {0,2 | 1,3}: party-local balanced beamsplitters (inside {0,2} and
  inside {1,3}) exactly factorize the state into one noise-free squeezed pair
  crossing the cut and one doubly-noised squeezed pair.  The construction is
  valid for every noise strength, and the untouched pair is why the state
  stays entangled across this grouping no matter how strong the noise is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stabilizer import Bipartition, Partition, parity_sign
from .states import MAX_SQUEEZING, GaussianState, NoisePattern, beamsplitter

GROUP_12_34 = Bipartition((0, 1), (2, 3))
GROUP_14_23 = Bipartition((0, 3), (1, 2))
GROUP_13_24 = Bipartition((0, 2), (1, 3))

__all__ = [
    "BoundStateSpec",
    "ConstructionVariant",
    "GROUP_12_34",
    "GROUP_14_23",
    "GROUP_13_24",
    "smolin_cv_four",
    "smolin_cv_2n",
    "smolin_cv_covariances",
    "equivalent_construction",
    "chain_noise_patterns",
]


@dataclass(frozen=True)
class BoundStateSpec:
    """Parameters of the bound-state family: pair count, squeezing, noise."""

    n_pairs: int = 2
    r: float = 1.0
    sigma_x: float = 1.0
    sigma_p: float = 1.0

    def __post_init__(self):
        if int(self.n_pairs) != self.n_pairs or self.n_pairs < 2:
            raise ValueError("n_pairs must be an integer >= 2")
        if not 0.0 <= self.r <= MAX_SQUEEZING:
            raise ValueError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING:g}]")
        if self.sigma_x < 0 or self.sigma_p < 0:
            raise ValueError("noise strengths must be nonnegative")
        if not (np.isfinite(self.sigma_x) and np.isfinite(self.sigma_p)):
            raise ValueError("noise strengths must be finite")

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


@dataclass(frozen=True)
class ConstructionVariant:
    """Outcome of matching an alternative generation circuit to the target.

    ``feasible`` is False when the matching system has no nonnegative
    solution; in that case the parameter fields are None.  For the
    {0,3 | 1,2} grouping, ``sigma_x_prime``/``sigma_p_prime`` are the
    strengths of the grouping's own correlated-displacement mixers and
    ``residual_sigma_x``/``residual_sigma_p`` the leftover strengths on the
    original pair patterns.  For the {0,2 | 1,3} grouping the primed sigmas
    are the (doubled-variance) strengths on the noisy pair, and
    ``noise_free_pair`` names the register slots of the squeezed pair that
    carries no displacement noise at all.
    """

    grouping: Partition
    feasible: bool
    r_prime: float | None = None
    sigma_x_prime: float | None = None
    sigma_p_prime: float | None = None
    residual_sigma_x: float | None = None
    residual_sigma_p: float | None = None
    noise_free_pair: tuple[int, int] | None = None
    note: str = ""


def _chain_patterns(pairs, n_modes: int) -> list[np.ndarray]:
    """Pattern vectors of :func:`chain_noise_patterns`, in its order."""
    patterns = []
    for k in range(len(pairs) - 1):
        xpat = np.zeros(2 * n_modes)
        ppat = np.zeros(2 * n_modes)
        for m in pairs[k]:
            xpat[2 * m] = 1.0
            ppat[2 * m + 1] = -parity_sign(m)
        for m in pairs[k + 1]:
            xpat[2 * m] = -1.0
            ppat[2 * m + 1] = +parity_sign(m)
        patterns += [xpat, ppat]
    return patterns


def chain_noise_patterns(pairs, sigma_x: float, sigma_p: float, n_modes: int) -> list[NoisePattern]:
    """Nearest-neighbour pair-chain displacement patterns.

    Pattern k puts x-signs +1 on the modes of pairs[k] and -1 on pairs[k+1];
    its p-companion puts -eps_m on pairs[k] and +eps_m on pairs[k+1], where
    eps_m is the alternating-nullifier sign of mode m.  Every pattern is
    orthogonal to both global nullifiers, so the nullifier variances never
    depend on the noise strengths.
    """
    patterns = _chain_patterns(pairs, n_modes)
    strengths = [sigma_x, sigma_p] * (len(patterns) // 2)
    return [NoisePattern(p, sigma) for p, sigma in zip(patterns, strengths)]


def _epr_pairs_cov(r, pairs, n_modes: int) -> np.ndarray:
    """Squeezed pairs (the :func:`epr_pair` block) on ``pairs``, stacked over the shape of ``r``."""
    r = np.asarray(r, dtype=float)
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    cov = np.zeros(r.shape + (2 * n_modes, 2 * n_modes))
    for a, b in pairs:
        for q in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
            cov[..., q, q] = c
        cov[..., 2 * a, 2 * b] = cov[..., 2 * b, 2 * a] = -s
        cov[..., 2 * a + 1, 2 * b + 1] = cov[..., 2 * b + 1, 2 * a + 1] = s
    return cov


def _squares(sigma) -> np.ndarray:
    # Python's float power (libm pow), which the constructors have always
    # used: numpy's ``**`` squares by x*x and differs in the last bit for
    # about 0.1% of inputs
    sigma = np.asarray(sigma, dtype=float)
    return np.reshape([v**2 for v in sigma.ravel().tolist()], sigma.shape)


def _add_noise(cov: np.ndarray, patterns, strengths) -> np.ndarray:
    """Add sigma^2 p p^T for each pattern in order, broadcast over the shape of each sigma."""
    for pattern, sigma in zip(patterns, strengths):
        cov = cov + _squares(sigma)[..., None, None] * np.outer(pattern, pattern)
    return cov


def smolin_cv_covariances(n_pairs: int, r, sigma_x, sigma_p) -> np.ndarray:
    """Covariance matrices of the :func:`smolin_cv_2n` family, broadcast over parameters.

    ``r``, ``sigma_x`` and ``sigma_p`` are scalars or arrays broadcast to a
    common shape S; the result has shape S + (4 n_pairs, 4 n_pairs), and each
    matrix is bit-identical to the ``cov`` of ``smolin_cv_2n`` at those
    parameters.  Nothing is validated: check the parameters with
    :class:`BoundStateSpec` and the result with :func:`states.require_physical`.
    """
    r, sigma_x, sigma_p = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, sigma_x, sigma_p)))
    n_modes = 2 * n_pairs
    pairs = [(2 * k, 2 * k + 1) for k in range(n_pairs)]
    # EPR blocks first, then sigma^2 p p^T per chain pattern: the order of the
    # floating-point additions fixes every bit of the result
    cov = _epr_pairs_cov(r, pairs, n_modes)
    return _add_noise(cov, _chain_patterns(pairs, n_modes), [sigma_x, sigma_p] * (n_pairs - 1))


def smolin_cv_four(spec: BoundStateSpec) -> GaussianState:
    """The four-mode unlockable bound-entangled state at finite squeezing.

    Two squeezed pairs on modes (0,1) and (2,3), then zero-mean Gaussian
    displacements along the x-pattern (+1, +1, -1, -1) with strength sigma_x
    and the p-pattern (-1, +1, +1, -1) with strength sigma_p: the
    ``n_pairs = 2`` case of :func:`smolin_cv_2n`.
    """
    if spec.n_pairs != 2:
        raise ValueError("the four-mode constructor needs n_pairs = 2")
    return smolin_cv_2n(spec)


def smolin_cv_2n(spec: BoundStateSpec) -> GaussianState:
    """2n-mode generalization with pair-chain noise (see module docstring)."""
    cov = smolin_cv_covariances(spec.n_pairs, spec.r, spec.sigma_x, spec.sigma_p)
    return GaussianState(np.zeros(2 * spec.n_modes), cov)


def _matched_regrouping(spec: BoundStateSpec) -> tuple[ConstructionVariant, GaussianState | None]:
    # exact matching forces the regrouped pair squeezing to equal r and fixes
    # the grouping-chain strength at sinh(2r)/4 per sector; the original-chain
    # residual sigma^2 - sinh(2r)/4 must be nonnegative for the required
    # noise matrix to stay positive semidefinite
    base_sq = np.sinh(2 * spec.r) / 4.0
    res_x_sq = spec.sigma_x**2 - base_sq
    res_p_sq = spec.sigma_p**2 - base_sq
    if res_x_sq < 0 or res_p_sq < 0:
        note = (
            "infeasible: matching needs sigma_x^2 and sigma_p^2 >= sinh(2r)/4 "
            f"= {base_sq:.12g}"
        )
        return ConstructionVariant(GROUP_14_23, feasible=False, note=note), None
    grouping_pairs = GROUP_14_23.subsets
    original_pairs = GROUP_12_34.subsets
    base = np.sqrt(base_sq)
    cov = _add_noise(_epr_pairs_cov(spec.r, grouping_pairs, 4), _chain_patterns(grouping_pairs, 4), [base, base])
    cov = _add_noise(cov, _chain_patterns(original_pairs, 4), [np.sqrt(res_x_sq), np.sqrt(res_p_sq)])
    variant = ConstructionVariant(
        GROUP_14_23,
        feasible=True,
        r_prime=spec.r,
        sigma_x_prime=base,
        sigma_p_prime=base,
        residual_sigma_x=float(np.sqrt(res_x_sq)),
        residual_sigma_p=float(np.sqrt(res_p_sq)),
        note="squeezed pairs on (0,3) and (1,2) plus classically correlated displacements",
    )
    return variant, GaussianState(np.zeros(8), cov)


def _factorized_regrouping(spec: BoundStateSpec) -> tuple[ConstructionVariant, GaussianState]:
    # party-local balanced beamsplitters inside {0,2} and {1,3} turn the state
    # into a product of a noise-free squeezed pair (slots 0,1) and a pair
    # carrying doubled-variance displacement noise (slots 2,3)
    slots = _epr_pairs_cov(spec.r, [(0, 1), (2, 3)], 4)
    slots[4:, 4:] = _add_noise(
        slots[4:, 4:],
        [np.array([1, 0, 1, 0], dtype=float), np.array([0, 1, 0, -1], dtype=float)],
        [np.sqrt(2) * spec.sigma_x, np.sqrt(2) * spec.sigma_p],
    )
    unmix = (beamsplitter(0, 2, -np.pi / 4, 4) @ beamsplitter(1, 3, -np.pi / 4, 4)).matrix
    variant = ConstructionVariant(
        GROUP_13_24,
        feasible=True,
        r_prime=spec.r,
        sigma_x_prime=float(np.sqrt(2) * spec.sigma_x),
        sigma_p_prime=float(np.sqrt(2) * spec.sigma_p),
        noise_free_pair=(0, 1),
        note=(
            "balanced beamsplitters local to {0,2} and {1,3} factorize the state; "
            "register slots (0,1) hold a squeezed pair with no displacement noise, "
            "which keeps the state entangled across this grouping for every sigma"
        ),
    )
    return variant, GaussianState(np.zeros(8), unmix @ slots @ unmix.T)


def equivalent_construction(
    spec: BoundStateSpec, grouping: Partition
) -> tuple[ConstructionVariant, GaussianState | None]:
    """Rebuild the four-mode state from resources on a different mode pairing.

    Supported groupings (a :class:`Partition` or :class:`Bipartition`) are
    {0,3 | 1,2} and {0,2 | 1,3}, with their subsets in either order.
    Whenever the returned variant reports matched parameters, the rebuilt
    covariance matrix equals the one from :func:`smolin_cv_four` elementwise
    to 1e-10; infeasibility is a value, not an error.
    """
    if spec.n_pairs != 2:
        raise ValueError("equivalent constructions are defined for the four-mode state")
    # the recipes are symmetric in the parties, so the order of the subsets
    # does not select one
    parties = set(grouping.subsets)
    if parties == set(GROUP_14_23.subsets):
        return _matched_regrouping(spec)
    if parties == set(GROUP_13_24.subsets):
        return _factorized_regrouping(spec)
    raise ValueError("unsupported grouping: expected {0,3 | 1,2} or {0,2 | 1,3}")
