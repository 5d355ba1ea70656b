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

import functools
from dataclasses import dataclass

import numpy as np

# the spec and its caps live in the numpy-free exact module and are re-exported here
from .exact import FOUR_MODE_CUTS, MAX_PAIRS, MAX_SIGMA, BoundStateSpec, parity_sign
from .stabilizer import Bipartition, Partition
from .states import GaussianState, beamsplitter

GROUP_12_34 = Bipartition(*FOUR_MODE_CUTS["12-34"])
GROUP_14_23 = Bipartition(*FOUR_MODE_CUTS["14-23"])
GROUP_13_24 = Bipartition(*FOUR_MODE_CUTS["13-24"])

__all__ = [
    "BoundStateSpec",
    "ConstructionVariant",
    "GROUP_12_34",
    "GROUP_14_23",
    "GROUP_13_24",
    "smolin_cv_four",
    "smolin_cv_2n",
    "equivalent_construction",
]


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


@functools.cache
def _chain_supports(pairs: tuple, n_modes: int) -> tuple:
    """Read-only supports of the pair chain, x then p per link, built once per chain.

    Link k puts x-signs +1 on pairs[k] and -1 on pairs[k+1], and its p-pattern
    puts -sign * eps_m on p_m, eps_m the nullifier sign.  Each pattern p is given
    by the flat row-major positions of supp(p) x supp(p) and p_i p_j there.
    """
    supports = []
    for a, b in zip(pairs, pairs[1:]):
        modes, signs = np.array(a + b), np.array([1.0] * len(a) + [-1.0] * len(b))
        for idx, pattern in ((2 * modes, signs), (2 * modes + 1, -signs * [parity_sign(m) for m in a + b])):
            entries, products = (idx[:, None] * 2 * n_modes + idx).ravel(), np.outer(pattern, pattern).ravel()
            entries.flags.writeable = products.flags.writeable = False
            supports.append((entries, products))
    return tuple(supports)


def _epr_pairs_cov(r: float, pairs, n_modes: int) -> np.ndarray:
    """Squeezed pairs (the :func:`epr_pair` block) on ``pairs``."""
    r = np.asarray(r, dtype=float) + 0.0  # r = -0.0 becomes +0.0 (see _add_noise)
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    cov = np.zeros((2 * n_modes, 2 * n_modes))
    for a, b in pairs:
        for q in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
            cov[q, q] = c
        cov[2 * a, 2 * b] = cov[2 * b, 2 * a] = -s
        cov[2 * a + 1, 2 * b + 1] = cov[2 * b + 1, 2 * a + 1] = s
    return cov


def _square(sigma: float) -> float:
    # Python's float power (libm pow), which the constructors have always
    # used: numpy's ``**`` squares by x*x and differs in the last bit for
    # about 0.1% of inputs
    return float(sigma) ** 2


def _add_noise(cov: np.ndarray, supports, squares) -> np.ndarray:
    """Add sigma^2 p p^T per pattern in order, only on its support; ``squares`` from :func:`_square`.

    This gives the bits of the dense term: off the support it is +-0.0, which
    changes no entry but -0.0 (-0.0 + 0.0 = +0.0).  The only -0.0 entries are
    the -s x-x pair entries at r = 0 (r = -0.0 would put them on p-p too), and
    each lies on an x-pattern's support, where it gets sigma^2 >= +0.0 as well.
    """
    flat = cov.reshape(-1)
    for (entries, products), square in zip(supports, squares):
        flat[entries] += square * products
    return flat.reshape(cov.shape)


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
    """2n-mode generalization with pair-chain noise (see module docstring).

    EPR blocks first, then sigma^2 p p^T per chain pattern, each on its 4 x 4
    support only with the dense term's bits (:func:`_add_noise`): the order
    of the floating-point additions fixes every bit of the covariance.
    Raises ``ValueError`` where a middle pair's 2 sigma^2 overflows.
    """
    pairs = tuple((2 * k, 2 * k + 1) for k in range(spec.n_pairs))
    squares = [_square(spec.sigma_x), _square(spec.sigma_p)] * (spec.n_pairs - 1)
    with np.errstate(over="ignore"):  # refused below, with the parameters that overflow
        cov = _add_noise(_epr_pairs_cov(spec.r, pairs, spec.n_modes), _chain_supports(pairs, spec.n_modes), squares)
    if not np.isfinite(cov).all():
        # two chain links cover each middle pair, which gains 2 sigma^2: it
        # overflows from sigma about 9.48e153
        raise ValueError(
            f"the {spec.n_pairs}-pair chain adds 2 sigma^2 on its middle pairs, which overflows a float "
            f"at sigma_x = {spec.sigma_x:.12g}, sigma_p = {spec.sigma_p:.12g}"
        )
    return GaussianState._built(np.zeros(2 * spec.n_modes), cov)


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
    pairs = GROUP_14_23.subsets
    base = np.sqrt(base_sq)
    cov = _add_noise(_epr_pairs_cov(spec.r, pairs, 4), _chain_supports(pairs, 4), [_square(base)] * 2)
    residuals = [_square(np.sqrt(res_x_sq)), _square(np.sqrt(res_p_sq))]
    cov = _add_noise(cov, _chain_supports(GROUP_12_34.subsets, 4), residuals)
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
    return variant, GaussianState._built(np.zeros(8), cov)


def _factorized_regrouping(spec: BoundStateSpec) -> tuple[ConstructionVariant, GaussianState]:
    # party-local balanced beamsplitters inside {0,2} and {1,3} turn the state
    # into a product of a noise-free squeezed pair (slots 0,1) and a pair
    # carrying doubled-variance displacement noise (slots 2,3)
    slots = _epr_pairs_cov(spec.r, [(0, 1), (2, 3)], 4)
    noise = []
    for name, sigma in (("sigma_x", spec.sigma_x), ("sigma_p", spec.sigma_p)):
        try:
            noise.append(_square(np.sqrt(2) * sigma))
        except OverflowError:  # from Python's **, for sigma above about 9.48e153
            raise ValueError(
                f"the 13-24 factorized construction needs the doubled variance 2 {name}^2, "
                f"which overflows a float at {name} = {sigma:.12g}"
            ) from None
    # a chain link to no pair: x-signs +1 on both modes of the noisy pair
    slots = _add_noise(slots, _chain_supports(((2, 3), ()), 4), noise)
    unmix = beamsplitter(0, 2, -np.pi / 4, 4) @ beamsplitter(1, 3, -np.pi / 4, 4)
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
    return variant, GaussianState._built(np.zeros(8), unmix @ slots @ unmix.T)


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
