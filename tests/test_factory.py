import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbound.factory import (
    GROUP_12_34,
    GROUP_13_24,
    GROUP_14_23,
    MAX_PAIRS,
    MAX_SIGMA,
    BoundStateSpec,
    equivalent_construction,
    smolin_cv_2n,
    smolin_cv_four,
)
from cvbound.separability import named_bipartition, ppt_min_symplectic
from cvbound.stabilizer import (
    Bipartition,
    Partition,
    nullifier_variance,
    p_alternating_nullifier,
    parity_sign,
    x_sum_nullifier,
)
from cvbound.states import (
    GaussianState,
    beamsplitter,
    epr_pair,
    sample_oracle,
    symplectic_eigenvalues,
    tensor,
)

from conftest import with_noise


def chain_noise_patterns(pairs, sigma_x: float, sigma_p: float, n_modes: int) -> list[tuple[np.ndarray, float]]:
    """Dense nearest-neighbour pair-chain patterns, the oracle for the builder's supports.

    Pattern k puts x-signs +1 on the modes of pairs[k] and -1 on pairs[k+1];
    its p-companion puts -eps_m on pairs[k] and +eps_m on pairs[k+1], where
    eps_m is the alternating-nullifier sign of mode m.
    """
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
        patterns += [(xpat, sigma_x), (ppat, sigma_p)]
    return patterns


def dense_chain_cov(spec: BoundStateSpec) -> np.ndarray:
    """``tensor(epr_pair)`` over the pairs, then ``with_noise`` per chain pattern."""
    state = epr_pair(spec.r)
    for _ in range(spec.n_pairs - 1):
        state = tensor(state, epr_pair(spec.r))
    pairs = [(2 * k, 2 * k + 1) for k in range(spec.n_pairs)]
    for pattern, sigma in chain_noise_patterns(pairs, spec.sigma_x, spec.sigma_p, spec.n_modes):
        state = with_noise(state, pattern, sigma)
    return state.cov


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal sign bits, so +0.0 and -0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_spec_validation():
    with pytest.raises(ValueError):
        BoundStateSpec(n_pairs=1)
    for bad in (2.5, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="n_pairs must be an integer >= 2"):
            BoundStateSpec(n_pairs=bad)
    assert BoundStateSpec(MAX_PAIRS).n_pairs == 512
    with pytest.raises(ValueError, match="n_pairs must be at most 512: the state takes memory quadratic"):
        BoundStateSpec(513)
    with pytest.raises(ValueError):
        BoundStateSpec(r=-0.5)
    with pytest.raises(ValueError):
        BoundStateSpec(r=21.0)
    with pytest.raises(ValueError):
        BoundStateSpec(sigma_x=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="noise strengths must be finite"):
            BoundStateSpec(sigma_x=bad)
        with pytest.raises(ValueError, match="noise strengths must be finite"):
            BoundStateSpec(sigma_p=bad)
    # sigma**2 is the largest finite float at the cap and overflows one float above it
    assert BoundStateSpec(sigma_x=MAX_SIGMA, sigma_p=MAX_SIGMA).sigma_x**2 < np.inf
    for bad in (np.nextafter(MAX_SIGMA, np.inf), 1e160):
        with pytest.raises(ValueError, match=r"noise strengths must be at most sqrt\(largest float\) = 1.34078079299e\+154"):
            BoundStateSpec(sigma_x=bad)
        with pytest.raises(ValueError, match="noise strengths must be at most"):
            BoundStateSpec(sigma_p=bad)
    spec = BoundStateSpec.from_dict({"n_pairs": 3, "r": 0.5, "sigma_x": 1, "sigma_p": 2})
    assert spec.n_modes == 6
    with pytest.raises(ValueError):
        BoundStateSpec.from_dict({"r": 1.0})


def test_spec_stores_an_integer_pair_count():
    for n_pairs in (3.0, np.int64(3), np.float64(3.0)):
        spec = BoundStateSpec(n_pairs, 0.5, 1.0, 2.0)
        assert type(spec.n_pairs) is int and spec.n_pairs == 3
        assert np.array_equal(smolin_cv_2n(spec).cov, smolin_cv_2n(BoundStateSpec(3, 0.5, 1.0, 2.0)).cov)


def test_four_mode_without_noise_is_two_pairs():
    state = smolin_cv_four(BoundStateSpec(2, 1.3, 0.0, 0.0))
    assert np.allclose(state.cov, tensor(epr_pair(1.3), epr_pair(1.3)).cov)


def test_four_mode_nullifier_variances():
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    expected = 2 * np.exp(-2.0)
    assert nullifier_variance(state, x_sum_nullifier(4)) == pytest.approx(expected, abs=1e-12)
    assert nullifier_variance(state, p_alternating_nullifier(4)) == pytest.approx(
        expected, abs=1e-12
    )


def test_four_mode_cross_covariance_and_sampling_oracle():
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    # x displacements are anticorrelated between the two pair blocks
    assert state.cov[0, 4] == pytest.approx(-1.0, abs=1e-12)
    count = 200_000
    _, cov_est = sample_oracle(state, count, seed=5)
    se = np.sqrt((np.outer(np.diag(state.cov), np.diag(state.cov)) + state.cov**2) / count)
    assert (np.abs(cov_est - state.cov) <= 5 * se + 1e-12).all()
    # empirical nullifier variance within 3 standard errors of 2 exp(-2r)
    h1 = x_sum_nullifier(4).coeffs
    expected = 2 * np.exp(-2.0)
    assert abs(h1 @ cov_est @ h1 - expected) <= 3 * expected * np.sqrt(2.0 / count)


def test_four_mode_reduced_single_mode():
    spec = BoundStateSpec(2, 0.8, 1.5, 0.7)
    state = smolin_cv_four(spec)
    thermal = np.cosh(1.6) / 2
    # the reduced state of mode 0 is the slice of its two quadratures
    assert np.allclose(
        state.cov[:2, :2], np.diag([thermal + spec.sigma_x**2, thermal + spec.sigma_p**2]), atol=1e-12
    )


def test_four_mode_needs_two_pairs():
    with pytest.raises(ValueError):
        smolin_cv_four(BoundStateSpec(n_pairs=3))


def test_2n_reduces_to_four_mode():
    spec = BoundStateSpec(2, 1.0, 1.4, 0.6)
    assert np.allclose(smolin_cv_2n(spec).cov, smolin_cv_four(spec).cov, atol=1e-12)


@pytest.mark.parametrize("n_pairs", [2, 3, 4])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 10.0])
def test_2n_nullifier_variances(n_pairs, sigma):
    spec = BoundStateSpec(n_pairs, 1.0, sigma, sigma)
    state = smolin_cv_2n(spec)
    n = spec.n_modes
    expected = n_pairs * np.exp(-2.0)
    assert nullifier_variance(state, x_sum_nullifier(n)) == pytest.approx(expected, abs=1e-10)
    assert nullifier_variance(state, p_alternating_nullifier(n)) == pytest.approx(
        expected, abs=1e-10
    )


def test_2n_without_noise_is_block_diagonal():
    state = smolin_cv_2n(BoundStateSpec(3, 1.0, 0.0, 0.0))
    pair = epr_pair(1.0).cov
    for k in range(3):
        block = state.cov[4 * k : 4 * k + 4, 4 * k : 4 * k + 4]
        assert np.allclose(block, pair)
    off = state.cov[0:4, 4:8]
    assert np.allclose(off, 0.0)


def test_2n_constructor_matches_sampling_oracle():
    state = smolin_cv_2n(BoundStateSpec(3, 1.0, 1.0, 1.0))
    count = 200_000
    _, cov_est = sample_oracle(state, count, seed=17)
    se = np.sqrt((np.outer(np.diag(state.cov), np.diag(state.cov)) + state.cov**2) / count)
    assert (np.abs(cov_est - state.cov) <= 5 * se + 1e-12).all()


@pytest.mark.parametrize("n_pairs", [2, 3, 5, 32])
def test_2n_bit_identical_to_state_operations(n_pairs, rng):
    # squeezed pairs first, then sigma^2 p p^T per chain pattern in order:
    # the addition order fixes every bit of the covariance
    for _ in range(20):
        spec = BoundStateSpec(n_pairs, rng.uniform(0, 6), rng.uniform(0, 8), rng.uniform(0, 8))
        assert np.array_equal(smolin_cv_2n(spec).cov, dense_chain_cov(spec))


@pytest.mark.parametrize("n_pairs", [2, 3, 5, 32])
@pytest.mark.parametrize(
    "r, sigma_x, sigma_p",
    [(0.0, 1.3, 0.7), (-0.0, 1.3, 0.0), (1.1, 0.0, 0.0), (0.0, 0.0, -0.0), (-0.0, -0.0, 0.0)],
    ids=["r0", "r-0-sigma_p0", "sigma0", "r0-sigma0", "r-0-sigma-0"],
)
def test_2n_signed_zeros_match_state_operations(n_pairs, r, sigma_x, sigma_p):
    # at r = 0 the x-x pair entries start as -0.0 (at r = -0.0 the p-p ones
    # would), and the oracle's dense noise terms turn every one of them +0.0;
    # with sigma = 0 the builder's support terms are +-0.0 and must leave the
    # same signs
    spec = BoundStateSpec(n_pairs, r, sigma_x, sigma_p)
    assert bit_equal(smolin_cv_2n(spec).cov, dense_chain_cov(spec))


def test_chain_patterns_orthogonal_to_nullifiers():
    for n_pairs in (2, 3, 5):
        n = 2 * n_pairs
        pairs = [(2 * k, 2 * k + 1) for k in range(n_pairs)]
        h1 = x_sum_nullifier(n).coeffs
        h2 = p_alternating_nullifier(n).coeffs
        for pattern, _ in chain_noise_patterns(pairs, 1.0, 1.0, n):
            assert abs(pattern @ h1) == 0.0
            assert abs(pattern @ h2) == 0.0


@given(
    r=st.floats(0.0, 3.0),
    sigma_x=st.floats(0.0, 5.0),
    sigma_p=st.floats(0.0, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_four_mode_physical_for_all_parameters(r, sigma_x, sigma_p):
    state = smolin_cv_four(BoundStateSpec(2, r, sigma_x, sigma_p))
    scale = max(1.0, np.abs(state.cov).max())
    assert symplectic_eigenvalues(state.cov).min() >= 0.5 - 1e-9 * scale


def test_trace_monotone_in_noise_and_squeezing():
    traces_sigma = [
        np.trace(smolin_cv_four(BoundStateSpec(2, 1.0, s, s)).cov) for s in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a < b for a, b in zip(traces_sigma, traces_sigma[1:]))
    traces_r = [
        np.trace(smolin_cv_four(BoundStateSpec(2, r, 1.0, 1.0)).cov) for r in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a < b for a, b in zip(traces_r, traces_r[1:]))


# --- equivalent constructions -------------------------------------------------


def test_regrouped_construction_matches_inside_window():
    spec = BoundStateSpec(2, 1.0, 1.0, 1.0)  # sigma^2 = 1 >= sinh(2)/4 ~ 0.9067
    target = smolin_cv_four(spec)
    variant, rebuilt = equivalent_construction(spec, GROUP_14_23)
    assert variant.feasible
    assert variant.r_prime == pytest.approx(1.0)
    assert variant.sigma_x_prime == pytest.approx(np.sqrt(np.sinh(2.0) / 4))
    assert np.abs(rebuilt.cov - target.cov).max() < 1e-10
    assert np.allclose(rebuilt.mean, 0.0)


def test_regrouped_construction_window_boundary():
    r = 0.7
    edge = np.sqrt(np.sinh(2 * r) / 4)
    spec = BoundStateSpec(2, r, edge, edge)
    variant, rebuilt = equivalent_construction(spec, GROUP_14_23)
    assert variant.feasible
    assert variant.residual_sigma_x**2 == pytest.approx(0.0, abs=1e-12)
    assert np.abs(rebuilt.cov - smolin_cv_four(spec).cov).max() < 1e-10

    below = BoundStateSpec(2, r, 0.99 * edge, 0.99 * edge)
    variant, rebuilt = equivalent_construction(below, GROUP_14_23)
    assert not variant.feasible
    assert rebuilt is None
    assert variant.r_prime is None


def test_regrouped_construction_infeasible_without_noise():
    variant, rebuilt = equivalent_construction(BoundStateSpec(2, 1.0, 0.0, 0.0), GROUP_14_23)
    assert not variant.feasible and rebuilt is None
    # cross-pair quantum correlations need nonzero mixing noise unless r = 0
    variant, rebuilt = equivalent_construction(BoundStateSpec(2, 0.0, 0.0, 0.0), GROUP_14_23)
    assert variant.feasible
    assert np.abs(rebuilt.cov - smolin_cv_four(BoundStateSpec(2, 0.0, 0.0, 0.0)).cov).max() < 1e-12


def test_regrouped_construction_unequal_sigmas():
    r = 0.5
    edge_sq = np.sinh(2 * r) / 4
    spec = BoundStateSpec(2, r, np.sqrt(edge_sq) + 0.3, np.sqrt(edge_sq) + 0.8)
    variant, rebuilt = equivalent_construction(spec, GROUP_14_23)
    assert variant.feasible
    assert np.abs(rebuilt.cov - smolin_cv_four(spec).cov).max() < 1e-10
    # one sector inside the window, the other outside: infeasible
    spec = BoundStateSpec(2, r, np.sqrt(edge_sq) + 0.3, 0.5 * np.sqrt(edge_sq))
    variant, rebuilt = equivalent_construction(spec, GROUP_14_23)
    assert not variant.feasible


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 4.0])
def test_factorized_construction_matches_for_every_sigma(sigma):
    spec = BoundStateSpec(2, 1.0, sigma, sigma)
    variant, rebuilt = equivalent_construction(spec, GROUP_13_24)
    assert variant.feasible
    assert variant.noise_free_pair == (0, 1)
    assert np.abs(rebuilt.cov - smolin_cv_four(spec).cov).max() < 1e-10


@pytest.mark.parametrize("sigma", [0.0, 1.0, 10.0])
def test_factorized_construction_cut_stays_entangled(sigma):
    # the noise-free squeezed pair crossing {0,2 | 1,3} keeps the partial
    # transpose negative for every noise strength
    spec = BoundStateSpec(2, 1.0, sigma, sigma)
    state = smolin_cv_four(spec)
    nu = ppt_min_symplectic(state, named_bipartition("13-24"))
    assert nu == pytest.approx(np.exp(-2.0) / 2, abs=1e-9)
    assert nu < 0.5


def regrouped_reference(spec: BoundStateSpec, variant) -> np.ndarray:
    """Dense {0,3 | 1,2} recipe from the variant's parameters: pairs on (0,3), (1,2), then both chains."""
    pairs = tensor(epr_pair(spec.r), epr_pair(spec.r))
    quads = [q for m in (0, 2, 3, 1) for q in (2 * m, 2 * m + 1)]  # modes 0, 1 of the product go to 0, 3
    state = GaussianState(np.zeros(8), pairs.cov[np.ix_(quads, quads)])
    base_x, base_p = float(variant.sigma_x_prime), float(variant.sigma_p_prime)
    noises = chain_noise_patterns(GROUP_14_23.subsets, base_x, base_p, 4)
    noises += chain_noise_patterns(GROUP_12_34.subsets, variant.residual_sigma_x, variant.residual_sigma_p, 4)
    for pattern, sigma in noises:
        state = with_noise(state, pattern, sigma)
    return state.cov


def factorized_reference(spec: BoundStateSpec, variant) -> np.ndarray:
    """Dense {0,2 | 1,3} recipe: a clean pair, a doubly-noised pair, then the party-local beamsplitters."""
    noisy = with_noise(epr_pair(spec.r), np.array([1.0, 0, 1, 0]), variant.sigma_x_prime)
    noisy = with_noise(noisy, np.array([0, 1.0, 0, -1]), variant.sigma_p_prime)
    slots = tensor(epr_pair(spec.r), noisy).cov
    unmix = beamsplitter(0, 2, -np.pi / 4, 4) @ beamsplitter(1, 3, -np.pi / 4, 4)
    return unmix @ slots @ unmix.T


@pytest.mark.parametrize(
    "r, sigma_x, sigma_p",
    [(0.0, 0.0, 0.0), (-0.0, 0.7, 0.0), (0.0, 1.2, 0.4), (0.7, 0.8, 1.5), (1.0, 1.0, 1.0), (2.0, 3.0, 2.7)],
)
def test_equivalent_constructions_equal_dense_references(r, sigma_x, sigma_p):
    spec = BoundStateSpec(2, r, sigma_x, sigma_p)
    variant, rebuilt = equivalent_construction(spec, GROUP_14_23)
    assert variant.feasible
    assert bit_equal(rebuilt.cov, regrouped_reference(spec, variant))
    variant, rebuilt = equivalent_construction(spec, GROUP_13_24)
    assert bit_equal(rebuilt.cov, factorized_reference(spec, variant))


@pytest.mark.parametrize(
    "grouping, expected",
    [
        (named_bipartition("14-23"), GROUP_14_23),
        (Partition(((0, 3), (1, 2))), GROUP_14_23),
        (named_bipartition("13-24"), GROUP_13_24),
        (Partition(((0, 2), (1, 3))), GROUP_13_24),
    ],
)
def test_equivalent_construction_accepts_partition_or_bipartition(grouping, expected):
    spec = BoundStateSpec(2, 0.6, 1.1, 0.9)
    variant, rebuilt = equivalent_construction(spec, grouping)
    reference, ref_state = equivalent_construction(spec, expected)
    assert variant.feasible
    assert variant == reference
    assert np.array_equal(rebuilt.cov, ref_state.cov)


@pytest.mark.parametrize("expected", [GROUP_14_23, GROUP_13_24], ids=["14-23", "13-24"])
def test_equivalent_construction_ignores_subset_order(expected):
    spec = BoundStateSpec(2, 0.6, 1.1, 0.9)
    side_a, side_b = expected.subsets
    reference, ref_state = equivalent_construction(spec, expected)
    for grouping in (Bipartition(side_b, side_a), Partition((side_b, side_a))):
        variant, rebuilt = equivalent_construction(spec, grouping)
        assert variant.feasible
        assert variant == reference
        assert np.array_equal(rebuilt.cov, ref_state.cov)
        assert np.array_equal(rebuilt.mean, ref_state.mean)
    # the stored order is untouched: side_b is still the side that gets flipped
    assert Bipartition(side_b, side_a).side_b == side_a


def test_equivalent_construction_rejects_other_groupings():
    spec = BoundStateSpec(2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        equivalent_construction(spec, GROUP_12_34)
    with pytest.raises(ValueError):
        equivalent_construction(BoundStateSpec(3, 1.0, 1.0, 1.0), GROUP_14_23)


@pytest.mark.parametrize("sigma_x, sigma_p, name", [(9.5e153, 1.0, "sigma_x"), (1.0, MAX_SIGMA, "sigma_p")])
def test_factorized_construction_refuses_a_doubled_variance_that_overflows(sigma_x, sigma_p, name):
    # 2 sigma^2 is above the largest float from sigma ~ 9.48e153; before the
    # check this raised a bare OverflowError from Python's **
    spec = BoundStateSpec(2, 1.0, sigma_x, sigma_p)
    message = f"overflows a float at {name} = {max(sigma_x, sigma_p):.12g}"
    with pytest.raises(ValueError, match=re.escape(message)):
        equivalent_construction(spec, GROUP_13_24)
