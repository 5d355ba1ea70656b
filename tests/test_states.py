import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbound.states import (
    VACUUM_VAR,
    GaussianState,
    NoisePattern,
    SymplecticMap,
    add_classical_noise,
    apply_symplectic,
    beamsplitter,
    epr_pair,
    partial_transpose,
    moments_from_dict,
    quad_variance,
    require_physical,
    sample_oracle,
    state_from_dict,
    state_to_dict,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    vacuum_state,
)

from cvbound.factory import BoundStateSpec, smolin_cv_four
from cvbound.separability import named_bipartition

from conftest import brute_variance, two_mode_symplectic_eigs


def rotation(mode: int, phi: float, n: int) -> SymplecticMap:
    """Phase-space rotation of one mode, x -> cos(phi) x + sin(phi) p: an x-p-correlating map."""
    S = np.eye(2 * n)
    a, b = 2 * mode, 2 * mode + 1
    S[a, a] = S[b, b] = np.cos(phi)
    S[a, b], S[b, a] = np.sin(phi), -np.sin(phi)
    return SymplecticMap(S)


def test_vacuum_moments():
    st1 = vacuum_state(1)
    assert np.allclose(st1.cov, np.diag([0.5, 0.5]))
    assert np.allclose(symplectic_eigenvalues(st1.cov), [0.5])
    st4 = vacuum_state(4)
    assert np.allclose(np.diag(st4.cov), 0.5)
    assert np.allclose(st4.cov - np.diag(np.diag(st4.cov)), 0.0)


def test_vacuum_duan_boundary():
    st2 = vacuum_state(2)
    value = quad_variance(st2, [1, 0, 1, 0]) + quad_variance(st2, [0, 1, 0, -1])
    assert value == pytest.approx(2.0, abs=1e-14)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)


def test_epr_closed_forms():
    r = 1.0
    pair = epr_pair(r)
    assert quad_variance(pair, [1, 0, 1, 0]) == pytest.approx(np.exp(-2 * r), abs=1e-12)
    assert quad_variance(pair, [0, 1, 0, -1]) == pytest.approx(np.exp(-2 * r), abs=1e-12)
    assert pair.cov[0, 0] == pytest.approx(np.cosh(2 * r) / 2, abs=1e-12)
    assert pair.cov[0, 2] == pytest.approx(-np.sinh(2 * r) / 2, abs=1e-12)
    assert pair.cov[1, 3] == pytest.approx(+np.sinh(2 * r) / 2, abs=1e-12)
    assert np.allclose(symplectic_eigenvalues(pair.cov), [0.5, 0.5], atol=1e-10)


def test_epr_zero_squeezing_is_vacuum():
    assert np.allclose(epr_pair(0.0).cov, vacuum_state(2).cov)


def test_epr_argument_range():
    with pytest.raises(ValueError):
        epr_pair(-0.1)
    with pytest.raises(ValueError):
        epr_pair(20.5)
    # the cap itself must stay representable and constructible
    epr_pair(20.0)


def test_tensor_blocks_and_nullifier():
    r = 1.0
    two = tensor(epr_pair(r), epr_pair(r))
    assert two.n_modes == 4
    assert np.allclose(two.cov[0:4, 4:8], 0.0)
    coeffs = [1, 0, 1, 0, 1, 0, 1, 0]
    assert quad_variance(two, coeffs) == pytest.approx(2 * np.exp(-2 * r), abs=1e-12)


def test_tensor_vacuum():
    assert np.allclose(tensor(vacuum_state(1), vacuum_state(1)).cov, vacuum_state(2).cov)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_tensor_associative_up_to_relabeling(seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(3):
        state = vacuum_state(1)
        smap = rotation(0, rng.uniform(0, np.pi), 1)
        noise = NoisePattern(rng.uniform(-1, 1, 2) + 1e-3, rng.uniform(0, 2))
        parts.append(add_classical_noise(apply_symplectic(state, smap), noise))
    a, b, c = parts
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.allclose(left.cov, right.cov, atol=1e-12)


def test_apply_symplectic_identity():
    pair = epr_pair(0.7)
    out = apply_symplectic(pair, SymplecticMap(np.eye(4)))
    assert np.allclose(out.cov, pair.cov)


def test_beamsplitter_preserves_symplectic_spectrum():
    pair = epr_pair(1.0)
    out = apply_symplectic(pair, beamsplitter(0, 1, np.pi / 4, 2))
    assert np.allclose(symplectic_eigenvalues(out.cov), [0.5, 0.5], atol=1e-10)


def test_rotation_by_half_pi_swaps_quadratures():
    state = add_classical_noise(vacuum_state(1), NoisePattern(np.array([1.0, 0.0]), 2.0))
    out = apply_symplectic(state, rotation(0, np.pi / 2, 1))
    # direct conjugation oracle
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(out.cov, S @ state.cov @ S.T, atol=1e-12)
    assert out.cov[1, 1] == pytest.approx(4.5, abs=1e-12)


def test_beamsplitter_composition_is_rotation():
    bs = beamsplitter(0, 1, np.pi / 4, 2)
    twice = bs @ bs
    expected = beamsplitter(0, 1, np.pi / 2, 2)
    assert np.allclose(twice.matrix, expected.matrix, atol=1e-12)


def test_beamsplitter_is_symplectic():
    S = beamsplitter(0, 2, 0.3, 3).matrix
    omega = symplectic_form(3)
    assert np.allclose(S @ omega @ S.T, omega, atol=1e-12)
    assert np.allclose(beamsplitter(0, 1, 0.0, 2).matrix, np.eye(4))
    with pytest.raises(ValueError):
        beamsplitter(1, 1, 0.3, 2)


def test_non_symplectic_matrix_rejected():
    with pytest.raises(ValueError):
        SymplecticMap(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_add_classical_noise_examples():
    state = vacuum_state(1)
    noisy = add_classical_noise(state, NoisePattern(np.array([1.0, 0.0]), 2.0))
    assert np.allclose(noisy.cov, np.diag([4.5, 0.5]))
    same = add_classical_noise(state, NoisePattern(np.array([1.0, 0.0]), 0.0))
    assert np.allclose(same.cov, state.cov)


def test_noise_pattern_validation():
    with pytest.raises(ValueError):
        NoisePattern(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        NoisePattern(np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError):
        add_classical_noise(vacuum_state(2), NoisePattern(np.array([1.0, 0.0]), 1.0))


def test_partial_transpose_examples():
    vac = vacuum_state(2)
    assert np.allclose(partial_transpose(vac, [1]), vac.cov)

    pair = epr_pair(1.0)
    nu = symplectic_eigenvalues(partial_transpose(pair, [1]))
    assert nu[0] == pytest.approx(np.exp(-2) / 2, abs=1e-10)
    assert nu[0] < 0.5

    product = tensor(vacuum_state(1), epr_pair(0.0))
    assert symplectic_eigenvalues(partial_transpose(product, [0])).min() >= 0.5 - 1e-12

    with pytest.raises(ValueError):
        partial_transpose(pair, [])
    with pytest.raises(ValueError):
        partial_transpose(pair, [0, 1])


def test_symplectic_eigenvalues_examples():
    assert np.allclose(symplectic_eigenvalues(vacuum_state(3).cov), [0.5] * 3)
    assert np.allclose(symplectic_eigenvalues(np.diag([1.3, 1.3])), [1.3])
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_symplectic_eigenvalues_match_two_mode_closed_form(rng):
    state = epr_pair(0.8)
    state = apply_symplectic(state, beamsplitter(0, 1, 0.4, 2))
    state = add_classical_noise(state, NoisePattern(rng.uniform(-1, 1, 4), 0.7))
    assert np.allclose(
        symplectic_eigenvalues(state.cov), two_mode_symplectic_eigs(state.cov), atol=1e-9
    )


@given(
    theta=st.floats(-3.0, 3.0),
    phi=st.floats(0.0, np.pi),
    r=st.floats(0.0, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_symplectic_invariance_of_spectrum(theta, phi, r):
    state = tensor(epr_pair(r), vacuum_state(1))
    smap = beamsplitter(0, 2, theta, 3) @ rotation(1, phi, 3) @ beamsplitter(1, 2, 0.5, 3)
    before = symplectic_eigenvalues(state.cov)
    after = symplectic_eigenvalues(apply_symplectic(state, smap).cov)
    assert np.allclose(before, after, atol=1e-8)


@given(
    r=st.floats(0.0, 3.0),
    sigma=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_physicality_preserved_by_all_operations(r, sigma, seed):
    rng = np.random.default_rng(seed)
    state = tensor(epr_pair(r), epr_pair(r))
    state = apply_symplectic(state, beamsplitter(0, 3, rng.uniform(0, np.pi), 4))
    state = add_classical_noise(state, NoisePattern(rng.uniform(-1, 1, 8), sigma))
    # the reduced state on modes 0 and 2 is the slice of their quadratures
    reduced = state.cov[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])]
    for cov in (state.cov, reduced):
        scale = max(1.0, np.abs(cov).max())
        assert symplectic_eigenvalues(cov).min() >= 0.5 - 1e-9 * scale


@given(sigma=st.floats(0.0, 4.0), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_noise_never_decreases_any_variance(sigma, seed):
    rng = np.random.default_rng(seed)
    state = epr_pair(1.0)
    pattern = NoisePattern(rng.uniform(-1, 1, 4) + 1e-6, sigma)
    noisy = add_classical_noise(state, pattern)
    for _ in range(8):
        v = rng.uniform(-1, 1, 4)
        assert quad_variance(noisy, v) >= quad_variance(state, v) - 1e-12


def test_quad_variance_against_brute_force(rng):
    state = add_classical_noise(
        tensor(epr_pair(0.6), epr_pair(1.1)), NoisePattern(rng.uniform(-1, 1, 8), 1.3)
    )
    coeffs = rng.uniform(-2, 2, 8)
    assert quad_variance(state, coeffs) == pytest.approx(
        brute_variance(state.cov, coeffs), rel=1e-12
    )
    assert quad_variance(state, 2 * coeffs) == pytest.approx(
        4 * quad_variance(state, coeffs), rel=1e-12
    )
    with pytest.raises(ValueError):
        quad_variance(state, coeffs[:6])


def test_sample_oracle_law_of_large_numbers():
    _, cov_est = sample_oracle(vacuum_state(1), 10**6, seed=11)
    assert np.abs(np.diag(cov_est) - 0.5).max() < 0.01


def test_sample_oracle_deterministic():
    a = sample_oracle(epr_pair(1.0), 5000, seed=42)
    b = sample_oracle(epr_pair(1.0), 5000, seed=42)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_oracle(epr_pair(1.0), 5000, seed=43)
    assert not np.array_equal(a[1], c[1])


def test_sample_oracle_validation():
    with pytest.raises(ValueError):
        sample_oracle(vacuum_state(1), 1, seed=0)
    with pytest.raises(ValueError):
        sample_oracle((np.zeros(2), -np.eye(2)), 100, seed=0)


def test_state_validation_errors():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(4), np.diag([0.1, 0.5, 0.5, 0.5]))  # below vacuum limit
    bad = np.eye(4) * 0.5
    bad_asym = bad.copy()
    bad_asym[0, 1] = 1e-3
    with pytest.raises(ValueError):
        GaussianState(np.zeros(4), bad_asym)
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3) * 0.5)


def test_states_are_immutable():
    state = vacuum_state(2)
    with pytest.raises(ValueError):
        state.cov[0, 0] = 9.0


def test_serialization_round_trip():
    state = add_classical_noise(epr_pair(1.2), NoisePattern(np.array([1.0, 0, -1, 0]), 0.8))
    data = state_to_dict(state)
    back = state_from_dict(data)
    assert np.array_equal(back.cov, state.cov)
    assert np.array_equal(back.mean, state.mean)
    with pytest.raises(ValueError):
        state_from_dict({"n_modes": 2, "mean": [0, 0], "cov": data["cov"]})


def _random_covs(rng, count, n_modes):
    # symplectic eigenvalues of A A^T + I/2 are at least 1/2
    a = rng.standard_normal((count, 2 * n_modes, 2 * n_modes))
    return a @ np.swapaxes(a, -1, -2) + VACUUM_VAR * np.eye(2 * n_modes)


def _random_uncorrelated_covs(rng, count, n_modes):
    # diag(B B^T, B^-T B^-1)/2 is a pure state (B invertible), and x-only plus
    # p-only noise keeps it physical; neither has x-p correlations
    out = np.zeros((count, 2 * n_modes, 2 * n_modes))
    for cov in out:
        q, _ = np.linalg.qr(rng.standard_normal((n_modes, n_modes)))
        b = q * rng.uniform(0.5, 2.0, n_modes)
        nx, np_ = 0.3 * rng.standard_normal((2, n_modes, n_modes))
        cov[0::2, 0::2] = b @ b.T / 2 + nx @ nx.T
        cov[1::2, 1::2] = np.linalg.inv(b @ b.T) / 2 + np_ @ np_.T
    return out


@pytest.mark.parametrize(
    "n_modes, make",
    [(4, _random_covs), (8, _random_covs), (4, _random_uncorrelated_covs), (8, _random_uncorrelated_covs)],
    ids=["4", "8", "uncorrelated-4", "uncorrelated-8"],
)
def test_stacked_spectra_equal_per_matrix_loop(rng, n_modes, make):
    covs = make(rng, 13, n_modes)
    loop = np.array([symplectic_eigenvalues(c) for c in covs])
    assert np.array_equal(symplectic_eigenvalues(covs), loop)
    grid = covs[:12].reshape(3, 4, 2 * n_modes, 2 * n_modes)
    assert np.array_equal(symplectic_eigenvalues(grid), loop[:12].reshape(3, 4, n_modes))


def _error_text(fn, arg):
    with pytest.raises(ValueError) as err:
        fn(arg)
    return str(err.value)


def test_stack_with_one_bad_member_raises_the_2d_message(rng):
    covs = _random_covs(rng, 5, 4)
    asym = covs.copy()
    asym[3, 0, 1] += 1e-3
    assert _error_text(symplectic_eigenvalues, asym) == _error_text(symplectic_eigenvalues, asym[3])
    assert "symmetric" in _error_text(symplectic_eigenvalues, asym)
    indefinite = covs.copy()
    indefinite[2] = -indefinite[2]
    assert _error_text(symplectic_eigenvalues, indefinite) == _error_text(symplectic_eigenvalues, indefinite[2])
    assert "positive definite" in _error_text(symplectic_eigenvalues, indefinite)
    weak = covs.copy()
    weak[1] = 0.3 * np.eye(8)
    weak[4] = 0.2 * np.eye(8)  # only the first unphysical member is named
    expected = _error_text(lambda cov: GaussianState(np.zeros(8), cov), weak[1])
    assert _error_text(require_physical, weak) == expected
    assert expected.startswith("unphysical covariance matrix: min symplectic eigenvalue 0.3 ")
    require_physical(covs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariance_rejected(rng, bad):
    cov = _random_covs(rng, 1, 2)[0]
    cov[1, 2] = cov[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert "non-finite" in _error_text(symplectic_eigenvalues, cov)
        assert "non-finite" in _error_text(symplectic_eigenvalues, np.stack([cov, np.eye(4)]))
        data = {"n_modes": 2, "mean": [0.0] * 4, "cov": cov.tolist()}
        assert _error_text(moments_from_dict, data) == "state object has non-finite entries in cov"
        data = {"n_modes": 2, "mean": [0.0, bad, 0.0, 0.0], "cov": np.eye(4).tolist()}
        assert _error_text(moments_from_dict, data) == "state object has non-finite entries in mean"


def _hermitian_oracle(cov):
    # i R^T Omega R has eigenvalues +/- nu for any root R R^T = cov
    w, v = np.linalg.eigh(cov)
    root, n = v * np.sqrt(np.clip(w, 0.0, None)), len(cov) // 2
    return np.linalg.eigvalsh(1j * root.T @ symplectic_form(n) @ root)[n:]


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_block_kernel_matches_hermitian_oracle(rng, n_modes):
    covs = _random_uncorrelated_covs(rng, 4, n_modes)
    if n_modes > 1:
        covs = np.concatenate([covs, partial_transpose(covs, range(n_modes // 2))])
    oracle = np.array([_hermitian_oracle(c) for c in covs])
    np.testing.assert_allclose(symplectic_eigenvalues(covs), oracle, rtol=1e-12, atol=0)
    grid = covs.reshape(2, -1, 2 * n_modes, 2 * n_modes)
    np.testing.assert_allclose(symplectic_eigenvalues(grid), oracle.reshape(2, -1, n_modes), rtol=1e-12, atol=0)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 3.0])
def test_block_kernel_four_mode_closed_forms(r, sigma):
    # squared partial-transpose spectra eig(X T P T) of the four-mode family,
    # with E = e^{2r} and a = sigma^2
    e, a = np.exp(2 * r), sigma**2
    exact = {
        "12-34": [0.25, 0.25, 0.25 + 2 * a * e, 0.25 + 2 * a * e],
        "14-23": [e**2 / 4, e**2 / 4, (1 + 8 * a * e) / (4 * e**2), (1 + 8 * a * e) / (4 * e**2)],
        "13-24": [1 / (4 * e**2), e**2 / 4, e**2 / 4, (1 + 8 * a * e) ** 2 / (4 * e**2)],
    }
    cov = smolin_cv_four(BoundStateSpec(2, r, sigma, sigma)).cov
    for label, nu_sq in exact.items():
        nu = symplectic_eigenvalues(partial_transpose(cov, named_bipartition(label).side_b))
        np.testing.assert_allclose(nu, np.sort(np.sqrt(nu_sq)), rtol=1e-10, atol=0)


def test_mixed_stack_dispatches_per_matrix(rng):
    covs = _random_uncorrelated_covs(rng, 5, 3)
    covs[1] = apply_symplectic(GaussianState(np.zeros(6), covs[1]), rotation(2, 0.4, 3)).cov
    covs[3, 3, 2] = 1e-12  # the only nonzero entry of a cross block, within the symmetry tolerance
    assert np.any(covs[1, 0::2, 1::2]) and not np.any(covs[3, 0::2, 1::2])
    loop = np.array([symplectic_eigenvalues(c) for c in covs])
    assert np.array_equal(symplectic_eigenvalues(covs), loop)
    for cov, nu in zip(covs, loop):
        np.testing.assert_allclose(nu, _hermitian_oracle(cov), rtol=1e-12, atol=0)


def test_block_kernel_rejects_indefinite_p_block(rng):
    covs = _random_uncorrelated_covs(rng, 3, 4)
    p = covs[1, 1::2, 1::2]
    covs[1, 1::2, 1::2] = p - (np.linalg.eigvalsh(p)[0] + 0.1) * np.eye(4)
    message = _error_text(symplectic_eigenvalues, covs[1])
    assert message == "covariance matrix must be positive definite"
    assert _error_text(symplectic_eigenvalues, covs) == message


def test_block_kernel_fallback_on_strongly_squeezed_pair():
    cov = epr_pair(20.0).cov
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov[0::2, 0::2])
    nu = symplectic_eigenvalues(cov)
    expected = _hermitian_oracle(cov)
    np.testing.assert_allclose(nu, expected, rtol=1e-12, atol=1e-12 * expected.max())
