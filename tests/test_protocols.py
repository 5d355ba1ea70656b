import itertools

import numpy as np
import pytest

from cvbound.factory import BoundStateSpec, smolin_cv_four
from cvbound.protocols import (
    bell_measure,
    measure_with_feedforward,
    superactivate,
    unlock,
)
from cvbound.states import (
    epr_pair,
    quad_variance,
    sample_oracle,
    symplectic_eigenvalues,
    tensor,
)

ALLOWED_PAIRS = [(0, 3), (1, 2), (0, 1), (2, 3)]
FORBIDDEN_PAIRS = [(0, 2), (1, 3)]


def schur_conditioned(cov: np.ndarray, measured: list[int]) -> np.ndarray:
    """Covariance of the modes left after ideal homodyne readout of the ``measured`` quadratures.

    Plain Gaussian conditioning: the Schur complement of the measured block,
    with every mode that holds a measured quadrature removed.
    """
    modes = {q // 2 for q in measured}
    keep = [q for q in range(len(cov)) if q // 2 not in modes]
    cross = cov[np.ix_(keep, measured)]
    return cov[np.ix_(keep, keep)] - cross @ np.linalg.solve(cov[np.ix_(measured, measured)], cross.T)


def test_feedforward_validation():
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    y1 = np.zeros(8)
    y1[0] = y1[6] = 1.0  # x_0 + x_3
    bad_support = np.zeros(8)
    bad_support[2] = 1.0  # lives on a surviving mode
    with pytest.raises(ValueError):
        measure_with_feedforward(state, (0, 3), (y1, bad_support), ())
    y_noncommuting = np.zeros(8)
    y_noncommuting[1] = 1.0  # p_0 fails to commute with x_0 + x_3
    with pytest.raises(ValueError):
        measure_with_feedforward(state, (0, 3), (y1, y_noncommuting), ())
    with pytest.raises(ValueError):
        measure_with_feedforward(state, (0, 3), (y1,), ((0, "x", 1.0, 0), (3, "x", 1.0, 0)))
    with pytest.raises(ValueError):
        measure_with_feedforward(state, (), (y1,), ())


def test_bell_measure_canonical_pair():
    r = 1.0
    state = smolin_cv_four(BoundStateSpec(2, r, 1.0, 1.0))
    out = bell_measure(state, 0, 3)
    expected = 2 * np.exp(-2 * r)
    assert out.n_modes == 2
    assert quad_variance(out, [1, 0, 1, 0]) == pytest.approx(expected, abs=1e-10)
    assert quad_variance(out, [0, 1, 0, -1]) == pytest.approx(expected, abs=1e-10)


def test_bell_measure_forbidden_pair_yields_nothing():
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    out = bell_measure(state, 0, 2)
    value = quad_variance(out, [1, 0, 1, 0]) + quad_variance(out, [0, 1, 0, -1])
    assert value >= 2.0 - 1e-10


def test_bell_measure_feedforward_noise_dominates_conditioning():
    # the unit-gain ensemble is the conditioned state plus the broadcast
    # residue, so it can never beat plain conditioning
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    from cvbound.states import apply_symplectic, beamsplitter

    mixed = apply_symplectic(state, beamsplitter(0, 3, np.pi / 4, 4))
    conditioned = schur_conditioned(mixed.cov, [7, 0])  # p of mode 3, x of mode 0
    ensemble = bell_measure(state, 0, 3)
    diff = ensemble.cov - conditioned
    assert np.linalg.eigvalsh(diff).min() >= -1e-10


def test_bell_measure_validation():
    state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        bell_measure(state, 1, 1)
    with pytest.raises(ValueError):
        bell_measure(state, 0, 7)
    with pytest.raises(ValueError):
        bell_measure(epr_pair(1.0), 0, 1)


@pytest.mark.parametrize("pair", ALLOWED_PAIRS)
def test_unlock_allowed_pairs(pair):
    r = 1.0
    report = unlock(BoundStateSpec(2, r, 1.0, 1.0), pair)
    expected = 2 * np.exp(-2 * r)
    assert report.witness_sum_x == pytest.approx(expected, abs=1e-10)
    assert report.witness_diff_p == pytest.approx(expected, abs=1e-10)
    assert report.duan == pytest.approx(2 * expected, abs=1e-10)
    assert report.entangled
    assert report.surviving_modes == tuple(m for m in range(4) if m not in pair)


@pytest.mark.parametrize("pair", FORBIDDEN_PAIRS)
@pytest.mark.parametrize("sigma", [0.0, 1.0, 10.0])
def test_unlock_forbidden_pairs(pair, sigma):
    for r in (0.0, 0.5, 1.0, 2.0):
        report = unlock(BoundStateSpec(2, r, sigma, sigma), pair)
        assert report.duan >= 2.0 - 1e-10
        assert not report.entangled


def test_unlock_sigma_cancellation():
    values = set()
    for sx, sp in itertools.product((0.0, 1.0, 10.0), repeat=2):
        report = unlock(BoundStateSpec(2, 1.0, sx, sp), (2, 3))
        values.add(round(report.witness_sum_x, 12))
        values.add(round(report.witness_diff_p, 12))
    assert len(values) == 1


def test_unlock_witnesses_decrease_with_squeezing():
    witnesses = [
        unlock(BoundStateSpec(2, r, 1.0, 1.0), (0, 3)).witness_sum_x for r in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a > b for a, b in zip(witnesses, witnesses[1:]))


def test_unlock_no_squeezing_boundary():
    report = unlock(BoundStateSpec(2, 0.0, 1.0, 1.0), (2, 3))
    assert report.witness_sum_x == pytest.approx(2.0, abs=1e-12)
    assert report.witness_diff_p == pytest.approx(2.0, abs=1e-12)
    assert not report.entangled


def test_unlock_report_consistency():
    report = unlock(BoundStateSpec(2, 1.0, 2.0, 0.5), (1, 2))
    state = report.conditioned_state
    assert report.witness_sum_x == pytest.approx(
        quad_variance(state, [1, 0, 1, 0]), abs=1e-12
    )
    assert report.witness_diff_p == pytest.approx(
        quad_variance(state, [0, 1, 0, -1]), abs=1e-12
    )
    scale = max(1.0, np.abs(state.cov).max())
    assert symplectic_eigenvalues(state.cov).min() >= 0.5 - 1e-9 * scale
    payload = report.to_dict()
    assert payload["survivors"] == [0, 3]
    assert set(payload) >= {"witness_sum_x", "witness_diff_p", "duan", "entangled", "params"}


def test_unlock_validation():
    with pytest.raises(ValueError):
        unlock(BoundStateSpec(2, 1.0, 1.0, 1.0), (2, 2))
    with pytest.raises(ValueError):
        unlock(BoundStateSpec(2, 1.0, 1.0, 1.0), (0, 4))
    with pytest.raises(ValueError):
        unlock(BoundStateSpec(3, 1.0, 1.0, 1.0), (0, 1))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_superactivation_witnesses(r):
    report = superactivate(BoundStateSpec(2, r, 1.0, 1.0))
    expected = 4 * np.exp(-2 * r)
    assert report.witness_sum_x == pytest.approx(expected, abs=1e-10)
    assert report.witness_diff_p == pytest.approx(expected, abs=1e-10)
    assert report.duan == pytest.approx(2 * expected, abs=1e-10)
    assert report.surviving_modes == (3, 4)


def test_superactivation_sigma_independent():
    values = {
        round(superactivate(BoundStateSpec(2, 1.0, sx, sp)).witness_sum_x, 12)
        for sx, sp in itertools.product((0.0, 1.0, 10.0), repeat=2)
    }
    assert len(values) == 1


def test_superactivation_witnesses_vanish_at_large_squeezing():
    values = [
        superactivate(BoundStateSpec(2, r, 1.0, 1.0)).witness_sum_x for r in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 2e-3


def test_superactivation_entangled_verdict():
    report = superactivate(BoundStateSpec(2, 1.0, 1.0, 1.0))
    assert report.entangled
    assert report.duan == pytest.approx(8 * np.exp(-2.0), abs=1e-10)
    boundary = superactivate(BoundStateSpec(2, 0.0, 1.0, 1.0))
    assert not boundary.entangled


def test_superactivation_matches_trajectory_sampling():
    # sample the two-copy state and push the samples through the same linear
    # feedforward map; the empirical witness variance must agree
    spec = BoundStateSpec(2, 1.0, 1.0, 1.0)
    report = superactivate(spec)
    one = smolin_cv_four(spec)
    big = tensor(one, one)
    count = 200_000
    _, cov_est = sample_oracle(big, count, seed=99)
    x_out = np.zeros(16)
    x_out[8] = 1.0  # x of far mode 4
    x_out[6] = 1.0  # x of receiver mode 3
    for a, b in ((0, 5), (1, 6), (2, 7)):
        x_out[2 * a] += 1.0
        x_out[2 * b] += 1.0
    emp = x_out @ cov_est @ x_out
    se = report.witness_sum_x * np.sqrt(2.0 / count)
    assert abs(emp - report.witness_sum_x) < 5 * se
