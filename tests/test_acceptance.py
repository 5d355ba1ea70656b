"""Acceptance suite: one test per quantitative claim, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see the lines).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cvbound.factory import (
    GROUP_13_24,
    GROUP_14_23,
    BoundStateSpec,
    equivalent_construction,
    smolin_cv_2n,
    smolin_cv_four,
)
from cvbound.protocols import superactivate, unlock
from cvbound.separability import (
    duan_threshold_sigma_sq,
    duan_value,
    named_bipartition,
    ppt_min_symplectic,
    ppt_threshold_search,
)
from cvbound.stabilizer import (
    all_local_commuting,
    nullifier_variance,
    p_alternating_nullifier,
    partition_commutation_table,
    symplectic_phase,
    x_sum_nullifier,
)
from cvbound.states import epr_pair, sample_oracle, tensor
from cvbound.factory import GROUP_12_34

from conftest import with_noise


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.3f} s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds} s"


def test_criterion_1_nullifier_variances():
    with criterion(1, "four-mode nullifier variances equal 2 exp(-2r), sigma-independent", 1.0):
        h1, h2 = x_sum_nullifier(4), p_alternating_nullifier(4)
        for r in (0.25, 0.5, 1.0, 2.0, 4.0):
            expected = 2 * np.exp(-2 * r)
            for sigma in (0.0, 1.0, 10.0):
                state = smolin_cv_four(BoundStateSpec(2, r, sigma, sigma))
                assert abs(nullifier_variance(state, h1) - expected) <= 1e-10
                assert abs(nullifier_variance(state, h2) - expected) <= 1e-10


def test_criterion_2_commutation_structure():
    with criterion(2, "global generators commute; only the 13-24 grouping fails locally", 1.0):
        gens = [x_sum_nullifier(4), p_alternating_nullifier(4)]
        assert symplectic_phase(gens[0], gens[1]) == 0.0
        assert all_local_commuting(partition_commutation_table(gens, GROUP_12_34))
        assert all_local_commuting(partition_commutation_table(gens, GROUP_14_23))
        table = partition_commutation_table(gens, GROUP_13_24)
        assert not all_local_commuting(table)
        assert np.abs(table).max() == 2.0


def test_criterion_3_ppt_verdicts_on_grid():
    with criterion(3, "13-24 cut NPT and 12-34 cut PPT on a 400-point (r, sigma) grid", 10.0):
        cut_13_24 = named_bipartition("13-24")
        cut_12_34 = named_bipartition("12-34")
        for r in np.linspace(0.2, 4.0, 20):
            for sigma in np.linspace(0.0, 10.0, 20):
                state = smolin_cv_four(BoundStateSpec(2, r, sigma, sigma))
                assert ppt_min_symplectic(state, cut_13_24) < 0.5
                assert ppt_min_symplectic(state, cut_12_34) >= 0.5 - 1e-9


def test_criterion_4_unlock_protocol():
    with criterion(4, "unlock gives 2 exp(-2r) witnesses on mixed pairs, nothing on the rest", 1.0):
        for r in (0.5, 1.0, 2.0):
            expected = 2 * np.exp(-2 * r)
            for sigma in (0.0, 1.0, 10.0):
                spec = BoundStateSpec(2, r, sigma, sigma)
                for pair in ((0, 3), (1, 2), (0, 1), (2, 3)):
                    report = unlock(spec, pair)
                    assert abs(report.witness_sum_x - expected) <= 1e-10
                    assert abs(report.witness_diff_p - expected) <= 1e-10
                    assert report.duan == pytest.approx(2 * expected, abs=1e-10)
                    assert report.duan < 2.0  # entangled for r > ~0.35
                for pair in ((0, 2), (1, 3)):
                    report = unlock(spec, pair)
                    assert report.duan >= 2.0 - 1e-10


def test_criterion_5_superactivation():
    with criterion(5, "two-copy distillation: witnesses 4 exp(-2r), checked by sampling", 30.0):
        for r in (0.5, 1.0, 2.0):
            expected = 4 * np.exp(-2 * r)
            values = []
            for sigma in (0.0, 1.0, 10.0):
                report = superactivate(BoundStateSpec(2, r, sigma, sigma))
                assert abs(report.witness_sum_x - expected) <= 1e-10
                assert abs(report.witness_diff_p - expected) <= 1e-10
                values.append(report.witness_sum_x)
            assert max(values) - min(values) <= 1e-10
        trend = [
            superactivate(BoundStateSpec(2, r, 1.0, 1.0)).witness_sum_x for r in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(trend, trend[1:]))

        # trajectory-level Monte-Carlo check at r = 1
        spec = BoundStateSpec(2, 1.0, 1.0, 1.0)
        one = smolin_cv_four(spec)
        count = 10**6
        _, cov_est = sample_oracle(tensor(one, one), count, seed=2024)
        x_comb = np.zeros(16)
        p_comb = np.zeros(16)
        x_comb[6] = x_comb[8] = 1.0  # x of receiver mode 3 and far mode 4
        p_comb[7], p_comb[9] = 1.0, -1.0
        for gain_p, (a, b) in zip((-1.0, 1.0, -1.0), ((0, 5), (1, 6), (2, 7))):
            x_comb[2 * a] += 1.0
            x_comb[2 * b] += 1.0
            p_comb[2 * a + 1] += gain_p
            p_comb[2 * b + 1] -= gain_p
        expected = 4 * np.exp(-2.0)
        se = expected * np.sqrt(2.0 / count)
        assert abs(x_comb @ cov_est @ x_comb - expected) <= 3 * se
        assert abs(p_comb @ cov_est @ p_comb - expected) <= 3 * se


def test_criterion_6_two_mode_noise_boundary():
    with criterion(6, "witness reaches exactly 2 at the analytic noise-variance floor", 1.0):
        for r in (0.5, 1.0, 2.0):
            sigma = np.sqrt(duan_threshold_sigma_sq(r))
            noisy = with_noise(epr_pair(r), np.array([1.0, 0.0, 1.0, 0.0]), sigma)
            assert abs(duan_value(noisy, 0, 1, +1) - 2.0) <= 1e-12


def test_criterion_7_threshold_comparison():
    with criterion(7, "measured PPT transition reported beside the analytic witness floor", 5.0):
        sigma_star = ppt_threshold_search(1.0, named_bipartition("14-23"))
        assert sigma_star is not None
        floor = float(np.sqrt(duan_threshold_sigma_sq(1.0)))
        assert floor == pytest.approx(0.65752, abs=5e-5)
        # side-by-side report; exactness of the floor is an open question,
        # so no equality between the two values is asserted
        print(
            f"  ppt transition sigma* = {sigma_star:.6f}, "
            f"two-mode witness floor sqrt((1-e^-2r)/2) = {floor:.6f}"
        )
        assert ppt_threshold_search(1.0, named_bipartition("13-24")) is None
        assert ppt_threshold_search(1.0, named_bipartition("12-34")) is None


def test_criterion_8_construction_equivalence():
    with criterion(8, "regrouped construction matches the covariance inside its window", 1.0):
        inside = BoundStateSpec(2, 1.0, 1.0, 1.0)
        variant, rebuilt = equivalent_construction(inside, GROUP_14_23)
        assert variant.feasible
        assert np.abs(rebuilt.cov - smolin_cv_four(inside).cov).max() <= 1e-10
        outside = BoundStateSpec(2, 1.0, 0.5, 0.5)
        variant, rebuilt = equivalent_construction(outside, GROUP_14_23)
        assert not variant.feasible and rebuilt is None


def test_criterion_9_2n_generalization():
    with criterion(9, "2n-mode nullifier variances equal n_pairs exp(-2r), sigma-independent", 1.0):
        r = 1.0
        for n_pairs in (2, 3, 4):
            n = 2 * n_pairs
            expected = n_pairs * np.exp(-2 * r)
            for sigma in (0.0, 1.0, 10.0):
                state = smolin_cv_2n(BoundStateSpec(n_pairs, r, sigma, sigma))
                assert abs(nullifier_variance(state, x_sum_nullifier(n)) - expected) <= 1e-10
                assert abs(
                    nullifier_variance(state, p_alternating_nullifier(n)) - expected
                ) <= 1e-10


def test_criterion_10_sampling_oracle():
    with criterion(10, "10^6-sample moments match analytic ones; seeding is bit-exact", 60.0):
        state = smolin_cv_four(BoundStateSpec(2, 1.0, 1.0, 1.0))
        count = 10**6
        mean_est, cov_est = sample_oracle(state, count, seed=7)
        diag = np.diag(state.cov)
        se = np.sqrt((np.outer(diag, diag) + state.cov**2) / count)
        assert (np.abs(cov_est - state.cov) <= 5 * se).all()
        mean2, cov2 = sample_oracle(state, count, seed=7)
        assert np.array_equal(mean_est, mean2)
        assert np.array_equal(cov_est, cov2)
