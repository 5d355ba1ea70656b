"""The closed forms of cvbound.exact against the float64 matrix path and a high-precision oracle."""

import itertools
import math

import numpy as np
import pytest

from cvbound import exact
from cvbound.factory import BoundStateSpec, smolin_cv_2n, smolin_cv_four
from cvbound.protocols import _joint_readout, bell_measure, measure_with_feedforward, superactivate, unlock
from cvbound.separability import FOUR_MODE_BIPARTITIONS, duan_value, duan_verdict, log_negativity, ppt_verdict
from cvbound.stabilizer import (
    Partition,
    nullifier_variance,
    p_alternating_nullifier,
    partition_commutation_table,
    x_sum_nullifier,
)
from cvbound.states import partial_transpose, quad_variance, symplectic_eigenvalues, tensor

from conftest import close

ALL_PAIRS = list(itertools.combinations(range(4), 2))
# r <= 3, where the float64 matrix path is accurate to the 1e-10 tolerances
MATRIX_R = [0.0, 0.05, 0.3, 1.0, 2.2, 3.0]
MATRIX_SIGMAS = [(0.0, 0.0), (0.7, 0.7), (1.0, 2.5), (4.0, 0.3), (10.0, 10.0)]


def specs(n_pairs=2):
    return [BoundStateSpec(n_pairs, r, sx, sp) for r in MATRIX_R for sx, sp in MATRIX_SIGMAS]


@pytest.mark.parametrize("label", list(exact.FOUR_MODE_CUTS))
def test_cut_spectrum_and_report_match_the_matrix_path(label):
    bp = FOUR_MODE_BIPARTITIONS[label]
    for spec in specs():
        state = smolin_cv_four(spec)
        nus = np.sort(symplectic_eigenvalues(partial_transpose(state, bp.side_b)))
        closed = np.sort(np.sqrt(exact.cut_nu_squared(spec, label)))
        assert np.all(np.abs(closed - nus) <= 1e-10 * np.maximum(1.0, nus)), (spec, closed, nus)
        report = exact.cut_report(spec, label)
        ppt = ppt_verdict(state, bp)
        duan = min(duan_value(state, a, b, s) for a in bp.side_a for b in bp.side_b for s in (+1, -1))
        assert close(report["nu_min"], ppt.witness_value) and close(report["duan"], duan)
        assert close(report["log_neg"], log_negativity(state, bp))
        assert report["ppt"] == ppt.verdict
        # where PPT is exact (off the 14-23 threshold), the state's own recipe
        # is a mixture of products exactly where the cut is PPT
        min_sigma_sq = min(spec.sigma_x, spec.sigma_p) ** 2
        if label != "14-23" or abs(min_sigma_sq - math.sinh(2 * spec.r) / 4) >= 1e-6:
            assert exact.construction_separable(label, spec.r, min_sigma_sq) == (report["ppt"] != "entangled")


def _generic_cut_witness(spec, label):
    """The smallest var(x_a + s x_b) + var(p_a - s p_b) across ``label``, each from :func:`exact.variance`."""
    side_a, side_b = exact.FOUR_MODE_CUTS[label]
    values = []
    for a, b, sign in itertools.product(side_a, side_b, (+1.0, -1.0)):
        cx, cp = [0.0] * 8, [0.0] * 8
        cx[2 * a], cx[2 * b], cp[2 * a + 1], cp[2 * b + 1] = 1.0, sign, 1.0, -sign
        values.append(exact.variance(spec, cx) + exact.variance(spec, cp))
    return min(values)


def test_cut_witness_forms_equal_the_generic_evaluator(rng):
    # the per-cut forms of cut_report against the 16 variances they replace
    points = [(0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (20.0, 1e6, 1e6)]
    points += [(rng.uniform(0, 20), *rng.uniform(0, 1e6, 2)) for _ in range(300)]
    points += [(rng.uniform(0, 3), *rng.uniform(0, 3, 2)) for _ in range(300)]
    for r, sigma_x, sigma_p in points:
        spec = BoundStateSpec(2, r, sigma_x, sigma_p)
        for label in exact.FOUR_MODE_CUTS:
            assert _rel(exact.cut_report(spec, label)["duan"], _generic_cut_witness(spec, label)) <= 1e-15


def test_exact_nu_min_on_the_noise_free_cuts():
    for r, sigma in itertools.product((0.0, 0.5, 3.0, 3.9, 5.0, 12.0, 20.0), (0.0, 1.0, 1e8, exact.MAX_SIGMA)):
        spec = BoundStateSpec(2, r, sigma, sigma)
        assert exact.cut_report(spec, "12-34")["nu_min"] == 0.5
        assert exact.cut_report(spec, "12-34")["log_neg"] == 0.0
        assert exact.cut_report(spec, "13-24")["nu_min"] == math.exp(-2 * r) / 2


def test_variance_matches_the_quadratic_form(rng):
    for n_pairs in (2, 3, 4):
        for spec in specs(n_pairs)[::3]:
            cov = smolin_cv_2n(spec).cov
            for _ in range(5):
                coeffs = rng.integers(-2, 3, size=4 * n_pairs).astype(float)
                assert close(exact.variance(spec, coeffs.tolist()), float(coeffs @ cov @ coeffs))
    with pytest.raises(ValueError, match="whole pairs"):
        exact.variance(BoundStateSpec(), [1.0, 0.0])


@pytest.mark.parametrize("n_pairs", [2, 3, 5])
def test_nullifier_variances_match_the_matrix_path(n_pairs):
    for spec in specs(n_pairs):
        state = smolin_cv_2n(spec)
        var_x, var_p = exact.nullifier_variances(spec)
        assert close(var_x, nullifier_variance(state, x_sum_nullifier(spec.n_modes)))
        assert close(var_p, nullifier_variance(state, p_alternating_nullifier(spec.n_modes)))
        assert close(var_x, n_pairs * math.exp(-2 * spec.r), 1e-15) and var_p == var_x


def test_commutation_tables_are_the_parity_sums():
    gens = [x_sum_nullifier(4), p_alternating_nullifier(4)]
    for size in (1, 2, 3):
        for subset in itertools.combinations(range(4), size):
            rest = tuple(m for m in range(4) if m not in subset)
            table = partition_commutation_table(gens, Partition((subset, rest)))[0]
            assert exact.commutation_table(subset) == table.tolist()


@pytest.mark.parametrize("pair", ALL_PAIRS)
def test_unlock_report_matches_the_matrix_path(pair):
    for spec in specs():
        fields = exact.unlock_report(spec, pair)
        conditioned = bell_measure(smolin_cv_four(spec), *pair)
        wx, wp = quad_variance(conditioned, [1, 0, 1, 0]), quad_variance(conditioned, [0, 1, 0, -1])
        minus = quad_variance(conditioned, [1, 0, -1, 0]) + quad_variance(conditioned, [0, 1, 0, 1])
        assert close(fields["witness_sum_x"], wx) and close(fields["witness_diff_p"], wp)
        assert close(fields["duan_plus"], wx + wp) and close(fields["duan_minus"], minus)
        assert fields["duan"] == min(fields["duan_plus"], fields["duan_minus"])
        assert fields["entangled"] == (duan_verdict(fields["duan"]).verdict == "entangled")
        assert unlock(spec, pair).to_dict() == fields


def test_superactivation_report_matches_the_matrix_path():
    for spec in specs():
        fields = exact.superactivation_report(spec)
        one = smolin_cv_four(spec)
        combos, corrections = _joint_readout(8, exact.SUPERACTIVATION_PAIRS, exact.RECEIVER_MODE)
        removed = sorted(m for pair in exact.SUPERACTIVATION_PAIRS for m in pair)
        conditioned = measure_with_feedforward(tensor(one, one), removed, combos, corrections)
        wx, wp = quad_variance(conditioned, [1, 0, 1, 0]), quad_variance(conditioned, [0, 1, 0, -1])
        minus = quad_variance(conditioned, [1, 0, -1, 0]) + quad_variance(conditioned, [0, 1, 0, 1])
        assert close(fields["witness_sum_x"], wx) and close(fields["witness_diff_p"], wp)
        assert close(fields["duan_minus"], minus)
        assert close(fields["witness_sum_x"], 4 * math.exp(-2 * spec.r), 1e-15)
        assert superactivate(spec).to_dict() == fields


def test_protocol_reports_refuse_what_the_matrix_path_refuses():
    with pytest.raises(ValueError, match="two distinct modes"):
        exact.unlock_report(BoundStateSpec(), (1, 1))
    with pytest.raises(ValueError, match="unlocking is defined for the four-mode state"):
        exact.unlock_report(BoundStateSpec(3), (0, 1))
    with pytest.raises(ValueError, match="superactivation is defined for the four-mode state"):
        exact.superactivation_report(BoundStateSpec(3))


def test_ppt_verdicts_agree_with_the_matrix_path_away_from_the_threshold():
    for spec in specs():
        for label, bp in FOUR_MODE_BIPARTITIONS.items():
            if label == "14-23" and abs(min(spec.sigma_x, spec.sigma_p) ** 2 - math.sinh(2 * spec.r) / 4) < 1e-6:
                continue
            assert exact.cut_report(spec, label)["ppt"] == ppt_verdict(smolin_cv_four(spec), bp).verdict


# ------------------------------------------------------- high-precision oracle

ORACLE_R = [0.5 * k for k in range(41)]  # 0 to 20
ORACLE_SIGMAS = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (3.0, 3.0), (0.5, 3.0), (3.0, 1.0)]


def _mp_cov(mp, spec):
    """The four-mode covariance in mpmath, from the definition in factory's docstring."""
    c, s = mp.cosh(2 * mp.mpf(spec.r)) / 2, mp.sinh(2 * mp.mpf(spec.r)) / 2
    cov = mp.matrix(8, 8)
    for a, b in ((0, 1), (2, 3)):
        for q in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
            cov[q, q] = c
        cov[2 * a, 2 * b] = cov[2 * b, 2 * a] = -s
        cov[2 * a + 1, 2 * b + 1] = cov[2 * b + 1, 2 * a + 1] = s
    px = [1, 0, 1, 0, -1, 0, -1, 0]
    pp = [0, -1, 0, 1, 0, 1, 0, -1]
    for pattern, sigma in ((px, spec.sigma_x), (pp, spec.sigma_p)):
        for i in range(8):
            for j in range(8):
                cov[i, j] += mp.mpf(sigma) ** 2 * pattern[i] * pattern[j]
    return cov


def _mp_symplectic_squares(mp, cov):
    """nu^2 of every mode: with cov = L L^T, A = L^T Omega L is antisymmetric with eigenvalues +-i nu."""
    chol = mp.cholesky(cov)
    omega_chol = mp.matrix(cov.rows, cov.cols)  # Omega L: row 2k is row 2k+1 of L, row 2k+1 is minus row 2k
    for k in range(cov.rows // 2):
        for j in range(cov.cols):
            omega_chol[2 * k, j], omega_chol[2 * k + 1, j] = chol[2 * k + 1, j], -chol[2 * k, j]
    a = chol.T * omega_chol
    squares = sorted(mp.eigsy(a.T * a, eigvals_only=True))
    return squares[0::2]  # each nu^2 appears twice


def _mp_form(cov, coeffs):
    support = [(i, c) for i, c in enumerate(coeffs) if c]
    return sum(cov[i, j] * ci * cj for i, ci in support for j, cj in support)


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


@pytest.mark.parametrize("r", ORACLE_R)
def test_closed_forms_against_a_high_precision_eigen_solve(r):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(int(30 + 4 * r)):
        _check_against_oracle(mp, r)


def _check_against_oracle(mp, r):
    for sigma_x, sigma_p in ORACLE_SIGMAS:
        spec = BoundStateSpec(2, r, sigma_x, sigma_p)
        cov = _mp_cov(mp, spec)
        for label, (side_a, side_b) in exact.FOUR_MODE_CUTS.items():
            signs = [-1 if q % 2 and q // 2 in side_b else 1 for q in range(8)]
            transposed = mp.matrix([[signs[p] * signs[q] * cov[p, q] for q in range(8)] for p in range(8)])
            squares = _mp_symplectic_squares(mp, transposed)
            closed = sorted(exact.cut_nu_squared(spec, label))
            assert all(_rel(mp.sqrt(v), mp.sqrt(ref)) <= 1e-13 for v, ref in zip(closed, squares)), (spec, label)
            report = exact.cut_report(spec, label)
            assert _rel(report["nu_min"], mp.sqrt(squares[0])) <= 1e-13
            exact_log_neg = -sum(mp.log(4 * v, 2) / 2 for v in squares if mp.sqrt(v) < 0.5 - exact.VERDICT_TOL)
            if exact_log_neg:
                assert _rel(report["log_neg"], exact_log_neg) <= 1e-13
            else:
                assert report["log_neg"] == 0.0
            witnesses = []
            for a, b, sign in itertools.product(side_a, side_b, (+1, -1)):
                cx, cp = [0] * 8, [0] * 8
                cx[2 * a], cx[2 * b], cp[2 * a + 1], cp[2 * b + 1] = 1, sign, 1, -sign
                witnesses.append(_mp_form(cov, cx) + _mp_form(cov, cp))
            assert _rel(report["duan"], min(witnesses)) <= 1e-13
        var_x, var_p = exact.nullifier_variances(spec)
        for value, coeffs in ((var_x, exact.x_sum_coeffs(4)), (var_p, exact.p_alternating_coeffs(4))):
            assert _rel(value, _mp_form(cov, coeffs)) <= 1e-13
        _check_protocols(mp, spec, cov)


def _check_protocols(mp, spec, cov):
    """Unlock and superactivation witnesses as quadratic forms of the readout map M^T d."""
    two_copies = mp.matrix(16, 16)
    for i in range(8):
        for j in range(8):
            two_copies[i, j] = two_copies[i + 8, j + 8] = cov[i, j]
    cases = [(exact.unlock_report(spec, pair), cov, 4, [pair]) for pair in ALL_PAIRS]
    cases.append((exact.superactivation_report(spec), two_copies, 8, exact.SUPERACTIVATION_PAIRS))
    for fields, big, n_modes, pairs in cases:
        survivors = [m for m in range(n_modes) if not any(m in pair for pair in pairs)]
        target, other = survivors
        combos, corrections = _joint_readout(n_modes, pairs, target)
        x_t, p_t = [0] * (2 * n_modes), [0] * (2 * n_modes)
        x_t[2 * target], p_t[2 * target + 1] = 1, 1
        for mode, quad, gain, k in corrections:
            row = x_t if quad == "x" else p_t
            for q, c in enumerate(combos[k].tolist()):
                row[q] += gain * c

        def form(row, quad, sign):
            coeffs = list(row)
            coeffs[2 * other + quad] += sign
            return _mp_form(big, coeffs)

        plus = form(x_t, 0, 1) + form(p_t, 1, -1)
        minus = form(x_t, 0, -1) + form(p_t, 1, 1)
        assert _rel(fields["witness_sum_x"], form(x_t, 0, 1)) <= 1e-13
        assert _rel(fields["witness_diff_p"], form(p_t, 1, -1)) <= 1e-13
        assert _rel(fields["duan_plus"], plus) <= 1e-13
        assert _rel(fields["duan_minus"], minus) <= 1e-13


@pytest.mark.parametrize("r", [1e-12, 1e-10, 1e-5, 0.1, 1.0, 20.0])
def test_duan_threshold_against_mpmath(r):
    # (1 - e^{-2r}) / 2 in floats cancels at small r: 2.2e-5 off at r = 1e-12
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        reference = -mp.expm1(-2 * mp.mpf(r)) / 2
    assert _rel(exact.duan_threshold_sigma_sq(r), reference) <= 1e-13


def test_duan_threshold_is_plus_zero_without_squeezing():
    for r in (0.0, -0.0):
        value = exact.duan_threshold_sigma_sq(r)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_spec_is_an_immutable_value():
    import copy
    import pickle

    spec = BoundStateSpec(3.0, 0.5, 1.0, 2.0)
    assert spec == BoundStateSpec(3, 0.5, 1.0, 2.0) and hash(spec) == hash(BoundStateSpec(3, 0.5, 1.0, 2.0))
    assert spec != BoundStateSpec(3, 0.5, 2.0, 1.0) and spec != (3, 0.5, 1.0, 2.0)
    assert pickle.loads(pickle.dumps(spec)) == spec == copy.deepcopy(spec)
    assert repr(spec) == "BoundStateSpec(n_pairs=3, r=0.5, sigma_x=1.0, sigma_p=2.0)"
    with pytest.raises(AttributeError, match="immutable"):
        spec.r = 2.0
    with pytest.raises(AttributeError, match="immutable"):
        del spec.sigma_x
