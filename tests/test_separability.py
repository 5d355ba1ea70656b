import math
import warnings

import numpy as np
import pytest

from cvbound import separability
from cvbound.factory import BoundStateSpec, smolin_cv_four
from cvbound.separability import (
    Bipartition,
    SeparabilityVerdict,
    construction_verdict,
    cut_diagnostics,
    duan_threshold_sigma_sq,
    duan_value,
    duan_verdict,
    log_negativity,
    named_bipartition,
    ppt_min_symplectic,
    ppt_threshold_search,
    ppt_threshold_sigma,
    ppt_verdict,
)
from cvbound.states import (
    epr_pair,
    quad_variance,
    tensor,
    vacuum_state,
)

from conftest import with_noise

EPR_SPLIT = Bipartition((0,), (1,))


def four_mode(r, sigma):
    return smolin_cv_four(BoundStateSpec(2, r, sigma, sigma))


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((0, 1), (1, 2))
    with pytest.raises(ValueError):
        Bipartition((), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((0,), (2,))
    with pytest.raises(ValueError):
        named_bipartition("11-22")


def test_ppt_epr_closed_form():
    nu = ppt_min_symplectic(epr_pair(1.0), EPR_SPLIT)
    assert nu == pytest.approx(np.exp(-2.0) / 2, abs=1e-10)


def test_ppt_four_mode_cuts():
    state = four_mode(1.0, 1.0)
    assert ppt_min_symplectic(state, named_bipartition("13-24")) < 0.5
    assert ppt_min_symplectic(state, named_bipartition("12-34")) >= 0.5 - 1e-9
    with pytest.raises(ValueError):
        ppt_min_symplectic(epr_pair(1.0), named_bipartition("12-34"))


def test_ppt_13_24_entangled_on_grid():
    for r in (0.5, 1.0, 2.0, 4.0):
        for sigma in (0.0, 1.0, 10.0):
            nu = ppt_min_symplectic(four_mode(r, sigma), named_bipartition("13-24"))
            assert nu == pytest.approx(np.exp(-2 * r) / 2, abs=1e-8)
            assert nu < 0.5


def test_log_negativity():
    pair = epr_pair(1.0)
    assert log_negativity(pair, EPR_SPLIT) == pytest.approx(2.0 * np.log2(np.e), abs=1e-10)
    ppt_state = tensor(vacuum_state(1), vacuum_state(1))
    assert log_negativity(ppt_state, EPR_SPLIT) == 0.0
    # the 12-34 cut is PPT for every r and sigma; float64 error near r = 3
    # must not leak through as a tiny positive log-negativity
    bp = named_bipartition("12-34")
    for r in np.arange(1, 31) / 10:
        for sigma in np.arange(21) * 0.25:
            assert log_negativity(four_mode(r, sigma), bp) == 0.0, (r, sigma)


def test_log_negativity_nonincreasing_in_sigma():
    bp = named_bipartition("14-23")
    values = [log_negativity(four_mode(1.0, s), bp) for s in np.linspace(0, 2, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0  # PPT beyond the transition


def test_duan_values():
    pair = epr_pair(1.0)
    assert duan_value(pair, 0, 1, +1) == pytest.approx(2 * np.exp(-2.0), abs=1e-12)
    assert duan_value(vacuum_state(2), 0, 1, +1) == pytest.approx(2.0, abs=1e-14)
    # anticorrelated pairing on the same pair is anti-squeezed
    assert duan_value(pair, 0, 1, -1) == pytest.approx(2 * np.exp(2.0), abs=1e-10)
    with pytest.raises(ValueError):
        duan_value(pair, 1, 1)
    with pytest.raises(ValueError):
        duan_value(pair, 0, 1, sign=2)


def test_duan_equals_quad_variance_combination():
    state = four_mode(0.8, 1.7)
    for (i, j) in ((0, 1), (0, 2), (1, 3)):
        cx = np.zeros(8)
        cp = np.zeros(8)
        cx[2 * i] = cx[2 * j] = 1.0
        cp[2 * i + 1], cp[2 * j + 1] = 1.0, -1.0
        direct = quad_variance(state, cx) + quad_variance(state, cp)
        assert duan_value(state, i, j, +1) == pytest.approx(direct, abs=1e-12)


def test_duan_with_common_mode_noise():
    r, sigma = 1.0, 0.9
    noisy = with_noise(epr_pair(r), np.array([1.0, 0.0, 1.0, 0.0]), sigma)
    assert duan_value(noisy, 0, 1, +1) == pytest.approx(
        2 * np.exp(-2 * r) + 4 * sigma**2, abs=1e-12
    )


def test_duan_threshold_formula():
    assert duan_threshold_sigma_sq(0.0) == 0.0
    assert duan_threshold_sigma_sq(1.0) == pytest.approx((1 - np.exp(-2.0)) / 2, abs=1e-15)
    assert duan_threshold_sigma_sq(40.0 / 2) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        duan_threshold_sigma_sq(-1.0)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_duan_boundary_exact(r):
    # noise variance at the threshold drives the witness exactly to the bound
    sigma = np.sqrt(duan_threshold_sigma_sq(r))
    noisy = with_noise(epr_pair(r), np.array([1.0, 0.0, 1.0, 0.0]), sigma)
    assert duan_value(noisy, 0, 1, +1) == pytest.approx(2.0, abs=1e-12)


def test_threshold_search_14_23():
    sigma_star = ppt_threshold_search(1.0, named_bipartition("14-23"))
    assert sigma_star is not None
    assert sigma_star == pytest.approx(np.sqrt(np.sinh(2.0) / 4), abs=1e-5)
    # measured transition differs from the two-mode witness floor
    floor = np.sqrt(duan_threshold_sigma_sq(1.0))
    assert sigma_star > floor


def test_threshold_search_none_for_other_cuts():
    assert ppt_threshold_search(1.0, named_bipartition("13-24")) is None
    assert ppt_threshold_search(1.0, named_bipartition("12-34")) is None
    with pytest.raises(ValueError):
        ppt_threshold_search(1.0, named_bipartition("14-23"), tol=0.0)


def test_threshold_search_input_that_broke_the_spectrum():
    # a general (non-Hermitian) eigen-solver fails to converge on the
    # sigma_max = 10 end point of this search; the Hermitian form must not
    r = 2.1139761605560823
    bp = named_bipartition("14-23")
    assert ppt_threshold_search(r, bp) == pytest.approx(np.sqrt(np.sinh(2 * r) / 4), abs=1e-6)
    assert ppt_min_symplectic(four_mode(r, 10.0), bp) >= 0.5 - 1e-9


def test_threshold_closed_form_matches_bisection_oracle():
    bp = named_bipartition("14-23")
    for r in np.linspace(0.1, 3.0, 30):
        assert ppt_threshold_sigma(r) == pytest.approx(ppt_threshold_search(r, bp), abs=1e-6)
    assert ppt_threshold_sigma(1.0) == pytest.approx(0.952215890417, abs=1e-12)
    assert ppt_threshold_sigma(0.0) is None
    # beyond the sigma_max = 10 bracket of the search
    assert ppt_threshold_sigma(3.5) > 10.0
    with pytest.raises(ValueError):
        ppt_threshold_sigma(-0.1)


def _safeguard_bound(width, tol):
    # the midpoint safeguard halves the bracket at least once every four steps
    return 4 * math.ceil(math.log2(width / tol))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize(
    "gap, lo, hi, root, max_evals",
    [
        pytest.param(lambda x: x**3 - 2.0, 0.0, 10.0, 2.0 ** (1 / 3), 22, id="increasing"),
        pytest.param(math.cos, 0.0, 3.0, math.pi / 2, 8, id="decreasing"),
        pytest.param(lambda x: math.expm1(20.0 * (x - 7.3)), 0.0, 10.0, 7.3, 30, id="steep-exponential"),
        # false position lands tol/2 from the low end on every step of this
        # gap, and the Illinois halving needs ~1000 steps to undo the 1e300,
        # so only the midpoint safeguard can meet the bound
        pytest.param(lambda x: -1.0 if x < 2.5 else 1e300, 0.0, 10.0, 2.5, None, id="step"),
    ],
)
def test_bracketed_root_on_synthetic_gaps(gap, lo, hi, root, max_evals, tol):
    xs = []

    def counted(x):
        xs.append(x)
        return gap(x)

    lo_f, hi_f = separability._bracketed_root(counted, lo, hi, gap(lo), gap(hi), tol)
    assert hi_f - lo_f <= tol
    assert lo <= lo_f < hi_f <= hi
    # the bracket still holds the sign change, with the sign of each end kept
    assert (gap(lo_f) < 0) == (gap(lo) < 0) and (gap(hi_f) < 0) == (gap(hi) < 0)
    assert lo_f - 1e-12 <= root <= hi_f + 1e-12
    assert len(xs) <= (max_evals or _safeguard_bound(hi - lo, tol))


THRESHOLD_GRID = np.linspace(0.005, 3.34, 30)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_threshold_search_meets_closed_form_in_few_evaluations(monkeypatch, tol):
    # every gap evaluation goes through ppt_min_symplectic, so counting its
    # calls counts the evaluations, end points included
    calls = []
    real = separability.ppt_min_symplectic

    def counted(state, bp):
        calls.append(bp)
        return real(state, bp)

    monkeypatch.setattr(separability, "ppt_min_symplectic", counted)
    bp = named_bipartition("14-23")
    for r in THRESHOLD_GRID:
        calls.clear()
        sigma_star = ppt_threshold_search(r, bp, tol=tol)
        assert abs(sigma_star - ppt_threshold_sigma(r)) <= tol, r
        assert len(calls) <= 16, (r, len(calls))


def test_threshold_search_refuses_a_tol_below_float_spacing():
    # np.spacing(10.0) is 1.78e-15: below two spacings no float lies strictly
    # inside the last bracket, and the search used to run forever
    bp = named_bipartition("14-23")
    for tol in (1e-15, 1e-17):
        with pytest.raises(ValueError, match="float spacing"):
            ppt_threshold_search(1.0, bp, tol=tol)
    sigma_star = ppt_threshold_search(1.0, bp, tol=4e-15)
    assert abs(sigma_star - ppt_threshold_sigma(1.0)) <= 4e-15


def test_log_negativity_refuses_a_spectrum_rounded_to_zero():
    # at r = 12 float64 rounds a partial-transpose eigenvalue of every cut to
    # 0, although the state itself passes the physicality check
    state = four_mode(12.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for label in ("12-34", "14-23", "13-24"):
            bp = named_bipartition(label)
            with pytest.raises(ValueError, match="rounded to 0"):
                log_negativity(state, bp)
            with pytest.raises(ValueError, match="rounded to 0"):
                cut_diagnostics(state.cov[None], bp)


def test_cut_diagnostics_equal_scalar_api(rng):
    specs = [BoundStateSpec(2, rng.uniform(0, 3), s, s) for s in rng.uniform(0, 5, 25)]
    stack = np.array([smolin_cv_four(spec).cov for spec in specs])
    for label in ("12-34", "14-23", "13-24"):
        bp = named_bipartition(label)
        verdicts, log_negs, duans = cut_diagnostics(stack, bp)
        for spec, verdict, log_neg, duan in zip(specs, verdicts, log_negs, duans):
            state = smolin_cv_four(spec)
            assert verdict == ppt_verdict(state, bp)
            assert log_neg == log_negativity(state, bp)
            pairs = [(a, b, sign) for a in bp.side_a for b in bp.side_b for sign in (+1, -1)]
            assert duan == min(duan_value(state, *pair) for pair in pairs)
    with pytest.raises(ValueError):
        cut_diagnostics(stack[0], bp)


def test_ppt_transition_consistency():
    bp = named_bipartition("14-23")
    sigma_star = ppt_threshold_search(1.0, bp, tol=1e-8)
    assert ppt_min_symplectic(four_mode(1.0, sigma_star - 1e-3), bp) < 0.5
    assert ppt_min_symplectic(four_mode(1.0, sigma_star + 1e-3), bp) > 0.5


def test_noise_never_converts_ppt_to_npt():
    for label in ("12-34", "14-23", "13-24"):
        bp = named_bipartition(label)
        values = [ppt_min_symplectic(four_mode(1.0, s), bp) for s in np.linspace(0, 3, 13)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_verdict_discipline():
    state = four_mode(1.0, 1.0)
    v = ppt_verdict(state, named_bipartition("13-24"))
    assert v.verdict == "entangled" and v.witness_value < v.threshold
    v = ppt_verdict(state, named_bipartition("12-34"))
    assert v.verdict == "inconclusive"  # PPT on a 2x2 cut certifies nothing
    v = ppt_verdict(epr_pair(0.0), EPR_SPLIT)
    assert v.verdict == "separable"  # 1x1 PPT is conclusive
    v = ppt_verdict(epr_pair(1.0), EPR_SPLIT)
    assert v.verdict == "entangled"

    assert duan_verdict(1.9).verdict == "entangled"
    assert duan_verdict(2.0).verdict == "inconclusive"
    assert duan_verdict(2.5).verdict == "inconclusive"

    with pytest.raises(ValueError):
        SeparabilityVerdict("guess", "entangled", 0.0, 0.0)
    with pytest.raises(ValueError):
        SeparabilityVerdict("ppt", "maybe", 0.0, 0.0)


def test_construction_verdicts():
    spec = BoundStateSpec(2, 1.0, 1.0, 1.0)
    assert construction_verdict(spec, "12-34").verdict == "separable"
    assert construction_verdict(spec, "14-23").verdict == "separable"
    assert construction_verdict(spec, "13-24").verdict == "entangled"
    tight = BoundStateSpec(2, 1.0, 0.5, 0.5)  # below the sinh(2r)/4 floor
    assert construction_verdict(tight, "14-23").verdict == "inconclusive"
    classical = BoundStateSpec(2, 0.0, 1.0, 1.0)
    assert construction_verdict(classical, "13-24").verdict == "separable"
