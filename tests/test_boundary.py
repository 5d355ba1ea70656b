"""Physicality is checked where moments enter the program, not where the library builds them.

The library's builders return states that are physical by construction and
run no Williamson check; ``GaussianState(mean, cov)`` and ``state_from_dict``
still run it.  The check the builders dropped is the oracle for their output.
"""

import itertools
import json
import warnings

import numpy as np
import pytest

from cvbound import states
from cvbound.cli import main
from cvbound.factory import GROUP_13_24, GROUP_14_23, BoundStateSpec, equivalent_construction, smolin_cv_2n
from cvbound.protocols import bell_measure, measure_with_feedforward, superactivate, unlock
from cvbound.separability import _duan_coeffs
from cvbound.states import GaussianState, epr_pair, require_physical, state_from_dict, tensor, vacuum_state

ALL_PAIRS = list(itertools.combinations(range(4), 2))
STRONG_R = [8 + 0.05 * k for k in range(241)]  # 8 ... 20
STRONG_SIGMAS = [0.0, 0.5, 1.0, 3.0]
UNPHYSICAL = "unphysical covariance matrix: min symplectic eigenvalue 0.3 < 1/2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def built_states(spec: BoundStateSpec) -> list[GaussianState]:
    """Every state the library builds for ``spec``: the four-mode builders at two pairs, joint readouts above."""
    state = smolin_cv_2n(spec)
    out = [state, tensor(state, epr_pair(spec.r)), vacuum_state(spec.n_modes)]
    if spec.n_pairs == 2:
        out += [unlock(spec, pair).conditioned_state for pair in ALL_PAIRS]
        out.append(superactivate(spec).conditioned_state)
        for grouping in (GROUP_14_23, GROUP_13_24):
            rebuilt = equivalent_construction(spec, grouping)[1]
            if rebuilt is not None:  # 14-23 is feasible from sigma^2 >= sinh(2r)/4
                out.append(rebuilt)
    else:
        n = spec.n_modes
        out += [bell_measure(state, i, j) for i, j in ((0, 1), (0, 2), (1, n - 1))]
    return out


def test_builders_never_refuse_at_strong_squeezing():
    # the float64 Williamson check refused about 1 in 14 of these states at
    # random, although each is physical
    for r in STRONG_R:
        for sigma in STRONG_SIGMAS:
            spec = BoundStateSpec(2, r, sigma, sigma)
            assert len(built_states(spec)) >= 10
            assert smolin_cv_2n(BoundStateSpec(32, r, sigma, sigma)).n_modes == 64


@pytest.mark.parametrize("sigma", ["0", "0.5", "1", "3"])
def test_build_never_refuses_at_strong_squeezing(capsys, sigma):
    # build --r 8.45 --sigma 0 exited 2: "min symplectic eigenvalue 0.49423 < 1/2"
    for r in STRONG_R:
        code, out, err = run(capsys, "build", "--r", repr(r), "--sigma", sigma)
        assert (code, err) == (0, ""), r
        assert json.loads(out)["n_modes"] == 4
    for r in ("8", "12.5", "20"):
        code, out, err = run(capsys, "build", "--pairs", "32", "--r", r, "--sigma", sigma)
        assert (code, err) == (0, ""), r
        assert json.loads(out)["n_modes"] == 64


def test_builders_run_no_physicality_check(monkeypatch):
    def refuse(cov):
        raise AssertionError("a library builder ran the Williamson check")

    monkeypatch.setattr(states, "require_physical", refuse)
    with pytest.raises(AssertionError):  # the boundary still calls it
        GaussianState(np.zeros(2), 0.5 * np.eye(2))
    for n_pairs in (2, 3):
        spec = BoundStateSpec(n_pairs, 1.0, 0.3, 2.0)
        assert built_states(spec)
    spec = BoundStateSpec(2, 1.0, 1.0, 1.0)
    combos = list(_duan_coeffs(4, 2, 3, +1))
    corrections = [(0, "x", 1.0, 0), (0, "p", -1.0, 1)]
    assert measure_with_feedforward(smolin_cv_2n(spec), (2, 3), combos, corrections).n_modes == 2


@pytest.mark.parametrize("n_pairs", [2, 3, 4, 5, 32])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.0, 3.0])
def test_built_states_pass_the_check_they_skip(n_pairs, r):
    for sigma_x, sigma_p in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (3.0, 3.0), (0.3, 2.0)):
        for state in built_states(BoundStateSpec(n_pairs, r, sigma_x, sigma_p)):
            require_physical(state.cov)


def _unphysical_file(tmp_path):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({"n_modes": 4, "mean": [0.0] * 8, "cov": (0.3 * np.eye(8)).tolist()}))
    return str(path)


def test_the_boundary_still_refuses(tmp_path, capsys):
    with pytest.raises(ValueError) as exc:
        GaussianState(np.zeros(8), 0.3 * np.eye(8))
    assert str(exc.value) == UNPHYSICAL
    path = _unphysical_file(tmp_path)
    with open(path) as fh, pytest.raises(ValueError) as exc:
        state_from_dict(json.load(fh))
    assert str(exc.value) == UNPHYSICAL
    assert run(capsys, "sep-check", "--state", path) == (2, "", f"error: cannot load state: {UNPHYSICAL}\n")
    code, out, err = run(capsys, "validate", "--state", path)
    assert (code, err) == (1, "")
    assert out == f"[PASS] cov-symmetry: max asymmetry 0\n[FAIL] physicality: {UNPHYSICAL}\nbreached invariants: physicality\n"


def test_chain_overflow_at_the_noise_cap_is_refused_with_its_parameters(capsys):
    # a middle pair gains 2 sigma^2, which overflows from sigma about 9.48e153:
    # this warned and exited 2 with "covariance matrix has non-finite entries"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "build", "--pairs", "3", "--r", "1", "--sigma", "1.3e154")
        assert (code, out) == (2, "")
        assert err == (
            "error: the 3-pair chain adds 2 sigma^2 on its middle pairs, which overflows a float "
            "at sigma_x = 1.3e+154, sigma_p = 1.3e+154\n"
        )
        with pytest.raises(ValueError, match="the 5-pair chain adds 2 sigma"):
            smolin_cv_2n(BoundStateSpec(5, 0.5, 1.0, 1e154))
        # two pairs form one chain link, whose entries stay finite; the
        # Williamson check ended this in "SVD did not converge"
        code, out, err = run(capsys, "build", "--pairs", "2", "--sigma", "1.3e154")
    assert (code, err) == (0, "")
    assert "Infinity" not in out and json.loads(out)["cov"][0][0] == 1.3e154**2
