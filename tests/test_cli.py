import argparse
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cvbound
from cvbound import cli, separability
from cvbound.cli import main
from cvbound.factory import BoundStateSpec, smolin_cv_four
from cvbound.states import state_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_state_json(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, _, _ = run(capsys, "build", "--pairs", "2", "--r", "1", "--sigma", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n_modes"] == 4
    assert len(data["cov"]) == 8 and len(data["cov"][0]) == 8
    state = state_from_dict(data)
    assert state.cov[0, 0] == pytest.approx(np.cosh(2.0) / 2 + 1.0, abs=1e-10)


def test_build_three_pairs(tmp_path, capsys):
    out = tmp_path / "state.json"
    code, _, _ = run(capsys, "build", "--pairs", "3", "--r", "1", "--sigma", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["cov"]) == 12


def test_build_round_trip_bit_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--r", "0.7", "--sigma", "2", "--out", str(out1))
    run(capsys, "build", "--r", "0.7", "--sigma", "2", "--out", str(out2))
    assert out1.read_text() == out2.read_text()
    # read-back reproduces the constructed covariance bit for bit
    from cvbound.factory import BoundStateSpec, smolin_cv_2n

    state = state_from_dict(json.loads(out1.read_text()))
    built = smolin_cv_2n(BoundStateSpec(2, 0.7, 2.0, 2.0))
    assert np.array_equal(state.cov, built.cov)


def test_build_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"n_pairs": 2, "r": 2.0, "sigma_x": 3.0, "sigma_p": 3.0}))
    code, out, _ = run(capsys, "build", "--config", str(cfg), "--r", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["cov"][0][0] == pytest.approx(np.cosh(2.0) / 2 + 9.0, abs=1e-9)


def test_build_bad_output_path(capsys):
    code, _, err = run(capsys, "build", "--out", "/nonexistent-dir/state.json")
    assert code == 2
    assert "error" in err


def test_nullifiers_report(capsys):
    code, out, _ = run(capsys, "nullifiers", "--r", "1", "--sigma", "5")
    assert code == 0
    data = json.loads(out)
    expected = 2 * np.exp(-2.0)
    assert data["x_sum_nullifier"]["variance"] == pytest.approx(expected, rel=1e-9)
    assert data["p_alternating_nullifier"]["variance"] == pytest.approx(expected, rel=1e-9)
    tables = data["partition_commutation"]
    assert tables["12-34"]["all_local_commuting"] is True
    assert tables["14-23"]["all_local_commuting"] is True
    assert tables["13-24"]["all_local_commuting"] is False
    # the signed tables, [party][i][j] for (x-sum, alternating p)
    zeros = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert tables["12-34"]["table"] == zeros
    assert tables["14-23"]["table"] == zeros
    assert tables["13-24"]["table"] == [[[0.0, 2.0], [-2.0, 0.0]], [[0.0, -2.0], [2.0, 0.0]]]


def test_fractional_n_pairs_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"n_pairs": 2.9, "r": 1.0, "sigma_x": 1.0, "sigma_p": 1.0}))
    code, out, err = run(capsys, "nullifiers", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: malformed state spec: n_pairs must be an integer >= 2\n"
    # json writes the float as Infinity, and int() of it raises OverflowError
    cfg.write_text(json.dumps({"n_pairs": float("inf"), "r": 1.0, "sigma_x": 1.0, "sigma_p": 1.0}))
    code, out, err = run(capsys, "nullifiers", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed state spec: ")
    for n_pairs in (3, 3.0):
        cfg.write_text(json.dumps({"n_pairs": n_pairs, "r": 1.0, "sigma_x": 1.0, "sigma_p": 1.0}))
        code, out, _ = run(capsys, "nullifiers", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["n_modes"] == 6


@pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "spec.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "build", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: malformed state spec: the config file must hold a JSON object\n"


def test_sep_check_verdicts(capsys):
    code, out, _ = run(capsys, "sep-check", "--r", "1", "--sigma", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {row["bipartition"]: row for row in payload["rows"]}
    assert rows["13-24"]["verdict"] == "entangled"
    assert rows["13-24"]["nu_min"] < 0.5
    assert "separable" in rows["12-34"]["verdict"]
    assert rows["12-34"]["nu_min"] >= 0.5 - 1e-9
    # measured transition reported beside the analytic floor, no equality claimed
    assert payload["ppt_transition_sigma_14_23"] == pytest.approx(
        np.sqrt(np.sinh(2.0) / 4), abs=1e-4
    )
    assert payload["duan_noise_floor_sigma"] == pytest.approx(0.65752, abs=1e-4)


def test_sep_check_r_zero_all_ppt(capsys):
    code, out, _ = run(capsys, "sep-check", "--r", "0", "--sigma", "1", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["nu_min"] >= 0.5 - 1e-9
        assert row["verdict"] != "entangled"


def test_sep_check_transition_is_the_closed_form(capsys):
    code, out, _ = run(capsys, "sep-check", "--r", "1", "--sigma", "1")
    assert code == 0
    assert "14-23 ppt transition sigma* = 0.952215890417;" in out
    # beyond the sigma_max = 10 bracket of the threshold search
    code, out, _ = run(capsys, "sep-check", "--r", "3.5", "--sigma", "1", "--format", "json")
    assert json.loads(out)["ppt_transition_sigma_14_23"] == pytest.approx(np.sqrt(np.sinh(7.0) / 4), rel=1e-11)
    code, out, _ = run(capsys, "sep-check", "--r", "0", "--sigma", "1")
    assert "14-23 ppt transition sigma* = none;" in out


def _non_finite_state(tmp_path, where):
    cov = (0.5 * np.eye(8)).tolist()
    mean = [0.0] * 8
    if where == "cov":
        cov[2][3] = cov[3][2] = float("nan")
    else:
        mean[5] = float("inf")
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"n_modes": 4, "mean": mean, "cov": cov}))
    return str(path)


@pytest.mark.parametrize("where", ["cov", "mean"])
@pytest.mark.parametrize(
    "command, prefix",
    [("sep-check", "error: cannot load state: "), ("validate", "error: malformed state file: ")],
)
def test_non_finite_state_file_exits_2(tmp_path, capsys, where, command, prefix):
    path = _non_finite_state(tmp_path, where)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, "--state", path)
    assert code == 2
    assert err == f"{prefix}state object has non-finite entries in {where}\n"
    assert out == ""


def test_sep_check_from_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    run(capsys, "build", "--r", "1", "--sigma", "1", "--out", str(path))
    code, out, _ = run(capsys, "sep-check", "--state", str(path), "--format", "json")
    assert code == 0
    rows = {row["bipartition"]: row for row in json.loads(out)["rows"]}
    assert rows["13-24"]["verdict"] == "entangled"
    # without construction knowledge PPT stays uncertified
    assert rows["12-34"]["verdict"] == "PPT (separability not certified)"


def test_sep_check_malformed_state_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "sep-check", "--state", str(path))
    assert code == 2 and "error" in err
    path.write_text(json.dumps({"n_modes": 4, "mean": [0.0] * 8, "cov": [[0.5]]}))
    code, _, err = run(capsys, "sep-check", "--state", str(path))
    assert code == 2


def test_unlock_command(capsys):
    code, out, _ = run(capsys, "unlock", "--pair", "3,4", "--r", "1", "--sigma", "1")
    assert code == 0
    data = json.loads(out)
    assert data["survivors"] == [1, 2]
    assert data["witness_sum_x"] == pytest.approx(2 * np.exp(-2.0), rel=1e-9)
    assert data["entangled"] is True
    assert data["params"]["measured_pair"] == [3, 4]


def test_unlock_forbidden_pair(capsys):
    code, out, _ = run(capsys, "unlock", "--pair", "2,4", "--r", "1", "--sigma", "1")
    assert code == 0
    data = json.loads(out)
    assert data["entangled"] is False
    assert data["duan"] >= 2.0


def test_unlock_bad_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["unlock", "--pair", "5,1"])
    assert err.value.code == 2


def test_superactivate_command(capsys):
    code, out, _ = run(capsys, "superactivate", "--r", "1", "--sigma", "1")
    assert code == 0
    data = json.loads(out)
    assert data["witness_sum_x"] == pytest.approx(4 * np.exp(-2.0), rel=1e-9)
    assert data["witness_diff_p"] == pytest.approx(4 * np.exp(-2.0), rel=1e-9)
    assert data["duan"] == pytest.approx(8 * np.exp(-2.0), rel=1e-9)
    assert data["entangled"] is True


def test_sweep_row_count_and_schema(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--grid-r",
        "0.5:2:0.75",
        "--grid-sigma",
        "0:2:0.05",
        "--bipartition",
        "14-23",
        "--out",
        str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["r", "sigma", "bipartition", "nu_min", "log_neg", "duan", "verdict", "duan_threshold_sigma_sq"]
    assert len(body) == 3 * 41  # 123 grid points
    at_r1 = [row for row in body if row[0] == "1.25"]
    assert len(at_r1) == 41


def test_sweep_eq_threshold_column_constant_in_sigma(capsys):
    code, out, _ = run(capsys, "sweep", "--grid-r", "1", "--grid-sigma", "0:1:0.5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    expected = (1 - np.exp(-2.0)) / 2
    assert all(row["duan_threshold_sigma_sq"] == pytest.approx(expected, rel=1e-9) for row in rows)


def test_sweep_13_24_npt_everywhere(capsys):
    code, out, _ = run(
        capsys, "sweep", "--grid-r", "0.5:2:0.5", "--grid-sigma", "0:10:2.5",
        "--bipartition", "13-24", "--format", "json",
    )
    assert code == 0
    for row in json.loads(out):
        assert row["nu_min"] < 0.5
        assert row["verdict"] == "entangled"


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    args = ["sweep", "--grid-r", "0.5:1.5:0.5", "--grid-sigma", "0:1:0.25"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run(capsys, *args, "--out", str(serial))
    run(capsys, *args, "--jobs", "3", "--out", str(parallel))
    assert serial.read_text() == parallel.read_text()


@pytest.mark.parametrize("grid_r", ["-0.1", "25", "0:25:5"])
def test_sweep_out_of_range_r_exits_2(capsys, grid_r):
    code, out, err = run(capsys, "sweep", "--grid-r", grid_r, "--grid-sigma", "0:1:0.5")
    assert code == 2
    assert err == "error: squeezing parameter must lie in [0, 20]\n"
    assert out == ""


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "argv, prefix",
    [
        pytest.param(["sweep", "--grid-r", "1", "--grid-sigma"], "error: ", id="sweep"),
        pytest.param(["sep-check", "--sigma"], "error: malformed state spec: ", id="sep-check"),
        pytest.param(["unlock", "--pair", "3,4", "--sigma-p"], "error: malformed state spec: ", id="unlock"),
    ],
)
def test_non_finite_noise_strength_exits_2(capsys, argv, prefix, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv, value)
    assert code == 2
    assert err == f"{prefix}noise strengths must be finite\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, prefix",
    [
        pytest.param(["sweep", "--grid-r", "1", "--grid-sigma"], "error: ", id="sweep"),
        pytest.param(["sep-check", "--r", "1", "--sigma"], "error: malformed state spec: ", id="sep-check"),
        pytest.param(["build", "--sigma-x"], "error: malformed state spec: ", id="build"),
        pytest.param(["unlock", "--pair", "3,4", "--sigma-p"], "error: malformed state spec: ", id="unlock"),
    ],
)
def test_noise_strength_whose_square_overflows_exits_2(capsys, argv, prefix):
    # sigma**2 would overflow a float: before the cap this ended in an OverflowError
    code, out, err = run(capsys, *argv, "1e160")
    assert (code, out) == (2, "")
    # the whole of stderr is the one-line error, so no traceback
    assert err == f"{prefix}noise strengths must be at most sqrt(largest float) = 1.34078079299e+154\n"


def test_pair_count_over_the_cap_exits_2_before_building(tmp_path, capsys):
    path = tmp_path / "state.json"
    code, out, err = run(capsys, "build", "--pairs", "513", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: malformed state spec: n_pairs must be at most 512: the state takes memory quadratic in n_pairs\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sep-check", "--r", "12", "--sigma", "1"], id="sep-check"),
        pytest.param(["sweep", "--grid-r", "12", "--grid-sigma", "1"], id="sweep"),
    ],
)
def test_spectrum_rounded_to_zero_exits_2(capsys, argv):
    # at r = 12 float64 rounds a partial-transpose eigenvalue to 0; the
    # log-negativity would be inf and 12-34 would read "entangled"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: a partial-transpose symplectic eigenvalue rounded to 0")
    assert out == ""


def _scalar_sweep_rows(label, r_values=None, sigma_values=None):
    # one state per point; the default grid is --grid-r 0.1:3:0.3 --grid-sigma 0:5:0.5
    bp = separability.named_bipartition(label)
    rows = []
    for r in [0.1 + k * 0.3 for k in range(10)] if r_values is None else r_values:
        for sigma in [k * 0.5 for k in range(11)] if sigma_values is None else sigma_values:
            spec = BoundStateSpec(2, r, sigma, sigma)
            state = smolin_cv_four(spec)
            ppt_v = separability.ppt_verdict(state, bp)
            if ppt_v.verdict == "entangled":
                verdict = "entangled"
            elif separability.construction_verdict(spec, label).verdict == "separable":
                verdict = "separable"
            else:
                verdict = "inconclusive"
            duans = [separability.duan_value(state, a, b, s) for a in bp.side_a for b in bp.side_b for s in (+1, -1)]
            rows.append(
                [r, sigma, label, ppt_v.witness_value, separability.log_negativity(state, bp), min(duans), verdict,
                 separability.duan_threshold_sigma_sq(r)]
            )  # fmt: skip
    return rows


@pytest.mark.parametrize("label", ["12-34", "14-23", "13-24"])
def test_sweep_matches_scalar_api(capsys, label):
    grid = ["--grid-r", "0.1:3:0.3", "--grid-sigma", "0:5:0.5", "--bipartition", label]
    expected = _scalar_sweep_rows(label)
    code, out, _ = run(capsys, "sweep", *grid)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,sigma,bipartition,nu_min,log_neg,duan,verdict,duan_threshold_sigma_sq"
    assert lines[1:] == [",".join(f"{v:.12g}" if isinstance(v, float) else v for v in row) for row in expected]
    code, out, _ = run(capsys, "sweep", *grid, "--format", "json")
    assert code == 0
    keys = lines[0].split(",")
    rounded = [[float(f"{v:.12g}") if isinstance(v, float) else v for v in row] for row in expected]
    assert json.loads(out) == [dict(zip(keys, row)) for row in rounded]


def _scalar_sweep_output(label, r_values, sigma_values, fmt):
    """The sweep's stdout built from per-point rows with csv.writer or json.dumps."""
    rows = _scalar_sweep_rows(label, r_values, sigma_values)
    if fmt == "json":
        rounded = [[float(f"{v:.12g}") if isinstance(v, float) else v for v in row] for row in rows]
        return json.dumps([dict(zip(cli.SWEEP_COLUMNS, row)) for row in rounded], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cli.SWEEP_COLUMNS)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _sweep_axes(capsys, monkeypatch, r_values, sigma_values, label="14-23", fmt="csv"):
    """``main`` on a sweep over explicit axes, which no 'a:b:step' string may spell."""
    args = argparse.Namespace(
        grid_r=r_values, grid_sigma=sigma_values, bipartition=label, format=fmt, jobs=1, out=None, func=cli.cmd_sweep
    )
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", lambda self, argv=None: args)
    return run(capsys, "sweep")


# sigma = sqrt(sinh(2r)/4) is the 14-23 construction boundary of each nonzero
# r; one float below it the cut is PPT within tolerance but not separable by
# construction
_BOUNDARY_SIGMA = [math.sqrt(math.sinh(2 * r) / 4) for r in (0.3, 1.0, 2.5)]
_EDGE_R = [0.0, -0.0, 0.3, 1.0, 2.5]
_EDGE_SIGMA = [0.0, -0.0, 0.7, 3.0] + _BOUNDARY_SIGMA + [math.nextafter(s, 0.0) for s in _BOUNDARY_SIGMA]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("label", ["12-34", "14-23", "13-24"])
def test_sweep_matches_per_point_output_on_edge_grids(capsys, monkeypatch, label, fmt):
    code, out, err = _sweep_axes(capsys, monkeypatch, _EDGE_R, _EDGE_SIGMA, label, fmt)
    assert (code, err) == (0, "")
    assert out == _scalar_sweep_output(label, _EDGE_R, _EDGE_SIGMA, fmt)


@pytest.mark.parametrize(
    "r_values, sigma_values, message",
    [
        # r_0 fine: the first bad point in grid order is (r_0, -1)
        pytest.param([1.0, 25.0], [0.5, -1.0], "noise strengths must be nonnegative", id="bad-sigma-then-bad-r"),
        pytest.param([1.0, 25.0], [0.5, 1.0], "squeezing parameter must lie in [0, 20]", id="bad-r-later"),
        pytest.param([25.0, 1.0], [0.5, -1.0], "squeezing parameter must lie in [0, 20]", id="bad-r-first"),
        pytest.param([-0.0, 1.0], [0.0, 0.5, math.nan], "noise strengths must be finite", id="nan-sigma-later"),
        pytest.param([1.0], [0.5, math.inf], "noise strengths must be finite", id="inf-sigma-later"),
        pytest.param([1.0, math.nan], [0.5, math.inf], "noise strengths must be finite", id="inf-sigma-then-nan-r"),
    ],
)
def test_sweep_refuses_with_the_first_bad_point_in_grid_order(capsys, monkeypatch, r_values, sigma_values, message):
    code, out, err = _sweep_axes(capsys, monkeypatch, r_values, sigma_values)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_empty_grid_exits_1(capsys):
    code, _, err = run(capsys, "sweep", "--grid-r", "2:1:0.5", "--grid-sigma", "0:1:0.5")
    assert code == 1 and "empty" in err
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--grid-r", "1:2:0", "--grid-sigma", "0:1:0.5"])
    assert err.value.code == 2  # bad step is an argument error


@pytest.mark.parametrize("grid_r", ["0:inf:1", "0:1e308:1e-308"])
def test_sweep_grid_with_unbounded_point_count_exits_2(grid_r):
    # (b - a) / step overflows to inf: the grid has no finite point count
    argv = ["sweep", "--grid-r", grid_r, "--grid-sigma", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "cvbound.cli", *argv], env=_subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: argument --grid-r: grid must hold a finite number of points\n")


def test_grid_axis_point_cap():
    assert len(cli._parse_grid(f"0:{cli._MAX_GRID_POINTS - 1}:1")) == cli._MAX_GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match=f"grid must hold at most {cli._MAX_GRID_POINTS} points"):
        cli._parse_grid(f"0:{cli._MAX_GRID_POINTS}:1")


def _limit_address_space():
    # a grid that gets past the cap fails fast here instead of taking the
    # host's memory
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "grid_r, grid_sigma, message",
    [
        pytest.param("0:1e9:1", "0", "error: argument --grid-r: grid must hold at most 262144 points", id="axis"),
        pytest.param(
            "0:5:0.001", "0:10:0.001", "error: the sweep grid holds 50015001 points, more than 262144", id="product"
        ),
    ],
)
def test_sweep_grid_over_the_point_cap_exits_2(grid_r, grid_sigma, message):
    argv = ["sweep", "--grid-r", grid_r, "--grid-sigma", grid_sigma]
    env = dict(_subprocess_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cvbound.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )  # fmt: skip
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(message + "\n")


def test_validate_passes_and_is_deterministic(capsys):
    code, out1, _ = run(capsys, "validate", "--seed", "7", "--count", "20000")
    assert code == 0
    assert "[FAIL]" not in out1
    code, out2, _ = run(capsys, "validate", "--seed", "7", "--count", "20000")
    assert code == 0
    assert out1 == out2


def test_validate_corrupted_state_exits_1(tmp_path, capsys):
    cov = (0.5 * np.eye(4)).tolist()
    cov[0][1] = 0.3  # asymmetric entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_modes": 2, "mean": [0.0] * 4, "cov": cov}))
    code, out, _ = run(capsys, "validate", "--state", str(path))
    assert code == 1
    assert "cov-symmetry" in out


def test_validate_unphysical_state_exits_1(tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({"n_modes": 1, "mean": [0.0, 0.0], "cov": [[0.1, 0.0], [0.0, 0.1]]}))
    code, out, _ = run(capsys, "validate", "--state", str(path))
    assert code == 1
    assert "physicality" in out


def test_validate_good_state_file(tmp_path, capsys):
    path = tmp_path / "good.json"
    run(capsys, "build", "--r", "1", "--sigma", "1", "--out", str(path))
    code, out, _ = run(capsys, "validate", "--state", str(path))
    assert code == 0
    assert "[FAIL]" not in out


def test_validate_accepts_strongly_squeezed_built_state(tmp_path, capsys):
    # nu_min of this file is 1/2 exactly; float64 gives 0.4999998, inside the
    # scale-relative physicality tolerance that GaussianState and
    # sep-check --state apply
    path = tmp_path / "r6.json"
    run(capsys, "build", "--r", "6", "--sigma", "1", "--out", str(path))
    code, out, _ = run(capsys, "sep-check", "--state", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--state", str(path))
    assert code == 0
    assert out.splitlines()[1].startswith("[PASS] physicality: min symplectic eigenvalue 0.4999998")


def _subprocess_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cvbound.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_neither_scipy_nor_multiprocessing():
    env = _subprocess_env()
    code = "import sys, cvbound.cli; print(sorted({'scipy', 'multiprocessing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _in_process(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on a bad argument
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main reuses one parser per process; repeated and failed parses must not
    # leak into the next call
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    env = _subprocess_env()
    calls = [
        ("sweep", "--grid-r", "0.5:1:0.5", "--grid-sigma", "0:1:1", "--bipartition", "13-24"),
        ("nullifiers", "--pairs", "3", "--r", "0.7"),
        ("sweep", "--grid-r", "1", "--grid-sigma", "0:1:-1"),
        ("unlock", "--pair", "2,2"),
    ]
    in_process = [_in_process(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 2]
    for argv, got in zip(calls, in_process):
        # bytes, so that the CSV's \r\n line ends are compared as written
        proc = subprocess.run([sys.executable, "-m", "cvbound.cli", *argv], env=env, capture_output=True, timeout=60)
        assert got == (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
