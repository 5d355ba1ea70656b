"""Smoke runs of the experiment scripts with small arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, expected",
    [
        ("protocol_demo", ["--r", "0.5", "--sigma", "2"], "superactivation"),
        ("threshold_scan", ["--r-min", "0.5", "--r-max", "1", "--steps", "2"], "witness floor"),
    ],
)
def test_script_main_runs(capsys, name, argv, expected):
    assert _load(name).main(argv) == 0
    assert expected in capsys.readouterr().out


def test_threshold_scan_writes_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert _load("threshold_scan").main(["--steps", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "r,ppt_sigma_star,ppt_sigma_closed_form,duan_floor_sigma"
