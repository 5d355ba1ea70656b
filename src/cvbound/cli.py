"""Command-line front end.

Subcommands: build, nullifiers, sep-check, unlock, superactivate, sweep,
validate.  Mode labels on the command line are 1-based (matching the optical
diagrams); the library API underneath is 0-based.  Exit codes: 0 success,
1 validation or verdict failure, 2 I/O or argument error.  All numeric output
is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys

import numpy as np

from . import factory, protocols, separability, stabilizer, states

FMT = "{:.12g}"

# the most points one sweep grid, or one axis of it, may hold: a sweep peaks
# at about 3.4 KB per point, so 2**18 points stay near 1 GB
_MAX_GRID_POINTS = 2**18


def _fmt(x: float) -> str:
    return FMT.format(float(x))


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("pair must look like 'i,j'") from None
    if i == j or not (1 <= i <= 4 and 1 <= j <= 4):
        raise argparse.ArgumentTypeError("pair must be two distinct 1-based modes in 1..4")
    return i, j


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            a, b, step = (float(tok) for tok in parts)
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like 'a:b:step' or a single value") from None
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if b < a:
        return []  # empty grid; the sweep command reports it as exit 1
    count = np.floor((b - a) / step + 1 + 1e-9)
    if not np.isfinite(count):
        raise argparse.ArgumentTypeError("grid must hold a finite number of points")
    if count > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid must hold at most {_MAX_GRID_POINTS} points")
    return [a + k * step for k in range(int(count))]


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=int, default=None, help="number of squeezed pairs (default 2)")
    parser.add_argument("--r", type=float, default=None, help="squeezing parameter (default 1)")
    parser.add_argument("--sigma", type=float, default=None, help="noise strength for both quadrature patterns")
    parser.add_argument("--sigma-x", type=float, default=None, help="x-pattern noise strength (overrides --sigma)")
    parser.add_argument("--sigma-p", type=float, default=None, help="p-pattern noise strength (overrides --sigma)")
    parser.add_argument("--config", default=None, help="JSON file with n_pairs/r/sigma_x/sigma_p (flags override)")


def _spec_from_args(args) -> factory.BoundStateSpec:
    base = {"n_pairs": 2, "r": 1.0, "sigma_x": 1.0, "sigma_p": 1.0}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("malformed state spec: the config file must hold a JSON object")
        base.update(config)
    if args.pairs is not None:
        base["n_pairs"] = args.pairs
    if args.sigma is not None:
        base["sigma_x"] = base["sigma_p"] = args.sigma
    if args.sigma_x is not None:
        base["sigma_x"] = args.sigma_x
    if args.sigma_p is not None:
        base["sigma_p"] = args.sigma_p
    if args.r is not None:
        base["r"] = args.r
    return factory.BoundStateSpec.from_dict(base)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_dump(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    state = factory.smolin_cv_2n(spec)
    # state files keep full float precision so read-back is bit-exact;
    # the 12-significant-digit rule applies to printed reports
    _emit(json.dumps(states.state_to_dict(state), indent=2) + "\n", args.out)
    return 0


def cmd_nullifiers(args) -> int:
    spec = _spec_from_args(args)
    state = factory.smolin_cv_2n(spec)
    n = spec.n_modes
    h1 = stabilizer.x_sum_nullifier(n)
    h2 = stabilizer.p_alternating_nullifier(n)
    report = {
        "n_modes": n,
        "x_sum_nullifier": dict(h1.to_dict(), variance=stabilizer.nullifier_variance(state, h1)),
        "p_alternating_nullifier": dict(h2.to_dict(), variance=stabilizer.nullifier_variance(state, h2)),
        "expected_variance": spec.n_pairs * float(np.exp(-2 * spec.r)),
    }
    if spec.n_pairs == 2:
        tables = {}
        for label, part in separability.FOUR_MODE_BIPARTITIONS.items():
            table = stabilizer.partition_commutation_table([h1, h2], part)
            tables[label] = {
                "all_local_commuting": stabilizer.all_local_commuting(table),
                "table": table.tolist(),
            }
        report["partition_commutation"] = tables
    _emit(_json_dump(report), args.out)
    return 0


def _combined_verdict(ppt_verdict: str, separable_by_construction: bool) -> str:
    if ppt_verdict == "entangled":
        return "entangled"
    if separable_by_construction:
        return "separable (by construction)"
    if ppt_verdict == "separable":
        return "separable"
    return "PPT (separability not certified)"


# the sweep's verdict column names the same rule with shorter words
SWEEP_VERDICTS = {
    "entangled": "entangled",
    "separable (by construction)": "separable",
    "separable": "separable",
    "PPT (separability not certified)": "inconclusive",
}


def cmd_sep_check(args) -> int:
    if args.state:
        try:
            with open(args.state) as fh:
                state = states.state_from_dict(json.load(fh))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load state: {exc}", file=sys.stderr)
            return 2
        if state.n_modes != 4:
            print("error: sep-check needs a four-mode state", file=sys.stderr)
            return 2
        spec = None
    else:
        spec = _spec_from_args(args)
        if spec.n_pairs != 2:
            print("error: sep-check covers the four-mode bipartitions", file=sys.stderr)
            return 2
        state = factory.smolin_cv_four(spec)

    rows = []
    for label, bp in separability.FOUR_MODE_BIPARTITIONS.items():
        (ppt_v,), log_neg, duan = separability.cut_diagnostics(state.cov[None], bp)
        by_construction = spec is not None and separability._construction_separable(
            label, spec.r, float(min(spec.sigma_x, spec.sigma_p) ** 2)
        )
        rows.append(
            {
                "bipartition": label,
                "nu_min": ppt_v.witness_value,
                "log_neg": float(log_neg[0]),
                "duan": float(duan[0]),
                "verdict": _combined_verdict(ppt_v.verdict, by_construction),
            }
        )
    footer = None
    if spec is not None:
        # the PPT transition of the noise-dependent cut, printed beside the
        # analytic two-mode witness floor; the two are not equal and no
        # equality is claimed
        sigma_star = separability.ppt_threshold_sigma(spec.r)
        floor = float(np.sqrt(separability.duan_threshold_sigma_sq(spec.r)))
        footer = {
            "ppt_transition_sigma_14_23": sigma_star,
            "duan_noise_floor_sigma": floor,
        }
    if args.format == "json":
        payload = {"rows": rows}
        if footer:
            payload.update(footer)
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["bipartition  nu_min  log_neg  duan  verdict"]
        for row in rows:
            lines.append(
                "  ".join(
                    [row["bipartition"], _fmt(row["nu_min"]), _fmt(row["log_neg"]), _fmt(row["duan"]), row["verdict"]]
                )
            )
        if footer:
            star = _fmt(footer["ppt_transition_sigma_14_23"]) if footer["ppt_transition_sigma_14_23"] is not None else "none"
            lines.append(
                f"14-23 ppt transition sigma* = {star}; "
                f"two-mode witness floor sigma = {_fmt(footer['duan_noise_floor_sigma'])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


SWEEP_COLUMNS = ["r", "sigma", "bipartition", "nu_min", "log_neg", "duan", "verdict", "duan_threshold_sigma_sq"]
# one CSV row: the bytes csv.writer writes for these cells, none of which
# needs quoting
_SWEEP_ROW = "{:.12g},{:.12g},{},{:.12g},{:.12g},{:.12g},{},{:.12g}\r\n"


def cmd_sweep(args) -> int:
    r_values = args.grid_r
    sigma_values = args.grid_sigma
    if not r_values or not sigma_values:
        print("error: empty sweep grid", file=sys.stderr)
        return 1
    n_r, n_sigma = len(r_values), len(sigma_values)
    if n_r * n_sigma > _MAX_GRID_POINTS:
        print(f"error: the sweep grid holds {n_r * n_sigma} points, more than {_MAX_GRID_POINTS}", file=sys.stderr)
        return 2
    label = args.bipartition
    # a spec checks r before sigma, and each check reads r alone or sigma
    # alone; so checking (r_0, sigma) for every sigma, then (r, sigma_0) for
    # every r, raises the message of the first bad point in grid order
    for sigma in sigma_values:
        factory.BoundStateSpec(2, r_values[0], sigma, sigma)
    for r in r_values:
        factory.BoundStateSpec(2, r, sigma_values[0], sigma_values[0])
    r_column = np.repeat(r_values, n_sigma)
    sigma_column = np.tile(sigma_values, n_r)
    covs = factory.smolin_cv_covariances(2, r_column, sigma_column, sigma_column)
    states.require_physical(covs)
    ppt_vs, log_negs, duans = separability.cut_diagnostics(covs, separability.named_bipartition(label))
    sigma_sq = np.array([sigma**2 for sigma in sigma_values])
    by_construction = np.empty((n_r, n_sigma), dtype=bool)
    for row, r in zip(by_construction, r_values):
        row[...] = separability._construction_separable(label, r, sigma_sq)
    # _combined_verdict over its whole domain, then one lookup per point
    short = {
        (ppt, cons): SWEEP_VERDICTS[_combined_verdict(ppt, cons)]
        for ppt in ("entangled", "separable", "inconclusive")
        for cons in (False, True)
    }
    nu_mins, ppt_verdicts = zip(*map(operator.attrgetter("witness_value", "verdict"), ppt_vs))
    columns = (
        r_column.tolist(),
        sigma_column.tolist(),
        itertools.repeat(label, n_r * n_sigma),
        nu_mins,
        log_negs.tolist(),
        duans.tolist(),
        list(map(short.__getitem__, zip(ppt_verdicts, by_construction.ravel().tolist()))),
        np.repeat([separability.duan_threshold_sigma_sq(r) for r in r_values], n_sigma).tolist(),
    )
    if args.format == "json":
        _emit(_json_dump([dict(zip(SWEEP_COLUMNS, row)) for row in zip(*columns)]), args.out)
    else:
        _emit(",".join(SWEEP_COLUMNS) + "\r\n" + "".join(map(_SWEEP_ROW.format, *columns)), args.out)
    return 0


def cmd_unlock(args) -> int:
    spec = _spec_from_args(args)
    i, j = args.pair
    report = protocols.unlock(spec, (i - 1, j - 1))
    payload = report.to_dict()
    payload["survivors"] = [m + 1 for m in report.surviving_modes]  # 1-based labels
    payload["params"]["measured_pair"] = [i, j]
    _emit(_json_dump(payload), args.out)
    return 0


def cmd_superactivate(args) -> int:
    spec = _spec_from_args(args)
    report = protocols.superactivate(spec)
    _emit(_json_dump(report.to_dict()), args.out)
    return 0


def _check(name: str, ok: bool, detail: str, failures: list[str], lines: list[str]) -> None:
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not ok:
        failures.append(name)


def _validate_state_file(path: str, failures: list[str], lines: list[str]) -> int:
    try:
        with open(path) as fh:
            _, cov = states.moments_from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"error: malformed state file: {exc}", file=sys.stderr)
        return 2
    asym = float(np.abs(cov - cov.T).max())
    scale = max(1.0, np.abs(cov).max())
    _check("cov-symmetry", asym <= states.SYMMETRY_TOL * scale, f"max asymmetry {_fmt(asym)}", failures, lines)
    if not failures:
        try:
            nu_min = float(states.require_physical(cov))
            _check("physicality", True, f"min symplectic eigenvalue {_fmt(nu_min)}", failures, lines)
        except ValueError as exc:
            _check("physicality", False, str(exc), failures, lines)
    return 1 if failures else 0


def cmd_validate(args) -> int:
    failures: list[str] = []
    lines: list[str] = []
    if args.state:
        code = _validate_state_file(args.state, failures, lines)
        if code == 2:  # the file could not be loaded; the error is on stderr
            return code
        print("\n".join(lines))
        if failures:
            print("breached invariants: " + ", ".join(failures))
        return code

    count = args.count
    seed = args.seed
    expected = 2 * np.exp(-2.0)

    spec = factory.BoundStateSpec(n_pairs=2, r=1.0, sigma_x=1.0, sigma_p=1.0)
    state = factory.smolin_cv_four(spec)

    # sampling oracle against analytic moments, 5 standard errors per entry
    for name, st in (("vacuum", states.vacuum_state(2)), ("epr", states.epr_pair(1.0)), ("four-mode", state)):
        _, cov_est = states.sample_oracle(st, count, seed)
        se = np.sqrt((np.outer(np.diag(st.cov), np.diag(st.cov)) + st.cov**2) / count)
        worst = float(np.abs(cov_est - st.cov).max())
        ok = bool((np.abs(cov_est - st.cov) <= 5 * se + 1e-12).all())
        _check(f"oracle-{name}", ok, f"{count} samples, worst entry error {_fmt(worst)}", failures, lines)

    h1 = stabilizer.x_sum_nullifier(4)
    h2 = stabilizer.p_alternating_nullifier(4)
    vals = []
    for sigma in (0.0, 1.0, 10.0):
        st = factory.smolin_cv_four(factory.BoundStateSpec(2, 1.0, sigma, sigma))
        vals.extend([stabilizer.nullifier_variance(st, h1), stabilizer.nullifier_variance(st, h2)])
    ok = all(abs(v - expected) < 1e-10 for v in vals)
    _check("nullifier-variances", ok, f"all equal {_fmt(expected)} across sigma in {{0,1,10}}", failures, lines)

    tables = {
        label: stabilizer.partition_commutation_table([h1, h2], part)
        for label, part in separability.FOUR_MODE_BIPARTITIONS.items()
    }
    ok = (
        stabilizer.all_local_commuting(tables["12-34"])
        and stabilizer.all_local_commuting(tables["14-23"])
        and float(np.abs(tables["13-24"]).max()) == 2.0
    )
    _check("commutation-tables", ok, "12-34 and 14-23 commute locally, 13-24 does not (|omega| = 2)", failures, lines)

    v_13 = separability.ppt_verdict(state, separability.named_bipartition("13-24"))
    v_12 = separability.ppt_verdict(state, separability.named_bipartition("12-34"))
    ok = v_13.verdict == "entangled" and v_12.verdict != "entangled"
    detail = f"nu_min(13-24) = {_fmt(v_13.witness_value)}, nu_min(12-34) = {_fmt(v_12.witness_value)}"
    _check("ppt-verdicts", ok, detail, failures, lines)

    rep = protocols.unlock(spec, (2, 3))
    ok = abs(rep.witness_sum_x - expected) < 1e-10 and abs(rep.witness_diff_p - expected) < 1e-10
    _check("unlock", ok, f"witnesses {_fmt(rep.witness_sum_x)}, {_fmt(rep.witness_diff_p)}", failures, lines)

    rep = protocols.superactivate(spec)
    ok = abs(rep.witness_sum_x - 2 * expected) < 1e-10 and abs(rep.witness_diff_p - 2 * expected) < 1e-10
    _check("superactivation", ok, f"witnesses {_fmt(rep.witness_sum_x)}, {_fmt(rep.witness_diff_p)}", failures, lines)

    variant, rebuilt = factory.equivalent_construction(spec, factory.GROUP_14_23)
    err = float(np.abs(rebuilt.cov - state.cov).max()) if rebuilt is not None else np.inf
    _check("construction-equivalence", variant.feasible and err < 1e-10, f"cov mismatch {_fmt(err)}", failures, lines)

    print("\n".join(lines))
    if failures:
        print("breached invariants: " + ", ".join(failures))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbound",
        description="Simulate multipartite unlockable bound-entangled Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a state and write it as JSON")
    _add_spec_flags(p_build)
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_null = sub.add_parser("nullifiers", help="nullifier variances and commutation tables")
    _add_spec_flags(p_null)
    p_null.add_argument("--out", default=None)
    p_null.set_defaults(func=cmd_nullifiers)

    p_sep = sub.add_parser("sep-check", help="PPT / witness verdicts for the three 2:2 bipartitions")
    _add_spec_flags(p_sep)
    p_sep.add_argument("--state", default=None, help="load a state JSON instead of building one")
    p_sep.add_argument("--format", choices=("table", "json"), default="table")
    p_sep.add_argument("--out", default=None)
    p_sep.set_defaults(func=cmd_sep_check)

    p_unlock = sub.add_parser("unlock", help="jointly measure one pair and report the survivors")
    _add_spec_flags(p_unlock)
    p_unlock.add_argument("--pair", type=_parse_pair, required=True, help="measured pair, 1-based, e.g. 3,4")
    p_unlock.add_argument("--out", default=None)
    p_unlock.set_defaults(func=cmd_unlock)

    p_super = sub.add_parser("superactivate", help="two-copy distillation between the far parties")
    _add_spec_flags(p_super)
    p_super.add_argument("--out", default=None)
    p_super.set_defaults(func=cmd_superactivate)

    p_sweep = sub.add_parser("sweep", help="scan (r, sigma) and emit separability diagnostics")
    p_sweep.add_argument("--grid-r", type=_parse_grid, required=True, help="'a:b:step' or a single value")
    p_sweep.add_argument("--grid-sigma", type=_parse_grid, required=True)
    p_sweep.add_argument("--bipartition", choices=sorted(separability.FOUR_MODE_BIPARTITIONS), default="14-23")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; rows are computed in-process")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the sampling oracle and invariant suite")
    p_val.add_argument("--seed", type=int, default=7)
    p_val.add_argument("--count", type=int, default=100_000)
    p_val.add_argument("--state", default=None, help="validate a state file instead of the built-in suite")
    p_val.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one tree serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
