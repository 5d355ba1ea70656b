"""The four benchmark workloads and their closed-form output oracles.

Every workload is one closed-loop client in one process: it draws the inputs
of its next op from the seeded generator, runs the op, checks the output, and
only then starts the next one.  ``call`` is the timed part; ``check`` runs
after the clock stops and returns None or the reason the op failed.

All workloads draw r from [0.1, 3] and sigma from [0, 5].  Below r = 3 the
float64 error of every checked quantity stays under 5e-11 relative (measured
worst case 2e-11), so ``REL_TOL`` leaves a margin of 20x over that and over
the 12-significant-digit rounding of CLI output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

R_RANGE = (0.1, 3.0)
SIGMA_RANGE = (0.0, 5.0)
REL_TOL = 1e-9
THRESH_TOL = 1e-6  # xtol of ppt_threshold_search's root finder
COV_TOL = 1e-10  # elementwise agreement promised by equivalent_construction
PPT_TOL = 1e-9  # a PPT cut may dip below 1/2 by rounding only
BAND = 1e-6  # relative band around sigma^2 = sinh(2r)/4 where no verdict is asserted

HERE = Path(__file__).resolve().parent
MIXED_PAIRS = {(0, 1), (2, 3), (0, 3), (1, 2)}  # 0-based pairs of opposite nullifier parity
ALL_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
CUTS = ("12-34", "14-23", "13-24")


def ppt_floor(r: float) -> float:
    """sigma^2 at which the 14-23 cut turns PPT: sinh(2r)/4."""
    return math.sinh(2 * r) / 4


def near_floor(sigma_sq: float, r: float) -> bool:
    return abs(sigma_sq - ppt_floor(r)) <= BAND * ppt_floor(r)


def rel_close(value: float, exact: float) -> bool:
    return abs(value - exact) <= REL_TOL * abs(exact)


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _expect(ok: bool, what: str) -> str | None:
    return None if ok else what


class Strata:
    """Seeded draws from [lo, hi] in rounds of k, one draw in each of k equal bins per round.

    Op cost depends on the inputs (``ppt_threshold_search`` takes about twice
    as long at r = 0.1 as at r = 1), so stratifying keeps the input mix, and
    with it the median latency, nearly the same from seed to seed.
    """

    def __init__(self, rng, lo: float, hi: float, k: int = 8):
        self.rng, self.lo, self.width, self.k = rng, lo, (hi - lo) / k, k
        self.pending: list[int] = []

    def __call__(self) -> float:
        if not self.pending:
            self.pending = list(range(self.k))
            self.rng.shuffle(self.pending)
        return self.lo + (self.pending.pop() + self.rng.random()) * self.width


class Workload:
    name = ""
    in_process = True  # False when the ops run in child processes of their own

    def __init__(self, rng, workdir: Path, env: dict, nproc: int):
        self.rng = rng
        self.draw_r = Strata(rng, *R_RANGE)
        self.draw_sigma_x = Strata(rng, *SIGMA_RANGE)
        self.draw_sigma_p = Strata(rng, *SIGMA_RANGE)
        self.workdir = workdir
        self.env = env
        self.nproc = nproc
        self.report: dict = {}

    def prepare(self) -> None:
        """One-time set-up before the first timed op (counted in setup_s)."""

    def draw(self):
        raise NotImplementedError

    def call(self, inputs, tracer):
        raise NotImplementedError

    def check(self, inputs, result) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------- cli-oneshot


class CliOneshot(Workload):
    """Each op is one fresh ``python -m cvbound.cli`` process, spawn to exit."""

    name = "cli-oneshot"
    in_process = False
    KINDS = ("sep-check", "sep-check-state", "unlock", "superactivate", "nullifiers", "build", "validate")
    N_STATE_FILES = 6

    def prepare(self):
        from cvbound import factory, states

        self.state_files = []
        for k in range(self.N_STATE_FILES):
            r, sigma = self.draw_r(), self.draw_sigma_x()
            state = factory.smolin_cv_four(factory.BoundStateSpec(2, r, sigma, sigma))
            path = self.workdir / f"state{k}.json"
            path.write_text(json.dumps(states.state_to_dict(state)))
            self.state_files.append((str(path), r, sigma))
        self.queue = []

    def draw(self):
        # the mix is stratified: every run of 7 ops holds each kind once in a
        # seeded order, so seeds change the inputs but not the proportions
        if not self.queue:
            self.queue = list(self.KINDS)
            self.rng.shuffle(self.queue)
        kind = self.queue.pop()
        rng = self.rng
        r, sx, sp = self.draw_r(), self.draw_sigma_x(), self.draw_sigma_p()
        inp = {"kind": kind, "r": r, "sigma_x": sx, "sigma_p": sp}
        spec = ["--r", repr(r), "--sigma-x", repr(sx), "--sigma-p", repr(sp)]
        if kind == "sep-check":
            argv = ["sep-check", "--r", repr(r), "--sigma", repr(sx), "--format", "json"]
        elif kind == "sep-check-state":
            path, inp["r"], sigma = rng.choice(self.state_files)
            inp["sigma_x"] = inp["sigma_p"] = sigma
            argv = ["sep-check", "--state", path, "--format", "json"]
        elif kind == "unlock":
            inp["pair"] = rng.choice(ALL_PAIRS)
            argv = ["unlock", "--pair", "{},{}".format(*(m + 1 for m in inp["pair"]))] + spec
        elif kind == "superactivate":
            argv = ["superactivate"] + spec
        elif kind in ("nullifiers", "build"):
            inp["n_pairs"] = rng.randint(2, 6)
            argv = [kind, "--pairs", str(inp["n_pairs"])] + spec
        else:
            argv = ["validate"]
        inp["argv"] = argv
        return inp

    def call(self, inp, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "cvbound.cli", *inp["argv"]]
        else:
            summary = self.workdir / "trace-summary.json"
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(summary), "--", *inp["argv"]]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        if tracer is not None and summary.exists():
            tracer.merge(json.loads(summary.read_text()))
            summary.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc

    def check(self, inp, proc):
        kind, r = inp["kind"], inp["r"]
        if kind == "validate":
            lines = proc.stdout.splitlines()
            return _expect(lines and all(ln.startswith("[PASS]") for ln in lines), "validate reported a FAIL")
        out = json.loads(proc.stdout)
        e2r = math.exp(-2 * r)
        if kind.startswith("sep-check"):
            return self._check_sep(inp, out, e2r)
        if kind == "unlock":
            if tuple(inp["pair"]) in MIXED_PAIRS:
                return _expect(
                    rel_close(out["witness_sum_x"], 2 * e2r) and rel_close(out["witness_diff_p"], 2 * e2r),
                    "unlock witnesses differ from 2 exp(-2r)",
                )
            return _expect(out["entangled"] is False, "unlock on a same-parity pair claimed entanglement")
        if kind == "superactivate":
            return _expect(
                rel_close(out["witness_sum_x"], 4 * e2r) and rel_close(out["witness_diff_p"], 4 * e2r),
                "superactivation witnesses differ from 4 exp(-2r)",
            )
        n = inp["n_pairs"]
        if kind == "nullifiers":
            return _expect(
                rel_close(out["x_sum_nullifier"]["variance"], n * e2r)
                and rel_close(out["p_alternating_nullifier"]["variance"], n * e2r),
                "nullifier variances differ from n_pairs exp(-2r)",
            )
        import numpy as np

        cov = np.asarray(out["cov"])
        x_sum = np.zeros(4 * n)
        x_sum[0::2] = 1.0
        p_alt = np.zeros(4 * n)
        p_alt[1::2] = [(-1.0) ** m for m in range(2 * n)]
        return _expect(
            out["n_modes"] == 2 * n
            and rel_close(float(x_sum @ cov @ x_sum), n * e2r)
            and rel_close(float(p_alt @ cov @ p_alt), n * e2r),
            "built state's nullifier variances differ from n_pairs exp(-2r)",
        )

    @staticmethod
    def _check_sep(inp, out, e2r):
        rows = {row["bipartition"]: row for row in out["rows"]}
        r, sigma = inp["r"], inp["sigma_x"]
        from_spec = inp["kind"] == "sep-check"
        certified = "separable (by construction)" if from_spec else "PPT (separability not certified)"
        reasons = [
            _expect(rows["13-24"]["verdict"] == "entangled", "13-24 not entangled"),
            _expect(rel_close(rows["13-24"]["nu_min"], e2r / 2), "nu_min(13-24) differs from exp(-2r)/2"),
            _expect(rows["12-34"]["verdict"] == certified, "12-34 verdict wrong"),
        ]
        if not near_floor(sigma**2, r):
            want = "entangled" if sigma**2 < ppt_floor(r) else certified
            reasons.append(_expect(rows["14-23"]["verdict"] == want, "14-23 verdict wrong"))
        if from_spec:
            star = out["ppt_transition_sigma_14_23"]
            reasons.append(
                _expect(abs(star - math.sqrt(ppt_floor(r))) <= THRESH_TOL, "14-23 PPT transition off sqrt(sinh(2r)/4)")
            )
        return _first(*reasons)


# --------------------------------------------------------------- protocol-mix


class ProtocolMix(Workload):
    """Each op is one round over the four-mode public API, in process."""

    name = "protocol-mix"

    def prepare(self):
        from cvbound import factory, protocols, separability

        self.factory, self.protocols, self.sep = factory, protocols, separability

    def draw(self):
        return {
            "r": self.draw_r(),
            "sigma_x": self.draw_sigma_x(),
            "sigma_p": self.draw_sigma_p(),
            "pair": self.rng.choice(ALL_PAIRS),
        }

    def call(self, inp, tracer):
        factory, protocols, sep = self.factory, self.protocols, self.sep
        spec = factory.BoundStateSpec(2, inp["r"], inp["sigma_x"], inp["sigma_p"])
        unlocked = protocols.unlock(spec, inp["pair"])
        super_rep = protocols.superactivate(spec)
        state = factory.smolin_cv_four(spec)
        rebuilt = [factory.equivalent_construction(spec, g) for g in (factory.GROUP_14_23, factory.GROUP_13_24)]
        cuts = {}
        for label, bp in sep.FOUR_MODE_BIPARTITIONS.items():
            cuts[label] = (
                sep.ppt_verdict(state, bp),
                sep.log_negativity(state, bp),
                sep.duan_value(state, bp.side_a[0], bp.side_b[0]),
            )
        star = sep.ppt_threshold_search(inp["r"], sep.FOUR_MODE_BIPARTITIONS["14-23"])
        return unlocked, super_rep, state, rebuilt, cuts, star

    def check(self, inp, result):
        import numpy as np

        unlocked, super_rep, state, rebuilt, cuts, star = result
        r = inp["r"]
        e2r = math.exp(-2 * r)
        min_sq = min(inp["sigma_x"], inp["sigma_p"]) ** 2
        reasons = []
        if tuple(inp["pair"]) in MIXED_PAIRS:
            reasons.append(
                _expect(
                    rel_close(unlocked.witness_sum_x, 2 * e2r) and rel_close(unlocked.witness_diff_p, 2 * e2r),
                    "unlock witnesses differ from 2 exp(-2r)",
                )
            )
        else:
            reasons.append(_expect(not unlocked.entangled, "unlock on a same-parity pair claimed entanglement"))
        reasons.append(
            _expect(
                rel_close(super_rep.witness_sum_x, 4 * e2r) and rel_close(super_rep.witness_diff_p, 4 * e2r),
                "superactivation witnesses differ from 4 exp(-2r)",
            )
        )
        v14, v13 = (variant for variant, _ in rebuilt)
        if not near_floor(min_sq, r):
            reasons.append(_expect(v14.feasible == (min_sq >= ppt_floor(r)), "14-23 construction feasibility wrong"))
        for variant, rebuilt_state in rebuilt:
            if variant.feasible:
                err = float(np.abs(rebuilt_state.cov - state.cov).max())
                reasons.append(_expect(err <= COV_TOL, "equivalent construction differs from smolin_cv_four"))
        reasons.append(_expect(v13.feasible, "13-24 construction infeasible"))
        ppt13 = cuts["13-24"][0]
        reasons.append(
            _expect(
                ppt13.verdict == "entangled" and rel_close(ppt13.witness_value, e2r / 2),
                "nu_min(13-24) differs from exp(-2r)/2",
            )
        )
        # a PPT cut's spectrum may sit up to PPT_TOL below 1/2, which bounds
        # its log-negativity by -log2(1 - 2 PPT_TOL)
        reasons.append(
            _expect(
                cuts["12-34"][0].witness_value >= 0.5 - PPT_TOL and cuts["12-34"][1] <= -math.log2(1 - 2 * PPT_TOL),
                "12-34 not PPT",
            )
        )
        if not near_floor(min_sq, r):
            want = min_sq < ppt_floor(r)
            reasons.append(_expect((cuts["14-23"][0].verdict == "entangled") == want, "14-23 verdict wrong"))
        reasons.append(
            _expect(
                star is not None and abs(star - math.sqrt(ppt_floor(r))) <= THRESH_TOL,
                "14-23 PPT transition off sqrt(sinh(2r)/4)",
            )
        )
        return _first(*reasons)


# ----------------------------------------------------------------- sweep-grid


class SweepGrid(Workload):
    """Each op sweeps one grid block through ``cvbound.cli.main``, serial and with --jobs nproc."""

    name = "sweep-grid"
    N_R, N_SIGMA = 12, 20  # 240 points per block

    def prepare(self):
        import cvbound.cli

        self.cli = cvbound.cli
        self.queue = []
        self.serial_first = True
        self.report = {"serial_s": 0.0, "jobs_s": 0.0, "points": 0}

    @staticmethod
    def _grid(rng, lo, hi, n):
        # n values from a seeded start and step, all inside [lo, hi]; the end
        # point sits half a step past the last value so the CLI's float count
        # rounds to n
        start = rng.uniform(lo, lo + 0.2 * (hi - lo))
        step = (hi - start) / (n - 1) * rng.uniform(0.8, 1.0)
        text = f"{start!r}:{start + (n - 0.5) * step!r}:{step!r}"
        return text, [start + k * step for k in range(n)]

    def draw(self):
        if not self.queue:
            self.queue = list(CUTS)
            self.rng.shuffle(self.queue)
        grid_r, r_values = self._grid(self.rng, *R_RANGE, self.N_R)
        grid_s, s_values = self._grid(self.rng, *SIGMA_RANGE, self.N_SIGMA)
        return {"label": self.queue.pop(), "grid_r": grid_r, "grid_s": grid_s, "r": r_values, "sigma": s_values}

    def call(self, inp, tracer):
        modes = ["serial", "jobs"] if self.serial_first else ["jobs", "serial"]
        self.serial_first = not self.serial_first
        times = {}
        for mode in modes:
            argv = [
                "sweep", "--grid-r", inp["grid_r"], "--grid-sigma", inp["grid_s"],
                "--bipartition", inp["label"], "--jobs", str(self.nproc if mode == "jobs" else 1),
                "--out", str(self.workdir / f"sweep-{mode}.csv"),
            ]  # fmt: skip
            t0 = time.perf_counter()
            if mode == "jobs" and tracer is not None:
                # pool workers are separate processes the tracer cannot follow
                with tracer.suspended():
                    code = self.cli.main(argv)
            else:
                code = self.cli.main(argv)
            times[mode] = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"sweep {mode} exited {code}")
        if tracer is None:
            self.report["serial_s"] += times["serial"]
            self.report["jobs_s"] += times["jobs"]
            self.report["points"] += len(inp["r"]) * len(inp["sigma"])

    def check(self, inp, _):
        serial = (self.workdir / "sweep-serial.csv").read_text()
        if (self.workdir / "sweep-jobs.csv").read_text() != serial:
            return "--jobs output differs from serial output"
        rows = list(csv.DictReader(io.StringIO(serial)))
        grid = [(r, s) for r in inp["r"] for s in inp["sigma"]]
        if len(rows) != len(grid):
            return f"{len(rows)} rows for {len(grid)} grid points"
        label = inp["label"]
        for row, (r, s) in zip(rows, grid):
            if float(row["r"]) != float(f"{r:.12g}") or float(row["sigma"]) != float(f"{s:.12g}"):
                return "row order or grid values wrong"
            if row["bipartition"] != label:
                return "bipartition column wrong"
            if not rel_close(float(row["duan_threshold_sigma_sq"]), (1 - math.exp(-2 * r)) / 2):
                return "duan_threshold_sigma_sq differs from (1 - exp(-2r))/2"
            if label == "12-34":
                want = "separable"
            elif label == "13-24":
                want = "entangled"
                if not rel_close(float(row["nu_min"]), math.exp(-2 * r) / 2):
                    return "nu_min(13-24) differs from exp(-2r)/2"
            elif near_floor(s * s, r):
                continue
            else:
                want = "entangled" if s * s < ppt_floor(r) else "separable"
            if row["verdict"] != want:
                return f"{label} verdict {row['verdict']!r} at r={r}, sigma={s}"
        return None


# -------------------------------------------------------------- wide-register


class WideRegister(Workload):
    """Each op builds and analyses two 64-mode (32-pair, 128x128) states in process."""

    name = "wide-register"
    N_PAIRS = 32
    # one register takes ~0.3 s on a fast core and ~0.5 s on a contended one,
    # and a shared host switches between the two within a second; with two
    # registers per op the median op lands on the mixed case instead of
    # flipping between the fast and the slow mode from run to run
    REGISTERS_PER_OP = 2

    def prepare(self):
        from cvbound import factory, separability, stabilizer, states

        self.factory, self.sep, self.stab, self.states = factory, separability, stabilizer, states
        n = 2 * self.N_PAIRS
        self.half = separability.Bipartition(range(n // 2), range(n // 2, n))
        self.nullifiers = (stabilizer.x_sum_nullifier(n), stabilizer.p_alternating_nullifier(n))

    def draw(self):
        return [
            {"r": self.draw_r(), "sigma_x": self.draw_sigma_x(), "sigma_p": self.draw_sigma_p()}
            for _ in range(self.REGISTERS_PER_OP)
        ]

    def call(self, inputs, tracer):
        results = []
        for inp in inputs:
            spec = self.factory.BoundStateSpec(self.N_PAIRS, inp["r"], inp["sigma_x"], inp["sigma_p"])
            state = self.factory.smolin_cv_2n(spec)
            variances = [self.stab.nullifier_variance(state, h) for h in self.nullifiers]
            nu_min = self.sep.ppt_min_symplectic(state, self.half)
            text = json.dumps(self.states.state_to_dict(state))
            results.append((state, variances, nu_min, text))
        return results

    def check(self, inputs, results):
        for inp, (state, variances, nu_min, text) in zip(inputs, results):
            exact = self.N_PAIRS * math.exp(-2 * inp["r"])
            reason = _first(
                _expect(all(rel_close(v, exact) for v in variances), "nullifier variances differ from n_pairs exp(-2r)"),
                # each half holds whole squeezed pairs and the noise is classical,
                # so the half/half cut is PPT
                _expect(nu_min >= 0.5 - PPT_TOL, "half/half cut not PPT"),
                _expect(json.loads(text)["cov"] == state.cov.tolist(), "state JSON does not round-trip"),
            )
            if reason:
                return reason
        return None


WORKLOADS = {w.name: w for w in (CliOneshot, ProtocolMix, SweepGrid, WideRegister)}
