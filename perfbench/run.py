#!/usr/bin/env python3
"""cvbound benchmark: one workload per run, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-oneshot, protocol-mix, sweep-grid, wide-register (see
perfbench/README.md).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures the per-layer metrics with the tracer installed around
cvbound's public functions.  The program is imported from ``src/`` of the
checkout.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a fuller report
(fail_frac, the tail percentile and sample count, sweep throughput, the
environment).
"""

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TRACE_PHASES = 4  # untraced and traced windows alternate, starting untraced
ACCURACY_R = (1, 5, 8)
REJECTED, ERRORED = -1.0, -2.0  # accuracy row values when the library refuses or fails
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_import(env: dict, importtime: bool) -> tuple[float, str]:
    """Spawn-to-exit time of `import cvbound.cli` in a fresh interpreter."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import cvbound.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing cvbound.cli failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stderr


def parse_importtime(text: str) -> dict:
    """cvbound.cli cumulative import time and the self time spent in numpy and scipy modules."""
    out = {"cli.import_s": 0.0, "cli.import.numpy_s": 0.0, "cli.import.scipy_s": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:") :].split("|")
        if not self_us.strip().isdigit():
            continue  # header line
        name = name.strip()
        top = name.split(".")[0]
        if name == "cvbound.cli":
            out["cli.import_s"] = int(cum_us) / 1e6
        elif top in ("numpy", "scipy"):
            out[f"cli.import.{top}_s"] += int(self_us) / 1e6
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def run_ops(wl, deadline: float, tracer, tally: dict) -> list[float]:
    """Closed loop: run ops until the deadline; returns the latency of each op."""
    latencies = []
    while True:
        inputs = wl.draw()
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            result, error = wl.call(inputs, tracer), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = wl.check(inputs, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            tally["wrong"] += error is not None
        tally["attempted"] += 1
        if error is not None:
            tally["failed"] += 1
            tally["failures"].append(f"op {tally['attempted']}: {error}")
        if time.perf_counter() >= deadline:
            return latencies


def peak_rss_mb(in_process: bool) -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest single child
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (max(own, children) if in_process else children) / 1024


def accuracy_rows(seed: int, errors: dict) -> dict:
    """Relative error of four closed-form quantities at r in ACCURACY_R (gate nothing).

    Exceptions are recorded in ``errors`` and as the value REJECTED or ERRORED.
    """
    from cvbound import factory, protocols, separability, stabilizer

    sigma = random.Random(f"accuracy-{seed}").uniform(0.0, 5.0)
    rows = {}
    for r in ACCURACY_R:
        e2r = math.exp(-2 * r)
        spec = factory.BoundStateSpec(2, float(r), sigma, sigma)

        def nullifier():
            state = factory.smolin_cv_four(spec)
            h = (stabilizer.x_sum_nullifier(4), stabilizer.p_alternating_nullifier(4))
            return [stabilizer.nullifier_variance(state, x) for x in h], 2 * e2r

        def unlock():
            rep = protocols.unlock(spec, (2, 3))
            return [rep.witness_sum_x, rep.witness_diff_p], 2 * e2r

        def superactivation():
            rep = protocols.superactivate(spec)
            return [rep.witness_sum_x, rep.witness_diff_p], 4 * e2r

        def nu_min():
            state = factory.smolin_cv_four(spec)
            return [separability.ppt_min_symplectic(state, separability.named_bipartition("13-24"))], e2r / 2

        for quantity, fn in (
            ("nullifier_variance", nullifier),
            ("unlock_witness", unlock),
            ("superactivation_witness", superactivation),
            ("nu_min_13_24", nu_min),
        ):
            try:
                values, exact = fn()
                value = max(abs(v - exact) / exact for v in values)
            except ValueError as exc:
                # a range check refusing this r is a rejection; a state the
                # library builds and then calls unphysical is an error
                value = ERRORED if "unphysical" in str(exc) else REJECTED
                errors[f"r{r}.{quantity}"] = str(exc)
            except Exception as exc:
                value = ERRORED
                errors[f"r{r}.{quantity}"] = f"{type(exc).__name__}: {exc}"
            rows[f"accuracy.{quantity}.relerr.r{r}"] = (value, "rel")
    return rows


def layer_metrics(tracer, n_ops: int, nproc: int, sweep: dict) -> dict:
    """Per-op per-layer numbers from the tracer's aggregates."""
    stats, edges = tracer.stats, tracer.edges
    per_op = 1.0 / max(n_ops, 1)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names) * 1e3 * per_op

    def layer_self_ms(layer):
        return self_ms(*(n for n in stats if n.startswith(layer + ".")))

    m = {}
    for layer in ("cli", "states", "stabilizer", "factory", "separability", "protocols"):
        m[f"{layer}.self_ms"] = (layer_self_ms(layer), "ms/op")
    rows = calls("cli._sweep_row")
    sweep_lib = sum(t for (p, c), (_, t) in edges.items() if p in ("cli.cmd_sweep", "cli._sweep_row") and not c.startswith("cli."))
    pps = sweep["points"] / sweep["serial_s"] if sweep.get("serial_s") else 0.0
    pps_jobs = sweep["points"] / sweep["jobs_s"] if sweep.get("jobs_s") else 0.0
    m["cli.sweep.per_point_us"] = (total("cli._sweep_row") / rows * 1e6 if rows else 0.0, "us")
    m["cli.sweep.library_share"] = (sweep_lib / total("cli.cmd_sweep") if total("cli.cmd_sweep") else 0.0, "frac")
    m["cli.sweep.points_per_s"] = (pps, "1/s")
    m["cli.sweep.points_per_s_jobs"] = (pps_jobs, "1/s")
    m["cli.sweep.parallel_eff"] = (pps_jobs / (nproc * pps) if pps else 0.0, "frac")
    for name in (
        "states.GaussianState",
        "states.symplectic_eigenvalues",
        "states.symplectic_form",
        "factory.smolin_cv_four",
        "factory.smolin_cv_2n",
        "separability.ppt_min_symplectic",
        "separability.duan_value",
        "protocols.bell_measure",
        "states.add_classical_noise",
        "states.apply_symplectic",
    ):
        m[f"{name}.calls"] = (calls(name) * per_op, "count/op")
    for name in (
        "states.GaussianState",
        "states.symplectic_eigenvalues",
        "states.symplectic_form",
        "states.tensor",
        "factory.equivalent_construction",
        "separability.ppt_min_symplectic",
        "separability.log_negativity",
        "separability.ppt_threshold_search",
        "protocols.measure_with_feedforward",
        "protocols.unlock",
        "protocols.superactivate",
    ):
        m[f"{name}.self_ms"] = (self_ms(name), "ms/op")
    m["factory.build.self_ms"] = (self_ms("factory.smolin_cv_four", "factory.smolin_cv_2n"), "ms/op")
    searches = calls("separability.ppt_threshold_search")
    gap = edges.get(("separability.ppt_threshold_search", "separability.ppt_min_symplectic"), (0, 0.0))[0]
    m["separability.ppt_threshold_search.gap_evals"] = (gap / searches if searches else 0.0, "count/call")
    m["states.eig.dim3_sum"] = (tracer.counters.get("eig.dim3_sum", 0) * per_op, "count/op")
    m["states.eig.max_dim"] = (float(tracer.counters.get("eig.max_dim", 0)), "count")
    return m


def host_reference_ms() -> float:
    """Time of a fixed numpy + pure-Python kernel that uses no cvbound code.

    The machine's speed drifts with load from outside the benchmark; printing
    this beside each run shows how much of a run-to-run change is the host's.
    """
    import numpy

    a = numpy.random.default_rng(0).standard_normal((64, 64))
    t0 = time.perf_counter()
    for _ in range(10):
        numpy.linalg.eigvals(a)
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # one BLAS thread per process, set before numpy loads here or in a child,
    # so that `sweep --jobs` is the only parallelism and the thread total
    # never exceeds nproc
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cvbound" / "cli.py").is_file():
        print(f"error: no cvbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    nproc = len(os.sched_getaffinity(0))
    traced = bool(args.trace)

    # set-up: fresh-interpreter import of cvbound.cli (median of several), then
    # the workload's own one-time preparation
    imports = [fresh_import(env, importtime=traced) for _ in range(SETUP_REPEATS)]
    import_s = statistics.median(wall for wall, _ in imports)
    import cvbound.cli

    if Path(cvbound.cli.__file__).resolve().parent != (SRC / "cvbound").resolve():
        print(f"error: imported cvbound from {cvbound.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](random.Random(args.seed), workdir, env, nproc)
        t0 = time.perf_counter()
        wl.prepare()
        prep_s = time.perf_counter() - t0
        # failed counts every op that raised, exited non-zero or gave a wrong
        # value; wrong counts only the last kind, and makes the run incorrect
        tally = {"attempted": 0, "failed": 0, "wrong": 0, "failures": []}
        report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if traced:
            metrics = traced_run(args, wl, tally, imports, nproc, report)
        else:
            metrics = untraced_run(args, wl, tally, import_s + prep_s, nproc, report)
    finally:
        for child in multiprocessing.active_children():
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        wrong=tally["wrong"],
        fail_frac=tally["failed"] / tally["attempted"],
        failures=tally["failures"][:10],
        setup={"import_s": import_s, "prep_s": prep_s},
        environment=environment(nproc),
    )
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": tally["wrong"] == 0,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def untraced_run(args, wl, tally, setup_s, nproc, report) -> dict:
    refs = [host_reference_ms() for _ in range(3)]
    t0 = time.perf_counter()
    lat = run_ops(wl, t0 + args.seconds, None, tally)
    wall = time.perf_counter() - t0
    refs += [host_reference_ms() for _ in range(3)]
    tail_s, tail_pct, beyond = tail(lat)
    report.update(
        ops=len(lat),
        op_tail_pct=tail_pct,
        op_tail_beyond=beyond,
        wall_s=wall,
        host_reference_ms=statistics.median(refs),
    )
    if wl.report.get("points"):
        pts = wl.report["points"]
        report.update(
            points_per_s=pts / wl.report["serial_s"],
            points_per_s_jobs=pts / wl.report["jobs_s"],
            jobs=nproc,
        )
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(wl.in_process), "MB"),
    }


def traced_run(args, wl, tally, imports, nproc, report) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    for phase in range(TRACE_PHASES):
        deadline = t0 + args.seconds * (phase + 1) / TRACE_PHASES
        if phase % 2:
            if wl.in_process:  # otherwise each op installs the tracer in its own process
                tracer.install()
            try:
                traced += run_ops(wl, deadline, tracer, tally)
            finally:
                tracer.uninstall()
        else:
            untraced += run_ops(wl, deadline, None, tally)
    metrics = {}
    for key in ("cli.import_s", "cli.import.numpy_s", "cli.import.scipy_s"):
        metrics[key] = (statistics.median(parse_importtime(err)[key] for _, err in imports), "s")
    metrics.update(layer_metrics(tracer, len(traced), nproc, wl.report))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    report["accuracy_errors"] = {}
    metrics.update(accuracy_rows(args.seed, report["accuracy_errors"]))
    report.update(traced_ops=len(traced), untraced_ops=len(untraced), spans=len(tracer.spans))
    trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    summary = tracer.summary()
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    trace_file.write_text(json.dumps(summary))
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
