#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For each workload and for --trace 0 and 1 it runs one second of work and
checks that the last line of output is the result object, that it holds
exactly the metrics BENCHMARK.json names for that mode with their units, and
that no op failed.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and
perfbench/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(n for n in set(got) & set(wanted[trace]) if got[n] != wanted[trace][n])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            print(f"ok  {where}: {result['attempted']} ops", flush=True)

    # a tree without the program: the benchmark must exit non-zero and print no result
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("ok  bare tree refused", flush=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
