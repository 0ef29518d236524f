"""qshock benchmark: one workload run, end-to-end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--root CHECKOUT]

Measures the qshock sources of --root (default: the checkout that holds
this script; collect.py passes another checkout to measure a parent
commit with the same benchmark).  Each run first starts a few fresh
interpreters that only import `qshock.cli` (set-up time), then one fresh
interpreter (child.py) that runs the workload's CLI operations in a loop
for S seconds and checks every output against perfbench/reference/.
Outputs go to .perfbench_work/ next to perfbench/ and are removed
afterwards.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORKDIR = HERE.parent / ".perfbench_work"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 160.0

# Imports qshock.cli in a fresh interpreter and prints when it finished.
_PROBE = "import sys, time; sys.path.insert(0, 'src'); import qshock.cli; print(time.monotonic())"


def setup_seconds(root: Path) -> float:
    """Median time from starting an interpreter to `import qshock.cli` done."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _PROBE], cwd=root, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def refuse(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "qshock" / "cli.py").is_file():
        return refuse(f"no qshock sources under {root / 'src'}; run from a checkout", 2)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return refuse(f"unknown workload {args.workload!r}", 2)
    cores = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > cores:
        # the CLI's default --threads is os.cpu_count(): more workers than cores
        return refuse(f"os.cpu_count() = {os.cpu_count()} exceeds the {cores} CPUs "
                      "this process may run on", 3)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_s = setup_seconds(root)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--root", str(root),
             "--workdir", str(WORKDIR), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        return refuse(f"workload child exited with {done.returncode}", 4)
    child = json.loads(done.stdout.strip().splitlines()[-1])

    measured = dict(child["metrics"], setup_s=setup_s)
    attempted, failed = child["attempted"], child["failed"]
    for problem in child["problems"]:
        print(f"FAILED {problem}")
    print(f"machine {json.dumps(child['machine'], sort_keys=True)}")
    print(f"{args.workload}: {child['passes']} passes of {child['ops_per_pass']} ops, "
          f"{attempted} attempted, fail_ratio {failed / attempted:.4g}")
    if child["absent"]:
        print(f"absent: {', '.join(child['absent'])}")
    metrics = {}
    for m in wanted:
        value = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
