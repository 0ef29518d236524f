"""Run the benchmark over several seeds on one checkout, or on two in pairs.

    python3 perfbench/collect.py --out DIR [--seeds 1-10] [--trace 0|1] \
        PARENT [CHANGE]

PARENT and CHANGE are qshock checkouts (directories holding src/qshock);
the benchmark, inputs and references of this checkout measure both.  For
each workload and seed, run.py runs once on each checkout, and the side
that runs first alternates from seed to seed (parent first, then change
first, and so on), so a slow drift of the machine's speed falls on both
sides alike.  Results go to DIR/parent.jsonl and DIR/change.jsonl, one
JSON line per run: workload, seed, trace, the run's machine facts and its
result object.  At the end the spread of every metric is printed for each
side; `compare.py DIR/parent.jsonl DIR/change.jsonl` gives the verdicts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_spec, print_summary, read_runs

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pair_order(index: int, sides: int) -> list[int]:
    """Which side runs first for the index-th seed: 0, 1 / 1, 0 / 0, 1 / ..."""
    order = list(range(sides))
    return order[::-1] if index % 2 else order


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--root", str(checkout)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on {checkout} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine ")), {})
    for line in lines:
        if line.startswith("FAILED "):
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace, "machine": machine,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("checkouts", nargs="+", type=Path, metavar="CHECKOUT")
    args = parser.parse_args(argv)
    if len(args.checkouts) > len(SIDES):
        parser.error("give one checkout, or a parent and a change")

    args.out.mkdir(parents=True, exist_ok=True)
    outputs = [args.out / f"{side}.jsonl" for side in SIDES[:len(args.checkouts)]]
    for path in outputs:
        if path.exists():
            parser.error(f"{path} exists; choose another --out")
    for workload in (w["name"] for w in spec["workloads"]):
        for index, seed in enumerate(parse_seeds(args.seeds)):
            for side in pair_order(index, len(args.checkouts)):
                record = run_once(args.checkouts[side], workload, seed,
                                  spec["run_seconds"], args.trace)
                with open(outputs[side], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                result = record["result"]
                print(f"{SIDES[side]} {workload} seed {seed}: "
                      f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
    for side, path in zip(SIDES, outputs):
        print(f"\n{side}: {path}")
        print_summary(read_runs(path), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
