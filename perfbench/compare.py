"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS.jsonl               # spread of each metric
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A set of runs is a JSON-lines file written by collect.py.  With two sets,
runs pair up by workload and seed (collect.py runs each pair back to back,
alternating which side goes first).  Each workload x end-to-end metric
gets both medians and quartiles, the share of pairs the change won and a
verdict with the bounds of BENCHMARK.json:

  improved    at least ten pairs, the change wins at least 9/10 of them
              (ties count for neither), the medians differ by more than
              the parent's interquartile distance, and the change failed
              no more operations than the parent;
  unresolved  the parent's own spread is wider than the bound, unless every
              run of the change beats every run of the parent;
  no worse    the change's median is within the bound of the parent's;
  worse       the change's median is worse than the parent's by more
              than the bound.

Per-layer metrics (runs with --trace 1) are listed without a verdict.
Quartiles are `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10   # fewer pairs than this never make a gain


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_runs(path) -> dict:
    """{workload: {seed: result object}} of one JSON-lines file."""
    runs: dict = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]][record["seed"]] = record["result"]
    return runs


def values(results: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in results]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def _metric_specs(spec: dict) -> dict:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(base: list[float], new: list[float], better: str, bound: float,
            new_fails_more: bool) -> tuple:
    """(verdict, share of pairs won) by the rule in this module's docstring.

    base[i] and new[i] are one pair; new_fails_more is whether the change
    failed more operations than the parent, which rules out "improved".
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    share = wins / len(pairs) if pairs else 0.0
    qb1, base_med, qb3 = quartiles(base)
    new_med = statistics.median(new)
    gain = sign * (base_med - new_med)          # > 0: the change is better
    if (len(pairs) >= MIN_PAIRS and share >= 0.9 and gain > qb3 - qb1
            and not new_fails_more):
        return "improved", share
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if spread(base) > bound and not all_better:
        return "unresolved", share
    if -gain <= bound * abs(base_med) or all_better:
        return "no worse", share
    return "worse", share


def print_summary(runs: dict, spec: dict) -> None:
    specs = _metric_specs(spec)
    print(f"{'workload':<14} {'metric':<42} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  status")
    for workload, by_seed in runs.items():
        results = [by_seed[seed] for seed in sorted(by_seed)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:<14} {'fail_ratio':<42} {len(results):>3} "
              f"{failed / attempted:>12.4g}  ({failed} of {attempted} operations)")
        for name in results[0]["metrics"]:
            q1, q2, q3 = quartiles(values(results, name))
            bound = specs.get(name, {}).get("bound")
            s = spread(values(results, name))
            status = "" if bound is None else (
                "steady" if s < bound / 3 else "within bound" if s <= bound
                else "TOO WIDE")
            print(f"{workload:<14} {name:<42} {len(results):>3} {q2:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {s:>7.3f} {'' if bound is None else bound:>6}  {status}")


def print_comparison(base: dict, new: dict, spec: dict) -> None:
    specs = _metric_specs(spec)
    print(f"{'workload':<14} {'metric':<42} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'change':>8} {'won':>5}  verdict")
    for workload in base:
        seeds = sorted(set(base[workload]) & set(new.get(workload, {})))
        if not seeds:
            print(f"{workload:<14} no seed in both sets")
            continue
        old_runs = [base[workload][seed] for seed in seeds]
        new_runs = [new[workload][seed] for seed in seeds]
        old_failed = sum(r["failed"] for r in old_runs)
        new_failed = sum(r["failed"] for r in new_runs)
        for name in old_runs[0]["metrics"]:
            if name not in new_runs[0]["metrics"]:
                continue
            before, after = values(old_runs, name), values(new_runs, name)
            b1, b2, b3 = quartiles(before)
            n1, n2, n3 = quartiles(after)
            rel = (n2 - b2) / abs(b2) if b2 else 0.0
            m = specs.get(name, {})
            if "bound" in m:
                v, share = verdict(before, after, m["better"], m["bound"],
                                   new_failed > old_failed)
            else:
                v, share = "", 0.0
            base_col = f"{b2:.6g} [{b1:.4g}, {b3:.4g}]"
            new_col = f"{n2:.6g} [{n1:.4g}, {n3:.4g}]"
            print(f"{workload:<14} {name:<42} {base_col:>36} {new_col:>36} "
                  f"{rel:>+8.1%} {share:>5.0%}  {v}")
        print(f"{workload:<14} {len(seeds)} pairs; failed operations: parent "
              f"{old_failed}, change {new_failed}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 64
    spec = load_spec()
    if len(args) == 1:
        print_summary(read_runs(args[0]), spec)
    else:
        print_comparison(read_runs(args[0]), read_runs(args[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
