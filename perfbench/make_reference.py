"""Regenerate perfbench/reference/ from the code in this checkout.

    python3 perfbench/make_reference.py

The committed references were made from the seed code; regenerate them
only when a change is meant to alter results, and say so in CHANGES.md.
Writes the map CSVs, the explore pool with each entry's result, and the
oracle's rows.  Scratch outputs go to .perfbench_work/.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys

import workloads as wl

POOL_SEED = 20181126
POOL_SWEEPS = 192
POOL_OPTIMIZES = 96
WHERE = ("uniform", "shell")
SCRATCH = wl.ROOT / ".perfbench_work" / "reference"


def run_cli(cli, argv) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return captured.getvalue()


def pool_point(rng: random.Random, base: dict, where: str) -> list[float]:
    """A point uniform over the 0..16 window, or on some emitter's light-cone shell.

    The commutator vanishes off the shells (strong Huygens), so uniform points
    mostly give zero signal; shell points give the sweeps and optimizations
    structure.
    """
    if where == "uniform":
        return [round(rng.uniform(0.0, 16.0), 4), round(rng.uniform(0.0, 16.0), 4)]
    t_rec = base["receiver"]["time"]
    while True:
        emitter = rng.choice(base["emitters"])
        ex, ey, _ = emitter["position"]
        radius = t_rec - emitter["time"] + rng.uniform(-1.0, 1.0)
        angle = rng.uniform(0.0, math.pi)
        x, y = ex + radius * math.cos(angle), ey + radius * math.sin(angle)
        if 0.0 <= x <= 16.0 and 0.0 <= y <= 16.0:
            return [round(x, 4), round(y, 4)]


def make_maps(cli) -> None:
    for ops in (wl.fig1_energy(SCRATCH, checked=False),
                wl.fig2_capacity(SCRATCH, checked=False)):
        for op in ops:
            run_cli(cli, op.argv)
            shutil.copyfile(op.out, wl.REFERENCE / op.out.name)
            print(f"reference {op.out.name}")


def make_explore_pool(cli) -> None:
    rng = random.Random(POOL_SEED)
    bases = {name: json.loads((wl.SCENARIOS / f"{name}.cfg").read_text(encoding="utf-8"))
             for name in ("fig3", "fig3_lambda2", "fig2a")}
    sweeps, optimizes = [], []
    config, out = SCRATCH / "sweep.cfg", SCRATCH / "op.csv"
    for i in range(POOL_SWEEPS):
        base, where = ("fig3", "fig3_lambda2")[i % 2], WHERE[i // 2 % 2]
        spec = {"base": base, "where": where,
                "point": pool_point(rng, bases[base], where)}
        wl.write_sweep_config(spec, config)
        run_cli(cli, wl.sweep_argv(config, out))
        caps = wl.second_column(out)
        spec.update(argmax_index=int(caps.argmax()), max_capacity=float(caps.max()))
        sweeps.append(spec)
    for i in range(POOL_OPTIMIZES):
        where = WHERE[i // 2 % 2]
        spec = {"objective": ("energy", "capacity")[i % 2], "where": where,
                "point": pool_point(rng, bases["fig2a"], where),
                "seed": rng.randrange(1000)}
        run_cli(cli, wl.optimize_argv(spec, out))
        values = wl.second_column(out)
        spec.update(best=float(values.max()), evaluations=int(values.size))
        optimizes.append(spec)
    with open(wl.REFERENCE / "explore_pool.json", "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "sweeps": sweeps, "optimizes": optimizes},
                  fh, indent=1)
        fh.write("\n")
    print(f"reference explore_pool.json ({len(sweeps)} sweeps, "
          f"{len(optimizes)} optimizations)")


def make_oracle(cli) -> None:
    rows = wl.parse_oracle_table(run_cli(cli, ("oracle",)))
    with open(wl.REFERENCE / "oracle.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    print(f"reference oracle.json ({len(rows)} rows)")


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    import qshock.cli as cli
    SCRATCH.mkdir(parents=True, exist_ok=True)
    wl.REFERENCE.mkdir(exist_ok=True)
    for step in (make_maps, make_explore_pool, make_oracle):
        step(cli)
    shutil.rmtree(SCRATCH.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
