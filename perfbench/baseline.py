"""Measure the baseline: every workload over several seeds, plus one traced run each.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload, ``run.py --trace 0`` runs once per seed 1..RUNS; each
end-to-end metric is summarised by its median, quartiles and spread (the
distance between the quartiles as a share of the median). One
``--trace 1`` run at the reference seed gives the per-layer figures. The
table is printed, and written as JSON with the run environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import REFERENCE_SEED, WORKLOADS, environment  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its JSON result line and its unscaled `wall:` medians."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    wall = next(json.loads(line[len("wall: "):]) for line in lines if line.startswith("wall: "))
    return json.loads(lines[-1]), wall


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    doc = {"env": environment(Path.cwd(), args.runs, REFERENCE_SEED),
           "seeds": list(range(1, args.runs + 1)), "run_seconds": seconds, "workloads": {}}
    for workload in sorted(WORKLOADS):
        samples: dict[str, list[float]] = {name: [] for name in bounds}
        walls: dict[str, list[float]] = {}
        for seed in doc["seeds"]:
            result, wall = bench(workload, seed, seconds, 0)
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            for name, value in wall.items():
                walls.setdefault(name, []).append(value)
        entry = {"end_to_end": {name: summarise(v) for name, v in samples.items()},
                 "wall": {name: summarise(v) for name, v in walls.items()}}
        print(f"{workload}:")
        for name, stats in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or stats["spread"] < bounds[name] / 3 else \
                "  <-- spread above a third of the bound"
            print(f"  {name}: median {stats['median']:.6g} {units[name]}  "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}")
        for name, stats in entry["wall"].items():
            print(f"  wall {name}: median {stats['median']:.6g}  spread {stats['spread']:.4f}")
        traced = bench(workload, REFERENCE_SEED, seconds, 1)[0]["metrics"]
        entry["per_layer"] = {name: m["value"] for name, m in traced.items()}
        print(f"  trace.overhead_ratio: {entry['per_layer']['trace.overhead_ratio']:.4g}")
        doc["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
