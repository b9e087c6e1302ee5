"""Run a set of benchmark runs and report each metric's median and spread.

    python3 bench/sets.py --runs 10 [--workloads capture,voyage,montecarlo]
                          [--first-seed 1] [--out FILE]

A set runs ``--runs`` seeds on every workload, one process at a time,
interleaving the workloads and rotating their order from seed to seed. For
every metric it prints the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.
The Python, numpy and scipy versions, ``nproc`` and the load average are
recorded at the start and end of the set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORK_ROOT, environment


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall,
                  log=[line for line in proc.stdout.splitlines() if line.startswith("#")])
    return result


def run_set(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    env_start = environment()
    runs = []
    for i, seed in enumerate(seeds):
        for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
            result = run_once(workload, seed, seconds)
            print(f"  {workload:<10} seed {seed:>3}  {result['wall_s']:6.1f} s wall  "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
            runs.append(result)
    return {"env_start": env_start, "env_end": environment(), "runs": runs}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, median, q3 = statistics.quantiles(values, n=4)
            out.setdefault(workload, {})[name] = {
                "unit": mine[0]["metrics"][name]["unit"], "median": median,
                "spread": (q3 - q1) / median if median else float("nan"),
                "bound": bounds.get(name), "values": values,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None, help="JSON file for the raw runs and summaries")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    print(f"seeds {seeds[0]}..{seeds[-1]}", flush=True)
    result = run_set(workloads, seeds, spec["run_seconds"])
    result["summary"] = summarize(result["runs"], bounds)
    print(f"  env start {result['env_start']}\n  env end   {result['env_end']}")
    for workload, metrics in result["summary"].items():
        for name, m in metrics.items():
            print(f"  {workload:<10} {name:<40} median {m['median']:<12.6g} {m['unit']:<6}"
                  f" spread {m['spread']:.3f}  bound {m['bound']}")
    out = Path(args.out) if args.out else WORK_ROOT / f"sets-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
