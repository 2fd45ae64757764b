#!/usr/bin/env python3
"""Record benchmark results on given seeds, for comparison by later changes.

    python3 bench/record.py --seeds 1,2 --out bench/baseline.json

Runs every workload of BENCHMARK.json with --trace 0 and --trace 1 for each
seed, one process at a time, and stores each run's result line together with
the environment it ran in.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"run_seconds": spec["run_seconds"], "env": None, "runs": []}
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload, "--seed",
                     str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                doc["env"] = json.loads(next(ln for ln in lines if ln.startswith(
                    "bench: env "))[len("bench: env "):])
                doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                    "notes": [ln for ln in lines if ln.startswith("bench: ")
                                              and not ln.startswith("bench: env ")],
                                    "result": json.loads(lines[-1])})
                print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
