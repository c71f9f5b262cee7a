"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py                         # all workloads, seeds 1-10
    python3 perfbench/prove.py --workloads ablate-cls --seeds 1-5
    python3 perfbench/prove.py --seeds 1 --trace 1     # every layer metric, once

For each workload and end-to-end metric it prints the median over seeds, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, beside the metric's bound from BENCHMARK.json. A spread is steady when
it stays below a third of the bound; setup_s is reported but not held to it.
Runs one at a time, so no two measurements share the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            steady &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if args.trace or len(_seeds(args.seeds)) < 2:
            continue
        print(f"\n{workload}: {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload}: {name:<22} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
