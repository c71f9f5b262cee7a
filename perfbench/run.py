"""popgraph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload adaptive-n2000 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; popgraph is imported from that
checkout's src/ directory, nothing is installed. Set-up is timed in fresh
processes and the workload runs in one more fresh process, so import time and
peak RSS belong to that workload alone. BLAS is held to one thread in every
process it starts.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Every run also checks the program's outputs, and compares its
quality figures and exact counts with any earlier run of the same seed and
code, kept under .perfbench/records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BUDGET_S = 170.0          # the whole run, all processes included
SETUP_SAMPLES = 3         # fresh set-up processes, plus the workload's own
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def _child(mode: str, params: dict, deadline: float) -> dict:
    spawned_at = time.monotonic()
    args = [sys.executable, str(HERE / "child.py"), mode,
            json.dumps({**params, "spawned_at": spawned_at})]
    try:
        proc = subprocess.run(args, stdout=sys.stderr, env={**os.environ, **CHILD_ENV},
                              timeout=max(deadline - spawned_at, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    with open(Path(params["run_dir"]) / f"{mode}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "popgraph").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_with_earlier(args, result: dict) -> list:
    """Quality must repeat exactly for a seed, traced or not; exact counts
    must repeat between traced runs. Returns the mismatches."""
    path = WORK / "records" / f"{args.workload}-seed{args.seed}-{_code_hash()}.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mismatches = []
    for key in ("quality", "counts"):
        if key in result and key in earlier and earlier[key] != result[key]:
            mismatches.append(f"{key} differ from an earlier run of this seed: "
                              f"{earlier[key]} vs {result[key]}")
    if "quality" in result:
        earlier["quality"] = result["quality"]
    if "counts" in result:
        earlier["counts"] = result["counts"]
    if args.trace:
        untraced = earlier.get("untraced_run_s")
        if untraced is not None:
            overhead = result["metrics"]["run_s"][0] - untraced
            print(f"tracing overhead: {overhead:+.3f} s on run_s "
                  f"(traced minus an earlier untraced run of this seed)")
    else:
        earlier["untraced_run_s"] = result["metrics"]["run_s"][0]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(earlier, indent=1, sort_keys=True), encoding="utf-8")
    return mismatches


def _cache_sizes() -> str:
    sizes = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''} {size}")
    return ", ".join(sizes) or "unknown"


def _print_table(args, result: dict, metrics: dict) -> None:
    spec = WORKLOADS[args.workload]
    env = result["env"]
    nn_mib = 8 * spec["n"] ** 2 / 2 ** 20
    print(f"# popgraph benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads=1")
    print(f"# caches: {_cache_sizes()}; one N x N float64 array at N={spec['n']}: "
          f"{nn_mib:.1f} MiB")
    for key, value in result.get("quality", {}).items():
        print(f"  quality {key:<28} {value!r}")
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} n={n:<5} {note}")


def run(args) -> int:
    if not (ROOT / "src" / "popgraph" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no popgraph source tree (src/popgraph)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    params = {"root": str(ROOT), "run_dir": str(run_dir), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "trace_path": str(trace_path)}
    try:
        if WORKLOADS[args.workload]["kind"] == "ablate":
            _child("prepare", params, deadline)
        setups = [] if args.trace else [
            _child("setup", params, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        result = _child("workload", params, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = result["problems"] + _compare_with_earlier(args, result)
    if args.trace:
        metrics = {name: (value, unit, "", "") for name, (value, unit)
                   in result["layers"].items()}
    else:
        setups.append(result["setup_s"])
        metrics = {"setup_s": (statistics.median(setups), "s", len(setups), "median"),
                   **{k: tuple(v) for k, v in result["metrics"].items()}}
    _print_table(args, result, metrics)
    for message in problems:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
