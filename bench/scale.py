"""Scale trajectory of adaptive training: ms/epoch, peak RSS, the phase
split and one inference at N = 2000, 4000, 8000 and 20,000.

    python3 bench/scale.py                              # measure, print the row
    python3 bench/scale.py --append BENCH_scale.json    # and append it there
    python3 bench/scale.py --root ../other-checkout     # measure another tree
    python3 bench/scale.py --against ../parent --append BENCH_scale.json

Each N runs in its own fresh process with one BLAS thread. The process
builds the benchmark's population (``perfbench/workloads.POPULATION``, noise
0.5, seed 1), splits and normalizes it, and calls ``trainer.train`` for
``EPOCHS`` epochs with the adaptive-n2000 settings: learned euclidean graph,
k = 5, widths 512/128, patience 0. popgraph is imported from ``<root>/src``;
the span recorder of ``perfbench/tracing.py`` is always this checkout's.

Per N the row gives:
- ``epoch_ms``: the median of the epochs, bounded as in perfbench by the
  trainer's once-per-epoch ``numerics.reset_tape`` call and the return of
  ``train``. The first epoch's edge loss is zero (its reward baseline starts
  at its own rewards), so with 4 epochs the median rests on the other three.
- ``cpu_s``: the user plus system seconds that the process spent, on all
  its threads, during the ``train`` call (``getrusage(RUSAGE_SELF)``). A
  draw and its backward hand work to a helper thread, so one epoch can use
  two cores; on a shared virtual machine, time stolen from either core
  lengthens ``epoch_ms`` though the work is unchanged. Read beside
  ``epoch_ms``, it shows whether a row's wall time moved with its work.
  Rows measured before this column existed lack it.
- ``minflt_per_epoch``: the minor page faults (``ru_minflt``) of the process
  during the ``train`` call, divided by its epochs. A large array that the
  allocator maps afresh faults in each page it touches, so this shows how
  much memory an epoch takes new from the kernel. Rows measured before this
  column existed lack it.
- ``infer_ms``: one ``trainer.infer`` call after training, at the trained
  parameters: the run's ``inference_samples`` (8) graph draws and their GCN
  forwards, as ``run_experiment`` makes them. The call runs after the
  ``train`` call's counters and spans are read, so no other column
  includes it; it runs with the span recorder installed, as training does.
  Rows measured before this column existed lack it.
- ``peak_rss_mb``: ``ru_maxrss`` of that process, population included.
- ``tape_ops``: the ops on the tape when an epoch's backward starts,
  averaged over the epochs (perfbench's ``numerics.tape_ops``): how many
  recorded ops one training step walks back. Rows measured before this
  column existed lack it.
- ``split_ms``: median time per call, from the spans. ``backward`` is the
  whole tape backward of an epoch, ``sampler`` one Gumbel-Top-k draw,
  ``gcn_forward`` one GCN forward, ``attention`` the attention scorer,
  its aggregation and the phenotype weighting, and ``optimizer`` one AdamW
  step. A draw computes its distance GEMMs and kernel multiplies inside the
  sampler's block pass, so ``distance`` (``pairwise_distance``) and
  ``kernel`` (``edge_probabilities``) time only the building of the kernel
  object and its operator; the work itself is in ``sampler`` and, for the
  training draw's recompute, ``backward``. Rows measured before these four
  columns existed lack them.

Each row also names the commit and a hash of ``src/popgraph``, so a row
measured on an uncommitted tree still identifies its code, plus nproc and the
numpy version.

With ``--against <checkout>`` the row compares two trees measured under the
same load: per N it runs ``PAIRS`` pairs of child processes, one on the
checkout (the parent) and one on ``--root`` (the change), the parent first
on odd pairs and the change first on even ones. The row names both trees
(the parent's under ``against``); each N's entry keeps both sides' points
for every pair (``pairs``: ``first``, ``parent``, ``change``) and ``wins``,
how many pairs the change reads lower in ``epoch_ms``, ``infer_ms`` and
``split_ms.sampler`` (ties count for neither). Rows measured before this
mode existed have no ``against``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = (2000, 4000, 8000, 20000)
EPOCHS = 4
SEED = 1
PAIRS = 3
WIN_METRICS = ("epoch_ms", "infer_ms", "split_ms.sampler")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
             "PYTHONDONTWRITEBYTECODE": "1"}
SPLIT = {"backward": "numerics.backward_ms", "sampler": "graphgen.sampler_ms",
         "gcn_forward": "gcn.forward_ms", "attention": "attention.ms",
         "distance": "graphgen.distance_ms", "kernel": "graphgen.kernel_ms",
         "optimizer": "trainer.optimizer_ms"}


def measure(root: Path, n: int) -> dict:
    """One N in this process: train and return its point of the row."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import child
    import tracing
    import workloads

    pg = child._import_popgraph(root)
    cfg = pg.dataio.SyntheticConfig(n_subjects=n, noise_std=0.5, **workloads.POPULATION)
    dataset = pg.dataio.generate_synthetic(cfg, seed=SEED)
    pg.dataio.split(dataset, seed=SEED)
    pg.dataio.normalize_minmax(dataset)
    config = pg.trainer.TrainConfig(task="regression", epochs=EPOCHS, patience=0,
                                    k=workloads.K, distance_metric="euclidean",
                                    gcn_hidden1=512, gcn_hidden2=128, seed=SEED)

    tracer = tracing.Tracer()
    tracer.install(pg)
    stamps = []
    reset_tape = pg.numerics.reset_tape

    def stamped_reset_tape():
        stamps.append(time.perf_counter())
        reset_tape()

    tracing.replace_everywhere(reset_tape, stamped_reset_tape)
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    result = pg.trainer.train(dataset, config)
    stamps.append(time.perf_counter())
    after = resource.getrusage(resource.RUSAGE_SELF)
    train_s = stamps[-1] - started

    layers = tracing.layer_metrics(tracer, [train_s], 0.0, 0.0, 1)
    started = time.perf_counter()
    pg.trainer.infer(result, dataset)
    infer_ms = 1000.0 * (time.perf_counter() - started)
    epochs = [b - a for a, b in zip(stamps, stamps[1:])]
    return {"n": n, "epoch_ms": round(1000.0 * statistics.median(epochs), 1),
            "cpu_s": round(after.ru_utime + after.ru_stime
                           - before.ru_utime - before.ru_stime, 2),
            "minflt_per_epoch": round((after.ru_minflt - before.ru_minflt) / len(epochs)),
            "infer_ms": round(infer_ms, 1),
            "peak_rss_mb": round(after.ru_maxrss / 1024.0, 1),
            "tape_ops": round(layers["numerics.tape_ops"][0], 1),
            "split_ms": {name: round(layers[key][0], 1) for name, key in SPLIT.items()}}


def _git(root: Path, *args) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "popgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _point(root: Path, n: int) -> dict:
    """One N measured on ``root``'s tree in a fresh child process."""
    proc = subprocess.run([sys.executable, __file__, "--child", str(n),
                           "--root", str(root)],
                          env={**os.environ, **CHILD_ENV}, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"N = {n} on {root} failed:\n{proc.stderr}")
    point = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(point), file=sys.stderr)
    return point


def _tree(root: Path) -> dict:
    return {"commit": _git(root, "rev-parse", "--short", "HEAD") or "unknown",
            "dirty": bool(_git(root, "status", "--porcelain", "--", "src")),
            "source_sha256": _source_hash(root)}


def _host() -> dict:
    import numpy

    return {"numpy": numpy.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
            "epochs": EPOCHS}


def row(root: Path) -> dict:
    """Every N in its own child process, smallest first."""
    return {**_tree(root), **_host(), "points": [_point(root, n) for n in SIZES]}


def _read(point: dict, metric: str) -> float:
    for key in metric.split("."):
        point = point[key]
    return point


def against_row(root: Path, parent: Path) -> dict:
    """Per N, ``PAIRS`` alternating pairs of parent and change children."""
    points = []
    for n in SIZES:
        pairs = []
        for p in range(1, PAIRS + 1):
            order = ("parent", "change") if p % 2 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _point(parent if side == "parent" else root, n)
            pairs.append(pair)
        wins = {metric: sum(_read(pair["change"], metric) < _read(pair["parent"], metric)
                            for pair in pairs) for metric in WIN_METRICS}
        points.append({"n": n, "pairs": pairs, "wins": wins})
    return {**_tree(root), "against": _tree(parent), **_host(), "pairs": PAIRS,
            "points": points}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/popgraph is measured")
    parser.add_argument("--append", type=Path, help="BENCH_scale.json to append the row to")
    parser.add_argument("--against", type=Path,
                        help="parent checkout to alternate with --root, pair by pair")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = args.root.resolve()
    parent = args.against.resolve() if args.against is not None else None
    for tree in (root, parent):
        if tree is not None and not (tree / "src" / "popgraph" / "__init__.py").is_file():
            parser.error(f"{tree} holds no popgraph source tree (src/popgraph)")
    if args.child is not None:
        print(json.dumps(measure(root, args.child)))
        return 0

    result = row(root) if parent is None else against_row(root, parent)
    print(json.dumps(result, indent=2))
    if args.append is not None:
        bench = (json.loads(args.append.read_text(encoding="utf-8"))
                 if args.append.exists() else {"rows": []})
        bench["rows"].append(result)
        args.append.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
