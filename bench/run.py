"""Benchmark entry point for tbje.

    python3 bench/run.py --workload {train_full,score} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; tbje is imported from ./src. The workload
runs in a child process of its own, so its peak RSS and caches belong to it
alone, and a crash or OOM kill is reported as a failed run with its exit
status. Scratch files (state files, checkpoints, the corpus) live under
.bench_out/ and are deleted when the run ends; a traced run keeps its spans
in .bench_out/spans-<workload>-seed<N>.ndjson.

Standard output ends with two JSON lines: the run's details (machine facts,
per-workload metrics with sample counts, checks), then the result object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("train_full", "score")
# The whole run must end within 180 s; this leaves the parent time to clean up.
CHILD_TIMEOUT_S = 170


def machine_facts(blas_threads: int) -> dict:
    mem_total = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    blas = None
    try:
        import numpy
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "mem_total": mem_total, "blas": blas,
            "blas_threads": blas_threads, "python": platform.python_version(),
            **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one tbje benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tbje" / "cli.py").is_file():
        print(f"run.py: no tbje sources at {src}/tbje; run from the root "
              f"of a tbje checkout", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    result_path = out_dir / f"result-{tag}-{os.getpid()}.json"
    spans_path = out_dir / f"spans-{tag}.ndjson"
    threads = len(os.sched_getaffinity(0))
    # Without huge-page advice from numpy: with transparent huge pages in
    # madvise mode, each advised allocation may stall in memory compaction
    # for as long as the machine's fragmentation dictates, which made
    # extract-features times differ by 25% between identical runs.
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads),
           "NUMPY_MADVISE_HUGEPAGE": "0"}
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--workdir", str(workdir),
               "--result", str(result_path)]
    if args.trace:
        command += ["--spans", str(spans_path)]

    status = None
    result = None
    try:
        try:
            # child stdout goes to our stderr: our stdout ends with the result
            status = subprocess.run(command, env=env, stdout=sys.stderr,
                                    timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        if status == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(threads), "exit_status": status}
    if result is None:
        print(json.dumps(detail))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    detail.update(result.pop("detail"))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
