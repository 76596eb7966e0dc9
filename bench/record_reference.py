"""Record the per-epoch training logs that train_full's reference check
compares against, into bench/reference.json.

    PYTHONPATH=src python3 bench/record_reference.py --seeds 0-63
    PYTHONPATH=src python3 bench/record_reference.py --seeds 0-63 --size toy

Run from the root of a checkout. Record again only when train_full's own
definition (sizes, inputs, configuration) changes: a log that moved because
the program changed is a failed check, not a stale reference.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", required=True,
                        help="inclusive range, such as 0-63")
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    path = workloads.REFERENCE_PATH
    table = (json.loads(path.read_text(encoding="utf-8"))
             if path.is_file() else {})
    scratch = Path(".bench_out")
    scratch.mkdir(exist_ok=True)
    for seed in range(first, last + 1):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload = workloads.TrainWorkload(args.size, seed, Path(tmp))
            workload.setup()
            log = workload.op()["log"]
        table.setdefault(args.size, {})[str(seed)] = log
        path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{args.size} seed {seed}: {log}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
