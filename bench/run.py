"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/snodep``. Prints one
JSON object as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
figures; with ``--trace 1`` they are the per-layer figures of a traced phase,
with its overhead against an untraced phase of the same length; the two
phases share the ``--seconds``. Each run also writes
``bench/results/<workload>-seed<N>-trace<T>.json`` with a run manifest, and a
traced run writes its spans to ``...-spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SNODEP_THREADS")


def _git_commit():
    """The checked-out commit read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, np, nproc):
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": 0,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in
                 ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "snodep" / "__init__.py").is_file():
        print(f"error: no snodep sources at {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import snodep
    if Path(snodep.__file__).resolve().parent != SRC / "snodep":
        print(f"error: imported snodep from {snodep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{stem}-{os.getpid()}"
    try:
        line, details = workloads.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not line["correct"]:
        print(f"check failed: {details['check_failed']}", file=sys.stderr)

    tracer = details.pop("tracer", None)
    if tracer is not None:
        spans = RESULTS / f"{stem}-spans.jsonl"
        tracer.write(spans)
        details["spans_file"] = spans.name
    record = {"manifest": manifest(args, np, workloads.nproc()), "result": line,
              **details}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
