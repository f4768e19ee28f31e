"""Repository benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload inproc_small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads (see each module's ``WHY``): ``inproc_small``, ``http_large``,
``spill_lwdc``, ``cluster_lwdc``. Inputs are generated from ``--seed``;
every timed answer is checked against the exhaustive oracle outside the
timed regions. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the same workload with every layer's entry points wrapped and prints
the per-layer metrics instead. ``--workload all`` runs the four workloads
one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

#: One BLAS thread: the workloads bring their own threads (servers, shard
#: fan-out, client connections) to a 2-vCPU host, and a BLAS call that
#: waits on a second thread stalled behind them ran up to 30x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
WORKLOADS = ("inproc_small", "http_large", "spill_lwdc", "cluster_lwdc")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = HERE.parent / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from common import WORK_DIR, Report, provenance
    from layers import PER_LAYER, Recorder

    workload = importlib.import_module(args.workload)
    report = Report(args.workload)
    report.section("provenance", {
        **provenance(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.WHY,
    })
    recorder = Recorder() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        layer_values = workload.run(args, report, recorder, work)
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.dump(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if recorder is None:
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        # a layer the workload does not run reports 0 (no calls, no time)
        for name, unit in PER_LAYER.items():
            report.metric(name, layer_values.get(name, 0.0), unit)
        names = [m["name"] for m in bench["per_layer"]]
    return report.finish(names)


if __name__ == "__main__":
    sys.exit(main())
