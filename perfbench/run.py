"""Run one edgedisp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-64 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics and the tracing overhead, and writes every span to
``perfbench/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run it from the root of a checkout: edgedisp is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bench  # first: pins the BLAS threads and finds the library
import spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = bench.environment(args.workload, args.seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(bench.ROOT, "perfbench", "work", f"{tag}-{os.getpid()}")
    try:
        if args.trace:
            tracer = spans.Tracer(run_id=f"{tag}-{os.getpid()}-{os.urandom(4).hex()}")
            rec, metrics, table, info = bench.traced_run(
                args.workload, args.seed, args.seconds, work, tracer)
            trace_path = os.path.join(bench.ROOT, "perfbench", "out", f"trace-{tag}.json.gz")
            tracer.write(trace_path, env)
            _print_table([(k, v, u, None) for k, (v, u) in metrics.items()])
            print(f"tracing overhead: {info['untraced_wall_s']:.3f} s untraced, "
                  f"{info['traced_wall_s']:.3f} s traced for {info['units']} {info['unit']}s")
            print(f"spans by path, per {info['unit']} (total s, self s, calls):")
            for path, calls, total, self_s in table:
                print(f"  {total:10.5f} {self_s:10.5f} {calls:7d}  {path}")
            print(f"spans written to {os.path.relpath(trace_path, bench.ROOT)}")
            out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        else:
            rec, metrics, extra = bench.timed_run(args.workload, args.seed, args.seconds, work)
            _print_table([(k, v, u, n) for k, (v, u, n) in {**metrics, **extra}.items()])
            out = {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in rec.problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": out}))
    return 0


def _print_table(rows) -> None:
    print(f"{'metric':42s} {'value':>16s} {'unit':8s} samples")
    for name, value, unit, n in rows:
        print(f"{name:42s} {value:16.6g} {unit:8s} {'' if n is None else n}")


if __name__ == "__main__":
    sys.exit(main())
