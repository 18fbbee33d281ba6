"""Regenerate reference.json: the outputs every benchmark operation is
checked against, for every input a workload seed can select.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good; the stored values
define correct behaviour for later commits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import bench
from bench import data, trainer


def main() -> int:
    work = os.path.join(bench.ROOT, "perfbench", "work", f"reference-{os.getpid()}")
    try:
        ref = {"env": bench.environment("reference", None)}
        ref["train-64"] = []
        for v in range(bench.TRAIN_VARIANTS):
            d = os.path.join(work, f"train{v}")
            bench.write_train_inputs(v, d)
            ref["train-64"].append(bench.train_outcome(trainer.train(bench.train_config(v, d))))
            print(f"train-64 variant {v}: val epe {ref['train-64'][-1]['val']['epe']:.6f}",
                  flush=True)

        d = os.path.join(work, "wide")
        first = bench.wide_pair(0)
        data.save_sample(d, 0, first)
        params, net = bench.make_checkpoint(d, d, bench.NetworkConfig(d_max=bench.WIDE["D_max"]))
        ref["infer-wide"] = [
            {"disparity": bench.disparity_summary(
                trainer.predict(params, net, bench.wide_pair(j)))}
            for j in range(bench.WIDE_UNIVERSE)]

        d = os.path.join(work, "small")
        for j in range(bench.SMALL_UNIVERSE):
            data.save_sample(d, j, bench.small_pair(j))
        params, net = bench.make_checkpoint(d, d, bench.NetworkConfig())
        ref["eval-small"] = []
        for j in range(bench.SMALL_UNIVERSE):
            s = data.load_sample(d, j)
            pred = trainer.predict(params, net, s)
            ref["eval-small"].append({
                "disparity": bench.disparity_summary(pred),
                "counts": bench.error_counts(pred, s.disparity.data, s.valid)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
