"""Self-test of the benchmark's correctness oracle.

    python3 perfbench/selftest.py

Shows that the tolerance admits float64 reordering while a perturbed
output, or training with a slightly wrong gradient, is counted as failed.
Exits 1 if any expectation does not hold. Takes about a minute.
"""

from __future__ import annotations

import os
import shutil
import sys

import bench
import numpy as np
from bench import Record, trainer
from edgedisp import ops


results = []


def expect(what: str, ok: bool) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def gradient_noise(scale: float):
    """Wrap the conv weight gradient so it gains a fixed additive error of
    ``scale`` times its mean magnitude (a scaled gradient would be invisible
    to Adam, which is invariant to per-element scale)."""
    orig = ops._corr_weight_grad

    def noisy(*args):
        g = orig(*args)
        pattern = np.where(np.arange(g.size).reshape(g.shape) % 3 == 0, 1.0, -1.0)
        return g + scale * np.abs(g).mean() * pattern
    return orig, noisy


def main() -> int:
    work = os.path.join(bench.ROOT, "perfbench", "work", f"selftest-{os.getpid()}")
    try:
        w = bench.EvalSmall(seed=0, work=os.path.join(work, "eval"))
        sample = bench.data.load_sample(w.dir, 0)
        d = trainer.predict(w.params, w.net, sample)
        ref = w.refs[w.picks[0]]["disparity"]
        shape, d_max = d.shape, bench.SMALL["D_max"]
        expect("stored reference matches a fresh prediction",
               not bench.disparity_problems(d, ref, shape, d_max))
        expect("relative change of 1e-14 (reordering size) is admitted",
               not bench.disparity_problems(d * (1 + 1e-14), ref, shape, d_max))
        bumped = d.copy()
        bumped[17, 40] += 1e-6
        expect("one pixel moved by 1e-6 is caught",
               bool(bench.disparity_problems(bumped, ref, shape, d_max)))
        bumped[17, 40] = d_max
        expect("a disparity above d_max - 1 is caught",
               bool(bench.disparity_problems(bumped, ref, shape, d_max)))
        report = dict(w.expected, bad2=w.expected["bad2"] + 1e-6)
        expect("a metrics_report field moved by 1e-6 is caught",
               bool(bench.mismatches(report, w.expected)))

        predict = trainer.predict
        trainer.predict = lambda *a: predict(*a) + np.eye(*shape) * 1e-6
        try:
            rec = Record()
            w.op(rec)
        finally:
            trainer.predict = predict
        expect(f"perturbed predictions are counted as failed ({rec.failed}/{rec.attempted})",
               rec.failed >= bench.SMALL_PAIRS)

        t = bench.Train64(seed=0, work=os.path.join(work, "train"))
        for scale, should_fail in ((1e-13, False), (1e-6, True)):
            orig, noisy = gradient_noise(scale)
            ops._corr_weight_grad = noisy
            try:
                rec = Record()
                t.op(rec)
            finally:
                ops._corr_weight_grad = orig
            verdict = "counted as failed" if should_fail else "admitted"
            expect(f"training with gradient error {scale:g} x mean |g| is {verdict}"
                   f" ({rec.failed}/{rec.attempted} failed)",
                   (rec.failed == 1) == should_fail and rec.attempted == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
