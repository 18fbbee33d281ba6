"""Workloads, correctness oracle and environment record of the edgedisp
benchmark. See README.md in this directory for the design.

Importing this module pins the BLAS thread count and imports edgedisp
from the ``src/`` directory of the checkout that holds this file, so it
must be imported before numpy.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread. With two on a 2-CPU machine, 64x64 predict latencies
# were bimodal (0.05 s or 0.25 s) and a training call was no faster.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "edgedisp", "__init__.py")):
    sys.exit(f"perfbench: edgedisp sources not found in {SRC}")
sys.path.insert(0, SRC)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import lru_cache  # noqa: E402

import numpy as np  # noqa: E402

import edgedisp  # noqa: E402
from edgedisp import data, losses, trainer  # noqa: E402
from edgedisp.network import NetworkConfig  # noqa: E402

if os.path.dirname(os.path.abspath(edgedisp.__file__)) != os.path.join(SRC, "edgedisp"):
    sys.exit(f"perfbench: imported edgedisp from {edgedisp.__file__}, not {SRC}")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SMALL = {"H": 64, "W": 64, "D_max": 16, "n_objects": 2}
# 256x512 with d_max 64 took 4-5 s and 2 GB per pair; this is the
# step-down size, with the same network otherwise.
WIDE = {"H": 128, "W": 256, "D_max": 32, "n_objects": 2}

TRAIN_VARIANTS = 8          # train-64 input sets with stored references
N_TRAIN, N_VAL = 32, 8
STEPS, EVAL_INTERVAL, BATCH = 8, 4, 4
WIDE_UNIVERSE, WIDE_PAIRS = 16, 8
SMALL_UNIVERSE, SMALL_PAIRS = 64, 16
SETUPS = 7                  # set-ups per run; setup_s is their median

# Float64 reordering (another BLAS thread count, a per-sample GEMM) moves
# results in the 15th-16th digit; an error in a gradient moves the
# training losses far more (see selftest.py).
RTOL = ATOL = 1e-9


# -- environment --------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- oracle -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _probe(shape):
    """Fixed pixels and projection weights for an image shape."""
    rng = np.random.default_rng(20190826)
    pixels = rng.integers(0, [shape[0], shape[1]], size=(32, 2))
    return pixels, rng.uniform(-1.0, 1.0, size=shape)


def disparity_summary(d: np.ndarray) -> dict:
    """Statistics, sampled pixels and a random projection; the projection
    moves when any single pixel does."""
    pixels, weights = _probe(d.shape)
    return {"mean": float(d.mean()), "min": float(d.min()), "max": float(d.max()),
            "proj": float((d * weights).sum()),
            "pixels": [float(d[y, x]) for y, x in pixels]}


THRESHOLDS = ("d1_and", "d1_or", "out_noc", "bad2", "bad4", "bad5")


def error_counts(d: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> dict:
    """Per-pair sums from which the pooled metrics_report of any set of
    pairs follows; an independent restatement of its definitions."""
    m = valid.astype(bool)
    err = np.abs(d - gt)[m]
    rel = err >= 0.05 * np.abs(gt[m])
    hits = {"d1_and": (err >= 3) & rel, "d1_or": (err >= 3) | rel, "out_noc": err >= 3,
            "bad2": err >= 2, "bad4": err >= 4, "bad5": err >= 5}
    return {"abs_err": float(err.sum()), "n_valid": int(m.sum()),
            "hits": {k: int(v.sum()) for k, v in hits.items()}}


def pooled_report(counts) -> dict:
    n = sum(c["n_valid"] for c in counts)
    pct = {k: 100.0 * sum(c["hits"][k] for c in counts) / n for k in THRESHOLDS}
    return {"epe": sum(c["abs_err"] for c in counts) / n, "d1_all": pct["d1_and"],
            **pct, "n_valid": n}


def mismatches(got, want, where="") -> list:
    """Differences beyond RTOL/ATOL between two JSON-like values."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, (int, float)) and np.isclose(got, want, rtol=RTOL, atol=ATOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def disparity_problems(d, ref: dict, shape, d_max: int) -> list:
    d = np.asarray(d)
    if d.shape != tuple(shape):
        return [f"shape {d.shape} != {tuple(shape)}"]
    if not np.isfinite(d).all():
        return ["non-finite disparity"]
    if d.min() < 0 or d.max() > d_max - 1:
        return [f"disparity outside [0, {d_max - 1}]: {d.min()}..{d.max()}"]
    return mismatches(disparity_summary(d), ref, "disparity")


def train_outcome(result: dict) -> dict:
    """What a training call leaves behind: its log, final validation report
    and the optimizer step stored in the last checkpoint."""
    with open(result["log"]) as f:
        log = [json.loads(line) for line in f]
    params, state, _cfg = trainer.load_checkpoint(result["last"])
    finite = all(np.isfinite(t.data).all() for t in params.tensors.values())
    return {"log": log, "val": result["val"],
            "checkpoint": {"step": state.step if state else None, "finite": finite,
                           "tensors": len(params.tensors)}}


@lru_cache(maxsize=None)
def reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# -- records ------------------------------------------------------------------


@dataclass
class Record:
    """Closed-loop bookkeeping for one segment of a run."""

    latencies: list = field(default_factory=list)
    busy_s: float = 0.0        # time inside library calls
    pairs: int = 0
    units: int = 0             # training steps, or predicted pairs
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems[:3]))

    def crash(self, exc: BaseException) -> None:
        self.check(["".join(traceback.format_exception_only(type(exc), exc)).strip()])


def make_checkpoint(work: str, data_dir: str, net: NetworkConfig):
    """A zero-step training run writes an initialised checkpoint; load it."""
    cfg = trainer.TrainConfig(seed=0, steps=0, data_dir=data_dir,
                              out_dir=os.path.join(work, "ckpt"), network=net)
    params, _state, cfg_net = trainer.load_checkpoint(trainer.train(cfg)["last"])
    return params, cfg_net


# -- workloads ----------------------------------------------------------------


def train_sample_seed(variant: int, i: int) -> int:
    return 100_000 + 1_000 * variant + i


def train_config(variant: int, work: str) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        seed=variant, batch_size=BATCH, steps=STEPS, eval_interval=EVAL_INTERVAL,
        data_dir=os.path.join(work, "train"), val_dir=os.path.join(work, "val"),
        out_dir=os.path.join(work, "run"))


def write_train_inputs(variant: int, work: str) -> None:
    for i in range(N_TRAIN + N_VAL):
        sub, k = ("train", i) if i < N_TRAIN else ("val", i - N_TRAIN)
        data.save_sample(os.path.join(work, sub), k,
                         data.synth_stereogram(train_sample_seed(variant, i), SMALL))


class Train64:
    """trainer.train, 8 steps at batch 4 with validation every 4 steps."""

    unit = "step"

    def __init__(self, seed: int, work: str):
        self.variant = seed % TRAIN_VARIANTS
        write_train_inputs(self.variant, work)
        params, net = make_checkpoint(work, os.path.join(work, "train"), NetworkConfig())
        # Warm-up predicts the whole validation set: set-up time is then
        # mostly compute, like the loop. Made of file writes and one
        # prediction, its median moved 29% between two sets of runs while
        # the loop's moved 9%.
        for i in range(N_VAL):
            trainer.predict(params, net, data.load_sample(os.path.join(work, "val"), i))
        self.cfg = train_config(self.variant, work)
        self.ref = reference()["train-64"][self.variant]

    def reset(self) -> None:
        pass

    def op(self, rec: Record) -> None:
        shutil.rmtree(self.cfg.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            result = trainer.train(self.cfg)
        except Exception as exc:
            rec.crash(exc)
            return
        t = time.perf_counter() - t0
        rec.latencies.append(t)
        rec.busy_s += t
        rec.pairs += BATCH * STEPS
        rec.units += STEPS
        rec.check(mismatches(train_outcome(result), self.ref, "train"))


def wide_pair(j: int):
    return data.synth_stereogram(200_000 + j, WIDE)


class InferWide:
    """trainer.predict on in-memory 128x256 pairs, d_max 32, batch 1."""

    unit = "pair"

    def __init__(self, seed: int, work: str):
        picks = np.random.default_rng(seed).choice(WIDE_UNIVERSE, WIDE_PAIRS, replace=False)
        self.pairs = [(int(j), wide_pair(int(j))) for j in picks]
        data_dir = os.path.join(work, "data")
        data.save_sample(data_dir, 0, self.pairs[0][1])
        self.params, self.net = make_checkpoint(work, data_dir, NetworkConfig(d_max=WIDE["D_max"]))
        trainer.predict(self.params, self.net, self.pairs[0][1])
        self.refs = reference()["infer-wide"]
        self.next = 0

    def reset(self) -> None:
        self.next = 0

    def op(self, rec: Record) -> None:
        j, sample = self.pairs[self.next % len(self.pairs)]
        self.next += 1
        t0 = time.perf_counter()
        try:
            d = trainer.predict(self.params, self.net, sample)
        except Exception as exc:
            rec.crash(exc)
            return
        t = time.perf_counter() - t0
        rec.latencies.append(t)
        rec.busy_s += t
        rec.pairs += 1
        rec.units += 1
        rec.check(disparity_problems(d, self.refs[j]["disparity"],
                                     (WIDE["H"], WIDE["W"]), WIDE["D_max"]))


def small_pair(j: int):
    return data.synth_stereogram(300_000 + j, SMALL)


class EvalSmall:
    """The `edgedisp eval` path with per-pair timing: one operation reads a
    64x64 pair from disk and predicts it; each pass over the set ends with
    losses.metrics_report on the pooled pixels."""

    unit = "pair"

    def __init__(self, seed: int, work: str):
        self.picks = [int(j) for j in np.random.default_rng(seed).choice(
            SMALL_UNIVERSE, SMALL_PAIRS, replace=False)]
        self.dir = os.path.join(work, "data")
        for k, j in enumerate(self.picks):
            data.save_sample(self.dir, k, small_pair(j))
        self.params, self.net = make_checkpoint(work, self.dir, NetworkConfig())
        trainer.predict(self.params, self.net, data.load_sample(self.dir, 0))
        self.refs = reference()["eval-small"]
        self.expected = pooled_report([self.refs[j]["counts"] for j in self.picks])

    def reset(self) -> None:
        pass

    def op(self, rec: Record) -> None:
        preds, gts, valids = [], [], []
        for k, j in enumerate(self.picks):
            t0 = time.perf_counter()
            try:
                sample = data.load_sample(self.dir, k)
                d = trainer.predict(self.params, self.net, sample)
            except Exception as exc:
                rec.crash(exc)
                continue
            t = time.perf_counter() - t0
            rec.latencies.append(t)
            rec.busy_s += t
            rec.pairs += 1
            rec.units += 1
            rec.check(disparity_problems(d, self.refs[j]["disparity"],
                                         (SMALL["H"], SMALL["W"]), SMALL["D_max"]))
            preds.append(d.ravel())
            gts.append(sample.disparity.data.ravel())
            valids.append(sample.valid.ravel())
        t0 = time.perf_counter()
        try:
            report = losses.metrics_report(np.concatenate(preds), np.concatenate(gts),
                                           np.concatenate(valids))
        except Exception as exc:
            rec.crash(exc)
            return
        rec.busy_s += time.perf_counter() - t0
        rec.check(mismatches(report, self.expected, "metrics_report"))


WORKLOADS = {"train-64": Train64, "infer-wide": InferWide, "eval-small": EvalSmall}


# -- runs ---------------------------------------------------------------------


def _loop(w, rec: Record, seconds: float = None, ops: int = None) -> int:
    """Closed loop: one caller, each call waits for the previous one."""
    deadline = time.perf_counter() + seconds if seconds is not None else None
    n = 0
    while (n < ops) if ops is not None else (time.perf_counter() < deadline):
        w.op(rec)
        n += 1
    return n


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def timed_run(name: str, seed: int, seconds: float, work: str):
    """Untraced run: end-to-end metrics as name -> (value, unit, samples)."""
    cls = WORKLOADS[name]
    setup_s = []
    for k in range(SETUPS):
        d = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        w = cls(seed, d)
        setup_s.append(time.perf_counter() - t0)
        if k + 1 < SETUPS:
            del w
            shutil.rmtree(d)
    rec = Record()
    _loop(w, rec, seconds=seconds)
    n = len(rec.latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", SETUPS),
        "pairs_per_s": (rec.pairs / rec.busy_s if rec.busy_s else 0.0, "pairs/s", n),
        "latency_s_p50": (_percentile(rec.latencies, 50), "s", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    extra = {"error_rate": (rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)}
    if n >= 100:    # at least 10 samples beyond the 90th percentile
        extra["latency_s_p90"] = (_percentile(rec.latencies, 90), "s", n)
    return rec, metrics, extra


def traced_run(name: str, seed: int, seconds: float, work: str, tracer):
    """Traced run: half the time untraced, then the same operations traced.

    Returns the combined record of both halves, the per-layer metrics as
    name -> (value, unit), the span table and the segment timings.
    """
    cls = WORKLOADS[name]
    tracer.install()
    try:
        w = cls(seed, os.path.join(work, "setup"))
    finally:
        tracer.uninstall()
    plain = Record()
    t0 = time.perf_counter()
    n_ops = _loop(w, plain, seconds=seconds / 2)
    plain_wall = time.perf_counter() - t0
    w.reset()
    traced = Record()
    tracer.mark_loop()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _loop(w, traced, ops=n_ops)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    units = max(traced.units, 1)
    metrics = tracer.metrics(units)
    metrics["trace.overhead_s"] = ((traced_wall - plain_wall) / units, "s")
    both = Record(attempted=plain.attempted + traced.attempted,
                  failed=plain.failed + traced.failed,
                  problems=plain.problems + traced.problems)
    info = {"unit": cls.unit, "units": units, "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall}
    return both, metrics, tracer.span_table(units), info
