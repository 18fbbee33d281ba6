"""Bit-for-bit parity of two checkouts of edgedisp.

    python3 scripts/parity.py dump OUT.npz
    python3 scripts/parity.py compare A.npz B.npz

``dump`` imports edgedisp from the ``src/`` directory beside this script,
with one BLAS thread, and saves:

- a default-config batch-4 64x64 ``"train"`` step: ``d1``-``d3``,
  ``edge_prob``, the gradient of every trainable tensor, and the
  parameters and Adam moments after one ``adam_step``;
- a 6-step, batch-3 ``trainer.train`` on seven 64x64 pairs, validated
  every 3 steps on two: the logged losses and validation EPEs, and every
  tensor of ``best.ckpt`` and ``last.ckpt``;
- ``predict`` on two 128x256 pairs (d_max 32) and one 256x512 pair
  (d_max 64), and on two 64x64 pairs (d_max 16) with the edge branch
  but no edge-aware fusion and with neither;
- one ``predict_batch`` of eight 64x64 pairs, an evaluation batch, on
  the default config;
- ``stereo.regress_disparity`` forward and backward over four tiles, at a
  non-integer scale;
- ``ops.upsample_bilinear`` forward and backward between a few extents,
  shrinking, keeping and growing;
- ``stereo.cost_volume_conv``, forward and the gradients of ``f_left``,
  ``f_right``, ``w`` and ``bias``, at 1, 5 and W+2 levels, and twice
  more at 5 levels: with no bias, and with an ``f_right`` that needs no
  gradient.

``compare`` lists every array that is in only one file or not
``array_equal`` in both, each with its largest absolute difference and
that difference over the array's largest magnitude in the first file,
names the array where that ratio is largest, and exits 1 if any array
differs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from edgedisp import data, network, ops, stereo, trainer  # noqa: E402
from edgedisp.losses import LossWeights  # noqa: E402
from edgedisp.tensor import Tensor  # noqa: E402


def _pairs(n: int, h: int, w: int, d_max: int, seed: int):
    cfg = {"H": h, "W": w, "D_max": d_max, "n_objects": 2}
    return [data.synth_stereogram(seed + i, cfg) for i in range(n)]


def _train_step(out: dict) -> None:
    net = network.NetworkConfig()
    params = network.init_params(net, seed=0)
    samples = _pairs(4, 64, 64, net.d_max, seed=10)
    left, right, disp, valid, edges = trainer._batch_arrays(samples, range(4))
    outputs = network.forward(left, right, params, net, "train")
    for k in ("d1", "d2", "d3", "edge_prob"):
        out[f"train.{k}"] = outputs[k].data
    trainer.compute_losses(outputs, disp, valid, edges, LossWeights(), net)["total"].backward()
    trainable = params.trainable()
    for name, t in trainable.items():
        out[f"train.grad.{name}"] = t.grad
    state = trainer.OptimizerState()
    trainer.adam_step(trainable, state)
    _save_state(out, "adam", params, state)


def _save_state(out: dict, tag: str, params, state) -> None:
    for name, t in params.tensors.items():
        out[f"{tag}.{name}"] = t.data
    for name in state.m:
        out[f"{tag}.m.{name}"], out[f"{tag}.v.{name}"] = state.m[name], state.v[name]


def _train_run(out: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for sub, n, seed in (("train", 7, 60), ("val", 2, 70)):
            for i, s in enumerate(_pairs(n, 64, 64, network.NetworkConfig().d_max, seed)):
                data.save_sample(os.path.join(tmp, sub), i, s)
        result = trainer.train(trainer.TrainConfig(
            seed=0, batch_size=3, steps=6, eval_interval=3, data_dir=os.path.join(tmp, "train"),
            val_dir=os.path.join(tmp, "val"), out_dir=os.path.join(tmp, "run")))
        with open(result["log"]) as f:
            log = [json.loads(line) for line in f]
        out["run.losses"] = np.array([[e[k] for k in ("l_disp", "l_edge", "l_dedge", "total")]
                                      for e in log if "total" in e])
        out["run.val_epe"] = np.array([e["val"]["epe"] for e in log if "val" in e])
        for tag in ("best", "last"):
            params, state, _cfg = trainer.load_checkpoint(result[tag])
            out[f"run.{tag}.step"] = np.array(state.step)
            _save_state(out, f"run.{tag}", params, state)


def _predicts(out: dict) -> None:
    for tag, (n, h, w, net) in {
            "wide": (2, 128, 256, network.NetworkConfig(d_max=32)),
            "large": (1, 256, 512, network.NetworkConfig(d_max=64)),
            "branch_only": (2, 64, 64, network.NetworkConfig(use_dedge_spp=False)),
            "edge_free": (2, 64, 64, network.NetworkConfig(use_edge_branch=False,
                                                           use_dedge_spp=False))}.items():
        params = network.init_params(net, seed=1)
        for i, s in enumerate(_pairs(n, h, w, net.d_max, seed=20)):
            out[f"predict.{tag}{i}"] = trainer.predict(params, net, s)
    net = network.NetworkConfig()
    batch = trainer.predict_batch(network.init_params(net, seed=1), net,
                                  _pairs(trainer.EVAL_BATCH, 64, 64, net.d_max, seed=80))
    out["predict_batch.eval"] = np.stack(batch)


def _regression(out: dict) -> None:
    rng = np.random.default_rng(30)
    b, d_max, h, w = 2, 13, 19, 23
    cost = Tensor(rng.normal(scale=3.0, size=(b, 1, 5, 7, 9)), requires_grad=True)
    budget = ops._WORK_BUDGET
    ops._WORK_BUDGET = 5 * 8 * b * d_max * w     # tiles of 5, 5, 5 and 4 rows
    try:
        y = stereo.regress_disparity(cost, d_max, (h, w))
        (y * Tensor(rng.normal(size=y.shape))).sum().backward()
    finally:
        ops._WORK_BUDGET = budget
    out["regress.y"], out["regress.grad"] = y.data, cost.grad


def _resizes(out: dict) -> None:
    rng = np.random.default_rng(40)
    for hw_in, hw_out in [((16, 16), (64, 64)), ((1, 2), (16, 16)), ((5, 7), (5, 13)),
                          ((7, 13), (3, 6)), ((6, 9), (13, 10))]:
        x = Tensor(rng.normal(size=(2, 3) + hw_in), requires_grad=True)
        y = ops.upsample_bilinear(x, hw_out)
        (y * Tensor(rng.normal(size=y.shape))).sum().backward()
        tag = "x".join(map(str, hw_in + hw_out))
        out[f"resize.{tag}.y"], out[f"resize.{tag}.grad"] = y.data, x.grad


def _stem(out: dict) -> None:
    rng = np.random.default_rng(50)
    b, c, h, w, cout = 2, 3, 5, 7, 4
    for d_levels, with_bias, right_grad in ((1, True, True), (5, True, True),
                                            (w + 2, True, True), (5, False, True),
                                            (5, True, False)):
        fl, fr = (Tensor(rng.normal(size=(b, c, h, w)), requires_grad=g)
                  for g in (True, right_grad))
        wt = Tensor(rng.normal(size=(cout, 3 * c, 3, 3, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(cout,)), requires_grad=True) if with_bias else None
        y = stereo.cost_volume_conv(fl, fr, wt, bias, d_levels)
        (y * Tensor(rng.normal(size=y.shape))).sum().backward()
        tag = (f"cost_volume_conv.d{d_levels}" + ("" if with_bias else ".no_bias")
               + ("" if right_grad else ".right_fixed"))
        out[f"{tag}.y"] = y.data
        for name, t in (("f_left", fl), ("f_right", fr), ("w", wt), ("bias", bias)):
            if t is not None and t.grad is not None:
                out[f"{tag}.grad.{name}"] = t.grad


def dump(path: str) -> int:
    out: dict = {}
    for part in (_train_step, _train_run, _predicts, _regression, _resizes, _stem):
        part(out)
    np.savez(path, **out)
    print(f"{len(out)} arrays written to {path}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as a, np.load(path_b) as b:
        names = sorted(set(a.files) | set(b.files))
        differ, worst = [], None
        for n in names:
            if n not in a.files or n not in b.files:
                differ.append(n)
                print(f"differs: {n} (only in {path_a if n in a.files else path_b})")
            elif not np.array_equal(a[n], b[n]):
                differ.append(n)
                d, m = _difference(a[n], b[n])
                r = d / m if m else np.inf
                print(f"differs: {n} max |a-b| {d:.3g}, {r:.3g} of max |a|")
                if worst is None or r > worst[2]:
                    worst = (n, d, r)
    print(f"{len(differ)} of {len(names)} arrays differ")
    if worst is not None:
        n, d, r = worst
        print(f"worst: {n}, max |a-b| {d:.3g}, {r:.3g} of max |a|")
    return 1 if differ else 0


def _difference(x: np.ndarray, y: np.ndarray):
    """The largest absolute difference of two arrays and the largest
    magnitude of the first (inf where their shapes differ)."""
    if x.shape != y.shape:
        return np.inf, 1.0
    x, y = x.astype(np.float64), y.astype(np.float64)
    return float(np.abs(x - y).max(initial=0.0)), float(np.abs(x).max(initial=0.0))


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        return dump(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
