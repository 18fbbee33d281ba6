"""End-to-end acceptance checks.

Each test prints a single machine-greppable verdict line of the form
``ACCEPT n <title>: PASS|FAIL (detail)`` and then asserts, so the whole
gate is readable from the pytest log.
"""

import json
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgedisp import cli
from edgedisp import data as ddata
from edgedisp import losses, network, ops, stereo, trainer
from edgedisp.losses import LossWeights
from edgedisp.network import NetworkConfig, init_params
from edgedisp.ops import ConvSpec
from edgedisp.tensor import Tensor

from checks import granular_kernels, naive_conv

TINY_NET = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                         dilation_rates=(1, 2))


VERDICT_LINES = []


def verdict(num, title, ok, detail):
    line = f"ACCEPT {num} {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    VERDICT_LINES.append(line)
    assert ok, line


# -- criterion 1: finite-difference gradient suite ---------------------------


def _fd_max_rel(build, tensors, rng, n_probe=3, h=1e-5):
    """Worst relative (or small-magnitude absolute) FD error over probes."""
    for t in tensors:
        t.grad = None
    build(*tensors).backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        idx = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = build(*tensors).item()
            flat[i] = orig - h
            fm = build(*tensors).item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            g = grad.reshape(-1)[i]
            denom = max(abs(g), abs(fd), 1e-3)
            worst = max(worst, abs(g - fd) / denom)
    return worst


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = {}

    def T(rng, shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    for seed in range(10):
        rng = np.random.default_rng(seed)
        spec = ConvSpec(stride=2, dilation=2, padding=2)

        x, w = T(rng, (1, 2, 7, 8)), T(rng, (3, 2, 3, 3))

        def build_2d(a, b):
            y = ops.conv2d(a, b, spec=spec)
            return (y * y).sum()

        worst["conv2d"] = max(worst.get("conv2d", 0),
                              _fd_max_rel(build_2d, [x, w], rng))

        x, w = T(rng, (1, 2, 4, 5, 5)), T(rng, (2, 2, 3, 3, 3))

        def build_3d(a, b):
            y = ops.conv3d(a, b, spec=ConvSpec(padding=1))
            return (y * y).sum()

        worst["conv3d"] = max(worst.get("conv3d", 0),
                              _fd_max_rel(build_3d, [x, w], rng))

        x, w = T(rng, (1, 2, 2, 3, 3)), T(rng, (2, 3, 3, 3, 3))
        tspec = ConvSpec(stride=2, padding=1)

        def build_t(a, b):
            y = ops.conv3d_transposed(a, b, spec=tspec, output_size=(4, 6, 6))
            return (y * y).sum()

        worst["conv3d_transposed"] = max(
            worst.get("conv3d_transposed", 0), _fd_max_rel(build_t, [x, w], rng))

        ks, pw = granular_kernels(rng, 4, 3, 2, spatial_rank=2)
        x = T(rng, (1, 4, 6, 6))
        worst["granular2d"] = max(worst.get("granular2d", 0), _fd_max_rel(
            lambda a: (stereo.granular_conv(a, ks, pw, 2)
                       * stereo.granular_conv(a, ks, pw, 2)).sum(), [x], rng))

        ks3, pw3 = granular_kernels(rng, 4, 3, 2, spatial_rank=3)
        x = T(rng, (1, 4, 3, 4, 4))
        worst["granular3d"] = max(worst.get("granular3d", 0), _fd_max_rel(
            lambda a: (stereo.granular_conv(a, ks3, pw3, 1)
                       * stereo.granular_conv(a, ks3, pw3, 1)).sum(), [x], rng))

        x = T(rng, (2, 5, 4))
        coeff = Tensor(rng.normal(size=x.shape))
        worst["softmax"] = max(worst.get("softmax", 0), _fd_max_rel(
            lambda a: (ops.softmax(a, axis=1) * coeff).sum(), [x], rng))

        c = T(rng, (1, 1, 5, 3, 3))
        worst["soft_argmin"] = max(worst.get("soft_argmin", 0), _fd_max_rel(
            lambda a: (stereo.soft_argmin(a)
                       * stereo.soft_argmin(a)).sum(), [c], rng))

        x = T(rng, (1, 2, 3, 4))
        worst["upsample_bilinear"] = max(
            worst.get("upsample_bilinear", 0), _fd_max_rel(
                lambda a: (ops.upsample_bilinear(a, (7, 9))
                           * ops.upsample_bilinear(a, (7, 9))).sum(),
                [x], rng))

        x = T(rng, (1, 1, 2, 3, 3))
        worst["upsample_trilinear"] = max(
            worst.get("upsample_trilinear", 0), _fd_max_rel(
                lambda a: (ops.upsample_trilinear(a, (5, 6, 6))
                           * ops.upsample_trilinear(a, (5, 6, 6))).sum(),
                [x], rng))

        x = T(rng, (3, 2, 4, 4))
        gamma, beta = T(rng, (2,)), T(rng, (2,))
        worst["batch_norm"] = max(worst.get("batch_norm", 0), _fd_max_rel(
            lambda a, g, b: (ops.batch_norm(a, g, b)
                             * ops.batch_norm(a, g, b)).sum(),
            [x, gamma, beta], rng))

        y = (rng.uniform(size=(2, 4, 4)) < 0.4).astype(float)
        p = Tensor(rng.uniform(0.1, 0.9, size=y.shape), requires_grad=True)
        worst["edge_loss"] = max(worst.get("edge_loss", 0), _fd_max_rel(
            lambda a: losses.edge_loss(a, y), [p], rng))

        d = T(rng, (1, 4, 4))
        worst["smoothness"] = max(worst.get("smoothness", 0), _fd_max_rel(
            lambda a: losses.dedge_disp_smoothness(a, y[:1], 0.5), [d], rng))

        gt = rng.uniform(0, 4, size=(1, 4, 4))
        valid = np.ones_like(gt)
        preds = [Tensor(gt + rng.normal(size=gt.shape), requires_grad=True)
                 for _ in range(3)]
        worst["disp_loss"] = max(worst.get("disp_loss", 0), _fd_max_rel(
            lambda *ts: losses.disp_loss(list(ts), gt, valid, LossWeights()),
            preds, rng))

        params = init_params(TINY_NET, seed=seed)
        v = T(rng, (1, 4, 2, 4, 4))

        def build_agm(a):
            y = network.agm_module(a, params, "disp.agm0", TINY_NET, "eval")
            return (y * y).sum()

        worst["agm_module"] = max(worst.get("agm_module", 0),
                                  _fd_max_rel(build_agm, [v], rng, n_probe=2))

    # end to end: image pixels through the full multi-task objective
    e2e_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2), norm_enabled=False)
        params = init_params(cfg, seed=seed)
        gt = rng.uniform(0, 6, size=(2, 16, 16))
        valid = np.ones_like(gt)
        edges = (rng.uniform(size=gt.shape) < 0.2).astype(float)
        left = Tensor(rng.normal(size=(2, 3, 16, 16)), requires_grad=True)
        right = Tensor(rng.normal(size=left.shape), requires_grad=True)

        def build(a, b):
            out = network.forward(a, b, params, cfg, "train")
            parts = trainer.compute_losses(out, gt, valid, edges,
                                           LossWeights(), cfg)
            return parts["total"]

        e2e_worst = max(e2e_worst, _fd_max_rel(build, [left, right], rng,
                                               n_probe=2, h=1e-4))

    elapsed = time.time() - start
    op_worst = max(worst.values())
    ok = op_worst < 1e-4 and e2e_worst < 1e-3 and elapsed < 300
    verdict(1, "gradient suite", ok,
            f"worst op rel err {op_worst:.2e} < 1e-4, "
            f"end-to-end {e2e_worst:.2e} < 1e-3, {elapsed:.0f}s < 300s")


# -- criterion 2: parameter-count identity ------------------------------------


def test_criterion_2_param_count_identity():
    rng = np.random.default_rng(0)
    mismatches = []
    for c in (8, 16, 32, 64):
        for g in (2, 4, 8):
            if c % g:
                continue
            want = stereo.granular_param_count(c, c, 3, g, spatial_rank=2)
            kernels, pw = granular_kernels(rng, c, 3, g, spatial_rank=2)
            built = sum(k.size for k in kernels) + pw.size
            if built != want:
                mismatches.append((c, g, built, want))
    ratio = Fraction(stereo.granular_param_count(64, 64, 3, 4, spatial_rank=2),
                     stereo.standard_param_count(64, 64, 3, spatial_rank=2))
    exact = ratio == Fraction(11008, 36864)
    near = 0.0 <= float(ratio) - 0.25 <= 0.12
    ok = not mismatches and exact and near
    verdict(2, "granular parameter identity", ok,
            f"grid mismatches {mismatches}, ratio {ratio} "
            f"{'==' if exact else '!='} 11008/36864, 1/G offset "
            f"{float(ratio) - 0.25:+.4f} within +0.12")


# -- criterion 3: brute-force oracle equivalence ------------------------------


def _soft_argmin_oracle(cost):
    d = cost.shape[2]
    e = np.exp(-cost - np.max(-cost, axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    return np.einsum("d,bcdhw->bchw", np.arange(float(d)), p)[:, 0]


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(0)
    instances = 0
    worst = 0.0

    for _ in range(30):  # convolutions, 2-D and 3-D
        x = rng.normal(size=(1, 2, 6, 7))
        w = rng.normal(size=(2, 2, 3, 3))
        spec = ConvSpec(stride=int(rng.integers(1, 3)),
                        dilation=int(rng.integers(1, 3)), padding=2)
        got = ops.conv2d(Tensor(x), Tensor(w), spec=spec).data
        want = naive_conv(x, w, spec.stride, spec.dilation, 2)
        worst = max(worst, np.max(np.abs(got - want)))
        instances += 1
        x3 = rng.normal(size=(1, 2, 4, 5, 5))
        w3 = rng.normal(size=(2, 2, 3, 3, 3))
        got = ops.conv3d(Tensor(x3), Tensor(w3), spec=ConvSpec(padding=1)).data
        want = naive_conv(x3, w3, 1, 1, 1)
        worst = max(worst, np.max(np.abs(got - want)))
        instances += 1

    for _ in range(20):  # cost volume shift structure
        fl = rng.normal(size=(1, 3, 4, 8))
        fr = rng.normal(size=(1, 3, 4, 8))
        cv = stereo.build_cost_volume(Tensor(fl), Tensor(fr), 3)
        for d in range(3):
            got = cv.data[0, :, d]
            np.testing.assert_array_equal(got[:3], fl[0])
            want_r = np.zeros_like(fr[0])
            want_r[:, :, d:] = fr[0][:, :, :fr.shape[3] - d]
            worst = max(worst, np.max(np.abs(got[3:6] - want_r)))
            worst = max(worst, np.max(np.abs(got[6:] - np.abs(fl[0] - want_r))))
        instances += 1

    for _ in range(10):  # shared concatenation layout
        k = int(rng.integers(1, 4))
        f5 = rng.normal(size=(1, k, 3, 3))
        fs = [rng.normal(size=(1, 1, 3, 3)) for _ in range(3)]
        got = stereo.shared_concat(Tensor(f5), *map(Tensor, fs)).data
        for j in range(k):
            want = np.concatenate([f5[:, j:j + 1]] + fs, axis=1)
            worst = max(worst, np.max(np.abs(got[:, 4 * j:4 * j + 4] - want)))
        instances += 1

    for _ in range(20):  # soft-argmin expectation
        cost = rng.normal(size=(1, 1, 6, 3, 3))
        got = stereo.soft_argmin(Tensor(cost)).data
        worst = max(worst, np.max(np.abs(got - _soft_argmin_oracle(cost))))
        instances += 1

    for _ in range(20):  # losses and metrics
        y = (rng.uniform(size=(2, 4, 5)) < 0.3).astype(float)
        p = rng.uniform(0.05, 0.95, size=y.shape)
        got = losses.edge_loss(Tensor(p), y).item()
        alphas = y.reshape(2, -1).mean(axis=1).reshape(2, 1, 1)
        want = -(alphas * (1 - y) * np.log(1 - p)
                 + (1 - alphas) * y * np.log(p)).mean()
        worst = max(worst, abs(got - want))

        d_star = rng.uniform(1, 15, size=(6, 6))
        d_hat = d_star + rng.normal(0, 3, size=d_star.shape)
        valid = np.ones_like(d_star, dtype=bool)
        err = np.abs(d_hat - d_star)
        worst = max(worst, abs(losses.epe(d_hat, d_star, valid) - err.mean()))
        want = 100.0 * np.mean((err >= 3.0) & (err >= 0.05 * d_star))
        got = losses.threshold_error(d_hat, d_star, valid, 3.0, 5.0, "AND")
        worst = max(worst, abs(got - want))
        instances += 1

    ok = instances >= 100 and worst < 1e-10
    verdict(3, "brute-force oracle equivalence", ok,
            f"{instances} instances >= 100, max abs diff {worst:.2e} < 1e-10")


# -- criterion 4: depth-edge ground truth -------------------------------------


def test_criterion_4_depth_edge_oracle():
    rng = np.random.default_rng(0)
    exact = True
    superset = True
    for i in range(100):
        h = int(rng.integers(4, 65))
        w = int(rng.integers(4, 65))
        inst = rng.integers(0, 4, size=(h, w))
        sem = rng.integers(0, 3, size=(h, w))
        got = ddata.depth_edge_gt(inst, sem)

        want = np.zeros((h, w), dtype=np.uint8)
        for y in range(h):
            for x in range(w):
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if not (0 <= ny < h and 0 <= nx < w) or (dy == dx == 0):
                            continue
                        if inst[y, x] != 0 and inst[ny, nx] != inst[y, x]:
                            want[y, x] = 1
                        if sem[ny, nx] != sem[y, x]:
                            want[y, x] = 1
        exact = exact and np.array_equal(got, want)
        superset = superset and bool(
            np.all(got >= ddata.instance_boundaries(inst))
            and np.all(got >= ddata.semantic_boundaries(sem)))
    verdict(4, "depth-edge ground truth", exact and superset,
            f"100 masks exact match {exact}, union-superset {superset}")


# -- criterion 6: multi-task gradient flow ------------------------------------


def test_criterion_6_multitask_gradient_flow():
    rng = np.random.default_rng(0)
    params = init_params(TINY_NET, seed=0)
    left = Tensor(rng.normal(size=(2, 3, 32, 32)))
    right = Tensor(rng.normal(size=(2, 3, 32, 32)))
    gt = rng.uniform(0, 6, size=(2, 32, 32))
    valid = np.ones_like(gt)
    edges = (rng.uniform(size=gt.shape) < 0.2).astype(float)

    out = network.forward(left, right, params, TINY_NET, "train")
    losses.edge_loss(out["edge_prob"], edges).backward()
    edge_only = max(np.max(np.abs(t.grad)) for t in
                    params.partition("shared").values()
                    if t.requires_grad and t.grad is not None)

    params.zero_grad()
    out = network.forward(left, right, params, TINY_NET, "train")
    losses.disp_loss([out["d1"], out["d2"], out["d3"]], gt, valid,
                     LossWeights()).backward()
    disp_only = max(np.max(np.abs(t.grad)) for t in
                    params.partition("shared").values()
                    if t.requires_grad and t.grad is not None)

    ok = edge_only > 1e-12 and disp_only > 1e-12
    verdict(6, "multi-task gradient flow", ok,
            f"shared |grad| from edge loss {edge_only:.2e}, "
            f"from disparity loss {disp_only:.2e}, both > 1e-12")


# -- criterion 7: ablation path -----------------------------------------------


def test_criterion_7_ablation_path(tmp_path):
    base = TINY_NET
    ablated = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2),
                            use_edge_branch=False, use_dedge_spp=False)
    p_full = init_params(base, seed=0)
    p_abl = init_params(ablated, seed=0)
    rng = np.random.default_rng(0)
    left = Tensor(rng.normal(size=(1, 3, 16, 16)))
    right = Tensor(rng.normal(size=(1, 3, 16, 16)))
    out = network.forward(left, right, p_abl, ablated, "infer")
    runs = out["d3"].shape == (1, 16, 16)

    path = str(tmp_path / "ablated.ckpt")
    trainer.save_checkpoint(p_abl, None, path, ablated)
    loaded, _, _ = trainer.load_checkpoint(path)
    no_edge = not any(n.startswith("edge.") for n in loaded.tensors)
    smaller = p_abl.count() < p_full.count()
    verdict(7, "ablation path", runs and smaller and no_edge,
            f"forward runs {runs}, params {p_abl.count()} < {p_full.count()}, "
            f"edge-free checkpoint {no_edge}")


# -- criterion 8: range and shape invariants ----------------------------------


def test_criterion_8_range_shape_invariants():
    params = init_params(TINY_NET, seed=0)
    in_range = True
    shape_ok = True
    softmax_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        left = Tensor(rng.normal(size=(1, 3, 16, 16)))
        right = Tensor(rng.normal(size=(1, 3, 16, 16)))
        d = network.forward(left, right, params, TINY_NET, "infer")["d3"].data
        in_range = in_range and d.min() >= 0.0 and d.max() <= TINY_NET.d_max - 1

        v = Tensor(rng.normal(size=(1, 4, 2, 4, 4)))
        out = network.agm_module(v, params, "disp.agm0", TINY_NET, "eval")
        shape_ok = shape_ok and out.shape == v.shape

        s = ops.softmax(Tensor(rng.normal(size=(2, 7, 3))), axis=1).data
        softmax_ok = softmax_ok and np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12
    verdict(8, "range and shape invariants", in_range and shape_ok and softmax_ok,
            f"50 inputs: disparity in [0, {TINY_NET.d_max - 1}] {in_range}, "
            f"volume shape preserved {shape_ok}, softmax sums 1 {softmax_ok}")


# -- criterion 9: format fidelity + CLI pipeline ------------------------------


def test_criterion_9_format_and_pipeline(tmp_path, capsys):
    start = time.time()
    rng = np.random.default_rng(0)

    values = rng.normal(size=(6, 9)).astype(np.float32).astype(np.float64)
    a, b = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
    ddata.write_pfm(a, values)
    ddata.write_pfm(b, ddata.read_pfm(a))
    pfm_ok = Path(a).read_bytes() == Path(b).read_bytes()

    fixture = tmp_path / "big.pfm"
    want = np.array([[1.5, -2.25], [4.0, 0.5]])
    fixture.write_bytes(b"Pf\n2 2\n1.0\n" + want[::-1].astype(">f4").tobytes())
    big_ok = np.array_equal(ddata.read_pfm(str(fixture)), want)

    params = init_params(TINY_NET, seed=0)
    ca, cb = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    trainer.save_checkpoint(params, None, ca, TINY_NET)
    p2, s2, cfg2 = trainer.load_checkpoint(ca)
    trainer.save_checkpoint(p2, s2, cb, cfg2)
    ckpt_ok = Path(ca).read_bytes() == Path(cb).read_bytes()

    data_dir = str(tmp_path / "data")
    run_dir = str(tmp_path / "run")
    cfg_path = str(tmp_path / "net.json")
    with open(cfg_path, "w") as f:
        json.dump({"network": {"base_channels": 4, "d_max": 8, "groups": 2,
                               "k_top": 2, "dilation_rates": [1, 2]}}, f)
    codes = []
    codes.append(cli.main(["gen-data", "--out", data_dir, "--count", "4",
                           "--height", "16", "--width", "32", "--dmax", "8"]))
    capsys.readouterr()
    codes.append(cli.main(["train", "--config", cfg_path, "--data", data_dir,
                           "--val-data", data_dir, "--out", run_dir,
                           "--steps", "20", "--batch-size", "2",
                           "--eval-interval", "10"]))
    capsys.readouterr()
    ckpt = os.path.join(run_dir, "last.ckpt")
    codes.append(cli.main(["eval", "--ckpt", ckpt, "--data", data_dir]))
    report = json.loads(capsys.readouterr().out)
    codes.append(cli.main(["infer", "--ckpt", ckpt,
                           "--left", os.path.join(data_dir, "0000_left.pgm"),
                           "--right", os.path.join(data_dir, "0000_right.pgm"),
                           "--out-disp", str(tmp_path / "d.pfm"),
                           "--out-vis", str(tmp_path / "d.ppm")]))
    capsys.readouterr()
    finite = all(np.isfinite(v) for v in report.values())
    elapsed = time.time() - start
    ok = (pfm_ok and big_ok and ckpt_ok and codes == [0, 0, 0, 0] and finite
          and elapsed < 300)
    verdict(9, "format fidelity and pipeline", ok,
            f"pfm roundtrip {pfm_ok}, big-endian fixture {big_ok}, "
            f"checkpoint roundtrip {ckpt_ok}, exit codes {codes}, "
            f"finite metrics {finite}, {elapsed:.0f}s < 300s")


# -- criterion 5: desk-scale learning (slowest, so it runs last) --------------


def test_criterion_5_desk_scale_learning(tmp_path):
    start = time.time()
    data_cfg = {"H": 64, "W": 64, "D_max": 16, "n_objects": 2}
    train_dir = str(tmp_path / "train")
    val_dir = str(tmp_path / "val")
    for i in range(64):
        ddata.save_sample(train_dir, i, ddata.synth_stereogram(i, data_cfg))
    for i in range(16):
        ddata.save_sample(val_dir, i, ddata.synth_stereogram(1000 + i, data_cfg))

    cfg = trainer.TrainConfig(data_dir=train_dir, val_dir=val_dir,
                              out_dir=str(tmp_path / "run"))
    assert cfg.network.base_channels == 8 and cfg.network.d_max == 16
    assert cfg.network.k_top == 4 and cfg.network.groups == 4
    assert cfg.network.dilation_rates == (1, 4, 8, 16)
    assert cfg.loss_weights.a == 0.5
    assert cfg.seed == 0 and cfg.steps == 300 and cfg.batch_size == 4
    result = trainer.train(cfg)
    epe = result["val"]["epe"]

    samples = [ddata.load_sample(val_dir, i)
               for i in ddata.list_samples(val_dir)]
    baseline = trainer.zero_disparity_baseline(samples)
    elapsed = time.time() - start
    ok = epe < 2.0 and epe < 0.5 * baseline and elapsed < 1800
    verdict(5, "desk-scale learning", ok,
            f"val EPE {epe:.3f} < 2.0 and < 0.5 x baseline {baseline:.3f}, "
            f"{elapsed:.0f}s < 1800s")
