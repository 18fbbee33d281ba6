"""The per-layer tracer in perfbench/spans.py patches library attributes by
name and binds some of their arguments by name; a rename in the library
would break only traced benchmark runs, so one traced training step, the
untaped recalibration and validation passes, and the checkpoint and
inference path run here."""

import os
import sys

import numpy as np

from edgedisp import data, network, trainer
from edgedisp.losses import LossWeights
from edgedisp.network import NetworkConfig
from edgedisp.tensor import Tensor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import spans  # noqa: E402


def test_traced_train_step_restores_every_patch():
    cfg = NetworkConfig()
    params = network.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    left = Tensor(rng.random((2, 3, 32, 32)))
    right = Tensor(rng.random((2, 3, 32, 32)))
    disp = rng.uniform(0.0, cfg.d_max - 1, size=(2, 32, 32))
    valid = np.ones((2, 32, 32), dtype=bool)
    edges = np.zeros((2, 32, 32))

    tracer = spans.Tracer(run_id="test")
    tracer.install()
    patched = list(tracer._patched)
    try:
        tracer.mark_loop()
        outputs = network.forward(left, right, params, cfg, "train")
        loss = trainer.compute_losses(outputs, disp, valid, edges, LossWeights(), cfg)
        loss["total"].backward()
    finally:
        tracer.uninstall()

    assert patched
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
    names = {s[1] for s in tracer.spans}
    for span in ("ops.conv2d.bwd", "ops.conv3d_transposed.fwd", "network.agm2.bwd",
                 "network.pre_stem.fwd", "stereo.build_cost_volume.bwd",
                 "losses.compute.fwd", "tensor.backward"):
        assert span in names
    assert len(tracer.loop_samples["stereo.build_cost_volume.tape_nodes"]) == 1
    metrics = tracer.metrics(units=1)
    assert metrics["ops.conv.calls"][0] > 0
    assert metrics["tensor.tape_nodes"][0] > 0


def test_traced_frozen_weight_passes_restore_every_patch():
    cfg = NetworkConfig()
    params = network.init_params(cfg, seed=0)
    samples = [data.synth_stereogram(i, {"H": 32, "W": 64, "D_max": 16, "n_objects": 2})
               for i in range(3)]

    tracer = spans.Tracer(run_id="test")
    tracer.install()
    patched = list(tracer._patched)
    try:
        tracer.mark_loop()
        trainer.recalibrate_norm_stats(params, cfg, samples, batch_size=2, seed=0, batches=2)
        report = trainer.evaluate_params(params, cfg, samples)
    finally:
        tracer.uninstall()

    assert np.isfinite(report["epe"])
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
    names = [s[1] for s in tracer.spans]
    assert names.count("trainer.recalibrate_norm_stats") == 1
    assert names.count("trainer.evaluate_params") == 1
    # two batch-statistics forwards, then one batch of three validation pairs
    assert names.count("network.forward") == 3
    metrics = tracer.metrics(units=1)
    assert metrics["trainer.recalibrate_s"][0] > 0
    assert metrics["trainer.evaluate_s"][0] > 0
    assert metrics["tensor.tape_nodes"][0] == 0


def test_traced_checkpoint_and_inference_restore_every_patch(tmp_path):
    cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2, dilation_rates=(1, 2))
    params = network.init_params(cfg, seed=0)
    sample = data.synth_stereogram(0, {"H": 32, "W": 32, "D_max": 8, "n_objects": 2})
    path = str(tmp_path / "tiny.ckpt")

    tracer = spans.Tracer(run_id="test")
    tracer.install()
    patched = list(tracer._patched)
    try:
        tracer.mark_loop()
        trainer.save_checkpoint(params, None, path, cfg)
        loaded, _state, loaded_cfg = trainer.load_checkpoint(path)
        disp = trainer.predict(loaded, loaded_cfg, sample)
    finally:
        tracer.uninstall()

    assert loaded_cfg == cfg and disp.shape == (32, 32)
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"
    names = [s[1] for s in tracer.spans]
    for span in ("trainer.save_checkpoint", "trainer.load_checkpoint", "trainer.predict",
                 "network.forward", "stereo.build_cost_volume.fwd",
                 "stereo.granular_conv.fwd"):
        assert span in names, span
    # save_checkpoint's ``path`` argument was bound to size the file
    assert tracer.checkpoint_mb == [os.path.getsize(path) / spans.MB]
    # the output of the one "infer" forward was sampled, and it has no tape
    assert tracer.loop_samples["tape.output"] == [(0, 0.0)]
    metrics = tracer.metrics(units=1)
    assert metrics["tensor.tape_nodes"][0] == 0
    assert metrics["trainer.checkpoint_mb"][0] > 0
