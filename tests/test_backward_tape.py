"""A training step's backward consumes its tape: it frees activations and
cotangents as it goes and leaves every leaf gradient as a replay that
keeps the tape would."""

import tracemalloc

import numpy as np

from checks import retaining_backward
from edgedisp import data as ddata
from edgedisp import network, tensor
from edgedisp.tensor import _collect_tape
from edgedisp.trainer import TrainConfig, _batch_arrays, compute_losses

CFG = TrainConfig()   # the default network and loss weights
MB = 1 << 20
# Allowed growth above the live tape during backward, and what may stay
# traced after it. Replaying without freeing peaks about 60 MiB above the
# 56 MiB tape of a batch of eight and leaves about 110 MiB behind.
SLACK = 8 * MB


def default_step(seed=0, batch=4):
    """Parameters and loss parts of a default-config train forward on a
    batch of 64x64 pairs."""
    samples = [ddata.synth_stereogram(seed + i, {"H": 64, "W": 64, "D_max": 16, "n_objects": 3})
               for i in range(batch)]
    left, right, disp, valid, edges = _batch_arrays(samples, range(batch))
    params = network.init_params(CFG.network, seed)
    outputs = network.forward(left, right, params, CFG.network, "train")
    return params, compute_losses(outputs, disp, valid, edges, CFG.loss_weights, CFG.network)


def test_default_step_tape_stays_small():
    """The tape of a batch-4 step keeps no batch-norm intermediates (x̂, the
    output before the ReLU) and no full-resolution head cost or softmax:
    29 MiB, where keeping them took 53 MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params, parts = default_step()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live - before < 36 * MB, (live - before) / MB


def test_backward_peak_stays_within_the_tape():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params, parts = default_step(batch=8)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parts["total"].backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live - before > 6 * SLACK, "the step recorded too small a tape to test"
    assert peak - live < SLACK, (peak - live) / MB
    assert after - before < SLACK, (after - before) / MB


def test_replayed_nodes_keep_no_closure_parents_or_grad():
    params, parts = default_step()
    nodes = [n for n in _collect_tape(parts["total"]) if n._backward is not None]
    parts["total"].backward()
    assert len(nodes) > 100
    for n in nodes:
        assert n._backward is tensor._consumed and n._parents == () and n.grad is None
    assert all(t.grad is not None for t in params.trainable().values())


def test_leaf_gradients_equal_a_retaining_replay():
    kept_params, kept_parts = default_step()
    retaining_backward(kept_parts["total"])
    params, parts = default_step()
    parts["total"].backward()
    for name, t in params.trainable().items():
        np.testing.assert_array_equal(t.grad, kept_params[name].grad, err_msg=name)
    for name in parts:
        assert parts[name].data == kept_parts[name].data
