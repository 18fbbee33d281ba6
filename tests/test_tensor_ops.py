import contextlib
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from checks import (fd_check, naive_conv, out_of_place_batch_norm, pad_zero,
                    padded_corr_forward, padded_corr_weight_grad, rand_tensor,
                    scattering_conv_grads, separate_transposed_grads,
                    stuffed_corr_input_grad)
from edgedisp import network, ops, stereo
from edgedisp.ops import ConvSpec, ShapeError
from edgedisp.tensor import Tensor, _collect_tape, accumulate_grad, make_op, no_grad


class TestConv2d:
    def test_all_ones_overlap_counts(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w, spec=ConvSpec(padding=1)).data[0, 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == y[0, 2] == y[2, 0] == y[2, 2] == 4.0

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 1, 5, 6)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y = ops.conv2d(x, Tensor(w), spec=ConvSpec(padding=1))
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_loop_oracle_with_dilation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        y = ops.conv2d(Tensor(x), Tensor(w), spec=ConvSpec(dilation=2))
        ref = naive_conv(x, w, dilation=2)
        assert np.abs(y.data - ref).max() < 1e-12

    def test_bias_broadcasts_over_channels(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 1, 1)))
        y = ops.conv2d(x, w, bias=Tensor([1.0, 2.0, 3.0]))
        assert np.array_equal(y.data[0, :, 0, 0], [1.0, 2.0, 3.0])

    def test_channel_mismatch_names_axis(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(x, w)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2, 6, 6))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        spec = ConvSpec(padding=1)
        mixed = ops.conv2d(Tensor(2.0 * x + 3.0 * y), w, spec=spec).data
        parts = 2.0 * ops.conv2d(Tensor(x), w, spec=spec).data \
            + 3.0 * ops.conv2d(Tensor(y), w, spec=spec).data
        assert np.abs(mixed - parts).max() < 1e-10


class TestConv3d:
    def test_all_ones_center(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        y = ops.conv3d(x, w, spec=ConvSpec(padding=1))
        assert y.data[0, 0, 1, 1, 1] == 27.0

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 1, 4, 5, 5)))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        y = ops.conv3d(x, Tensor(w), spec=ConvSpec(padding=1))
        np.testing.assert_array_equal(y.data, x.data)

    def test_matches_loop_oracle_with_dilation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        y = ops.conv3d(Tensor(x), Tensor(w), spec=ConvSpec(dilation=2, padding=2))
        ref = naive_conv(x, w, dilation=2, pad=2)
        assert np.abs(y.data - ref).max() < 1e-12


class TestConv3dTransposed:
    def test_single_tap_spread(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 3.0))
        w = Tensor(np.ones((1, 1, 2, 2, 2)))
        y = ops.conv3d_transposed(x, w, spec=ConvSpec(stride=2), output_size=(2, 2, 2))
        assert y.shape == (1, 1, 2, 2, 2)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2, 2), 3.0))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        spec = ConvSpec(stride=2, padding=1)
        u = rng.normal(size=(1, 2, 4, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        v_data = ops.conv3d(Tensor(u), Tensor(w), spec=spec).data
        v = rng.normal(size=v_data.shape)
        lhs = float((v_data * v).sum())
        back = ops.conv3d_transposed(Tensor(v), Tensor(w), spec=spec,
                                     output_size=(4, 5, 5)).data
        rhs = float((u * back).sum())
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("output_size", [(2, 3, 3), (3, 4, 5), (6, 6, 6)])
    def test_output_size_must_convolve_back_to_input(self, output_size):
        # stride 2, pad 1, k 3 over extent 2: only 3 and 4 map back to 2
        x = Tensor(np.ones((1, 1, 2, 2, 2)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="convolves back"):
            ops.conv3d_transposed(x, w, spec=ConvSpec(stride=2, padding=1),
                                  output_size=output_size)

    def test_zero_input_gives_zero(self):
        x = Tensor(np.zeros((1, 2, 2, 2, 2)))
        w = Tensor(np.ones((2, 3, 3, 3, 3)))
        y = ops.conv3d_transposed(x, w, spec=ConvSpec(stride=2, padding=1),
                                  output_size=(3, 3, 3))
        assert np.all(y.data == 0.0)


def _conv_with_grads(name, x, w, b, spec, output_size, rng):
    """A random cotangent g, then the op's output and its input, weight and
    bias gradients for g."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    if name == "conv3d_transposed":
        bt = None
        y = ops.conv3d_transposed(xt, wt, spec=spec, output_size=output_size)
    else:
        bt = Tensor(b, requires_grad=True)
        y = getattr(ops, name)(xt, wt, bt, spec=spec)
    g = rng.normal(size=y.shape)
    (y * Tensor(g)).sum().backward()
    return g, (y.data, xt.grad, wt.grad, None if bt is None else bt.grad)


def _reference_with_grads(name, x, w, b, spec, output_size, g):
    """The same four arrays from the uncropped, zero-stuffed kernels."""
    nd = w.ndim - 2
    s, d, p = spec.resolved(nd)
    if name == "conv3d_transposed":
        return (stuffed_corr_input_grad(x, w, s, d, p, output_size),
                padded_corr_forward(g, w, s, d, p),
                padded_corr_weight_grad(g, x, w.shape[2:], s, d, p), None)
    y = padded_corr_forward(x, w, s, d, p) + b.reshape((1, -1) + (1,) * nd)
    return (y, stuffed_corr_input_grad(g, w, s, d, p, x.shape[2:]),
            padded_corr_weight_grad(x, g, w.shape[2:], s, d, p),
            g.sum(axis=(0,) + tuple(range(2, 2 + nd))))


class TestConvAgainstReference:
    """Tap cropping and the per-tap adjoint against the kernels that pad the
    input, read every tap and zero-stuff the cotangent."""

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size", [
        # 1x4x4 bottleneck at dilation 16: only the centre tap reads data
        ("conv3d", (2, 3, 1, 4, 4), (4, 3, 3, 3, 3), ConvSpec(dilation=16, padding=16), None),
        ("conv2d", (2, 3, 4, 4), (5, 3, 3, 3), ConvSpec(dilation=4, padding=4), None),
        # stride 2 where the forward floor drops trailing columns
        ("conv2d", (2, 3, 7, 8), (5, 3, 3, 3), ConvSpec(stride=2, padding=(1, 0)), None),
        ("conv3d", (2, 2, 5, 6, 7), (3, 2, 3, 3, 3), ConvSpec(stride=2), None),
        # mixed per-axis stride, dilation and padding
        ("conv3d", (2, 3, 3, 6, 5), (4, 3, 2, 3, 3),
         ConvSpec(stride=(1, 2, 3), dilation=(2, 1, 3), padding=(3, 1, 4)), None),
        # transposed conv with output_size above the minimal extent (3, 5, 5)
        ("conv3d_transposed", (2, 3, 2, 3, 3), (3, 4, 3, 3, 3),
         ConvSpec(stride=2, padding=1), (4, 6, 6)),
        ("conv3d_transposed", (2, 3, 1, 2, 2), (3, 4, 3, 3, 3),
         ConvSpec(dilation=4, padding=4), (1, 2, 2)),
        # taps 0 and 2 of the first axis read data, tap 1 between them only padding
        ("conv2d", (2, 3, 1, 5), (4, 3, 3, 3), ConvSpec(stride=(2, 1), padding=(2, 1)), None),
    ])
    def test_matches_reference(self, name, x_shape, w_shape, spec, output_size):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        g, got = _conv_with_grads(name, x, w, b, spec, output_size, rng)
        want = _reference_with_grads(name, x, w, b, spec, output_size, g)
        for what, a, r in zip(("forward", "input grad", "weight grad", "bias grad"), got, want):
            if r is None:
                continue
            assert a.shape == r.shape, what
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), what

    @pytest.mark.parametrize("name, x_shape, w_shape, spec", [
        # stride 2 from -1 reads -1 and 1 of a 1-wide axis: padding only
        ("conv2d", (2, 3, 1, 1), (4, 3, 1, 1), ConvSpec(stride=2, padding=1)),
        ("conv3d", (2, 2, 3, 1, 3), (3, 2, 3, 1, 3), ConvSpec(stride=(1, 2, 1), padding=1)),
    ])
    def test_padding_only_conv_is_its_bias(self, name, x_shape, w_shape, spec):
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        nd = len(x_shape) - 2
        g, (y, gx, gw, gb) = _conv_with_grads(name, x, w, b, spec, None, rng)
        assert np.array_equal(y, np.broadcast_to(b.reshape((1, -1) + (1,) * nd), y.shape))
        assert np.all(gx == 0.0) and np.all(gw == 0.0)
        np.testing.assert_array_equal(gb, g.sum(axis=(0,) + tuple(range(2, 2 + nd))))
        want = _reference_with_grads(name, x, w, b, spec, None, g)
        assert np.abs(y - want[0]).max() <= 1e-12 * np.abs(want[0]).max()
        assert np.all(want[1] == 0.0) and np.all(want[2] == 0.0)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3),
           st.lists(st.integers(1, 3), min_size=3, max_size=3),
           st.lists(st.integers(1, 5), min_size=3, max_size=3),
           st.lists(st.integers(0, 6), min_size=3, max_size=3),
           st.lists(st.integers(1, 7), min_size=3, max_size=3),
           st.lists(st.integers(1, 3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_dot_product(self, seed, nd, stride, dilation, padding, extent, kernel):
        """<conv(x), g> == <x, adjoint(g)>, the adjoint being the input
        gradient (2-D) or conv3d_transposed (3-D)."""
        stride, dilation, padding = stride[:nd], dilation[:nd], padding[:nd]
        extent, kernel = extent[:nd], kernel[:nd]
        assume(all(n + 2 * p - d * (k - 1) - 1 >= 0 for n, k, d, p
                   in zip(extent, kernel, dilation, padding)))
        rng = np.random.default_rng(seed)
        spec = ConvSpec(stride=tuple(stride), dilation=tuple(dilation), padding=tuple(padding))
        x = rng.normal(size=(2, 2) + tuple(extent))
        w = rng.normal(size=(3, 2) + tuple(kernel))
        if nd == 3:
            y = ops.conv3d(Tensor(x), Tensor(w), spec=spec).data
            g = rng.normal(size=y.shape)
            adj = ops.conv3d_transposed(Tensor(g), Tensor(w), spec=spec,
                                        output_size=tuple(extent)).data
        else:
            xt = Tensor(x, requires_grad=True)
            y = ops.conv2d(xt, Tensor(w), spec=spec).data
            g = rng.normal(size=y.shape)
            (ops.conv2d(xt, Tensor(w), spec=spec) * Tensor(g)).sum().backward()
            adj = xt.grad
        assert adj.shape == x.shape
        scale = np.abs(y * g).sum() + np.abs(x * adj).sum()
        assert abs(float((y * g).sum()) - float((x * adj).sum())) <= 1e-12 * max(scale, 1e-300)


# One case per convolution op: (name, x shape, w shape, spec, output_size).
_CONV_CASES = [
    ("conv2d", (2, 3, 5, 6), (4, 3, 3, 3), ConvSpec(stride=2, padding=1), None),
    ("conv3d", (2, 2, 1, 4, 4), (3, 2, 3, 3, 3), ConvSpec(dilation=4, padding=4), None),
    ("conv3d_transposed", (2, 3, 2, 3, 3), (3, 2, 3, 3, 3), ConvSpec(stride=2, padding=1),
     (4, 6, 6)),
]


def _phases_with_taps(x_shape, w_shape, spec):
    """The phases of a conv's input positions that some tap reads: the
    product over the axes of the residues ``r < n`` modulo the stride that
    some ``t*dilation - pad`` hits."""
    count = 1
    for n, k, s, d, p in zip(x_shape[2:], w_shape[2:], *spec.resolved(len(w_shape) - 2)):
        count *= len({(t * d - p) % s for t in range(k)} & set(range(n)))
    return count


def _forward_plan(cin, in_spatial, kernel, stride, dilation, pad):
    """The plan of a conv's forward pass, over the output extents that its
    geometry gives."""
    out = tuple(ops.conv_out_extent(*a) for a in zip(in_spatial, kernel, stride, dilation, pad))
    return ops._plan(cin, in_spatial, kernel, stride, dilation, pad, out)


def _set_budget(monkeypatch, nbytes):
    """Set ``ops._WORK_BUDGET`` for one test. Plans are cached without the
    budget, so each budget gets a plan cache of its own, and the module's
    cache comes back with the module's budget."""
    monkeypatch.setattr(ops, "_WORK_BUDGET", nbytes)
    monkeypatch.setattr(ops, "_plan", functools.lru_cache(maxsize=None)(ops._plan.__wrapped__))


class TestTapPlan:
    """Every pass runs over one cached plan, and the weight gradient of
    every convolution op goes through ``ops._corr_weight_grad``, which the
    benchmark self-test perturbs."""

    @staticmethod
    def _assert_repeat_pass_adds_no_plan():
        def passes():
            for i, (name, xs, ws, spec, size) in enumerate(_CONV_CASES):
                rng = np.random.default_rng(i)
                x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
                _conv_with_grads(name, x, w, b, spec, size, rng)

        passes()
        misses = ops._plan.cache_info().misses, ops._phases.cache_info().misses
        passes()
        assert (ops._plan.cache_info().misses, ops._phases.cache_info().misses) == misses

    def test_repeat_pass_adds_no_plan(self):
        self._assert_repeat_pass_adds_no_plan()

    def test_repeat_blocked_pass_adds_no_plan(self, monkeypatch):
        # a one-byte budget cuts every pass into blocks of one output row
        _set_budget(monkeypatch, 1)
        self._assert_repeat_pass_adds_no_plan()

    def test_one_plan_lookup_per_pass(self):
        """A forward looks its plan up once, a stride-1 backward once more,
        and a strided backward once per phase that some tap reads."""
        def lookups():
            info = ops._plan.cache_info()
            return info.hits + info.misses

        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        start = lookups()
        y = ops.conv2d(x, w, spec=ConvSpec(padding=1))
        assert lookups() - start == 1
        y.sum().backward()
        assert lookups() - start == 2
        spec, w_shape = ConvSpec(stride=2, padding=1), (3, 2, 3, 3, 3)
        x = Tensor(rng.normal(size=(2, 2, 5, 6, 6)), requires_grad=True)
        y = ops.conv3d(x, Tensor(rng.normal(size=w_shape), requires_grad=True), spec=spec)
        start = lookups()
        y.sum().backward()
        assert lookups() - start == _phases_with_taps(x.shape, w_shape, spec) == 8

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size", _CONV_CASES)
    def test_weight_grad_goes_through_corr_weight_grad(self, monkeypatch, name, x_shape,
                                                       w_shape, spec, output_size):
        rng = np.random.default_rng(14)
        x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        _, (_, _, gw, _) = _conv_with_grads(name, x, w, b, spec, output_size,
                                            np.random.default_rng(15))
        calls = []
        plain = ops._corr_weight_grad

        def shifted(*args):
            calls.append(args)
            return plain(*args) + 1.0

        monkeypatch.setattr(ops, "_corr_weight_grad", shifted)
        _, (_, _, gw_shifted, _) = _conv_with_grads(name, x, w, b, spec, output_size,
                                                    np.random.default_rng(15))
        # one call per phase of the input gradient; the transposed conv's
        # backward gathers its cotangent once
        assert len(calls) == (1 if name == "conv3d_transposed"
                              else _phases_with_taps(x_shape, w_shape, spec))
        np.testing.assert_array_equal(gw_shifted, gw + 1.0)


# (name, x shape, w shape, spec, output_size, budget in bytes) with several
# blocks of output rows; the budget admits the rows of each block.
_BLOCKED_CASES = [
    # stride 2: a block boundary cuts each tap's strided input rows
    ("conv2d", (2, 3, 11, 7), (4, 3, 3, 3), ConvSpec(stride=2, padding=1), None, 1),
    ("conv2d", (2, 3, 12, 6), (5, 3, 3, 3), ConvSpec(dilation=(3, 1), padding=(2, 1)), None,
     2 * 3 * 9 * 6 * 8),
    ("conv3d", (2, 2, 9, 5, 6), (3, 2, 3, 3, 3),
     ConvSpec(stride=(2, 1, 2), dilation=(2, 1, 1), padding=(3, 1, 1)), None, 1),
    ("conv3d", (2, 2, 8, 4, 4), (3, 2, 3, 3, 3), ConvSpec(dilation=2, padding=2), None,
     3 * 2 * 27 * 16 * 8),
    ("conv3d_transposed", (2, 3, 5, 3, 3), (3, 2, 3, 3, 3), ConvSpec(stride=2, padding=1),
     (10, 6, 6), 1),
    ("conv3d_transposed", (2, 3, 6, 3, 2), (3, 2, 3, 3, 3),
     ConvSpec(dilation=(2, 1, 1), padding=(2, 1, 1)), (6, 3, 2), 2 * 2 * 27 * 6 * 8),
]


def _geometries(test):
    """Draws conv geometries for the plan's blocks: the rank ``nd``, then
    stride, dilation, padding, extent and kernel per axis (the first
    ``nd`` of each list), then the work budget in bytes."""
    # stride 2 over one input row: first-axis tap 1 of 3 lands nowhere
    test = example(2, [2, 1, 1], [1, 1, 1], [2, 0, 0], [1, 4, 1], [3, 1, 1], 1)(test)
    return given(st.integers(2, 3),
                 st.lists(st.integers(1, 3), min_size=3, max_size=3),
                 st.lists(st.integers(1, 5), min_size=3, max_size=3),
                 st.lists(st.integers(0, 6), min_size=3, max_size=3),
                 st.lists(st.integers(1, 9), min_size=3, max_size=3),
                 st.lists(st.integers(1, 3), min_size=3, max_size=3),
                 st.integers(1, 3000))(test)


def _geometry(nd, stride, dilation, padding, extent, kernel):
    """The per-axis ``(extent, kernel, stride, dilation, padding)`` of a
    drawn geometry, and its output extents; geometries with no output are
    rejected."""
    geom = tuple(tuple(a[:nd]) for a in (extent, kernel, stride, dilation, padding))
    assume(all(n + 2 * p - d * (k - 1) - 1 >= 0 for n, k, _, d, p in zip(*geom)))
    return geom, tuple(ops.conv_out_extent(*a) for a in zip(*geom))


def _budget_plan(budget, geom, out):
    """The uncached plan of a 2-channel pass under ``budget`` bytes: the
    plan cache does not key on the budget."""
    with mock.patch.object(ops, "_WORK_BUDGET", budget):
        return ops._plan.__wrapped__(2, *geom, out)


def _backward_blocks(x_shape, w_shape, spec):
    """The blocks over which a conv's backward gathers its cotangent: those
    of each phase of the input gradient, phase after phase."""
    s, d, p = spec.resolved(len(w_shape) - 2)
    out = _forward_plan(x_shape[1], x_shape[2:], w_shape[2:], s, d, p).out
    return [blk for ph in ops._phases(x_shape[2:], w_shape[2:], s, d, p)
            for blk in ops._plan(w_shape[0], out, *ph.geom, ph.out).blocks]


def _block_count(name, x_shape, w_shape, spec, output_size):
    s, d, p = spec.resolved(len(w_shape) - 2)
    if name == "conv3d_transposed":
        return len(ops._plan(w_shape[1], output_size, w_shape[2:], s, d, p, x_shape[2:]).blocks)
    return len(_forward_plan(x_shape[1], x_shape[2:], w_shape[2:], s, d, p).blocks)


class TestBlockedPasses:
    """Column matrices over runs of output rows: each pass of a conv split
    into several blocks against the uncropped, zero-stuffed kernels."""

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size, budget",
                             _BLOCKED_CASES)
    def test_matches_reference(self, monkeypatch, name, x_shape, w_shape, spec,
                               output_size, budget):
        _set_budget(monkeypatch, budget)
        assert _block_count(name, x_shape, w_shape, spec, output_size) >= 3
        rng = np.random.default_rng(31)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        g, got = _conv_with_grads(name, x, w, b, spec, output_size, rng)
        want = _reference_with_grads(name, x, w, b, spec, output_size, g)
        for what, a, r in zip(("forward", "input grad", "weight grad", "bias grad"), got, want):
            if r is None:
                continue
            assert a.shape == r.shape, what
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), what

    @pytest.mark.parametrize("spec", [ConvSpec(padding=1), ConvSpec(stride=2, padding=1)])
    def test_blocks_leave_forward_and_input_grad_bit_identical(self, monkeypatch, spec):
        """The forward GEMMs compute the same columns; so do the GEMMs of
        each phase of the input gradient, which gathers the cotangent. At
        a network-like size: OpenBLAS takes other kernels for GEMMs only a
        few columns wide, which change the last bits of the forward."""
        rng = np.random.default_rng(32)
        x, w = rng.normal(size=(2, 8, 8, 32, 32)), rng.normal(size=(4, 8, 3, 3, 3))
        s, d, p = spec.resolved(3)

        def passes():
            xt = Tensor(x, requires_grad=True)
            y = ops.conv3d(xt, Tensor(w), spec=spec)
            g = np.random.default_rng(33).normal(size=y.shape)
            (y * Tensor(g)).sum().backward()
            return y.data, xt.grad

        phases = len(ops._phases(x.shape[2:], w.shape[2:], s, d, p))

        def blocks():
            """Forward blocks, and backward blocks per phase."""
            return (len(_forward_plan(8, x.shape[2:], w.shape[2:], s, d, p).blocks),
                    len(_backward_blocks(x.shape, w.shape, spec)) / phases)

        _set_budget(monkeypatch, 1 << 40)
        assert blocks() == (1, 1)
        one = passes()
        # one output row a block: 1024 columns at stride 1, 256 at stride 2
        _set_budget(monkeypatch, 1)
        assert min(blocks()) >= 2
        for a, b in zip(passes(), one):
            np.testing.assert_array_equal(a, b)

    @_geometries
    @settings(max_examples=100, deadline=None)
    def test_block_moves_join_into_the_whole_output(self, nd, stride, dilation, padding,
                                                    extent, kernel, budget):
        """Per kept tap, the blocks' moves, output rows shifted by the
        block's first row, join in block order into the move of one block
        over every row; each block lists its taps in the same order; and
        ``landed`` is exactly the rows of the block that every kept
        first-axis tap lands in."""
        geom, out = _geometry(nd, stride, dilation, padding, extent, kernel)
        plan = _budget_plan(budget, geom, out)
        whole, = _budget_plan(1 << 62, geom, out).blocks
        blocks = plan.blocks
        order = {dst[1:1 + nd]: i for i, (_, dst) in enumerate(whole.moves)}
        joined = {tap: ([], []) for tap in order}

        def rows(sl, n):
            return list(range(n))[sl]

        for blk in blocks:
            r0, n = blk.rows.start, blk.out[0]
            taps = [dst[1:1 + nd] for _, dst in blk.moves]
            assert [order[t] for t in taps] == sorted(order[t] for t in taps)
            landed = {k: set() for k in range(plan.kept[0])}
            for (src, dst), tap in zip(blk.moves, taps):
                w_src, w_dst = whole.moves[order[tap]]
                assert src[2:] == w_src[2:] and dst[2 + nd:] == w_dst[2 + nd:]
                joined[tap][0].extend(rows(src[1], geom[0][0]))
                joined[tap][1].extend(o + r0 for o in rows(dst[1 + nd], n))
                landed[tap[0]].update(rows(dst[1 + nd], n))
            if math.prod(plan.kept):   # otherwise the block has no columns
                assert rows(blk.landed, n) == sorted(set.intersection(*landed.values()))
        for src, dst in whole.moves:
            assert joined[dst[1:1 + nd]] == (rows(src[1], geom[0][0]),
                                             rows(dst[1 + nd], plan.out[0]))

    @_geometries
    @settings(max_examples=100, deadline=None)
    def test_each_gathered_block_equals_a_fresh_gather(self, nd, stride, dilation, padding,
                                                       extent, kernel, budget):
        """Whatever blocks filled the reused buffer before, each block's
        columns equal those of the block gathered alone into a fresh one:
        no stale value survives from another block or sample."""
        geom, out = _geometry(nd, stride, dilation, padding, extent, kernel)
        plan = _budget_plan(budget, geom, out)
        x = np.random.default_rng(35).normal(size=(3, 2) + geom[0])
        order = []
        for b, blk, cols in ops._gather(x, plan):
            order.append((b, blk))
            (_, _, fresh), = ops._gather(x[b:b + 1], plan._replace(blocks=(blk,)))
            np.testing.assert_array_equal(cols.copy(), fresh)
        assert order == [(b, blk) for b in range(3) for blk in plan.blocks]

    def test_default_budget_bounds_working_memory(self):
        """One conv3d of the cost-volume stem at 128x256, d_max 32, peaks
        below its input, output, one block's column matrix and a slack for
        [Cout, N_block] products and the cropped weight."""
        slack = 1 << 20
        x_shape, w_shape = (1, 24, 8, 32, 64), (8, 24, 3, 3, 3)
        plan = _forward_plan(24, x_shape[2:], w_shape[2:], (1,) * 3, (1,) * 3, (1,) * 3)
        blocks = plan.blocks
        block = 8 * 24 * 27 * max(int(np.prod(blk.out)) for blk in blocks)
        tracemalloc.start()
        try:
            rng = np.random.default_rng(34)
            x, w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=w_shape))
            y = ops.conv3d(x, w, spec=ConvSpec(padding=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.shape == (1, 8) + plan.out
        assert len(blocks) > 1
        bound = x.data.nbytes + w.data.nbytes + y.data.nbytes + block + slack
        assert peak < bound, (peak, bound)


# (name, x shape, w shape, spec, budget in bytes or None): convs whose
# backward gathers the cotangent once per phase for both gradients.
_GATHERED_CASES = [
    ("conv2d", (2, 3, 6, 7), (5, 3, 1, 1), ConvSpec(), None),
    ("conv3d", (2, 4, 3, 5, 6), (2, 4, 1, 1, 1), ConvSpec(), None),
    ("conv2d", (2, 3, 4, 4), (5, 3, 3, 3), ConvSpec(dilation=16, padding=16), None),
    ("conv3d", (2, 3, 1, 4, 4), (4, 3, 3, 3, 3), ConvSpec(dilation=16, padding=16), None),
    # Cin > Cout, then Cout > Cin
    ("conv2d", (2, 6, 7, 5), (2, 6, 3, 3), ConvSpec(dilation=(1, 2), padding=(0, 1)), None),
    ("conv3d", (2, 6, 3, 5, 4), (2, 6, 3, 3, 3), ConvSpec(padding=1), None),
    ("conv2d", (2, 2, 5, 6), (6, 2, 3, 3), ConvSpec(dilation=2, padding=2), None),
    ("conv3d", (2, 2, 4, 3, 5), (5, 2, 3, 3, 3), ConvSpec(padding=(1, 0, 1)), None),
    # at least three blocks of rows
    ("conv2d", (2, 3, 12, 6), (4, 3, 3, 3), ConvSpec(padding=1), 2 * 4 * 9 * 6 * 8),
    ("conv3d", (2, 2, 8, 4, 4), (3, 2, 3, 3, 3), ConvSpec(dilation=2, padding=2), 1),
    # stride 2: the geometries of shared.l1.a, shared.l1.proj and an AGM's enc1
    ("conv2d", (2, 4, 12, 10), (4, 4, 3, 3), ConvSpec(stride=2, padding=1), None),
    ("conv2d", (2, 4, 12, 10), (4, 4, 1, 1), ConvSpec(stride=2), None),
    ("conv3d", (2, 4, 4, 6, 8), (8, 4, 3, 3, 3), ConvSpec(stride=2, padding=1), None),
    ("conv3d", (2, 3, 9, 5, 6), (4, 3, 3, 3, 3), ConvSpec(stride=2, padding=1), 1),
    # stride 3, with a kernel shorter than the stride on the last axis
    ("conv2d", (2, 3, 10, 11), (4, 3, 3, 2), ConvSpec(stride=3, padding=(1, 0)), None),
    ("conv3d", (2, 2, 7, 6, 8), (3, 2, 3, 3, 3), ConvSpec(stride=3, padding=1), None),
    # stride 2, dilation 2: every tap reads even positions, odd ones get zero
    ("conv2d", (2, 3, 9, 8), (4, 3, 3, 3), ConvSpec(stride=2, dilation=2, padding=2), None),
    # pad > dilation*(k-1): a negative left offset
    ("conv2d", (2, 3, 5, 6), (4, 3, 3, 3), ConvSpec(padding=3), None),
    ("conv3d", (2, 2, 3, 4, 5), (3, 2, 3, 3, 3), ConvSpec(stride=2, padding=(3, 1, 4)), None),
    # an extent smaller than the stride: phases with no input positions
    ("conv2d", (2, 3, 1, 5), (4, 3, 3, 3), ConvSpec(stride=(3, 2), padding=1), None),
    ("conv3d", (2, 2, 1, 2, 5), (3, 2, 3, 3, 3), ConvSpec(stride=(2, 3, 2), padding=1), None),
]

# (x shape, w shape, spec, output_size, budget in bytes or None)
_TRANSPOSED_CASES = [
    ((2, 3, 2, 3, 3), (3, 4, 3, 3, 3), ConvSpec(stride=2, padding=1), (4, 6, 6), None),
    ((2, 3, 1, 2, 2), (3, 4, 3, 3, 3), ConvSpec(dilation=4, padding=4), (1, 2, 2), None),
    ((2, 3, 5, 3, 3), (3, 2, 3, 3, 3), ConvSpec(stride=2, padding=1), (10, 6, 6), 1),
]


class TestGatheredBackward:
    """A conv's backward takes both gradients from one gather of the
    cotangent per phase, and ``conv3d_transposed``'s backward from one
    gather of its cotangent; the earlier backward (scattered input
    gradient, gathered input for the weight gradient; one gather per
    gradient for the transposed conv) is the reference."""

    @staticmethod
    def _assert_close(got, want):
        for what, a, r in zip(("input grad", "weight grad", "bias grad"), got, want):
            assert a.shape == r.shape, what
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max(), what

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, budget", _GATHERED_CASES)
    def test_matches_scattering_backward(self, monkeypatch, name, x_shape, w_shape, spec,
                                         budget):
        if budget is not None:
            _set_budget(monkeypatch, budget)
            assert len(_backward_blocks(x_shape, w_shape, spec)) >= 3
        nd = len(w_shape) - 2
        s, d, p = spec.resolved(nd)
        rng = np.random.default_rng(41)
        x, w, b = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
        g, (_, gx, gw, gb) = _conv_with_grads(name, x, w, b, spec, None, rng)
        want_x, want_w = scattering_conv_grads(x, w, g, s, d, p)
        self._assert_close((gx, gw, gb),
                           (want_x, want_w, g.sum(axis=(0,) + tuple(range(2, 2 + nd)))))

    def test_phase_no_tap_reads_gets_exact_zeros(self):
        """At stride 2 and dilation 2 with even padding no tap reads an
        odd input position: their gradient is exactly zero."""
        rng = np.random.default_rng(46)
        x, w, b = rng.normal(size=(2, 3, 9, 8)), rng.normal(size=(4, 3, 3, 3)), np.zeros(4)
        spec = ConvSpec(stride=2, dilation=2, padding=2)
        _, (_, gx, _, _) = _conv_with_grads("conv2d", x, w, b, spec, None, rng)
        odd = np.ones(gx.shape, dtype=bool)
        odd[:, :, ::2, ::2] = False
        assert np.all(gx[odd] == 0.0) and np.all(gx[:, :, ::2, ::2] != 0.0)

    @pytest.mark.parametrize("x_shape, w_shape, spec, output_size, budget", _TRANSPOSED_CASES)
    def test_transposed_matches_separate_gathers(self, monkeypatch, x_shape, w_shape, spec,
                                                 output_size, budget):
        if budget is not None:
            _set_budget(monkeypatch, budget)
            assert _block_count("conv3d_transposed", x_shape, w_shape, spec, output_size) >= 3
        rng = np.random.default_rng(42)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        g, (_, gx, gw, _) = _conv_with_grads("conv3d_transposed", x, w, None, spec,
                                             output_size, rng)
        self._assert_close((gx, gw), separate_transposed_grads(x, w, g, *spec.resolved(3)))

    @pytest.mark.parametrize("name, x_shape, w_shape, spec", [
        ("conv2d", (4, 3, 9, 8), (5, 3, 3, 3), ConvSpec(padding=1)),
        ("conv3d", (4, 4, 3, 6, 5), (2, 4, 3, 3, 3), ConvSpec(dilation=2, padding=2)),
        ("conv2d", (4, 3, 9, 8), (5, 3, 3, 3), ConvSpec(stride=2, padding=1)),
    ])
    def test_input_grad_is_batch_invariant(self, name, x_shape, w_shape, spec):
        """Each sample's input gradient is the same bits alone, in the
        batch and in the batch reordered."""
        rng = np.random.default_rng(43)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        conv = getattr(ops, name)
        g = rng.normal(size=conv(Tensor(x), Tensor(w), spec=spec).shape)

        def input_grad(order):
            xt = Tensor(x[order], requires_grad=True)
            y = conv(xt, Tensor(w, requires_grad=True), spec=spec)
            (y * Tensor(g[order])).sum().backward()
            return xt.grad

        order = [2, 0, 3, 1]
        batch, shuffled = input_grad([0, 1, 2, 3]), input_grad(order)
        for i in range(4):
            alone = input_grad([i])[0]
            np.testing.assert_array_equal(batch[i], alone)
            np.testing.assert_array_equal(shuffled[order.index(i)], alone)

    @pytest.mark.parametrize("shape", [(4, 8, 64, 64), (2, 3, 5, 7), (3, 5, 1, 1), (1, 1, 3, 3),
                                       (4, 8, 4, 16, 16), (1, 24, 8, 32, 64), (2, 3, 1, 4, 5)])
    def test_channel_sum_equals_multi_axis_sum(self, shape):
        a = np.random.default_rng(44).normal(size=shape)
        np.testing.assert_array_equal(ops._channel_sum(a),
                                      a.sum(axis=(0,) + tuple(range(2, a.ndim))))

    def test_default_budget_bounds_backward_memory(self):
        """The backward of the cost-volume stem's first conv3d at 128x256,
        d_max 32, peaks below its input, cotangent, both gradients, one
        block of the cotangent's column matrix and a slack for the
        flipped weight and [Cin, N_block] products."""
        slack = 1 << 20
        x_shape, w_shape = (1, 24, 8, 32, 64), (8, 24, 3, 3, 3)
        spec = ConvSpec(padding=1)
        blocks = _backward_blocks(x_shape, w_shape, spec)
        block = 8 * 8 * 27 * max(int(np.prod(blk.out)) for blk in blocks)
        assert len(blocks) > 1
        rng = np.random.default_rng(45)
        tracemalloc.start()
        try:
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            w = Tensor(rng.normal(size=w_shape), requires_grad=True)
            y = ops.conv3d(x, w, spec=spec)
            g = rng.normal(size=y.shape)
            backward = y._backward
            del y
            tracemalloc.reset_peak()
            backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2 * x.data.nbytes + g.nbytes + w.data.nbytes + block + slack
        assert peak < bound, (peak, bound)

    def test_default_budget_bounds_strided_backward_memory(self):
        """The backward of an AGM's stride-2 enc1 at 128x256, d_max 32,
        peaks below its input, cotangent, both gradients, one block of a
        phase's column matrix and a slack for one phase's input gradient,
        the flipped taps and [Cin, N_block] products."""
        slack = 1 << 20
        x_shape, w_shape = (1, 8, 8, 32, 64), (16, 8, 3, 3, 3)
        spec = ConvSpec(stride=2, padding=1)
        blocks = _backward_blocks(x_shape, w_shape, spec)
        # a phase of a stride-2 3x3x3 kernel keeps at most 2 taps per axis
        block = 8 * 16 * 8 * max(int(np.prod(blk.out)) for blk in blocks)
        rng = np.random.default_rng(47)
        tracemalloc.start()
        try:
            x = Tensor(rng.normal(size=x_shape), requires_grad=True)
            w = Tensor(rng.normal(size=w_shape), requires_grad=True)
            y = ops.conv3d(x, w, spec=spec)
            g = rng.normal(size=y.shape)
            backward = y._backward
            del y
            tracemalloc.reset_peak()
            backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2 * x.data.nbytes + g.nbytes + w.data.nbytes + block + slack
        assert peak < bound, (peak, bound)

    def test_default_budget_bounds_transposed_forward_memory(self):
        """The forward of an AGM's dec2 at 128x256, d_max 32, peaks below
        its input, weight, output, one block of a phase's column matrix
        and a slack for one phase's output and the flipped taps."""
        slack = 1 << 20
        x_shape, w_shape, size = (1, 16, 4, 16, 32), (16, 8, 3, 3, 3), (8, 32, 64)
        spec = ConvSpec(stride=2, padding=1)
        blocks = _backward_blocks((1, 8) + size, w_shape, spec)
        # a phase of a stride-2 3x3x3 kernel keeps at most 2 taps per axis
        block = 8 * 16 * 8 * max(int(np.prod(blk.out)) for blk in blocks)
        rng = np.random.default_rng(48)
        tracemalloc.start()
        try:
            x, w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=w_shape))
            tracemalloc.reset_peak()
            y = ops.conv3d_transposed(x, w, spec=spec, output_size=size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.shape == (1, 8) + size
        bound = x.data.nbytes + w.data.nbytes + y.data.nbytes + block + slack
        assert peak < bound, (peak, bound)


@contextlib.contextmanager
def _layout(stacked: bool):
    """Every forward pass whose first axis has stride 1 and keeps more than
    one tap takes the stacked layout, or none does, over a plan cache of
    its own. Yields the list of the stacked plans built."""
    built, build = [], ops._plan.__wrapped__

    def rule(cin, cout, kept, stride, out, first):
        return stacked and stride[0] == 1 and kept[0] > 1

    def plan(*args):
        p = build(*args)
        if p.stack is not None:
            built.append(p)
        return p

    with mock.patch.object(ops, "_stacks", rule), \
            mock.patch.object(ops, "_plan", functools.lru_cache(maxsize=None)(plan)):
        yield built


def _stacked_plan(x_shape, w_shape, spec):
    """The plan of a conv's forward pass, with its output channels."""
    s, d, p = spec.resolved(len(w_shape) - 2)
    out = tuple(ops.conv_out_extent(*a) for a in zip(x_shape[2:], w_shape[2:], s, d, p))
    return ops._plan(x_shape[1], x_shape[2:], w_shape[2:], s, d, p, out, w_shape[0])


class TestStackedLayout:
    """Forward passes with the first axis's kept taps stacked on the GEMM
    rows: one gather per input row, then one add of products per tap."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 2),
           st.lists(st.integers(1, 3), min_size=2, max_size=2),
           st.lists(st.integers(1, 4), min_size=3, max_size=3),
           st.lists(st.integers(0, 5), min_size=3, max_size=3),
           st.lists(st.integers(1, 8), min_size=3, max_size=3),
           st.lists(st.integers(1, 3), min_size=3, max_size=3),
           st.integers(1, 5), st.integers(1, 5))
    # dilation 3 over 2 rows, padding 5: each tap feeds one run of the 6
    # output rows, and no tap feeds rows 1 and 4
    @example(0, 3, 1, [1, 1], [3, 1, 1], [5, 1, 1], [2, 3, 3], [3, 3, 3], 2, 2)
    @settings(max_examples=100, deadline=None)
    def test_matches_im2col(self, seed, nd, first_stride, stride, dilation, padding,
                            extent, kernel, cin, cout):
        """The forward, and for 3-D the forward of ``conv3d_transposed``,
        whose phases are stride-1 correlations, match im2col within 1e-12
        of their largest magnitude."""
        stride = (first_stride,) + tuple(stride[:nd - 1])
        dilation, padding = tuple(dilation[:nd]), tuple(padding[:nd])
        extent, kernel = tuple(extent[:nd]), tuple(kernel[:nd])
        assume(all(n + 2 * p - d * (k - 1) - 1 >= 0 for n, k, d, p
                   in zip(extent, kernel, dilation, padding)))
        rng = np.random.default_rng(seed)
        spec = ConvSpec(stride=stride, dilation=dilation, padding=padding)
        x = Tensor(rng.normal(size=(2, cin) + extent))
        w = Tensor(rng.normal(size=(cout, cin) + kernel))
        conv = ops.conv2d if nd == 2 else ops.conv3d
        y_shape = conv(x, w, spec=spec).shape
        g = Tensor(rng.normal(size=y_shape))

        def passes():
            y = conv(x, w, spec=spec).data
            if nd == 2:
                return (y,)
            return y, ops.conv3d_transposed(g, w, spec=spec, output_size=extent).data

        with _layout(False) as none:
            want = passes()
        with _layout(True) as stacked:
            got = passes()
        assert none == []
        taps = ops._lands(extent[0], kernel[0], 1, dilation[0], padding[0], 0, y_shape[2])
        assert bool(stacked) >= (first_stride == 1 and len(taps) > 1)
        for a, r in zip(got, want):
            assert a.shape == r.shape
            assert np.abs(a - r).max() <= 1e-12 * max(np.abs(r).max(), 1e-300)

    @pytest.mark.parametrize("x_shape, w_shape, spec, stacked", [
        # the extractor's first conv: 3 input channels
        ((2, 3, 128, 256), (8, 3, 3, 3), ConvSpec(padding=1), False),
        # an AGM's enc1: stride 2
        ((1, 8, 8, 32, 64), (16, 8, 3, 3, 3), ConvSpec(stride=2, padding=1), False),
        # the 3x3x3 convs over the volume
        ((1, 8, 8, 32, 64), (8, 8, 3, 3, 3), ConvSpec(padding=1), True),
    ])
    def test_rule(self, x_shape, w_shape, spec, stacked):
        assert (_stacked_plan(x_shape, w_shape, spec).stack is not None) == stacked

    # passes the rule stacks at a network-like size: (name, x shape, w shape, spec,
    # output_size)
    _RULE_STACKED = [
        ("conv3d", (3, 8, 8, 32, 32), (8, 8, 3, 3, 3), ConvSpec(padding=1), None),
        ("conv2d", (3, 48, 32, 32), (16, 48, 3, 3), ConvSpec(dilation=2, padding=2), None),
        # dec2: its phase of 2x2x2 taps stacks
        ("conv3d_transposed", (3, 16, 4, 16, 32), (16, 8, 3, 3, 3),
         ConvSpec(stride=2, padding=1), (8, 32, 64)),
    ]

    @staticmethod
    def _forward(name, x, w, spec, output_size):
        if name == "conv3d_transposed":
            return ops.conv3d_transposed(Tensor(x), Tensor(w), spec=spec,
                                         output_size=output_size).data
        return getattr(ops, name)(Tensor(x), Tensor(w), spec=spec).data

    @staticmethod
    def _stacked_passes(name, x_shape, w_shape, spec, output_size):
        """The stacked plans of the pass: the forward's, or those of the
        transposed conv's phases."""
        if name != "conv3d_transposed":
            return [_stacked_plan(x_shape, w_shape, spec).stack]
        s, d, p = spec.resolved(3)
        return [ops._plan(x_shape[1], x_shape[2:], *ph.geom, ph.out, w_shape[1]).stack
                for ph in ops._phases(output_size, w_shape[2:], s, d, p)]

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size", _RULE_STACKED)
    def test_batch_invariant(self, name, x_shape, w_shape, spec, output_size):
        """Each sample's output is the same bits alone, in the batch and in
        the batch reordered."""
        assert any(self._stacked_passes(name, x_shape, w_shape, spec, output_size))
        rng = np.random.default_rng(49)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        order = [2, 0, 1]
        batch = self._forward(name, x, w, spec, output_size)
        shuffled = self._forward(name, x[order], w, spec, output_size)
        for i in range(3):
            alone = self._forward(name, x[i:i + 1], w, spec, output_size)[0]
            np.testing.assert_array_equal(batch[i], alone)
            np.testing.assert_array_equal(shuffled[order.index(i)], alone)

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size", _RULE_STACKED)
    def test_blocks_leave_the_output_bit_identical(self, monkeypatch, name, x_shape,
                                                   w_shape, spec, output_size):
        """One block of input rows, or one input row a block: a row's
        products and the order of its taps' adds are the same."""
        rng = np.random.default_rng(50)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)

        def blocks():
            return [len(st.gather.blocks) for st in
                    self._stacked_passes(name, x_shape, w_shape, spec, output_size) if st]

        _set_budget(monkeypatch, 1 << 40)
        assert set(blocks()) == {1}
        one = self._forward(name, x, w, spec, output_size)
        _set_budget(monkeypatch, 1)
        assert min(blocks()) >= 4
        np.testing.assert_array_equal(self._forward(name, x, w, spec, output_size), one)

    @pytest.mark.parametrize("budget", [1, 3 << 20, 4 << 20, 16 << 20])
    def test_block_holds_columns_and_products_in_half_the_budget(self, monkeypatch, budget):
        """So a stacked block is no larger than the im2col block of the
        same pass."""
        _set_budget(monkeypatch, budget)
        cin, cout, x_shape = 8, 8, (1, 8, 8, 32, 32)
        plan = _stacked_plan(x_shape, (cout, cin, 3, 3, 3), ConvSpec(padding=1))
        gather = plan.stack.gather
        assert gather.kept == (1, 3, 3)
        for blk in gather.blocks:
            n = math.prod(blk.out)
            assert blk.out[0] == 1 or 8 * (cin * 9 + 3 * cout) * n <= budget // 2
        assert [r for blk in gather.blocks for r in range(blk.rows.start, blk.rows.stop)] \
            == list(range(8))


class TestWorkBudget:
    """``ops._WORK_BUDGET`` and ``ops._row_runs``: the one budget that cuts
    conv passes into blocks and regression heads into tiles."""

    @pytest.mark.parametrize("budget", [1, 7, 64, 1000])
    def test_runs_cover_the_rows_in_order_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(ops, "_WORK_BUDGET", budget)
        for n in range(20):
            for row_bytes in (0, 1, 3, 8, 50, 200, 5000):
                runs = ops._row_runs(n, row_bytes)
                assert [r for a, b in runs for r in range(a, b)] == list(range(n))
                for a, b in runs:
                    assert b - a >= 1
                    assert b - a == 1 or (b - a) * row_bytes <= budget

    def test_one_budget_splits_convs_and_heads(self, monkeypatch):
        rng = np.random.default_rng(35)
        x, w = Tensor(rng.normal(size=(2, 8, 8, 32, 32))), Tensor(rng.normal(size=(4, 8, 3, 3, 3)))
        cost = Tensor(rng.normal(scale=3.0, size=(1, 1, 8, 32, 64)))
        d_max, out_hw = 32, (128, 256)
        spec = ConvSpec(padding=1)
        s, d, p = spec.resolved(3)

        def results():
            return ops.conv3d(x, w, spec=spec).data, stereo.regress_disparity(cost, d_max, out_hw).data

        _set_budget(monkeypatch, 1 << 40)
        conv_one, head_one = results()
        # the conv runs the stacked layout: blocks of two input rows of
        # columns and products, within half the budget; 54 rows of the
        # head's cost
        _set_budget(monkeypatch, 2 * 8 * 8 * 27 * 32 * 32)
        gather = ops._plan(8, x.shape[2:], w.shape[2:], s, d, p, x.shape[2:], 4).stack.gather
        assert len(gather.blocks) == 4
        for blk in gather.blocks:
            assert 8 * (8 * 9 + 3 * 4) * math.prod(blk.out) <= ops._WORK_BUDGET // 2
        assert len(ops._row_runs(out_hw[0], 8 * d_max * out_hw[1])) == 3
        conv_split, head_split = results()
        np.testing.assert_array_equal(conv_split, conv_one)
        assert np.abs(head_split - head_one).max() <= 1e-12 * np.abs(head_one).max()


class TestSoftmax:
    def test_constant_input_uniform(self):
        y = ops.softmax(Tensor(np.full((2, 4), 7.0)), axis=1)
        np.testing.assert_allclose(y.data, 0.25, atol=1e-15)

    def test_closed_form_two_entries(self):
        y = ops.softmax(Tensor([0.0, np.log(3.0)]), axis=0)
        np.testing.assert_allclose(y.data, [0.25, 0.75], atol=1e-14)

    def test_matches_exp_sum_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5, 4))
        y = ops.softmax(Tensor(x), axis=1).data
        z = np.exp(x - x.max(axis=1, keepdims=True))
        ref = z / z.sum(axis=1, keepdims=True)
        assert np.abs(y - ref).max() < 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance_and_normalization(self, seed, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6))
        a = ops.softmax(Tensor(x), axis=1).data
        b = ops.softmax(Tensor(x + shift), axis=1).data
        assert np.abs(a - b).max() < 1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(a > 0) and np.all(a < 1)


class TestPoolingAndUpsampling:
    def test_avg_pool_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        y = ops.pool_avg2d(x, 2)
        assert y.data.reshape(()) == 2.5

    def test_avg_pool_matches_loop_and_ignores_trailing_rows(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(2, 3, 5, 7))
        y = ops.pool_avg2d(Tensor(x), (2, 3)).data
        ref = np.zeros((2, 3, 2, 2))
        for i in range(2):
            for j in range(2):
                ref[:, :, i, j] = x[:, :, 2 * i:2 * i + 2, 3 * j:3 * j + 3].mean(axis=(2, 3))
        assert np.abs(y - ref).max() < 1e-15

    def test_avg_pool_gradient_is_adjoint(self):
        rng = np.random.default_rng(31)
        x = rand_tensor(rng, (2, 3, 5, 7))
        c = rng.normal(size=(2, 3, 2, 2))
        y = ops.pool_avg2d(x, (2, 3))
        (y * Tensor(c)).sum().backward()
        probe = rng.normal(size=x.shape)
        lhs = float((ops.pool_avg2d(Tensor(probe), (2, 3)).data * c).sum())
        assert abs(lhs - float((probe * x.grad).sum())) < 1e-12
        np.testing.assert_array_equal(x.grad[:, :, 4], 0.0)   # trailing row
        np.testing.assert_array_equal(x.grad[:, :, :, 6], 0.0)  # trailing column
        fd_check(lambda t: (ops.pool_avg2d(t, (2, 3)) * Tensor(c)).sum(), [x], rng)

    def test_constant_volume_upsamples_to_constant(self):
        x = Tensor(np.full((1, 2, 2, 3, 3), 4.25))
        y = ops.upsample_trilinear(x, (4, 6, 6))
        np.testing.assert_array_equal(y.data, np.full((1, 2, 4, 6, 6), 4.25))

    def test_trilinear_matches_separable_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1, 3, 4, 4))
        y = ops.upsample_trilinear(Tensor(x), (6, 8, 8)).data

        def interp_axis(arr, n_out, axis):
            n_in = arr.shape[axis]
            out = np.zeros(arr.shape[:axis] + (n_out,) + arr.shape[axis + 1:])
            for o in range(n_out):
                src = (o + 0.5) * n_in / n_out - 0.5
                i0 = int(np.floor(src))
                t = src - i0
                lo = min(max(i0, 0), n_in - 1)
                hi = min(max(i0 + 1, 0), n_in - 1)
                sl = [slice(None)] * arr.ndim
                sl[axis] = o
                a = [slice(None)] * arr.ndim
                a[axis] = lo
                b = [slice(None)] * arr.ndim
                b[axis] = hi
                out[tuple(sl)] = (1 - t) * arr[tuple(a)] + t * arr[tuple(b)]
            return out

        ref = interp_axis(interp_axis(interp_axis(x, 6, 2), 8, 3), 8, 4)
        assert np.abs(y - ref).max() < 1e-12

    SIZES = [(16, 64), (64, 16), (1, 16), (5, 5), (3, 7), (7, 3), (6, 13), (32, 16)]

    @pytest.mark.parametrize("n_in, n_out", SIZES)
    @pytest.mark.parametrize("axis", [2, 3])
    def test_lerp_adjoint_is_the_matrix_transpose(self, n_in, n_out, axis):
        """``_apply`` with the tables of ``_resize`` is the product with the
        interpolation matrix, and with its transpose."""
        m = ops._interp_matrix(n_in, n_out)
        rng = np.random.default_rng(9)
        for table, mat in zip(ops._resize(n_in, n_out), (m, m.T)):
            shape = [2, 3, 4, 5]
            shape[axis] = mat.shape[1]
            x = rng.normal(size=shape)
            want = np.moveaxis(np.tensordot(x, mat, axes=([axis], [1])), -1, axis)
            got = ops._apply(x, table, axis)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n_in, n_out", SIZES)
    def test_tile_tables_are_blocks_of_the_matrix(self, n_in, n_out):
        """Each run of output rows reads the first to the last column its
        rows weigh; its tables are those of its block and resample its
        rows as the whole table does, bit for bit. The runs together read
        every column the matrix reads."""
        m = ops._interp_matrix(n_in, n_out)
        whole = ops._resize(n_in, n_out)[0]
        x = np.random.default_rng(10).normal(size=(2, 3, n_in, 4))
        k = max(1, n_out // 3)
        read = set()
        for r0 in range(0, n_out, k):
            r1 = min(r0 + k, n_out)
            reads, fwd, adj = ops._resize_rows(n_in, n_out, r0, r1)
            rows = m[r0:r1]
            assert rows[:, reads.start].any() and rows[:, reads.stop - 1].any()
            assert not rows[:, :reads.start].any() and not rows[:, reads.stop:].any()
            block = rows[:, reads]
            for got, want in zip((fwd, adj), (ops._sparse(block), ops._sparse(block.T))):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(ops._apply(x[:, :, reads], fwd, 2),
                                          ops._apply(x, whole, 2)[:, :, r0:r1])
            read.update(range(reads.start, reads.stop))
        assert set(np.flatnonzero(m.any(axis=0))) <= read

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.sampled_from(["empty", "one", "full", "random"]), min_size=1, max_size=7),
           st.integers(1, 6), st.integers(0, 3))
    @example(0, ["full", "empty", "one"], 5, 1)     # rows of 5: the einsum path
    @example(0, ["one", "empty", "full"], 2, 3)     # rows of 2: the term-by-term path
    @settings(max_examples=40, deadline=None)
    def test_sparse_densifies_back_and_applies_as_tensordot(self, seed, kinds, n_cols, axis):
        rng = np.random.default_rng(seed)
        m = np.zeros((len(kinds), n_cols))
        for r, kind in enumerate(kinds):
            if kind == "one":
                m[r, rng.integers(n_cols)] = rng.uniform(0.5, 2.0)
            elif kind == "full":
                m[r] = rng.uniform(0.5, 2.0, size=n_cols)
            elif kind == "random":
                m[r] = rng.normal(size=n_cols) * (rng.uniform(size=n_cols) < 0.5)
        table = ops._sparse(m)
        width = max(1, int((m != 0).sum(axis=1).max()))
        assert table.cols.shape == table.weights.shape == (len(kinds), width)
        dense = np.zeros(m.shape)
        np.add.at(dense, (np.arange(len(kinds))[:, None], table.cols), table.weights)
        np.testing.assert_array_equal(dense, m)
        shape = [2, 3, 4, 2]
        shape[axis] = n_cols
        x = rng.normal(size=shape)
        want = np.moveaxis(np.tensordot(x, m, axes=([axis], [1])), -1, axis)
        np.testing.assert_allclose(ops._apply(x, table, axis), want, rtol=1e-13, atol=1e-13)

    def test_bilinear_downsample_shape(self):
        x = Tensor(np.arange(32.0).reshape(1, 2, 4, 4))
        y = ops.upsample_bilinear(x, (2, 2))
        assert y.shape == (1, 2, 2, 2)

    def test_bad_target_rejected(self):
        with pytest.raises(ShapeError):
            ops.upsample_bilinear(Tensor(np.zeros((1, 1, 4, 4))), (0, 4))

    def test_interp_matrix_cached_and_read_only(self):
        m = ops._interp_matrix(3, 7)
        assert ops._interp_matrix(3, 7) is m
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0

    def test_resize_tables_cached_and_read_only(self):
        tables = ops._resize(3, 7)
        assert ops._resize(3, 7) is tables
        tile = ops._resize_rows(3, 7, 2, 5)
        assert ops._resize_rows(3, 7, 2, 5) is tile
        for a in tables + tile[1:]:
            for part in a:
                with pytest.raises(ValueError, match="read-only"):
                    part[0, 0] = 0

    @pytest.mark.parametrize("shape,out", [((2, 3, 4, 5), (8, 10)), ((2, 3, 4, 5), (3, 7)),
                                           ((1, 2, 3, 4, 5), (6, 8, 10))])
    def test_cached_matrices_match_uncached(self, monkeypatch, shape, out):
        rng = np.random.default_rng(32)
        x = rng.normal(size=shape)
        c = rng.normal(size=shape[:2] + out)
        up = ops.upsample_bilinear if len(out) == 2 else ops.upsample_trilinear

        def run():
            xt = Tensor(x, requires_grad=True)
            y = up(xt, out)
            (y * Tensor(c)).sum().backward()
            return y.data, xt.grad

        run()   # fill the cache
        cached = run()
        monkeypatch.setattr(ops, "_interp_matrix", ops._interp_matrix.__wrapped__)
        monkeypatch.setattr(ops, "_resize", ops._resize.__wrapped__)
        for got, want in zip(cached, run()):
            np.testing.assert_array_equal(got, want)


class TestElementwise:
    def test_relu(self):
        y = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert Tensor([0.0]).sigmoid().data[0] == 0.5

    def test_concat_shape_arithmetic(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 3, 4, 4)))
        assert ops.concat([a, b], axis=1).shape == (1, 5, 4, 4)

    def test_concat_extent_mismatch(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 3, 5, 4)))
        with pytest.raises(ShapeError, match="axis 2"):
            ops.concat([a, b], axis=1)

    def test_pad_zero_roundtrip(self):
        x = Tensor(np.ones((2, 3)))
        y = pad_zero(x, [(1, 0), (0, 2)])
        assert y.shape == (3, 5)
        assert y.data.sum() == 6.0

    def test_abs(self):
        x = Tensor([-2.0, 3.0])
        np.testing.assert_array_equal(x.abs().data, [2.0, 3.0])


class TestBatchNorm:
    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 3, 5, 5))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        y = ops.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.abs(y.data - x).max() < 1e-4

    def test_zero_gamma_gives_constant_beta(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)))
        y = ops.batch_norm(x, Tensor(np.zeros(2)), Tensor(np.full(2, 5.0)))
        np.testing.assert_array_equal(y.data, np.full((2, 2, 3, 3), 5.0))

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3, 6, 6))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        y = ops.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        ref = gamma.reshape(1, 3, 1, 1) * (x - mean) / np.sqrt(var + 1e-5) \
            + beta.reshape(1, 3, 1, 1)
        assert np.abs(y - ref).max() < 1e-10

    def test_train_statistics_normalized(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, size=(8, 2, 8, 8))
        y = ops.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2))).data
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3

    def test_degenerate_batch_rejected(self):
        x = Tensor(np.zeros((1, 3, 1, 1)))
        with pytest.raises(ShapeError):
            ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_running_stats_update_and_eval(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 2, 4, 4))
        rm = np.zeros(2)
        rv = np.ones(2)
        p = network.ModelParams()
        p.add("disp.n.w", Tensor(np.eye(2).reshape(2, 2, 1, 1)))
        for suffix, value in (("gamma", np.ones(2)), ("beta", np.zeros(2)),
                              ("rmean", rm), ("rvar", rv)):
            p.add("disp.n." + suffix, Tensor(value))
        moments = []
        ops.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), moments=moments)
        np.testing.assert_array_equal(rm, 0.0)   # the op writes no buffer
        network.update_buffers(p, {"disp.n": moments})
        assert np.abs(rm - 0.1 * x.mean(axis=(0, 2, 3))).max() < 1e-12
        assert np.abs(rv - (0.9 + 0.1 * x.var(axis=(0, 2, 3)))).max() < 1e-12
        # outside training the buffers are folded into the conv before the
        # batch-norm: a 1x1 identity conv block normalises with them
        y = network._conv_block(p, "disp.n", Tensor(x), "infer", relu=False).data
        ref = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        assert np.abs(y - ref).max() < 1e-12

    @pytest.mark.parametrize("shape", [(4, 3, 6, 5), (2, 3, 4, 5, 6)])
    def test_in_place_forward_matches_out_of_place(self, shape):
        """With and without the fused ReLU, the op equals the out-of-place
        batch norm, then ``Tensor.relu``: outputs, all three gradients and
        the running buffers, bit for bit. The op's moments are folded by
        ``network.update_buffers``; the reference updates them in place."""
        rng = np.random.default_rng(33)
        x = rng.normal(2.0, 3.0, size=shape)
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        c = Tensor(rng.normal(size=shape))
        for relu in (False, True):
            def reference(*args, **kwargs):
                y = out_of_place_batch_norm(*args, **kwargs)
                return y.relu() if relu else y

            def folded(*args, running_mean, running_var):
                p, moments = network.ModelParams(), []
                p.add("disp.n.rmean", Tensor(running_mean))
                p.add("disp.n.rvar", Tensor(running_var))
                y = ops.batch_norm(*args, relu=relu, moments=moments)
                network.update_buffers(p, {"disp.n": moments})
                return y

            results = []
            for bn in (folded, functools.partial(reference, mode="train")):
                ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
                bufs = rm.copy(), rv.copy()
                y = bn(*ts, running_mean=bufs[0], running_var=bufs[1])
                (y * c).sum().backward()
                results.append([y.data] + [t.grad for t in ts] + list(bufs))
            assert not np.array_equal(results[0][-2], rm)
            assert (results[0][0] == 0.0).any() == relu
            for got, want in zip(*results):
                np.testing.assert_array_equal(got, want)

    def test_relu_records_one_node(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        y = ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), relu=True)
        assert [n for n in _collect_tape(y) if n._parents] == [y]


class TestBackward:
    def test_linear_case_exact(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=7)
        w = Tensor(rng.normal(size=7), requires_grad=True)
        (w * Tensor(x)).sum().backward()
        np.testing.assert_array_equal(w.grad, x)

    def test_disconnected_parameter_zero_gradient(self):
        w = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        (w * w).sum().backward()
        assert unused.grad is None
        assert w.grad is not None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_misshapen_gradient_rejected(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = make_op(x.data.sum(axis=0), (x,), lambda g: accumulate_grad(x, g))
        with pytest.raises(ValueError, match=r"gradient shape \(3,\) != tensor shape \(2, 3\)"):
            y.sum().backward()
        assert x.grad is None

    def test_second_backward_raises(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        y = (w * w).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="already consumed"):
            y.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_backward_through_a_consumed_subgraph_raises(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = w * 3.0
        h.sum().backward()
        with pytest.raises(RuntimeError, match="already consumed"):
            (h * 2.0).sum().backward()

    def test_fanout_gradients_accumulate(self):
        w = Tensor([2.0], requires_grad=True)
        y = w * 3.0 + w * 5.0
        y.sum().backward()
        assert w.grad[0] == 8.0

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_differences_elementwise_suite(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (3, 4))
        fd_check(lambda t: ((t.relu() + t.sigmoid() * t.abs()).sum()), [x], rng)
        y = rand_tensor(rng, (3, 4), scale=0.5)
        fd_check(lambda t: (t * t + 1.0).log().sum(), [y], rng)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_differences_softmax_and_norm(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rand_tensor(rng, (2, 5))
        coeff = Tensor(rng.normal(size=(2, 5)))
        fd_check(lambda t: (ops.softmax(t, axis=1) * coeff).sum(), [x], rng)
        xb = rand_tensor(rng, (3, 2, 4))
        g = rand_tensor(rng, (2,))
        b = rand_tensor(rng, (2,))
        tgt = Tensor(rng.normal(size=(3, 2, 4)))
        fd_check(lambda t, gg, bb: ((ops.batch_norm(t, gg, bb) - tgt)
                                    * (ops.batch_norm(t, gg, bb) - tgt)).sum(),
                 [xb, g, b], rng)


class TestNoGrad:
    @staticmethod
    def recorded(t):
        return t._parents != () or t._backward is not None

    def test_records_nothing_inside(self):
        w = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        x = Tensor(np.ones((1, 1, 4, 4)))
        with no_grad():
            y = (ops.conv2d(x, w) * w.sum()).relu()
        assert not self.recorded(y) and not y.requires_grad
        assert self.recorded(ops.conv2d(x, w))

    def test_nests(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not self.recorded(w * 2.0)
            assert not self.recorded(w * 2.0)
        assert self.recorded(w * 2.0)

    def test_restores_recording_after_an_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ShapeError):
            with no_grad():
                ops.concat([], axis=0)
        y = (w * 3.0).sum()
        y.backward()
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        a = ops.conv2d(Tensor(x), Tensor(w), spec=ConvSpec(padding=1)).data
        b = ops.conv2d(Tensor(x.copy()), Tensor(w.copy()), spec=ConvSpec(padding=1)).data
        assert np.array_equal(a, b)
