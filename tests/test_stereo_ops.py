import numpy as np
import pytest

import tracemalloc

from checks import (chained_regress_disparity, fd_check, granular_kernels,
                    loop_cost_volume, rand_tensor)
from edgedisp import ops, stereo
from edgedisp.ops import ConvSpec, ShapeError
from edgedisp.stereo import (build_cost_volume, granular_conv, granular_param_count,
                             regress_disparity, shared_concat, soft_argmin,
                             standard_param_count)
from edgedisp.tensor import Tensor, _collect_tape


def granular_oracle(x, kernels, pointwise, dilation):
    """Literal step-by-step evaluation of the recursive group form."""
    from checks import naive_conv
    g = len(kernels) + 1
    c = x.shape[1]
    cg = c // g
    s = kernels[0].shape[2]
    pad = dilation * (s - 1) // 2
    groups = [x[:, i * cg:(i + 1) * cg] for i in range(g)]
    outs = [groups[0]]
    for i in range(1, g):
        outs.append(naive_conv(groups[i] + outs[-1], kernels[i - 1].data,
                               dilation=dilation, pad=pad))
    merged = np.concatenate(outs, axis=1)
    return naive_conv(merged, pointwise.data)


class TestGranularConv:
    def test_zero_kernel_passes_first_group_through(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w1 = Tensor(np.zeros((1, 1, 3, 3)))
        pw = np.zeros((2, 2, 1, 1))
        pw[0, 0] = 1.0  # identity on the first half
        y = granular_conv(x, [w1], Tensor(pw), 1)
        np.testing.assert_array_equal(y.data[:, 0], x.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 1], np.zeros((1, 4, 4)))

    def test_matches_recursion_oracle_3d(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 8, 4, 6, 6))
        kernels, pw = granular_kernels(rng, 8, 3, 4, spatial_rank=3)
        y = granular_conv(Tensor(x), kernels, pw, 1)
        ref = granular_oracle(x, kernels, pw, 1)
        assert np.abs(y.data - ref).max() < 1e-12

    def test_matches_recursion_oracle_dilated_2d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 7, 7))
        kernels, pw = granular_kernels(rng, 4, 3, 2, spatial_rank=2)
        y = granular_conv(Tensor(x), kernels, pw, 2)
        ref = granular_oracle(x, kernels, pw, 2)
        assert np.abs(y.data - ref).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_vs_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (1, 4, 5, 5))
        kernels, pw = granular_kernels(rng, 4, 3, 2, spatial_rank=2)
        tensors = [x] + kernels + [pw]

        def build(*ts):
            y = granular_conv(ts[0], kernels, pw, 1)
            return (y * y).sum()

        fd_check(build, tensors, rng, n_probe=4)

    def test_indivisible_channels_rejected(self):
        rng = np.random.default_rng(3)
        kernels, pw = granular_kernels(rng, 4, 3, 2, spatial_rank=2)
        with pytest.raises(ShapeError, match="divisible"):
            granular_conv(Tensor(np.zeros((1, 5, 4, 4))), kernels, pw, 1)
        with pytest.raises(ShapeError, match="group kernel"):
            granular_conv(Tensor(np.zeros((1, 6, 4, 4))), kernels, pw, 1)

    def test_empty_kernel_list_rejected(self):
        pw = Tensor(np.zeros((4, 4, 1, 1)))
        with pytest.raises(ShapeError, match="needs >= 2 groups, got 1"):
            granular_conv(Tensor(np.zeros((1, 4, 4, 4))), [], pw, 1)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 5, 5))
        kernels, pw = granular_kernels(rng, 4, 3, 2, spatial_rank=2)
        perm = [2, 0, 1]
        y = granular_conv(Tensor(x), kernels, pw, 1).data
        yp = granular_conv(Tensor(x[perm]), kernels, pw, 1).data
        assert np.array_equal(y[perm], yp)


def _conv_and_input_grad(op, x, w, g):
    """Forward output and input gradient of ``sum(op(x, w) * g)``."""
    xt = Tensor(x, requires_grad=True)
    y = op(xt, Tensor(w))
    (y * Tensor(g)).sum().backward()
    return y.data, xt.grad


class TestBatchInvariance:
    """A sample's conv output and input gradient do not depend on its batch.

    The per-sample row counts (5*5, 2*5*7) are not multiples of a BLAS
    GEMM tile, so a contraction that folded the batch into one GEMM would
    put each sample's rows on different tile edges.
    """

    @pytest.mark.parametrize("name, x_shape, w_shape, spec, output_size", [
        ("conv2d", (3, 4, 5, 5), (6, 4, 3, 3), ConvSpec(padding=1), None),
        ("conv2d", (3, 4, 5, 5), (6, 4, 3, 3), ConvSpec(dilation=2, padding=2), None),
        ("conv3d", (3, 4, 2, 5, 7), (6, 4, 3, 3, 3), ConvSpec(padding=1), None),
        ("conv3d", (3, 4, 4, 5, 7), (6, 4, 3, 3, 3), ConvSpec(stride=2, padding=1), None),
        ("conv3d_transposed", (3, 4, 2, 5, 7), (4, 6, 3, 3, 3), ConvSpec(padding=1),
         (2, 5, 7)),
        ("conv3d_transposed", (3, 4, 2, 5, 7), (4, 6, 3, 3, 3),
         ConvSpec(stride=2, padding=1), (3, 9, 13)),
    ])
    def test_batched_equals_per_sample(self, name, x_shape, w_shape, spec, output_size):
        rng = np.random.default_rng(5)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        kwargs = {} if output_size is None else {"output_size": output_size}

        def op(xt, wt):
            return getattr(ops, name)(xt, wt, spec=spec, **kwargs)

        g = rng.normal(size=op(Tensor(x), Tensor(w)).shape)
        y, gx = _conv_and_input_grad(op, x, w, g)
        for i in range(x.shape[0]):
            yi, gxi = _conv_and_input_grad(op, x[i:i + 1], w, g[i:i + 1])
            assert np.array_equal(y[i:i + 1], yi), f"{name} forward, sample {i}"
            assert np.array_equal(gx[i:i + 1], gxi), f"{name} input grad, sample {i}"


class TestParamCounts:
    def test_small_grid_example(self):
        assert granular_param_count(16, 16, 3, 4) == 3 * (4 * 4 * 9) + 256 == 688
        assert standard_param_count(16, 16, 3) == 2304

    def test_paper_scale_ratio(self):
        n_g = granular_param_count(64, 64, 3, 4)
        n_s = standard_param_count(64, 64, 3)
        assert n_g == 11008 and n_s == 36864
        ratio = n_g / n_s
        assert abs(ratio - (3 / 16 + 1 / 9)) < 1e-12
        # close to the 1/G claim from above, within +0.12
        assert 0.0 <= ratio - 0.25 < 0.12

    def test_single_group_rejected(self):
        with pytest.raises(ShapeError):
            granular_param_count(16, 16, 3, 1)

    @pytest.mark.parametrize("c", [8, 16, 32, 64])
    @pytest.mark.parametrize("g", [2, 4, 8])
    def test_count_equals_constructed_elements(self, c, g):
        rng = np.random.default_rng(c * g)
        for rank in (2, 3):
            kernels, pw = granular_kernels(rng, c, 3, g, spatial_rank=rank)
            count = sum(k.size for k in kernels) + pw.size
            assert count == granular_param_count(c, c, 3, g, rank)


def concat_part(fl, fr, d_levels):
    """Channels [:2C] of the cost volume: left stacked with shifted right."""
    return build_cost_volume(fl, fr, d_levels).data[:, :2 * fl.shape[1]]


def distance_part(fl, fr, d_levels):
    """Channels [2C:] of the cost volume: |left - shifted right|."""
    return build_cost_volume(fl, fr, d_levels).data[:, 2 * fl.shape[1]:]


class TestCostVolumes:
    def test_level_zero_is_plain_concat(self):
        rng = np.random.default_rng(5)
        fl = Tensor(rng.normal(size=(1, 3, 4, 6)))
        fr = Tensor(rng.normal(size=(1, 3, 4, 6)))
        vol = concat_part(fl, fr, 3)
        ref = np.concatenate([fl.data, fr.data], axis=1)
        np.testing.assert_array_equal(vol[:, :, 0], ref)

    def test_full_shift_zeroes_right_half(self):
        rng = np.random.default_rng(6)
        w = 5
        fl = Tensor(rng.normal(size=(1, 2, 3, w)))
        fr = Tensor(rng.normal(size=(1, 2, 3, w)))
        vol = concat_part(fl, fr, w + 1)
        assert np.all(vol[:, 2:, w] == 0.0)
        np.testing.assert_array_equal(vol[:, :2, w], fl.data)

    def test_concat_matches_shift_oracle(self):
        rng = np.random.default_rng(7)
        fl = rng.normal(size=(2, 3, 4, 7))
        fr = rng.normal(size=(2, 3, 4, 7))
        vol = concat_part(Tensor(fl), Tensor(fr), 5)
        for d in range(5):
            shifted = np.zeros_like(fr)
            if d == 0:
                shifted = fr
            else:
                shifted[..., d:] = fr[..., :-d]
            np.testing.assert_array_equal(vol[:, :3, d], fl)
            np.testing.assert_array_equal(vol[:, 3:, d], shifted)

    def test_distance_zero_when_identical(self):
        rng = np.random.default_rng(8)
        f = Tensor(rng.normal(size=(1, 2, 3, 5)))
        vol = distance_part(f, f, 1)
        np.testing.assert_array_equal(vol[:, :, 0], np.zeros((1, 2, 3, 5)))

    def test_distance_against_zero_right(self):
        rng = np.random.default_rng(9)
        fl = rng.normal(size=(1, 2, 3, 5))
        vol = distance_part(Tensor(fl), Tensor(np.zeros_like(fl)), 4)
        for d in range(4):
            np.testing.assert_array_equal(vol[:, :, d], np.abs(fl))

    def test_distance_matches_shift_oracle(self):
        rng = np.random.default_rng(10)
        fl = rng.normal(size=(1, 3, 4, 6))
        fr = rng.normal(size=(1, 3, 4, 6))
        vol = distance_part(Tensor(fl), Tensor(fr), 4)
        for d in range(4):
            shifted = np.zeros_like(fr)
            shifted[..., d:] = fr[..., :fr.shape[-1] - d] if d else fr[..., :]
            np.testing.assert_array_equal(vol[:, :, d], np.abs(fl - shifted))

    def test_build_shapes_and_composition(self):
        rng = np.random.default_rng(11)
        fl = Tensor(rng.normal(size=(1, 8, 4, 16)))
        fr = Tensor(rng.normal(size=(1, 8, 4, 16)))
        cv = build_cost_volume(fl, fr, 12)
        assert cv.shape == (1, 24, 12, 4, 16)
        ref = loop_cost_volume(fl, fr, 12).data
        np.testing.assert_array_equal(cv.data[:, :16], ref[:, :16])
        np.testing.assert_array_equal(cv.data[:, 16:], ref[:, 16:])

    def test_gradient_reaches_both_feature_maps(self):
        rng = np.random.default_rng(12)
        fl = rand_tensor(rng, (1, 2, 3, 6))
        fr = rand_tensor(rng, (1, 2, 3, 6))
        cv = build_cost_volume(fl, fr, 4)
        (cv * cv).sum().backward()
        assert np.abs(fl.grad).max() > 0
        assert np.abs(fr.grad).max() > 0

    def test_untaped_peak_is_the_volume(self):
        """The |diff| channels are written in place: an untaped build at
        the network's 128x256/d_max 32 geometry peaks at its volume, with
        no C-channel temporary (1 MiB here) beside it."""
        rng = np.random.default_rng(14)
        shape = (1, 8, 32, 64)
        fl, fr = Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))
        tracemalloc.start()
        try:
            cv = build_cost_volume(fl, fr, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = cv.data.nbytes + fl.data.nbytes + fr.data.nbytes + (64 << 10)
        assert peak < bound, (peak, bound)

    def test_negative_levels_rejected(self):
        f = Tensor(np.zeros((1, 1, 2, 4)))
        with pytest.raises(ShapeError):
            build_cost_volume(f, f, 0)

    def test_level_zero_is_pixelwise(self):
        rng = np.random.default_rng(13)
        fl = rng.normal(size=(1, 2, 4, 5))
        fr = rng.normal(size=(1, 2, 4, 5))
        base_c = concat_part(Tensor(fl), Tensor(fr), 1)
        base_d = distance_part(Tensor(fl), Tensor(fr), 1)
        fl2 = fl.copy()
        fl2[0, 0, 2, 3] += 1.0
        pert_c = concat_part(Tensor(fl2), Tensor(fr), 1)
        pert_d = distance_part(Tensor(fl2), Tensor(fr), 1)
        diff_c = (pert_c != base_c).any(axis=(0, 1, 2))
        diff_d = (pert_d != base_d).any(axis=(0, 1, 2))
        assert diff_c[2, 3] and diff_c.sum() == 1
        assert diff_d[2, 3] and diff_d.sum() == 1


# (batch, channels, height, width), levels: batch 2, odd width, D > W, D = W
LOOP_CASES = [((2, 3, 4, 7), 5), ((1, 2, 3, 5), 8), ((2, 2, 3, 6), 6),
              ((1, 4, 2, 9), 3)]


class TestCostVolumeAgainstLoop:
    """build_cost_volume against the level-by-level tape-op construction."""

    @pytest.mark.parametrize("shape, d_levels", LOOP_CASES)
    def test_forward_equal(self, shape, d_levels):
        rng = np.random.default_rng(20)
        fl = Tensor(rng.normal(size=shape))
        fr = Tensor(rng.normal(size=shape))
        np.testing.assert_array_equal(build_cost_volume(fl, fr, d_levels).data,
                                      loop_cost_volume(fl, fr, d_levels).data)

    @pytest.mark.parametrize("shape, d_levels", LOOP_CASES)
    def test_gradients_match(self, shape, d_levels):
        # Only the summation order differs, so the gradients agree to 1e-12
        # relative to their largest entry.
        rng = np.random.default_rng(21)
        fl0 = rng.normal(size=shape)
        fr0 = rng.normal(size=shape)
        cot = Tensor(rng.normal(size=(shape[0], 3 * shape[1], d_levels) + shape[2:]))
        grads = []
        for build in (lambda a, b: build_cost_volume(a, b, d_levels),
                      lambda a, b: loop_cost_volume(a, b, d_levels)):
            fl = Tensor(fl0, requires_grad=True)
            fr = Tensor(fr0, requires_grad=True)
            (build(fl, fr) * cot).sum().backward()
            grads.append((fl.grad, fr.grad))
        for got, want in zip(*grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_records_one_node_whatever_the_levels(self):
        rng = np.random.default_rng(22)
        fl = rand_tensor(rng, (1, 2, 3, 6))
        fr = rand_tensor(rng, (1, 2, 3, 6))

        counts = [sum(1 for t in _collect_tape(build_cost_volume(fl, fr, d))
                      if t._parents)
                  for d in (1, 3, 6, 9)]
        assert len(set(counts)) == 1, counts

    def test_right_features_without_gradient(self):
        rng = np.random.default_rng(23)
        fl = rand_tensor(rng, (1, 2, 3, 6))
        fr = Tensor(rng.normal(size=(1, 2, 3, 6)))
        (build_cost_volume(fl, fr, 4).sum()).backward()
        assert fr.grad is None and fl.grad is not None


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _volume_conv(f_left, f_right, w, bias, d_levels):
    """``stereo.cost_volume_conv`` as the conv of the whole volume."""
    return ops.conv3d(build_cost_volume(f_left, f_right, d_levels), w, bias,
                      spec=ConvSpec(padding=1))


class TestCostVolumeConv:
    """cost_volume_conv against the conv of the materialised volume."""

    @staticmethod
    def _both(arrays, d_levels, cot, right_grad=True):
        """Output and gradients of ``cost_volume_conv`` and of the oracle
        for ``arrays`` = (f_left, f_right, w, bias or None)."""
        results = []
        for conv in (stereo.cost_volume_conv, _volume_conv):
            ts = [None if a is None else Tensor(a, requires_grad=right_grad or i != 1)
                  for i, a in enumerate(arrays)]     # arrays[1] is f_right
            y = conv(*ts, d_levels)
            (y * cot).sum().backward()
            results.append([y.data] + [t.grad for t in ts if t is not None])
        return results

    @pytest.mark.parametrize("shape, d_levels", LOOP_CASES + [
        ((1, 8, 32, 64), 8), ((2, 3, 4, 7), 1), ((1, 2, 3, 1), 4), ((2, 3, 4, 7), 9)])
    def test_matches_materialised_volume(self, shape, d_levels):
        # the network's geometry (128x256 images at d_max 32); one level and
        # one column, which leave no correction conv; W+2 levels
        rng = np.random.default_rng(24)
        arrays = [rng.normal(size=shape), rng.normal(size=shape),
                  rng.normal(size=(5, 3 * shape[1], 3, 3, 3))]
        cot = Tensor(rng.normal(size=(shape[0], 5, d_levels) + shape[2:]))
        for bias in (None, rng.normal(size=5)):
            got, want = self._both(arrays + [bias], d_levels, cot)
            assert len(got) == 4 + (bias is not None)
            for g, v in zip(got, want):
                assert _rel_err(g, v) <= 1e-12

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(26)
        fl, fr = rng.normal(size=(3, 4, 5, 9)), rng.normal(size=(3, 4, 5, 9))
        w, bias = Tensor(rng.normal(size=(6, 12, 3, 3, 3))), Tensor(rng.normal(size=6))
        y = stereo.cost_volume_conv(Tensor(fl), Tensor(fr), w, bias, 6).data
        order = [2, 0, 1]
        shuffled = stereo.cost_volume_conv(Tensor(fl[order]), Tensor(fr[order]), w, bias, 6).data
        assert np.array_equal(y[order], shuffled)

    def test_tape_size_does_not_depend_on_the_levels(self):
        rng = np.random.default_rng(27)
        fl, fr = rand_tensor(rng, (1, 2, 3, 6)), rand_tensor(rng, (1, 2, 3, 6))
        w, bias = rand_tensor(rng, (3, 6, 3, 3, 3)), rand_tensor(rng, (3,))
        counts = [sum(1 for t in _collect_tape(stereo.cost_volume_conv(fl, fr, w, bias, d))
                      if t._parents) for d in (2, 3, 6, 9)]
        assert len(set(counts)) == 1, counts

    def test_right_features_without_gradient(self):
        rng = np.random.default_rng(28)
        arrays = [rng.normal(size=(1, 2, 3, 6)), rng.normal(size=(1, 2, 3, 6)),
                  rng.normal(size=(3, 6, 3, 3, 3)), rng.normal(size=3)]
        cot = Tensor(rng.normal(size=(1, 3, 4, 3, 6)))
        got, want = self._both(arrays, 4, cot, right_grad=False)
        assert got.pop(2) is None and want.pop(2) is None    # f_right's gradient
        for g, v in zip(got, want):
            assert _rel_err(g, v) <= 1e-12

    def test_weight_shape_rejected(self):
        rng = np.random.default_rng(29)
        fl, fr = rand_tensor(rng, (1, 2, 3, 6)), rand_tensor(rng, (1, 2, 3, 6))
        with pytest.raises(ShapeError, match="weight shape"):
            stereo.cost_volume_conv(fl, fr, rand_tensor(rng, (3, 4, 3, 3, 3)), None, 4)


class TestSoftArgmin:
    def test_constant_cost_uniform_mean(self):
        cost = Tensor(np.zeros((1, 1, 4, 2, 2)))
        y = soft_argmin(cost)
        np.testing.assert_allclose(y.data, 1.5, atol=1e-12)

    def test_near_one_hot(self):
        cost = np.zeros((1, 1, 6, 1, 1))
        cost[0, 0, 2] = -100.0
        y = soft_argmin(Tensor(cost))
        assert abs(y.data[0, 0, 0] - 2.0) < 1e-6

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(14)
        cost = rng.normal(size=(2, 1, 8, 3, 4))
        y = soft_argmin(Tensor(cost)).data
        z = np.exp(-cost[:, 0] + (-cost[:, 0]).max(axis=1, keepdims=True) * 0)
        z = np.exp(-cost[:, 0] - (-cost[:, 0]).max(axis=1, keepdims=True))
        prob = z / z.sum(axis=1, keepdims=True)
        ref = (np.arange(8).reshape(1, 8, 1, 1) * prob).sum(axis=1)
        assert np.abs(y - ref).max() < 1e-10

    def test_range_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            cost = Tensor(rng.normal(scale=10.0, size=(1, 1, 5, 2, 2)))
            y = soft_argmin(cost).data
            assert np.all(y >= 0.0) and np.all(y <= 4.0)

    def test_constant_shift_leaves_output_unchanged(self):
        rng = np.random.default_rng(16)
        cost = rng.normal(size=(1, 1, 6, 3, 3))
        a = soft_argmin(Tensor(cost)).data
        b = soft_argmin(Tensor(cost + 11.5)).data
        assert np.abs(a - b).max() < 1e-10

    def test_multi_channel_rejected(self):
        with pytest.raises(ShapeError):
            soft_argmin(Tensor(np.zeros((1, 2, 4, 2, 2))))

    def test_finite_differences(self):
        rng = np.random.default_rng(25)
        cost = rand_tensor(rng, (2, 1, 6, 3, 4))
        g = Tensor(rng.normal(size=(2, 3, 4)))
        fd_check(lambda c: (soft_argmin(c) * g).sum(), [cost], rng)


def tile_budget(rows, b, d_max, w):
    """An ``ops._WORK_BUDGET`` that gives tiles of ``rows`` output rows."""
    return rows * 8 * b * d_max * w


class TestRegressDisparity:
    # (cost shape, (d_max, H, W), rows per tile): one tile; three tiles
    # whose edges split the output rows that one low-resolution row feeds;
    # a non-integer scale one row at a time.
    CASES = [((2, 1, 4, 5, 6), (16, 20, 24), 20),
             ((2, 1, 4, 5, 6), (16, 20, 24), 7),
             ((1, 1, 3, 7, 5), (9, 13, 11), 1)]

    @pytest.mark.parametrize("shape,out,rows", CASES)
    def test_matches_the_op_chain(self, monkeypatch, shape, out, rows):
        monkeypatch.setattr(ops, "_WORK_BUDGET", tile_budget(rows, shape[0], *out[::2]))
        if rows == 7:
            assert -(-out[1] // rows) == 3
            # the last row of the first tile and the first row of the
            # second read the same low-resolution rows
            assert (ops._resize_rows(shape[3], out[1], 6, 7)[0]
                    == ops._resize_rows(shape[3], out[1], 7, 8)[0])
        rng = np.random.default_rng(27)
        cost = rng.normal(scale=3.0, size=shape)
        g = Tensor(rng.normal(size=(shape[0],) + out[1:]))
        got, want = Tensor(cost, requires_grad=True), Tensor(cost, requires_grad=True)
        y = regress_disparity(got, out[0], out[1:])
        y_ref = chained_regress_disparity(want, out[0], out[1:])
        assert np.abs(y.data - y_ref.data).max() <= 1e-12 * np.abs(y_ref.data).max()
        (y * g).sum().backward()
        (y_ref * g).sum().backward()
        assert np.abs(got.grad - want.grad).max() <= 1e-12 * np.abs(want.grad).max()

    def test_finite_differences_across_tiles(self, monkeypatch):
        monkeypatch.setattr(ops, "_WORK_BUDGET", tile_budget(3, 2, 8, 12))
        rng = np.random.default_rng(28)
        cost = rand_tensor(rng, (2, 1, 2, 3, 3))
        g = Tensor(rng.normal(size=(2, 10, 12)))
        fd_check(lambda c: (regress_disparity(c, 8, (10, 12)) * g).sum(), [cost], rng)

    def test_records_one_tape_node(self):
        cost = Tensor(np.zeros((1, 1, 2, 2, 3)), requires_grad=True)
        y = regress_disparity(cost, 8, (8, 12))
        assert [n for n in _collect_tape(y) if n._parents] == [y]
        assert y._parents == (cost,)

    def test_working_memory_is_a_few_tiles(self, monkeypatch):
        """A forward and backward over eight 1 MiB tiles peaks below 6 MiB
        above the low-resolution cost: less than the 8 MiB full-resolution
        cost that the chain of the two ops holds, with its softmax and
        cotangents, three times over."""
        shape, out = (1, 1, 8, 32, 64), (32, 128, 256)
        monkeypatch.setattr(ops, "_WORK_BUDGET", 1 << 20)
        rng = np.random.default_rng(29)
        cost = Tensor(rng.normal(size=shape), requires_grad=True)
        g = Tensor(rng.normal(size=(1,) + out[1:]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (regress_disparity(cost, out[0], out[1:]) * g).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cost.grad.shape == shape
        assert peak - before < 6 << 20, (peak - before) / (1 << 20)

    @pytest.mark.parametrize("shape,out", [((1, 1, 4, 2, 2), (0, 8, 8)),
                                           ((1, 1, 4, 2, 2), (8, 8, 0)),
                                           ((1, 2, 4, 2, 2), (8, 8, 8)),
                                           ((1, 4, 2, 2), (8, 8, 8))])
    def test_bad_shapes_rejected(self, shape, out):
        with pytest.raises(ShapeError):
            regress_disparity(Tensor(np.zeros(shape)), out[0], out[1:])


class TestSharedConcat:
    def test_smallest_layout(self):
        rng = np.random.default_rng(17)
        f5 = Tensor(rng.normal(size=(1, 1, 3, 3)))
        f1, f2, f3 = (Tensor(rng.normal(size=(1, 1, 3, 3))) for _ in range(3))
        y = shared_concat(f5, f1, f2, f3)
        assert y.shape == (1, 4, 3, 3)
        np.testing.assert_array_equal(y.data[:, 0], f5.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 1], f1.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 2], f2.data[:, 0])
        np.testing.assert_array_equal(y.data[:, 3], f3.data[:, 0])

    def test_channel_positions_for_k3(self):
        rng = np.random.default_rng(18)
        f5 = Tensor(rng.normal(size=(2, 3, 2, 2)))
        f1, f2, f3 = (Tensor(rng.normal(size=(2, 1, 2, 2))) for _ in range(3))
        y = shared_concat(f5, f1, f2, f3)
        assert y.shape == (2, 12, 2, 2)
        for k in range(3):
            np.testing.assert_array_equal(y.data[:, 4 * k], f5.data[:, k])

    def test_explicit_layout_oracle(self):
        rng = np.random.default_rng(19)
        k = 4
        f5 = rng.normal(size=(1, k, 3, 4))
        side = [rng.normal(size=(1, 1, 3, 4)) for _ in range(3)]
        y = shared_concat(Tensor(f5), *(Tensor(s) for s in side)).data
        expected = np.concatenate(
            sum([[f5[:, i:i + 1]] + side for i in range(k)], []), axis=1)
        np.testing.assert_array_equal(y, expected)

    def test_spatial_mismatch_rejected(self):
        f5 = Tensor(np.zeros((1, 2, 4, 4)))
        f1 = Tensor(np.zeros((1, 1, 4, 4)))
        bad = Tensor(np.zeros((1, 1, 2, 4)))
        with pytest.raises(ShapeError):
            shared_concat(f5, f1, bad, f1)
