"""Shared test utilities: finite-difference checks and naive oracles."""

import contextlib
import struct
from unittest import mock

import numpy as np

from edgedisp import network, ops, stereo, trainer
from edgedisp.tensor import Tensor, _collect_tape, accumulate_grad, make_op, needs_grad


def fd_check(build, tensors, rng, n_probe=6, h=1e-5, rel_tol=1e-4, abs_tol=1e-6):
    """Compare autodiff gradients with central finite differences.

    ``build(*tensors)`` must return a scalar Tensor. A few entries of each
    input are probed; small gradients fall back to the absolute tolerance.
    """
    for t in tensors:
        t.grad = None
    loss = build(*tensors)
    loss.backward()
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n = min(n_probe, flat.size)
        idx = rng.choice(flat.size, size=n, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = build(*tensors).item()
            flat[i] = orig - h
            fm = build(*tensors).item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            g = grad.reshape(-1)[i]
            if abs(g) < 1e-3:
                assert abs(g - fd) < abs_tol, f"abs fd mismatch: {g} vs {fd}"
            else:
                rel = abs(g - fd) / max(abs(g), abs(fd))
                assert rel < rel_tol, f"rel fd mismatch: {g} vs {fd} (rel {rel})"


def naive_conv(x, w, stride=1, dilation=1, pad=0):
    """Fully-nested-loop cross-correlation for 2 or 3 spatial axes."""
    nd = w.ndim - 2
    stride = (stride,) * nd if isinstance(stride, int) else stride
    dilation = (dilation,) * nd if isinstance(dilation, int) else dilation
    pad = (pad,) * nd if isinstance(pad, int) else pad
    b, c = x.shape[:2]
    o = w.shape[0]
    k = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    out = tuple((x.shape[2 + i] + 2 * pad[i] - dilation[i] * (k[i] - 1) - 1)
                // stride[i] + 1 for i in range(nd))
    y = np.zeros((b, o) + out)
    for bi in range(b):
        for oi in range(o):
            for pos in np.ndindex(*out):
                acc = 0.0
                for ci in range(c):
                    for tap in np.ndindex(*k):
                        src = tuple(pos[i] * stride[i] + tap[i] * dilation[i]
                                    for i in range(nd))
                        acc += xp[(bi, ci) + src] * w[(oi, ci) + tap]
                y[(bi, oi) + pos] = acc
    return y


def rand_tensor(rng, shape, requires_grad=True, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)


def granular_kernels(rng, channels, s, groups, spatial_rank):
    """Kaiming group kernels and pointwise kernel of a channel-preserving
    granular convolution, drawn in the network's order."""
    *kernels, pointwise = [
        stereo.kaiming(rng, shape, fan_in) for shape, fan_in
        in stereo.granular_kernel_specs(channels, channels, s, groups, spatial_rank)]
    return kernels, pointwise


def pad_zero(x, pad_width):
    """Zero-pad a Tensor with explicit (before, after) per axis; the
    gradient is the crop of the cotangent."""
    pw = tuple((int(a), int(b)) for a, b in pad_width)
    assert len(pw) == x.ndim, f"pad_width needs {x.ndim} pairs, got {len(pw)}"
    crop = tuple(slice(a, a + n) for (a, _), n in zip(pw, x.shape))
    return make_op(np.pad(x.data, pw), (x,), lambda g: accumulate_grad(x, g[crop]))


def loop_cost_volume(f_left, f_right, d_levels):
    """Dual cost volume [B,3C,D,H,W] built level by level from tape ops.

    Each level concatenates the left features with the right features
    shifted by d (zero fill) and appends |left - shifted right|; the levels
    are stacked along axis 2. About 6*D recorded ops.
    """
    b, c, h, w = f_left.shape

    def shifted(d):
        if d == 0:
            return f_right
        if d >= w:
            return Tensor(np.zeros(f_right.shape))
        return pad_zero(f_right[..., :w - d], [(0, 0)] * 3 + [(d, 0)])

    concat, dist = [], []
    for d in range(d_levels):
        fr = shifted(d)
        concat.append(ops.concat([f_left, fr], axis=1).reshape(b, 2 * c, 1, h, w))
        dist.append((f_left - fr).abs().reshape(b, c, 1, h, w))
    return ops.concat([ops.concat(concat, axis=2), ops.concat(dist, axis=2)], axis=1)


def materialised_concat_conv(f_left, f_right, w, d_levels):
    """``stereo.concat_volume_conv`` as the conv of the materialised
    volume: ``ops.conv3d`` over the concatenation channels of
    ``build_cost_volume``."""
    c = f_left.shape[1]
    cv = stereo.build_cost_volume(f_left, f_right, d_levels)
    return ops.conv3d(cv[:, :2 * c], w, spec=ops.ConvSpec(padding=1))


# -- convolution kernels before tap cropping and the per-tap adjoint ----------


def _padded_windows(x, kernel, stride, dilation, pad):
    """[B, C, *kernel, *out] view over ``x`` zero-padded by ``pad`` per side."""
    nd = len(kernel)
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    sp = xp.shape[2:]
    out = tuple((sp[i] - dilation[i] * (kernel[i] - 1) - 1) // stride[i] + 1
                for i in range(nd))
    st = xp.strides
    strides = (st[:2] + tuple(st[2 + i] * dilation[i] for i in range(nd))
               + tuple(st[2 + i] * stride[i] for i in range(nd)))
    return np.lib.stride_tricks.as_strided(xp, xp.shape[:2] + tuple(kernel) + out, strides)


_FWD = {2: "bcijhw,ocij->bohw", 3: "bcijkdhw,ocijk->bodhw"}
_WGT = {2: "bcijhw,bohw->ocij", 3: "bcijkdhw,bodhw->ocijk"}
_INP = {2: "boijhw,ocij->bchw", 3: "boijkdhw,ocijk->bcdhw"}


def padded_corr_forward(x, w, stride, dilation, pad):
    """Cross-correlation that pads the input and reads every tap."""
    return np.einsum(_FWD[w.ndim - 2], _padded_windows(x, w.shape[2:], stride, dilation, pad), w)


def padded_corr_weight_grad(x, gy, kernel, stride, dilation, pad):
    """Weight gradient of ``padded_corr_forward``, every tap included."""
    return np.einsum(_WGT[len(kernel)], _padded_windows(x, kernel, stride, dilation, pad), gy)


def stuffed_corr_input_grad(gy, w, stride, dilation, pad, in_spatial):
    """Input gradient of ``padded_corr_forward`` as a correlation of the
    zero-stuffed, margin-padded cotangent with the flipped kernel."""
    nd = w.ndim - 2
    kernel = w.shape[2:]
    up = tuple((gy.shape[2 + i] - 1) * stride[i] + 1 for i in range(nd))
    gyu = np.zeros(gy.shape[:2] + up)
    gyu[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)] = gy
    margins = tuple(dilation[i] * (kernel[i] - 1) for i in range(nd))
    view = _padded_windows(gyu, kernel, (1,) * nd, dilation, margins)
    full = np.einsum(_INP[nd], view, w[(slice(None), slice(None)) + (slice(None, None, -1),) * nd])
    # full[q] covers padded-input coordinate q; shift by pad and clip to the
    # requested extent (the forward floor may have ignored trailing columns).
    gx = np.zeros(gy.shape[:1] + w.shape[1:2] + tuple(in_spatial))
    copy = tuple(min(in_spatial[i], full.shape[2 + i] - pad[i]) for i in range(nd))
    gx[(slice(None), slice(None)) + tuple(slice(0, c) for c in copy)] = full[
        (slice(None), slice(None)) + tuple(slice(pad[i], pad[i] + copy[i]) for i in range(nd))]
    return gx


# -- inference with the two views extracted one at a time -----------------


def infer_views_apart(left, right, p, cfg):
    """Last-stage disparity of ``network.forward(..., "infer")``, with the
    left and right views through the feature extractor as separate calls."""
    mode = "infer"
    taps_l = network.feature_extract(left, p, mode)
    taps_r = network.feature_extract(right, p, mode)
    feats_l = feats_r = None
    if cfg.use_dedge_spp:
        _, feats_l = network.dedge_branch(taps_l, p, cfg, mode, with_head=False)
        _, feats_r = network.dedge_branch(taps_r, p, cfg, mode, with_head=False)
    fl = network.dedge_spp(taps_l["F_L2"], taps_l["F_L4"], feats_l, p, mode)
    fr = network.dedge_spp(taps_r["F_L2"], taps_r["F_L4"], feats_r, p, mode)
    v = network.pre_stem(fl, fr, p, cfg, mode)
    for i in range(network.STAGES):
        v = network.agm_module(v, p, f"disp.agm{i}", cfg, mode)
    return network.output_module(v, p, f"disp.out{network.STAGES - 1}", left.shape[2:],
                                 cfg.d_max, mode)


# -- earlier forms of library code, kept as references -----------------------


def retaining_backward(loss):
    """``loss.backward()`` as a replay that keeps the tape: every recorded
    closure runs in reverse ``_id`` order and every node keeps its closure,
    parents and cotangent."""
    tape = _collect_tape(loss)
    loss.grad = np.ones_like(loss.data)
    for node in sorted(tape, key=lambda t: t._id, reverse=True):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def out_of_place_batch_norm(x, gamma, beta, mode, running_mean=None, running_var=None):
    """``ops.batch_norm`` without the ReLU, with the statistics from
    ``np.mean``/``np.var`` and ``xhat`` and ``y`` built by out-of-place
    arithmetic and kept for backward. ``"eval"`` normalises with the
    running buffers: the batch-norm that the network folds into its convs
    outside training (``unfolded_batch_norm``)."""
    red_axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    if mode == "train":
        mean, var = x.data.mean(axis=red_axes), x.data.var(axis=red_axes)
        for buf, stat in ((running_mean, mean), (running_var, var)):
            if buf is not None:
                buf *= 1.0 - ops.BN_MOMENTUM
                buf += ops.BN_MOMENTUM * stat
    else:
        mean, var = running_mean, running_var
    std = np.sqrt(var + ops.BN_EPS)
    xhat = (x.data - mean.reshape(bshape)) / std.reshape(bshape)
    y = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def bwd(g):
        gs = gamma.data.reshape(bshape) / std.reshape(bshape)
        if needs_grad(x):
            if mode == "train":
                gm = g.mean(axis=red_axes).reshape(bshape)
                gxh = (g * xhat).mean(axis=red_axes).reshape(bshape)
                accumulate_grad(x, gs * (g - gm - xhat * gxh))
            else:
                accumulate_grad(x, gs * g)
        if needs_grad(gamma):
            accumulate_grad(gamma, (g * xhat).sum(axis=red_axes))
        if needs_grad(beta):
            accumulate_grad(beta, g.sum(axis=red_axes))

    return make_op(y, (x, gamma, beta), bwd)


def randomise_batch_norm(params, rng):
    """Draw every batch-norm's gamma, beta and running buffers away from
    their initial values, at which folding them is nearly the identity."""
    for name, t in params.tensors.items():
        suffix = name.rsplit(".", 1)[1]
        if suffix in ("gamma", "rvar"):
            t.data[...] = rng.uniform(0.5, 1.5, size=t.shape)
        elif suffix in ("beta", "rmean"):
            t.data[...] = rng.normal(0.0, 0.2, size=t.shape)


@contextlib.contextmanager
def unfolded_batch_norm():
    """Run ``network`` outside "train"/"stats" without folding batch-norm
    into the convs: each conv with its own weight and bias, then the
    batch-norm on the running buffers (``out_of_place_batch_norm`` in
    ``"eval"`` mode), then the ReLU."""
    activate = network._activate

    def weights(p, name, mode, out_axis=0):
        return p[name + ".w"], p.get(name + ".b")

    def unfolded(p, name, y, mode, relu):
        if name + ".gamma" not in p or network._batch_statistics(mode):
            return activate(p, name, y, mode, relu)
        y = out_of_place_batch_norm(y, p[name + ".gamma"], p[name + ".beta"], "eval",
                                    p[name + ".rmean"].data, p[name + ".rvar"].data)
        return y.relu() if relu else y

    with mock.patch.object(network, "_conv_weights", weights), \
            mock.patch.object(network, "_activate", unfolded):
        yield


def scattering_conv_grads(x, w, g, stride, dilation, pad):
    """Input and weight gradients of ``ops._corr_forward(x, w, ...)`` for
    the cotangent ``g``, the input gradient by scattering and the weight
    gradient by gathering the input.

    The input gradient runs one GEMM ``[Cin*K, Cout] x [Cout, N_block]``
    per sample and block and adds each tap's columns back into the input
    positions it reads, blocks from the last rows to the first; the weight
    gradient sums ``g_block x cols_blockᵀ`` over the input's columns.
    """
    cout, cin = w.shape[:2]
    kernel = w.shape[2:]
    plan = ops._plan(cin, x.shape[2:], kernel, stride, dilation, pad, g.shape[2:])
    wt = ops._kept_weight(w, plan).T
    gx = np.zeros(x.shape)
    for gb, gxb in zip(g, gx):
        for blk in reversed(plan.blocks):
            cols = wt @ gb[:, blk.rows].reshape(cout, int(np.prod(blk.out)))
            cols = cols.reshape((cin,) + plan.kept + blk.out)
            for src, dst in blk.moves:
                gxb[src] += cols[dst]
    return gx, gathering_weight_grad(x, g, kernel, stride, dilation, pad)


def gathering_weight_grad(x, g, kernel, stride, dilation, pad):
    """Weight gradient of the correlation of ``x`` for the cotangent ``g``:
    over the batch, then the blocks, ``g_block x cols_blockᵀ`` of ``x``'s
    columns."""
    plan = ops._plan(x.shape[1], x.shape[2:], kernel, stride, dilation, pad, g.shape[2:])
    cout, cin = g.shape[1], x.shape[1]
    gk = np.zeros((cout, cin * int(np.prod(plan.kept))))
    for b, blk, cols in ops._gather(x, plan):
        gk += g[b, :, blk.rows].reshape(cout, int(np.prod(blk.out))) @ cols.T
    gw = np.zeros((cout, cin) + tuple(kernel))
    gw[(slice(None), slice(None)) + plan.taps] = gk.reshape((cout, cin) + plan.kept)
    return gw


def separate_transposed_grads(x, w, g, stride, dilation, pad):
    """Input and weight gradients of ``ops.conv3d_transposed(x, w, ...)``
    for the cotangent ``g``, each from its own gather of ``g``."""
    return (ops._corr_forward(g, w, stride, dilation, pad),
            gathering_weight_grad(g, x, w.shape[2:], stride, dilation, pad))


def chained_regress_disparity(cost, d_max, out_hw):
    """``stereo.regress_disparity`` as the two ops it fuses: the trilinear
    upsample of the whole cost, then the soft-argmin."""
    return stereo.soft_argmin(ops.upsample_trilinear(cost, (d_max,) + tuple(out_hw)))


def concatenating_save_checkpoint(params, state, path, cfg):
    """``trainer.save_checkpoint`` growing its bytes one entry at a time
    with ``blob +=``, which copies the file so far for every entry."""
    entries = dict(trainer._config_entries(cfg))
    for name, t in params.tensors.items():
        entries[name] = t.data
    if state is not None:
        entries["__opt__.step"] = np.asarray(float(state.step))
        entries["__opt__.lr"] = np.asarray(state.lr)
        for name, arr in state.m.items():
            entries[f"__opt__.m.{name}"] = arr
        for name, arr in state.v.items():
            entries[f"__opt__.v.{name}"] = arr
    blob = trainer.CHECKPOINT_MAGIC + struct.pack(
        "<II", trainer.CHECKPOINT_VERSION, len(entries))
    for name, arr in entries.items():
        blob += trainer._pack_tensor(name, arr)
    with open(path, "wb") as f:
        f.write(blob)
