"""Structured array operations: convolutions, pooling, resampling, softmax.

Convolutions are cross-correlations (deep-learning convention) with
zero-fill padding. The forward pass gathers each sample's kept taps with
a strided view into a ``[Cin*K, N]`` column matrix (K kept taps, N output
positions) and contracts it with one GEMM ``[Cout, Cin*K] x [Cin*K, N]``;
the weight gradient is one einsum over the batch. No convolution pass
multiplies a kernel tap that reads only padding, or a zero stuffed
between cotangent entries.

Tap cropping: on each spatial axis, the taps whose window reaches at least
one input position lie in ``[lo, hi)``, from the first such tap to the
last. The forward pass and the weight gradient slice the weight to that
range and read the input window that starts at ``lo*dilation - pad``
(per-side padding, negative where it crops). A dropped tap reads only zero
padding, so its products are exact zeros and its weight gradient is
exactly zero; leaving them out removes only zero terms from each sum, and
changes only the order BLAS adds the rest in.

Per-tap adjoint: the input gradient (which is also the transposed
convolution) runs one GEMM ``[Cin*K, Cout] x [Cout, N]`` per sample over
the kept taps, then adds each tap's slice, in a fixed tap order, into the
input positions ``o*stride + tap*dilation - pad`` that lie inside the
input. That is the definition of the adjoint term by term; nothing is
zero-stuffed, flipped or margin-padded, and a tap whose target range is
empty is skipped.

Each op computes its result eagerly and returns
``tensor.make_op(result, parents, backward)``; the ``backward`` closure
maps the output cotangent to ``accumulate_grad`` calls on the parents
that ``needs_grad``, and is kept only when some parent needs gradients
(and no ``tensor.no_grad`` is open). Closures keep the op's inputs, never padded or cropped copies, which
backward rebuilds.

The forward and input-gradient contractions run one GEMM per sample.
Folding the batch into one BLAS GEMM lets a sample's rows fall on
different tile edges depending on what else is in the batch, which changes
the summation order and so the last bits of the result; it would also
build the whole batch's column matrix at once. One sample at a time,
every sample gets the same GEMM shape, so its output does not depend on
its batch-mates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, accumulate_grad, make_op, needs_grad


class ShapeError(ValueError):
    """Raised when operand shapes are inconsistent; names the offending axis."""


@dataclass(frozen=True)
class ConvSpec:
    """Stride / dilation / zero padding, scalar or per spatial axis."""

    stride: int | Tuple[int, ...] = 1
    dilation: int | Tuple[int, ...] = 1
    padding: int | Tuple[int, ...] = 0

    def resolved(self, nd: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        def expand(v, name, minimum):
            t = (v,) * nd if isinstance(v, int) else tuple(v)
            if len(t) != nd:
                raise ShapeError(f"{name} must have {nd} entries, got {len(t)}")
            for i, x in enumerate(t):
                if x < minimum:
                    raise ShapeError(f"{name}[{i}] = {x} is below the minimum {minimum}")
            return t

        return (expand(self.stride, "stride", 1),
                expand(self.dilation, "dilation", 1),
                expand(self.padding, "padding", 0))


def conv_out_extent(n: int, k: int, stride: int, dilation: int, pad: int) -> int:
    out = (n + 2 * pad - dilation * (k - 1) - 1) // stride + 1
    if out < 1:
        raise ShapeError(
            f"output extent {out} < 1 for input {n}, kernel {k}, "
            f"stride {stride}, dilation {dilation}, pad {pad}")
    return out


# -- strided-view machinery ---------------------------------------------------


def _tap_slices(n: int, m: int, stride: int, dilation: int, pad: int, tap: int):
    """Where a tap lands: the input positions ``o*stride + tap*dilation - pad``
    that lie in [0, n), and the outputs o < m that read them, as a pair of
    slices; ``None`` when the tap reads only padding."""
    off = tap * dilation - pad
    a, b = max(0, -(off // stride)), min(m, (n - 1 - off) // stride + 1)
    if a >= b:
        return None
    first = a * stride + off
    return slice(first, first + (b - a - 1) * stride + 1, stride), slice(a, b)


def _crop_taps(in_spatial, out_spatial, kernel, stride, dilation, pad):
    """Tap ranges that touch real input, and the input window they read.

    On each axis the taps whose window reaches at least one input position
    span ``[lo, hi)``; every other tap reads only zero padding. Returns the
    tap slices and, per axis, the window start ``lo*dilation - pad`` (below
    zero: padding, above: a crop) and extent, or ``None`` when some axis has
    no such tap, so that the convolution is identically zero.
    """
    taps, start, extent = [], [], []
    for n, m, k, s, d, p in zip(in_spatial, out_spatial, kernel, stride, dilation, pad):
        useful = [t for t in range(k) if _tap_slices(n, m, s, d, p, t)]
        if not useful:
            return None
        lo, hi = useful[0], useful[-1] + 1
        taps.append(slice(lo, hi))
        start.append(lo * d - p)
        extent.append((m - 1) * s + (hi - 1 - lo) * d + 1)
    return tuple(taps), start, extent


def _window(x: np.ndarray, start: Sequence[int], extent: Sequence[int]) -> np.ndarray:
    """``x[:, :, start:start + extent]`` on each spatial axis, zero outside x.

    A view when the window lies inside x; otherwise a zero-filled copy.
    """
    sp = x.shape[2:]
    src = tuple(slice(max(a, 0), min(a + e, n)) for a, e, n in zip(start, extent, sp))
    if all(a >= 0 and a + e <= n for a, e, n in zip(start, extent, sp)):
        return x[(slice(None), slice(None)) + src]
    out = np.zeros(x.shape[:2] + tuple(extent))
    dst = tuple(slice(s.start - a, s.stop - a) for s, a in zip(src, start))
    out[(slice(None), slice(None)) + dst] = x[(slice(None), slice(None)) + src]
    return out


def _sliding_view(xp: np.ndarray, kernel: Sequence[int], stride: Sequence[int],
                  dilation: Sequence[int]):
    """View of shape [B, C, *kernel, *out] over the padded input."""
    nd = len(kernel)
    sp = xp.shape[2:]
    out = tuple((sp[i] - dilation[i] * (kernel[i] - 1) - 1) // stride[i] + 1
                for i in range(nd))
    shape = xp.shape[:2] + tuple(kernel) + out
    st = xp.strides
    strides = (st[:2]
               + tuple(st[2 + i] * dilation[i] for i in range(nd))
               + tuple(st[2 + i] * stride[i] for i in range(nd)))
    return np.lib.stride_tricks.as_strided(xp, shape, strides), out


def _cropped_view(x: np.ndarray, crop, stride, dilation) -> np.ndarray:
    """[B, C, *kept taps, *out] view over the window the kept taps read."""
    taps, start, extent = crop
    kept = tuple(t.stop - t.start for t in taps)
    return _sliding_view(_window(x, start, extent), kept, stride, dilation)[0]


_WGT_EINSUM = {2: "bcijhw,bohw->ocij", 3: "bcijkdhw,bodhw->ocijk"}


def _corr_forward(x: np.ndarray, w: np.ndarray, stride, dilation, pad) -> np.ndarray:
    """Per sample, one GEMM ``[Cout, Cin*K] x [Cin*K, N]`` over the kept taps."""
    nd = w.ndim - 2
    kernel = w.shape[2:]
    out = tuple(conv_out_extent(x.shape[2 + i], kernel[i], stride[i], dilation[i], pad[i])
                for i in range(nd))
    crop = _crop_taps(x.shape[2:], out, kernel, stride, dilation, pad)
    if crop is None:
        return np.zeros((x.shape[0], w.shape[0]) + out)
    view = _cropped_view(x, crop, stride, dilation)
    wk = w[(slice(None), slice(None)) + crop[0]].reshape(w.shape[0], -1)
    n = int(np.prod(out))
    y = np.stack([wk @ v.reshape(-1, n) for v in view])
    return y.reshape((x.shape[0], w.shape[0]) + out)


def _corr_weight_grad(x: np.ndarray, gy: np.ndarray, kernel, stride, dilation, pad) -> np.ndarray:
    nd = len(kernel)
    crop = _crop_taps(x.shape[2:], gy.shape[2:], kernel, stride, dilation, pad)
    gw = np.zeros((gy.shape[1], x.shape[1]) + tuple(kernel))
    if crop is None:
        return gw
    view = _cropped_view(x, crop, stride, dilation)
    # A sum over the batch by definition, so it stays one batched contraction.
    g = np.einsum(_WGT_EINSUM[nd], view, gy, optimize=True)
    if g.shape == gw.shape:
        return g
    gw[(slice(None), slice(None)) + crop[0]] = g
    return gw


def _corr_input_grad(gy: np.ndarray, w: np.ndarray, stride, dilation, pad,
                     in_spatial) -> np.ndarray:
    """Adjoint of _corr_forward w.r.t. the input (= transposed convolution).

    Per sample, one GEMM ``[Cin*K, Cout] x [Cout, N]`` gives every kept
    tap's contribution at every output position; each tap then adds, in a
    fixed order, its slice into the input positions ``o*stride +
    tap*dilation - pad`` that lie inside the input.
    """
    B, cout = gy.shape[:2]
    out = gy.shape[2:]
    gx = np.zeros((B, w.shape[1]) + tuple(in_spatial))
    crop = _crop_taps(in_spatial, out, w.shape[2:], stride, dilation, pad)
    if crop is None:
        return gx
    wk = w[(slice(None), slice(None)) + crop[0]]
    kept = wk.shape[2:]
    wt = wk.reshape(cout, -1).T
    lands = [[_tap_slices(n, m, s, d, p, t) for t in range(taps.start, taps.stop)]
             for n, m, taps, s, d, p in zip(in_spatial, out, crop[0], stride, dilation, pad)]
    scatter = []
    for tap in np.ndindex(*kept):
        pick = [lands[i][t] for i, t in enumerate(tap)]
        if None not in pick:
            scatter.append((tuple(dst for dst, _ in pick),
                            (slice(None),) + tap + tuple(src for _, src in pick)))
    for g, gxb in zip(gy, gx):
        cols = (wt @ g.reshape(cout, -1)).reshape((w.shape[1],) + kept + tuple(out))
        for dst, src in scatter:
            gxb[(slice(None),) + dst] += cols[src]
    return gx


def _check_conv_shapes(x: Tensor, w: Tensor, nd: int, stride, dilation, pad) -> None:
    if x.ndim != nd + 2:
        raise ShapeError(f"input must have rank {nd + 2}, got {x.ndim}")
    if w.ndim != nd + 2:
        raise ShapeError(f"weight must have rank {nd + 2}, got {w.ndim}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[1]} channels, "
            f"weight expects {w.shape[1]}")
    for i in range(nd):
        conv_out_extent(x.shape[2 + i], w.shape[2 + i], stride[i], dilation[i], pad[i])


def _convnd(x: Tensor, w: Tensor, bias: Optional[Tensor], spec: ConvSpec, nd: int) -> Tensor:
    stride, dilation, pad = spec.resolved(nd)
    _check_conv_shapes(x, w, nd, stride, dilation, pad)
    y = _corr_forward(x.data, w.data, stride, dilation, pad)
    if bias is not None:
        if bias.shape != (w.shape[0],):
            raise ShapeError(f"bias shape {bias.shape} != ({w.shape[0]},)")
        y = y + bias.data.reshape((1, -1) + (1,) * nd)
    parents = (x, w) if bias is None else (x, w, bias)
    in_spatial = x.shape[2:]
    kernel = w.shape[2:]

    def bwd(g):
        if needs_grad(x):
            accumulate_grad(x, _corr_input_grad(g, w.data, stride, dilation, pad, in_spatial))
        if needs_grad(w):
            accumulate_grad(w, _corr_weight_grad(x.data, g, kernel, stride, dilation, pad))
        if bias is not None and needs_grad(bias):
            accumulate_grad(bias, g.sum(axis=(0,) + tuple(range(2, 2 + nd))))

    return make_op(y, parents, bwd)


def conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           spec: ConvSpec = ConvSpec()) -> Tensor:
    """Cross-correlate [B,Cin,H,W] with [Cout,Cin,kh,kw]."""
    return _convnd(x, w, bias, spec, 2)


def conv3d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           spec: ConvSpec = ConvSpec()) -> Tensor:
    """Cross-correlate [B,Cin,D,H,W] with [Cout,Cin,kd,kh,kw]."""
    return _convnd(x, w, bias, spec, 3)


def conv3d_transposed(x: Tensor, w: Tensor, spec: ConvSpec = ConvSpec(),
                      output_size: Optional[Tuple[int, int, int]] = None) -> Tensor:
    """Adjoint of conv3d; weight layout is [Cin, Cout, kd, kh, kw].

    ``output_size`` pins the spatial result (stride ambiguity); defaults to
    the minimal extent (stride*(n-1) + dilation*(k-1) + 1 - 2*pad).
    """
    nd = 3
    stride, dilation, pad = spec.resolved(nd)
    if x.ndim != nd + 2 or w.ndim != nd + 2:
        raise ShapeError("conv3d_transposed expects rank-5 input and weight")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[1]} channels, "
            f"weight expects {w.shape[0]}")
    kernel = w.shape[2:]
    if output_size is None:
        output_size = tuple(
            stride[i] * (x.shape[2 + i] - 1) + dilation[i] * (kernel[i] - 1) + 1 - 2 * pad[i]
            for i in range(nd))
    for i, n in enumerate(output_size):
        if n < 1:
            raise ShapeError(f"output extent {n} < 1 on spatial axis {i}")
        back = (n + 2 * pad[i] - dilation[i] * (kernel[i] - 1) - 1) // stride[i] + 1
        if back != x.shape[2 + i]:
            raise ShapeError(
                f"output extent {n} on spatial axis {i} convolves back to {back}, "
                f"not to the input extent {x.shape[2 + i]}")
    y = _corr_input_grad(x.data, w.data, stride, dilation, pad, output_size)

    def bwd(g):
        if needs_grad(x):
            accumulate_grad(x, _corr_forward(g, w.data, stride, dilation, pad))
        if needs_grad(w):
            accumulate_grad(w, _corr_weight_grad(g, x.data, kernel, stride, dilation, pad))

    return make_op(y, (x, w), bwd)


# -- pooling and resampling ---------------------------------------------------


def pool_avg2d(x: Tensor, window: int | Tuple[int, int]) -> Tensor:
    """Average pooling over [B,C,H,W] with non-overlapping windows.

    Trailing rows and columns that do not fill a window are ignored.
    """
    wh, ww = (window, window) if isinstance(window, int) else tuple(window)
    if x.ndim != 4:
        raise ShapeError(f"pool_avg2d expects rank 4, got {x.ndim}")
    b, c, h, w = x.shape
    oh = conv_out_extent(h, wh, wh, 1, 0)
    ow = conv_out_extent(w, ww, ww, 1, 0)
    y = x.data[:, :, :oh * wh, :ow * ww].reshape(b, c, oh, wh, ow, ww).mean(axis=(3, 5))

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[:, :, :oh * wh, :ow * ww] = (g * (1.0 / (wh * ww))).repeat(wh, 2).repeat(ww, 3)
        accumulate_grad(x, gx)

    return make_op(y, (x,), bwd)


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Linear interpolation matrix, half-pixel centers (align_corners=False)."""
    m = np.zeros((n_out, n_in))
    scale = n_in / n_out
    for o in range(n_out):
        src = (o + 0.5) * scale - 0.5
        i0 = int(np.floor(src))
        t = src - i0
        lo = min(max(i0, 0), n_in - 1)
        hi = min(max(i0 + 1, 0), n_in - 1)
        m[o, lo] += 1.0 - t
        m[o, hi] += t
    return m


def _resample_axis(x: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    y = np.tensordot(x, m, axes=([axis], [1]))
    return np.moveaxis(y, -1, axis)


def _upsample(x: Tensor, out_spatial: Sequence[int], first_axis: int) -> Tensor:
    mats = [_interp_matrix(x.shape[first_axis + i], n)
            for i, n in enumerate(out_spatial)]
    y = x.data
    for i, m in enumerate(mats):
        y = _resample_axis(y, m, first_axis + i)

    def bwd(g):
        gx = g
        for i, m in enumerate(mats):
            gx = _resample_axis(gx, m.T, first_axis + i)
        accumulate_grad(x, gx)

    return make_op(y, (x,), bwd)


def upsample_bilinear(x: Tensor, out_hw: Tuple[int, int]) -> Tensor:
    """Resize [B,C,H,W] to [B,C,*out_hw]."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_bilinear expects rank 4, got {x.ndim}")
    if min(out_hw) < 1:
        raise ShapeError(f"target extent < 1: {out_hw}")
    return _upsample(x, out_hw, 2)


def upsample_trilinear(x: Tensor, out_dhw: Tuple[int, int, int]) -> Tensor:
    """Resize [B,C,D,H,W] to [B,C,*out_dhw]."""
    if x.ndim != 5:
        raise ShapeError(f"upsample_trilinear expects rank 5, got {x.ndim}")
    if min(out_dhw) < 1:
        raise ShapeError(f"target extent < 1: {out_dhw}")
    return _upsample(x, out_dhw, 2)


# -- softmax ------------------------------------------------------------------


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        accumulate_grad(x, y * (g - dot))

    return make_op(y, (x,), bwd)


# -- normalization ------------------------------------------------------------

BN_MOMENTUM = 0.1   # weight of the batch statistics in the running buffers
BN_EPS = 1e-5       # added to the variance before the square root


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mode: str,
               running_mean: Optional[np.ndarray] = None,
               running_var: Optional[np.ndarray] = None) -> Tensor:
    """Per-channel normalization over axis 1 of [B,C,*spatial].

    ``train`` uses batch statistics and, when running buffers are passed,
    updates them in place with momentum ``BN_MOMENTUM``. ``eval``
    normalizes with the running buffers.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    red_axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    n = x.size // c

    if mode == "train":
        if n <= 1:
            raise ShapeError("batch statistics are degenerate: one value per channel")
        mean = x.data.mean(axis=red_axes)
        var = x.data.var(axis=red_axes)
        if running_mean is not None:
            running_mean *= 1.0 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mean
        if running_var is not None:
            running_var *= 1.0 - BN_MOMENTUM
            running_var += BN_MOMENTUM * var
    else:
        if running_mean is None or running_var is None:
            raise ValueError("eval mode requires running statistics")
        mean, var = running_mean, running_var

    std = np.sqrt(var + BN_EPS)
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


# -- structural ops -----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(ref):
            raise ShapeError(f"rank mismatch in concat: {t.ndim} vs {len(ref)}")
        for ax in range(len(ref)):
            if ax != axis % len(ref) and t.shape[ax] != ref[ax]:
                raise ShapeError(
                    f"concat axis {ax} mismatch: {t.shape[ax]} vs {ref[ax]}")
    y = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            accumulate_grad(t, piece)

    return make_op(y, tuple(tensors), bwd)


def smooth_l1(x: Tensor) -> Tensor:
    """Huber-style penalty: 0.5*x^2 inside |x|<1, |x|-0.5 outside."""
    a = np.abs(x.data)
    inner = a < 1.0
    y = np.where(inner, 0.5 * x.data * x.data, a - 0.5)

    def bwd(g):
        accumulate_grad(x, g * np.where(inner, x.data, np.sign(x.data)))

    return make_op(y, (x,), bwd)
