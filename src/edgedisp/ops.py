"""Structured array operations: convolutions, pooling, resampling, softmax.

Convolutions are cross-correlations (deep-learning convention) with
zero-fill padding. On each spatial axis, tap ``t`` reads the input
positions ``o*stride + t*dilation - pad`` that lie inside the input
(``_lands``). The tap plan, ``_tap_plan``, cached per input extents,
kernel, stride, dilation and padding, keeps on each axis the taps from the
first to the last that read any. A tap outside the kept range reads only
zero padding: its products are exact zeros and its weight gradient is
exactly zero, so leaving it out removes only zero terms from each sum.

Blocks: every pass splits the output along its first spatial axis into
runs of whole rows (``_row_runs``) whose ``[Cin*K, N_block]`` column
matrix (K kept taps, N_block output positions of the block) fits
``_WORK_BUDGET`` bytes. ``_block_plan``, cached per geometry and row
range, lists the block's moves: for each kept tap that reads input on
every axis for some output of the block, the input slices it reads and
the block's output slices that read them, from the landings of the
block's rows on the first axis and of every output on the others. A
pass's working memory is one block, not the whole ``[Cin*K, N]`` matrix.

Gather (forward and weight gradient): per sample, then per block, the
block's kept taps are copied from the input into its column matrix. One
buffer per call, zeroed once, serves every block and sample; before a
block is refilled over another block's columns, the rows its taps skip
are zeroed again, so the columns of taps that read padding stay zero. The
forward pass runs one GEMM ``[Cout, Cin*K] x [Cin*K, N_block]`` per
sample and block, written into the block's rows; the weight gradient adds
``gy_block [Cout, N_block] x cols_blockᵀ`` in batch, then block order.

Scatter (input gradient, which is also the transposed convolution): per
sample and block, one GEMM ``[Cin*K, Cout] x [Cout, N_block]`` gives the
block's columns of every kept tap, and each move of the block adds its
columns, in tap order, back into the input positions it reads. The blocks
run from the last rows to the first, so every input position gets its
terms in tap order, whatever the blocks. Scatter is the exact adjoint of
gather over the same moves; nothing is zero-stuffed, flipped or
margin-padded.

Each op computes its result eagerly and returns
``tensor.make_op(result, parents, backward)``; the ``backward`` closure
maps the output cotangent to ``accumulate_grad`` calls on the parents
that ``needs_grad``, and is kept only when some parent needs gradients
(and no ``tensor.no_grad`` is open). Closures keep the op's inputs, never
column matrices, which backward rebuilds.

Every contraction runs one GEMM per sample and block. Folding the batch
into one BLAS GEMM lets a sample's rows fall on different tile edges
depending on what else is in the batch, which changes the summation order
and so the last bits of the result; it would also build the whole batch's
column matrix at once. One sample at a time, every sample gets the same
GEMM shapes, so its output does not depend on its batch-mates. The forward
and input gradient of a block compute the same columns as one GEMM over
all rows would, bit for bit when the blocks are a few hundred columns
wide (OpenBLAS takes other kernels for GEMMs only a few columns wide); the
weight gradient sums the blocks one after another, which reorders its sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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


# -- tap plan, gather and scatter ---------------------------------------------


class _TapPlan(NamedTuple):
    out: Tuple[int, ...]       # output extent per spatial axis
    taps: Tuple[slice, ...]    # kept tap range per spatial axis
    kept: Tuple[int, ...]      # number of kept taps per spatial axis


def _lands(n: int, k: int, s: int, d: int, p: int, r0: int, r1: int) -> dict:
    """On one axis, for each tap ``t`` that reads input for some output in
    ``[r0, r1)``: ``{t: (input slice it reads, output slice from r0)}``.
    Tap ``t`` of output ``o`` reads ``o*s + t*d - p`` when that is in [0, n)."""
    lands = {}
    for t in range(k):
        off = t * d - p
        a, b = max(r0, -(off // s)), min(r1, (n - 1 - off) // s + 1)
        if a < b:
            first = a * s + off
            lands[t] = (slice(first, first + (b - a - 1) * s + 1, s), slice(a - r0, b - r0))
    return lands


# A network at one image size needs a few dozen plans: the default
# configuration needs 23 tap plans, and 23 block plans at 64x64, 34 at
# 128x256 with d_max 32, 52 at 256x512 with d_max 64. The bounds keep a
# service fed many image sizes finite.
@functools.lru_cache(maxsize=256)
def _tap_plan(in_spatial, kernel, stride, dilation, pad) -> _TapPlan:
    """The output extents and, per axis, the kept tap range: from the first
    to the last tap that reads any input (``_lands`` over every output)."""
    out = tuple(conv_out_extent(*a) for a in zip(in_spatial, kernel, stride, dilation, pad))
    lands = [_lands(n, k, s, d, p, 0, m)
             for n, k, s, d, p, m in zip(in_spatial, kernel, stride, dilation, pad, out)]
    taps = tuple(slice(min(a), max(a) + 1) if a else slice(0, 0) for a in lands)
    return _TapPlan(out, taps, tuple(t.stop - t.start for t in taps))


def _kept_weight(w: np.ndarray, plan: _TapPlan) -> np.ndarray:
    """The kept taps of w, flattened to [w.shape[0], w.shape[1]*K]."""
    kept = w[(slice(None), slice(None)) + plan.taps]
    return kept.reshape(w.shape[0], w.shape[1] * math.prod(plan.kept))


# Bytes one run of rows may take: a conv block's column matrix or a
# regression tile's full-resolution cost (``stereo.regress_disparity``).
# The default network at 64x64 runs its largest column matrix (5.3 MB) as
# one block and each batch-4 head (2 MB) as one tile.
_WORK_BUDGET = 8 << 20


def _row_runs(n: int, row_bytes: int) -> list:
    """``range(n)`` cut, in order, into runs ``(start, stop)`` of rows of
    ``row_bytes`` each that fit ``_WORK_BUDGET`` together; a run holds at
    least one row."""
    step = max(1, _WORK_BUDGET // max(row_bytes, 1))
    return [(r, min(r + step, n)) for r in range(0, n, step)]


class _Block(NamedTuple):
    rows: slice                # output rows of the block, on the first spatial axis
    out: Tuple[int, ...]       # the block's output extents: its rows, then out[1:]
    moves: tuple               # (input index, column index) per tap landing in the block
    clear: tuple               # column indices of rows a kept first-axis tap skips


@functools.lru_cache(maxsize=1024)
def _block_plan(in_spatial, kernel, stride, dilation, pad, rows) -> _Block:
    """The moves of output rows ``rows = (r0, r1)`` of the first spatial
    axis: for each kept tap, in row-major order, that reads input on every
    axis for some output of the block, a move pairs the index of what it
    reads in one sample ``[Cin, *in_spatial]`` with the index of its
    columns in the block's ``[Cin, *kept, r1 - r0, *out[1:]]``.

    ``clear`` lists, for each kept tap of the first axis, the rows of the
    block it does not land in. Those columns hold zeros in a fresh buffer;
    a buffer that another block of the same extents filled before must be
    zeroed there again.
    """
    plan = _tap_plan(in_spatial, kernel, stride, dilation, pad)
    r0, r1 = rows
    spans = (rows,) + tuple((0, m) for m in plan.out[1:])
    lands = [_lands(n, k, s, d, p, *span)
             for n, k, s, d, p, span in zip(in_spatial, kernel, stride, dilation, pad, spans)]
    moves = []
    for tap in itertools.product(*(range(t.start, t.stop) for t in plan.taps)):
        pick = [a.get(t) for a, t in zip(lands, tap)]
        if None not in pick:
            kept = tuple(t - r.start for t, r in zip(tap, plan.taps))
            moves.append(((slice(None),) + tuple(i for i, _ in pick),
                          (slice(None),) + kept + tuple(o for _, o in pick)))
    lead = (slice(None),) * (len(kernel) - 1)
    n, first = r1 - r0, plan.taps[0]
    clear = []
    for t in range(first.start, first.stop):
        o = lands[0][t][1] if t in lands[0] else slice(n, n)
        clear += [(slice(None), t - first.start) + lead + (slice(lo, hi),)
                  for lo, hi in ((0, o.start), (o.stop, n)) if lo < hi]
    return _Block(slice(r0, r1), (n,) + plan.out[1:], tuple(moves), tuple(clear))


def _blocks(cin: int, in_spatial, kernel, stride, dilation, pad):
    """The tap plan and its blocks: runs of whole output rows of the first
    spatial axis whose ``[Cin*K, N]`` column matrix fits ``_WORK_BUDGET``."""
    plan = _tap_plan(in_spatial, kernel, stride, dilation, pad)
    row = 8 * cin * math.prod(plan.kept) * math.prod(plan.out[1:])
    return plan, [_block_plan(in_spatial, kernel, stride, dilation, pad, rows)
                  for rows in _row_runs(plan.out[0], row)]


def _gather(x: np.ndarray, plan: _TapPlan, blocks):
    """Per sample in batch order, then per block: the sample index, the
    block, and its ``[Cin*K, N_block]`` column matrix.

    One buffer, zeroed once, serves every block; each yielded matrix is
    overwritten by the next. Refilling the block that filled it last
    rewrites the same positions. Before a block of the same extents, the
    rows its taps skip are zeroed; before a block of other extents, the
    whole matrix is.
    """
    cin, k = x.shape[1], math.prod(plan.kept)
    buf = np.zeros(cin * k * max(math.prod(blk.out) for blk in blocks))
    last = None
    for b, xb in enumerate(x):
        for blk in blocks:
            n = math.prod(blk.out)
            cols = buf[:cin * k * n].reshape((cin,) + plan.kept + blk.out)
            if last is not None and last is not blk:
                if last.out != blk.out:
                    cols.fill(0.0)
                else:
                    for c in blk.clear:
                        cols[c] = 0.0
            for src, dst in blk.moves:
                cols[dst] = xb[src]
            last = blk
            yield b, blk, cols.reshape(cin * k, n)


def _corr_forward(x: np.ndarray, w: np.ndarray, stride, dilation, pad) -> np.ndarray:
    """Per sample and block, one GEMM ``[Cout, Cin*K] x [Cin*K, N_block]``
    over the kept taps, written into the block's output rows."""
    plan, blocks = _blocks(x.shape[1], x.shape[2:], w.shape[2:], stride, dilation, pad)
    wk = _kept_weight(w, plan)
    y = np.empty((x.shape[0], w.shape[0]) + plan.out)
    for b, blk, cols in _gather(x, plan, blocks):
        y[b, :, blk.rows] = (wk @ cols).reshape((w.shape[0],) + blk.out)
    return y


def _corr_weight_grad(x: np.ndarray, gy: np.ndarray, kernel, stride, dilation, pad) -> np.ndarray:
    """Sum over the batch, then the blocks, in order, of
    ``gy_block [Cout, N_block] x cols_blockᵀ``."""
    plan, blocks = _blocks(x.shape[1], x.shape[2:], kernel, stride, dilation, pad)
    cout, cin = gy.shape[1], x.shape[1]
    gk = np.zeros((cout, cin * math.prod(plan.kept)))
    for b, blk, cols in _gather(x, plan, blocks):
        gk += gy[b, :, blk.rows].reshape(cout, math.prod(blk.out)) @ cols.T
    gw = np.zeros((cout, cin) + kernel)
    gw[(slice(None), slice(None)) + plan.taps] = gk.reshape((cout, cin) + plan.kept)
    return gw


def _corr_input_grad(gy: np.ndarray, w: np.ndarray, stride, dilation, pad,
                     in_spatial) -> np.ndarray:
    """Adjoint of _corr_forward w.r.t. the input (= transposed convolution).

    Per sample and block, one GEMM ``[Cin*K, Cout] x [Cout, N_block]``
    gives the block's columns of every kept tap; each move of the block
    then adds, in tap order, its columns back into the input positions its
    tap reads. The blocks run from the last rows to the first: a later tap
    of the first axis reaches an input row from an earlier output row, so
    every input position gets its terms in tap order, as from one block.
    """
    cout, cin = w.shape[:2]
    plan, blocks = _blocks(cin, in_spatial, w.shape[2:], stride, dilation, pad)
    wt = _kept_weight(w, plan).T
    gx = np.zeros((gy.shape[0], cin) + in_spatial)
    for g, gxb in zip(gy, gx):
        for blk in reversed(blocks):
            cols = wt @ g[:, blk.rows].reshape(cout, math.prod(blk.out))
            cols = cols.reshape((cin,) + plan.kept + blk.out)
            for src, dst in blk.moves:
                gxb[src] += cols[dst]
    return gx


def _check_conv_shapes(x: Tensor, w: Tensor, nd: int, cin_axis: int) -> None:
    """Ranks, and the input's channels against the weight's ``cin_axis``.
    Extents that leave no output raise when the pass builds its tap plan."""
    if x.ndim != nd + 2:
        raise ShapeError(f"input must have rank {nd + 2}, got {x.ndim}")
    if w.ndim != nd + 2:
        raise ShapeError(f"weight must have rank {nd + 2}, got {w.ndim}")
    if x.shape[1] != w.shape[cin_axis]:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[1]} channels, "
            f"weight expects {w.shape[cin_axis]}")


def _convnd(x: Tensor, w: Tensor, bias: Optional[Tensor], spec: ConvSpec, nd: int) -> Tensor:
    stride, dilation, pad = spec.resolved(nd)
    _check_conv_shapes(x, w, nd, cin_axis=1)
    y = _corr_forward(x.data, w.data, stride, dilation, pad)
    if bias is not None:
        if bias.shape != (w.shape[0],):
            raise ShapeError(f"bias shape {bias.shape} != ({w.shape[0]},)")
        y += bias.data.reshape((1, -1) + (1,) * nd)
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


def conv3d_transposed(x: Tensor, w: Tensor, spec: ConvSpec = ConvSpec(), *,
                      output_size: Tuple[int, int, int]) -> Tensor:
    """Adjoint of conv3d; weight layout is [Cin, Cout, kd, kh, kw].

    ``output_size`` is the spatial result; with a stride several extents
    convolve back to the input's, so the caller names the one it wants.
    """
    stride, dilation, pad = spec.resolved(3)
    _check_conv_shapes(x, w, 3, cin_axis=0)
    kernel = w.shape[2:]
    output_size = tuple(output_size)
    if min(output_size) < 1:
        raise ShapeError(f"output_size {output_size} has an extent below 1")
    back = _tap_plan(output_size, kernel, stride, dilation, pad).out
    if back != x.shape[2:]:
        raise ShapeError(f"output_size {output_size} convolves back to {back}, "
                         f"not to the input extents {x.shape[2:]}")
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


# Each upsample needs one matrix per resized axis, and a network at one
# image size resizes between a handful of extents; the bound keeps a
# service fed many image sizes finite.
@functools.lru_cache(maxsize=256)
def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Linear interpolation matrix, half-pixel centers (align_corners=False).

    Cached per extent pair and shared by every caller, so it is read-only.
    """
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
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=256)
def _interp_taps(n_in: int, n_out: int) -> Tuple[np.ndarray, ...]:
    """The two nonzero columns of each row of ``_interp_matrix(n_in, n_out)``
    and their weights: ``(lo, hi, w_lo, w_hi)``, each of length ``n_out``.

    ``lo`` and ``hi = min(lo + 1, n_in - 1)`` never decrease along the
    rows. Where a row is clamped to one column (``hi == lo``) that column's
    whole weight is ``w_lo`` and ``w_hi`` is 0. Cached and read-only.
    """
    m = _interp_matrix(n_in, n_out)
    rows = np.arange(n_out)
    lo = (m != 0.0).argmax(axis=1)
    hi = np.minimum(lo + 1, n_in - 1)
    taps = (lo, hi, m[rows, lo], np.where(hi == lo, 0.0, m[rows, hi]))
    for a in taps:
        a.flags.writeable = False
    return taps


def _lerp(x: np.ndarray, taps, axis: int) -> np.ndarray:
    """Resample ``x`` along ``axis`` by two-tap rows ``(lo, hi, w_lo, w_hi)``:
    ``y[o] = w_lo[o]*x[lo[o]] + w_hi[o]*x[hi[o]]``, the nonzero terms of
    row ``o`` of the interpolation matrix."""
    lo, hi, w_lo, w_hi = taps
    shape = (-1,) + (1,) * (x.ndim - 1 - axis)
    y = np.take(x, lo, axis=axis)
    y *= w_lo.reshape(shape)
    far = np.take(x, hi, axis=axis)
    far *= w_hi.reshape(shape)
    y += far
    return y


def _lerp_adjoint(g: np.ndarray, taps, n_in: int, axis: int) -> np.ndarray:
    """Adjoint of ``_lerp`` along ``axis``: each input position sums the
    weighted cotangents of the runs of outputs that read it."""
    shape = (-1,) + (1,) * (g.ndim - 1 - axis)
    gx = np.zeros(g.shape[:axis] + (n_in,) + g.shape[axis + 1:])
    lead = (slice(None),) * axis
    lo, hi, w_lo, w_hi = taps
    for idx, wt in ((lo, w_lo), (hi, w_hi)):
        starts = np.flatnonzero(np.diff(idx, prepend=-1))   # idx never decreases
        gx[lead + (idx[starts],)] += np.add.reduceat(g * wt.reshape(shape), starts, axis=axis)
    return gx


def _upsample(x: Tensor, out_spatial: Sequence[int], name: str) -> Tensor:
    """Resize every spatial axis of [B,C,*spatial] to ``out_spatial``, one
    axis after another by the two taps of each interpolation-matrix row."""
    if x.ndim != 2 + len(out_spatial):
        raise ShapeError(f"{name} expects rank {2 + len(out_spatial)}, got {x.ndim}")
    if min(out_spatial) < 1:
        raise ShapeError(f"target extent < 1: {out_spatial}")
    taps = [_interp_taps(n_in, n) for n_in, n in zip(x.shape[2:], out_spatial)]
    y = x.data
    for i, t in enumerate(taps):
        y = _lerp(y, t, 2 + i)

    def bwd(g):
        for i in reversed(range(len(taps))):
            g = _lerp_adjoint(g, taps[i], x.shape[2 + i], 2 + i)
        accumulate_grad(x, g)

    return make_op(y, (x,), bwd)


def upsample_bilinear(x: Tensor, out_hw: Tuple[int, int]) -> Tensor:
    """Resize [B,C,H,W] to [B,C,*out_hw]."""
    return _upsample(x, out_hw, "upsample_bilinear")


def upsample_trilinear(x: Tensor, out_dhw: Tuple[int, int, int]) -> Tensor:
    """Resize [B,C,D,H,W] to [B,C,*out_dhw]."""
    return _upsample(x, out_dhw, "upsample_trilinear")


# -- softmax ------------------------------------------------------------------


def softmax_inplace(z: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``z`` along ``axis``, computed in ``z``'s own memory:
    subtract the maximum, exponentiate, divide by the sum. Returns ``z``."""
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def softmax_grad_inplace(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of the softmax input, ``y * (g - sum(g * y))``, given the
    softmax ``y`` and the output cotangent ``g``; computed in ``g``'s
    memory, which is returned."""
    g -= (g * y).sum(axis=axis, keepdims=True)
    g *= y
    return g


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    y = softmax_inplace(x.data.copy(), axis)
    return make_op(y, (x,), lambda g: accumulate_grad(x, softmax_grad_inplace(y, g.copy(), axis)))


# -- normalization ------------------------------------------------------------
#
# ``batch_norm`` is one recorded op, with the ReLU that follows it in the
# network fused in. The forward takes one deviation ``d = x - mean`` for
# both the variance (the same array ``np.var`` squares, so the statistics
# are bit-identical to ``np.var``'s) and ``xhat``, then normalises, scales,
# shifts and rectifies in ``d``'s memory. Backward keeps none of these
# input-sized arrays: it recomputes ``xhat`` from the input, its parent,
# and the ReLU mask from its own output (``relu(z) > 0`` exactly where
# ``z > 0``). The tape holds the input and the output only.

BN_MOMENTUM = 0.1   # weight of the batch statistics in the running buffers
BN_EPS = 1e-5       # added to the variance before the square root


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, mode: str,
               running_mean: Optional[np.ndarray] = None,
               running_var: Optional[np.ndarray] = None, relu: bool = False) -> Tensor:
    """Per-channel normalization over axis 1 of [B,C,*spatial], followed by
    a ReLU when ``relu`` is set.

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
        d = x.data - mean.reshape(bshape)
        var = np.square(d).sum(axis=red_axes) / n
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
        d = x.data - mean.reshape(bshape)

    std = np.sqrt(var + BN_EPS).reshape(bshape)
    d /= std                                    # xhat
    d *= gamma.data.reshape(bshape)
    d += beta.data.reshape(bshape)
    y = np.maximum(d, 0.0, out=d) if relu else d

    def bwd(g):
        if relu:
            g = g * (y > 0)
        want_x, want_gamma = needs_grad(x), needs_grad(gamma)
        g_sum = g.sum(axis=red_axes)
        if want_gamma or (want_x and mode == "train"):
            xhat = x.data - mean.reshape(bshape)
            xhat /= std
            gxhat = g * xhat
            gxhat_sum = gxhat.sum(axis=red_axes)
        if want_x:
            gs = gamma.data.reshape(bshape) / std
            if mode == "train":
                # gs * (g - mean(g) - xhat * mean(g * xhat)), in gxhat's memory
                xhat *= (gxhat_sum / n).reshape(bshape)
                gx = np.subtract(g, (g_sum / n).reshape(bshape), out=gxhat)
                gx -= xhat
                gx *= gs
                accumulate_grad(x, gx)
            else:
                accumulate_grad(x, gs * g)
        if want_gamma:
            accumulate_grad(gamma, gxhat_sum)
        if needs_grad(beta):
            accumulate_grad(beta, g_sum)

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
