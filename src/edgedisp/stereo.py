"""Stereo-specific building blocks.

Granular convolution (channel groups chained through a hierarchical
residual), the dual cost volume (feature concatenation stacked with
per-channel absolute differences), the stem's conv of the volume's
concatenation channels computed from the two feature maps without the
volume, soft-argmin disparity regression
(alone, and fused with the trilinear upsampling of the heads),
shared concatenation of edge features, the parameter-count bookkeeping
that motivates the granular form, and the Kaiming initialiser every
convolution weight of the network is drawn with.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import ops
from .ops import ConvSpec, ShapeError
from .tensor import Tensor, accumulate_grad, make_op, needs_grad


# -- granular convolution -----------------------------------------------------


def granular_conv(x: Tensor, kernels: Sequence[Tensor], pointwise: Tensor,
                  dilation: int) -> Tensor:
    """Hierarchical grouped convolution over 2 or 3 spatial axes.

    The input channels split into G = len(kernels) + 1 groups; group 1
    passes through, each later group is convolved together with the
    previous group's output (same-padded, dilated), and a pointwise
    convolution fuses the concatenation. Group kernels are
    [C/G, C/G, s(,s),s]; the pointwise kernel is [Cout, C, 1(,1),1].
    """
    nd = x.ndim - 2
    if nd not in (2, 3):
        raise ShapeError(f"granular_conv supports 2 or 3 spatial axes, got {nd}")
    g = len(kernels) + 1
    if g < 2:
        raise ShapeError(f"granular convolution needs >= 2 groups, got {g}")
    c = x.shape[1]
    if c % g != 0:
        raise ShapeError(f"channel count {c} not divisible by {g} groups")
    cg = c // g
    conv = ops.conv2d if nd == 2 else ops.conv3d
    for i, w in enumerate(kernels):
        if w.ndim != nd + 2 or w.shape[0] != cg or w.shape[1] != cg:
            raise ShapeError(
                f"group kernel {i} has shape {w.shape}, expected "
                f"[{cg}, {cg}, ...] with {nd} spatial axes")
    s = kernels[0].shape[2]
    if s % 2 != 1:
        raise ShapeError(f"same padding needs odd kernel size, got {s}")
    spec = ConvSpec(stride=1, dilation=dilation, padding=dilation * (s - 1) // 2)

    groups = [x[:, i * cg:(i + 1) * cg] for i in range(g)]
    outs = [groups[0]]
    for i in range(1, g):
        outs.append(conv(groups[i] + outs[-1], kernels[i - 1], spec=spec))
    merged = ops.concat(outs, axis=1)
    return conv(merged, pointwise)


def granular_param_count(c_in: int, c_out: int, s: int, groups: int,
                         spatial_rank: int = 2) -> int:
    """Weight element count of the channel-preserving granular form."""
    if groups < 2:
        raise ShapeError(f"granular form is undefined for G={groups}")
    if c_in != c_out:
        raise ShapeError("channel-preserving form requires c_in == c_out")
    if c_in % groups != 0:
        raise ShapeError(f"channels {c_in} not divisible by {groups}")
    cg = c_in // groups
    return cg * cg * s ** spatial_rank * (groups - 1) + c_out * c_out


def standard_param_count(c_in: int, c_out: int, s: int, spatial_rank: int = 2) -> int:
    return c_in * c_out * s ** spatial_rank


def kaiming(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> Tensor:
    """He-normal weights, std sqrt(2 / fan_in)."""
    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    # round through float32 so checkpoints reproduce the values bit-exactly
    return Tensor(w.astype(np.float32).astype(np.float64), requires_grad=True)


def granular_kernel_specs(c_in: int, c_out: int, s: int, groups: int,
                          spatial_rank: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Shape and Kaiming fan-in of each group kernel, then of the pointwise
    kernel: the order ``granular_conv`` takes them and the network draws them."""
    cg = c_in // groups
    for _ in range(groups - 1):
        yield (cg, cg) + (s,) * spatial_rank, cg * s ** spatial_rank
    yield (c_out, c_in) + (1,) * spatial_rank, c_in


# -- cost volumes -------------------------------------------------------------


def build_cost_volume(f_left: Tensor, f_right: Tensor, d_levels: int) -> Tensor:
    """Dual cost volume [B, 3C, D, H, W], recorded as one op.

    Channels [:C] hold the left features, [C:2C] the right features
    shifted right by the level d (zero where x < d), and [2C:] their
    per-channel absolute difference.
    """
    if f_left.shape != f_right.shape:
        raise ShapeError(f"feature shapes differ: {f_left.shape} vs {f_right.shape}")
    if f_left.ndim != 4:
        raise ShapeError(f"features must be [B,C,H,W], got rank {f_left.ndim}")
    if d_levels < 1:
        raise ShapeError(f"d_levels must be >= 1, got {d_levels}")
    b, c, h, w = f_left.shape
    shifts = range(min(d_levels, w))   # a shift of w or more leaves only zeros
    y = np.zeros((b, 3 * c, d_levels, h, w))
    y[:, :c] = f_left.data[:, :, None]
    for d in shifts:
        y[:, c:2 * c, d, :, d:] = f_right.data[..., :w - d]
    y[:, 2 * c:] = np.abs(y[:, :c] - y[:, c:2 * c])

    def bwd(g):
        g_dist = g[:, 2 * c:] * np.sign(y[:, :c] - y[:, c:2 * c])
        if needs_grad(f_left):
            accumulate_grad(f_left, g[:, :c].sum(axis=2) + g_dist.sum(axis=2))
        if needs_grad(f_right):
            g_shift = g[:, c:2 * c] - g_dist
            gr = np.zeros(f_right.shape)
            for d in shifts:
                gr[..., :w - d] += g_shift[:, :, d, :, d:]
            accumulate_grad(f_right, gr)

    return make_op(y, (f_left, f_right), bwd)


def _depth_stacked(w: np.ndarray) -> np.ndarray:
    """[Cout, Cin, 3, kh, kw] -> [3*Cout, Cin, kh, kw], row ``kd*Cout + o``."""
    return w.transpose(2, 0, 1, 3, 4).reshape((-1,) + w.shape[1:2] + w.shape[3:])


def concat_volume_conv(f_left: Tensor, f_right: Tensor, w: Tensor, d_levels: int,
                       base: Optional[Tensor] = None) -> Tensor:
    """``base`` (when given) plus the same-padded 3x3x3 conv of the
    concatenation channels of the dual cost volume with ``w`` [Cout, 2C,
    3, 3, 3]: ``ops.conv3d(build_cost_volume(f_left, f_right,
    d_levels)[:, :2C], w, spec=ConvSpec(padding=1))``, as one recorded op
    that never builds the volume.

    Its work is linear in the two 2-D feature maps. The left block holds
    ``f_left`` at every level, so its conv is one 2-D conv of ``f_left``
    with the three depth taps stacked on the output channels, and level
    ``d`` sums the taps ``kd`` whose level ``d' = d+kd-1`` lies in ``[0,
    D)``. The right block at level ``d'`` holds ``f_right`` shifted right
    by ``d'`` and cut at the volume's right edge, so tap ``kd`` at column
    ``x`` is the 2-D conv of ``f_right`` at column ``x-d'``, read from one
    conv padded by 2 on the left, whose W+1 first columns are ``x-d' = -1
    .. W-1`` (columns further left read only zeros), less one correction
    at ``x = W-1``: there the ``kw=2`` taps read the volume's zero padding
    but ``f_right[W-d']`` in the 2-D conv. Levels ``d' >= W`` hold only
    zeros. Backward sums the cotangent
    back onto the three 2-D results and takes the input and weight
    gradients of each 2-D conv from one gather (``ops._input_grad``).
    """
    if f_left.shape != f_right.shape:
        raise ShapeError(f"feature shapes differ: {f_left.shape} vs {f_right.shape}")
    if f_left.ndim != 4:
        raise ShapeError(f"features must be [B,C,H,W], got rank {f_left.ndim}")
    if d_levels < 1:
        raise ShapeError(f"d_levels must be >= 1, got {d_levels}")
    b, c, h, wd = f_left.shape
    if w.shape[1:] != (2 * c, 3, 3, 3):
        raise ShapeError(f"weight shape {w.shape} is not [Cout, {2 * c}, 3, 3, 3]")
    cout = w.shape[0]
    shape = (b, cout, d_levels, h, wd)
    if base is not None and base.shape != shape:
        raise ShapeError(f"base shape {base.shape} != {shape}")
    m = min(d_levels, wd) - 1     # the levels d' = 1..m need a correction
    one = (1, 1)
    # The 2-D convs: (features, the columns they read, their slice of the
    # depth-stacked weight, padding): the left block; the right block from
    # x-d' = -1; the corrections, the kw=2 taps over the columns W-m..W-1.
    convs = [(f_left, np.s_[...], np.s_[:, :c], (1, 1)),
             (f_right, np.s_[...], np.s_[:, c:], (1, 2)),
             (f_right, np.s_[..., wd - m:], np.s_[:, c:, :, 2:], (1, 0))][:3 if m else 2]
    # (level, depth tap, the right-block level d' it reads) with d' in [0, m]
    reads = [(d, kd, d + kd - 1) for d in range(d_levels) for kd in range(3)
             if 0 <= d + kd - 1 <= m]

    ws = _depth_stacked(w.data)
    left, right, *edge = [     # no correction conv when m = 0
        ops._corr_forward(f.data[at], ws[taps], one, one, pad).reshape(b, 3, cout, h, -1)
        for f, at, taps, pad in convs]
    y = np.zeros(shape) if base is None else base.data.copy()
    y += left[:, 1, :, None]
    y[:, :, 1:] += left[:, 0, :, None]
    y[:, :, :-1] += left[:, 2, :, None]
    for d, kd, dp in reads:
        x0 = max(0, dp - 1)
        y[:, :, d, :, x0:] += right[:, kd, ..., x0 - dp + 1:wd - dp + 1]
        if dp:
            y[:, :, d, :, wd - 1] -= edge[0][:, kd, ..., m - dp]

    def bwd(g):
        if base is not None:
            accumulate_grad(base, g)
        g_left = np.stack([g[:, :, 1:].sum(axis=2), g.sum(axis=2), g[:, :, :-1].sum(axis=2)],
                          axis=1)
        g_right = np.zeros((b, 3, cout, h, wd + 2))
        g_edge = np.zeros((b, 3, cout, h, m))
        for d, kd, dp in reads:
            x0 = max(0, dp - 1)
            g_right[:, kd, ..., x0 - dp + 1:wd - dp + 1] += g[:, :, d, :, x0:]
            if dp:
                g_edge[:, kd, ..., m - dp] -= g[:, :, d, :, wd - 1]
        ws = _depth_stacked(w.data)
        g_ws = np.zeros(ws.shape)
        for (f, at, taps, pad), gp in zip(convs, (g_left, g_right, g_edge)):
            x, gp = f.data[at], gp.reshape(b, 3 * cout, h, -1)
            if needs_grad(f):
                gx, gw = ops._input_grad(gp, ws[taps], one, one, pad, x.shape[2:], x)
                whole = np.zeros(f.shape)
                whole[at] = gx
                accumulate_grad(f, whole)
            else:
                gw = ops._corr_weight_grad(x, gp, ws[taps].shape[2:], one, one, pad)
            g_ws[taps] += gw
        accumulate_grad(w, g_ws.reshape((3, cout) + g_ws.shape[1:]).transpose(1, 2, 0, 3, 4))

    parents = (f_left, f_right, w) if base is None else (f_left, f_right, w, base)
    return make_op(y, parents, bwd)


# -- disparity regression -----------------------------------------------------


def soft_argmin(cost: Tensor) -> Tensor:
    """Expected disparity under softmax(-cost) along the disparity axis.

    ``cost`` is [B,1,D,H,W] at full resolution; the result is [B,H,W] in
    [0, D-1] and differentiable, built from recorded ops: negate,
    ``ops.softmax`` over the levels, weight by the level index, sum.
    """
    if cost.ndim != 5:
        raise ShapeError(f"cost must be rank 5, got {cost.ndim}")
    if cost.shape[1] != 1:
        raise ShapeError(f"cost must be single-channel, got {cost.shape[1]}")
    b, _, d, h, w = cost.shape
    prob = ops.softmax(-cost.reshape(b, d, h, w), axis=1)
    levels = Tensor(np.arange(d, dtype=np.float64).reshape(1, d, 1, 1))
    return (prob * levels).sum(axis=1)


# ``regress_disparity`` takes the softmax of the negated cost over the
# disparity levels in place and sums the levels in order, ``p[:,0]*0 +
# p[:,1]*1 + ...`` (``_expected_level``); backward maps the disparity's
# cotangent to the cost's through the same probabilities (``_cost_grad``).


def _expected_level(p: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of ``p`` weighted by the level index, level by level."""
    y = p[:, 0] * 0.0
    for k in range(1, p.shape[1]):
        y += p[:, k] * float(k)
    return y


def _cost_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cotangent of the cost [B,D,...] given the probabilities ``p`` =
    softmax(-cost) over axis 1 and the cotangent ``g`` [B,...] of the
    expected level; in a new array."""
    levels = np.arange(p.shape[1], dtype=np.float64).reshape((1, -1) + (1,) * (p.ndim - 2))
    gp = g[:, None] * levels
    return np.negative(ops.softmax_grad_inplace(p, gp, axis=1), out=gp)


def regress_disparity(cost: Tensor, d_max: int, out_hw: Tuple[int, int]) -> Tensor:
    """``soft_argmin(ops.upsample_trilinear(cost, (d_max, *out_hw)))`` as one
    recorded op that never holds the full-resolution cost.

    ``cost`` is the low-resolution [B,1,D,H,W] cost; the result is the
    [B,*out_hw] disparity in [0, d_max-1]. The output rows run in tiles
    whose [B, d_max, rows, W] full-resolution cost fits
    ``ops._WORK_BUDGET`` bytes. Each tile reads only the low-resolution rows
    its rows interpolate from and resamples them along H and W from the two
    nonzero taps of each row of the interpolation matrices (a dense matrix
    would cost W/4 products per output at real widths); its H taps, for
    forward and backward, are ``ops._taps`` of its block of the H matrix,
    the tile's rows and the columns they read. It then resamples along D by
    one GEMM per sample with the D matrix (D is d_max/4 levels; a gather
    was slower), and takes the softmax and the expected level in place.
    Backward keeps only the tiles' taps: it recomputes each tile's
    probabilities from the low-resolution cost, its parent, and adds the
    tile's resampled cotangent into the rows it read (recompute for
    memory, Chen et al., arXiv 1604.06174). A tile's working memory is
    about three tiles. The result agrees with the chain of the two ops to
    float64 round-off, not bit for bit: the chain resamples D first and by
    two taps, the tile last and by a GEMM.
    """
    if cost.ndim != 5:
        raise ShapeError(f"cost must be rank 5, got {cost.ndim}")
    if cost.shape[1] != 1:
        raise ShapeError(f"cost must be single-channel, got {cost.shape[1]}")
    h, w = out_hw
    if min(d_max, h, w) < 1:
        raise ShapeError(f"target extent < 1: {(d_max, h, w)}")
    b, _, dl, hl, wl = cost.shape
    md = ops._interp_matrix(dl, d_max)
    # softmax(-cost): the D resampling takes the negated matrix, which
    # negates every product and so every sum exactly.
    neg_md = -md
    taps_w = ops._interp_taps(wl, w)
    mh = ops._interp_matrix(hl, h)
    lo, hi = ops._interp_taps(hl, h)[:2]
    tiles = []
    for r0, r1 in ops._row_runs(h, 8 * b * d_max * w):
        a, z = lo[r0], hi[r1 - 1] + 1     # the low-resolution rows the tile reads
        tiles.append((slice(r0, r1), slice(a, z), ops._taps(mh[r0:r1, a:z])))

    def probabilities(rows, taps_h):
        c = ops._lerp(ops._lerp(cost.data[:, 0, :, rows], taps_h, axis=2), taps_w, axis=3)
        c = (neg_md @ c.reshape(b, dl, -1)).reshape(b, d_max, -1, w)
        return ops.softmax_inplace(c, axis=1)

    y = np.empty((b, h, w))
    for out_rows, rows, taps_h in tiles:
        y[:, out_rows] = _expected_level(probabilities(rows, taps_h))

    def bwd(g):
        gc = np.zeros((b, dl, hl, wl))
        for out_rows, rows, taps_h in tiles:
            gt = _cost_grad(probabilities(rows, taps_h), g[:, out_rows])
            gt = (md.T @ gt.reshape(b, d_max, -1)).reshape(b, dl, -1, w)
            gt = ops._lerp_adjoint(gt, taps_h, axis=2)
            gc[:, :, rows] += ops._lerp_adjoint(gt, taps_w, axis=3)
        accumulate_grad(cost, gc.reshape(cost.shape))

    return make_op(y, (cost,), bwd)


# -- shared concatenation -----------------------------------------------------


def shared_concat(f5: Tensor, f1: Tensor, f2: Tensor, f3: Tensor) -> Tensor:
    """Interleave each top-feature channel with the full side-feature triple.

    Layout: {F5(1), F1, F2, F3, F5(2), F1, F2, F3, ...} -> 4K channels.
    """
    k = f5.shape[1]
    if k < 1:
        raise ShapeError("top feature map needs at least one channel")
    for name, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        if f.shape[1] != 1:
            raise ShapeError(f"{name} must be single-channel, got {f.shape[1]}")
        if f.shape[2:] != f5.shape[2:]:
            raise ShapeError(
                f"{name} spatial extent {f.shape[2:]} != top feature {f5.shape[2:]}")
    pieces = []
    for i in range(k):
        pieces.extend([f5[:, i:i + 1], f1, f2, f3])
    return ops.concat(pieces, axis=1)
