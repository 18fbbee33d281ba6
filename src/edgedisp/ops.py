"""Structured array operations: convolutions, pooling, resampling, softmax.

Convolutions are cross-correlations (deep-learning convention) with
zero-fill padding. On each spatial axis, tap ``t`` reads the input
positions ``o*stride + t*dilation - pad`` that lie inside the input
(``_lands``).

Plan: every pass runs over one ``_Plan`` from ``_plan``, cached per input
channels, input extents, kernel, stride, dilation, padding and output
extents. From each axis's landings over every output, it keeps the taps
from the first to the last that read any. A tap outside the kept range
reads only zero padding: its products are exact zeros and its weight
gradient is exactly zero, so leaving it out removes only zero terms from
each sum. It cuts the output along its first spatial axis into blocks,
runs of whole rows (``_row_runs``) whose ``[Cin*K, N_block]`` column
matrix (K kept taps, N_block output positions of the block) fits
``_WORK_BUDGET`` bytes, and lists each block's moves: for each kept tap
that reads input on every axis for some output of the block, the input
slices it reads and the block's output slices that read them, from the
landings of the block's rows on the first axis and the shared landings of
the others. A pass's working memory is one block, not the whole
``[Cin*K, N]`` matrix. A forward pass's plan is keyed on its output
channels too, for the stacked layout below.

Gather (every pass): per sample, then per block, the block's kept taps
are copied from an array into its column matrix. One buffer per call,
zeroed once, serves every block and sample; before a block is refilled
over another block's columns, the rows its taps skip are zeroed again, so
the columns of taps that read padding stay zero. The forward pass runs one
GEMM ``[Cout, Cin*K] x [Cin*K, N_block]`` per sample and block, written
into the block's rows; the weight gradient adds ``gy_block [Cout,
N_block] x cols_blockᵀ`` in batch, then block order.

Stacked layout (forward passes, and so each phase of
``conv3d_transposed``'s forward): im2col copies each input row once per
kept tap of the first axis, k0 times, and the GEMM reads every copy. Where
the first axis has stride 1 and keeps k0 > 1 taps, the plan may instead
hold a ``_Stack``: the plan of kernel 1, stride 1 and padding 0 on the
first axis over the input rows the kept taps read, whose blocks are runs
of input rows. Per sample and block, it gathers ``[Cin*K_rest, N_block]``
columns over the other axes' taps only, runs one GEMM ``[k0*Cout,
Cin*K_rest] x [Cin*K_rest, N_block]`` with the first axis's taps stacked
on the weight's rows, and adds each tap's ``[Cout, rows]`` slab of
products into the output rows it feeds, in tap order, into an output
zeroed first (kn2row, Vasudevan et al., arXiv 1704.04428, along one axis;
MEC, Cho & Brand, arXiv 1706.06873, lowers along some axes the same way).
Each input row is gathered once. A block's columns and products together
fit half of ``_WORK_BUDGET``, so a stacked block is no larger than the
im2col block of the same pass. ``_stacks`` picks the layout from the
plan's shapes alone (Cin, Cout, the kept taps, the rows): where it moves
at least ``_STACK_GAIN`` bytes a sample fewer through the column matrix,
the products and the output than im2col. The stem conv (3 input
channels), the stride-2 encoders and the 1x4x4 bottleneck keep im2col;
the 3x3x3 convs over the volume, the heads and the SPP fuse stack.
``stereo.cost_volume_conv`` writes the same layout by hand for the cost
volume's concatenation channels, over depth levels. The weight
gradient, and the pass that gathers a cotangent for both gradients, stay
on im2col.

Phases (every input gradient, and the forward of ``conv3d_transposed``,
the input gradient of the conv it transposes): on each axis, input phase
``r`` (positions ``r, r+s, ...``) is read by the taps with ``t*d - p ≡ r
(mod s)``, a run of the kernel with step ``s/gcd(s,d)``. Its gradient is
the stride-1 correlation of the cotangent with those taps, flipped and
channel-swapped, at dilation ``d/gcd(s,d)``, left offset ``(t_last*d - p
- r)/s`` and ``ceil((n-r)/s)`` outputs (``_phases``; Shi et al., arXiv
1609.05158; Dumoulin & Visin, arXiv 1603.07285): the adjoint's MACs,
nothing zero-stuffed; a phase no tap reads gets exact zeros. Per phase,
one ``_corr_weight_grad`` gathers the cotangent once for the phase's
input gradient and, against the input phase, its taps' weight gradient.
Stride 1 is one phase, written straight into the input gradient; a
same-padded conv with as many input as output channels shares the
forward's plan. ``conv3d_transposed``'s backward gathers its cotangent
once, in the forward geometry.

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
The stacked layout sums each output as k0 partial GEMM sums added in tap
order, so its results differ from im2col's at round-off; an output row's
taps read input rows in tap order, so blocks of input rows add them in tap
order whatever the split, and its outputs too are the same bits alone or
in any batch, and under any budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


# -- plan, gather and phases --------------------------------------------------


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


# Bytes one run of rows may take: a conv block's column matrix or a
# regression tile's full-resolution cost (``stereo.regress_disparity``).
# The default network at 64x64 runs its largest column matrix (1.8 MB) as
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
    adds: tuple = ()           # stacked layout: (tap, block positions, output positions)


class _Plan(NamedTuple):
    out: Tuple[int, ...]       # output extent per spatial axis
    taps: Tuple[slice, ...]    # kept tap range per spatial axis
    kept: Tuple[int, ...]      # number of kept taps per spatial axis
    blocks: Tuple[_Block, ...]  # runs of whole output rows of the first spatial axis
    stack: Optional[_Stack] = None   # the stacked layout, when the pass takes it


class _Stack(NamedTuple):
    rows: slice                # the input rows some kept first-axis tap reads
    gather: _Plan              # their columns over the other axes' taps, in blocks


def _block(taps, lands, rows, out) -> _Block:
    """The moves of output rows ``rows = (r0, r1)`` of the first spatial
    axis, from ``lands``, each axis's landings: the block's rows on the
    first, every output on the others. For each kept tap, in row-major
    order, that reads input on every axis for some output of the block, a
    move pairs the index of what it reads in one sample ``[Cin,
    *in_spatial]`` with the index of its columns in the block's ``[Cin,
    *kept, r1 - r0, *out[1:]]``. ``clear`` lists, for each kept tap of the
    first axis, the rows of the block it does not land in, whose columns a
    reused buffer must zero again."""
    moves = []
    for tap in itertools.product(*(range(t.start, t.stop) for t in taps)):
        pick = [a.get(t) for a, t in zip(lands, tap)]
        if None not in pick:
            kept = tuple(t - r.start for t, r in zip(tap, taps))
            moves.append(((slice(None),) + tuple(i for i, _ in pick),
                          (slice(None),) + kept + tuple(o for _, o in pick)))
    lead = (slice(None),) * (len(taps) - 1)
    r0, r1 = rows
    n, first = r1 - r0, taps[0]
    clear = []
    for t in range(first.start, first.stop):
        o = lands[0][t][1] if t in lands[0] else slice(n, n)
        clear += [(slice(None), t - first.start) + lead + (slice(lo, hi),)
                  for lo, hi in ((0, o.start), (o.stop, n)) if lo < hi]
    return _Block(slice(r0, r1), (n,) + out[1:], tuple(moves), tuple(clear))


def _blocks(geom, lands, taps, out, row: int) -> Tuple[_Block, ...]:
    """The blocks of a plan, from the landings of every output on the
    axes after the first: runs of whole output rows of the first axis,
    ``row`` bytes each, that fit ``_WORK_BUDGET``."""
    return tuple(_block(taps, [_lands(*geom[0], *rows)] + lands, rows, out)
                 for rows in _row_runs(out[0], row))


def _read_rows(first: dict) -> slice:
    """The input rows that the taps of ``first``, one axis's landings at
    stride 1, read: one run."""
    return slice(min(a.start for a, _ in first.values()), max(a.stop for a, _ in first.values()))


# On the default network's passes the stacked layout was faster wherever
# it moved at least this many bytes a sample fewer than im2col, and tied
# or lost below: there its fixed costs (a weight transpose, a fill, an add
# per tap over short rows) ate what the gather saved.
_STACK_GAIN = 128 << 10


def _stacks(cin, cout, kept, stride, out, first) -> bool:
    """Whether a forward pass takes the stacked layout: its first axis
    has stride 1 and keeps more than one tap, and per sample it moves at
    least ``_STACK_GAIN`` bytes fewer through its working arrays and its
    output than im2col. Per output position, im2col writes and reads
    ``Cin*K`` column values and writes ``Cout`` outputs. Per position of
    the input rows that the kept taps read (``first``, the first axis's
    landings), the stacked layout writes and reads ``Cin*K_rest`` column
    values and writes ``k0*Cout`` products; per output position, each of
    the ``k0`` taps' adds reads ``Cout`` products and reads and writes
    ``Cout`` outputs. The reads of the input are not counted; so counted,
    the rule picked the faster layout, or one within a few percent, for
    every pass of the default network measured."""
    k0, rest = kept[0], cin * math.prod(kept[1:])
    if stride[0] != 1 or k0 < 2:
        return False
    rows = _read_rows(first)
    n, n_in = math.prod(out), (rows.stop - rows.start) * math.prod(out[1:])
    im2col = (2 * k0 * rest + cout) * n
    stacked = (2 * rest + k0 * cout) * n_in + 3 * k0 * cout * n
    return 8 * (im2col - stacked) >= _STACK_GAIN


def _stack(cin, cout, geom, lands, taps, kept, out) -> _Stack:
    """The stacked layout of a stride-1 first axis: the plan of kernel 1,
    stride 1 and padding 0 on the first axis over the input rows the kept
    taps read, in blocks whose columns and ``k0*Cout`` products per
    position fit half of ``_WORK_BUDGET``; each block lists, per kept
    first-axis tap in order, the positions of the block's rows whose
    products it adds and of the output rows it adds them to, as flat
    ranges.

    Half the budget keeps a stacked block no larger than the im2col block
    of the same pass: an im2col block of whole rows fills more than half
    the budget unless the whole pass or one row is smaller than that, and
    a row of a pass that ``_stacks`` picks is smaller stacked. Blocks of
    the whole budget raised the peak RSS of a 384x1248 predict above
    im2col's, and were no faster."""
    _, _, _, d, p = geom[0]
    m = math.prod(out[1:])
    rows = _read_rows(lands[0])
    lo, hi = rows.start, rows.stop
    g0 = (hi - lo, 1, 1, 1, 0)
    gout = (hi - lo,) + out[1:]
    gtaps, gkept = (slice(0, 1),) + taps[1:], (1,) + kept[1:]
    # each row's bytes counted twice: blocks fit half the budget
    row = 16 * (cin * math.prod(gkept) + kept[0] * cout) * m
    blocks = []
    for blk in _blocks([g0] + geom[1:], lands[1:], gtaps, gout, row):
        r0, r1 = blk.rows.start, blk.rows.stop
        adds = []
        for t in range(taps[0].start, taps[0].stop):
            off = t * d - p - lo   # output row o adds the products of block row o + off
            a, b = max(r0, off), min(r1, off + out[0])
            if a < b:
                adds.append((t - taps[0].start, slice((a - r0) * m, (b - r0) * m),
                             slice((a - off) * m, (b - off) * m)))
        blocks.append(blk._replace(adds=tuple(adds)))
    return _Stack(rows, _Plan(gout, gtaps, gkept, tuple(blocks)))


# A network at one image size needs a few dozen plans. A batch-4 train step
# of the default configuration at 64x64 holds 94 plans and 24 phase sets
# (a forward plan is keyed on its output channels too, so it is not shared
# with a backward pass); predict holds 45 plans at 128x256/d_max 32 and 45
# at 256x512/d_max 64.
# The bounds keep a service fed many image sizes finite. ``_WORK_BUDGET``
# is read when a plan is built, so a new budget reaches only new plans.
@functools.lru_cache(maxsize=256)
def _plan(cin: int, in_spatial, kernel, stride, dilation, pad, out, cout: int = 0) -> _Plan:
    """The plan of a pass over ``cin`` input channels with output extents
    ``out``: per axis, the kept tap range, from the first to the last tap
    that reads any input (``_lands`` over every output), and the blocks,
    runs of whole output rows of the first spatial axis whose ``[Cin*K,
    N]`` column matrix fits ``_WORK_BUDGET``. A forward pass names its
    ``cout``; when ``_stacks`` picks the stacked layout, the plan holds
    it in ``stack`` and no blocks of its own."""
    geom = list(zip(in_spatial, kernel, stride, dilation, pad))
    lands = [_lands(*g, 0, m) for g, m in zip(geom, out)]
    taps = tuple(slice(min(a), max(a) + 1) if a else slice(0, 0) for a in lands)
    kept = tuple(t.stop - t.start for t in taps)
    if cout and _stacks(cin, cout, kept, stride, out, lands[0]):
        return _Plan(out, taps, kept, (), _stack(cin, cout, geom, lands, taps, kept, out))
    row = 8 * cin * math.prod(kept) * math.prod(out[1:])
    return _Plan(out, taps, kept, _blocks(geom, lands[1:], taps, out, row))


def _kept_weight(w: np.ndarray, plan: _Plan) -> np.ndarray:
    """The kept taps of w, flattened to [w.shape[0], w.shape[1]*K]."""
    kept = w[(slice(None), slice(None)) + plan.taps]
    return kept.reshape(w.shape[0], w.shape[1] * math.prod(plan.kept))


def _gather(x: np.ndarray, plan: _Plan):
    """Per sample in batch order, then per block of ``plan``: the sample
    index, the block, and its ``[Cin*K, N_block]`` column matrix, in one
    buffer, zeroed once, that the next block overwrites. Refilling the
    block that filled it last rewrites the same positions; before another
    block of the same extents the rows its taps skip are zeroed, before a
    block of other extents the whole matrix."""
    cin, k = x.shape[1], math.prod(plan.kept)
    buf = np.zeros(cin * k * max(math.prod(blk.out) for blk in plan.blocks))
    last = None
    for b, xb in enumerate(x):
        for blk in plan.blocks:
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


def _rows(a: np.ndarray, b: int, blk: _Block) -> np.ndarray:
    """Sample ``b``'s rows of ``blk`` in ``a`` [B, C, *spatial] as a ``[C,
    N_block]`` view of whole first-axis rows, contiguous per channel."""
    return a[b, :, blk.rows].reshape(a.shape[1], math.prod(blk.out))


def _stacked_forward(x: np.ndarray, w: np.ndarray, plan: _Plan, y: np.ndarray) -> None:
    """The correlation of ``x`` with ``w`` into ``y`` by the stacked
    layout: per sample and block of input rows, one GEMM ``[k0*Cout,
    Cin*K_rest] x [Cin*K_rest, N_block]``, then each kept first-axis
    tap's ``[Cout, rows]`` slab of products added to the output rows it
    feeds, in tap order."""
    st, cout, k0 = plan.stack, w.shape[0], plan.kept[0]
    kept = w[(slice(None), slice(None)) + plan.taps]
    ws = kept.transpose((2, 0, 1) + tuple(range(3, w.ndim))).reshape(k0 * cout, -1)
    prods = np.empty(k0 * cout * max(math.prod(blk.out) for blk in st.gather.blocks))
    y.fill(0.0)
    for b, blk, cols in _gather(x[:, :, st.rows], st.gather):
        p = prods[:k0 * cout * cols.shape[1]].reshape(k0 * cout, -1)
        np.matmul(ws, cols, out=p)
        p = p.reshape(k0, cout, -1)
        yb = y[b].reshape(cout, -1)
        for j, src, dst in blk.adds:
            yb[:, dst] += p[j, :, src]


def _corr_forward(x: np.ndarray, w: np.ndarray, stride, dilation, pad,
                  y: Optional[np.ndarray] = None) -> np.ndarray:
    """Per sample and block, one GEMM ``[Cout, Cin*K] x [Cin*K, N_block]``
    over the kept taps, written into the block's rows of ``y`` or, by
    default, of a new array; or the stacked layout, when the plan holds
    it."""
    kernel = w.shape[2:]
    if y is None:
        y = np.empty((x.shape[0], w.shape[0]) + tuple(
            conv_out_extent(*a) for a in zip(x.shape[2:], kernel, stride, dilation, pad)))
    plan = _plan(x.shape[1], x.shape[2:], kernel, stride, dilation, pad, y.shape[2:], w.shape[0])
    if plan.stack is not None:
        _stacked_forward(x, w, plan, y)
        return y
    wk = _kept_weight(w, plan)
    for b, blk, cols in _gather(x, plan):
        np.matmul(wk, cols, out=_rows(y, b, blk))
    return y


def _corr_weight_grad(x: np.ndarray, gy: np.ndarray, kernel, stride, dilation, pad,
                      w: Optional[np.ndarray] = None,
                      y: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient of the ``[Cout, Cin, *kernel]`` weight of the correlation
    of ``x`` for the cotangent ``gy`` of its output: the sum over the
    batch, then the blocks, in order, of ``gy_block [Cout, N_block] x
    cols_blockᵀ``. With ``y``, the same columns also give the correlation
    of ``x`` with ``w``, written into ``y``."""
    plan = _plan(x.shape[1], x.shape[2:], kernel, stride, dilation, pad, gy.shape[2:])
    cout, cin = gy.shape[1], x.shape[1]
    wk = None if y is None else _kept_weight(w, plan)
    gk = np.zeros((cout, cin * math.prod(plan.kept)))
    for b, blk, cols in _gather(x, plan):
        gk += _rows(gy, b, blk) @ cols.T
        if y is not None:
            np.matmul(wk, cols, out=_rows(y, b, blk))
    gw = np.zeros((cout, cin) + kernel)
    gw[(slice(None), slice(None)) + plan.taps] = gk.reshape((cout, cin) + plan.kept)
    return gw


class _Phase(NamedTuple):
    at: tuple      # its input positions in [B, C, *spatial]: r::s per axis
    taps: tuple    # its taps in [Cout, Cin, *kernel], last first
    geom: tuple    # (kernel, stride, dilation, pad) of its correlation of the cotangent
    out: Tuple[int, ...]   # its number of input positions per axis


@functools.lru_cache(maxsize=256)
def _phases(in_spatial, kernel, stride, dilation, pad) -> tuple:
    """The phases of the input positions that some tap reads, in row-major
    order, each with its taps and the geometry of its correlation."""
    axes = []
    for n, k, s, d, p in zip(in_spatial, kernel, stride, dilation, pad):
        g = math.gcd(s, d)
        taps = [[t for t in range(k) if (t * d - p - r) % s == 0] for r in range(min(s, n))]
        axes.append([(slice(r, None, s), slice(t[-1], t[0] - 1 if t[0] else None, -(s // g)),
                      len(t), d // g, (t[-1] * d - p - r) // s, -(-(n - r) // s))
                     for r, t in enumerate(taps) if t])
    chan = (slice(None),) * 2
    return tuple(_Phase(chan + at, chan + taps, (k, (1,) * len(k), d, p), out)
                 for at, taps, k, d, p, out in (zip(*c) for c in itertools.product(*axes)))


def _input_grad(gy: np.ndarray, w: np.ndarray, stride, dilation, pad, in_spatial,
                x: Optional[np.ndarray] = None):
    """The input gradient of the correlation with ``w`` [Cout, Cin, *k] for
    the cotangent ``gy``, phase by phase; with the input ``x``, ``(gx,
    gw)``, the weight gradient from the same gathers."""
    phases = _phases(in_spatial, w.shape[2:], stride, dilation, pad)
    shape = (gy.shape[0], w.shape[1]) + in_spatial
    whole = len(phases) == 1 and phases[0].out == in_spatial
    gx = np.empty(shape) if whole else np.zeros(shape)
    gw = None if x is None else np.zeros(w.shape)
    for ph in phases:
        v = w[ph.taps].swapaxes(0, 1)
        part = gx if whole else np.empty(shape[:2] + ph.out)
        if x is None:
            _corr_forward(gy, v, *ph.geom[1:], part)
        else:
            gw[ph.taps] = _corr_weight_grad(gy, x[ph.at], *ph.geom, v, part).swapaxes(0, 1)
        if not whole:
            gx[ph.at] = part
    return gx if x is None else (gx, gw)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of [B, C, *spatial] over every other axis, from
    the contiguous ``[B, C, -1]`` rows: bit-identical to
    ``a.sum(axis=(0, 2, ...))``."""
    return a.reshape(a.shape[0], a.shape[1], -1).sum(axis=2).sum(axis=0)


def _check_conv_shapes(x: Tensor, w: Tensor, nd: int, cin_axis: int) -> None:
    """Ranks, and the input's channels against the weight's ``cin_axis``.
    Extents that leave no output raise in ``conv_out_extent`` when the
    forward derives its output extents."""
    if x.ndim != nd + 2:
        raise ShapeError(f"input must have rank {nd + 2}, got {x.ndim}")
    if w.ndim != nd + 2:
        raise ShapeError(f"weight must have rank {nd + 2}, got {w.ndim}")
    if x.shape[1] != w.shape[cin_axis]:
        raise ShapeError(
            f"channel axis mismatch: input has {x.shape[1]} channels, "
            f"weight expects {w.shape[cin_axis]}")


def _add_bias(y: np.ndarray, bias: Optional[Tensor]) -> np.ndarray:
    """``y`` [B, Cout, *spatial] plus ``bias`` per channel, in place."""
    if bias is not None:
        if bias.shape != y.shape[1:2]:
            raise ShapeError(f"bias shape {bias.shape} != ({y.shape[1]},)")
        y += bias.data.reshape((1, -1) + (1,) * (y.ndim - 2))
    return y


def _convnd(x: Tensor, w: Tensor, bias: Optional[Tensor], spec: ConvSpec, nd: int) -> Tensor:
    stride, dilation, pad = spec.resolved(nd)
    _check_conv_shapes(x, w, nd, cin_axis=1)
    y = _add_bias(_corr_forward(x.data, w.data, stride, dilation, pad), bias)
    parents = (x, w) if bias is None else (x, w, bias)

    def bwd(g):
        if needs_grad(x):
            gx, gw = _input_grad(g, w.data, stride, dilation, pad, x.shape[2:], x.data)
            accumulate_grad(x, gx)
        else:
            gw = _corr_weight_grad(x.data, g, w.shape[2:], stride, dilation, pad)
        accumulate_grad(w, gw)
        if bias is not None and needs_grad(bias):
            accumulate_grad(bias, _channel_sum(g))

    return make_op(y, parents, bwd)


def conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           spec: ConvSpec = ConvSpec()) -> Tensor:
    """Cross-correlate [B,Cin,H,W] with [Cout,Cin,kh,kw]."""
    return _convnd(x, w, bias, spec, 2)


def conv3d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           spec: ConvSpec = ConvSpec()) -> Tensor:
    """Cross-correlate [B,Cin,D,H,W] with [Cout,Cin,kd,kh,kw]."""
    return _convnd(x, w, bias, spec, 3)


def conv3d_transposed(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
                      spec: ConvSpec = ConvSpec(), *,
                      output_size: Tuple[int, int, int]) -> Tensor:
    """Adjoint of conv3d, plus ``bias`` per output channel when given;
    weight layout is [Cin, Cout, kd, kh, kw].

    ``output_size`` is the spatial result; with a stride several extents
    convolve back to the input's, so the caller names the one it wants.
    """
    stride, dilation, pad = spec.resolved(3)
    _check_conv_shapes(x, w, 3, cin_axis=0)
    kernel = w.shape[2:]
    output_size = tuple(output_size)
    if min(output_size) < 1:
        raise ShapeError(f"output_size {output_size} has an extent below 1")
    back = tuple(conv_out_extent(*a) for a in zip(output_size, kernel, stride, dilation, pad))
    if back != x.shape[2:]:
        raise ShapeError(f"output_size {output_size} convolves back to {back}, "
                         f"not to the input extents {x.shape[2:]}")
    y = _add_bias(_input_grad(x.data, w.data, stride, dilation, pad, output_size), bias)

    def bwd(g):
        gx = np.empty(x.shape) if needs_grad(x) else None
        accumulate_grad(w, _corr_weight_grad(g, x.data, kernel, stride, dilation, pad,
                                             w.data, gx))
        if gx is not None:
            accumulate_grad(x, gx)
        if bias is not None and needs_grad(bias):
            accumulate_grad(bias, _channel_sum(g))

    return make_op(y, (x, w) if bias is None else (x, w, bias), bwd)


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


class _Sparse(NamedTuple):
    """The nonzero entries of each row of a matrix, padded with zero
    weights to the longest row. Read-only."""
    cols: np.ndarray       # [n_rows, L] column of each entry, in column order
    weights: np.ndarray    # [n_rows, L] its value, 0 for padding


def _sparse(m: np.ndarray) -> _Sparse:
    """The sparse rows of ``m`` [n_rows, n_cols]: each row's nonzero
    columns in order, then its first zero columns as padding, to the
    longest row (at least one entry)."""
    nz = m != 0.0
    width = max(int(nz.sum(axis=1).max(initial=0)), 1)
    cols = np.argsort(~nz, axis=1, kind="stable")[:, :width].copy()
    table = _Sparse(cols, np.take_along_axis(m, cols, axis=1))
    for a in table:
        a.flags.writeable = False
    return table


# A resize is the sparse rows of its interpolation matrix ``m``; its
# backward is the sparse rows of ``m.T``.
@functools.lru_cache(maxsize=256)
def _resize(n_in: int, n_out: int) -> Tuple[_Sparse, _Sparse]:
    """The tables of ``_interp_matrix(n_in, n_out)`` and of its transpose."""
    m = _interp_matrix(n_in, n_out)
    return _sparse(m), _sparse(m.T)


# A regression head cuts its output rows into a few tiles per image size.
# The cache keeps a tile's tables from being rebuilt at every call.
@functools.lru_cache(maxsize=256)
def _resize_rows(n_in: int, n_out: int, r0: int, r1: int) -> Tuple[slice, _Sparse, _Sparse]:
    """For the output rows ``[r0, r1)`` of ``_interp_matrix(n_in, n_out)``:
    the input rows they read, and the tables of their block of the matrix
    and of its transpose."""
    m = _interp_matrix(n_in, n_out)[r0:r1]
    cols = np.flatnonzero(m.any(axis=0))
    reads = slice(cols[0], cols[-1] + 1)
    return reads, _sparse(m[:, reads]), _sparse(m[:, reads].T)


def _apply(x: np.ndarray, table: _Sparse, axis: int) -> np.ndarray:
    """The product of the matrix of ``table`` with ``x`` along ``axis``.
    Rows of at most two entries (every forward resize) sum term by term;
    longer rows (the adjoint of an upsampling) are gathered once and
    contracted with ``einsum``."""
    n, width = table.cols.shape
    if width <= 2:
        shape = (-1,) + (1,) * (x.ndim - 1 - axis)
        y = np.take(x, table.cols[:, 0], axis=axis)
        y *= table.weights[:, 0].reshape(shape)
        for k in range(1, width):
            t = np.take(x, table.cols[:, k], axis=axis)
            t *= table.weights[:, k].reshape(shape)
            y += t
        return y
    v = np.take(x, table.cols.ravel(), axis=axis)
    v = v.reshape(x.shape[:axis] + (n, width) + x.shape[axis + 1:])
    s = "abcdefgh"[:x.ndim + 1]
    return np.einsum(f"{s},{s[axis:axis + 2]}->{s[:axis + 1]}{s[axis + 2:]}", v, table.weights)


def _upsample(x: Tensor, out_spatial: Sequence[int], name: str) -> Tensor:
    """Resize every spatial axis of [B,C,*spatial] to ``out_spatial``, one
    axis after another by the sparse rows of its interpolation matrix;
    backward, by those of the transposes, in the same axis order."""
    if x.ndim != 2 + len(out_spatial):
        raise ShapeError(f"{name} expects rank {2 + len(out_spatial)}, got {x.ndim}")
    if min(out_spatial) < 1:
        raise ShapeError(f"target extent < 1: {out_spatial}")
    tables = [_resize(n_in, n) for n_in, n in zip(x.shape[2:], out_spatial)]
    y = x.data
    for i, (fwd, _) in enumerate(tables):
        y = _apply(y, fwd, 2 + i)

    def bwd(g):
        for i, (_, adj) in enumerate(tables):
            g = _apply(g, adj, 2 + i)
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
# network fused in. It normalises with batch statistics and hands them back
# (``moments``): the network folds them into its running buffers, and those
# into the conv before each batch-norm outside training
# (``network.update_buffers``, ``network._conv_weights``). The forward takes one
# deviation ``d = x - mean`` for both the variance (the same array
# ``np.var`` squares, so the statistics are bit-identical to ``np.var``'s)
# and ``xhat``, then normalises, scales, shifts and rectifies in ``d``'s
# memory. Backward keeps none of these input-sized arrays: it recomputes
# ``xhat`` from the input, its parent, and the ReLU mask from its own
# output (``relu(z) > 0`` exactly where ``z > 0``). The tape holds the
# input and the output only. Every per-channel sum, forward and backward,
# is ``_channel_sum``.

BN_EPS = 1e-5       # added to the variance before the square root


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, relu: bool = False,
               moments: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None) -> Tensor:
    """Per-channel normalization over axis 1 of [B,C,*spatial] with batch
    statistics, followed by a ReLU when ``relu`` is set. The batch's
    per-channel ``(mean, var)`` is appended to ``moments`` when given.
    """
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    bshape = (1, c) + (1,) * (x.ndim - 2)
    n = x.size // c
    if n <= 1:
        raise ShapeError("batch statistics are degenerate: one value per channel")
    mean = _channel_sum(x.data) / n
    d = x.data - mean.reshape(bshape)
    var = _channel_sum(np.square(d)) / n
    if moments is not None:
        moments.append((mean, var))

    std = np.sqrt(var + BN_EPS).reshape(bshape)
    d /= std                                    # xhat
    d *= gamma.data.reshape(bshape)
    d += beta.data.reshape(bshape)
    y = np.maximum(d, 0.0, out=d) if relu else d

    def bwd(g):
        if relu:
            g = g * (y > 0)
        want_x, want_gamma = needs_grad(x), needs_grad(gamma)
        g_sum = _channel_sum(g)
        if want_gamma or want_x:
            xhat = x.data - mean.reshape(bshape)
            xhat /= std
            gxhat = g * xhat
            gxhat_sum = _channel_sum(gxhat)
        if want_x:
            # gs * (g - mean(g) - xhat * mean(g * xhat)), in gxhat's memory
            gs = gamma.data.reshape(bshape) / std
            xhat *= (gxhat_sum / n).reshape(bshape)
            gx = np.subtract(g, (g_sum / n).reshape(bshape), out=gxhat)
            gx -= xhat
            gx *= gs
            accumulate_grad(x, gx)
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
