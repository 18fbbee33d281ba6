"""Full stereo network: shared extractor, edge branch, pyramid fusion,
stacked hourglass aggregation with granular bottlenecks, and disparity
regression heads.

Parameters live in a flat name -> Tensor mapping partitioned by prefix:
``shared.`` (feature extractor used by both views and both tasks),
``edge.`` (depth-edge branch), ``disp.`` (disparity branch). Batch-norm
running statistics are non-gradient buffers that only ``update_buffers`` writes.

The stem's first 3-D conv, over the dual cost volume, is one call of
``stereo.cost_volume_conv`` (``pre_stem``). Outside training each
batch-norm is folded into the conv before it (``_conv_weights``).
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from . import ops, stereo
from .ops import ConvSpec, ShapeError
from .tensor import Tensor

PARTITIONS = ("shared", "edge", "disp")

# Forward modes: "train" and "stats" normalise with batch statistics,
# "infer" (and any other mode a building block is called with) with the
# running buffers, folded into the convs.
MODES = ("train", "stats", "infer")

# The extractor's two stride-2 stages: features and the cost volume are at
# 1/4 of the image resolution, and one disparity level spans 4 pixels.
DOWNSAMPLE = 4

# Stacked hourglass aggregation modules, each with its regression head; the
# loss weighs the three stage disparities d1, d2, d3.
STAGES = 3


@dataclass
class NetworkConfig:
    base_channels: int = 8
    d_max: int = 16
    groups: int = 4
    dilation_rates: Tuple[int, ...] = (1, 4, 8, 16)
    k_top: int = 4
    use_edge_branch: bool = True
    use_dedge_spp: bool = True
    norm_enabled: bool = True

    def __post_init__(self):
        self.dilation_rates = tuple(self.dilation_rates)
        for name in ("base_channels", "d_max", "groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.groups < 2:
            raise ValueError(f"granular convolution needs >= 2 groups, got {self.groups}")
        if not self.dilation_rates or min(self.dilation_rates) < 1:
            raise ValueError(f"dilation rates must be >= 1, got {self.dilation_rates}")
        if self.d_max % DOWNSAMPLE != 0:
            raise ValueError(f"d_max {self.d_max} not divisible by downsample {DOWNSAMPLE}")
        if self.base_channels % self.groups != 0:
            raise ValueError(
                f"base_channels {self.base_channels} not divisible by groups {self.groups}")
        if self.use_dedge_spp and not self.use_edge_branch:
            raise ValueError("edge-aware pyramid fusion needs the edge branch enabled")
        if self.k_top < 1:
            raise ValueError(f"k_top must be >= 1, got {self.k_top}")

    @property
    def d_levels(self) -> int:
        return self.d_max // DOWNSAMPLE


class ModelParams:
    """Named tensors plus non-gradient buffers, partitioned by prefix."""

    def __init__(self):
        self.tensors: Dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> None:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if name.split(".", 1)[0] not in PARTITIONS:
            raise ValueError(f"parameter {name!r} outside the known partitions")
        self.tensors[name] = t

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def get(self, name: str) -> Optional[Tensor]:
        return self.tensors.get(name)

    def trainable(self) -> Dict[str, Tensor]:
        return {n: t for n, t in self.tensors.items() if t.requires_grad}

    def partition(self, prefix: str) -> Dict[str, Tensor]:
        return {n: t for n, t in self.tensors.items() if n.startswith(prefix + ".")}

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def count(self) -> int:
        return sum(t.size for t in self.tensors.values() if t.requires_grad)


# -- initialization -----------------------------------------------------------


ParamSpec = Tuple[str, Tuple[int, ...], int]   # name, shape, Kaiming fan-in (0: fixed)

# Initial value of each tensor that is not drawn, by name suffix.
_FIXED_INIT = {"gamma": 1.0, "beta": 0.0, "rmean": 0.0, "rvar": 1.0, "b": 0.0}
BUFFER_SUFFIXES = ("rmean", "rvar")


def _conv_specs(name: str, cin: int, cout: int, k: int, nd: int = 2, norm: bool = False,
                transposed: bool = False) -> Iterator[ParamSpec]:
    """Weight, then batch-norm parameters and buffers, or else a bias.

    A transposed conv weight is laid out [Cin, Cout, k...]; it never gets a
    bias parameter: only a folded batch-norm gives ``ops.conv3d_transposed``
    a bias.
    """
    yield name + ".w", ((cin, cout) if transposed else (cout, cin)) + (k,) * nd, cin * k ** nd
    if norm:
        for suffix in ("gamma", "beta") + BUFFER_SUFFIXES:
            yield f"{name}.{suffix}", (cout,), 0
    elif not transposed:
        yield name + ".b", (cout,), 0


def _granular_specs(name: str, channels: int, groups: int) -> Iterator[ParamSpec]:
    """A 3x3x3 granular bank: group kernels ``.g{i}.w``, then ``.pw.w``."""
    specs = stereo.granular_kernel_specs(channels, channels, 3, groups, 3)
    for i, (shape, fan_in) in enumerate(specs):
        yield (f"{name}.g{i}.w" if i < groups - 1 else name + ".pw.w"), shape, fan_in


def _resblock_specs(name: str, cin: int, cout: int, stride: int,
                    norm: bool) -> Iterator[ParamSpec]:
    yield from _conv_specs(name + ".a", cin, cout, 3, norm=norm)
    yield from _conv_specs(name + ".b", cout, cout, 3, norm=norm)
    if stride != 1 or cin != cout:
        yield from _conv_specs(name + ".proj", cin, cout, 1, norm=norm)


def param_specs(cfg: NetworkConfig) -> Iterator[ParamSpec]:
    """Every parameter and buffer of the network, in creation order.

    A generator, so a caller that checks a file against a config stops
    reading it as soon as the two disagree, however large the config.
    """
    c = cfg.base_channels
    norm = cfg.norm_enabled

    # shared extractor
    yield from _conv_specs("shared.conv0", 3, c, 3, norm=norm)
    for i, stride in enumerate((2, 2, 1, 1), start=1):
        yield from _resblock_specs(f"shared.l{i}", c, c, stride, norm)

    # edge branch
    if cfg.use_edge_branch:
        for i in (1, 2, 3):
            yield from _conv_specs(f"edge.a{i}", c, 1, 1)
        yield from _resblock_specs("edge.l5", c, c, 1, norm)
        yield from _conv_specs("edge.l5_top", c, cfg.k_top, 1)
        for k in range(cfg.k_top):
            yield from _conv_specs(f"edge.cls{k}", 4, 1, 1)

    # pyramid fusion
    spp_in = c + (4 * cfg.k_top if cfg.use_dedge_spp else 0)
    branch_c = max(1, c // 2)
    for i in range(4):
        yield from _conv_specs(f"disp.spp.branch{i}", spp_in, branch_c, 1, norm=norm)
    fuse_in = c + spp_in + 4 * branch_c  # L2 skip + pooled input + branches
    yield from _conv_specs("disp.spp.fuse_a", fuse_in, 2 * c, 3, norm=norm)
    yield from _conv_specs("disp.spp.fuse_b", 2 * c, c, 1)

    # pre-hourglass 3-D stem over the dual cost volume (3 * C channels)
    yield from _conv_specs("disp.pre.a", 3 * c, c, 3, nd=3, norm=norm)
    yield from _conv_specs("disp.pre.b", c, c, 3, nd=3, norm=norm)

    # stacked aggregation modules and their regression heads
    for i in range(STAGES):
        a = f"disp.agm{i}"
        yield from _conv_specs(a + ".enc1", c, 2 * c, 3, nd=3, norm=norm)
        yield from _conv_specs(a + ".enc2", 2 * c, 2 * c, 3, nd=3, norm=norm)
        for j in range(len(cfg.dilation_rates)):
            yield from _granular_specs(f"{a}.bank{j}", 2 * c, cfg.groups)
        yield from _conv_specs(a + ".fuse", 2 * c, 2 * c, 1, nd=3, norm=norm)
        yield from _conv_specs(a + ".dec1", 2 * c, 2 * c, 3, nd=3, norm=norm, transposed=True)
        yield from _conv_specs(a + ".dec2", 2 * c, c, 3, nd=3, norm=norm, transposed=True)
        yield from _conv_specs(f"disp.out{i}.a", c, c, 3, nd=3, norm=norm)
        yield from _conv_specs(f"disp.out{i}.b", c, 1, 3, nd=3)


def init_params(cfg: NetworkConfig, seed: int) -> ModelParams:
    """Deterministic Kaiming-style initialization of every parameter."""
    rng = np.random.default_rng(seed)
    p = ModelParams()
    for name, shape, fan_in in param_specs(cfg):
        suffix = name.rsplit(".", 1)[1]
        if fan_in:
            p.add(name, stereo.kaiming(rng, shape, fan_in))
        else:
            p.add(name, Tensor(np.full(shape, _FIXED_INIT[suffix]),
                               requires_grad=suffix not in BUFFER_SUFFIXES))
    return p


# -- forward building blocks --------------------------------------------------
#
# In "train" and "stats" a batch-norm normalises with batch statistics. In
# any other mode it normalises with the running buffers, an affine map per
# output channel of the conv before it, so it is folded into that conv
# (Jacob et al., arXiv 1712.05877, section 3.2): the weight is scaled by
# s = gamma / sqrt(rvar + eps) along its output-channel axis, the bias is
# beta - rmean * s, and the ReLU runs in place; no batch-norm pass runs.
# The folded weight and bias are recorded ops on w, gamma and beta, built
# at every call, so a backward reaches all three and no folded weight
# outlives a weight update.


def _batch_statistics(mode: str) -> bool:
    return mode in ("train", "stats")


# Where "train"/"stats" batch-norms put their moments, open while ``forward`` runs.
_sink: contextvars.ContextVar = contextvars.ContextVar("batch_moments", default=None)
BN_MOMENTUM = 0.1   # weight of the batch statistics in the running buffers


def update_buffers(p: ModelParams, stats: Dict[str, list]) -> None:
    """Fold ``forward``'s ``out["stats"]`` into the running buffers, per
    layer in call order: ``r <- (1 - BN_MOMENTUM) * r + BN_MOMENTUM * s``."""
    for name, moments in stats.items():
        for mean, var in moments:
            for r, s in ((p[name + ".rmean"].data, mean), (p[name + ".rvar"].data, var)):
                r *= 1.0 - BN_MOMENTUM
                r += BN_MOMENTUM * s


def _conv_weights(p: ModelParams, name: str, mode: str,
                  out_axis: int = 0) -> Tuple[Tensor, Optional[Tensor]]:
    """The weight and bias (or None) that conv ``name`` runs with in
    ``mode``: its own, or with its batch-norm folded in. ``out_axis`` is
    the weight's output-channel axis (1 for a transposed conv)."""
    w, bias = p[name + ".w"], p.get(name + ".b")
    if name + ".gamma" not in p or _batch_statistics(mode):
        return w, bias
    scale = p[name + ".gamma"] * (1.0 / np.sqrt(p[name + ".rvar"].data + ops.BN_EPS))
    shape = [1] * w.ndim
    shape[out_axis] = -1
    return w * scale.reshape(shape), p[name + ".beta"] + scale * -p[name + ".rmean"].data


def _activate(p: ModelParams, name: str, y: Tensor, mode: str, relu: bool) -> Tensor:
    """What follows conv ``name``'s output ``y``: batch-norm on batch
    statistics, its moments to ``_sink``, when the layer has it and ``mode``
    takes them (fused with the ReLU), else the ReLU, in place, when ``relu``."""
    if name + ".gamma" in p and _batch_statistics(mode):
        sink = _sink.get()
        return ops.batch_norm(y, p[name + ".gamma"], p[name + ".beta"], relu=relu,
                              moments=None if sink is None else sink.setdefault(name, []))
    return y.relu_() if relu else y


def _conv_block(p: ModelParams, name: str, x: Tensor, mode: str, stride: int = 1,
                dilation: int = 1, relu: bool = True,
                output_size: Optional[Tuple[int, int, int]] = None) -> Tensor:
    """Conv padded by dilation*(k-1)//2, batch norm when the layer has it
    (folded into the conv outside "train"/"stats"), optional ReLU. The
    weight's rank picks the 2-D or the 3-D conv.

    With ``output_size`` the conv is the 3-D transposed conv that upsamples
    to that extent.
    """
    transposed = output_size is not None
    w, bias = _conv_weights(p, name, mode, out_axis=1 if transposed else 0)
    k = w.shape[-1]
    pad = dilation * (k - 1) // 2
    spec = ConvSpec(stride=stride, dilation=dilation, padding=pad)
    if transposed:
        y = ops.conv3d_transposed(x, w, bias, spec=spec, output_size=output_size)
    else:
        conv = ops.conv2d if w.ndim == 4 else ops.conv3d
        y = conv(x, w, bias, spec=spec)
    return _activate(p, name, y, mode, relu)


def _resblock(p: ModelParams, name: str, x: Tensor, mode: str,
              stride: int = 1, dilation: int = 1) -> Tensor:
    y = _conv_block(p, name + ".a", x, mode, stride=stride, dilation=dilation)
    y = _conv_block(p, name + ".b", y, mode, dilation=dilation, relu=False)
    skip = x
    if name + ".proj.w" in p:
        skip = _conv_block(p, name + ".proj", x, mode, stride=stride, relu=False)
    return (y + skip).relu()


# -- network stages -----------------------------------------------------------


def feature_extract(image: Tensor, p: ModelParams, mode: str) -> Dict[str, Tensor]:
    """Shared trunk; returns the taps needed downstream.

    Full-resolution stem, stride-2 at L1 and L2 (total x4), dilated
    resolution-preserving L3/L4.
    """
    if image.shape[2] % DOWNSAMPLE or image.shape[3] % DOWNSAMPLE:
        raise ShapeError(f"image extent {image.shape[2:]} not divisible by {DOWNSAMPLE}")
    t0 = _conv_block(p, "shared.conv0", image, mode)
    t1 = _resblock(p, "shared.l1", t0, mode, stride=2)
    t2 = _resblock(p, "shared.l2", t1, mode, stride=2)
    t3 = _resblock(p, "shared.l3", t2, mode, dilation=2)
    t4 = _resblock(p, "shared.l4", t3, mode, dilation=2)
    return {"shallow": t0, "half": t1, "F_L2": t2, "F_L4": t4}


def dedge_branch(taps: Dict[str, Tensor], p: ModelParams, cfg: NetworkConfig,
                 mode: str, with_head: bool) -> Tuple[Optional[Tensor], Tensor]:
    """Side features + top features -> (edge probability, 4K-channel map).

    ``with_head`` controls the per-group classifier; inference for
    disparity alone skips it.
    """
    hw = taps["F_L4"].shape[2:]
    sides = []
    for i, key in enumerate(("shallow", "half", "F_L2"), start=1):
        f = _conv_block(p, f"edge.a{i}", taps[key], mode, relu=False)
        if f.shape[2:] != hw:
            f = ops.upsample_bilinear(f, hw)
        sides.append(f)
    f5 = _resblock(p, "edge.l5", taps["F_L4"], mode, dilation=2)
    f5 = _conv_block(p, "edge.l5_top", f5, mode, relu=False)
    feats = stereo.shared_concat(f5, *sides)

    if not with_head:
        return None, feats
    logits = [
        _conv_block(p, f"edge.cls{k}", feats[:, 4 * k:4 * k + 4], mode, relu=False)
        for k in range(cfg.k_top)
    ]
    probs = ops.concat(logits, axis=1).sigmoid()
    prob = probs.max(axis=1, keepdims=True)
    full = (hw[0] * DOWNSAMPLE, hw[1] * DOWNSAMPLE)
    prob = ops.upsample_bilinear(prob, full)
    b = prob.shape[0]
    return prob.reshape(b, *full), feats


def dedge_spp(f_l2: Tensor, f_l4: Tensor, edge_feats: Optional[Tensor],
              p: ModelParams, mode: str) -> Tensor:
    """Pyramid pooling over L4 (optionally fused with edge features)."""
    x = f_l4 if edge_feats is None else ops.concat([f_l4, edge_feats], axis=1)
    h, w = x.shape[2:]
    branches = []
    for i, grid in enumerate((1, 2, 4, 8)):
        gh, gw = min(grid, h), min(grid, w)
        if h % gh or w % gw:
            raise ShapeError(f"extent {h}x{w} not divisible by pooling grid {grid}")
        pooled = ops.pool_avg2d(x, (h // gh, w // gw))
        reduced = _conv_block(p, f"disp.spp.branch{i}", pooled, mode)
        branches.append(ops.upsample_bilinear(reduced, (h, w)))
    fused = ops.concat([f_l2, x] + branches, axis=1)
    fused = _conv_block(p, "disp.spp.fuse_a", fused, mode)
    return _conv_block(p, "disp.spp.fuse_b", fused, mode, relu=False)


def pre_stem(f_left: Tensor, f_right: Tensor, p: ModelParams, cfg: NetworkConfig,
             mode: str) -> Tensor:
    """The 3-D stem over the dual cost volume of the fused features:
    ``disp.pre.a`` (``stereo.cost_volume_conv``, which builds the volume),
    then ``disp.pre.b`` with a residual."""
    w, bias = _conv_weights(p, "disp.pre.a", mode)
    y = stereo.cost_volume_conv(f_left, f_right, w, bias, cfg.d_levels)
    v = _activate(p, "disp.pre.a", y, mode, relu=True)
    return (_conv_block(p, "disp.pre.b", v, mode, relu=False) + v).relu()


def agm_module(volume: Tensor, p: ModelParams, prefix: str, cfg: NetworkConfig,
               mode: str) -> Tensor:
    """Hourglass aggregation with a parallel dilated granular bottleneck.

    Output shape equals input shape.
    """
    e1 = _conv_block(p, prefix + ".enc1", volume, mode, stride=2)
    e2 = _conv_block(p, prefix + ".enc2", e1, mode, stride=2)
    bank = None
    for j, rate in enumerate(cfg.dilation_rates):
        name = f"{prefix}.bank{j}"
        kernels = [p[f"{name}.g{i}.w"] for i in range(cfg.groups - 1)]
        y = stereo.granular_conv(e2, kernels, p[name + ".pw.w"], rate)
        bank = y if bank is None else bank + y
    mid = _conv_block(p, prefix + ".fuse", bank, mode)
    d1 = _conv_block(p, prefix + ".dec1", mid, mode, stride=2, relu=False,
                     output_size=e1.shape[2:])
    d1 = (d1 + e1).relu()
    d2 = _conv_block(p, prefix + ".dec2", d1, mode, stride=2, relu=False,
                     output_size=volume.shape[2:])
    return d2 + volume


def output_module(volume: Tensor, p: ModelParams, prefix: str,
                  out_hw: Tuple[int, int], d_max: int, mode: str) -> Tensor:
    """Two 3-D convolutions, then trilinear upsampling to ``(d_max,
    *out_hw)`` and soft-argmin as one op, ``stereo.regress_disparity``,
    which works in tiles of output rows and never holds the
    full-resolution cost."""
    y = _conv_block(p, prefix + ".a", volume, mode)
    y = _conv_block(p, prefix + ".b", y, mode, relu=False)
    return stereo.regress_disparity(y, d_max, tuple(out_hw))


def _view(image: Tensor, p: ModelParams, cfg: NetworkConfig, mode: str,
          edge: bool, head: bool) -> Tuple[Optional[Tensor], Tensor]:
    """Extractor, edge branch when ``edge`` (with its classifier when
    ``head``) and pyramid fusion for one view of each pair: ``(edge
    probability or None, fused features)``."""
    taps = feature_extract(image, p, mode)
    edge_prob = feats = None
    if edge:
        edge_prob, feats = dedge_branch(taps, p, cfg, mode, with_head=head)
    fused = dedge_spp(taps["F_L2"], taps["F_L4"], feats if cfg.use_dedge_spp else None,
                      p, mode)
    return edge_prob, fused


def forward(left: Tensor, right: Tensor, p: ModelParams, cfg: NetworkConfig,
            mode: str) -> Dict[str, object]:
    """Run the whole pipeline on a rectified pair; no tensor of ``p`` changes.

    ``"train"`` returns the disparities ``d1``-``d3`` (one per stage), the
    edge probability and ``"stats"``: each batch-norm's batch ``(mean, var)``
    per call (one ``_view`` per view), by layer in call order, for
    ``update_buffers``. ``"stats"`` returns that alone, stopping after the
    last batch-norm of each path. ``"infer"`` returns ``d3``, batch-norm on
    the running buffers folded into the convs. Every mode runs ``_view`` on
    the left view, then on the right, so batch statistics never mix them."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if left.shape != right.shape:
        raise ShapeError(f"pair shapes differ: {left.shape} vs {right.shape}")
    out_hw = left.shape[2:]
    stats = {} if _batch_statistics(mode) else None
    token = _sink.set(stats)
    try:
        # With batch statistics the left view's edge branch runs whenever the
        # network has one: its batch-norms need their moments, and "train"
        # its head. Otherwise it runs only for pyramid fusion to read.
        edge = cfg.use_edge_branch if _batch_statistics(mode) else cfg.use_dedge_spp
        edge_prob, fl = _view(left, p, cfg, mode, edge=edge, head=mode == "train")
        _, fr = _view(right, p, cfg, mode, edge=cfg.use_dedge_spp, head=False)
        v = pre_stem(fl, fr, p, cfg, mode)

        out: Dict[str, object] = {}
        for i in range(STAGES):
            v = agm_module(v, p, f"disp.agm{i}", cfg, mode)
            if mode == "stats":
                _conv_block(p, f"disp.out{i}.a", v, mode)
            elif mode == "train" or i == STAGES - 1:
                out[f"d{i + 1}"] = output_module(v, p, f"disp.out{i}", out_hw, cfg.d_max, mode)
    finally:
        _sink.reset(token)
    if edge_prob is not None:
        out["edge_prob"] = edge_prob
    return out if stats is None else dict(out, stats=stats)
