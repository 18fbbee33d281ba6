"""Per-layer tracing of edgedisp from outside the library.

The tracer replaces the module attributes that callers look up at call
time (``ops.conv3d``, ``network.agm_module``, ``trainer.predict``,
``Tensor.backward`` ...) with wrappers that record a span per call. A
layer that builds tape nodes also gets its backward time: every node the
call created has its ``_backward`` closure wrapped, so replaying the tape
charges that node to the layer that recorded it. Spans nest by the stack
of open spans, share one run id, stay in memory and are written out once.

Counters that repeat exactly (MACs, useful taps, padded-cotangent bytes,
tape size) are computed from shapes and strides, not measured.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from edgedisp import data, losses, network, ops, stereo, tensor, trainer

NETWORK_STAGES = ("feature_extract", "dedge_branch", "dedge_spp", "pre_stem",
                  "agm0", "agm1", "agm2", "output_module")

# Seconds per unit of work (training step, or predicted pair), summed over
# the traced loop: metric name -> span name.
PER_UNIT_SPANS = {
    **{f"ops.{op}.{d}_s": f"ops.{op}.{d}"
       for op in ("conv2d", "conv3d", "conv3d_transposed", "batch_norm", "upsample")
       for d in ("fwd", "bwd")},
    "stereo.build_cost_volume.fwd_s": "stereo.build_cost_volume.fwd",
    "stereo.build_cost_volume.bwd_s": "stereo.build_cost_volume.bwd",
    "stereo.granular_conv.fwd_s": "stereo.granular_conv.fwd",
    "stereo.granular_conv.bwd_s": "stereo.granular_conv.bwd",
    "stereo.soft_argmin.fwd_s": "stereo.soft_argmin.fwd",
    **{f"network.{st}.{d}_s": f"network.{st}.{d}"
       for st in NETWORK_STAGES for d in ("fwd", "bwd")},
    "losses.compute.fwd_s": "losses.compute.fwd",
    "losses.compute.bwd_s": "losses.compute.bwd",
    "trainer.backward_s": "tensor.backward",
    "trainer.adam_step_s": "trainer.adam_step",
    "trainer.recalibrate_s": "trainer.recalibrate_norm_stats",
    "trainer.evaluate_s": "trainer.evaluate_params",
    "data.batch_wait_s": "data.batch_wait",
}

# Median seconds per call, over set-up and loop.
PER_CALL_SPANS = {
    "trainer.save_checkpoint_s": "trainer.save_checkpoint",
    "trainer.load_checkpoint_s": "trainer.load_checkpoint",
    "data.load_sample_s": "data.load_sample",
    "data.synth_stereogram_s": "data.synth_stereogram",
    "data.save_sample_s": "data.save_sample",
    "losses.metrics_report_s": "losses.metrics_report",
}

MB = 1e6


def conv_counts(x_shape, w_shape, out_shape, spec, transposed):
    """Nominal MACs, taps per kernel, and taps that reach a real input.

    A tap is useful when, for at least one window position, it lands
    inside the unpadded input. Axes are independent, so the useful taps
    of a kernel are the product of the useful taps per axis. For the
    transposed conv the roles flip: input position o scatters to output
    o*stride + t*dilation - pad.
    """
    nd = len(w_shape) - 2
    stride, dilation, pad = spec.resolved(nd)
    kernel = w_shape[2:]
    positions, extent = ((x_shape[2:], out_shape[2:]) if transposed
                         else (out_shape[2:], x_shape[2:]))
    useful = 1
    for i in range(nd):
        o = np.arange(positions[i]) * stride[i] - pad[i]
        useful *= sum(
            bool(((o + t * dilation[i] >= 0) & (o + t * dilation[i] < extent[i])).any())
            for t in range(kernel[i]))
    taps = math.prod(kernel)
    macs = x_shape[0] * w_shape[0] * w_shape[1] * math.prod(positions) * taps
    return macs, taps, useful


def padded_cotangent_bytes(g_shape, w_shape, spec):
    """Bytes of the zero-stuffed, margin-padded array ``_corr_input_grad``
    builds from a cotangent of shape ``g_shape`` (float64)."""
    nd = len(w_shape) - 2
    stride, dilation, _ = spec.resolved(nd)
    spatial = [(g_shape[2 + i] - 1) * stride[i] + 1 + 2 * dilation[i] * (w_shape[2 + i] - 1)
               for i in range(nd)]
    return 8 * g_shape[0] * g_shape[1] * math.prod(spatial)


def tape_stats(roots):
    """Recorded ops reachable from ``roots`` and the bytes of their outputs.

    Bytes count each distinct buffer once (views share their base); the
    arrays that backward closures capture are not visible and not counted.
    """
    seen, bases = set(), {}
    nodes = 0
    stack = list(roots)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes += 1
            base = t.data
            while base.base is not None:
                base = base.base
            bases[id(base)] = base.nbytes
        stack.extend(t._parents)
    return nodes, sum(bases.values())


class Tracer:
    """Spans and counters for one traced run. ``install`` patches the
    library; ``uninstall`` restores every original attribute."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [id, name, start, end, parent id]
        self._open = []
        self._patched = []
        self.loop_start = 0
        self.counters = defaultdict(float)
        self.loop_samples = defaultdict(list)
        self.checkpoint_mb = []
        self._granular_depth = 0
        self._cv_end = None      # (time, tape id, span index) after build_cost_volume

    # -- spans ----------------------------------------------------------------

    def _begin(self, name):
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(sid)
        return sid

    def _end(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._open.pop()

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            sid = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(sid)
        return timed

    def mark_loop(self):
        """Start of the measured loop: per-unit metrics count from here."""
        self.loop_start = len(self.spans)
        self.counters.clear()
        self.loop_samples.clear()

    # -- tape -----------------------------------------------------------------

    @staticmethod
    def _last_id():
        return tensor.Tensor(0.0)._id

    @staticmethod
    def _roots(obj):
        if isinstance(obj, tensor.Tensor):
            return [obj]
        if isinstance(obj, dict):
            items = obj.values()
        elif isinstance(obj, (list, tuple)):
            items = obj
        elif isinstance(getattr(obj, "values", None), tensor.Tensor):
            return [obj.values]          # stereo.CostVolume
        else:
            return []
        return [t for x in items for t in Tracer._roots(x)]

    def _charge_backward(self, out, after_id, name):
        """Wrap the backward of every node created after ``after_id`` that
        ``out`` depends on; returns how many recorded nodes there were."""
        seen = set()
        stack = self._roots(out)
        n = 0
        while stack:
            t = stack.pop()
            if t._id <= after_id or id(t) in seen:
                continue
            seen.add(id(t))
            if t._backward is not None:
                t._backward = self._timed(name, t._backward)
                n += 1
            stack.extend(t._parents)
        return n

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _span_call(self, name):
        return lambda orig: self._timed(name, orig)

    def _layer_call(self, name, on_return=None):
        """fwd span around the call, bwd spans on the nodes it recorded."""
        def make(orig):
            timed = self._timed(name + ".fwd", orig)

            def call(*args, **kwargs):
                after = self._last_id()
                out = timed(*args, **kwargs)
                n = self._charge_backward(out, after, name + ".bwd")
                if on_return is not None:
                    on_return(out, n)
                return out
            return call
        return make

    def _op_call(self, name, conv=None):
        """A single-node op from ``ops``; convs also update the counters."""
        def make(orig):
            sig = inspect.signature(orig)
            timed = self._timed(name + ".fwd", orig)

            def call(*args, **kwargs):
                out = timed(*args, **kwargs)
                pad_bytes = 0
                if conv is not None:
                    pad_bytes = self._count_conv(sig.bind(*args, **kwargs), out, conv)
                if out._backward is not None:
                    bwd = self._timed(name + ".bwd", out._backward)
                    if pad_bytes:
                        def bwd(g, inner=bwd):
                            self.counters["conv.bwd_padded_bytes"] += pad_bytes
                            inner(g)
                    out._backward = bwd
                return out
            return call
        return make

    def _count_conv(self, bound, out, kind):
        bound.apply_defaults()
        x, w, spec = bound.arguments["x"], bound.arguments["w"], bound.arguments["spec"]
        transposed = kind == "transposed"
        macs, taps, useful = conv_counts(x.shape, w.shape, out.shape, spec, transposed)
        c = self.counters
        c["conv.calls"] += 1
        c["conv.macs"] += macs
        c["conv.useful_macs"] += macs * useful / taps
        if self._granular_depth and taps > 1:
            c["granular.taps"] += taps
            c["granular.useful_taps"] += useful
        if transposed:
            c["conv_t.fwd_padded_bytes"] += padded_cotangent_bytes(x.shape, w.shape, spec)
            return 0
        if not tensor.needs_grad(x):
            return 0
        return padded_cotangent_bytes(out.shape, w.shape, spec)

    def install(self):
        P = self._patch
        for op in ("conv2d", "conv3d"):
            P(ops, op, self._op_call(f"ops.{op}", conv="forward"))
        P(ops, "conv3d_transposed", self._op_call("ops.conv3d_transposed", conv="transposed"))
        P(ops, "batch_norm", self._op_call("ops.batch_norm"))
        P(ops, "upsample_bilinear", self._op_call("ops.upsample"))
        P(ops, "upsample_trilinear", self._op_call("ops.upsample"))

        def cv_done(out, n):
            self.loop_samples["stereo.build_cost_volume.tape_nodes"].append(n)
            self._cv_end = (time.perf_counter(), self._last_id(), len(self.spans))
        P(stereo, "build_cost_volume", self._layer_call("stereo.build_cost_volume", cv_done))
        P(stereo, "soft_argmin", self._layer_call("stereo.soft_argmin"))
        P(stereo, "granular_conv", self._granular)

        for st in ("feature_extract", "dedge_branch", "dedge_spp", "output_module"):
            P(network, st, self._layer_call(f"network.{st}"))
        P(network, "agm_module", self._agm)
        P(network, "forward", self._network_forward)
        P(tensor.Tensor, "backward", self._backward)

        P(trainer, "compute_losses", self._layer_call("losses.compute"))
        P(trainer, "_batch_arrays", self._span_call("data.batch_wait"))
        for fn in ("train", "predict", "adam_step", "recalibrate_norm_stats",
                   "evaluate_params", "load_checkpoint"):
            P(trainer, fn, self._span_call(f"trainer.{fn}"))
        P(trainer, "save_checkpoint", self._save_checkpoint)
        P(losses, "metrics_report", self._span_call("losses.metrics_report"))
        for fn in ("load_sample", "save_sample", "synth_stereogram", "depth_edge_gt"):
            P(data, fn, self._span_call(f"data.{fn}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- wrappers with extra bookkeeping --------------------------------------

    def _granular(self, orig):
        inner = self._layer_call("stereo.granular_conv")(orig)

        def call(*args, **kwargs):
            self._granular_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._granular_depth -= 1
        return call

    def _agm(self, orig):
        sig = inspect.signature(orig)
        stages = {}

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            stage = bound.arguments["prefix"].rsplit(".", 1)[-1]      # "agm0"
            if stage == "agm0" and self._cv_end is not None:
                self._pre_stem(bound.arguments["volume"])
            if stage not in stages:
                stages[stage] = self._layer_call(f"network.{stage}")(orig)
            return stages[stage](*args, **kwargs)
        return call

    def _pre_stem(self, volume):
        """The ops network.forward runs between the cost volume and agm0."""
        t_cv, id_cv, span_cv = self._cv_end
        self._cv_end = None
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        self.spans.append([sid, "network.pre_stem.fwd", t_cv, time.perf_counter(), parent])
        for s in self.spans[span_cv:sid]:
            if s[4] == parent:
                s[4] = sid
        self._charge_backward(volume, id_cv, "network.pre_stem.bwd")

    def _network_forward(self, orig):
        sig = inspect.signature(orig)
        timed = self._timed("network.forward", orig)

        def call(*args, **kwargs):
            out = timed(*args, **kwargs)
            if sig.bind(*args, **kwargs).arguments["mode"] == "infer":
                self._tape_sample("output", self._roots(out))
            return out
        return call

    def _backward(self, orig):
        timed = self._timed("tensor.backward", orig)

        def backward(t):
            self._tape_sample("loss", [t])
            return timed(t)
        return backward

    def _tape_sample(self, root, roots):
        nodes, nbytes = tape_stats(roots)
        self.loop_samples[f"tape.{root}"].append((nodes, nbytes / MB))

    def _save_checkpoint(self, orig):
        sig = inspect.signature(orig)
        timed = self._timed("trainer.save_checkpoint", orig)

        def call(*args, **kwargs):
            timed(*args, **kwargs)
            path = sig.bind(*args, **kwargs).arguments["path"]
            self.checkpoint_mb.append(os.path.getsize(path) / MB)
        return call

    # -- results --------------------------------------------------------------

    def _self_times(self):
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - child[s[0]] for s in self.spans]

    def metrics(self, units: int) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        loop = self.spans[self.loop_start:]
        names = {s[0]: s[1] for s in self.spans}
        total = defaultdict(float)
        for s in loop:
            total[s[1]] += s[3] - s[2]
        self_time = self._self_times()
        out = {m: (total[span] / units, "s") for m, span in PER_UNIT_SPANS.items()}
        out["tensor.backward.self_s"] = (
            sum(self_time[s[0]] for s in loop if s[1] == "tensor.backward") / units, "s")
        out["trainer.forward_s"] = (
            sum(s[3] - s[2] for s in loop if s[1] == "network.forward"
                and s[4] is not None and names[s[4]] == "trainer.train") / units, "s")
        for m, span in PER_CALL_SPANS.items():
            durations = [s[3] - s[2] for s in self.spans if s[1] == span]
            out[m] = (statistics.median(durations) if durations else 0.0, "s")
        out["trainer.checkpoint_mb"] = (
            statistics.median(self.checkpoint_mb) if self.checkpoint_mb else 0.0, "MB")
        # the graph behind the training loss where there is one, else the
        # graph behind the inference output
        tape = self.loop_samples["tape.loss"] or self.loop_samples["tape.output"] or [(0, 0.0)]
        out["tensor.tape_nodes"] = (statistics.median(n for n, _ in tape), "count")
        out["tensor.tape_mb"] = (statistics.median(mb for _, mb in tape), "MB")
        cv = self.loop_samples["stereo.build_cost_volume.tape_nodes"]
        out["stereo.build_cost_volume.tape_nodes"] = (statistics.median(cv) if cv else 0, "count")
        c = self.counters
        out["ops.conv.calls"] = (c["conv.calls"] / units, "count")
        out["ops.conv.macs"] = (c["conv.macs"] / units, "count")
        out["ops.conv.useful_tap_ratio"] = (
            c["conv.useful_macs"] / c["conv.macs"] if c["conv.macs"] else 0.0, "ratio")
        out["stereo.granular_conv.useful_tap_ratio"] = (
            c["granular.useful_taps"] / c["granular.taps"] if c["granular.taps"] else 0.0,
            "ratio")
        out["ops.conv.bwd_padded_mb"] = (c["conv.bwd_padded_bytes"] / MB / units, "MB")
        out["ops.conv3d_transposed.fwd_padded_mb"] = (
            c["conv_t.fwd_padded_bytes"] / MB / units, "MB")
        return out

    def span_table(self, units: int, top: int = 25):
        """Rows (path, calls, total s/unit, self s/unit) for the loop's spans,
        grouped by the chain of span names from the root, by self time."""
        names = {s[0]: s[1] for s in self.spans}
        parents = {s[0]: s[4] for s in self.spans}
        paths = {}

        def path(sid):
            if sid not in paths:
                p = parents[sid]
                paths[sid] = names[sid] if p is None else path(p) + " > " + names[sid]
            return paths[sid]

        self_time = self._self_times()
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans[self.loop_start:]:
            r = rows[path(s[0])]
            r[0] += 1
            r[1] += s[3] - s[2]
            r[2] += self_time[s[0]]
        ranked = sorted(rows.items(), key=lambda kv: -kv[1][2])[:top]
        return [(p, n, t / units, st / units) for p, (n, t, st) in ranked]

    def write(self, path: str, env: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as f:
            json.dump({"run_id": self.run_id, "env": env,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "loop_start": self.loop_start, "spans": self.spans},
                      f, separators=(",", ":"))
