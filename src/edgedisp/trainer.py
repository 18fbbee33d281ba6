"""Optimization loop, checkpoint format, and evaluation driver."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cpus, losses, network
from . import data as ddata
from .losses import LossWeights
from .network import ModelParams, NetworkConfig
from .tensor import Tensor, no_grad

CHECKPOINT_MAGIC = b"DAGM"
CHECKPOINT_VERSION = 1


# -- Adam ---------------------------------------------------------------------

ADAM_BETA1 = 0.9    # decay of the first-moment estimate
ADAM_BETA2 = 0.999  # decay of the second-moment estimate
ADAM_EPS = 1e-8     # added to the root of the second moment


@dataclass
class OptimizerState:
    """Bias-corrected Adam accumulators, keyed like the parameter dict."""

    lr: float = 1e-3
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place update of each tensor that holds a ``.grad``, which it
    then clears; tensors without one are skipped. Missing accumulators are
    created lazily."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g, p.grad = p.grad, None
        if g is None:
            continue
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# -- checkpoint format --------------------------------------------------------
#
# magic "DAGM", version u32 LE, tensor count u32 LE, then per tensor:
# name length u16 LE, UTF-8 name, rank u8, extents u32 LE each,
# payload float32 LE row-major. Config scalars and optimizer state are
# stored as reserved "__cfg__." / "__opt__." entries; the reader ignores
# reserved entries it does not know, such as the "__cfg__.downsample",
# "__cfg__.pointwise_bias", "__cfg__.n_agm" and "__opt__.beta1/beta2/eps"
# of older files.
# Every value must be finite in float32; ``save_checkpoint`` refuses
# others before it opens the file.


class CheckpointError(ValueError):
    pass


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    with np.errstate(over="ignore"):    # an overflow is named below
        arr = np.asarray(arr, dtype="<f4")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"non-finite float32 value in {name!r}")
    head = struct.pack("<H", len(nb)) + nb + struct.pack("B", arr.ndim)
    head += b"".join(struct.pack("<I", n) for n in arr.shape)
    return head + arr.tobytes()


def _config_entries(cfg: NetworkConfig) -> Dict[str, np.ndarray]:
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            out[f"__cfg__.{f.name}"] = np.asarray(v, dtype=np.float64)
        else:
            out[f"__cfg__.{f.name}"] = np.asarray(float(v))
    return out


def _config_from_entries(entries: Dict[str, np.ndarray]) -> NetworkConfig:
    kwargs = {}
    for f in dataclasses.fields(NetworkConfig):
        key = f"__cfg__.{f.name}"
        if key not in entries:
            raise CheckpointError(f"checkpoint has no config entry {key!r}")
        arr = entries[key]
        is_tuple = isinstance(getattr(NetworkConfig, f.name, None), tuple)
        if arr.ndim != (1 if is_tuple else 0) or not (arr == np.trunc(arr)).all():
            raise CheckpointError(f"config entry {key!r} is not an integer "
                                  f"{'list' if is_tuple else 'scalar'}: {arr}")
        if is_tuple:
            kwargs[f.name] = tuple(int(x) for x in arr)
        elif f.type == "bool":
            kwargs[f.name] = bool(arr)
        else:
            kwargs[f.name] = int(arr)
    try:
        return NetworkConfig(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from None


def save_checkpoint(params: ModelParams, state: Optional[OptimizerState],
                    path: str, cfg: NetworkConfig) -> None:
    entries: Dict[str, np.ndarray] = {}
    entries.update(_config_entries(cfg))
    for name, t in params.tensors.items():
        entries[name] = t.data
    if state is not None:
        entries["__opt__.step"] = np.asarray(float(state.step))
        entries["__opt__.lr"] = np.asarray(state.lr)
        for name, arr in state.m.items():
            entries[f"__opt__.m.{name}"] = arr
        for name, arr in state.v.items():
            entries[f"__opt__.v.{name}"] = arr
    head = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(entries))
    blob = b"".join([head] + [_pack_tensor(name, arr) for name, arr in entries.items()])
    # Written beside ``path`` and renamed onto it: a process killed while
    # writing leaves the previous checkpoint whole.
    part = os.fspath(path) + ".part"
    try:
        with open(part, "wb") as f:
            f.write(blob)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _read_exact(raw: bytes, pos: int, n: int, what: str) -> Tuple[bytes, int]:
    if pos + n > len(raw):
        raise CheckpointError(f"truncated checkpoint while reading {what} at byte {pos}")
    return raw[pos:pos + n], pos + n


def load_checkpoint(path: str) -> Tuple[ModelParams, Optional[OptimizerState], NetworkConfig]:
    """Read a checkpoint and check its tensor names and shapes against its config."""
    params, state, cfg = _read_checkpoint(path)
    # A config that asks for more tensors than the file holds stops here.
    limit = len(params.tensors) + 1
    expected = {n: shape for n, shape, _ in itertools.islice(network.param_specs(cfg), limit)}
    missing = set(expected) - set(params.tensors)
    extra = set() if len(expected) == limit else set(params.tensors) - set(expected)
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match its config: missing {sorted(missing)[:3]}, "
            f"unexpected {sorted(extra)[:3]}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"checkpoint does not match its config: {name!r} has shape "
                f"{params[name].shape}, expected {shape}")
    return params, state, cfg


def _read_checkpoint(path: str) -> Tuple[ModelParams, Optional[OptimizerState], NetworkConfig]:
    """Parse a checkpoint file; ``load_checkpoint`` also checks it against its config."""
    with open(path, "rb") as f:
        raw = f.read()
    chunk, pos = _read_exact(raw, 0, 4, "magic")
    if chunk != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad magic {chunk!r}, expected {CHECKPOINT_MAGIC!r}")
    chunk, pos = _read_exact(raw, pos, 8, "header")
    version, count = struct.unpack("<II", chunk)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    entries: Dict[str, np.ndarray] = {}
    for _ in range(count):
        chunk, pos = _read_exact(raw, pos, 2, "name length")
        (nlen,) = struct.unpack("<H", chunk)
        chunk, pos = _read_exact(raw, pos, nlen, "name")
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name {chunk!r} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        chunk, pos = _read_exact(raw, pos, 1, "rank")
        rank = chunk[0]
        shape = []
        for _ in range(rank):
            chunk, pos = _read_exact(raw, pos, 4, "extent")
            shape.append(struct.unpack("<I", chunk)[0])
        n = math.prod(shape)
        chunk, pos = _read_exact(raw, pos, 4 * n, f"payload of {name!r}")
        try:
            entries[name] = np.frombuffer(chunk, dtype="<f4").astype(np.float64).reshape(shape)
        except ValueError as exc:    # more axes than numpy supports
            raise CheckpointError(f"tensor {name!r} of rank {rank}: {exc}") from None
        if not np.isfinite(entries[name]).all():
            raise CheckpointError(f"non-finite value in {name!r}")

    cfg = _config_from_entries(entries)
    params = ModelParams()
    state = None
    if "__opt__.step" in entries:
        lr, step = entries.get("__opt__.lr"), entries["__opt__.step"]
        if lr is None or lr.ndim or step.ndim or step != np.trunc(step):
            raise CheckpointError("optimizer state needs a scalar __opt__.lr and an "
                                  "integer __opt__.step")
        state = OptimizerState(lr=float(lr), step=int(step))
    for name, arr in entries.items():
        if name.startswith("__cfg__."):
            continue
        if name.startswith("__opt__."):
            if state is not None and name.startswith("__opt__.m."):
                state.m[name[len("__opt__.m."):]] = arr.copy()
            elif state is not None and name.startswith("__opt__.v."):
                state.v[name[len("__opt__.v."):]] = arr.copy()
            continue
        buffer = name.rsplit(".", 1)[-1] in network.BUFFER_SUFFIXES
        try:
            params.add(name, Tensor(arr.copy(), requires_grad=not buffer))
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None
    return params, state, cfg


# -- training -----------------------------------------------------------------


@dataclass
class TrainConfig:
    seed: int = 0
    batch_size: int = 4
    steps: int = 300
    lr_schedule: Tuple[Tuple[int, float], ...] = (
        (0, 1e-3), (150, 5e-4), (200, 2.5e-4), (250, 1.25e-4))
    loss_weights: LossWeights = field(default_factory=LossWeights)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    data_dir: str = "data/train"
    val_dir: Optional[str] = None
    eval_interval: int = 50
    out_dir: str = "run"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch size must be >= 1 and steps >= 0")
        if self.network.norm_enabled and self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 with norm_enabled, got {self.batch_size}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if not self.lr_schedule:
            raise ValueError("lr_schedule must have at least one breakpoint")
        starts = [s for s, _ in self.lr_schedule]
        if starts != sorted(set(starts)) or starts[0] != 0:
            raise ValueError("lr_schedule breakpoints must start at 0 and strictly increase")
        for _, lr in self.lr_schedule:
            if not (math.isfinite(lr) and lr > 0):
                raise ValueError(f"lr_schedule rates must be finite and > 0, got {lr}")


def _lr_at(schedule, step: int) -> float:
    lr = schedule[0][1]
    for start, value in schedule:
        if step >= start:
            lr = value
    return lr


def _load_dataset(directory: str) -> List[ddata.StereoSample]:
    indices = ddata.list_samples(directory)
    if not indices:
        raise FileNotFoundError(f"no samples found in {directory!r}")
    return [ddata.load_sample(directory, i) for i in indices]


def _views(samples: Sequence[ddata.StereoSample], idx: Sequence[int]):
    """The left and right views of ``samples[i]`` for ``i`` in ``idx``,
    each stacked into one [B, 3, H, W] tensor."""
    return (Tensor(np.stack([samples[i].left.data for i in idx])),
            Tensor(np.stack([samples[i].right.data for i in idx])))


def _batch_arrays(samples: Sequence[ddata.StereoSample], idx: Sequence[int],
                  flip_rng: Optional[np.random.Generator] = None):
    """Views, disparity, valid mask and depth-edge map of a training batch,
    each sample flipped vertically by ``flip_rng``. The edge maps are mined
    from each sample's masks by ``data.depth_edge_gt``."""
    left, right = _views(samples, idx)
    disp = np.stack([samples[i].disparity.data for i in idx])
    valid = np.stack([samples[i].valid for i in idx])
    edges = np.stack([ddata.depth_edge_gt(samples[i].instance, samples[i].semantic)
                      for i in idx])
    if flip_rng is not None:
        # vertical flips keep the epipolar geometry (disparity is horizontal)
        for b in np.nonzero(flip_rng.uniform(size=len(idx)) < 0.5)[0]:
            for a in (left.data, right.data, disp, valid, edges):
                a[b] = a[b, ..., ::-1, :]
    return left, right, disp, valid, edges


def compute_losses(outputs: Dict[str, Tensor], disp: np.ndarray, valid: np.ndarray,
                   edges: np.ndarray, w: LossWeights,
                   cfg: NetworkConfig) -> Dict[str, Tensor]:
    """Loss components for one training batch."""
    l_disp = losses.disp_loss(
        [outputs["d1"], outputs["d2"], outputs["d3"]], disp, valid, w)
    parts = {"l_disp": l_disp}
    if cfg.use_edge_branch:
        parts["l_edge"] = losses.edge_loss(outputs["edge_prob"], edges)
        parts["l_dedge"] = losses.dedge_disp_smoothness(outputs["d3"], edges, w.gamma)
    parts["total"] = losses.total_loss(l_disp, parts.get("l_edge"), parts.get("l_dedge"), w)
    return parts


def _norm_stats(params: ModelParams, net: NetworkConfig,
                samples: Sequence[ddata.StereoSample], batch_size: int, seed: int,
                batches: int) -> List[Dict[str, list]]:
    """The batch-norm statistics of ``batches`` training batches, from
    untaped ``"stats"`` forwards, in batch order; none without batch-norm."""
    if not net.norm_enabled:
        return []
    rng = np.random.default_rng(seed)
    n = min(batch_size, len(samples))
    draws = (rng.choice(len(samples), size=n, replace=False) for _ in range(batches))
    with no_grad():
        return [network.forward(*_views(samples, idx), params, net, "stats")["stats"]
                for idx in draws]


def recalibrate_norm_stats(params: ModelParams, net: NetworkConfig,
                           samples: Sequence[ddata.StereoSample],
                           batch_size: int, seed: int,
                           batches: int = 16) -> List[Dict[str, list]]:
    """Pull the batch-norm running buffers, which lag fast-moving weights,
    onto ``batches`` training batches: their statistics (``_norm_stats``)
    are folded into the buffers in batch order, as taped training forwards
    would fold them. Returns the statistics it folded."""
    stats = _norm_stats(params, net, samples, batch_size, seed, batches)
    for s in stats:
        network.update_buffers(params, s)
    return stats


def _validate(params: ModelParams, state: OptimizerState, cfg: TrainConfig,
              samples: Sequence[ddata.StereoSample],
              val_samples: Sequence[ddata.StereoSample], step: int,
              best_epe: float, best_path: str):
    """Recalibrate on 8 batches, evaluate on ``val_samples`` and save a
    checkpoint to ``best_path`` when the EPE beats ``best_epe``. Returns
    the step, the folded statistics and the report."""
    stats = recalibrate_norm_stats(params, cfg.network, samples, cfg.batch_size,
                                   cfg.seed + step, batches=8)
    report = evaluate_params(params, cfg.network, val_samples)
    if report["epe"] < best_epe:
        save_checkpoint(params, state, best_path, cfg.network)
    return step, stats, report


def _flush(held: list, params: ModelParams, log) -> None:
    """Fold each held step's batch statistics and write its log line, in
    step order."""
    for stats, line in held:
        network.update_buffers(params, stats)
        log.write(line)
    held.clear()


def _join(validation: cpus.Child, held: list, params: ModelParams, log,
          best_epe: float) -> float:
    """Join ``validation`` and apply its outcome as the serial loop
    would have: fold its batch statistics, then the held steps'; write its
    log line, then theirs. Returns the best EPE so far."""
    step, stats, report = validation.join()
    if validation.forked:    # inline, the validation folded its statistics itself
        for s in stats:
            network.update_buffers(params, s)
    log.write(json.dumps({"step": step, "val": report}) + "\n")
    _flush(held, params, log)
    return report["epe"] if report["epe"] < best_epe else best_epe


@cpus.one_blas_thread()
def train(cfg: TrainConfig) -> Dict[str, object]:
    """Deterministic training run; writes JSONL log plus best/last checkpoints."""
    samples = _load_dataset(cfg.data_dir)
    if cfg.steps and cfg.network.norm_enabled and len(samples) < 2:
        raise ValueError(f"training directory {cfg.data_dir!r} holds {len(samples)} sample; "
                         "batch statistics need at least 2 with network.norm_enabled")
    extents = sorted({s.disparity.shape for s in samples})
    if len(extents) > 1:
        raise ValueError(f"training directory {cfg.data_dir!r} holds samples of extent "
                         f"{extents[0]} and {extents[1]}; a batch stacks one extent")
    val_samples = _load_dataset(cfg.val_dir) if cfg.val_dir else None
    os.makedirs(cfg.out_dir, exist_ok=True)
    params = network.init_params(cfg.network, cfg.seed)
    state = OptimizerState(lr=_lr_at(cfg.lr_schedule, 0))
    rng = np.random.default_rng(cfg.seed)
    flip_rng = np.random.default_rng(cfg.seed + 1)

    log_path = os.path.join(cfg.out_dir, "log.jsonl")
    best_path = os.path.join(cfg.out_dir, "best.ckpt")
    last_path = os.path.join(cfg.out_dir, "last.ckpt")
    best_epe = np.inf
    # one permutation of the training set after another, drawn as needed
    pairs = itertools.chain.from_iterable(
        rng.permutation(len(samples)).tolist() for _ in itertools.count())

    # Each validation runs on a snapshot forked at its step (``cpus.Child``)
    # while training goes on: training forwards read no running buffer. Until
    # it is joined, the steps' batch statistics and log lines are held.
    # ``pending`` holds the validation not yet joined, if any; it is popped
    # before its join, so no validation is joined twice.
    pending, held = [], []
    with open(log_path, "w") as log:
        try:
            for step in range(1, cfg.steps + 1):
                state.lr = _lr_at(cfg.lr_schedule, step - 1)
                idx = list(itertools.islice(pairs, cfg.batch_size))
                left, right, disp, valid, edges = _batch_arrays(samples, idx, flip_rng)
                outputs = network.forward(left, right, params, cfg.network, "train")
                parts = compute_losses(outputs, disp, valid, edges,
                                       cfg.loss_weights, cfg.network)
                record = {k: v.item() for k, v in parts.items()}
                if not all(np.isfinite(v) for v in record.values()):
                    raise RuntimeError(
                        f"non-finite loss at step {step}: {json.dumps(record)}")
                parts["total"].backward()
                adam_step(params.trainable(), state)
                entry = {"step": step, "lr": state.lr}
                entry.update(record)
                held.append((outputs["stats"], json.dumps(entry) + "\n"))
                # Nothing else of this step is needed again: free its outputs
                # and loss parts before validation or the next forward.
                del outputs, parts
                if not pending:
                    _flush(held, params, log)

                if val_samples and (step % cfg.eval_interval == 0 or step == cfg.steps):
                    if pending:
                        best_epe = _join(pending.pop(), held, params, log, best_epe)
                    pending.append(cpus.Child(functools.partial(
                        _validate, params, state, cfg, samples, val_samples, step,
                        best_epe, best_path)))
            final_stats = (_norm_stats(params, cfg.network, samples, cfg.batch_size,
                                       cfg.seed, 16) if cfg.steps else [])
            if pending:
                best_epe = _join(pending.pop(), held, params, log, best_epe)
        except Exception:
            # The running validation is let finish (8 forwards and one
            # evaluation): its best.ckpt is then whole, and the log ends as
            # the serial loop's would have.
            if pending:
                _join(pending.pop(), held, params, log, best_epe)
            raise
        finally:
            for validation in pending:    # still running only on an interrupt
                validation.close()
    for s in final_stats:
        network.update_buffers(params, s)
    save_checkpoint(params, state, last_path, cfg.network)
    if best_epe == np.inf:    # no validation report of this run wrote one
        save_checkpoint(params, state, best_path, cfg.network)
    result = {"log": log_path, "best": best_path, "last": last_path}
    if val_samples:
        result["val"] = evaluate_params(params, cfg.network, val_samples)
    return result


# -- evaluation ---------------------------------------------------------------


# Validation pairs per inference forward: larger batches save little
# per-call overhead and hold more activations at once.
EVAL_BATCH = 8


@cpus.one_blas_thread()
def predict_batch(params: ModelParams, cfg: NetworkConfig,
                  samples: Sequence[ddata.StereoSample]) -> List[np.ndarray]:
    """Inference-mode disparities for samples of one image size, in one
    untaped forward. Each equals ``predict`` of its sample bit for bit:
    eval-mode batch-norm and every contraction act per sample. Raises
    ValueError when weights that overflow the forward pass leave a
    non-finite disparity."""
    left, right = _views(samples, range(len(samples)))
    # overflowing weights are named by the check below, not by numpy warnings
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        disp = network.forward(left, right, params, cfg, "infer")["d3"].data
    bad = int(np.count_nonzero(~np.isfinite(disp)))
    if bad:
        raise ValueError(f"non-finite disparity at {bad} of {disp.size} pixels")
    return list(disp)


def predict(params: ModelParams, cfg: NetworkConfig,
            sample: ddata.StereoSample) -> np.ndarray:
    """Inference-mode disparity for one sample."""
    return predict_batch(params, cfg, [sample])[0]


@cpus.one_blas_thread()
def evaluate_params(params: ModelParams, cfg: NetworkConfig,
                    samples: Sequence[ddata.StereoSample]) -> Dict[str, float]:
    """Aggregate metrics with all valid pixels pooled across the set.

    Consecutive samples of one image size are predicted together, up to
    ``EVAL_BATCH`` per forward.
    """
    preds = []
    for _shape, group in itertools.groupby(samples, key=lambda s: s.left.shape):
        group = list(group)
        for i in range(0, len(group), EVAL_BATCH):
            preds.extend(d.ravel() for d in predict_batch(params, cfg, group[i:i + EVAL_BATCH]))
    return losses.metrics_report(
        np.concatenate(preds),
        np.concatenate([s.disparity.data.ravel() for s in samples]),
        np.concatenate([s.valid.ravel() for s in samples]))


def evaluate(checkpoint_path: str, dataset_dir: str) -> Dict[str, float]:
    params, _state, cfg = load_checkpoint(checkpoint_path)
    return evaluate_params(params, cfg, _load_dataset(dataset_dir))


def zero_disparity_baseline(samples: Sequence[ddata.StereoSample]) -> float:
    """EPE of always predicting zero: the mean valid ground-truth disparity."""
    total, count = 0.0, 0
    for s in samples:
        mask = s.valid.astype(bool)
        total += float(s.disparity.data[mask].sum())
        count += int(mask.sum())
    return total / count
