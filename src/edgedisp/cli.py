"""Command-line pipeline: gen-data, gen-gt, train, eval, infer.

Machine-readable results go to stdout, diagnostics to stderr. Exit code
0 on success; 2 for usage errors and every handled failure (ValueError,
FileNotFoundError, RuntimeError: bad input, bad config, a non-finite loss
or disparity); 1 for any other OS error. Flag precedence is defaults <
--config JSON file < explicit flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from typing import Dict, Optional

import numpy as np

from . import data as ddata
from . import losses, network, trainer
from .losses import LossWeights
from .network import NetworkConfig
from .tensor import Tensor
from .trainer import TrainConfig


# -- disparity colormap -------------------------------------------------------


def _colormap() -> np.ndarray:
    """Fixed 256-entry RGB lookup (piecewise-linear jet, integer-exact)."""
    t = np.arange(256) / 255.0
    def ramp(x):
        return np.clip(1.5 - np.abs(x), 0.0, 1.0)
    r = ramp(4.0 * t - 3.0)
    g = ramp(4.0 * t - 2.0)
    b = ramp(4.0 * t - 1.0)
    return np.rint(255.0 * np.stack([r, g, b], axis=1)).astype(np.uint8)


_LUT = _colormap()


def colorize(values: np.ndarray, vmax: float) -> np.ndarray:
    """Map values in [0, vmax] through the fixed LUT to [H,W,3] uint8."""
    idx = np.clip(np.rint(255.0 * np.asarray(values) / vmax), 0, 255).astype(np.intp)
    return _LUT[idx]


# -- subcommands --------------------------------------------------------------


def _require_at_least(args, minimums: Dict[str, int]) -> None:
    """Raise ValueError naming the first flag whose value is below its minimum."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value < low:
            raise ValueError(f"--{name} must be >= {low}, got {value}")


def cmd_gen_data(args) -> int:
    _require_at_least(args, {"count": 1, "height": 1, "width": 1, "dmax": 0})
    if args.dmax >= args.width // 2:
        print(f"error: dmax {args.dmax} must be < width/2 = {args.width // 2}",
              file=sys.stderr)
        return 2
    cfg = {"H": args.height, "W": args.width, "D_max": args.dmax,
           "n_objects": args.objects}
    manifest = []
    for i in range(args.count):
        sample = ddata.synth_stereogram(args.seed + i, cfg)
        files = ddata.save_sample(args.out, i, sample)
        manifest.append({"index": i, "seed": args.seed + i, "files": files})
    print(json.dumps({"out": args.out, "count": args.count, "config": cfg,
                      "samples": manifest}, indent=2))
    return 0


def cmd_gen_gt(args) -> int:
    _require_at_least(args, {"dilate": 0})
    inst, _ = ddata.read_pgm(args.inst)
    sem, _ = ddata.read_pgm(args.sem)
    if inst.shape != sem.shape:
        print(f"error: mask extents differ: {inst.shape} vs {sem.shape}",
              file=sys.stderr)
        return 2
    edges = ddata.depth_edge_gt(inst, sem, args.dilate)
    ddata.write_pgm(args.out, edges, maxval=255)
    print(json.dumps({"out": args.out, "edge_pixels": int(edges.sum()),
                      "shape": list(edges.shape)}))
    return 0


# TrainConfig fields that come from flags, never from the overlay.
_FLAG_FIELDS = {"data_dir", "val_dir", "out_dir"}


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field annotation of the config classes."""
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_matches(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_matches, value, args))
    return isinstance(value, hint)


def _check_types(section: str, values: Dict, cls) -> None:
    """Raise ValueError naming the first value whose type does not fit its
    field of ``cls``; every key must be a field."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        hint = hints[key]
        if not _matches(value, hint):
            name = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
            raise ValueError(
                f"training config value {section}{key} must be {name}, got {value!r}")


def _build_train_config(args) -> TrainConfig:
    overlay: Dict = {}
    if args.config:
        with open(args.config) as f:
            overlay = json.load(f)
    if not isinstance(overlay, dict):
        raise ValueError(f"training config {args.config!r} must be a JSON object, "
                         f"got {overlay!r}")
    unknown = set(overlay) - {f.name for f in dataclasses.fields(TrainConfig)} - _FLAG_FIELDS
    if unknown:
        raise ValueError(f"unknown keys in training config {args.config!r}: {sorted(unknown)}")
    kwargs = dict(overlay)
    net_kwargs = kwargs.pop("network", {})
    loss_kwargs = kwargs.pop("loss_weights", {})
    for key, kw, cls in (("network", net_kwargs, NetworkConfig),
                         ("loss_weights", loss_kwargs, LossWeights)):
        if not isinstance(kw, dict):
            raise ValueError(f"training config section {key} must be a JSON object, "
                             f"got {kw!r}")
        unknown = set(kw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown {key} keys in training config {args.config!r}: {sorted(unknown)}")
        _check_types(key + ".", kw, cls)
    _check_types("", kwargs, TrainConfig)
    if "lr_schedule" in kwargs:
        kwargs["lr_schedule"] = tuple((s, float(l)) for s, l in kwargs["lr_schedule"])
    for name in ("seed", "batch_size", "steps", "eval_interval"):
        v = getattr(args, name)
        if v is not None:
            kwargs[name] = v
    if args.a is not None:
        loss_kwargs["a"] = args.a
    return TrainConfig(
        network=NetworkConfig(**net_kwargs),
        loss_weights=LossWeights(**loss_kwargs),
        data_dir=args.data, val_dir=args.val_data, out_dir=args.out,
        **kwargs)


def cmd_train(args) -> int:
    cfg = _build_train_config(args)
    result = trainer.train(cfg)
    print(json.dumps(result, indent=2))
    return 0


def cmd_eval(args) -> int:
    report = trainer.evaluate(args.ckpt, args.data)
    print(json.dumps(report, indent=2))
    return 0


def cmd_infer(args) -> int:
    params, _state, cfg = trainer.load_checkpoint(args.ckpt)
    left, lmax = ddata.read_pgm(args.left)
    right, rmax = ddata.read_pgm(args.right)
    if left.shape != right.shape:
        print(f"error: image extents differ: {left.shape} vs {right.shape}",
              file=sys.stderr)
        return 2
    gt = ddata.read_pfm(args.gt) if args.gt else None
    if gt is not None and gt.shape != left.shape:
        raise ValueError(f"ground-truth extents {gt.shape} differ from the "
                         f"image extents {left.shape}")
    h, w = left.shape
    sample = ddata.StereoSample(ddata.grey_to_rgb(left / lmax), ddata.grey_to_rgb(right / rmax),
                                Tensor(np.zeros((h, w))),
                                np.zeros((h, w), dtype=np.int64),
                                np.zeros((h, w), dtype=np.int64),
                                np.ones((h, w), dtype=np.uint8))
    disp = trainer.predict(params, cfg, sample)
    report = {"out_disp": args.out_disp, "out_vis": args.out_vis,
              "d_max": cfg.d_max, "mean_disparity": float(disp.mean())}
    if gt is not None:
        # epe refuses non-finite ground truth before any output is written
        report["epe"] = losses.epe(disp, gt, np.ones_like(gt, dtype=bool))
        if args.out_err:
            err = np.abs(disp - gt)
            ddata.write_ppm(args.out_err, colorize(np.clip(err, 0, 5.0), 5.0))
            report["out_err"] = args.out_err
    ddata.write_pfm(args.out_disp, disp)
    ddata.write_ppm(args.out_vis, colorize(disp, cfg.d_max - 1))
    print(json.dumps(report, indent=2))
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="edgedisp",
        description="edge-aware stereo disparity: data generation, training, "
                    "evaluation, inference")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic stereo dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--width", type=int, default=64)
    g.add_argument("--dmax", type=int, default=16)
    g.add_argument("--objects", type=int, default=2)
    g.set_defaults(func=cmd_gen_data)

    g = sub.add_parser("gen-gt", help="depth-edge ground truth from mask files")
    g.add_argument("--inst", required=True)
    g.add_argument("--sem", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--dilate", type=int, default=0)
    g.set_defaults(func=cmd_gen_gt)

    g = sub.add_parser("train", help="train a model")
    g.add_argument("--config", help="JSON overlay for the training config")
    g.add_argument("--data", required=True)
    g.add_argument("--val-data", dest="val_data")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--steps", type=int)
    g.add_argument("--batch-size", dest="batch_size", type=int)
    g.add_argument("--eval-interval", dest="eval_interval", type=int)
    g.add_argument("--a", type=float, help="edge loss mixing weight")
    g.set_defaults(func=cmd_train)

    g = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--data", required=True)
    g.set_defaults(func=cmd_eval)

    g = sub.add_parser("infer", help="predict disparity for one pair")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--left", required=True)
    g.add_argument("--right", required=True)
    g.add_argument("--out-disp", dest="out_disp", required=True)
    g.add_argument("--out-vis", dest="out_vis", required=True)
    g.add_argument("--gt")
    g.add_argument("--out-err", dest="out_err")
    g.set_defaults(func=cmd_infer)

    return p


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
