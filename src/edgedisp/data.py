"""Depth-edge ground truth, synthetic stereo data, and file formats.

Depth edges are the union of foreground instance boundaries and semantic
boundaries (8-connectivity, both sides of a label change). The synthetic
generator builds planar scenes with integer disparities so photometric
consistency between the views is exact.

Formats: PFM float maps (sign of the scale encodes endianness, rows
bottom-up), binary PGM (P5, 8 or 16 bit) for images and masks, binary
PPM (P6) for visualizations. Both readers split a header the same way: a
magic and three fields, each a run of non-whitespace, separated by
whitespace and by comments, which run from ``#`` to the end of the line;
the payload starts one byte after the third field.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import ndimage

from .tensor import Tensor


class FormatError(ValueError):
    """Malformed file; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# -- depth-edge ground truth --------------------------------------------------


def _label_differs_from_neighbor(mask: np.ndarray) -> np.ndarray:
    """True where any existing 8-neighbor carries a different label: where
    the edge-replicated 3x3 window holds more than one label."""
    return (ndimage.maximum_filter(mask, size=3, mode="nearest")
            != ndimage.minimum_filter(mask, size=3, mode="nearest"))


def instance_boundaries(mask: np.ndarray) -> np.ndarray:
    """Binary bounds of foreground instances (label 0 is background)."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty instance mask")
    return (_label_differs_from_neighbor(mask) & (mask != 0)).astype(np.uint8)


def semantic_boundaries(mask: np.ndarray) -> np.ndarray:
    """Binary class boundaries, taken over all classes."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty semantic mask")
    return _label_differs_from_neighbor(mask).astype(np.uint8)


def depth_edge_gt(inst: np.ndarray, sem: np.ndarray, dilate_radius: int = 0) -> np.ndarray:
    """Union of instance and semantic boundaries, optionally dilated."""
    inst = np.asarray(inst)
    sem = np.asarray(sem)
    if inst.shape != sem.shape:
        raise ValueError(f"mask extents differ: {inst.shape} vs {sem.shape}")
    edges = instance_boundaries(inst) | semantic_boundaries(sem)
    if dilate_radius > 0:
        edges = ndimage.maximum_filter(edges, size=2 * dilate_radius + 1)
    return edges.astype(np.uint8)


# -- synthetic stereograms ----------------------------------------------------


@dataclass
class StereoSample:
    """One rectified pair with dense ground truth."""

    left: Tensor            # [3,H,W] in [0,1]
    right: Tensor           # [3,H,W]
    disparity: Tensor       # [H,W] >= 0
    instance: np.ndarray    # [H,W] int, 0 = background
    semantic: np.ndarray    # [H,W] int, {0: background, 1: object}
    valid: np.ndarray       # [H,W] {0,1}


def grey_to_rgb(img: np.ndarray) -> Tensor:
    """[3,H,W] image with the grey [H,W] ``img`` in every channel."""
    return Tensor(np.broadcast_to(img, (3,) + img.shape).copy())


def _surface_texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Band-limited random texture quantized to 16-bit levels.

    Mostly smooth structure (so coarse, partially aligned matches still
    correlate, as in natural images) with a fine component on top; the
    quantization makes 16-bit image storage lossless.
    """
    smooth = ndimage.gaussian_filter(rng.normal(size=(h, w)), sigma=2.0,
                                     mode="wrap")
    smooth = (smooth - smooth.min()) / max(np.ptp(smooth), 1e-12)
    fine = rng.uniform(size=(h, w))
    tex = 0.75 * smooth + 0.25 * fine
    return np.rint(tex * 65535.0) / 65535.0


def synth_stereogram(seed: int, cfg: Dict[str, int]) -> StereoSample:
    """Random planar scene: textured background plus textured rectangles.

    Later (nearer) rectangles have strictly larger disparities and occlude
    earlier ones; the right view is the left with each surface shifted by
    its disparity, so ``left[x] == right[x - d]`` exactly wherever the
    valid mask is set.
    """
    h, w = int(cfg["H"]), int(cfg["W"])
    d_max = int(cfg["D_max"])
    n_objects = int(cfg.get("n_objects", 0))
    if d_max >= w // 2:
        raise ValueError(f"D_max={d_max} must be < W/2 = {w // 2}")
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    if n_objects and d_max < 2:
        raise ValueError(f"objects need D_max >= 2, got D_max={d_max}: each must lie "
                         "nearer than the background")
    if n_objects and h < 2:
        raise ValueError(f"objects need H >= 2, got H={h}")

    rng = np.random.default_rng(seed)
    d_bg = int(rng.integers(0, d_max // 4 + 1))

    # surfaces ordered far to near: (disparity, y0, y1, x0, x1, texture)
    surfaces = [(d_bg, 0, h, 0, w, _surface_texture(rng, h, w))]
    if n_objects > 0:
        disps = np.sort(rng.integers(d_bg + 1, d_max, size=n_objects))
        for d in disps:
            rh = int(rng.integers(max(2, h // 8), max(3, h // 2)))
            rw = int(rng.integers(max(2, w // 8), max(3, w // 2)))
            y0 = int(rng.integers(0, h - rh + 1))
            x0 = int(rng.integers(0, w - rw + 1))
            surfaces.append((int(d), y0, y0 + rh, x0, x0 + rw,
                             _surface_texture(rng, h, w)))

    left = np.zeros((h, w))
    right = np.zeros((h, w))
    left_id = np.full((h, w), -1, dtype=np.int64)
    right_id = np.full((h, w), -1, dtype=np.int64)
    disparity = np.zeros((h, w))
    instance = np.zeros((h, w), dtype=np.int64)

    for sid, (d, y0, y1, x0, x1, tex) in enumerate(surfaces):
        left[y0:y1, x0:x1] = tex[y0:y1, x0:x1]
        left_id[y0:y1, x0:x1] = sid
        disparity[y0:y1, x0:x1] = d
        if sid > 0:
            instance[y0:y1, x0:x1] = sid
        rx0, rx1 = max(x0 - d, 0), max(x1 - d, 0)
        right[y0:y1, rx0:rx1] = tex[y0:y1, rx0 + d:rx1 + d]
        right_id[y0:y1, rx0:rx1] = sid

    cols = np.arange(w)[None, :]
    src = cols - disparity.astype(np.int64)
    in_frame = src >= 0
    matches = right_id[np.arange(h)[:, None], np.clip(src, 0, w - 1)] == left_id
    valid = (in_frame & matches).astype(np.uint8)

    semantic = (instance > 0).astype(np.int64)
    return StereoSample(grey_to_rgb(left), grey_to_rgb(right), Tensor(disparity),
                        instance, semantic, valid)


# -- file headers -------------------------------------------------------------

_GAP = re.compile(rb"(?:\s|#[^\r\n]*)*")   # whitespace and comments
_TOKEN = re.compile(rb"[^\s#]+")


def _read_header(path: str, kind: str, magic: bytes):
    """The bytes of the file at ``path``, the three header fields after its
    ``magic``, each a (token, byte offset) pair, and the payload's offset:
    one byte after the third field."""
    with open(path, "rb") as f:
        raw = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        m = _TOKEN.match(raw, _GAP.match(raw, pos).end())
        if m is None:
            raise FormatError("unexpected end of header", len(raw))
        if not fields and m.group() != magic:
            raise FormatError(f"bad {kind} magic {m.group()!r}, expected {magic!r}", m.start())
        fields.append((m.group(), m.start()))
        pos = m.end()
    return raw, fields[1:], pos + 1


# -- PFM ----------------------------------------------------------------------


def write_pfm(path: str, values: np.ndarray) -> None:
    """Grayscale PFM, little-endian, rows bottom-up."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"PFM maps are 2-D, got rank {values.ndim}")
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(values[::-1].astype("<f4").tobytes())


def read_pfm(path: str) -> np.ndarray:
    raw, fields, pos = _read_header(path, "PFM", b"Pf")
    (wtok, off), (htok, _), (stok, soff) = fields
    if not wtok.isdigit() or not htok.isdigit():
        raise FormatError("non-integer dimensions in PFM header", off)
    w, h = int(wtok), int(htok)
    try:
        scale = float(stok)
    except ValueError:
        raise FormatError(f"bad scale field {stok!r}", soff) from None
    if scale == 0 or not np.isfinite(scale):
        raise FormatError(f"scale must be finite and nonzero, got {stok!r}", soff)
    payload = raw[pos:]
    expected = w * h * 4
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: have {len(payload)} bytes, need {expected}",
            pos + len(payload))
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(payload[:expected], dtype=dtype).reshape(h, w)
    return data[::-1].astype(np.float64)


# -- PGM / PPM ----------------------------------------------------------------


def write_pgm(path: str, values: np.ndarray, maxval: int = 255) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"PGM images are 2-D, got rank {values.ndim}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PGM maxval {maxval} outside [1, 65535]")
    if values.dtype.kind not in "biu":
        if not np.isfinite(values).all():
            raise ValueError("PGM values must be finite")
        if (values != np.floor(values)).any():
            raise ValueError("PGM values must be integers")
    if values.min() < 0 or values.max() > maxval:
        raise ValueError(f"values outside [0, {maxval}]")
    h, w = values.shape
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(values.astype(dtype).tobytes())


def read_pgm(path: str) -> Tuple[np.ndarray, int]:
    raw, fields, pos = _read_header(path, "PGM", b"P5")
    for tok, off in fields:
        if not tok.isdigit():
            raise FormatError("malformed PGM header", off)
    w, h, maxval = (int(tok) for tok, _ in fields)
    if not 1 <= maxval <= 65535:
        raise FormatError(f"PGM maxval {maxval} outside [1, 65535]", fields[2][1])
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    expected = w * h * dtype.itemsize
    payload = raw[pos:pos + expected]
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: have {len(payload)} bytes, need {expected}",
            pos + len(payload))
    values = np.frombuffer(payload, dtype=dtype)
    over = np.flatnonzero(values > maxval)
    if over.size:
        raise FormatError(f"sample {values[over[0]]} above maxval {maxval}",
                          pos + int(over[0]) * dtype.itemsize)
    return values.reshape(h, w).astype(np.int64), maxval


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """8-bit binary PPM from an [H,W,3] uint8 array."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"PPM expects [H,W,3], got {rgb.shape}")
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


# -- dataset directory layout -------------------------------------------------

_SAMPLE_SUFFIXES = ("left.pgm", "right.pgm", "disp.pfm", "inst.pgm", "sem.pgm", "valid.pgm")


def save_sample(directory: str, index: int, sample: StereoSample) -> List[str]:
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{index:04d}_")
    gray = np.rint(sample.left.data[0] * 65535).astype(np.int64)
    write_pgm(stem + "left.pgm", gray, maxval=65535)
    gray = np.rint(sample.right.data[0] * 65535).astype(np.int64)
    write_pgm(stem + "right.pgm", gray, maxval=65535)
    write_pfm(stem + "disp.pfm", sample.disparity.data)
    write_pgm(stem + "inst.pgm", sample.instance, maxval=max(255, int(sample.instance.max())))
    write_pgm(stem + "sem.pgm", sample.semantic, maxval=255)
    write_pgm(stem + "valid.pgm", sample.valid, maxval=255)
    return [stem + s for s in _SAMPLE_SUFFIXES]


def load_sample(directory: str, index: int) -> StereoSample:
    stem = os.path.join(directory, f"{index:04d}_")
    left, lmax = read_pgm(stem + "left.pgm")
    right, rmax = read_pgm(stem + "right.pgm")
    disp = read_pfm(stem + "disp.pfm")
    inst, _ = read_pgm(stem + "inst.pgm")
    sem, _ = read_pgm(stem + "sem.pgm")
    valid, _ = read_pgm(stem + "valid.pgm")
    for suffix, a in zip(_SAMPLE_SUFFIXES[1:], (right, disp, inst, sem, valid)):
        if a.shape != left.shape:
            raise ValueError(f"{stem + suffix}: extent {a.shape} differs from the left "
                             f"image's {left.shape}")
    return StereoSample(grey_to_rgb(left / lmax), grey_to_rgb(right / rmax), Tensor(disp),
                        inst, sem, valid.astype(np.uint8))


def list_samples(directory: str) -> List[int]:
    out = []
    for name in sorted(os.listdir(directory)):
        m = re.fullmatch(r"(\d+)_left\.pgm", name)
        if m:
            out.append(int(m.group(1)))
    return out
