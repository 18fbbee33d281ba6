"""Mutated and truncated files: every reader must end in its named error
(``FormatError`` for images, ``CheckpointError`` for checkpoints)."""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgedisp import data as ddata
from edgedisp.network import NetworkConfig, init_params
from edgedisp.trainer import CheckpointError, OptimizerState, load_checkpoint, save_checkpoint

# Checkpoint headers and config entries sit in the first few hundred bytes;
# half the mutations land there, the rest anywhere in the file.
HEAD = 400

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _file_bytes(write) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f")
        write(path)
        with open(path, "rb") as f:
            return f.read()


def _checkpoint(path):
    cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=1, dilation_rates=(1,))
    params = init_params(cfg, seed=0)
    names = list(params.trainable())[:2]
    state = OptimizerState(lr=1e-3, step=3,
                           m={n: np.ones(params[n].shape) for n in names},
                           v={n: np.ones(params[n].shape) for n in names})
    save_checkpoint(params, state, path, cfg)


RNG = np.random.default_rng(0)
PFM = _file_bytes(lambda p: ddata.write_pfm(p, RNG.normal(size=(3, 5))))
PGM8 = _file_bytes(lambda p: ddata.write_pgm(p, RNG.integers(0, 256, (4, 6)), maxval=255))
PGM16 = _file_bytes(lambda p: ddata.write_pgm(p, RNG.integers(0, 4096, (4, 6)), maxval=4095))
CKPT = _file_bytes(_checkpoint)


@st.composite
def corrupted(draw, base: bytes) -> bytes:
    """``base`` with up to 8 bytes overwritten, then possibly truncated."""
    raw = bytearray(base)
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, min(len(raw), HEAD) - 1) | st.integers(0, len(raw) - 1))
        raw[i] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(0, len(raw)))]
    return bytes(raw)


def _read(tmp_path, raw: bytes, reader):
    path = tmp_path / "fuzzed"
    path.write_bytes(raw)
    return reader(str(path))


def test_unmutated_files_read(tmp_path):
    assert _read(tmp_path, PFM, ddata.read_pfm).shape == (3, 5)
    assert _read(tmp_path, PGM8, ddata.read_pgm)[1] == 255
    assert _read(tmp_path, PGM16, ddata.read_pgm)[1] == 4095
    assert _read(tmp_path, CKPT, load_checkpoint)[1].step == 3


@FUZZ
@given(raw=corrupted(PFM))
def test_pfm_raises_only_format_error(tmp_path, raw):
    try:
        _read(tmp_path, raw, ddata.read_pfm)
    except ddata.FormatError:
        pass


@FUZZ
@given(raw=corrupted(PGM8) | corrupted(PGM16))
def test_pgm_raises_only_format_error(tmp_path, raw):
    try:
        _read(tmp_path, raw, ddata.read_pgm)
    except ddata.FormatError:
        pass


@settings(FUZZ, max_examples=300)
@given(raw=corrupted(CKPT))
def test_checkpoint_raises_only_checkpoint_error(tmp_path, raw):
    try:
        _read(tmp_path, raw, load_checkpoint)
    except CheckpointError:
        pass
