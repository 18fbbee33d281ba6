import contextlib
import json
import math
import os
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from checks import checkpoint_holding, concatenating_save_checkpoint, in_place_buffer_updates
from edgedisp import cpus
from edgedisp import data as ddata
from edgedisp.losses import LossWeights
from edgedisp import network
from edgedisp.network import NetworkConfig, init_params
from edgedisp.tensor import Tensor
from edgedisp.trainer import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EVAL_BATCH,
                              CheckpointError, OptimizerState, TrainConfig, _batch_arrays,
                              _config_entries, _pack_tensor, _read_checkpoint, adam_step,
                              evaluate, evaluate_params, load_checkpoint, predict,
                              predict_batch, recalibrate_norm_stats, save_checkpoint, train,
                              zero_disparity_baseline)

TINY_NET = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                         dilation_rates=(1, 2))


def reference_adam(p0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook recurrence with explicit bias correction, loops only."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def save_older_checkpoint(path, params, state, cfg, pointwise_bias=0, n_agm=3):
    """Write a checkpoint as the format did when the config still carried
    ``downsample``, ``n_agm`` and ``pointwise_bias`` and the optimizer state
    its Adam constants, in the entry order of that writer."""
    entries = {}
    for k, v in _config_entries(cfg).items():
        entries[k] = v
        if k == "__cfg__.d_max":
            entries["__cfg__.downsample"] = np.asarray(4.0)
        if k == "__cfg__.k_top":
            entries["__cfg__.n_agm"] = np.asarray(float(n_agm))
    entries["__cfg__.pointwise_bias"] = np.asarray(float(pointwise_bias))
    entries.update((n, t.data) for n, t in params.tensors.items())
    entries["__opt__.step"] = np.asarray(float(state.step))
    entries["__opt__.lr"] = np.asarray(state.lr)
    entries["__opt__.beta1"] = np.asarray(0.9)
    entries["__opt__.beta2"] = np.asarray(0.999)
    entries["__opt__.eps"] = np.asarray(1e-8)
    entries.update((f"__opt__.m.{n}", a) for n, a in state.m.items())
    entries.update((f"__opt__.v.{n}", a) for n, a in state.v.items())
    blob = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(entries))
    blob += b"".join(_pack_tensor(n, a) for n, a in entries.items())
    with open(path, "wb") as f:
        f.write(blob)


def make_dataset(directory, count, seed0=0, h=16, w=32, d_max=8, objects=2):
    cfg = {"H": h, "W": w, "D_max": d_max, "n_objects": objects}
    for i in range(count):
        ddata.save_sample(directory, i, ddata.synth_stereogram(seed0 + i, cfg))


def with_grad(data, grad):
    """A trainable tensor holding ``grad`` as its gradient."""
    t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    t.grad = np.asarray(grad, dtype=np.float64)
    return t


class TestAdam:
    # A gradient of another shape never reaches ``.grad``: see
    # test_tensor_ops.py::TestBackward::test_misshapen_gradient_rejected.

    def test_zero_gradient_is_identity(self):
        p = {"x": with_grad(np.arange(4.0), np.zeros(4))}
        before = p["x"].data.copy()
        adam_step(p, OptimizerState())
        np.testing.assert_array_equal(p["x"].data, before)
        assert p["x"].grad is None

    def test_first_step_moves_by_lr(self):
        # with bias correction the first update is lr * sign(g) (up to eps)
        p = {"x": with_grad([1.0, -2.0], [0.5, -3.0])}
        adam_step(p, OptimizerState(lr=0.01))
        np.testing.assert_allclose(p["x"].data, [1.0 - 0.01, -2.0 + 0.01],
                                   rtol=1e-6)
        assert p["x"].grad is None

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        p0 = rng.normal(size=7)
        grads = [rng.normal(size=7) for _ in range(10)]
        p = {"x": Tensor(p0.copy(), requires_grad=True)}
        state = OptimizerState(lr=0.003)
        for g in grads:
            p["x"].grad = g
            adam_step(p, state)
            assert p["x"].grad is None
        want = reference_adam(p0, grads, lr=0.003)
        assert np.max(np.abs(p["x"].data - want)) < 1e-12
        assert state.step == 10

    def test_missing_gradient_skipped(self):
        p = {"x": with_grad(np.ones(3), np.ones(3)),
             "y": Tensor(np.ones(3), requires_grad=True)}
        state = OptimizerState()
        adam_step(p, state)
        np.testing.assert_array_equal(p["y"].data, np.ones(3))
        assert not np.array_equal(p["x"].data, np.ones(3))
        assert p["x"].grad is None and p["y"].grad is None
        assert set(state.m) == set(state.v) == {"x"}


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        state = OptimizerState(lr=5e-4, step=3)
        rng = np.random.default_rng(0)
        for n, t in params.trainable().items():
            state.m[n] = rng.normal(size=t.shape).astype(np.float32).astype(np.float64)
            state.v[n] = np.abs(rng.normal(size=t.shape)).astype(np.float32).astype(np.float64)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, state, str(a), TINY_NET)
        p2, s2, cfg2 = load_checkpoint(str(a))
        save_checkpoint(p2, s2, str(b), cfg2)
        assert a.read_bytes() == b.read_bytes()

    def test_file_equals_the_concatenating_writer(self, tmp_path):
        cfg = NetworkConfig()
        params = init_params(cfg, seed=0)
        state = OptimizerState(lr=5e-4, step=3)
        rng = np.random.default_rng(1)
        for n, t in params.trainable().items():
            state.m[n] = rng.normal(size=t.shape)
            state.v[n] = np.abs(rng.normal(size=t.shape))
        got, want = tmp_path / "joined.ckpt", tmp_path / "concatenated.ckpt"
        save_checkpoint(params, state, str(got), cfg)
        concatenating_save_checkpoint(params, state, str(want), cfg)
        assert got.read_bytes() == want.read_bytes()

    def test_roundtrip_values_and_config(self, tmp_path):
        params = init_params(TINY_NET, seed=1)
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        p2, s2, cfg2 = load_checkpoint(path)
        assert s2 is None
        assert cfg2 == TINY_NET
        assert set(p2.tensors) == set(params.tensors)
        for n in params.tensors:
            np.testing.assert_array_equal(p2[n].data, params[n].data)
            assert p2[n].requires_grad == params[n].requires_grad

    def test_magic_bytes(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        assert Path(path).read_bytes()[:4] == CHECKPOINT_MAGIC == b"DAGM"

    def test_corrupted_magic_rejected(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        raw = bytearray(Path(path).read_bytes())
        raw[0] ^= 0xFF
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_many_tensor_fixture(self, tmp_path):
        # a synthetic params dict with a thousand odd-shaped tensors
        from edgedisp.network import ModelParams
        rng = np.random.default_rng(7)
        params = ModelParams()
        shapes = [(), (1,), (3,), (2, 5), (4, 1, 3), (2, 2, 2, 2)]
        for i in range(1000):
            shape = shapes[i % len(shapes)]
            arr = rng.normal(size=shape).astype(np.float32).astype(np.float64)
            params.add(f"shared.t{i:04d}", Tensor(arr, requires_grad=True))
        path = str(tmp_path / "big.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        # the tensors are not those of TINY_NET, so only the reader accepts them
        p2, _, _ = _read_checkpoint(path)
        assert len(p2.partition("shared")) == 1000
        for n, t in params.tensors.items():
            np.testing.assert_array_equal(p2[n].data, t.data)
            assert p2[n].shape == t.shape

    def test_load_rejects_missing_extra_and_misshapen_tensors(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        for name, arr, what in (("shared.conv0.w", None, "missing ['shared.conv0.w']"),
                                ("shared.orphan.w", np.zeros(3),
                                 "unexpected ['shared.orphan.w']"),
                                ("shared.conv0.w", np.zeros((1, 3, 3, 3)),
                                 "'shared.conv0.w' has shape (1, 3, 3, 3)")):
            params = init_params(TINY_NET, seed=0)
            if arr is None:
                del params.tensors[name]
            else:
                params.tensors[name] = Tensor(arr, requires_grad=True)
            save_checkpoint(params, None, path, TINY_NET)
            with pytest.raises(CheckpointError, match="does not match.*" + re.escape(what)):
                load_checkpoint(path)

    def test_missing_config_entry_rejected(self, tmp_path, monkeypatch):
        import edgedisp.trainer as trainer
        entries = trainer._config_entries
        monkeypatch.setattr(trainer, "_config_entries", lambda cfg: {
            k: v for k, v in entries(cfg).items() if k != "__cfg__.groups"})
        path = str(tmp_path / "nocfg.ckpt")
        save_checkpoint(init_params(TINY_NET, seed=0), None, path, TINY_NET)
        with pytest.raises(CheckpointError, match="__cfg__.groups"):
            load_checkpoint(path)

    @pytest.mark.parametrize("changes, what", [
        # far more tensors, and far larger ones, than the file holds: the
        # check stops at the first missing names without building them
        ({"__cfg__.base_channels": 2.0 ** 40, "__cfg__.k_top": 1e9},
         r"does not match its config: missing \['edge\.cls10\.b', 'edge\.cls10\.w', "
         r"'edge\.cls11\.b'\]"),
        ({"__cfg__.base_channels": 2.0 ** 40},
         r"'shared\.conv0\.w' has shape \(4, 3, 3, 3\), expected \(1099511627776, 3, 3, 3\)"),
        ({"__cfg__.groups": 0.0}, "config is invalid: groups must be >= 1"),
        ({"__cfg__.d_max": 8.5}, "'__cfg__.d_max' is not an integer scalar"),
        ({"__cfg__.dilation_rates": np.ones((2, 2))},
         "'__cfg__.dilation_rates' is not an integer list"),
    ])
    def test_implausible_config_rejected(self, tmp_path, monkeypatch, changes, what):
        import edgedisp.trainer as trainer
        entries = trainer._config_entries
        monkeypatch.setattr(trainer, "_config_entries",
                            lambda cfg: {**entries(cfg), **{k: np.asarray(v)
                                                            for k, v in changes.items()}})
        path = str(tmp_path / "cfg.ckpt")
        save_checkpoint(init_params(TINY_NET, seed=0), None, path, TINY_NET)
        with pytest.raises(CheckpointError, match=what):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, shape, what", [
        (b"shared.\xff.w", (2,), "is not UTF-8"),
        (b"other.conv0.w", (2,), "outside the known partitions"),
        (b"shared.conv0.w", (1,) * 70, "of rank 70"),
        (b"__opt__.step", (), "scalar __opt__.lr"),
    ])
    def test_malformed_entry_rejected(self, tmp_path, name, shape, what):
        entries = dict(_config_entries(TINY_NET))
        blob = b"".join(_pack_tensor(n, a) for n, a in entries.items())
        blob += struct.pack("<H", len(name)) + name + struct.pack("B", len(shape))
        blob += b"".join(struct.pack("<I", n) for n in shape)
        blob += np.ones(math.prod(shape), dtype="<f4").tobytes()
        path = tmp_path / "entry.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION,
                                                        len(entries) + 1) + blob)
        with pytest.raises(CheckpointError, match=what):
            load_checkpoint(str(path))

    def _trained_state(self, params):
        state = OptimizerState(lr=2.5e-4, step=5)
        rng = np.random.default_rng(4)
        for n, t in params.trainable().items():
            state.m[n] = rng.normal(size=t.shape).astype(np.float32).astype(np.float64)
            state.v[n] = np.abs(rng.normal(size=t.shape)).astype(np.float32).astype(np.float64)
        return state

    def test_older_format_loads_and_predicts_identically(self, tmp_path):
        params = init_params(TINY_NET, seed=3)
        state = self._trained_state(params)
        new, old = str(tmp_path / "new.ckpt"), str(tmp_path / "old.ckpt")
        save_checkpoint(params, state, new, TINY_NET)
        save_older_checkpoint(old, params, state, TINY_NET)
        p_new, s_new, cfg_new = load_checkpoint(new)
        p_old, s_old, cfg_old = load_checkpoint(old)
        assert cfg_old == cfg_new == TINY_NET
        assert set(p_old.tensors) == set(p_new.tensors)
        assert (s_old.lr, s_old.step) == (s_new.lr, s_new.step)
        assert set(s_old.m) == set(s_new.m) and set(s_old.v) == set(s_new.v)
        for n in s_new.m:
            np.testing.assert_array_equal(s_old.m[n], s_new.m[n])
            np.testing.assert_array_equal(s_old.v[n], s_new.v[n])
        s = ddata.synth_stereogram(2, {"H": 16, "W": 32, "D_max": 8, "n_objects": 2})
        np.testing.assert_array_equal(predict(p_old, cfg_old, s), predict(p_new, cfg_new, s))

    def test_two_stage_checkpoint_rejected(self, tmp_path):
        # a file written with n_agm = 2 lacks the third stage and its head
        params = init_params(TINY_NET, seed=0)
        for name in [n for n in params.tensors if n.startswith(("disp.agm2.", "disp.out2."))]:
            del params.tensors[name]
        path = str(tmp_path / "two.ckpt")
        save_older_checkpoint(path, params, self._trained_state(params), TINY_NET, n_agm=2)
        with pytest.raises(CheckpointError, match=r"missing \['disp\.agm2\."):
            load_checkpoint(path)

    def test_adam_constants_no_longer_written(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(params, self._trained_state(params), path, TINY_NET)
        raw = Path(path).read_bytes()
        for name in (b"__opt__.beta1", b"__opt__.beta2", b"__opt__.eps",
                     b"__cfg__.downsample", b"__cfg__.pointwise_bias", b"__cfg__.n_agm"):
            assert name not in raw

    def test_pointwise_bias_checkpoint_rejected(self, tmp_path):
        params = init_params(TINY_NET, seed=0)
        for name in [n for n in params.tensors if n.endswith(".pw.w")]:
            c = params[name].shape[0]
            params.add(name[:-2] + ".b", Tensor(np.zeros(c), requires_grad=True))
        path = str(tmp_path / "pwb.ckpt")
        save_older_checkpoint(path, params, self._trained_state(params), TINY_NET,
                              pointwise_bias=1)
        with pytest.raises(CheckpointError, match=r"unexpected \['disp\.agm0\.bank0\.pw\.b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = str(tmp_path / "nan.ckpt")
        checkpoint_holding(path, init_params(TINY_NET, seed=0), TINY_NET, "disp.out2.b.b", value)
        with pytest.raises(CheckpointError, match="non-finite value in 'disp.out2.b.b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1e39, -4e38, np.nan, np.inf])
    def test_value_not_finite_in_float32_refused_before_the_file_opens(self, tmp_path, value):
        params = init_params(TINY_NET, seed=0)
        state = OptimizerState(lr=1e-3)
        state.v["disp.out0.b.b"] = np.zeros(1)
        path = tmp_path / "last.ckpt"
        path.write_bytes(b"an earlier checkpoint")
        for arr, name in ((params["disp.out0.b.b"].data, "disp.out0.b.b"),
                          (state.v["disp.out0.b.b"], "__opt__.v.disp.out0.b.b")):
            arr[0] = value
            with pytest.raises(CheckpointError, match=re.escape(f"float32 value in {name!r}")):
                save_checkpoint(params, state, str(path), TINY_NET)
            assert path.read_bytes() == b"an earlier checkpoint"
            arr[0] = 0.0
        save_checkpoint(params, state, str(path), TINY_NET)
        load_checkpoint(str(path))


class TestTraining:
    def _cfg(self, tmp_path, steps, **kw):
        data_dir = str(tmp_path / "train")
        if not os.path.isdir(data_dir):
            make_dataset(data_dir, 4)
        return TrainConfig(
            seed=0, batch_size=2, steps=steps,
            lr_schedule=((0, 1e-3),), network=TINY_NET,
            data_dir=data_dir, out_dir=str(tmp_path / "run"), **kw)

    def test_zero_steps_equals_init(self, tmp_path):
        cfg = self._cfg(tmp_path, steps=0)
        result = train(cfg)
        p2, _, _ = load_checkpoint(result["last"])
        init = init_params(TINY_NET, seed=0)
        for n, t in init.tensors.items():
            np.testing.assert_array_equal(p2[n].data, t.data)

    def test_deterministic_given_seed(self, tmp_path):
        cfg_a = self._cfg(tmp_path, steps=2)
        train(cfg_a)
        a = Path(cfg_a.out_dir, "last.ckpt").read_bytes()
        cfg_b = self._cfg(tmp_path, steps=2)
        cfg_b.out_dir = str(tmp_path / "run_b")
        train(cfg_b)
        b = Path(cfg_b.out_dir, "last.ckpt").read_bytes()
        assert a == b

    def test_log_records_finite_losses(self, tmp_path):
        cfg = self._cfg(tmp_path, steps=3)
        result = train(cfg)
        lines = [json.loads(line) for line in Path(result["log"]).read_text().splitlines()]
        steps = [e for e in lines if "total" in e]
        assert len(steps) == 3
        for e in steps:
            assert math.isfinite(e["total"])
            assert {"l_disp", "l_edge", "l_dedge", "lr"} <= set(e)

    def test_same_files_as_in_place_buffer_updates(self, tmp_path):
        """Folding each forward's statistics after it writes the same files
        as updating the buffers inside every batch-norm as it runs. The
        in-place run validates inline: a forked child's in-place updates
        cannot reach the parent's buffers."""
        val_dir = str(tmp_path / "val")
        make_dataset(val_dir, 3, seed0=100, h=64, w=64)
        make_dataset(str(tmp_path / "train"), 8, h=64, w=64)
        runs = []
        for in_place in (False, True):
            cfg = self._cfg(tmp_path, steps=6, val_dir=val_dir, eval_interval=3)
            cfg.batch_size = 4
            cfg.out_dir = str(tmp_path / f"run{len(runs)}")
            with contextlib.ExitStack() as stack:
                if in_place:
                    stack.enter_context(in_place_buffer_updates())
                    stack.enter_context(mock.patch.object(cpus, "_spare_cpu", lambda: False))
                train(cfg)
            runs.append([Path(cfg.out_dir, f).read_bytes()
                         for f in ("best.ckpt", "last.ckpt", "log.jsonl")])
        assert runs[0] == runs[1]

    def test_samples_of_two_extents_refused_before_the_run_directory(self, tmp_path):
        data_dir = str(tmp_path / "train")
        make_dataset(data_dir, 2, h=32, w=32)
        ddata.save_sample(data_dir, 2, synth(2, h=32, w=64))
        cfg = self._cfg(tmp_path, steps=1)
        with pytest.raises(ValueError, match=re.escape(
                f"{data_dir!r} holds samples of extent (32, 32) and (32, 64)")):
            train(cfg)
        assert not os.path.exists(cfg.out_dir)

    def test_run_without_validation_replaces_an_older_best(self, tmp_path):
        """Without validation the run's own last checkpoint is its best,
        whatever best.ckpt an earlier run left in the directory."""
        cfg = self._cfg(tmp_path, steps=1)
        train(cfg)
        cfg.seed = 5
        result = train(cfg)
        assert Path(result["best"]).read_bytes() == Path(result["last"]).read_bytes()

    def test_validation_and_best_checkpoint(self, tmp_path):
        val_dir = str(tmp_path / "val")
        make_dataset(val_dir, 2, seed0=100)
        cfg = self._cfg(tmp_path, steps=2, val_dir=val_dir, eval_interval=1)
        result = train(cfg)
        assert os.path.exists(result["best"])
        assert "epe" in result["val"]


class TestTrainConfig:
    @pytest.mark.parametrize("kw, message", [
        ({"eval_interval": 0}, "eval_interval must be >= 1, got 0"),
        ({"eval_interval": -5}, "eval_interval must be >= 1, got -5"),
        ({"lr_schedule": ()}, "lr_schedule must have at least one breakpoint"),
        ({"lr_schedule": ((0, -1.0),)}, "lr_schedule rates must be finite and > 0, got -1.0"),
        ({"lr_schedule": ((0, 1e-3), (5, 0.0))}, "lr_schedule rates must be finite and > 0"),
        ({"lr_schedule": ((0, math.nan),)}, "lr_schedule rates must be finite and > 0, got nan"),
        ({"lr_schedule": ((0, 1e-3), (5, math.inf))}, "lr_schedule rates must be finite"),
        ({"lr_schedule": ((1, 1e-3),)}, "lr_schedule breakpoints must start at 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"batch_size": 1}, "batch_size must be >= 2 with norm_enabled, got 1"),
        ({"lr_schedule": ((0, 1e-3), (0, 5e-4))}, "lr_schedule breakpoints must start at 0 "
                                                  "and strictly increase"),
    ])
    def test_malformed_schedule_rejected(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**kw)

    def test_batch_of_one_accepted_without_norm(self):
        assert TrainConfig(batch_size=1, network=NetworkConfig(norm_enabled=False)).batch_size == 1

    def test_smallest_valid_schedule_accepted(self):
        cfg = TrainConfig(eval_interval=1, lr_schedule=((0, 1e-9),))
        assert cfg.eval_interval == 1 and cfg.lr_schedule == ((0, 1e-9),)


class TestEvaluation:
    def test_ground_truth_shim_gives_zero_epe(self):
        # feeding the ground truth through the metric path must be exact
        s = ddata.synth_stereogram(0, {"H": 16, "W": 32, "D_max": 8,
                                       "n_objects": 2})
        from edgedisp.losses import metrics_report
        r = metrics_report(s.disparity.data, s.disparity.data, s.valid)
        assert r["epe"] == 0.0 and r["d1_all"] == 0.0

    def test_zero_baseline_is_mean_disparity(self):
        samples = [ddata.synth_stereogram(i, {"H": 16, "W": 32, "D_max": 8,
                                              "n_objects": 2})
                   for i in range(3)]
        base = zero_disparity_baseline(samples)
        vals = np.concatenate([s.disparity.data[s.valid.astype(bool)]
                               for s in samples])
        assert abs(base - vals.mean()) < 1e-12
        zeros = np.concatenate([np.zeros(int(s.valid.sum())) for s in samples])
        from edgedisp.losses import epe
        got = epe(zeros, vals, np.ones_like(vals, dtype=bool))
        assert abs(base - got) < 1e-12

    def test_predict_extent_and_range(self):
        params = init_params(TINY_NET, seed=0)
        s = ddata.synth_stereogram(1, {"H": 16, "W": 32, "D_max": 8,
                                       "n_objects": 2})
        d = predict(params, TINY_NET, s)
        assert d.shape == (16, 32)
        assert d.min() >= 0.0 and d.max() <= TINY_NET.d_max - 1

    def test_evaluate_checkpoint_roundtrip(self, tmp_path):
        data_dir = str(tmp_path / "d")
        make_dataset(data_dir, 2)
        params = init_params(TINY_NET, seed=0)
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        report = evaluate(path, data_dir)
        samples = [ddata.load_sample(data_dir, i)
                   for i in ddata.list_samples(data_dir)]
        direct = evaluate_params(params, TINY_NET, samples)
        assert report == direct

    def test_evaluate_rejects_mismatched_names(self, tmp_path):
        data_dir = str(tmp_path / "d2")
        make_dataset(data_dir, 1)
        params = init_params(TINY_NET, seed=0)
        extra = Tensor(np.zeros(3), requires_grad=True)
        params.add("shared.orphan.w", extra)
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(params, None, path, TINY_NET)
        with pytest.raises(CheckpointError, match="match"):
            evaluate(path, data_dir)


def synth(seed, h=16, w=32):
    return ddata.synth_stereogram(seed, {"H": h, "W": w, "D_max": 8, "n_objects": 2})


class TestFrozenWeightPasses:
    def test_predict_records_no_tape(self, monkeypatch):
        outputs, forward = [], network.forward

        def spy(*args):
            out = forward(*args)
            outputs.append(out)
            return out
        monkeypatch.setattr(network, "forward", spy)
        predict(init_params(TINY_NET, seed=0), TINY_NET, synth(1))
        (d,) = outputs[0].values()
        assert d._parents == () and d._backward is None and not d.requires_grad

    @pytest.mark.parametrize("cfg", [
        TINY_NET,
        NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                      dilation_rates=(1, 2), use_dedge_spp=False),
        NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                      dilation_rates=(1, 2), use_dedge_spp=False, use_edge_branch=False),
    ])
    def test_recalibration_equals_taped_train_forward(self, cfg):
        samples = [synth(i) for i in range(6)]
        got, want = init_params(cfg, seed=0), init_params(cfg, seed=0)
        recalibrate_norm_stats(got, cfg, samples, batch_size=4, seed=5, batches=3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            idx = rng.choice(len(samples), size=4, replace=False)
            left, right, *_ = _batch_arrays(samples, idx)
            out = network.forward(left, right, want, cfg, "train")
            assert out["d3"]._backward is not None
            network.update_buffers(want, out["stats"])
        buffers = [n for n in want.tensors if n.endswith((".rmean", ".rvar"))]
        assert buffers
        for name in buffers:
            assert not np.array_equal(want[name].data, init_params(cfg, 0)[name].data), name
            np.testing.assert_array_equal(got[name].data, want[name].data, err_msg=name)

    def test_recalibration_without_batch_norm_runs_no_forward(self, monkeypatch):
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2), norm_enabled=False)
        calls = []
        monkeypatch.setattr(network, "forward", lambda *args: calls.append(args))
        recalibrate_norm_stats(init_params(cfg, seed=0), cfg, [synth(i) for i in range(4)],
                               batch_size=2, seed=0, batches=3)
        assert calls == []

    def test_predict_batch_equals_per_sample(self):
        params = init_params(TINY_NET, seed=0)
        samples = [synth(10 + i) for i in range(EVAL_BATCH + 2)]
        for s, d in zip(samples, predict_batch(params, TINY_NET, samples)):
            np.testing.assert_array_equal(d, predict(params, TINY_NET, s))

    def test_evaluate_batches_runs_of_one_size(self, monkeypatch):
        # a run longer than EVAL_BATCH, another size, then the first size again
        samples = ([synth(20 + i) for i in range(EVAL_BATCH + 2)]
                   + [synth(40 + i, h=32) for i in range(2)] + [synth(50)])
        params = init_params(TINY_NET, seed=0)
        preds = [predict(params, TINY_NET, s) for s in samples]
        from edgedisp.losses import metrics_report
        want = metrics_report(np.concatenate([d.ravel() for d in preds]),
                              np.concatenate([s.disparity.data.ravel() for s in samples]),
                              np.concatenate([s.valid.ravel() for s in samples]))
        batches, forward = [], network.forward

        def spy(left, *args):
            batches.append(left.shape[0])
            return forward(left, *args)
        monkeypatch.setattr(network, "forward", spy)
        assert evaluate_params(params, TINY_NET, samples) == want
        assert batches == [EVAL_BATCH, 2, 2, 1]


class TestMultiTaskFlow:
    def test_gradients_reach_all_partitions(self, tmp_path):
        import edgedisp.network as network
        from edgedisp.trainer import _batch_arrays, compute_losses
        data_dir = str(tmp_path / "d")
        make_dataset(data_dir, 2)
        samples = [ddata.load_sample(data_dir, i)
                   for i in ddata.list_samples(data_dir)]
        params = init_params(TINY_NET, seed=0)
        left, right, disp, valid, edges = _batch_arrays(samples, [0, 1])
        outputs = network.forward(left, right, params, TINY_NET, "train")
        parts = compute_losses(outputs, disp, valid, edges, LossWeights(),
                               TINY_NET)
        parts["total"].backward()
        for prefix in ("shared", "edge", "disp"):
            grads = [t.grad for n, t in params.partition(prefix).items()
                     if t.requires_grad]
            assert any(g is not None and np.any(g != 0.0) for g in grads), prefix
