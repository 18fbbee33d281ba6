import json
import os

import numpy as np
import pytest

from checks import COMMENTED_HEADERS, checkpoint_holding, comment_header
from edgedisp import data as ddata
from edgedisp import trainer
from edgedisp.cli import colorize, main
from edgedisp.network import NetworkConfig, init_params
from edgedisp.trainer import save_checkpoint

TINY_NET = {"base_channels": 4, "d_max": 8, "groups": 2, "k_top": 2,
            "dilation_rates": [1, 2]}


def _tiny_checkpoint(tmp_path) -> str:
    """Path of a freshly initialised TINY_NET checkpoint."""
    net = NetworkConfig(**{**TINY_NET, "dilation_rates": tuple(TINY_NET["dilation_rates"])})
    ckpt = str(tmp_path / "tiny.ckpt")
    save_checkpoint(init_params(net, seed=0), None, ckpt, net)
    return ckpt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestColormap:
    def test_lut_endpoints(self):
        img = colorize(np.array([[0.0, 1.0]]), 1.0)
        assert img.shape == (1, 2, 3)
        assert img[0, 0, 2] > img[0, 0, 0]  # low end is blue-dominated
        assert img[0, 1, 0] > img[0, 1, 2]  # high end is red-dominated

    def test_deterministic(self):
        vals = np.linspace(0, 7, 50).reshape(5, 10)
        np.testing.assert_array_equal(colorize(vals, 7.0), colorize(vals, 7.0))


class TestGenData:
    def test_creates_samples_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code, stdout, _ = run(capsys, "gen-data", "--out", out, "--count", "3",
                              "--height", "16", "--width", "32", "--dmax", "8")
        assert code == 0
        manifest = json.loads(stdout)
        assert manifest["count"] == 3
        assert len(manifest["samples"]) == 3
        assert ddata.list_samples(out) == [0, 1, 2]
        s = ddata.load_sample(out, 1)
        assert s.left.shape == (3, 16, 32)

    def test_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        for out in (a, b):
            code, _, _ = run(capsys, "gen-data", "--out", out, "--count", "2",
                             "--height", "16", "--width", "32", "--dmax", "8",
                             "--seed", "5")
            assert code == 0
        for i in (0, 1):
            x = ddata.load_sample(a, i)
            y = ddata.load_sample(b, i)
            np.testing.assert_array_equal(x.left.data, y.left.data)
            np.testing.assert_array_equal(x.disparity.data, y.disparity.data)

    def test_infeasible_dmax_rejected(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen-data", "--out", str(tmp_path / "x"),
                              "--width", "16", "--dmax", "8")
        assert code == 2
        assert "dmax" in stderr

    @pytest.mark.parametrize("flag, value, message", [
        ("--dmax", "0", "D_max >= 2, got D_max=0"), ("--dmax", "1", "D_max >= 2, got D_max=1"),
        ("--height", "1", "H >= 2, got H=1")])
    def test_scene_without_room_for_objects_refused(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x"
        code, stdout, stderr = run(capsys, "gen-data", "--out", str(out), flag, value)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--count", "0"), ("--count", "-1"), ("--height", "0"), ("--width", "0"),
        ("--width", "-32"), ("--dmax", "-4")])
    def test_out_of_range_flag_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code, stdout, stderr = run(capsys, "gen-data", "--out", str(out), flag, value)
        assert code == 2
        assert f"{flag} must be >=" in stderr and value in stderr
        assert stdout == "" and not out.exists()


class TestGenGt:
    def test_zero_masks(self, tmp_path, capsys):
        inst = str(tmp_path / "inst.pgm")
        sem = str(tmp_path / "sem.pgm")
        out = str(tmp_path / "edges.pgm")
        ddata.write_pgm(inst, np.zeros((8, 8), dtype=np.int64))
        ddata.write_pgm(sem, np.zeros((8, 8), dtype=np.int64))
        code, stdout, _ = run(capsys, "gen-gt", "--inst", inst, "--sem", sem,
                              "--out", out)
        assert code == 0
        assert json.loads(stdout)["edge_pixels"] == 0
        edges, _ = ddata.read_pgm(out)
        assert edges.sum() == 0

    def test_golden_step_mask(self, tmp_path, capsys):
        inst = np.zeros((6, 6), dtype=np.int64)
        inst[:, 3:] = 1
        pi = str(tmp_path / "i.pgm")
        ps = str(tmp_path / "s.pgm")
        out = str(tmp_path / "e.pgm")
        ddata.write_pgm(pi, inst)
        ddata.write_pgm(ps, np.zeros_like(inst))
        code, stdout, _ = run(capsys, "gen-gt", "--inst", pi, "--sem", ps,
                              "--out", out)
        assert code == 0
        edges, _ = ddata.read_pgm(out)
        want = np.zeros((6, 6), dtype=np.int64)
        want[:, 3] = 1  # only the foreground side of the step
        np.testing.assert_array_equal(edges, want)

    def test_extent_mismatch(self, tmp_path, capsys):
        pi = str(tmp_path / "i.pgm")
        ps = str(tmp_path / "s.pgm")
        ddata.write_pgm(pi, np.zeros((4, 4), dtype=np.int64))
        ddata.write_pgm(ps, np.zeros((4, 5), dtype=np.int64))
        code, _, stderr = run(capsys, "gen-gt", "--inst", pi, "--sem", ps,
                              "--out", str(tmp_path / "o.pgm"))
        assert code == 2
        assert "extents" in stderr

    def test_negative_dilation_rejected(self, tmp_path, capsys):
        pi, ps = str(tmp_path / "i.pgm"), str(tmp_path / "s.pgm")
        for path in (pi, ps):
            ddata.write_pgm(path, np.zeros((4, 4), dtype=np.int64))
        out = tmp_path / "o.pgm"
        code, _, stderr = run(capsys, "gen-gt", "--inst", pi, "--sem", ps,
                              "--out", str(out), "--dilate", "-1")
        assert code == 2
        assert "--dilate must be >= 0, got -1" in stderr
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen-gt", "--inst", "/nonexistent.pgm",
                              "--sem", "/nonexistent.pgm",
                              "--out", str(tmp_path / "o.pgm"))
        assert code == 2
        assert "error" in stderr


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        train_dir = str(tmp_path / "train")
        val_dir = str(tmp_path / "val")
        run_dir = str(tmp_path / "run")
        for out, seed in ((train_dir, 0), (val_dir, 100)):
            code, _, _ = run(capsys, "gen-data", "--out", out, "--count", "2",
                             "--height", "16", "--width", "32", "--dmax", "8",
                             "--seed", str(seed))
            assert code == 0

        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET, "lr_schedule": [[0, 1e-3]]}, f)
        code, stdout, _ = run(capsys, "train", "--config", cfg_path,
                              "--data", train_dir, "--val-data", val_dir,
                              "--out", run_dir, "--steps", "2",
                              "--batch-size", "2", "--eval-interval", "1")
        assert code == 0
        result = json.loads(stdout)
        assert os.path.exists(result["last"])
        assert os.path.exists(result["best"])
        assert "epe" in result["val"]

        code, stdout, _ = run(capsys, "eval", "--ckpt", result["last"],
                              "--data", val_dir)
        assert code == 0
        report = json.loads(stdout)
        assert {"epe", "d1_all", "n_valid"} <= set(report)

        left = os.path.join(val_dir, "0000_left.pgm")
        right = os.path.join(val_dir, "0000_right.pgm")
        out_disp = str(tmp_path / "d.pfm")
        out_vis = str(tmp_path / "d.ppm")
        code, stdout, _ = run(capsys, "infer", "--ckpt", result["last"],
                              "--left", left, "--right", right,
                              "--out-disp", out_disp, "--out-vis", out_vis,
                              "--gt", os.path.join(val_dir, "0000_disp.pfm"))
        assert code == 0
        report = json.loads(stdout)
        assert "epe" in report
        disp = ddata.read_pfm(out_disp)
        assert disp.shape == (16, 32)
        assert disp.min() >= 0.0 and disp.max() <= 7.0
        with open(out_vis, "rb") as f:
            assert f.read(2) == b"P6"

    def test_infer_idempotent(self, tmp_path, capsys):
        data_dir = str(tmp_path / "d")
        run_dir = str(tmp_path / "r")
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", "2",
                         "--height", "16", "--width", "32", "--dmax", "8")
        assert code == 0
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET}, f)
        code, stdout, _ = run(capsys, "train", "--config", cfg_path,
                              "--data", data_dir, "--out", run_dir,
                              "--steps", "1", "--batch-size", "2")
        assert code == 0
        ckpt = json.loads(stdout)["last"]
        outs = []
        for tag in ("x", "y"):
            disp_path = str(tmp_path / f"{tag}.pfm")
            code, _, _ = run(capsys, "infer", "--ckpt", ckpt,
                             "--left", os.path.join(data_dir, "0000_left.pgm"),
                             "--right", os.path.join(data_dir, "0000_right.pgm"),
                             "--out-disp", disp_path,
                             "--out-vis", str(tmp_path / f"{tag}.ppm"))
            assert code == 0
            with open(disp_path, "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("key", ["stepz", "grad_clip", "edge_dilate_radius"])
    def test_unknown_overlay_key_rejected(self, tmp_path, capsys, key):
        data_dir = str(tmp_path / "d")
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET, key: 3}, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", data_dir, "--out", str(tmp_path / "r"))
        assert code == 2
        assert key in stderr and stdout == ""

    @pytest.mark.parametrize("key", ["data_dir", "val_dir", "out_dir"])
    def test_flag_only_overlay_key_rejected(self, tmp_path, capsys, key):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET, key: str(tmp_path / "x")}, f)
        run_dir = tmp_path / "r"
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", str(tmp_path / "d"), "--out", str(run_dir))
        assert code == 2
        assert key in stderr and "Traceback" not in stderr and stdout == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize("overlay, key, bad", [
        ({"network": {"base_chanels": 8}}, "network", "base_chanels"),
        ({"loss_weights": {"lamda1": 1}}, "loss_weights", "lamda1"),
        ({"network": {"downsample": 4}}, "network", "downsample"),
        ({"network": {"n_agm": 3}}, "network", "n_agm"),
    ])
    def test_unknown_nested_overlay_key_rejected(self, tmp_path, capsys, overlay, key, bad):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(overlay, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"unknown {key} keys" in stderr and bad in stderr and stdout == ""

    @pytest.mark.parametrize("overlay, message", [
        ({"network": {"d_max": "16"}}, "network.d_max must be int, got '16'"),
        ({"network": {"use_edge_branch": 1}}, "network.use_edge_branch must be bool"),
        ({"network": {"dilation_rates": [1, 2.5]}}, "network.dilation_rates must be Tuple[int, ...]"),
        ({"loss_weights": {"a": "0.5"}}, "loss_weights.a must be float"),
        ({"steps": 2.5}, "steps must be int, got 2.5"),
        ({"seed": None}, "seed must be int, got None"),
        ({"lr_schedule": [["0", 1e-3]]}, "lr_schedule must be Tuple[Tuple[int, float], ...]"),
        ({"network": {"groups": 0}}, "groups must be >= 1, got 0"),
        ({"network": {"groups": 1}}, "needs >= 2 groups, got 1"),
    ])
    def test_overlay_value_type_checked(self, tmp_path, capsys, overlay, message):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(overlay, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"))
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""

    @pytest.mark.parametrize("overlay, flags, message", [
        ({}, ["--eval-interval", "0"], "eval_interval must be >= 1, got 0"),
        ({"lr_schedule": []}, [], "lr_schedule must have at least one breakpoint"),
        ({"lr_schedule": [[0, -1.0]]}, [], "lr_schedule rates must be finite and > 0, got -1.0"),
        ({"seed": -1}, [], "seed must be >= 0, got -1"),
        ({}, ["--seed", "-3"], "seed must be >= 0, got -3"),
        ({"loss_weights": {"lambda1": np.nan}}, [], "lambda1 must be finite, got nan"),
        ({"loss_weights": {"gamma": np.inf}}, [], "gamma must be finite, got inf"),
    ])
    def test_malformed_schedule_exits_2_before_reading_data(self, tmp_path, capsys, overlay,
                                                             flags, message):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET, **overlay}, f)
        run_dir = tmp_path / "r"
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", str(tmp_path / "d"), "--val-data", str(tmp_path / "v"),
                                   "--out", str(run_dir), *flags)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""
        assert not run_dir.exists()

    @pytest.mark.parametrize("overlay, message", [
        (5, "must be a JSON object, got 5"),
        ([], "must be a JSON object, got []"),
        ({"network": 5}, "section network must be a JSON object, got 5"),
        ({"loss_weights": None}, "section loss_weights must be a JSON object, got None"),
    ])
    def test_non_object_overlay_rejected(self, tmp_path, capsys, overlay, message):
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(overlay, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path,
                                   "--data", str(tmp_path / "d"), "--out", str(tmp_path / "r"))
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""

    @pytest.mark.parametrize("count, flags, message", [
        (2, ["--batch-size", "1"], "batch_size must be >= 2 with norm_enabled, got 1"),
        (1, ["--batch-size", "2"], "holds 1 sample; batch statistics need at least 2"),
    ])
    def test_degenerate_batch_norm_batches_exit_2_before_logging(self, tmp_path, capsys,
                                                                 count, flags, message):
        data_dir, run_dir = str(tmp_path / "d"), tmp_path / "r"
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", str(count),
                         "--height", "16", "--width", "32", "--dmax", "8")
        assert code == 0
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET}, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path, "--data", data_dir,
                                   "--out", str(run_dir), "--steps", "3", *flags)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""
        assert count > 1 or data_dir in stderr
        assert not (run_dir / "log.jsonl").exists()

    def test_samples_of_two_extents_exit_2_before_the_run_directory(self, tmp_path, capsys):
        data_dir, run_dir = str(tmp_path / "d"), tmp_path / "r"
        for i, w in enumerate((32, 64)):
            ddata.save_sample(data_dir, i, ddata.synth_stereogram(
                i, {"H": 32, "W": w, "D_max": 8, "n_objects": 1}))
        code, stdout, stderr = run(capsys, "train", "--data", data_dir, "--out", str(run_dir),
                                   "--steps", "1", "--batch-size", "2")
        assert code == 2 and stdout == "" and "Traceback" not in stderr
        assert data_dir in stderr and "(32, 32) and (32, 64)" in stderr
        assert not run_dir.exists()

    def test_zero_step_run_accepts_one_sample(self, tmp_path, capsys):
        """A zero-step run takes no batch statistics: it writes the
        initial checkpoint from a one-sample set."""
        data_dir = str(tmp_path / "d")
        run(capsys, "gen-data", "--out", data_dir, "--count", "1",
            "--height", "16", "--width", "32", "--dmax", "8")
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET}, f)
        code, stdout, _ = run(capsys, "train", "--config", cfg_path, "--data", data_dir,
                              "--out", str(tmp_path / "r"), "--steps", "0")
        assert code == 0 and os.path.exists(json.loads(stdout)["last"])

    @pytest.mark.parametrize("make_val_dir", [True, False], ids=["empty", "missing"])
    def test_bad_validation_set_exits_2_before_the_run_directory(self, tmp_path, capsys,
                                                                  make_val_dir):
        data_dir, val_dir, run_dir = str(tmp_path / "d"), tmp_path / "v", tmp_path / "r"
        run(capsys, "gen-data", "--out", data_dir, "--count", "2",
            "--height", "16", "--width", "32", "--dmax", "8")
        if make_val_dir:
            val_dir.mkdir()
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET}, f)
        code, stdout, stderr = run(capsys, "train", "--config", cfg_path, "--data", data_dir,
                                   "--val-data", str(val_dir), "--out", str(run_dir),
                                   "--steps", "1")
        assert code == 2
        assert str(val_dir) in stderr and "Traceback" not in stderr and stdout == ""
        assert not run_dir.exists()

    def test_train_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise RuntimeError("non-finite loss at step 1")
        monkeypatch.setattr(trainer, "train", fail)
        code, stdout, stderr = run(capsys, "train", "--data", str(tmp_path / "d"),
                                   "--out", str(tmp_path / "r"))
        assert code == 2
        assert "non-finite loss" in stderr and "Traceback" not in stderr and stdout == ""

    def test_sample_above_maxval_exits_2(self, tmp_path, capsys):
        """A 16-bit image holding 65535 under maxval 4095 is refused by
        ``infer`` and by ``eval`` with the offset of that sample."""
        ckpt = _tiny_checkpoint(tmp_path)
        data_dir = str(tmp_path / "d")
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", "1",
                         "--height", "32", "--width", "32", "--dmax", "8")
        assert code == 0
        left = os.path.join(data_dir, "0000_left.pgm")
        with open(left, "wb") as f:
            f.write(b"P5\n2 1\n4095\n\xff\xff\x00\x07")
        message = "sample 65535 above maxval 4095 (byte offset 12)"
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", left,
                                   "--right", left, "--out-disp", str(tmp_path / "d.pfm"),
                                   "--out-vis", str(tmp_path / "d.ppm"))
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""
        code, stdout, stderr = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""

    def test_infer_checkpoint_non_finite(self, tmp_path, capsys):
        net = NetworkConfig(**{**TINY_NET, "dilation_rates": tuple(TINY_NET["dilation_rates"])})
        ckpt = str(tmp_path / "nan.ckpt")
        checkpoint_holding(ckpt, init_params(net, seed=0), net, "disp.out2.b.b", np.nan)
        img = str(tmp_path / "img.pgm")
        ddata.write_pgm(img, np.zeros((32, 32), dtype=np.int64))
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", img,
                                   "--right", img, "--out-disp", str(tmp_path / "d.pfm"),
                                   "--out-vis", str(tmp_path / "d.ppm"))
        assert code == 2
        assert "non-finite" in stderr and "disp.out2.b.b" in stderr and stdout == ""

    def test_infer_out_of_memory_exits_2(self, tmp_path, capsys):
        # d_max sets no tensor's shape, so the checkpoint loads; its cost
        # volume asks for 12 PiB, beyond any process's address space
        net = NetworkConfig(d_max=2 ** 40)
        ckpt = str(tmp_path / "deep.ckpt")
        save_checkpoint(init_params(net, seed=0), None, ckpt, net)
        img = str(tmp_path / "img.pgm")
        ddata.write_pgm(img, np.zeros((64, 64), dtype=np.int64))
        out_disp = str(tmp_path / "d.pfm")
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", img,
                                   "--right", img, "--out-disp", out_disp,
                                   "--out-vis", str(tmp_path / "d.ppm"))
        assert code == 2
        assert stderr.startswith("error: out of memory: ") and "PiB" in stderr
        assert "Traceback" not in stderr and stdout == "" and not os.path.exists(out_disp)

    def test_infer_non_finite_disparity_rejected(self, tmp_path, capsys):
        # Finite weights scaled by 1e30 pass the load-time check but overflow
        # the forward pass to NaN.
        net = NetworkConfig(**{**TINY_NET, "dilation_rates": tuple(TINY_NET["dilation_rates"])})
        params = init_params(net, seed=0)
        for name, t in params.tensors.items():
            if name.endswith(".w"):
                t.data *= 1e30
        ckpt = str(tmp_path / "huge.ckpt")
        save_checkpoint(params, None, ckpt, net)
        img = str(tmp_path / "img.pgm")
        ddata.write_pgm(img, np.arange(32 * 32).reshape(32, 32) % 256)
        out_disp, out_vis = str(tmp_path / "d.pfm"), str(tmp_path / "d.ppm")
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", img,
                                   "--right", img, "--out-disp", out_disp,
                                   "--out-vis", out_vis)
        assert code == 2
        assert "non-finite disparity" in stderr and "Traceback" not in stderr and stdout == ""
        assert not os.path.exists(out_disp) and not os.path.exists(out_vis)

    def test_eval_non_finite_disparity_rejected(self, tmp_path, capsys):
        # the same overflowing checkpoint as above: a NaN error fails every
        # threshold comparison, so metrics over it would read as perfect
        net = NetworkConfig(**{**TINY_NET, "dilation_rates": tuple(TINY_NET["dilation_rates"])})
        params = init_params(net, seed=0)
        for name, t in params.tensors.items():
            if name.endswith(".w"):
                t.data *= 1e30
        ckpt = str(tmp_path / "huge.ckpt")
        save_checkpoint(params, None, ckpt, net)
        data_dir = str(tmp_path / "d")
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", "2",
                         "--height", "32", "--width", "32", "--dmax", "8")
        assert code == 0
        code, stdout, stderr = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir)
        assert code == 2
        assert "non-finite disparity" in stderr and "Traceback" not in stderr and stdout == ""

    @pytest.mark.parametrize("gt_shape, nan_at, message", [
        ((1, 32), None, "ground-truth extents (1, 32) differ from the image extents (32, 32)"),
        ((16, 16), None, "ground-truth extents (16, 16) differ from the image extents (32, 32)"),
        ((32, 32), (3, 5), "non-finite ground-truth disparity at 1 of 1024 valid pixels"),
    ])
    def test_infer_bad_gt_rejected(self, tmp_path, capsys, gt_shape, nan_at, message):
        ckpt = _tiny_checkpoint(tmp_path)
        img = str(tmp_path / "img.pgm")
        ddata.write_pgm(img, np.zeros((32, 32), dtype=np.int64))
        values = np.ones(gt_shape)
        if nan_at is not None:
            values[nan_at] = np.nan
        gt = str(tmp_path / "gt.pfm")
        ddata.write_pfm(gt, values)
        out_disp, out_vis = str(tmp_path / "d.pfm"), str(tmp_path / "d.ppm")
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", img,
                                   "--right", img, "--out-disp", out_disp,
                                   "--out-vis", out_vis, "--gt", gt)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr and stdout == ""
        assert not os.path.exists(out_disp) and not os.path.exists(out_vis)

    def test_eval_non_finite_gt_rejected(self, tmp_path, capsys):
        ckpt = _tiny_checkpoint(tmp_path)
        data_dir = str(tmp_path / "d")
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", "2",
                         "--height", "32", "--width", "32", "--dmax", "8")
        assert code == 0
        sample = ddata.load_sample(data_dir, 1)
        disp = sample.disparity.data.copy()
        y, x = np.argwhere(sample.valid)[0]
        disp[y, x] = np.nan
        ddata.write_pfm(os.path.join(data_dir, "0001_disp.pfm"), disp)
        code, stdout, stderr = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir)
        assert code == 2
        assert "non-finite ground-truth disparity at 1 of" in stderr
        assert "Traceback" not in stderr and stdout == ""

    def test_eval_map_of_another_extent_rejected(self, tmp_path, capsys):
        ckpt = _tiny_checkpoint(tmp_path)
        data_dir = str(tmp_path / "d")
        code, _, _ = run(capsys, "gen-data", "--out", data_dir, "--count", "2",
                         "--height", "32", "--width", "32", "--dmax", "8")
        assert code == 0
        disp = os.path.join(data_dir, "0001_disp.pfm")
        ddata.write_pfm(disp, np.zeros((16, 32)))
        code, stdout, stderr = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir)
        assert code == 2
        assert f"{disp}: extent (16, 32) differs from the left image's (32, 32)" in stderr
        assert "Traceback" not in stderr and stdout == ""

    def test_infer_checkpoint_missing_tensor(self, tmp_path, capsys):
        net = NetworkConfig(**{**TINY_NET, "dilation_rates": tuple(TINY_NET["dilation_rates"])})
        params = init_params(net, seed=0)
        del params.tensors["disp.out0.b.b"]
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(params, None, ckpt, net)
        img = str(tmp_path / "img.pgm")
        ddata.write_pgm(img, np.zeros((32, 32), dtype=np.int64))
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", img,
                                   "--right", img, "--out-disp", str(tmp_path / "d.pfm"),
                                   "--out-vis", str(tmp_path / "d.ppm"))
        assert code == 2
        assert "disp.out0.b.b" in stderr and stdout == ""

    @pytest.mark.parametrize("make_ckpt", [True, False], ids=["checkpoint", "no-checkpoint"])
    def test_infer_error_map_without_gt_exits_2_before_the_checkpoint(self, tmp_path, capsys,
                                                                       make_ckpt):
        ckpt = _tiny_checkpoint(tmp_path) if make_ckpt else str(tmp_path / "missing.ckpt")
        img = tmp_path / "img.pgm"
        ddata.write_pgm(str(img), np.zeros((32, 32), dtype=np.int64))
        before = sorted(tmp_path.iterdir())
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", str(img),
                                   "--right", str(img), "--out-disp", str(tmp_path / "d.pfm"),
                                   "--out-vis", str(tmp_path / "d.ppm"),
                                   "--out-err", str(tmp_path / "e.ppm"))
        assert code == 2 and stdout == "" and "Traceback" not in stderr
        assert "--out-err" in stderr and "--gt" in stderr and "missing.ckpt" not in stderr
        assert sorted(tmp_path.iterdir()) == before

    def test_run_without_validation_replaces_an_older_best(self, tmp_path, capsys):
        data_dir, run_dir = str(tmp_path / "d"), tmp_path / "r"
        run(capsys, "gen-data", "--out", data_dir, "--count", "2",
            "--height", "16", "--width", "32", "--dmax", "8")
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"network": TINY_NET}, f)
        for seed in ("0", "5"):
            code, stdout, _ = run(capsys, "train", "--config", cfg_path, "--data", data_dir,
                                  "--out", str(run_dir), "--steps", "1", "--batch-size", "2",
                                  "--seed", seed)
            assert code == 0
        result = json.loads(stdout)
        with open(result["best"], "rb") as best, open(result["last"], "rb") as last:
            assert best.read() == last.read()

    @pytest.mark.parametrize("layout", sorted(COMMENTED_HEADERS))
    def test_infer_reads_commented_headers(self, tmp_path, capsys, layout):
        ckpt = _tiny_checkpoint(tmp_path)
        left, right, gt = (str(tmp_path / name) for name in ("l.pgm", "r.pgm", "gt.pfm"))
        ddata.write_pgm(left, np.arange(16 * 32).reshape(16, 32) % 256)
        ddata.write_pgm(right, np.arange(16 * 32).reshape(16, 32) % 251)
        ddata.write_pfm(gt, np.ones((16, 32)))
        reports = []
        for tag in ("plain", "commented"):
            if tag == "commented":
                for path in (left, right, gt):
                    comment_header(path, layout)
            code, stdout, _ = run(capsys, "infer", "--ckpt", ckpt, "--left", left,
                                  "--right", right, "--gt", gt,
                                  "--out-disp", str(tmp_path / f"{tag}.pfm"),
                                  "--out-vis", str(tmp_path / f"{tag}.ppm"))
            assert code == 0
            reports.append({k: v for k, v in json.loads(stdout).items()
                            if not k.startswith("out_")})
        assert reports[0] == reports[1]
        assert (tmp_path / "plain.pfm").read_bytes() == (tmp_path / "commented.pfm").read_bytes()

    def test_infer_images_of_two_extents_rejected(self, tmp_path, capsys):
        ckpt = _tiny_checkpoint(tmp_path)
        left, right = str(tmp_path / "l.pgm"), str(tmp_path / "r.pgm")
        ddata.write_pgm(left, np.zeros((32, 32), dtype=np.int64))
        ddata.write_pgm(right, np.zeros((32, 16), dtype=np.int64))
        out_disp, out_vis = str(tmp_path / "d.pfm"), str(tmp_path / "d.ppm")
        code, stdout, stderr = run(capsys, "infer", "--ckpt", ckpt, "--left", left,
                                   "--right", right, "--out-disp", out_disp,
                                   "--out-vis", out_vis)
        assert code == 2 and stdout == "" and "Traceback" not in stderr
        assert "extents" in stderr and "(32, 32)" in stderr and "(32, 16)" in stderr
        assert not os.path.exists(out_disp) and not os.path.exists(out_vis)

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "eval", "--ckpt", "/nonexistent.ckpt",
                              "--data", str(tmp_path))
        assert code == 2
        assert "error" in stderr
