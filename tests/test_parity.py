import os
import subprocess
import sys

import numpy as np

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "parity.py")


def compare(a, b):
    return subprocess.run([sys.executable, SCRIPT, "compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_compare_flags_a_one_ulp_change_and_a_missing_array(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"train.d1": rng.normal(size=(2, 3)), "predict.wide0": rng.normal(size=4)}
    np.savez(tmp_path / "a.npz", **arrays)
    same = compare(tmp_path / "a.npz", tmp_path / "a.npz")
    assert same.returncode == 0 and "0 of 2 arrays differ" in same.stdout

    moved = dict(arrays)
    moved["train.d1"] = arrays["train.d1"].copy()
    moved["train.d1"][1, 2] = np.nextafter(moved["train.d1"][1, 2], np.inf)
    np.savez(tmp_path / "b.npz", **moved)
    one = compare(tmp_path / "a.npz", tmp_path / "b.npz")
    assert one.returncode == 1
    d = abs(moved["train.d1"][1, 2] - arrays["train.d1"][1, 2])
    r = d / np.abs(arrays["train.d1"]).max()
    assert one.stdout.splitlines() == [
        f"differs: train.d1 max |a-b| {d:.3g}, {r:.3g} of max |a|",
        "1 of 2 arrays differ",
        f"worst: train.d1, max |a-b| {d:.3g}, {r:.3g} of max |a|"]

    del moved["predict.wide0"]
    np.savez(tmp_path / "c.npz", **moved)
    two = compare(tmp_path / "a.npz", tmp_path / "c.npz")
    assert two.returncode == 1
    assert "differs: predict.wide0" in two.stdout and "differs: train.d1" in two.stdout
    assert "2 of 2 arrays differ" in two.stdout


def test_compare_names_the_worst_array_relative_to_its_magnitude(tmp_path):
    big, small = np.array([1000.0, -2000.0]), np.array([1.0, 0.5])
    np.savez(tmp_path / "a.npz", big=big, small=small)
    np.savez(tmp_path / "b.npz", big=big + [0.0, 1e-9], small=small + [0.0, 1e-12])
    out = compare(tmp_path / "a.npz", tmp_path / "b.npz")
    assert out.returncode == 1
    # the larger difference is 5e-13 of its array's magnitude; the smaller, 1e-12
    assert out.stdout.splitlines()[-1] == "worst: small, max |a-b| 1e-12, 1e-12 of max |a|"
