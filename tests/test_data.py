import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import COMMENTED_HEADERS, comment_header
from edgedisp.data import (FormatError, depth_edge_gt, instance_boundaries,
                           list_samples, load_sample, read_pfm, read_pgm,
                           save_sample, semantic_boundaries, synth_stereogram,
                           write_pfm, write_pgm)


def brute_force_boundaries(mask, foreground_only):
    """Per-pixel 8-neighbor scan, the independent oracle."""
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            if foreground_only and mask[y, x] == 0:
                continue
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] != mask[y, x]:
                        out[y, x] = 1
    return out


class TestBoundaries:
    def test_constant_masks_have_no_edges(self):
        mask = np.full((5, 5), 3)
        assert instance_boundaries(mask).sum() == 0
        assert semantic_boundaries(mask).sum() == 0

    def test_two_instance_split(self):
        mask = np.zeros((4, 4), dtype=int)
        mask[:, :2] = 1
        mask[:, 2:] = 2
        edges = instance_boundaries(mask)
        expected = brute_force_boundaries(mask, foreground_only=True)
        np.testing.assert_array_equal(edges, expected)
        assert np.all(edges[:, 1]) and np.all(edges[:, 2])
        assert not edges[:, 0].any() and not edges[:, 3].any()

    def test_single_pixel_instance(self):
        mask = np.zeros((5, 5), dtype=int)
        mask[2, 2] = 7
        edges = instance_boundaries(mask)
        assert edges[2, 2] == 1
        assert edges.sum() == 1

    def test_semantic_two_region_band(self):
        mask = np.zeros((6, 6), dtype=int)
        mask[:, 3:] = 1
        edges = semantic_boundaries(mask)
        np.testing.assert_array_equal(
            edges, brute_force_boundaries(mask, foreground_only=False))
        assert np.all(edges[:, 2]) and np.all(edges[:, 3])
        assert edges.sum() == 12

    def test_checkerboard_all_edges(self):
        mask = np.indices((4, 4)).sum(axis=0) % 2
        assert semantic_boundaries(mask).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 4, size=(12, 9))
        np.testing.assert_array_equal(
            instance_boundaries(mask), brute_force_boundaries(mask, True))
        np.testing.assert_array_equal(
            semantic_boundaries(mask), brute_force_boundaries(mask, False))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 5, size=(8, 8))
        relabel = {0: 0, 1: 9, 2: 4, 3: 17, 4: 2}
        remapped = np.vectorize(relabel.get)(mask)
        np.testing.assert_array_equal(
            instance_boundaries(mask), instance_boundaries(remapped))


class TestDepthEdgeGt:
    def test_constant_masks_zero(self):
        assert depth_edge_gt(np.zeros((4, 4), int), np.zeros((4, 4), int)).sum() == 0

    def test_union_superset_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            inst = rng.integers(0, 3, size=(10, 10))
            sem = rng.integers(0, 3, size=(10, 10))
            out = depth_edge_gt(inst, sem)
            ib = instance_boundaries(inst)
            sb = semantic_boundaries(sem)
            assert np.all(out >= ib) and np.all(out >= sb)
            np.testing.assert_array_equal(out, ib | sb)

    def test_dilation_of_single_pixel(self):
        inst = np.zeros((7, 7), int)
        inst[3, 3] = 1
        out = depth_edge_gt(inst, np.zeros((7, 7), int), dilate_radius=1)
        assert out.sum() == 9
        assert out[2:5, 2:5].all()

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError, match="extents"):
            depth_edge_gt(np.zeros((4, 4), int), np.zeros((4, 5), int))


class TestSynthStereogram:
    CFG = {"H": 32, "W": 48, "D_max": 12, "n_objects": 3}

    def test_single_plane_has_no_depth_edges(self):
        s = synth_stereogram(0, {"H": 16, "W": 24, "D_max": 8, "n_objects": 0})
        assert np.unique(s.disparity.data).size == 1
        assert depth_edge_gt(s.instance, s.semantic).sum() == 0

    def test_disparity_bounds(self):
        for seed in range(10):
            s = synth_stereogram(seed, self.CFG)
            assert s.disparity.data.min() >= 0
            assert s.disparity.data.max() < self.CFG["D_max"]

    def test_photometric_consistency_on_valid_pixels(self):
        for seed in range(5):
            s = synth_stereogram(seed, self.CFG)
            h, w = s.disparity.shape
            left = s.left.data[0]
            right = s.right.data[0]
            d = s.disparity.data.astype(int)
            for y in range(h):
                for x in range(w):
                    if s.valid[y, x]:
                        assert left[y, x] == right[y, x - d[y, x]]

    def test_deterministic_per_seed(self):
        a = synth_stereogram(3, self.CFG)
        b = synth_stereogram(3, self.CFG)
        assert np.array_equal(a.left.data, b.left.data)
        assert np.array_equal(a.right.data, b.right.data)
        assert np.array_equal(a.disparity.data, b.disparity.data)
        assert np.array_equal(a.valid, b.valid)

    def test_masks_are_consistent(self):
        s = synth_stereogram(1, self.CFG)
        assert set(np.unique(s.semantic)) <= {0, 1}
        np.testing.assert_array_equal(s.semantic, (s.instance > 0).astype(int))

    def test_infeasible_config_rejected(self):
        with pytest.raises(ValueError, match="D_max"):
            synth_stereogram(0, {"H": 16, "W": 16, "D_max": 8, "n_objects": 1})

    @pytest.mark.parametrize("h, d_max, match", [(16, 0, "D_max >= 2, got D_max=0"),
                                                 (16, 1, "D_max >= 2, got D_max=1"),
                                                 (1, 4, "H >= 2, got H=1")])
    def test_objects_need_two_levels_and_two_rows(self, h, d_max, match):
        with pytest.raises(ValueError, match=match):
            synth_stereogram(0, {"H": h, "W": 16, "D_max": d_max, "n_objects": 1})
        s = synth_stereogram(0, {"H": h, "W": 16, "D_max": d_max, "n_objects": 0})
        assert s.disparity.shape == (h, 16)
        assert 0 <= s.disparity.data.min() and s.disparity.data.max() <= max(d_max - 1, 0)

    def test_smallest_scene_with_objects_puts_them_nearer(self):
        for seed in range(20):
            s = synth_stereogram(seed, {"H": 2, "W": 6, "D_max": 2, "n_objects": 2})
            objects = s.instance > 0
            assert objects.any()
            np.testing.assert_array_equal(s.disparity.data[objects], 1.0)
            np.testing.assert_array_equal(s.disparity.data[~objects], 0.0)


class TestPfm:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(4, 5)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "map.pfm")
        write_pfm(path, values)
        back = read_pfm(path)
        np.testing.assert_array_equal(back, values)

    def test_header_parsing(self, tmp_path):
        payload = np.arange(20, dtype="<f4").tobytes()
        path = tmp_path / "hand.pfm"
        path.write_bytes(b"Pf\n5 4\n-1.0\n" + payload)
        values = read_pfm(str(path))
        assert values.shape == (4, 5)
        # bottom-up rows: the first stored row is the bottom image row
        np.testing.assert_array_equal(values[3], [0, 1, 2, 3, 4])

    def test_big_endian_scale(self, tmp_path):
        values = np.array([[1.5, -2.25], [4.0, 0.5]], dtype=np.float64)
        payload = values[::-1].astype(">f4").tobytes()
        path = tmp_path / "big.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        np.testing.assert_array_equal(read_pfm(str(path)), values)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            read_pfm(str(path))

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "scale.pfm"
        path.write_bytes(f"Pf\n2 1\n{scale}\n".encode() + np.array([1.5, 2.5], "<f4").tobytes())
        with pytest.raises(FormatError, match="scale.*offset 7"):
            read_pfm(str(path))

    @pytest.mark.parametrize("layout", sorted(COMMENTED_HEADERS))
    def test_header_comments_skipped(self, tmp_path, layout):
        values = np.random.default_rng(4).normal(size=(3, 5))
        path = str(tmp_path / "c.pfm")
        write_pfm(path, values)
        plain = read_pfm(path)
        comment_header(path, layout)
        np.testing.assert_array_equal(read_pfm(path), plain)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"Pf\n3 3\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(str(path))


class TestPgm:
    def test_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(6, 7))
        path = str(tmp_path / "m.pgm")
        write_pgm(path, img)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, img)

    def test_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 65536, size=(3, 4))
        path = str(tmp_path / "m16.pgm")
        write_pgm(path, img, maxval=65535)
        back, maxval = read_pgm(path)
        assert maxval == 65535
        np.testing.assert_array_equal(back, img)

    @pytest.mark.parametrize("layout", sorted(COMMENTED_HEADERS))
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_header_comments_skipped(self, tmp_path, maxval, layout):
        img = np.random.default_rng(5).integers(0, maxval + 1, size=(4, 6))
        path = str(tmp_path / "c.pgm")
        write_pgm(path, img, maxval=maxval)
        comment_header(path, layout)
        back, back_maxval = read_pgm(path)
        assert back_maxval == maxval
        np.testing.assert_array_equal(back, img)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(str(path))

    @pytest.mark.parametrize("maxval", [0, 65536, 99999])
    def test_bad_maxval(self, tmp_path, maxval):
        path = tmp_path / "x.pgm"
        path.write_bytes(f"P5\n2 2\n{maxval}\n".encode() + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(str(path))

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n2 1\n4095\n\xff\xff\x00\x07", "sample 65535 above maxval 4095 (byte offset 12)"),
        (b"P5\n3 1\n100\n\x00\x64\x65", "sample 101 above maxval 100 (byte offset 13)"),
    ])
    def test_sample_above_maxval_refused(self, tmp_path, raw, message):
        path = tmp_path / "over.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=re.escape(message)):
            read_pgm(str(path))

    @pytest.mark.parametrize("maxval", [0, 65536, 70000])
    def test_write_rejects_maxval_read_refuses(self, tmp_path, maxval):
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match="maxval"):
            write_pgm(str(path), np.zeros((2, 2), dtype=np.int64), maxval=maxval)
        assert not path.exists()

    @pytest.mark.parametrize("values, match", [
        ([[1.7, 254.9]], "integers"),
        ([[0.0, np.nan]], "finite"),
        ([[np.inf, 1.0]], "finite"),
    ])
    def test_write_refuses_values_it_cannot_store(self, tmp_path, values, match):
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match=match):
            write_pgm(str(path), np.array(values))
        assert not path.exists()

    def test_integer_valued_floats_written(self, tmp_path):
        path = str(tmp_path / "f.pgm")
        write_pgm(path, np.array([[0.0, 1.0], [254.0, 255.0]]))
        back, _ = read_pgm(path)
        np.testing.assert_array_equal(back, [[0, 1], [254, 255]])


class TestDatasetLayout:
    def test_save_load_roundtrip(self, tmp_path):
        s = synth_stereogram(5, {"H": 16, "W": 24, "D_max": 8, "n_objects": 2})
        d = str(tmp_path / "train")
        save_sample(d, 0, s)
        assert list_samples(d) == [0]
        back = load_sample(d, 0)
        np.testing.assert_array_equal(back.left.data, s.left.data)
        np.testing.assert_array_equal(back.right.data, s.right.data)
        np.testing.assert_array_equal(back.disparity.data, s.disparity.data)
        np.testing.assert_array_equal(back.instance, s.instance)
        np.testing.assert_array_equal(back.valid, s.valid)

    @pytest.mark.parametrize("suffix", ["right.pgm", "disp.pfm", "inst.pgm", "sem.pgm",
                                        "valid.pgm"])
    def test_maps_of_another_extent_rejected(self, tmp_path, suffix):
        d = str(tmp_path / "t")
        save_sample(d, 0, synth_stereogram(5, {"H": 16, "W": 24, "D_max": 8, "n_objects": 2}))
        path = str(tmp_path / "t" / f"0000_{suffix}")
        if suffix.endswith(".pfm"):
            write_pfm(path, np.zeros((16, 12)))
        else:
            write_pgm(path, np.zeros((16, 12), dtype=np.int64))
        with pytest.raises(ValueError) as info:
            load_sample(d, 0)
        assert str(info.value) == (f"{path}: extent (16, 12) differs from the left "
                                   f"image's (16, 24)")

    def test_photometric_consistency_survives_disk(self, tmp_path):
        s = synth_stereogram(9, {"H": 16, "W": 24, "D_max": 8, "n_objects": 2})
        d = str(tmp_path / "t")
        save_sample(d, 3, s)
        back = load_sample(d, 3)
        dint = back.disparity.data.astype(int)
        h, w = dint.shape
        for y in range(h):
            for x in range(w):
                if back.valid[y, x]:
                    assert back.left.data[0, y, x] == back.right.data[0, y, x - dint[y, x]]
