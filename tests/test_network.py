import contextlib
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from edgedisp import data, ops, trainer
from edgedisp.network import (ModelParams, NetworkConfig, _conv_block, agm_module,
                              dedge_branch, dedge_spp, feature_extract,
                              forward, init_params, output_module, pre_stem)
from edgedisp.ops import ShapeError
from edgedisp.stereo import granular_param_count, standard_param_count
from edgedisp.tensor import Tensor, no_grad

from checks import (fd_check, infer_views_apart, randomise_batch_norm,
                    unfolded_batch_norm)

TINY = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                     dilation_rates=(1, 2))


def tiny_pair(rng, h=16, w=16, batch=1):
    left = Tensor(rng.normal(size=(batch, 3, h, w)))
    right = Tensor(rng.normal(size=(batch, 3, h, w)))
    return left, right


class TestConfig:
    def test_derived_quantities(self):
        cfg = NetworkConfig(base_channels=8, d_max=16)
        assert cfg.d_levels == 4

    def test_indivisible_dmax(self):
        with pytest.raises(ValueError, match="divisible"):
            NetworkConfig(d_max=18)

    def test_groups_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            NetworkConfig(base_channels=6, groups=4)

    def test_single_group_rejected(self):
        # the granular bottleneck needs a pass-through group and one more
        with pytest.raises(ValueError, match="needs >= 2 groups, got 1"):
            NetworkConfig(groups=1)

    def test_spp_requires_edge_branch(self):
        with pytest.raises(ValueError, match="edge branch"):
            NetworkConfig(use_edge_branch=False, use_dedge_spp=True)


class TestParams:
    def test_deterministic_init(self):
        a = init_params(TINY, seed=0)
        b = init_params(TINY, seed=0)
        assert set(a.tensors) == set(b.tensors)
        for n in a.tensors:
            np.testing.assert_array_equal(a[n].data, b[n].data)

    def test_seed_changes_values(self):
        a = init_params(TINY, seed=0)
        b = init_params(TINY, seed=1)
        assert any(not np.array_equal(a[n].data, b[n].data)
                   for n in a.tensors if a[n].requires_grad)

    def test_partitions_disjoint_and_complete(self):
        p = init_params(TINY, seed=0)
        names = set(p.tensors)
        parts = [set(p.partition(pre)) for pre in ("shared", "edge", "disp")]
        assert names == parts[0] | parts[1] | parts[2]
        assert not (parts[0] & parts[1]) and not (parts[1] & parts[2])

    def test_no_edge_params_when_disabled(self):
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2),
                            use_edge_branch=False, use_dedge_spp=False)
        p = init_params(cfg, seed=0)
        assert not p.partition("edge")

    def test_duplicate_name_rejected(self):
        p = ModelParams()
        p.add("shared.x", Tensor(np.zeros(1)))
        with pytest.raises(ValueError, match="duplicate"):
            p.add("shared.x", Tensor(np.zeros(1)))

    def test_unknown_partition_rejected(self):
        p = ModelParams()
        with pytest.raises(ValueError, match="partition"):
            p.add("misc.x", Tensor(np.zeros(1)))

    def test_buffers_not_trainable(self):
        p = init_params(TINY, seed=0)
        trainable = p.trainable()
        assert all(not n.endswith((".rmean", ".rvar")) for n in trainable)
        assert any(n.endswith(".rmean") for n in p.tensors)

    def test_bank_param_ratio(self):
        # granular bottlenecks must be cheaper than standard dilated convs
        c, g = 2 * TINY.base_channels, TINY.groups
        assert (granular_param_count(c, c, 3, g, spatial_rank=3)
                < standard_param_count(c, c, 3, spatial_rank=3))

    def test_default_weights_are_pinned(self):
        # SHA-256 over (name, float64 bytes) of every weight of the default
        # network at seed 0, in name order; it pins the initialiser, the
        # shapes and fans it is called with, and the order of RNG draws.
        p = init_params(NetworkConfig(), seed=0)
        h = hashlib.sha256()
        for name in sorted(n for n in p.tensors if n.endswith(".w")):
            h.update(name.encode())
            h.update(np.ascontiguousarray(p[name].data).tobytes())
        assert h.hexdigest() == (
            "cd8b494bb7fd2e870ca9f4dc28517d9a1943206e5dae3e6aac24c7d913207eb4")


class TestFeatureExtract:
    def test_tap_extents(self):
        rng = np.random.default_rng(0)
        p = init_params(TINY, seed=0)
        left, _ = tiny_pair(rng)
        taps = feature_extract(left, p, "eval")
        c = TINY.base_channels
        assert taps["shallow"].shape == (1, c, 16, 16)
        assert taps["half"].shape == (1, c, 8, 8)
        assert taps["F_L2"].shape == (1, c, 4, 4)
        assert taps["F_L4"].shape == (1, c, 4, 4)

    def test_indivisible_extent_rejected(self):
        p = init_params(TINY, seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            feature_extract(Tensor(np.zeros((1, 3, 15, 16))), p, "eval")

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        p = init_params(TINY, seed=0)
        left, _ = tiny_pair(rng)
        a = feature_extract(left, p, "eval")["F_L4"].data
        b = feature_extract(left, p, "eval")["F_L4"].data
        np.testing.assert_array_equal(a, b)


class TestEdgeBranch:
    def _taps(self, seed=0):
        rng = np.random.default_rng(seed)
        p = init_params(TINY, seed=0)
        left, _ = tiny_pair(rng)
        return feature_extract(left, p, "eval"), p

    def test_probability_range_and_extent(self):
        taps, p = self._taps()
        prob, feats = dedge_branch(taps, p, TINY, "eval", with_head=True)
        assert prob.shape == (1, 16, 16)
        assert np.all(prob.data > 0.0) and np.all(prob.data < 1.0)
        assert feats.shape[1] == 4 * TINY.k_top

    def test_zero_classifiers_give_half(self):
        taps, p = self._taps()
        for k in range(TINY.k_top):
            p[f"edge.cls{k}.w"].data[:] = 0.0
            p[f"edge.cls{k}.b"].data[:] = 0.0
        prob, _ = dedge_branch(taps, p, TINY, "eval", with_head=True)
        np.testing.assert_allclose(prob.data, 0.5, atol=1e-12)

    def test_max_over_groups(self):
        # pushing one classifier's bias high must saturate the output
        taps, p = self._taps()
        p["edge.cls0.b"].data[:] = 50.0
        prob, _ = dedge_branch(taps, p, TINY, "eval", with_head=True)
        assert np.all(prob.data > 0.99)

    def test_headless_returns_features_only(self):
        taps, p = self._taps()
        prob, feats = dedge_branch(taps, p, TINY, "eval", with_head=False)
        assert prob is None
        assert feats.shape[1] == 4 * TINY.k_top


class TestSpp:
    def test_output_extent(self):
        rng = np.random.default_rng(2)
        p = init_params(TINY, seed=0)
        left, _ = tiny_pair(rng)
        taps = feature_extract(left, p, "eval")
        _, feats = dedge_branch(taps, p, TINY, "eval", with_head=False)
        out = dedge_spp(taps["F_L2"], taps["F_L4"], feats, p, "eval")
        assert out.shape == (1, TINY.base_channels, 4, 4)

    def test_without_edge_features(self):
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2),
                            use_edge_branch=False, use_dedge_spp=False)
        rng = np.random.default_rng(3)
        p = init_params(cfg, seed=0)
        left, _ = tiny_pair(rng)
        taps = feature_extract(left, p, "eval")
        out = dedge_spp(taps["F_L2"], taps["F_L4"], None, p, "eval")
        assert out.shape == (1, cfg.base_channels, 4, 4)


class TestAgm:
    def test_shape_preserved(self):
        rng = np.random.default_rng(4)
        p = init_params(TINY, seed=0)
        c = TINY.base_channels
        v = Tensor(rng.normal(size=(1, c, 4, 8, 8)))
        out = agm_module(v, p, "disp.agm0", TINY, "eval")
        assert out.shape == v.shape

    def test_gradient_flows(self):
        rng = np.random.default_rng(5)
        p = init_params(TINY, seed=0)
        c = TINY.base_channels
        v = Tensor(rng.normal(size=(1, c, 4, 4, 4)), requires_grad=True)

        def build(t):
            out = agm_module(t, p, "disp.agm0", TINY, "eval")
            return (out * out).sum()

        fd_check(build, [v], rng, n_probe=4, rel_tol=1e-3)


class TestOutputModule:
    def test_range_and_extent(self):
        rng = np.random.default_rng(6)
        p = init_params(TINY, seed=0)
        c = TINY.base_channels
        v = Tensor(rng.normal(size=(1, c, 2, 4, 4)))
        d = output_module(v, p, "disp.out0", (16, 16), TINY.d_max, "eval")
        assert d.shape == (1, 16, 16)
        assert d.data.min() >= 0.0
        assert d.data.max() <= TINY.d_max - 1

    def test_uniform_cost_gives_midpoint(self):
        p = init_params(TINY, seed=0)
        for n, t in p.tensors.items():
            if n.startswith("disp.out0") and t.requires_grad:
                t.data[:] = 0.0
        c = TINY.base_channels
        v = Tensor(np.random.default_rng(7).normal(size=(1, c, 2, 4, 4)))
        d = output_module(v, p, "disp.out0", (8, 8), TINY.d_max, "eval")
        np.testing.assert_allclose(d.data, (TINY.d_max - 1) / 2.0, atol=1e-10)


class TestForward:
    def test_train_outputs(self):
        rng = np.random.default_rng(8)
        p = init_params(TINY, seed=0)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        out = forward(left, right, p, TINY, "train")
        assert set(out) == {"d1", "d2", "d3", "edge_prob"}
        for key in ("d1", "d2", "d3"):
            assert out[key].shape == (2, 32, 32)
            assert out[key].data.min() >= 0.0
            assert out[key].data.max() <= TINY.d_max - 1
        assert out["edge_prob"].shape == (2, 32, 32)

    def test_infer_output(self):
        rng = np.random.default_rng(9)
        p = init_params(TINY, seed=0)
        left, right = tiny_pair(rng)
        out = forward(left, right, p, TINY, "infer")
        assert set(out) == {"d3"}

    def test_train_and_infer_agree_on_last_stage(self):
        rng = np.random.default_rng(10)
        p = init_params(TINY, seed=0)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        d_train = forward(left, right, p, TINY, "train")["d3"].data
        p.zero_grad()
        d_infer = forward(left, right, p, TINY, "infer")["d3"].data
        # only batch-norm statistics differ between the modes
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2), norm_enabled=False)
        q = init_params(cfg, seed=0)
        a = forward(left, right, q, cfg, "train")["d3"].data
        b = forward(left, right, q, cfg, "infer")["d3"].data
        np.testing.assert_array_equal(a, b)
        assert d_train.shape == d_infer.shape

    def test_weight_sharing_across_views(self):
        # swapping identical left/right images yields identical features,
        # so the regressed disparity collapses to the soft-argmin prior
        rng = np.random.default_rng(11)
        p = init_params(TINY, seed=0)
        img = Tensor(rng.normal(size=(1, 3, 16, 16)))
        taps_l = feature_extract(img, p, "eval")
        taps_r = feature_extract(Tensor(img.data.copy()), p, "eval")
        np.testing.assert_array_equal(taps_l["F_L4"].data, taps_r["F_L4"].data)

    def test_infer_batch_equals_per_pair(self):
        # a pair's disparity does not depend on the other pairs in its batch
        cfg = NetworkConfig()
        p = init_params(cfg, seed=0)
        rng = np.random.default_rng(14)
        left = rng.random((4, 3, 64, 64))
        right = rng.random((4, 3, 64, 64))
        batched = forward(Tensor(left), Tensor(right), p, cfg, "infer")["d3"].data
        for i in range(4):
            single = forward(Tensor(left[i:i + 1]), Tensor(right[i:i + 1]),
                             p, cfg, "infer")["d3"].data
            assert np.array_equal(batched[i:i + 1], single), f"pair {i}"

    @pytest.mark.parametrize("cfg, hw", [
        (NetworkConfig(), 64),
        (TINY, 32),
        (NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                       dilation_rates=(1, 2), use_dedge_spp=False), 32),
        (NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                       dilation_rates=(1, 2), use_dedge_spp=False,
                       use_edge_branch=False), 32),
    ])
    def test_infer_equals_views_extracted_apart(self, cfg, hw):
        # the two views share one extractor batch in "infer" mode
        rng = np.random.default_rng(16)
        p = init_params(cfg, seed=0)
        left, right = tiny_pair(rng, h=hw, w=hw, batch=2)
        got = forward(left, right, p, cfg, "infer")["d3"].data
        np.testing.assert_array_equal(got, infer_views_apart(left, right, p, cfg).data)

    def test_stats_mode_returns_nothing_and_records_like_train(self):
        rng = np.random.default_rng(17)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        a, b = init_params(TINY, seed=0), init_params(TINY, seed=0)
        assert forward(left, right, a, TINY, "stats") == {}
        forward(left, right, b, TINY, "train")
        for name, t in b.tensors.items():
            np.testing.assert_array_equal(a[name].data, t.data, err_msg=name)

    def test_shape_mismatch_rejected(self):
        p = init_params(TINY, seed=0)
        with pytest.raises(ShapeError, match="pair"):
            forward(Tensor(np.zeros((1, 3, 16, 16))),
                    Tensor(np.zeros((1, 3, 16, 20))), p, TINY, "train")

    def test_bad_mode_rejected(self):
        p = init_params(TINY, seed=0)
        x = Tensor(np.zeros((1, 3, 16, 16)))
        with pytest.raises(ValueError, match="mode"):
            forward(x, x, p, TINY, "test")

    def test_ablation_no_edge_branch(self):
        cfg = NetworkConfig(base_channels=4, d_max=8, groups=2, k_top=2,
                            dilation_rates=(1, 2),
                            use_edge_branch=False, use_dedge_spp=False)
        rng = np.random.default_rng(12)
        p = init_params(cfg, seed=0)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        out = forward(left, right, p, cfg, "train")
        assert set(out) == {"d1", "d2", "d3"}

    def test_multitask_gradients_reach_both_branches(self):
        rng = np.random.default_rng(13)
        p = init_params(TINY, seed=0)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        out = forward(left, right, p, TINY, "train")
        loss = out["d3"].sum() + out["edge_prob"].sum()
        loss.backward()
        assert p["shared.conv0.w"].grad is not None
        assert np.any(p["shared.conv0.w"].grad != 0.0)
        assert p["edge.cls0.w"].grad is not None
        assert p["disp.agm0.enc1.w"].grad is not None

    def test_disp_loss_does_not_touch_edge_classifier(self):
        rng = np.random.default_rng(14)
        p = init_params(TINY, seed=0)
        left, right = tiny_pair(rng, h=32, w=32, batch=2)
        out = forward(left, right, p, TINY, "train")
        out["d3"].sum().backward()
        assert p["edge.cls0.w"].grad is None
        assert p["edge.a1.w"].grad is not None  # via the fused pyramid


class TestPreStem:
    def test_working_memory_holds_one_block_of_c_channels(self):
        """One untaped stem at 128x256, d_max 32, peaks below its inputs,
        the volume it builds, its output, one block of a column matrix over
        C channels (the |diff| block; the concatenation channels never reach
        one) and a slack."""
        cfg = NetworkConfig(d_max=32)
        p = init_params(cfg, seed=0)
        c = cfg.base_channels
        shape, volume = (1, c, 32, 64), (1, 3 * c, cfg.d_levels, 32, 64)
        plan = ops._plan(c, volume[2:], (3,) * 3, (1,) * 3, (1,) * 3, (1,) * 3, volume[2:])
        block = 8 * c * 27 * max(math.prod(blk.out) for blk in plan.blocks)
        slack = 1 << 20
        tracemalloc.start()
        try:
            rng = np.random.default_rng(35)
            fl, fr = Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=shape))
            with no_grad():
                v = pre_stem(fl, fr, p, cfg, "infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.shape == (1, c) + volume[2:]
        assert len(plan.blocks) > 1
        bound = 2 * fl.data.nbytes + 8 * math.prod(volume) + v.data.nbytes + block + slack
        assert peak < bound, (peak, bound)


class TestFoldedBatchNorm:
    """Outside "train" and "stats" each batch-norm is folded into its conv;
    ``checks.unfolded_batch_norm`` applies it after the conv instead. The
    batch-norm state is drawn first: at its initial values the fold is
    nearly the identity."""

    @pytest.mark.parametrize("h, w, d_max", [(64, 64, 16), (128, 256, 32), (256, 512, 64)])
    def test_predict_matches_unfolded(self, h, w, d_max):
        cfg = NetworkConfig(d_max=d_max)
        p = init_params(cfg, seed=0)
        randomise_batch_norm(p, np.random.default_rng(h))
        sample = data.synth_stereogram(1, {"H": h, "W": w, "D_max": d_max, "n_objects": 2})
        got = trainer.predict(p, cfg, sample)
        with unfolded_batch_norm():
            want = trainer.predict(p, cfg, sample)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name, x_shape, kwargs", [
        ("shared.conv0", (2, 3, 8, 8), {}),
        ("disp.pre.b", (2, 8, 3, 4, 5), {"nd": 3}),
        ("disp.agm0.dec1", (2, 16, 2, 2, 3),
         {"stride": 2, "relu": False, "output_size": (3, 4, 5)}),
    ])
    def test_eval_backward_reaches_weight_and_affine(self, name, x_shape, kwargs):
        cfg = NetworkConfig()
        p = init_params(cfg, seed=0)
        rng = np.random.default_rng(36)
        randomise_batch_norm(p, rng)
        x0 = rng.normal(size=x_shape)
        cot = None
        results = []
        for context in (contextlib.nullcontext, unfolded_batch_norm):
            p.zero_grad()
            x = Tensor(x0, requires_grad=True)
            with context():
                y = _conv_block(p, name, x, "eval", **kwargs)
            if cot is None:
                cot = Tensor(rng.normal(size=y.shape))
            (y * cot).sum().backward()
            results.append([y.data, x.grad] + [p[name + s].grad
                                               for s in (".w", ".gamma", ".beta")])
        for got, want in zip(*results):
            assert got is not None
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
