import math

import numpy as np
import pytest

from edgedisp.losses import (LossWeights, class_balance, dedge_disp_smoothness,
                             disp_loss, edge_loss, epe, metrics_report,
                             threshold_error, total_loss)
from edgedisp.tensor import Tensor

from checks import fd_check


def brute_force_bce(p, y):
    """Direct per-image balanced cross entropy, loops only."""
    b = y.shape[0]
    acc = np.zeros_like(p)
    for i in range(b):
        flat = y[i].reshape(-1)
        alpha = flat.sum() / flat.size
        beta = 1.0 - alpha
        pi = np.clip(p[i], 1e-7, 1 - 1e-7)
        acc[i] = -(alpha * (1 - y[i]) * np.log(1 - pi) + beta * y[i] * np.log(pi))
    return acc.mean()


def brute_force_smoothness(d, xi, gamma):
    """Double loop over interior pixels of every image."""
    d = d.reshape((-1,) + d.shape[-2:])
    xi = xi.reshape((-1,) + xi.shape[-2:])
    total = 0.0
    n = 0
    for img, edge in zip(d, xi):
        h, w = img.shape
        for y in range(h - 1):
            for x in range(w - 1):
                total += abs(img[y, x + 1] - img[y, x]) * math.exp(
                    -gamma * abs(edge[y, x + 1] - edge[y, x]))
                total += abs(img[y + 1, x] - img[y, x]) * math.exp(
                    -gamma * abs(edge[y + 1, x] - edge[y, x]))
                n += 1
    return total / n


class TestWeights:
    def test_defaults(self):
        w = LossWeights()
        assert w.lambdas == (0.5, 0.7, 1.0)
        assert w.a == 0.5

    def test_invalid_a(self):
        with pytest.raises(ValueError, match="a must"):
            LossWeights(a=1.5)

    def test_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            LossWeights(gamma=-0.1)

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "lambda3", "a", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            LossWeights(**{field: value})


class TestClassBalance:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.integers(0, 2, size=(7, 9))
            alpha, beta = class_balance(y)
            assert abs(alpha + beta - 1.0) < 1e-15
            assert alpha == y.mean()

    def test_all_negative(self):
        assert class_balance(np.zeros((4, 4))) == (0.0, 1.0)


class TestEdgeLoss:
    def test_uniform_half_on_balanced_labels(self):
        # p = 0.5 with alpha = beta = 0.5 gives 0.5 * ln 2 per pixel
        y = np.zeros((1, 2, 2))
        y[0, 0, :] = 1.0
        p = Tensor(np.full((1, 2, 2), 0.5), requires_grad=True)
        loss = edge_loss(p, y)
        assert abs(loss.item() - 0.5 * math.log(2.0)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        y = np.zeros((1, 3, 3))
        y[0, 1, 1] = 1.0
        p = Tensor(y.copy(), requires_grad=True)
        assert edge_loss(p, y).item() < 1e-5

    def test_ten_percent_positive_oracle(self):
        rng = np.random.default_rng(1)
        y = np.zeros((1, 2, 5))
        y[0, 0, 0] = 1.0  # 10% positives -> beta = 0.9
        p = rng.uniform(0.05, 0.95, size=y.shape)
        got = edge_loss(Tensor(p, requires_grad=True), y).item()
        assert abs(got - brute_force_bce(p, y)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        y = (rng.uniform(size=(3, 4, 6)) < 0.3).astype(float)
        p = rng.uniform(0.01, 0.99, size=y.shape)
        got = edge_loss(Tensor(p, requires_grad=True), y).item()
        assert abs(got - brute_force_bce(p, y)) < 1e-12

    def test_no_positives_degenerates(self):
        y = np.zeros((1, 3, 3))
        p = Tensor(np.full(y.shape, 0.2), requires_grad=True)
        assert edge_loss(p, y).item() == 0.0  # alpha = 0 kills the negative term

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            edge_loss(Tensor(np.zeros((1, 3, 3))), np.zeros((1, 3, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient(self, seed):
        rng = np.random.default_rng(100 + seed)
        y = (rng.uniform(size=(2, 4, 4)) < 0.4).astype(float)
        p = Tensor(rng.uniform(0.1, 0.9, size=y.shape), requires_grad=True)
        fd_check(lambda t: edge_loss(t, y), [p], rng)


class TestSmoothness:
    def test_constant_disparity_is_zero(self):
        d = Tensor(np.full((1, 5, 5), 3.0), requires_grad=True)
        xi = np.zeros((1, 5, 5))
        assert dedge_disp_smoothness(d, xi, 0.5).item() == 0.0

    def test_unit_ramp_no_edges(self):
        # d = x gives |dx| = 1, |dy| = 0 everywhere, weights all 1
        h, w = 4, 6
        d = Tensor(np.tile(np.arange(w, dtype=float), (h, 1))[None],
                   requires_grad=True)
        xi = np.zeros((1, h, w))
        assert abs(dedge_disp_smoothness(d, xi, 0.5).item() - 1.0) < 1e-12

    def test_edge_damps_gradient(self):
        # a step in both d and xi: weight exp(-gamma) on the step column
        d = np.zeros((1, 3, 4))
        d[..., 2:] = 2.0
        xi = (d > 0).astype(float)
        got = dedge_disp_smoothness(Tensor(d, requires_grad=True), xi, 0.5).item()
        assert abs(got - brute_force_smoothness(d, xi, 0.5)) < 1e-12

    def test_gamma_monotone(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=(1, 6, 6))
        xi = (rng.uniform(size=d.shape) < 0.5).astype(float)
        vals = [dedge_disp_smoothness(Tensor(d), xi, g).item()
                for g in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(2, 5, 7))
        xi = (rng.uniform(size=d.shape) < 0.4).astype(float)
        gamma = rng.uniform(0.1, 2.0)
        got = dedge_disp_smoothness(Tensor(d), xi, gamma).item()
        assert abs(got - brute_force_smoothness(d, xi, gamma)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient(self, seed):
        rng = np.random.default_rng(200 + seed)
        d = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        xi = (rng.uniform(size=d.shape) < 0.4).astype(float)
        fd_check(lambda t: dedge_disp_smoothness(t, xi, 0.5), [d], rng)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            dedge_disp_smoothness(Tensor(np.zeros((1, 4, 4))),
                                  np.zeros((1, 4, 5)), 0.5)


class TestDispLoss:
    def test_quadratic_branch_closed_form(self):
        # all errors 0.5: smooth-L1 is 0.5 * 0.5^2 = 0.125 per pixel,
        # summed over the three stage coefficients -> 0.125 * 2.2 = 0.275
        gt = np.zeros((1, 3, 3))
        valid = np.ones_like(gt)
        preds = [Tensor(np.full_like(gt, 0.5), requires_grad=True)
                 for _ in range(3)]
        got = disp_loss(preds, gt, valid, LossWeights()).item()
        assert abs(got - 0.275) < 1e-12

    def test_linear_branch_closed_form(self):
        # all errors 2: smooth-L1 is 2 - 0.5 = 1.5 per pixel -> 1.5 * 2.2 = 3.3
        gt = np.zeros((1, 3, 3))
        valid = np.ones_like(gt)
        preds = [Tensor(np.full_like(gt, 2.0), requires_grad=True)
                 for _ in range(3)]
        got = disp_loss(preds, gt, valid, LossWeights()).item()
        assert abs(got - 3.3) < 1e-12

    def test_invalid_pixels_ignored(self):
        gt = np.zeros((1, 2, 2))
        valid = np.zeros_like(gt)
        valid[0, 0, 0] = 1.0
        pred = np.zeros_like(gt)
        pred[0, 1, 1] = 100.0  # error on an invalid pixel, must not count
        preds = [Tensor(pred.copy(), requires_grad=True) for _ in range(3)]
        assert disp_loss(preds, gt, valid, LossWeights()).item() == 0.0

    def test_no_valid_pixels_rejected(self):
        gt = np.zeros((1, 2, 2))
        preds = [Tensor(gt.copy()) for _ in range(3)]
        with pytest.raises(ValueError, match="valid"):
            disp_loss(preds, gt, np.zeros_like(gt), LossWeights())

    def test_wrong_stage_count(self):
        gt = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="3 stage"):
            disp_loss([Tensor(gt)], gt, np.ones_like(gt), LossWeights())

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient(self, seed):
        rng = np.random.default_rng(300 + seed)
        gt = rng.uniform(0, 4, size=(2, 4, 4))
        valid = (rng.uniform(size=gt.shape) < 0.8).astype(float)
        valid[0, 0, 0] = 1.0
        preds = [Tensor(rng.normal(size=gt.shape) + gt, requires_grad=True)
                 for _ in range(3)]
        fd_check(lambda *ts: disp_loss(list(ts), gt, valid, LossWeights()),
                 preds, rng)


class TestTotalLoss:
    def _terms(self):
        ld = Tensor(np.array(2.0), requires_grad=True)
        le = Tensor(np.array(0.6), requires_grad=True)
        ls = Tensor(np.array(0.4), requires_grad=True)
        return ld, le, ls

    def test_endpoints_and_midpoint(self):
        ld, le, ls = self._terms()
        w0 = LossWeights(a=0.0)
        w5 = LossWeights(a=0.5)
        w1 = LossWeights(a=1.0)
        assert abs(total_loss(ld, le, ls, w0).item() - 2.4) < 1e-12
        assert abs(total_loss(ld, le, ls, w5).item() - 2.5) < 1e-12
        assert abs(total_loss(ld, le, ls, w1).item() - 2.6) < 1e-12

    def test_affine_in_a(self):
        ld, le, ls = self._terms()
        vals = [total_loss(ld, le, ls, LossWeights(a=a)).item()
                for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0])

    def test_disp_only(self):
        ld, _, _ = self._terms()
        assert total_loss(ld, None, None, LossWeights()).item() == 2.0


class TestMetrics:
    def test_epe_example(self):
        d_hat = np.array([[1.0, 2.0], [3.0, 8.0]])
        d_star = np.array([[1.0, 4.0], [3.0, 4.0]])
        valid = np.ones_like(d_hat, dtype=bool)
        assert abs(epe(d_hat, d_star, valid) - 1.5) < 1e-15

    def test_epe_invalid_excluded(self):
        d_hat = np.array([[0.0, 100.0]])
        d_star = np.array([[0.0, 0.0]])
        valid = np.array([[True, False]])
        assert epe(d_hat, d_star, valid) == 0.0

    def test_non_finite_gt_rejected_only_where_valid(self):
        d_hat = np.zeros((1, 3))
        d_star = np.array([[0.0, np.nan, np.inf]])
        assert epe(d_hat, d_star, np.array([[True, False, False]])) == 0.0
        with pytest.raises(ValueError, match="non-finite ground-truth disparity at 2 of 3"):
            epe(d_hat, d_star, np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError, match="non-finite ground-truth"):
            metrics_report(d_hat, d_star, np.array([[True, True, False]]))

    def test_threshold_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d_star = rng.uniform(1, 20, size=(8, 8))
            d_hat = d_star + rng.normal(0, 3, size=d_star.shape)
            valid = rng.uniform(size=d_star.shape) < 0.9
            if not valid.any():
                continue
            err = np.abs(d_hat - d_star)[valid]
            rel = err / d_star[valid]
            want_and = 100.0 * np.mean((err >= 3.0) & (rel >= 0.05))
            want_or = 100.0 * np.mean((err >= 3.0) | (rel >= 0.05))
            got_and = threshold_error(d_hat, d_star, valid, 3.0, 5.0, "AND")
            got_or = threshold_error(d_hat, d_star, valid, 3.0, 5.0, "OR")
            assert abs(got_and - want_and) < 1e-10
            assert abs(got_or - want_or) < 1e-10
            assert got_and <= got_or + 1e-12

    def test_pixel_only_threshold(self):
        d_hat = np.array([[0.0, 2.5, 4.0]])
        d_star = np.zeros((1, 3))
        valid = np.ones((1, 3), dtype=bool)
        got = threshold_error(d_hat, d_star, valid, 2.0)
        assert abs(got - 100.0 * 2 / 3) < 1e-10

    def test_bad_combine_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            threshold_error(np.zeros((2, 2)), np.zeros((2, 2)),
                            np.ones((2, 2), bool), 3.0, 5.0, "XOR")

    def test_report_keys_and_consistency(self):
        rng = np.random.default_rng(5)
        d_star = rng.uniform(1, 15, size=(10, 10))
        d_hat = d_star + rng.normal(0, 2, size=d_star.shape)
        valid = np.ones_like(d_star, dtype=bool)
        r = metrics_report(d_hat, d_star, valid)
        assert set(r) == {"epe", "d1_all", "d1_and", "d1_or", "out_noc",
                          "bad2", "bad4", "bad5", "n_valid"}
        assert r["d1_all"] == r["d1_and"] <= r["d1_or"]
        assert r["bad2"] >= r["bad4"] >= r["bad5"]
        assert r["n_valid"] == 100

    def test_perfect_prediction_report(self):
        d = np.full((4, 4), 3.0)
        r = metrics_report(d, d, np.ones_like(d, dtype=bool))
        assert r["epe"] == 0.0
        assert r["d1_all"] == 0.0 and r["bad2"] == 0.0
