"""Training objectives and disparity evaluation metrics.

Losses operate on autodiff tensors; metrics are plain numpy (nothing
differentiates through an evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from . import ops
from .tensor import Tensor

_PROB_EPS = 1e-7


@dataclass
class LossWeights:
    """Stage coefficients, edge/smoothness mixing weight, edge sharpness."""

    lambda1: float = 0.5
    lambda2: float = 0.7
    lambda3: float = 1.0
    a: float = 0.5
    gamma: float = 0.5

    def __post_init__(self):
        for name, v in vars(self).items():
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("stage coefficients must be >= 0")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def lambdas(self):
        return (self.lambda1, self.lambda2, self.lambda3)


def class_balance(y: np.ndarray):
    """(alpha, beta): positive and negative fractions of a binary map."""
    y = np.asarray(y)
    total = y.size
    pos = int(np.count_nonzero(y))
    return pos / total, (total - pos) / total


def edge_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Class-balanced binary cross entropy, per-image balance, batch mean.

    Negatives are weighted by the positive fraction alpha and positives by
    the negative fraction beta, so the rare class dominates. An image with
    no positives degenerates cleanly to the negative term (alpha = 0).
    """
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    b = y.shape[0]
    alphas = np.empty(b)
    betas = np.empty(b)
    for i in range(b):
        alphas[i], betas[i] = class_balance(y[i])
    bshape = (b,) + (1,) * (y.ndim - 1)
    alpha = Tensor(alphas.reshape(bshape))
    beta = Tensor(betas.reshape(bshape))
    pc = p.clamp(_PROB_EPS, 1.0 - _PROB_EPS)
    neg = alpha * Tensor(1.0 - y) * (1.0 - pc).log()
    pos = beta * Tensor(y) * pc.log()
    return -(neg + pos).mean()


def dedge_disp_smoothness(d: Tensor, xi: np.ndarray, gamma: float) -> Tensor:
    """Edge-aware total variation of the disparity map.

    Forward differences with the last row and column excluded; disparity
    gradients are damped only where the (binary) depth-edge map also
    changes, weighted by exp(-gamma * |edge gradient|).
    """
    xi = np.asarray(xi, dtype=np.float64)
    if d.shape != xi.shape:
        raise ValueError(f"disparity shape {d.shape} != edge map shape {xi.shape}")
    h, w = d.shape[-2], d.shape[-1]
    dx = (d[..., :h - 1, 1:] - d[..., :h - 1, :w - 1]).abs()
    dy = (d[..., 1:, :w - 1] - d[..., :h - 1, :w - 1]).abs()
    ex = np.exp(-gamma * np.abs(xi[..., :h - 1, 1:] - xi[..., :h - 1, :w - 1]))
    ey = np.exp(-gamma * np.abs(xi[..., 1:, :w - 1] - xi[..., :h - 1, :w - 1]))
    total = (dx * Tensor(ex)).sum() + (dy * Tensor(ey)).sum()
    n = int(np.prod(xi.shape[:-2], dtype=np.int64)) * (h - 1) * (w - 1)
    return total * (1.0 / n)


def disp_loss(predictions: Sequence[Tensor], d_star: np.ndarray, valid: np.ndarray,
              w: LossWeights) -> Tensor:
    """Coefficient-weighted smooth-L1 over valid pixels, one term per stage."""
    valid = np.asarray(valid, dtype=np.float64)
    n_valid = valid.sum()
    if n_valid == 0:
        raise ValueError("no valid pixels in the batch")
    if len(predictions) != 3:
        raise ValueError(f"expected 3 stage predictions, got {len(predictions)}")
    gt = Tensor(np.asarray(d_star, dtype=np.float64))
    mask = Tensor(valid)
    total = None
    for lam, pred in zip(w.lambdas, predictions):
        err = ops.smooth_l1(pred - gt)
        term = (err * mask).sum() * (lam / n_valid)
        total = term if total is None else total + term
    return total


def total_loss(l_disp: Tensor, l_edge: Optional[Tensor],
               l_dedge_disp: Optional[Tensor], w: LossWeights) -> Tensor:
    """Disparity term plus the a-weighted edge / edge-smoothness mix."""
    out = l_disp
    if l_edge is not None and w.a != 0.0:
        out = out + w.a * l_edge
    if l_dedge_disp is not None and w.a != 1.0:
        out = out + (1.0 - w.a) * l_dedge_disp
    return out


# -- metrics ------------------------------------------------------------------


def epe(d_hat: np.ndarray, d_star: np.ndarray, valid: np.ndarray) -> float:
    """Mean absolute disparity error over valid pixels; ground truth must be
    finite wherever it is valid."""
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("no valid pixels")
    d_star = np.asarray(d_star)
    bad = int(np.count_nonzero(~np.isfinite(d_star[valid])))
    if bad:
        raise ValueError(f"non-finite ground-truth disparity at {bad} of "
                         f"{np.count_nonzero(valid)} valid pixels")
    err = np.abs(np.asarray(d_hat) - d_star)
    return float(err[valid].mean())


def threshold_error(d_hat: np.ndarray, d_star: np.ndarray, valid: np.ndarray,
                    t_px: float, t_pct: Optional[float] = None,
                    combine: str = "AND") -> float:
    """Percent of valid pixels whose error meets the threshold(s).

    ``t_pct`` is relative to the true disparity, in percent; pass None to
    apply the pixel threshold alone.
    """
    if combine not in ("AND", "OR"):
        raise ValueError(f"combine must be 'AND' or 'OR', got {combine!r}")
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise ValueError("no valid pixels")
    err = np.abs(np.asarray(d_hat) - np.asarray(d_star))[valid]
    hit_px = err >= t_px
    if t_pct is None:
        hit = hit_px
    else:
        hit_pct = err >= (t_pct / 100.0) * np.abs(np.asarray(d_star)[valid])
        hit = hit_px & hit_pct if combine == "AND" else hit_px | hit_pct
    return float(100.0 * hit.mean())


def metrics_report(d_hat: np.ndarray, d_star: np.ndarray,
                   valid: np.ndarray) -> Dict[str, float]:
    """The standard report; D1 uses the 3px-and-5% rule by default. Every
    valid pixel counts as non-occluded, so ``out_noc`` is the 3px error."""
    d1_and = threshold_error(d_hat, d_star, valid, 3.0, 5.0, "AND")
    return {
        "epe": epe(d_hat, d_star, valid),
        "d1_all": d1_and,
        "d1_and": d1_and,
        "d1_or": threshold_error(d_hat, d_star, valid, 3.0, 5.0, "OR"),
        "out_noc": threshold_error(d_hat, d_star, valid, 3.0),
        "bad2": threshold_error(d_hat, d_star, valid, 2.0),
        "bad4": threshold_error(d_hat, d_star, valid, 4.0),
        "bad5": threshold_error(d_hat, d_star, valid, 5.0),
        "n_valid": int(np.count_nonzero(valid)),
    }
