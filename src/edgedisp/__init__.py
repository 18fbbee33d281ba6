"""Edge-aware stereo disparity estimation on a from-scratch autodiff engine."""

from .tensor import Tensor
from .ops import ConvSpec, ShapeError
from .network import ModelParams, NetworkConfig
from .losses import LossWeights

__all__ = [
    "Tensor", "ConvSpec", "ShapeError",
    "ModelParams", "NetworkConfig", "LossWeights",
]

__version__ = "0.1.0"
