"""Multi-scale unified network training and analysis harness."""

from .analysis import (CkaReport, EvalReport, FlopsReport, GradCamMap, average_accuracy,
                       center_features, cka, count_flops, count_params, grad_cam,
                       layerwise_cka, pca_project)
from .data import Dataset, MultiScaleBatch, gen_shapes, load_idx, make_multiscale, save_idx
from .model import (BackboneSpec, LossBreakdown, MsunModel, ScaleSet, build_vanilla,
                    route_scale, si_loss, total_loss)
from .optim import SGD, TrainConfig, lr_at
from .rng import Rng
from .tensor import (NonFiniteError, ShapeError, Tensor, backward, grad_check,
                     maximum_scalar, no_grad)

__all__ = [
    "BackboneSpec", "CkaReport", "Dataset", "EvalReport", "FlopsReport", "GradCamMap",
    "LossBreakdown", "MsunModel", "MultiScaleBatch", "NonFiniteError", "Rng", "SGD",
    "ScaleSet", "ShapeError", "Tensor", "TrainConfig", "average_accuracy", "backward",
    "build_vanilla", "center_features", "cka", "count_flops", "count_params",
    "gen_shapes", "grad_cam", "grad_check", "layerwise_cka", "load_idx",
    "lr_at", "make_multiscale", "maximum_scalar", "no_grad", "pca_project",
    "route_scale", "save_idx", "si_loss", "total_loss",
]
