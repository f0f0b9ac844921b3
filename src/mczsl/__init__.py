"""Mutual causal-attention zero-shot learner on pre-extracted region features."""

from .data import Dataset, Split, SynthConfig, generate_synthetic, load_dataset, save_dataset
from .evaluate import EvalReport, FusionConfig, evaluate, fused_score, harmonic_mean
from .gradcheck import GradCheckReport, directional_check, finite_difference_check
from .losses import LossReport, LossWeights, acec_loss, ar_loss, causal_loss, distill_loss, total_loss
from .training import (
    Hyperparams,
    ModelState,
    TrainLog,
    load_checkpoint,
    make_intervention_attention,
    save_checkpoint,
    train,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Split", "SynthConfig",
    "generate_synthetic", "load_dataset", "save_dataset",
    "EvalReport", "FusionConfig", "evaluate", "fused_score", "harmonic_mean",
    "GradCheckReport", "directional_check", "finite_difference_check",
    "LossReport", "LossWeights",
    "acec_loss", "ar_loss", "causal_loss", "distill_loss", "total_loss",
    "Hyperparams", "ModelState", "TrainLog",
    "load_checkpoint", "make_intervention_attention", "save_checkpoint",
    "train", "train_step",
    "__version__",
]
