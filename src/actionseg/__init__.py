"""Sequence-labeling engine for temporal action segmentation.

A temporal-convolutional encoder compresses a frame-feature sequence; a
recurrent (Bi-LSTM) decoder restores full rate while integrating long-range
context; a per-frame softmax emits class probabilities. Training, metrics
(frame accuracy, segmental edit score, overlap F1), dataset formats and a
synthetic long-range-dependency benchmark are included, all on a small
reverse-mode autodiff core with finite-difference verification.
"""

from .autodiff import Tape, Variable, finite_diff_check
from .data import (Dataset, DatasetManifest, SequenceSample, SynthConfig, export_timeline,
                   frame_local_ceiling, load_dataset, load_features, save_dataset,
                   synth_generate)
from .errors import ConfigError, ContractError, LoadError, ShapeError
from .metrics import (MetricsReport, Segment, edit_score, evaluate, frame_accuracy,
                      overlap_f1, segments_from_labels)
from .model import (VARIANTS, Model, ModelConfig, build, describe, format_describe,
                    load_checkpoint, save_checkpoint)
from .tensor import Tensor
from .train import (AdamState, TrainReport, TrainingDiverged, adam_step, cross_entropy_loss,
                    finite_difference_report, predict)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Variable", "finite_diff_check",
    "Dataset", "DatasetManifest", "SequenceSample", "SynthConfig", "export_timeline",
    "frame_local_ceiling", "load_dataset", "load_features", "save_dataset", "synth_generate",
    "ConfigError", "ContractError", "LoadError", "ShapeError",
    "MetricsReport", "Segment", "edit_score", "evaluate", "frame_accuracy",
    "overlap_f1", "segments_from_labels",
    "VARIANTS", "Model", "ModelConfig", "build", "describe", "format_describe",
    "load_checkpoint", "save_checkpoint",
    "Tensor",
    "AdamState", "TrainReport", "TrainingDiverged", "adam_step", "cross_entropy_loss",
    "finite_difference_report", "predict",
    "__version__",
]
