"""A from-scratch CNN training engine: NCHW tensors, conv/pool/LRN/
dropout/FC layers with analytic backward passes, Adam with a plateau
learning-rate schedule, flip/crop augmentation, an architecture-string
DSL, checkpointing and a CLI."""

from .archdsl import PRESETS, LayerSpec, NetworkSpec, parse, render
from .augment import Dataset, Sample, resize_to, split_60_40
from .initializers import InitSpec
from .layers import ConvConfig, DropoutConfig, LrnConfig, Mode
from .optim import AdamConfig, AdamState, PlateauScheduler, SchedulerConfig
from .tensor import Tensor4
from .trainer import (
    Network,
    TrainConfig,
    TrainHistory,
    build,
    evaluate,
    freeze,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamConfig", "AdamState", "ConvConfig", "Dataset", "DropoutConfig",
    "InitSpec", "LayerSpec", "LrnConfig", "Mode", "Network", "NetworkSpec",
    "PlateauScheduler", "PRESETS", "Sample", "SchedulerConfig", "Tensor4",
    "TrainConfig", "TrainHistory", "build", "evaluate", "freeze",
    "load_checkpoint", "parse", "render", "resize_to", "save_checkpoint",
    "split_60_40", "train",
]
