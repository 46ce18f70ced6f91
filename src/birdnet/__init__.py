"""Boolean implication mining and implication-structured sparse networks."""

from birdnet.dataio import LabeledDataset, FoldPlan, Standardizer
from birdnet.binarize import BinarizationModel, BinaryMatrix
from birdnet.mining import ImplicationGraph, MiningConfig
from birdnet.network import BirNetwork
from birdnet.trainer import TrainConfig, TrainHistory

__all__ = [
    "LabeledDataset",
    "FoldPlan",
    "Standardizer",
    "BinarizationModel",
    "BinaryMatrix",
    "ImplicationGraph",
    "MiningConfig",
    "BirNetwork",
    "TrainConfig",
    "TrainHistory",
]

__version__ = "0.1.0"
