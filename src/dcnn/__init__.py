"""Distributed data-parallel CNN for motif-cluster detection in
simulated DNA: sequence simulation, a seeded input pipeline, a
from-scratch convolutional network, pluggable gradient aggregation
(ring all-reduce / parameter server / gossip), and a scaling benchmark.
"""

from .benchmark import BenchmarkRow, run_benchmark
from .errors import (
    CheckpointError,
    DcnnError,
    GenerationError,
    InternalConsistencyError,
    ParseError,
    PlacementError,
    ProtocolError,
    ShapeError,
    TrainingDivergedError,
    ValidationError,
)
from .genome import Pwm, SequenceRecord, SimConfig, default_tal1_pwm, generate_dataset
from .network import ModelConfig, ModelParams, init_params, load_checkpoint, save_checkpoint
from .pipeline import Batch, SplitSpec, split
from .training import (
    Dataset,
    EarlyStopConfig,
    TrainConfig,
    TrainReport,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "Batch",
    "CheckpointError",
    "Dataset",
    "DcnnError",
    "EarlyStopConfig",
    "GenerationError",
    "InternalConsistencyError",
    "ModelConfig",
    "ModelParams",
    "ParseError",
    "PlacementError",
    "ProtocolError",
    "Pwm",
    "SequenceRecord",
    "ShapeError",
    "SimConfig",
    "SplitSpec",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "ValidationError",
    "default_tal1_pwm",
    "evaluate",
    "generate_dataset",
    "init_params",
    "load_checkpoint",
    "run_benchmark",
    "save_checkpoint",
    "split",
    "train",
    "__version__",
]
