"""Random-walk co-occurrence sampling and skip-gram node embedding."""

from .errors import (
    CapacityError,
    EmptyGraphError,
    MetricError,
    NumericError,
    ParseError,
    StageError,
    ValidationError,
    WalkembedError,
)
from .graph import Graph, load_edge_list, load_graph, prune_low_degree
from .metrics import MetricsReport, compute_report, edge_recall, edge_snr, l2_normalize
from .model import (
    EmbeddingTable,
    FixedSgd,
    WarmupDecaySchedule,
    init_table,
    loss_and_grad,
)
from .pipeline import PipelineConfig, compare_runs, run_pipeline
from .sampler import SamplerConfig, init_walks, run_sampling, step_walks
from .sbm import SbmConfig, generate_sbm, preset_config
from .trainer import TrainConfig, build_batch, train_async, train_sync

__all__ = [
    "CapacityError",
    "EmbeddingTable",
    "EmptyGraphError",
    "FixedSgd",
    "Graph",
    "MetricError",
    "MetricsReport",
    "NumericError",
    "ParseError",
    "PipelineConfig",
    "SamplerConfig",
    "SbmConfig",
    "StageError",
    "TrainConfig",
    "ValidationError",
    "WalkembedError",
    "WarmupDecaySchedule",
    "build_batch",
    "compare_runs",
    "compute_report",
    "edge_recall",
    "edge_snr",
    "generate_sbm",
    "init_table",
    "init_walks",
    "l2_normalize",
    "load_edge_list",
    "load_graph",
    "loss_and_grad",
    "preset_config",
    "prune_low_degree",
    "run_pipeline",
    "run_sampling",
    "step_walks",
    "train_async",
    "train_sync",
]
