"""Execution backends: sequential, shared-memory workers, ring message passing."""

from .transport import (
    BACKENDS,
    RING,
    SEQ,
    SHM,
    BackendConfig,
    EngineError,
    PhaseTiming,
    RingMessage,
    WorkerStats,
    run_workers,
)
from .runners import (
    run_info_metrics,
    run_intrinsic_metrics,
    run_matching_metrics,
    run_pair_metrics,
)

__all__ = [
    "BACKENDS", "RING", "SEQ", "SHM",
    "BackendConfig", "EngineError", "PhaseTiming", "RingMessage",
    "WorkerStats", "run_workers",
    "run_info_metrics", "run_intrinsic_metrics",
    "run_matching_metrics", "run_pair_metrics",
]
