"""NN substrate: model spec, init, Adam, buffer managers, reference trainer."""

from repro.nn.init import glorot_uniform, init_weights
from repro.nn.model import GCNModelSpec
from repro.nn.adam import AdamOptimizer
from repro.nn.buffers import SharedBufferManager, EagerBufferManager, BufferPlan
from repro.nn.reference import ReferenceGCN
from repro.nn.checkpoint import (
    save_checkpoint,
    load_checkpoint,
    save_weights,
    load_weights,
)

__all__ = [
    "glorot_uniform",
    "init_weights",
    "GCNModelSpec",
    "AdamOptimizer",
    "SharedBufferManager",
    "EagerBufferManager",
    "BufferPlan",
    "ReferenceGCN",
    "save_checkpoint",
    "load_checkpoint",
    "save_weights",
    "load_weights",
]
