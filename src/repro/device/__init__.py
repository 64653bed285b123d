"""Virtual-GPU substrate: memory pools, tensors, streams, event engine."""

from repro.device.memory import MemoryPool, Allocation
from repro.device.tensor import Mode, DeviceTensor
from repro.device.stream import Stream, Event
from repro.device.device import VirtualGPU
from repro.device.engine import Engine, TraceEvent, SimContext, category_seconds

__all__ = [
    "MemoryPool",
    "Allocation",
    "Mode",
    "DeviceTensor",
    "Stream",
    "Event",
    "VirtualGPU",
    "Engine",
    "TraceEvent",
    "category_seconds",
    "SimContext",
]
