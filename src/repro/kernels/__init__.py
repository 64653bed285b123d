"""Kernel library: roofline cost model + timed NumPy kernels."""

from repro.kernels.cost import CostModel, KernelCosts
from repro.kernels.ops import (
    gemm,
    spmm,
    relu_backward,
    softmax_cross_entropy,
    adam_step_op,
)

__all__ = [
    "CostModel",
    "KernelCosts",
    "gemm",
    "spmm",
    "relu_backward",
    "softmax_cross_entropy",
    "adam_step_op",
]
