"""Roofline cost model for the simulated GPU kernels.

Every kernel's simulated duration is

``t = max(flops / effective_flops, bytes / effective_bandwidth) + overhead``

with per-kernel-class efficiency factors (sparse kernels never run at
peak). Two modelling choices carry the paper's key phenomena:

**SpMM cache blocking.** The dense operand of an SpMM is gathered by
column index. The HBM traffic for those gathers depends on how much of
the operand is resident in L2: with a resident fraction
``hit = min(1, L2 / working_set)`` the gather traffic shrinks by
``(1 - hit)``. Partitioning the matrix into ``P`` column tiles divides
the per-stage working set by ``P``, increasing ``hit`` — this is the
"blocking effect of partitioning and potentially better use of the
cache" the paper credits for its super-linear speedups (Fig. 9), and it
falls out of the model rather than being injected per-experiment.

**Overlap bandwidth sharing.** NVLink traffic is DMA through the same
HBM the compute kernels use. When a broadcast overlaps an SpMM, the SpMM
sees ``mem_bw - link_bw`` of bandwidth (§6.3's 900 vs 150 GB/s → 5/6
factor). Kernels accept a ``bw_fraction`` for this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.spec import GPUSpec


@dataclass(frozen=True)
class KernelCosts:
    """Efficiency knobs of one framework's kernel implementations.

    The defaults model a tuned C++/cuSPARSE/cuBLAS implementation
    (MG-GCN). Baselines (DGL-like, CAGNET-like) override these to express
    their measured inefficiencies — see :mod:`repro.baselines`.
    """

    #: Fraction of peak FLOP/s dense GeMM achieves.
    gemm_flop_efficiency: float = 0.70
    #: Fraction of peak memory bandwidth streaming kernels achieve.
    stream_bw_efficiency: float = 0.85
    #: Fraction of peak memory bandwidth the irregular SpMM gather achieves.
    spmm_bw_efficiency: float = 0.60
    #: Fraction of L2 usable for dense-operand blocking in SpMM.
    l2_utilization: float = 0.80
    #: Column-chunk width of the SpMM kernel (cuSPARSE processes the dense
    #: operand in ~64-column slabs, so cache capacity in *rows* does not
    #: shrink with the feature width).
    spmm_chunk_cols: int = 64
    #: Asymptotic gather hit rate when the dense tile is fully resident.
    spmm_cache_hit_max: float = 0.70
    #: Skew exponent: access-weighted hit ~ coverage**gamma. Power-law
    #: graphs concentrate accesses on hub rows, so hit >> coverage.
    spmm_cache_gamma: float = 0.20
    #: Per-kernel launch/setup overhead in seconds (CUDA launch ~4 us).
    kernel_overhead: float = 4e-6
    #: Extra fixed per-operator overhead of the host framework
    #: (Python dispatch, graph bookkeeping). Zero for the C++ engine.
    framework_overhead: float = 0.0

    def __post_init__(self) -> None:
        for field_name in (
            "gemm_flop_efficiency",
            "stream_bw_efficiency",
            "spmm_bw_efficiency",
            "l2_utilization",
        ):
            value = getattr(self, field_name)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{field_name} must be in (0, 1], got {value}")
        if self.kernel_overhead < 0 or self.framework_overhead < 0:
            raise ValueError("overheads must be non-negative")
        if self.spmm_chunk_cols < 1:
            raise ValueError(f"spmm_chunk_cols must be >= 1, got {self.spmm_chunk_cols}")
        if not (0.0 <= self.spmm_cache_hit_max <= 1.0):
            raise ValueError(
                f"spmm_cache_hit_max must be in [0, 1], got {self.spmm_cache_hit_max}"
            )
        if self.spmm_cache_gamma <= 0:
            raise ValueError(
                f"spmm_cache_gamma must be positive, got {self.spmm_cache_gamma}"
            )


class CostModel:
    """Computes kernel durations for one GPU spec + one set of kernel costs.

    Durations are memoized per instance: a training epoch evaluates the
    same handful of kernel shapes thousands of times (every layer, every
    stage, every epoch), and both ``gpu`` and ``costs`` are frozen, so a
    ``(kernel, *args)`` key fully determines the result. The cache is
    bounded; on overflow it is cleared and rebuilt.
    """

    _MEMO_LIMIT = 4096

    def __init__(self, gpu: GPUSpec, costs: Optional[KernelCosts] = None):
        self.gpu = gpu
        self.costs = costs or KernelCosts()
        self._memo: dict = {}

    # -- helpers ---------------------------------------------------------------

    def _memoize(self, key: tuple, fn) -> float:
        # durations can legitimately be 0.0 — test against None, not truth.
        value = self._memo.get(key)
        if value is None:
            if len(self._memo) >= self._MEMO_LIMIT:
                self._memo.clear()
            value = self._memo[key] = fn()
        return value

    @property
    def _overhead(self) -> float:
        return self.costs.kernel_overhead + self.costs.framework_overhead

    def _roofline(self, flops: float, bytes_moved: float, flop_eff: float,
                  bw_eff: float, bw_fraction: float = 1.0,
                  parallelism: Optional[float] = None) -> float:
        """Roofline time with an occupancy derate for small kernels.

        ``parallelism`` is the kernel's output-element count; kernels far
        below the GPU's saturation point cannot fill the SMs, so their
        effective throughput scales down (floored at 8% so tiny kernels
        degrade to a launch-overhead-dominated regime, not to infinity).
        This is what flattens the scaling curves of small graphs (Cora)
        and narrow models (Reddit with 16 hidden units), as observed in
        the paper's §6.5/§6.6.
        """
        util = 1.0
        if parallelism is not None:
            util = min(1.0, parallelism / self.gpu.saturation_elements)
            util = max(util, 0.08)
        compute = flops / (self.gpu.peak_flops * flop_eff * util)
        bw = self.gpu.memory_bandwidth * bw_eff * util * max(bw_fraction, 1e-6)
        memory = bytes_moved / bw
        return max(compute, memory) + self._overhead

    # -- dense kernels ------------------------------------------------------------

    def gemm_time(self, m: int, n: int, k: int, itemsize: int = 4,
                  bw_fraction: float = 1.0) -> float:
        """C(m,n) = A(m,k) @ B(k,n)."""
        return self._memoize(
            ("gemm", m, n, k, itemsize, bw_fraction),
            lambda: self._gemm_time(m, n, k, itemsize, bw_fraction),
        )

    def _gemm_time(self, m: int, n: int, k: int, itemsize: int,
                   bw_fraction: float) -> float:
        flops = 2.0 * m * n * k
        bytes_moved = itemsize * (m * k + k * n + m * n)
        # Occupancy comes from output tiles; for reduction-shaped GEMMs
        # (small m*n, huge k) cuBLAS recovers parallelism with split-k.
        parallelism = float(m) * n * max(1.0, k / 4096.0)
        return self._roofline(
            flops, bytes_moved, self.costs.gemm_flop_efficiency,
            self.costs.stream_bw_efficiency, bw_fraction,
            parallelism=parallelism,
        )

    def elementwise_time(self, elements: int, reads: int = 1, writes: int = 1,
                         itemsize: int = 4, bw_fraction: float = 1.0) -> float:
        """A streaming map kernel touching ``reads+writes`` arrays."""
        return self._memoize(
            ("elementwise", elements, reads, writes, itemsize, bw_fraction),
            lambda: self._roofline(
                float(elements),
                itemsize * elements * (reads + writes),
                self.costs.gemm_flop_efficiency,
                self.costs.stream_bw_efficiency, bw_fraction,
                parallelism=float(elements),
            ),
        )

    def reduction_time(self, elements: int, itemsize: int = 4,
                       bw_fraction: float = 1.0) -> float:
        """A full reduction over ``elements`` values."""
        return self._memoize(
            ("reduction", elements, itemsize, bw_fraction),
            lambda: self._roofline(
                float(elements), float(itemsize * elements),
                self.costs.gemm_flop_efficiency,
                self.costs.stream_bw_efficiency, bw_fraction,
            ),
        )

    # -- sparse kernels --------------------------------------------------------------

    def spmm_traffic(self, rows: int, nnz: int, d: int,
                     dense_rows: int, itemsize: int = 4,
                     index_size: int = 4, offset_size: int = 8) -> float:
        """HBM bytes of one CSR SpMM ``C(rows,d) += A(rows,k) @ B(k,d)``.

        ``dense_rows`` is ``k`` of the dense operand actually addressed
        (the tile height); it determines the cache-blocking discount.
        """
        structure = rows * offset_size + nnz * (index_size + itemsize)
        output = rows * d * itemsize * 2  # read-modify-write accumulate
        working_set = float(dense_rows * d * itemsize)
        # Column-chunked gather cache: the kernel sweeps the dense operand
        # in spmm_chunk_cols-wide slabs, so the L2 holds
        # l2 / (chunk * itemsize) *rows* regardless of d. Access-weighted
        # hit rate exceeds the resident fraction because power-law graphs
        # concentrate gathers on hub rows (coverage**gamma skew model).
        # This term is where partitioning pays: a P-way column tile has
        # dense_rows / P, raising coverage — the "blocking effect of
        # partitioning" behind the paper's super-linear speedups (Fig. 9).
        l2 = self.gpu.l2_cache_bytes * self.costs.l2_utilization
        chunk = min(d, self.costs.spmm_chunk_cols)
        capacity_rows = l2 / (chunk * itemsize)
        coverage = min(1.0, capacity_rows / dense_rows) if dense_rows > 0 else 1.0
        hit = self.costs.spmm_cache_hit_max * coverage**self.costs.spmm_cache_gamma
        gather = working_set + nnz * d * itemsize * (1.0 - hit)
        return structure + output + gather

    def spmm_time(self, rows: int, nnz: int, d: int, dense_rows: int,
                  itemsize: int = 4, bw_fraction: float = 1.0) -> float:
        """Duration of one CSR SpMM (bandwidth-bound roofline)."""
        return self._memoize(
            ("spmm", rows, nnz, d, dense_rows, itemsize, bw_fraction),
            lambda: self._spmm_time(rows, nnz, d, dense_rows, itemsize,
                                    bw_fraction),
        )

    def _spmm_time(self, rows: int, nnz: int, d: int, dense_rows: int,
                   itemsize: int, bw_fraction: float) -> float:
        flops = 2.0 * nnz * d
        bytes_moved = self.spmm_traffic(rows, nnz, d, dense_rows, itemsize)
        return self._roofline(
            flops, bytes_moved, self.costs.gemm_flop_efficiency,
            self.costs.spmm_bw_efficiency, bw_fraction,
            parallelism=float(rows) * d,
        )

    def memset_time(self, nbytes: int, bw_fraction: float = 1.0) -> float:
        """Zero-fill of ``nbytes``."""
        return self._memoize(
            ("memset", nbytes, bw_fraction),
            lambda: self._roofline(
                0.0, float(nbytes), self.costs.gemm_flop_efficiency,
                self.costs.stream_bw_efficiency, bw_fraction,
            ),
        )

    # -- optimiser / loss -----------------------------------------------------------

    def adam_time(self, params: int, itemsize: int = 4) -> float:
        """One Adam step over ``params`` parameters.

        Reads param, grad, m, v; writes param, m, v -> 7 passes.
        """
        return self.elementwise_time(params, reads=4, writes=3, itemsize=itemsize)

    def softmax_xent_time(self, rows: int, classes: int, itemsize: int = 4) -> float:
        """Fused softmax + cross-entropy + gradient over logits (rows, classes)."""
        # read logits, write probs/grad, plus label lookups: ~3 passes.
        return self.elementwise_time(rows * classes, reads=2, writes=1,
                                     itemsize=itemsize)
