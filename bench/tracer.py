"""Host-clock spans around calls into the program's layers, from outside.

:class:`Tracer` replaces public functions and methods of ``repro`` with
thin wrappers for the duration of a ``with tracer.installed():`` block.
Each wrapper times its call with ``time.perf_counter`` and keeps a stack
of open calls, so a layer's *self* time is its call's duration minus the
time its wrapped callees took. Counts and self times accumulate per
layer; the first ``max_spans`` spans (name, start, end, parent) are kept
in memory and written out by :meth:`Tracer.write_spans`.

A wrapper's own bookkeeping runs partly outside the callee's clock (so
it lands in the caller's self time) and partly inside it.
:meth:`Tracer.layer_seconds` takes both out, at costs :func:`calibrate`
measures on an empty function, and reports them as the ``tracer`` layer.

Nothing inside ``src/`` is edited: the wrappers sit on the names other
modules resolve at call time (module globals and class attributes).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

#: time the benchmark's own step loop spends outside every wrapped call.
BENCH_LAYER = "bench"
#: the wrappers' own bookkeeping, moved out of the layers it inflates.
TRACER_LAYER = "tracer"

#: (module, owner attribute or None, names, layer). ``owner`` None wraps
#: module-level names; otherwise it names a class in that module whose
#: methods are wrapped. Names missing at the current commit are skipped.
TARGETS: Tuple[Tuple[str, object, Tuple[str, ...], str], ...] = (
    ("repro.core.trainer", "MGGCNTrainer", ("train_epoch",), "core.trainer"),
    ("repro.core.trainer", None, ("distributed_spmm",), "core.spmm_mg"),
    ("repro.core.trainer", None, ("partition_dataset",), "core.partitioner"),
    ("repro.device.engine", "Engine",
     ("submit", "submit_many", "submit_after", "submit_fused", "barrier"),
     "device.engine"),
    ("repro.comm.collectives", "Communicator",
     ("broadcast", "plan_broadcast", "broadcast_replay",
      "broadcast_pipelined", "allreduce", "reduce", "allgather"),
     "comm.collectives"),
    ("repro.backends.base", "KernelBackend",
     ("gemm", "gemm_batch", "spmm", "relu", "relu_grad", "gemm_relu_grad"),
     "backends"),
    ("repro.backends.numpy_backend", "NumpyBackend",
     ("gemm", "gemm_batch", "spmm", "relu", "relu_grad", "gemm_relu_grad"),
     "backends"),
    ("repro.backends.blas_batched", "BlasBatchedBackend",
     ("gemm", "gemm_batch", "spmm", "relu", "relu_grad", "gemm_relu_grad"),
     "backends"),
    ("repro.plan.plan", "ExecutionPlan", ("replay",), "plan"),
    ("repro.serve.server", "ServingEngine",
     ("serve", "query", "warm_cache"), "serve"),
    ("repro.cache.lru", "EmbeddingCache",
     ("lookup", "insert", "invalidate_at"), "cache"),
    ("repro.dynamic.engine", "DynamicServingEngine", ("run",),
     "dynamic.run"),
    ("repro.dynamic.engine", "DynamicServingEngine", ("apply",),
     "dynamic.apply"),
    ("repro.dynamic.engine", "DynamicServingEngine", ("commit",),
     "dynamic.commit"),
    ("repro.dynamic.graph", "DynamicGraph", ("commit",),
     "dynamic.graph_commit"),
)

#: modules whose imported ``repro.kernels.ops`` functions are wrapped
#: under the names those modules call them by.
KERNEL_OPS_IMPORTERS = ("repro.core.trainer", "repro.core.spmm_mg")

#: every layer a wrapper can report, in report order.
LAYERS = (
    "core.trainer", "core.spmm_mg", "core.partitioner", "kernels.ops",
    "backends", "device.engine", "comm.collectives", "plan", "serve",
    "cache", "dynamic.run", "dynamic.apply", "dynamic.commit",
    "dynamic.graph_commit",
    BENCH_LAYER, TRACER_LAYER,
)


class Tracer:
    """Self time, call counts and spans per layer, measured from outside.

    ``costs`` is the (caller, callee) seconds one wrapped call adds, as
    :func:`calibrate` returns them; :meth:`layer_seconds` subtracts them.
    """

    def __init__(self, max_spans: int = 20_000,
                 costs: Optional[Tuple[float, float]] = None):
        self.max_spans = max_spans
        self.costs = costs or (0.0, 0.0)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: wrapped calls made directly from inside each layer.
        self.nested_calls: Dict[str, int] = defaultdict(int)
        #: seconds spent in :meth:`untimed` blocks.
        self.untimed_seconds = 0.0
        self.spans: List[Tuple[int, str, float, float, int]] = []
        # open calls: [span id, seconds in wrapped callees, parent id,
        # wrapped callees]
        self._stack: List[list] = []
        self._next_id = 0

    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0, parent, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, layer: str, name: str,
              start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_seconds[layer] += duration - frame[1]
        self.calls[layer] += 1
        self.nested_calls[layer] += frame[3]
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][3] += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], name, start, end, frame[2]))

    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per layer, the wrappers' cost moved to ``tracer``.

        A layer loses the caller cost of every wrapped call it made and
        the callee cost of every call into it; the layers and ``tracer``
        still add up to the measured total.
        """
        caller, callee = self.costs
        out = {}
        for layer, seconds in self.self_seconds.items():
            cost = self.nested_calls[layer] * caller + self.calls[layer] * callee
            out[layer] = max(seconds - cost, 0.0)
        out[TRACER_LAYER] = sum(self.self_seconds.values()) - sum(out.values())
        return out

    def wrap(self, fn, layer: str, name: str):
        """``fn`` with a span of ``layer`` around every call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, layer, name, start, clock())

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, layer, name, start, time.perf_counter())

    @contextlib.contextmanager
    def untimed(self) -> Iterator[None]:
        """A block of the benchmark's own analysis, charged to no layer.

        Its seconds are taken out of the enclosing span's self time and
        added up in :attr:`untimed_seconds`.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self.untimed_seconds += duration
            if self._stack:
                self._stack[-1][1] += duration

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target that exists; restore the originals on exit."""
        patched: List[Tuple[object, str, object]] = []

        def patch(owner, attr: str, layer: str, name: str) -> None:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, layer, name))
            patched.append((owner, attr, original))

        try:
            for module_name, owner_name, names, layer in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                owner = module if owner_name is None else getattr(
                    module, owner_name, None)
                if owner is None:
                    continue
                # only attributes the class itself defines: wrapping an
                # inherited one would shadow the base class's wrapper.
                scope = vars(owner)
                for attr in names:
                    if attr in scope:
                        patch(owner, attr, layer, f"{layer}.{attr}")
            for module_name in KERNEL_OPS_IMPORTERS:
                module = importlib.import_module(module_name)
                for attr, value in list(vars(module).items()):
                    if getattr(value, "__module__", None) == "repro.kernels.ops" \
                            and callable(value) and not isinstance(value, type):
                        patch(module, attr, "kernels.ops", f"kernels.ops.{attr}")
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent (-1 = root)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def calibrate(calls: int = 10_000, repeats: int = 15) -> Tuple[float, float]:
    """Seconds one wrapped call adds to its caller and to its callee.

    Times a loop of ``calls`` calls to an empty method taking positional
    and keyword arguments, as the wrapped layer calls do: bare, then
    wrapped on its class inside a span. Each time is the fastest of
    ``repeats``, since a busy host only ever adds time. The caller cost
    is the span's self time beyond the bare loop's; the callee cost is
    the wrapped method's measured time beyond a bare call's. A tight
    loop keeps everything in cache, so the real cost per call is
    somewhat higher (bench/README.md).
    """
    class Probe:
        def method(self, a, b, c=None):
            return None

    bare = Probe.method
    obj = Probe()
    clock = time.perf_counter
    loop, calls_bare, caller, callee = [], [], [], []
    for _ in range(repeats):
        probe = Tracer(max_spans=0)
        Probe.method = bare
        t0 = clock()
        for _ in range(calls):
            pass
        t1 = clock()
        for _ in range(calls):
            obj.method(1, 2, c=3)
        t2 = clock()
        Probe.method = probe.wrap(bare, "callee", "callee")
        with probe.span("caller", "caller"):
            for _ in range(calls):
                obj.method(1, 2, c=3)
        loop.append(t1 - t0)
        calls_bare.append(t2 - t1)
        caller.append(probe.self_seconds["caller"])
        callee.append(probe.self_seconds["callee"])
    bare_call = min(calls_bare) - min(loop)
    return (max(min(caller) - min(calls_bare), 0.0) / calls,
            max(min(callee) - bare_call, 0.0) / calls)
