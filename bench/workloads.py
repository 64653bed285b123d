"""The benchmark's four workloads, their metrics, and how each is measured.

Every workload runs through ``repro``'s public API and builds its inputs
from one seed ``S``: the dataset, ``TrainerConfig.seed`` and the initial
weights use ``S``; serving requests use ``S + 1``; graph mutations use
``S + 2``. The trainer and the serving engine keep their defaults apart
from ``record_trace`` (and the serving deployment `repro dynamic run`
sets up), so the numbers are what a user of the defaults gets.

A workload runs in one of two phases:

* ``e2e`` — tracing off; reports :data:`END_TO_END`;
* ``traced`` — :class:`~tracer.Tracer` wrappers installed and the
  engine's trace on; reports :data:`PER_LAYER`.

Both phases run the workload's correctness checks.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import MGGCNTrainer, TrainerConfig
from repro.core.partitioner import partition_quality
from repro.datasets import load_dataset
from repro.datasets.loader import sample_query_vertices
from repro.dynamic import DynamicGraph, DynamicServingEngine, poisson_mutations
from repro.hardware import dgx1, dgx_a100, multi_node_cluster
from repro.nn import GCNModelSpec, ReferenceGCN
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine, poisson_workload
from repro.telemetry import critical_path, nearest_rank

import checks
from tracer import BENCH_LAYER, LAYERS, TRACER_LAYER, Tracer, calibrate

#: serving set-ups measured per run, after one discarded (it pays lazy
#: imports).
SETUP_REPEATS = 5
#: fewest training rounds a run measures, however short ``seconds`` is.
MIN_ROUNDS = 3
#: share of a traced run spent measuring the untraced baseline that
#: ``trace.overhead_frac`` compares against.
UNTRACED_SHARE = 0.25
#: epochs the fresh trainer and ReferenceGCN train before comparing.
REFERENCE_EPOCHS = 3

#: (name, unit, better, bound). A step is one training epoch or one
#: served request. ``sim_*`` metrics are simulated time; the others are
#: host time. Each bound is at least three times the metric's largest
#: spread across seeds (bench/README.md).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("host_step_ms", "ms", "lower", 0.25),
    ("sim_step_ms", "sim_ms", "lower", 0.01),
    ("sim_step_p99_ms", "sim_ms", "lower", 0.005),
    ("setup_s", "s", "lower", 0.25),
)

MAX_LAYERS = 4
SIM_PHASES = tuple(f"fwd{l}" for l in range(MAX_LAYERS)) + tuple(
    f"bwd{l}" for l in range(MAX_LAYERS)) + ("loss", "adam", "wait", "other")
SIM_CATEGORIES = ("gemm", "spmm", "comm", "activation")
SETUP_STAGES = ("datasets.load", "inputs", "core.partitioner", "build",
                "warmup")


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    names = [("host.step_s", "s")]
    names += [(f"host.share.{layer}", "fraction") for layer in LAYERS]
    names += [(f"calls.{layer}", "count") for layer in LAYERS
              if layer not in (BENCH_LAYER, TRACER_LAYER)]
    names += [(f"sim.path.{p}_s", "sim_s") for p in SIM_PHASES + SIM_CATEGORIES]
    names += [(f"sim.busy.{c}_s", "sim_s") for c in ("gemm", "spmm", "comm")]
    names += [
        ("sim.overlap_loss_frac", "fraction"),
        ("sim.idle_frac", "fraction"),
        ("sim.comm_bytes", "bytes"),
        ("sim.ops", "count"),
        ("sim.peak_mem_bytes", "bytes"),
        ("core.partitioner.nnz_imbalance", "ratio"),
    ]
    names += [(f"setup.share.{stage}", "fraction") for stage in SETUP_STAGES]
    names += [
        ("cache.hit_rate", "fraction"),
        ("cache.evictions", "count"),
        ("dynamic.delta_evicted_frac", "fraction"),
        ("dynamic.rows_rebuilt", "count"),
        ("serve.mean_batch_size", "count"),
        ("serve.queue_wait_p50_s", "sim_s"),
        ("serve.service_p50_s", "sim_s"),
        ("serve.service_p99_s", "sim_s"),
        ("trace.overhead_frac", "fraction"),
    ]
    higher = {"cache.hit_rate", "serve.mean_batch_size"}
    return tuple((name, unit, "higher" if name in higher else "lower")
                 for name, unit in names)


#: (name, unit, better) of every per-layer metric; each workload reports
#: all of them, with 0 for a layer it does not run.
PER_LAYER = _per_layer()


# -- results ------------------------------------------------------------------


def summary(samples: Sequence[float], unit: str, scale: float = 1.0,
            fastest: bool = False) -> dict:
    """Median, quartiles, minimum and count of ``samples`` (times
    ``scale``); the value is the median, or the minimum if ``fastest``."""
    values = [s * scale for s in samples]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": min(values) if fastest else median, "unit": unit,
            "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "n": len(values)}


@dataclass
class Run:
    """One phase of one workload: metrics plus the check outcome."""

    metrics: Dict[str, dict]
    steps: int
    #: per-step failures (a non-finite loss, bad logits), one message each.
    step_failures: List[str]
    #: run-level check name -> failure messages (empty = passed).
    checks: Dict[str, List[str]]
    #: the traced phase's tracer, whose spans the run writes out.
    tracer: Optional[Tracer] = None

    @property
    def attempted(self) -> int:
        return self.steps + len(self.checks)

    @property
    def failed(self) -> int:
        return len(self.step_failures) + sum(1 for f in self.checks.values() if f)


def _layer_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric, 0 where ``values`` lacks it."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}


def _setup_summary(stage_runs: List[Dict[str, float]]) -> dict:
    return summary([sum(stages.values()) for stages in stage_runs], "s")


def _setup_shares(stage_runs: List[Dict[str, float]]) -> Dict[str, float]:
    out = {}
    for stage in SETUP_STAGES:
        out[f"setup.share.{stage}"] = statistics.median(
            stages.get(stage, 0.0) / sum(stages.values())
            for stages in stage_runs)
    return out


def point(value: float, unit: str, n: int) -> dict:
    """A metric computed once per run from ``n`` samples (no spread)."""
    return {"value": value, "unit": unit, "n": n}


def _host_shares(tracer: Tracer, steps: int) -> Dict[str, float]:
    """Each layer's share of the traced steps' host time, and its calls."""
    seconds = tracer.layer_seconds()
    total = sum(seconds.values())
    out = {}
    for layer in LAYERS:
        out[f"host.share.{layer}"] = seconds.get(layer, 0.0) / total
        if layer not in (BENCH_LAYER, TRACER_LAYER):
            out[f"calls.{layer}"] = tracer.calls.get(layer, 0) / steps
    return out


# -- simulated-time attribution -----------------------------------------------


def _phase(op_name: str) -> str:
    """Which part of an epoch an op belongs to, from its name."""
    if op_name == "(wait)":
        return "wait"
    head = op_name.split("/", 1)[0]
    if head in SIM_PHASES:
        return head
    if head.startswith("adam"):
        return "adam"
    return "other"


@dataclass
class SimTally:
    """Critical-path and busy-time totals over one or more trace windows."""

    path: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    busy: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    window: float = 0.0
    overlap_loss: float = 0.0
    comm_bytes: float = 0.0
    ops: int = 0
    devices: set = field(default_factory=set)

    def add(self, trace) -> None:
        report = critical_path(trace)
        for step in report.steps:
            self.path[_phase(step.name)] += step.duration
        for category in SIM_CATEGORIES:
            self.path[category] += report.category_seconds.get(category, 0.0)
        self.window += report.epoch_time
        self.overlap_loss += report.overlap_loss_seconds
        for ev in trace:
            self.busy[ev.category] += ev.end - ev.start
            if ev.category == "comm":
                self.comm_bytes += ev.nbytes
            self.devices.add(ev.device)
        self.ops += len(trace)

    def metrics(self, steps: int) -> Dict[str, float]:
        out = {f"sim.path.{k}_s": v / steps for k, v in self.path.items()}
        out.update({f"sim.busy.{c}_s": self.busy.get(c, 0.0) / steps
                    for c in ("gemm", "spmm", "comm")})
        compute = sum(v for c, v in self.busy.items() if c != "comm")
        out["sim.overlap_loss_frac"] = self.overlap_loss / self.window
        out["sim.idle_frac"] = 1.0 - compute / (len(self.devices) * self.window)
        out["sim.comm_bytes"] = self.comm_bytes / steps
        out["sim.ops"] = self.ops / steps
        return out


def _installed(tracer: Optional[Tracer]):
    return tracer.installed() if tracer else contextlib.nullcontext()


def _span(tracer: Optional[Tracer]):
    return tracer.span("bench.step") if tracer else contextlib.nullcontext()


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class Training:
    """Full-batch MG-GCN training on one simulated machine.

    A run trains fresh trainers for :attr:`round_epochs` epochs each until
    its time is up. Every round covers the same epochs of training, so
    the measured work does not depend on how fast the host is: host time
    per epoch grows as training converges (float32 underflow in the loss
    gradient), which would otherwise tie the metric to the epoch count.
    """

    name: str
    why: str
    dataset: str
    #: dataset scale; None = the full-size symbolic (metadata-only) graph.
    scale: Optional[float]
    #: uniform hidden width and depth; None = the paper's model 1.
    hidden: Optional[int]
    layers: Optional[int]
    gpus: int
    #: measured epochs per fresh trainer, about one host second.
    round_epochs: int
    #: DGX-1 nodes joined by a 25 GB/s NIC.
    nodes: int = 1

    def _load(self, seed: int):
        if self.scale is None:
            return load_dataset(self.dataset, symbolic=True)
        return load_dataset(self.dataset, scale=self.scale, learnable=True,
                            seed=seed)

    def _model(self, ds) -> GCNModelSpec:
        if self.hidden is None:
            return GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        return GCNModelSpec.build(ds.d0, self.hidden, ds.num_classes,
                                  self.layers)

    def _trainer(self, ds, model, seed: int, record_trace: bool) -> MGGCNTrainer:
        machine = (multi_node_cluster(self.nodes, dgx1()) if self.nodes > 1
                   else dgx1())
        return MGGCNTrainer(ds, model, machine=machine, num_gpus=self.gpus,
                            config=TrainerConfig(record_trace=record_trace,
                                                 seed=seed))

    def _setup(self, seed: int, record_trace: bool, tracer: Optional[Tracer]):
        """Dataset, trainer build and one warm-up epoch, timed by stage.

        ``tracer``, when installed, supplies the partitioner's share.
        """
        partition_before = tracer.self_seconds["core.partitioner"] if tracer else 0.0
        t0 = time.perf_counter()
        ds = self._load(seed)
        t1 = time.perf_counter()
        trainer = self._trainer(ds, self._model(ds), seed, record_trace)
        t2 = time.perf_counter()
        trainer.train_epoch()
        t3 = time.perf_counter()
        partition = (tracer.self_seconds["core.partitioner"] - partition_before
                     if tracer else 0.0)
        stages = {"datasets.load": t1 - t0, "core.partitioner": partition,
                  "build": t2 - t1 - partition, "warmup": t3 - t2}
        return trainer, stages

    def _rounds(self, seed: int, seconds: float, record_trace: bool = False,
                tracer: Optional[Tracer] = None,
                setup_tracer: Optional[Tracer] = None):
        """Rounds of set-up plus :attr:`round_epochs` epochs for ``seconds``.

        Returns each round's median host seconds per epoch, every epoch's
        stats (only the last keeps its trace), the set-up stages of every
        round but the first (which pays lazy imports), and the last
        trainer. Round medians, not single epochs, are the host-time
        samples: a slowdown of the host shorter than half a round does
        not move one.
        """
        host, epochs, stage_runs = [], [], []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            with _installed(setup_tracer):
                trainer, stages = self._setup(seed, record_trace, setup_tracer)
            if rounds:
                stage_runs.append(stages)
            rounds += 1
            engine = trainer.ctx.engine
            seconds_per_epoch = []
            with _installed(tracer):
                for _ in range(self.round_epochs):
                    t0 = time.perf_counter()
                    with _span(tracer):
                        stats = trainer.train_epoch()
                        engine.clear_trace()
                    seconds_per_epoch.append(time.perf_counter() - t0)
                    if epochs:
                        epochs[-1].trace = []
                    epochs.append(stats)
            host.append(statistics.median(seconds_per_epoch))
        return host, epochs, stage_runs, trainer

    def _checks(self, trainer: MGGCNTrainer, epochs: list) -> Tuple[list, dict]:
        """Per-epoch loss checks and the run-level checks."""
        ds, model, seed = trainer.dataset, trainer.model, trainer.config.seed
        found = {"constant_epochs": checks.check_constant_epochs(
            [s.epoch_time for s in epochs])}
        traced = self._trainer(ds, model, seed, record_trace=True)
        traced.train_epoch()
        last = traced.train_epoch()
        found["path_tiles_epoch"] = checks.check_path_tiles_epoch(
            critical_path(last.trace).path_seconds, last.epoch_time)
        step_failures: List[str] = []
        if not ds.is_symbolic:
            step_failures = checks.check_finite_losses([s.loss for s in epochs])
            fresh = self._trainer(ds, model, seed, record_trace=False)
            ref = ReferenceGCN(ds, model, lr=fresh.config.lr, seed=seed,
                               first_layer_skip=fresh.config.first_layer_skip)
            for _ in range(REFERENCE_EPOCHS):
                fresh.train_epoch()
                ref.train_epoch()
            found["matches_reference"] = checks.check_weights_match(
                fresh.get_weights(), ref.weights)
        return step_failures, found

    def e2e(self, seed: int, seconds: float) -> Run:
        host, epochs, stage_runs, trainer = self._rounds(seed, seconds)
        sim = sorted(s.epoch_time for s in epochs)
        metrics = {
            "host_step_ms": summary(host, "ms", 1e3, fastest=True),
            "sim_step_ms": summary(sim, "sim_ms", 1e3),
            "sim_step_p99_ms": point(nearest_rank(sim, 99) * 1e3, "sim_ms",
                                     len(sim)),
            "setup_s": _setup_summary(stage_runs),
        }
        step_failures, found = self._checks(trainer, epochs)
        return Run(metrics, len(epochs), step_failures, found)

    def traced(self, seed: int, seconds: float) -> Run:
        untraced, _, _, _ = self._rounds(seed, seconds * UNTRACED_SHARE)
        tracer = Tracer(costs=calibrate())
        host, epochs, stage_runs, trainer = self._rounds(
            seed, seconds * (1 - UNTRACED_SHARE), record_trace=True,
            tracer=tracer, setup_tracer=Tracer())
        tally = SimTally()
        tally.add(epochs[-1].trace)
        values = {
            **_host_shares(tracer, len(epochs)),
            **tally.metrics(steps=1),
            **_setup_shares(stage_runs),
            "host.step_s": min(host),
            "sim.peak_mem_bytes": trainer.ctx.peak_memory(),
            "core.partitioner.nnz_imbalance":
                partition_quality(trainer.graph)["nnz_imbalance"],
            "trace.overhead_frac": min(host) / min(untraced) - 1,
        }
        step_failures, found = self._checks(trainer, epochs)
        return Run(_layer_metrics(values), len(epochs), step_failures, found,
                   tracer=tracer)


# -- serving with graph mutation ------------------------------------------------


def _after_commits(engine: DynamicServingEngine,
                   hook: Callable[[], None]) -> None:
    """Make ``engine.run`` call ``hook()`` after every commit.

    The hook sits on the instance and looks ``commit`` up on the class at
    call time, so it runs outside any tracer wrapper of ``commit``.
    """
    def commit(*args, **kwargs):
        stats = type(engine).commit(engine, *args, **kwargs)
        hook()
        return stats

    engine.commit = commit


@dataclass(frozen=True)
class Serving:
    """Open-loop queries and mutation batches on ``DynamicServingEngine``.

    A pass is one ``DynamicServingEngine.run`` over the whole stream on a
    cold engine, as ``repro dynamic run`` makes it; its host seconds per
    request is one host-time sample. A run makes as many passes as fit
    its time, and at least one.
    """

    name: str
    why: str
    scale: float = 0.005
    hidden: int = 64
    layers: int = 2
    requests: int = 40_000
    rate: float = 2000.0
    skew: float = 1.0
    mutation_batches: int = 200
    mutation_rate: float = 10.0
    edges_per_batch: int = 8
    mutation_skew: float = 0.8
    #: share of the stream the traced phase serves.
    traced_share: float = 0.25
    #: Zipf-sampled vertices compared against a cold engine at the end.
    probe_vertices: int = 64

    def _setup(self, seed: int, record_trace: bool, share: float = 1.0):
        """Dataset, request and mutation streams, and a cold engine.

        ``share`` of the stream keeps its rates and so covers that share
        of the simulated time.
        """
        t0 = time.perf_counter()
        ds = load_dataset("reddit", scale=self.scale, learnable=True, seed=seed)
        t1 = time.perf_counter()
        requests = poisson_workload(ds, round(self.requests * share),
                                    rate=self.rate, skew=self.skew,
                                    seed=seed + 1)
        mutations = poisson_mutations(
            ds, round(self.mutation_batches * share),
            rate=self.mutation_rate, edges_per_batch=self.edges_per_batch,
            skew=self.mutation_skew, seed=seed + 2)
        t2 = time.perf_counter()
        spec = GCNModelSpec.build(ds.d0, self.hidden, ds.num_classes,
                                  self.layers)
        # the deployment `repro dynamic run` builds
        config = ServingConfig(
            machine=dgx_a100(), num_gpus=4, cache_entries=2 * ds.n,
            num_pinned=max(ds.n // 100, 1), max_batch_size=8, max_wait=1e-3,
            record_trace=record_trace)
        engine = DynamicServingEngine(
            DynamicGraph(ds), init_weights(spec.layer_dims, seed=seed), spec,
            config=config)
        t3 = time.perf_counter()
        stages = {"datasets.load": t1 - t0, "inputs": t2 - t1,
                  "build": t3 - t2}
        return (engine, requests, mutations), stages

    def _setups(self, seed: int, record_trace: bool, share: float = 1.0):
        """1 + :data:`SETUP_REPEATS` set-ups, the first discarded (it pays
        lazy imports); returns the last one built and the stages of the
        measured ones."""
        stage_runs = []
        for i in range(SETUP_REPEATS + 1):
            built, stages = self._setup(seed, record_trace, share)
            if i:
                stage_runs.append(stages)
        return built, stage_runs

    @staticmethod
    def _pass(engine: DynamicServingEngine, requests, mutations):
        """``engine.run`` over the streams; its result and host seconds
        per request."""
        t0 = time.perf_counter()
        result = engine.run(requests, mutations)
        return result, (time.perf_counter() - t0) / len(requests)

    def _checks(self, engine: DynamicServingEngine, requests, result,
                seed: int) -> Tuple[list, dict]:
        live = engine.engine
        step_failures = checks.check_logits(
            result.logits, [r.request_id for r in requests],
            live.dataset.num_classes)
        final = engine.graph.snapshot_dataset()
        probe = sample_query_vertices(final, self.probe_vertices,
                                      skew=self.skew, seed=seed + 3)
        cold = ServingEngine(final, live.weights, live.spec, config=live.config)
        found = {"bitwise_vs_cold": checks.check_bitwise(
            live.query(probe), cold.query(probe))}
        return step_failures, found

    def e2e(self, seed: int, seconds: float) -> Run:
        built, stage_runs = self._setups(seed, False)
        deadline = time.perf_counter() + seconds
        # whole passes that fit the time, each on a cold engine: host time
        # per request changes as the cache warms and the run's records grow.
        host, first, last = [], None, 0.0
        while first is None or time.perf_counter() + last < deadline:
            t0 = time.perf_counter()
            if first is not None:
                built, stages = self._setup(seed, False)
                stage_runs.append(stages)
            engine, requests, mutations = built
            result, per_request = self._pass(engine, requests, mutations)
            host.append(per_request)
            if first is None:
                first = (engine, requests, result)
            last = time.perf_counter() - t0
        engine, requests, result = first
        s = result.summary
        n = len(result.logits)
        metrics = {
            "host_step_ms": summary(host, "ms", 1e3, fastest=True),
            "sim_step_ms": point(s["latency_mean"] * 1e3, "sim_ms", n),
            "sim_step_p99_ms": point(s["latency_p99"] * 1e3, "sim_ms", n),
            "setup_s": _setup_summary(stage_runs),
        }
        step_failures, found = self._checks(engine, requests, result, seed)
        return Run(metrics, n, step_failures, found)

    def traced(self, seed: int, seconds: float) -> Run:
        """One untraced and one traced pass over :attr:`traced_share` of
        the stream; ``seconds`` is not used, the work is fixed."""
        share = self.traced_share
        (baseline, requests, mutations), _ = self._setup(seed, False, share)
        _, untraced = self._pass(baseline, requests, mutations)
        del baseline
        (engine, requests, mutations), stage_runs = self._setups(
            seed, True, share)
        tracer = Tracer(costs=calibrate())
        tally = SimTally()

        def tally_window():
            with tracer.untimed():
                sim = engine.engine.ctx.engine
                if sim.trace:
                    tally.add(sim.trace)
                    sim.clear_trace()

        _after_commits(engine, tally_window)
        with tracer.installed():
            t0 = time.perf_counter()
            with _span(tracer):
                result = engine.run(requests, mutations)
            elapsed = time.perf_counter() - t0 - tracer.untimed_seconds
        tally_window()
        steps = len(result.logits)
        per_request = elapsed / steps
        live = engine.engine
        s = live.metrics.summary(cache_stats=live.cache.stats)
        records = live.metrics.records
        wait = sorted(r.queue_wait for r in records)
        service = sorted(r.service_time for r in records)
        gens = engine.generations
        flush = sum(g.cache_flush_equivalent for g in gens)
        owners = live.partition.owners(np.arange(engine.graph.n, dtype=np.int64))
        nnz = np.bincount(owners, weights=live.a_hat_t.row_nnz(),
                          minlength=live.config.num_gpus)
        values = {
            **_host_shares(tracer, steps),
            **tally.metrics(steps),
            **_setup_shares(stage_runs),
            "host.step_s": per_request,
            "sim.peak_mem_bytes": live.ctx.peak_memory(),
            "core.partitioner.nnz_imbalance": float(nnz.max() / nnz.mean()),
            "cache.hit_rate": s["cache_hit_rate"],
            "cache.evictions": s["cache_evictions"],
            "dynamic.delta_evicted_frac": (
                sum(g.cache_entries_delta_evicted for g in gens) / flush
                if flush else 0.0),
            "dynamic.rows_rebuilt":
                sum(g.rows_rebuilt for g in gens) / max(len(gens), 1),
            "serve.mean_batch_size": s["mean_batch_size"],
            "serve.queue_wait_p50_s": nearest_rank(wait, 50),
            "serve.service_p50_s": nearest_rank(service, 50),
            "serve.service_p99_s": nearest_rank(service, 99),
            "trace.overhead_frac": per_request / untraced - 1,
        }
        step_failures, found = self._checks(engine, requests, result, seed)
        return Run(_layer_metrics(values), steps, step_failures, found,
                   tracer=tracer)


WORKLOADS = {
    w.name: w
    for w in (
        Training(
            name="train-arxiv-p1",
            why="1 GPU, no communication: host time is backend numerics; "
                "the bypass for comm, partition, cache and scheduling changes",
            dataset="arxiv", scale=0.05, hidden=128, layers=3, gpus=1,
            round_epochs=30),
        Training(
            name="train-arxiv-p8",
            why="8 GPUs, hidden 8: host time is Python dispatch and the "
                "simulated epoch is comm-bound",
            dataset="arxiv", scale=0.005, hidden=8, layers=4, gpus=8,
            round_epochs=100),
        Training(
            name="train-reddit-2node",
            why="full-size symbolic reddit on 2 DGX-1 nodes: no numerics, "
                "98% of the simulated epoch is comm on the critical path",
            dataset="reddit", scale=None, hidden=None, layers=None, gpus=16,
            round_epochs=150, nodes=2),
        Serving(
            name="serve-reddit-mutate",
            why="open-loop queries plus edge mutations: serving, cache and "
                "the commit path share the host; no trainer or collectives"),
    )
}
