"""Property tests: planner memory safety and hierarchy invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator
from repro.datasets.loader import SymbolicDataset
from repro.device import MemoryPool, SimContext
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.parallel import (
    HierarchicalCommunicator,
    ParallelismPlanner,
    node_groups,
)

_dataset = st.builds(
    SymbolicDataset,
    name=st.just("prop"),
    n=st.integers(1_000, 500_000),
    m=st.integers(10_000, 5_000_000),
    d0=st.sampled_from([32, 128, 602]),
    num_classes=st.just(16),
)


class TestPlannerMemorySafety:
    @settings(max_examples=40, deadline=None)
    @given(
        dataset=_dataset,
        hidden=st.sampled_from([16, 64, 256]),
        layers=st.integers(1, 3),
        nodes=st.sampled_from([1, 2, 4]),
    )
    def test_choices_fit_in_gpu_memory(self, dataset, hidden, layers, nodes):
        """Whatever the planner picks, its own memory estimate — baseline
        trainer state plus every chosen scheme's extra footprint — must
        reserve cleanly inside a real per-GPU MemoryPool."""
        machine = multi_node_cluster(nodes, dgx1()) if nodes > 1 else dgx1()
        model = GCNModelSpec.build(
            dataset.d0, hidden, dataset.num_classes, layers
        )
        planner = ParallelismPlanner(dataset, model, machine)
        plan = planner.plan()
        pool = MemoryPool(capacity=machine.gpu.memory_bytes, name="prop")
        pool.allocate(planner._baseline_memory(), tag="baseline")
        if plan.extra_memory_per_gpu:
            pool.allocate(plan.extra_memory_per_gpu, tag="allgather")
        # never chosen infeasible
        for choice in plan.choices:
            assert choice.candidate(choice.scheme).feasible

    @settings(max_examples=40, deadline=None)
    @given(
        dataset=_dataset,
        nodes=st.sampled_from([1, 2]),
        hidden=st.sampled_from([16, 128]),
    )
    def test_mixture_estimate_is_min_of_feasible_choices(
        self, dataset, nodes, hidden
    ):
        machine = multi_node_cluster(nodes, dgx1()) if nodes > 1 else dgx1()
        model = GCNModelSpec.build(dataset.d0, hidden, dataset.num_classes, 2)
        plan = ParallelismPlanner(dataset, model, machine).plan()
        for choice in plan.choices:
            chosen = choice.candidate(choice.scheme)
            for cand in choice.candidates:
                if cand.feasible and cand.scheme != choice.scheme:
                    assert chosen.total <= cand.total


class TestHierarchyInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**16),
        nbytes=st.sampled_from([4096, 1 << 20, 16 << 20]),
    )
    def test_durations_positive_and_tree_scales_mildly(
        self, nodes, seed, nbytes
    ):
        cluster = multi_node_cluster(nodes, dgx1())
        ctx = SimContext(cluster, num_gpus=nodes * 8)
        hier = HierarchicalCommunicator(ctx)
        flat = Communicator(ctx)
        for duration in (
            hier.broadcast_duration(0, nbytes),
            hier.allreduce_duration(nbytes),
            hier.allgather_duration(nbytes),
        ):
            assert duration > 0
        # the hierarchy's bandwidth term can never exceed flat's by more
        # than its phase count (it moves the same bytes over faster or
        # equal links); for bandwidth-bound payloads it must win outright
        if nbytes >= 1 << 20:
            assert hier.allreduce_duration(nbytes) < flat.allreduce_duration(
                nbytes
            )

    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.sampled_from([1, 2, 4]),
        data=st.data(),
    )
    def test_node_groups_partition_any_rank_subset(self, nodes, data):
        cluster = multi_node_cluster(nodes, dgx1()) if nodes > 1 else dgx1()
        ranks = data.draw(
            st.lists(
                st.integers(0, cluster.num_gpus - 1),
                min_size=1,
                max_size=cluster.num_gpus,
                unique=True,
            )
        )
        groups = node_groups(cluster, ranks)
        flattened = [r for g in groups for r in g]
        assert sorted(flattened) == sorted(ranks)
        for group in groups:
            assert len({cluster.node_of(r) for r in group}) == 1
