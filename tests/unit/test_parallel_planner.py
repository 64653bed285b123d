"""ParallelismPlanner: choices, explanations, memory guards, CLI."""

import json

import pytest

from repro.__main__ import main
from repro.comm import Communicator
from repro.datasets import load_dataset
from repro.errors import ConfigurationError
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.parallel import (
    LAYER_SCHEMES,
    HierarchicalCommunicator,
    ParallelismPlanner,
)

#: arxiv, hidden 128, 2 layers: (nodes, GPUs, mixture estimate, fixed
#: estimates), pinned bitwise.
PINNED_ESTIMATES = {
    "1-node": (1, 4, 0.0035782884071616935, {
        "1d": 0.003817288147188353,
        "15d": 0.005470005150688221,
        "2d": 0.01114370198177699,
    }),
    "2-node": (2, None, 0.00520385597724505, {
        "1d": 0.009285672284622385,
        "15d": 0.003932851332241854,
        "2d": 0.005592594026249019,
    }),
}


@pytest.fixture(scope="module")
def arxiv():
    return load_dataset("arxiv", symbolic=True)


def _plan(dataset, nodes=2, hidden=128, layers=2, **kwargs):
    machine = multi_node_cluster(nodes, dgx1()) if nodes > 1 else dgx1()
    model = GCNModelSpec.build(
        dataset.d0, hidden, dataset.num_classes, layers
    )
    return ParallelismPlanner(dataset, model, machine, **kwargs).plan()


class TestPlanStructure:
    def test_one_choice_per_layer(self, arxiv):
        plan = _plan(arxiv, layers=3)
        assert len(plan.choices) == 3
        assert all(c.scheme in LAYER_SCHEMES for c in plan.choices)
        assert plan.schemes == [plan.scheme(l) for l in range(3)]

    def test_every_layer_prices_every_scheme(self, arxiv):
        plan = _plan(arxiv)
        for choice in plan.choices:
            priced = {c.scheme for c in choice.candidates}
            assert priced == set(LAYER_SCHEMES)
            for cand in choice.candidates:
                assert cand.comm_time >= 0 and cand.compute_time >= 0

    def test_choices_have_reasons(self, arxiv):
        plan = _plan(arxiv)
        assert all(c.reason for c in plan.choices)

    def test_staged_scheme_is_priced_node_aware(self, arxiv):
        """On 2 nodes each layer's "1d" comm is the node-aware price,
        well under what the flat ring would charge."""
        model = GCNModelSpec.build(arxiv.d0, 128, arxiv.num_classes, 2)
        planner = ParallelismPlanner(
            arxiv, model, multi_node_cluster(2, dgx1())
        )
        plan = planner.plan()
        assert isinstance(planner._comm, HierarchicalCommunicator)
        assert planner._comm.is_hierarchical
        node_aware = [c.candidate("1d").comm_time for c in plan.choices]
        assert node_aware == [0.0042103697816689295, 0.0025037686975627714]
        planner._comm = Communicator(planner._ctx)
        flat = [
            planner._layer_candidates(l, 0)[0].comm_time for l in range(2)
        ]
        assert all(f > 5 * h for f, h in zip(flat, node_aware))

    @pytest.mark.parametrize("config", sorted(PINNED_ESTIMATES))
    def test_estimates_bitwise_pinned(self, arxiv, config):
        nodes, gpus, mixture, fixed = PINNED_ESTIMATES[config]
        plan = _plan(arxiv, nodes=nodes, num_gpus=gpus)
        assert plan.num_nodes == nodes
        assert plan.mixture_estimate == mixture
        assert plan.fixed_estimates == fixed

    def test_mixture_estimate_never_worse_than_uniform_1d(self, arxiv):
        plan = _plan(arxiv, nodes=2)
        assert plan.mixture_estimate <= plan.fixed_estimates["1d"]

    def test_non_square_gpu_count_excludes_2d(self, arxiv):
        plan = _plan(arxiv, nodes=1)  # 8 GPUs
        assert "2d" not in plan.fixed_estimates
        assert "square" in plan.exclusions["2d"]

    def test_square_gpu_count_prices_2d(self, arxiv):
        plan = _plan(arxiv, nodes=2)  # 16 GPUs
        assert plan.fixed_estimates["2d"] > 0

    def test_to_dict_round_trips_through_json(self, arxiv):
        plan = _plan(arxiv)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["num_gpus"] == 16
        assert [l["scheme"] for l in payload["layers"]] == plan.schemes
        assert payload["best_overall"] == plan.best_overall

    def test_invalid_gpu_count_rejected(self, arxiv):
        model = GCNModelSpec.build(arxiv.d0, 64, arxiv.num_classes, 2)
        with pytest.raises(ConfigurationError):
            ParallelismPlanner(arxiv, model, dgx1(), num_gpus=0)


class TestMemoryGuard:
    def test_tight_memory_disables_allgather(self, arxiv):
        """With little headroom, the replicated-operand scheme is priced
        infeasible and never chosen."""
        roomy = _plan(arxiv, nodes=1, hidden=64)
        tight = _plan(arxiv, nodes=1, hidden=64, memory_headroom=0.001)
        # the roomy plan picks allgather for at least one of these tiny
        # layers (it wins by ~9x on a single node); the tight one cannot
        assert any(s == "1d_allgather" for s in roomy.schemes)
        assert all(s != "1d_allgather" for s in tight.schemes)
        for choice in tight.choices:
            assert not choice.candidate("1d_allgather").feasible

    def test_extra_memory_reported(self, arxiv):
        plan = _plan(arxiv, nodes=1, hidden=64)
        if any(s == "1d_allgather" for s in plan.schemes):
            assert plan.extra_memory_per_gpu > 0

    def test_bad_headroom_rejected(self, arxiv):
        model = GCNModelSpec.build(arxiv.d0, 64, arxiv.num_classes, 2)
        with pytest.raises(ConfigurationError):
            ParallelismPlanner(arxiv, model, dgx1(), memory_headroom=0.0)


class TestExplain:
    def test_explain_mentions_every_layer_and_estimates(self, arxiv):
        plan = _plan(arxiv, layers=3)
        text = plan.explain()
        for choice in plan.choices:
            assert f"{choice.d_in}->{choice.d_out}" in text
            assert choice.scheme in text
        assert "recommendation:" in text
        for name in plan.fixed_estimates:
            assert name in text


class TestCLI:
    def test_parallel_plan_prints_table(self, capsys):
        rc = main(
            [
                "parallel",
                "plan",
                "arxiv",
                "--nodes",
                "2",
                "--hidden",
                "256",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallelism plan: arxiv x 2xDGX-1-V100" in out
        assert "16 GPUs, 2 nodes" in out
        # a table row per layer with the scheme and costs
        assert "128->256" in out and "256->40" in out
        assert "recommendation:" in out

    def test_parallel_plan_json(self, capsys):
        rc = main(["parallel", "plan", "cora", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "DGX-1-V100"
        assert payload["num_nodes"] == 1
        assert all(
            l["scheme"] in LAYER_SCHEMES for l in payload["layers"]
        )

    def test_parallel_plan_respects_gpu_override(self, capsys):
        rc = main(["parallel", "plan", "cora", "--gpus", "4"])
        assert rc == 0
        assert "(4 GPUs, 1 node)" in capsys.readouterr().out
