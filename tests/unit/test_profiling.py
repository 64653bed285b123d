"""Profiling: breakdowns, timelines, memory sweeps."""

import pytest

from repro.config import GiB
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import TraceEvent
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.profiling import (
    extract_stage_timeline,
    max_layers_that_fit,
    memory_for_layers,
    render_timeline,
    runtime_breakdown,
    spmm_span,
)
from repro.profiling.breakdown import breakdown_percentages, breakdown_table
from repro.profiling.memory import memory_curve
from repro.profiling.timeline import StageSpan


def _trace():
    return [
        TraceEvent("gpu0", "comm", "fwd0/spmm/bcast[0]", "comm", 0.0, 1.0, stage=0),
        TraceEvent("gpu0", "compute", "fwd0/spmm[0]", "spmm", 1.0, 4.0, stage=0),
        TraceEvent("gpu0", "comm", "fwd0/spmm/bcast[1]", "comm", 4.0, 5.0, stage=1),
        TraceEvent("gpu0", "compute", "fwd0/spmm[1]", "spmm", 5.0, 7.0, stage=1),
        TraceEvent("gpu0", "compute", "fwd0/gemm", "gemm", 7.0, 8.0),
        TraceEvent("gpu0", "compute", "fwd0/relu", "activation", 8.0, 8.5),
        TraceEvent("gpu0", "compute", "loss", "loss", 8.5, 9.0),
        TraceEvent("gpu0", "compute", "adam0", "adam", 9.0, 9.2),
        TraceEvent("gpu0", "comm", "bwd0/allreduce_wg", "comm", 9.0, 9.4),
    ]


class TestBreakdown:
    def test_comm_folded_into_spmm(self):
        totals = runtime_breakdown(_trace())
        assert totals["spmm"] == pytest.approx(3.0 + 2.0 + 1.0 + 1.0)
        assert totals["gemm"] == pytest.approx(1.0)

    def test_comm_excluded_when_not_folded(self):
        totals = runtime_breakdown(_trace(), fold_comm_into_spmm=False)
        assert totals["spmm"] == pytest.approx(5.0)

    def test_percentages_sum_to_100(self):
        pct = breakdown_percentages(_trace())
        assert sum(pct.values()) == pytest.approx(100.0)

    def test_table_renders(self):
        table = breakdown_table([("run1", _trace())])
        assert "run1" in table
        assert "%" in table

    def test_empty_trace(self):
        assert breakdown_percentages([]) == {
            "activation": 0.0, "adam": 0.0, "gemm": 0.0, "loss": 0.0, "spmm": 0.0,
        }


class TestTimeline:
    def test_extract_filters_by_prefix_and_stage(self):
        spans = extract_stage_timeline(_trace(), "fwd0/spmm")
        assert len(spans) == 4
        kinds = {(s.kind, s.stage) for s in spans}
        assert ("comm", 0) in kinds and ("comp", 1) in kinds

    def test_spmm_span(self):
        spans = extract_stage_timeline(_trace(), "fwd0/spmm")
        assert spmm_span(spans) == pytest.approx(7.0)
        assert spmm_span([]) == 0.0

    def test_render_contains_rows(self):
        spans = extract_stage_timeline(_trace(), "fwd0/spmm")
        art = render_timeline(spans, width=40)
        assert "gpu0 comm" in art
        assert "gpu0 comp" in art
        assert "~" in art and "#" in art

    def test_render_empty(self):
        assert "empty" in render_timeline([])

    def test_real_trainer_trace_extractable(self, small_dataset, small_model):
        trainer = MGGCNTrainer(small_dataset, small_model, machine=dgx1(),
                               num_gpus=4, config=TrainerConfig(schedule="1d"))
        stats = trainer.train_epoch()
        spans = extract_stage_timeline(stats.trace, "fwd0/spmm")
        assert len(spans) >= 4 * 4  # 4 stages x 4 GPUs compute at least
        assert spmm_span(spans) > 0


class TestMemorySweep:
    @pytest.fixture()
    def reddit(self):
        return load_dataset("reddit", symbolic=True)

    def test_memory_linear_in_layers(self, reddit):
        m2 = memory_for_layers(reddit, 512, 2, num_gpus=1)
        m4 = memory_for_layers(reddit, 512, 4, num_gpus=1)
        m8 = memory_for_layers(reddit, 512, 8, num_gpus=1)
        assert (m8 - m4) == pytest.approx(2 * (m4 - m2), rel=0.01)

    def test_shared_fits_more_layers_than_eager(self, reddit):
        shared = max_layers_that_fit(reddit, 512, 1, scheme="shared")
        eager = max_layers_that_fit(reddit, 512, 1, scheme="eager")
        assert shared > 2 * eager

    def test_partitioning_fits_more_layers(self, reddit):
        one = max_layers_that_fit(reddit, 512, 1, scheme="shared")
        eight = max_layers_that_fit(reddit, 512, 8, scheme="shared")
        assert eight > 5 * one

    def test_paper_magnitudes(self, reddit):
        """Fig. 12 anchors: ~20 (DGL) vs ~50 (MG-GCN) layers on 1 GPU,
        ~150 (CAGNET) vs ~450 (MG-GCN) on 8 — we accept wide bands."""
        dgl = max_layers_that_fit(reddit, 512, 1, scheme="eager",
                                  eager_buffers_per_layer=3)
        mg1 = max_layers_that_fit(reddit, 512, 1, scheme="shared")
        mg8 = max_layers_that_fit(reddit, 512, 8, scheme="shared")
        assert 10 <= dgl <= 35
        assert 40 <= mg1 <= 75
        assert 300 <= mg8 <= 700

    def test_budget_respected(self, reddit):
        layers = max_layers_that_fit(reddit, 512, 1, memory_budget=30 * GiB)
        assert memory_for_layers(reddit, 512, layers, 1) <= 30 * GiB
        assert memory_for_layers(reddit, 512, layers + 1, 1) > 30 * GiB

    def test_curve_points(self, reddit):
        curve = memory_curve(reddit, 512, 1, [1, 2, 3])
        assert [p[0] for p in curve] == [1, 2, 3]
        assert curve[2][1] > curve[0][1]

    def test_validation(self, reddit):
        with pytest.raises(ConfigurationError):
            memory_for_layers(reddit, 512, 0, 1)
