"""Schedule-level and memory-level integration checks.

These tests assert the *systems* behaviour the paper claims: overlap
hides communication, permutation balances stages, buffer counts follow
the L+3 law, and the OOM boundaries land where Table 3 / Fig. 10 put
them.
"""

import numpy as np
import pytest

from repro.baselines import CAGNETTrainer, DGLLikeTrainer
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.errors import DeviceOutOfMemoryError
from repro.hardware import dgx1, dgx_a100
from repro.nn import GCNModelSpec
from repro.profiling import extract_stage_timeline, spmm_span


@pytest.fixture(scope="module")
def products_scaled():
    return load_dataset("products", scale=0.002, seed=41)


class TestOverlapSchedule:
    def test_overlap_shortens_spmm(self, products_scaled):
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)

        def spmm_time(overlap):
            cfg = TrainerConfig(permute=True, overlap=overlap, seed=41,
                                schedule="1d")
            tr = MGGCNTrainer(products_scaled, model, machine=dgx1(),
                              num_gpus=4, config=cfg)
            stats = tr.train_epoch()
            spans = extract_stage_timeline(stats.trace, "fwd0/spmm")
            return spmm_span(spans)

        assert spmm_time(True) < spmm_time(False)

    def test_overlap_comm_hidden_behind_compute(self, products_scaled):
        """In the overlapped schedule, broadcast i+1 starts while SpMM i
        is still running (on every GPU)."""
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)
        cfg = TrainerConfig(permute=True, overlap=True, seed=41,
                            schedule="1d")
        tr = MGGCNTrainer(products_scaled, model, machine=dgx1(),
                          num_gpus=4, config=cfg)
        stats = tr.train_epoch()
        spans = extract_stage_timeline(stats.trace, "fwd0/spmm")
        comm = {s.stage: s for s in spans if s.kind == "comm" and s.device == "gpu0"}
        comp = {s.stage: s for s in spans if s.kind == "comp" and s.device == "gpu0"}
        # broadcast of stage 1 starts before stage 0's SpMM ends
        assert comm[1].start < comp[0].end

    def test_serialized_comm_not_overlapped(self, products_scaled):
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)
        cfg = TrainerConfig(permute=True, overlap=False, seed=41,
                            schedule="1d")
        tr = MGGCNTrainer(products_scaled, model, machine=dgx1(),
                          num_gpus=4, config=cfg)
        stats = tr.train_epoch()
        spans = extract_stage_timeline(stats.trace, "fwd0/spmm")
        comm = {s.stage: s for s in spans if s.kind == "comm" and s.device == "gpu0"}
        comp = {s.stage: s for s in spans if s.kind == "comp" and s.device == "gpu0"}
        # broadcast of stage j+1 waits for stage j's SpMM on every rank
        all_comp_ends = {
            s.stage: s.end for s in spans if s.kind == "comp"
        }
        for j in range(1, 4):
            assert comm[j].start >= comp[j - 1].end - 1e-12


class TestPermutationBalance:
    def test_permutation_balances_stage_nnz(self, products_scaled):
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)

        def stage_imbalance(permute):
            cfg = TrainerConfig(permute=permute, overlap=False, seed=42)
            tr = MGGCNTrainer(products_scaled, model, machine=dgx1(),
                              num_gpus=4, config=cfg)
            nnz = np.array([tr.graph.stage_nnz(r) for r in range(4)], dtype=float)
            return nnz.max() / nnz.mean()

        assert stage_imbalance(True) < stage_imbalance(False)

    def test_permutation_shortens_epoch(self, products_scaled):
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)

        def epoch_time(permute):
            cfg = TrainerConfig(permute=permute, overlap=False, seed=42)
            tr = MGGCNTrainer(products_scaled, model, machine=dgx1(),
                              num_gpus=8, config=cfg)
            return tr.train_epoch().epoch_time

        assert epoch_time(True) < epoch_time(False)


class TestBufferAccounting:
    def test_l_plus_3_buffers(self, products_scaled):
        for L in (2, 3, 4):
            model = GCNModelSpec.build(products_scaled.d0, 32,
                                       products_scaled.num_classes, L)
            tr = MGGCNTrainer(products_scaled, model, machine=dgx1(), num_gpus=4)
            assert tr.buffers[0].num_buffers == L + 3

    def test_single_gpu_l_plus_1(self, products_scaled):
        model = GCNModelSpec.build(products_scaled.d0, 32,
                                   products_scaled.num_classes, 2)
        tr = MGGCNTrainer(products_scaled, model, num_gpus=1)
        # no broadcast buffers on one GPU
        assert tr.buffers[0].num_buffers == 2 + 1

    def test_epoch_does_not_grow_memory(self, products_scaled):
        """Training must run entirely in the preallocated buffers: no
        per-epoch allocation (the paper's central memory claim)."""
        model = GCNModelSpec.paper_model(1, products_scaled.d0,
                                         products_scaled.num_classes)
        tr = MGGCNTrainer(products_scaled, model, machine=dgx1(), num_gpus=4)
        before = [tr.ctx.device(i).memory_in_use for i in range(4)]
        peak_before = tr.ctx.peak_memory()
        tr.fit(3)
        after = [tr.ctx.device(i).memory_in_use for i in range(4)]
        assert before == after
        assert tr.ctx.peak_memory() == peak_before


class TestOOMBoundaries:
    """The paper's memory cells, at full Table-1 scale (symbolic)."""

    def _fits(self, make):
        try:
            make()
            return True
        except DeviceOutOfMemoryError:
            return False

    def test_proteins_mggcn_four_gpus(self):
        ds = load_dataset("proteins", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        fits = [
            self._fits(
                lambda P=P: MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=P)
            )
            for P in (1, 2, 4, 8)
        ]
        assert fits == [False, False, True, True]

    def test_proteins_cagnet_never_fits(self):
        ds = load_dataset("proteins", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        for P in (1, 2, 4, 8):
            assert not self._fits(
                lambda: CAGNETTrainer(ds, model, machine=dgx1(), num_gpus=P,
                                      permute=True)
            )

    def test_proteins_dgl_oom(self):
        ds = load_dataset("proteins", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        assert not self._fits(lambda: DGLLikeTrainer(ds, model, machine=dgx1()))

    def test_papers_needs_eight_a100s(self):
        ds = load_dataset("papers", symbolic=True)
        model = GCNModelSpec.paper_model(4, ds.d0, ds.num_classes)
        fits = [
            self._fits(
                lambda P=P: MGGCNTrainer(ds, model, machine=dgx_a100(), num_gpus=P)
            )
            for P in (1, 2, 4, 8)
        ]
        assert fits == [False, False, False, True]

    def test_reddit_fits_everywhere(self):
        ds = load_dataset("reddit", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
        for P in (1, 2, 4, 8):
            assert self._fits(
                lambda: MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=P)
            )
