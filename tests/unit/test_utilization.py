"""Per-device utilisation: interval math and schedule properties.

``repro.telemetry.device_utilization`` is the one per-device span
analysis; these are the paper-facing checks read off it (§4.1 load
balance, §4.3 exposed communication).
"""

import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import TraceEvent
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.telemetry import Telemetry, device_utilization, sample_epoch
from repro.utils.intervals import merge_spans


def _merge(spans):
    starts, ends = zip(*spans)
    ms, me = merge_spans(starts, ends)
    return list(zip(ms.tolist(), me.tolist()))


def _gpu0(comp=(), comm=()):
    trace = [TraceEvent("gpu0", "compute", "k", "spmm", s, e) for s, e in comp]
    trace += [TraceEvent("gpu0", "comm", "c", "comm", s, e) for s, e in comm]
    return device_utilization(trace)["gpu0"]


class TestIntervalMath:
    def test_merge_overlapping(self):
        assert _merge([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_touching(self):
        assert _merge([(0, 1), (1, 2)]) == [(0, 2)]

    def test_total_deduplicates(self):
        assert _gpu0(comp=[(0, 2), (1, 3)]).busy == pytest.approx(3.0)

    def test_subtract_full_overlap(self):
        assert _gpu0(comm=[(0, 4)], comp=[(0, 4)]).exposed == pytest.approx(0.0)

    def test_subtract_partial(self):
        # comm [0,10), compute [2,4) and [6,7) -> 7 s exposed
        u = _gpu0(comm=[(0, 10)], comp=[(2, 4), (6, 7)])
        assert u.exposed == pytest.approx(7.0)

    def test_subtract_disjoint(self):
        assert _gpu0(comm=[(0, 3)], comp=[(5, 9)]).exposed == pytest.approx(3.0)

    def test_subtract_hole_spanning_base(self):
        assert _gpu0(comm=[(2, 5)], comp=[(0, 10)]).exposed == pytest.approx(0.0)


class TestUtilization:
    def _trace(self):
        return [
            TraceEvent("gpu0", "compute", "spmm", "spmm", 0.0, 6.0),
            TraceEvent("gpu0", "comm", "bcast", "comm", 0.0, 2.0),
            TraceEvent("gpu0", "comm", "bcast2", "comm", 7.0, 9.0),
            TraceEvent("gpu1", "compute", "spmm", "spmm", 0.0, 3.0),
        ]

    def test_per_device_numbers(self):
        util = device_utilization(self._trace())
        g0 = util["gpu0"]
        assert g0.busy == pytest.approx(6.0)
        assert g0.comm == pytest.approx(4.0)
        # first bcast hidden behind compute; second fully exposed
        assert g0.exposed == pytest.approx(2.0)
        assert util["gpu1"].busy == pytest.approx(3.0)

    def test_load_balance(self):
        # the load-balance figure is the straggler-skew gauge: max/mean busy
        out = sample_epoch(Telemetry(), self._trace())
        assert out["straggler_skew"] == pytest.approx(6.0 / 4.5)


def _balance(trace):
    busy = [u.busy for u in device_utilization(trace).values()]
    return max(busy) / (sum(busy) / len(busy))


class TestScheduleProperties:
    @pytest.fixture(scope="class")
    def products(self):
        return load_dataset("products", scale=0.002, seed=2)

    def test_permutation_improves_measured_balance(self, products):
        model = GCNModelSpec.paper_model(1, products.d0, products.num_classes)

        def balance(permute):
            trainer = MGGCNTrainer(
                products, model, machine=dgx1(), num_gpus=4,
                config=TrainerConfig(permute=permute, seed=2),
            )
            return _balance(trainer.train_epoch().trace)

        assert balance(True) < balance(False)
        assert balance(True) < 1.1

    def test_overlap_reduces_exposed_comm(self, products):
        model = GCNModelSpec.paper_model(1, products.d0, products.num_classes)

        def exposed(overlap):
            trainer = MGGCNTrainer(
                products, model, machine=dgx1(), num_gpus=4,
                config=TrainerConfig(overlap=overlap, seed=2, schedule="1d"),
            )
            util = device_utilization(trainer.train_epoch().trace)
            return sum(u.exposed for u in util.values())

        assert exposed(True) < exposed(False)
