"""Unit tests: delta invalidation of the training tile cache."""

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.nn import GCNModelSpec

pytestmark = pytest.mark.dynamic


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.25, learnable=True, seed=0)


class TestTileCacheDeltaInvalidation:
    def test_live_trainer_cache_evicts_only_touched_stages(self, dataset):
        trainer = MGGCNTrainer(
            dataset, GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2),
            num_gpus=2,
            config=TrainerConfig(seed=0, cache_staleness_epochs=1,
                                 permute=False),
        )
        cache = trainer.training_cache
        assert cache is not None
        trainer.train_epoch()  # refresh epoch: admits + fills entries
        assert len(cache) > 0
        part = trainer.graph.part
        resident_before = len(cache)
        keys_before = set(cache._entries)
        gen_before = cache.generation

        # touch a row cached by a stage-0 entry only.
        stage0_rows = None
        for (label, stage) in list(cache._entries):
            if stage == 0:
                local = cache._entries[(label, stage)].cached_rows
                stage0_rows = local + part.boundaries[0]
                break
        assert stage0_rows is not None
        evicted, before = cache.invalidate_rows(part, stage0_rows[:1])
        assert before == resident_before
        assert 0 < evicted < resident_before
        # only stage-0 entries can hold a stage-0-owned row
        gone = keys_before - set(cache._entries)
        assert len(gone) == evicted
        assert all(stage == 0 for _, stage in gone)
        # generation bumped so captured plans recapture instead of replay
        assert cache.generation > gen_before

    def test_untouched_rows_evict_nothing(self, dataset):
        trainer = MGGCNTrainer(
            dataset, GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 2),
            num_gpus=2,
            config=TrainerConfig(seed=0, cache_staleness_epochs=1,
                                 permute=False),
        )
        cache = trainer.training_cache
        trainer.train_epoch()
        part = trainer.graph.part
        all_cached = set()
        for (label, stage), entry in cache._entries.items():
            all_cached.update(
                (entry.cached_rows + part.boundaries[stage]).tolist()
            )
        untouched = [r for r in range(dataset.n) if r not in all_cached][:3]
        if untouched:
            evicted, _ = cache.invalidate_rows(
                part, np.asarray(untouched, dtype=np.int64)
            )
            assert evicted == 0
