"""Property tests: served logits equal the eager full-batch forward.

The serving engine answers queries with cached embeddings plus partial
recompute over the uncached frontier. These tests drive it through
arbitrary interleavings of queries, cache evictions (tiny capacities),
model-version bumps, and a mid-stream device failure, asserting after
every step that the returned logits match a freshly computed
full-batch :class:`ReferenceGCN` forward under the live weights — i.e.
the cache is *transparent*: no stale row, no partially-updated layer,
no post-fault placement change ever leaks into the output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import load_dataset
from repro.hardware import dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.nn.reference import ReferenceGCN
from repro.resilience.faults import DeviceFailure, FaultPlan
from repro.serve import InferenceRequest, ServingConfig, ServingEngine

pytestmark = pytest.mark.serving

# The partial path performs the same float32 operations as the full
# forward, but BLAS may pick a different kernel for oddly-shaped frontier
# GeMMs, reassociating the k-sum. The padding in the engine pins the
# common shapes to the full-batch kernel; the atol floor absorbs the
# residual reassociation noise on adversarial shapes (~1e-5 absolute for
# k ~ thousands in float32).
RTOL = 1e-6
ATOL = 1e-5


def _dataset():
    return load_dataset("cora", scale=0.1, learnable=True, seed=1)


DATASET = _dataset()
SPEC = GCNModelSpec.build(DATASET.d0, 12, DATASET.num_classes, 3)
BASE_WEIGHTS = init_weights(SPEC.layer_dims, seed=0)


def reference_logits(weights):
    ref = ReferenceGCN(DATASET, SPEC, seed=0)
    ref.weights = [np.asarray(w, dtype=np.float32) for w in weights]
    return ref.forward()[-1]


@st.composite
def interleavings(draw):
    """A script of query / evict-pressure / version-bump steps."""
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("query"),
                    st.lists(
                        st.integers(0, DATASET.n - 1), min_size=1, max_size=5
                    ),
                ),
                st.just(("bump",)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    capacity = draw(st.sampled_from([0, 7, 64, 4 * DATASET.n]))
    pinned = draw(st.sampled_from([0, 3]))
    return steps, capacity, pinned


@settings(max_examples=25, deadline=None)
@given(interleavings())
def test_cache_is_transparent_under_interleavings(script):
    """Queries, LRU evictions, and version bumps never change logits."""
    steps, capacity, pinned = script
    engine = ServingEngine(
        DATASET,
        BASE_WEIGHTS,
        SPEC,
        config=ServingConfig(
            machine=dgx_a100(),
            num_gpus=3,
            cache_entries=capacity,
            num_pinned=pinned if capacity else 0,
        ),
    )
    scale = 1.0
    expected = reference_logits(BASE_WEIGHTS)
    for step in steps:
        if step[0] == "bump":
            scale *= 1.25
            engine.update_weights([w * scale for w in BASE_WEIGHTS])
            expected = reference_logits([w * scale for w in BASE_WEIGHTS])
        else:
            targets = step[1]
            got = engine.query(targets)
            np.testing.assert_allclose(
                got, expected[targets], rtol=RTOL, atol=ATOL
            )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2),
    st.lists(st.integers(0, DATASET.n - 1), min_size=4, max_size=10),
    st.integers(0, 2**31 - 1),
)
def test_degraded_mode_is_transparent(dead_rank, targets, seed):
    """Losing any device mid-stream never changes the served logits."""
    fault_plan = FaultPlan(
        device_failures=(DeviceFailure(rank=dead_rank, time=1e-4),)
    )
    engine = ServingEngine(
        DATASET,
        BASE_WEIGHTS,
        SPEC,
        config=ServingConfig(
            machine=dgx_a100(),
            num_gpus=3,
            cache_entries=4 * DATASET.n,
            fault_plan=fault_plan,
            max_batch_size=4,
        ),
    )
    engine.warm_cache()
    rng = np.random.default_rng(seed)
    requests = [
        InferenceRequest(
            request_id=i,
            vertices=(int(v),),
            arrival=float(i) * float(rng.uniform(5e-5, 2e-4)),
        )
        for i, v in enumerate(targets)
    ]
    result = engine.serve(requests)
    assert dead_rank not in engine.alive_ranks
    expected = reference_logits(BASE_WEIGHTS)
    for r in requests:
        np.testing.assert_allclose(
            result.logits[r.request_id],
            expected[list(r.vertices)],
            rtol=RTOL,
            atol=ATOL,
        )
