"""The array-native planner against the scalar reference planner.

``plan_oracle`` keeps the per-item Python implementation of Algorithm 1.
These tests check that :func:`repro.core.plan_schedule` and
:func:`repro.core.plan_unbalanced` produce the same plans: the same work-item
table in the same CTA-major order, the same per-CTA offsets, merge tables,
partial-slot count and KV chunk size, over random inputs and over real
serving inputs recorded in ``data/plan_inputs.json``.

Regenerate the recorded inputs with::

    PYTHONPATH=src python tests/test_scheduler_equivalence.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_oracle import oracle_arrays, oracle_plan_schedule, oracle_plan_unbalanced
from repro.core import SchedulePlan, plan_schedule, plan_unbalanced

FIXTURE = pathlib.Path(__file__).parent / "data" / "plan_inputs.json"


def assert_same_plan(plan: SchedulePlan, ref) -> None:
    arrays = oracle_arrays(ref)
    for name, expected in arrays.items():
        got = getattr(plan, name)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, expected, err_msg=name)
    assert plan.num_partial_slots == ref.num_partial_slots
    assert plan.kv_chunk_size == ref.kv_chunk_size
    assert plan.q_tile_size == ref.q_tile_size
    assert plan.num_work_items == ref.num_work_items
    assert plan.load_balance == ref.load_balance
    assert plan.cta_queues == ref.cta_queues
    assert plan.merges == ref.merges


lengths = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 6000)), min_size=0, max_size=16
)


@st.composite
def offsets(draw, n: int):
    """``None`` (the default convention) or explicit per-group positions."""
    if draw(st.booleans()):
        return None
    return draw(st.lists(st.integers(-200, 6000), min_size=n, max_size=n))


class TestRandomInputs:
    @given(
        lengths,
        st.sampled_from([1, 2, 4, 16, 64, 128]),
        st.integers(1, 80),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.sampled_from([(1.0, 2.0), (0.0, 1.0), (1.0, 0.0), (0.3, 1.7)]),
        st.sampled_from([(64, 64), (16, 32), (512, 96)]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_schedule_matches_oracle(
        self, lens, q_tile, num_ctas, heads, split_kv, causal, weights, chunking, data
    ):
        qo = [lq for lq, _ in lens]
        kv = [lkv for _, lkv in lens]
        kwargs = dict(
            num_kv_heads=heads,
            mapping_idx=data.draw(st.integers(0, 3)),
            alpha=weights[0],
            beta=weights[1],
            min_kv_chunk=chunking[0],
            chunk_granularity=chunking[1],
            split_kv=split_kv,
            causal=causal,
            q_pos_offset=data.draw(offsets(len(lens))),
            kv_pos_offset=data.draw(offsets(len(lens))),
        )
        plan = plan_schedule(qo, kv, q_tile, num_ctas, **kwargs)
        ref = oracle_plan_schedule(qo, kv, q_tile, num_ctas, **kwargs)
        assert_same_plan(plan, ref)

    @given(lengths, st.sampled_from([1, 4, 16, 128]), st.integers(1, 40), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_plan_unbalanced_matches_oracle(self, lens, q_tile, num_ctas, heads):
        qo = [lq for lq, _ in lens]
        kv = [lkv for _, lkv in lens]
        plan = plan_unbalanced(qo, kv, q_tile, num_ctas, num_kv_heads=heads)
        ref = oracle_plan_unbalanced(qo, kv, q_tile, num_ctas, num_kv_heads=heads)
        assert_same_plan(plan, ref)

    def test_ties_go_to_the_lower_cta(self):
        # Equal weights: creation order, each item to the least-loaded CTA
        # with the lowest index.
        kwargs = dict(num_kv_heads=2, split_kv=False)
        plan = plan_schedule([1] * 5, [100] * 5, 16, 3, **kwargs)
        assert_same_plan(plan, oracle_plan_schedule([1] * 5, [100] * 5, 16, 3, **kwargs))
        assert plan.cta_indptr.tolist() == [0, 4, 7, 10]

    def test_zero_cost_items_stay_on_the_same_idle_cta(self):
        # With α = 0 an empty-KV item costs nothing, so its CTA is still the
        # cheapest lowest-index one and takes the next item too.
        kwargs = dict(alpha=0.0, beta=1.0, split_kv=False)
        plan = plan_schedule([1, 1, 1], [0, 100, 0], 16, 4, **kwargs)
        assert_same_plan(plan, oracle_plan_schedule([1, 1, 1], [0, 100, 0], 16, 4, **kwargs))
        assert plan.cta_indptr.tolist() == [0, 1, 3, 3, 3]


def recorded_calls():
    return json.loads(FIXTURE.read_text())["calls"]


class TestRecordedServingInputs:
    def test_fixture_covers_three_serving_shapes(self):
        calls = recorded_calls()
        assert {c["workload"] for c in calls} == {"chat", "prefix", "disagg"}
        assert any(c["kwargs"]["causal"] for c in calls)
        assert any(not c["kwargs"]["causal"] for c in calls)

    @pytest.mark.parametrize("workload", ["chat", "prefix", "disagg"])
    def test_recorded_inputs_plan_identically(self, workload):
        calls = [c for c in recorded_calls() if c["workload"] == workload]
        assert calls
        for call in calls:
            args, kwargs = call["args"], call["kwargs"]
            assert_same_plan(plan_schedule(*args, **kwargs), oracle_plan_schedule(*args, **kwargs))


# -- recording the fixture ------------------------------------------------------

#: Distinct ``plan_schedule`` calls kept per workload (evenly spaced in
#: call order, so prefill-, mixed- and decode-heavy steps all appear).
CALLS_PER_WORKLOAD = 40


def _serving_shapes():
    from repro.cluster import ClusterConfig
    from repro.serving import (
        EngineConfig,
        mixed_disagg_workload,
        shared_prefix_workload,
        sharegpt_workload,
    )

    return {
        "chat": (
            ClusterConfig(
                tp=1, dp=2, router="least-loaded",
                engine=EngineConfig(chunked_prefill=True, max_running=32),
            ),
            sharegpt_workload(16, 40.0, seed=3),
        ),
        "prefix": (
            ClusterConfig(
                tp=2, dp=2, router="cache-aware",
                engine=EngineConfig(prefix_cache=True, composable=True, chunked_prefill=True),
            ),
            shared_prefix_workload(16, 40.0, seed=3, num_groups=3, prefix_len=512),
        ),
        "disagg": (
            ClusterConfig(
                dp=2, roles="prefill=1,decode=1",
                engine=EngineConfig(chunked_prefill=True, prefill_chunk_size=512),
            ),
            mixed_disagg_workload(16, 15.0, seed=3, chatty_fraction=0.85),
        ),
    }


def record() -> None:
    """Serve each shape once and write a sample of its planner inputs."""
    import repro.core.wrapper as wrapper
    from repro.cluster import ClusterEngine, assign_rids
    from repro.core.scheduler import plan_signature

    def plain(x):
        return None if x is None else np.asarray(x, dtype=np.int64).tolist()

    calls = []
    original = wrapper.plan_schedule
    try:
        for name, (config, requests) in _serving_shapes().items():
            seen, recorded = set(), []

            def recording(qo_lens, kv_lens, q_tile_size, num_ctas, **kwargs):
                key = plan_signature(qo_lens, kv_lens, q_tile_size, num_ctas, **kwargs)
                if key not in seen:
                    seen.add(key)
                    recorded.append({
                        "workload": name,
                        "args": [plain(qo_lens), plain(kv_lens), int(q_tile_size),
                                 int(num_ctas)],
                        "kwargs": {
                            k: plain(v) if k.endswith("offset") else v
                            for k, v in kwargs.items()
                        },
                    })
                return original(qo_lens, kv_lens, q_tile_size, num_ctas, **kwargs)

            wrapper.plan_schedule = recording
            ClusterEngine.from_config(config).run(assign_rids(requests))
            keep = np.linspace(0, len(recorded) - 1, min(CALLS_PER_WORKLOAD, len(recorded)))
            calls += [recorded[int(i)] for i in np.unique(np.round(keep))]
    finally:
        wrapper.plan_schedule = original
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"calls": calls}, separators=(",", ":")) + "\n")
    print(f"wrote {len(calls)} calls to {FIXTURE}")


if __name__ == "__main__":
    record()
