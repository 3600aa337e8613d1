"""Tests of the benchmark itself: oracle, stream check, tracer, seeds.

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracle  # noqa: E402
import per_layer  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from measure import SIM_METRICS, sim_metrics  # noqa: E402

from repro.cluster import ClusterConfig, ClusterEngine, assign_rids, expected_tokens  # noqa: E402
from repro.serving import (  # noqa: E402
    EngineConfig,
    mixed_disagg_workload,
    shared_prefix_workload,
    sharegpt_workload,
)


def _load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


@pytest.mark.parametrize("requests", [
    sharegpt_workload(10, 40.0, seed=3),
    sharegpt_workload(6, 40.0, seed=4, n=3),
    shared_prefix_workload(10, 20.0, seed=5, prefix_len=256),
    mixed_disagg_workload(8, 20.0, seed=6, long_prompt_lo=600, long_prompt_hi=900),
], ids=["sharegpt", "sharegpt-n3", "prefix", "mixed"])
def test_oracle_equals_reference_run(requests):
    cluster = ClusterEngine.from_config(ClusterConfig())
    reference = expected_tokens(cluster.run_reference(requests))
    assert oracle.expected_streams(assign_rids(requests)) == reference


def _small_chat(count=12):
    reqs = assign_rids(workloads.get("chat").generate(1))[:count]
    cfg = ClusterConfig(dp=2, engine=EngineConfig(chunked_prefill=True, max_running=32))
    return reqs, cfg


def test_check_flags_divergent_and_lost_streams():
    reqs, cfg = _small_chat()
    expected = oracle.expected_streams(reqs)
    cm = ClusterEngine.from_config(cfg).run(reqs)
    clean = oracle.check_streams(cm, reqs, expected)
    assert clean.failed == 0 and len(clean.completed) == len(reqs)

    traces = cm.replicas[0].traces
    traces[0].tokens[-1] += 1
    lost = traces.pop()
    bad = oracle.check_streams(cm, reqs, expected)
    assert len(bad.divergent) == 1
    rid = cm.replica_requests[0][lost.req_id].rid
    assert bad.lost == {(rid, lost.gen_index)}


def test_oracle_rejects_a_changed_token_model():
    reqs, _ = _small_chat(4)
    expected = oracle.expected_streams(reqs)
    shifted = oracle.expected_streams(
        [dataclasses.replace(r, rid=r.rid + 1) for r in reqs]
    )
    assert expected != shifted


def test_traced_run_matches_untraced_and_self_times_add_up():
    reqs, cfg = _small_chat()
    expected = oracle.expected_streams(reqs)
    plain = ClusterEngine.from_config(cfg).run(reqs)
    original = sys.modules["repro.core.wrapper"].plan_schedule
    with layers.LayerTracer() as tracer:
        engine = ClusterEngine.from_config(cfg, trace=True)
        traced = engine.run(reqs)
    assert sys.modules["repro.core.wrapper"].plan_schedule is original

    a = oracle.check_streams(plain, reqs, expected)
    b = oracle.check_streams(traced, reqs, expected)
    assert sim_metrics(plain, reqs, a) == sim_metrics(traced, reqs, b)
    assert {k: t.tokens for k, t in a.completed.items()} == {
        k: t.tokens for k, t in b.completed.items()
    }

    host = tracer.root_seconds()
    rows = tracer.layer_times()
    total = sum(r["self_s"] for r in rows.values()) + tracer.overhead_s
    assert total == pytest.approx(host, rel=1e-9)
    assert rows["core.scheduler"]["calls"] > 0
    assert rows[layers.UNATTRIBUTED]["self_s"] >= 0.0

    metrics = per_layer.per_layer_metrics(tracer, engine, traced)
    names = {n for n, _ in per_layer.metric_units()} - {"tracing_overhead"}
    assert set(metrics) == names
    reuse = metrics["serving.plan_cache.cross_step_reuse"]["value"]
    assert 0.0 <= reuse <= 1.0


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(0.005) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0.0 < probe.handler_s < 0.2
    assert probe.kernel_s == pytest.approx(sum(probe.samples) / len(probe.samples))
    # Half the reference speed reads as half the time, net of the handler.
    probe.samples = [2 * speed.REFERENCE_KERNEL_S]
    assert probe.normalise(1.0) == pytest.approx((1.0 - probe.handler_s) / 2)


def test_benchmark_json_names_match_the_runner():
    spec = _load(os.path.join("..", "BENCHMARK.json"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [*run.HOST_METRICS, *SIM_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer.metric_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed(name):
    seed = _load("seeds.json")["held_out"]
    wl = workloads.get(name)
    requests = assign_rids(wl.generate(seed))
    assert requests == assign_rids(wl.generate(seed))
    assert len(requests) >= workloads.MIN_REQUESTS
    check, metrics = run._checked(
        wl.build(seed, False).run(requests), requests,
        oracle.expected_streams(requests),
    )
    assert check.failed == 0
    assert list(metrics) == list(SIM_METRICS)
    assert all(v > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "chat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
