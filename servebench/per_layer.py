"""Per-layer metrics of one traced run.

Host time per layer comes from :class:`layers.LayerTracer` spans.
Simulated counts come from public outputs: ``ClusterMetrics.summary()``
and the ``StepTracer`` events of ``ClusterEngine(trace=True)``.  Kernel
FLOPs and HBM bytes are what the cost model computes from tensor sizes,
not measurements, and are named ``*_costmodel``.  A layer that does not
run on a workload reports zeros.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from layers import LAYERS, UNATTRIBUTED, LayerTracer

_TIMES = (("calls", "count"), ("host_s", "s"), ("self_s", "s"))

#: Counters beyond calls/host_s/self_s, per layer, as ``(name, unit)``.
EXTRAS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cluster.disagg": (
        ("handoff_pages", "count"), ("handoff_bytes", "B"),
        ("handoff_retries", "count"), ("handoff_transfer_s", "s"),
    ),
    "cluster.router": (("replica_token_imbalance", "ratio"),),
    "cluster.tp": (("link_allreduce_bytes", "B"), ("link_utilization", "fraction")),
    "serving.overload": (
        ("admitted", "count"), ("rejected", "count"), ("retries", "count"),
        ("dropped", "count"), ("hedged_prefills", "count"),
        ("breaker_open_total", "count"), ("brownout_peak_level", "count"),
    ),
    "serving.admission": (
        ("preemptions", "count"), ("admission_pressure_mean", "fraction"),
    ),
    "serving.batching": (
        ("steps_prefill", "count"), ("steps_decode", "count"),
        ("steps_mixed", "count"), ("steps_resume", "count"),
        ("tokens_per_step_mean", "count"), ("streams_per_step_mean", "count"),
    ),
    "serving.executor": (("host_ms_per_step", "ms"),),
    "serving.backends": (
        ("sim_attention_s", "s"), ("sim_gemm_s", "s"), ("sim_allreduce_s", "s"),
        ("sim_lm_head_s", "s"), ("sim_overhead_s", "s"),
        ("step_p50_ms", "ms"), ("step_p99_ms", "ms"),
    ),
    "serving.plan_cache": (
        ("plan_cache_hit_rate", "fraction"), ("cross_step_reuse", "fraction"),
        ("wrapper_plans", "count"), ("plans_computed", "count"),
    ),
    "core.scheduler": (("work_items_mean", "count"), ("load_balance_mean", "fraction")),
    "gpu": (("flops_costmodel", "flop"), ("hbm_bytes_costmodel", "B")),
    "faults.recover": (("kv_used_pages_peak", "count"),),
    "kvcache.radix": (("hit_token_frac", "fraction"),),
    "sparse.composable": (("cascade_steps", "count"), ("cascade_hbm_bytes_saved", "B")),
}


def metric_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out.extend((f"{layer}.{m}", u) for m, u in _TIMES)
    out.append((f"{UNATTRIBUTED}.self_s", "s"))
    out.append(("tracer.hook_s", "s"))
    for layer, extras in EXTRAS.items():
        out.extend((f"{layer}.{m}", u) for m, u in extras)
    out.append(("tracing_overhead", "ratio"))
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: LayerTracer, engine, cm) -> Dict[str, dict]:
    """All :func:`metric_units` values except ``tracing_overhead``."""
    s = cm.summary()
    c = tracer.counters
    v: Dict[str, float] = {}
    for layer, row in tracer.layer_times().items():
        for m, _ in _TIMES:
            v[f"{layer}.{m}"] = row[m]
    v["tracer.hook_s"] = tracer.overhead_s

    for key in ("handoff_pages", "handoff_bytes", "handoff_retries", "handoff_transfer_s"):
        v[f"cluster.disagg.{key}"] = s.get(key, 0.0)
    tokens = [m.total_output_tokens for m in cm.replicas]
    v["cluster.router.replica_token_imbalance"] = _ratio(max(tokens), float(np.mean(tokens)))
    v["cluster.tp.link_allreduce_bytes"] = s.get("link_all_reduce_bytes", 0.0)
    v["cluster.tp.link_utilization"] = s.get("link_utilization", 0.0)

    for name, key in (
        ("admitted", "overload_admitted"), ("rejected", "overload_rejected"),
        ("retries", "overload_retries"), ("dropped", "overload_dropped"),
        ("hedged_prefills", "hedged_prefills"),
        ("breaker_open_total", "breaker_open_total"),
        ("brownout_peak_level", "brownout_peak_level"),
    ):
        v[f"serving.overload.{name}"] = s.get(key, 0.0)

    v["serving.admission.preemptions"] = s["cluster_preemptions"]
    v["serving.admission.admission_pressure_mean"] = _ratio(
        c["serving.admission.pressure_sum"], c["serving.admission.samples"]
    )

    events = [e for tr in engine.tracers for e in tr.events if e.kind != "idle"]
    for kind in ("prefill", "decode", "mixed", "resume"):
        v[f"serving.batching.steps_{kind}"] = float(sum(e.kind == kind for e in events))
    steps = c["serving.batching.steps"]
    v["serving.batching.tokens_per_step_mean"] = _ratio(c["serving.batching.tokens"], steps)
    v["serving.batching.streams_per_step_mean"] = _ratio(c["serving.batching.streams"], steps)

    engine_s = sum(
        end - start for entry, start, end, _, _ in tracer.spans
        if entry.startswith("repro.serving.engine:")
    )
    v["serving.executor.host_ms_per_step"] = 1e3 * _ratio(engine_s, len(events))

    for comp in ("attention", "gemm", "allreduce", "lm_head", "overhead"):
        v[f"serving.backends.sim_{comp}_s"] = float(
            sum(e.breakdown.get(comp, 0.0) for e in events)
        )
    durations = np.asarray([e.duration for e in events]) if events else np.zeros(1)
    v["serving.backends.step_p50_ms"] = 1e3 * float(np.percentile(durations, 50))
    v["serving.backends.step_p99_ms"] = 1e3 * float(np.percentile(durations, 99))

    hits = sum((m.plan_cache_stats or {}).get("plan_cache_hits", 0.0) for m in cm.replicas)
    misses = sum((m.plan_cache_stats or {}).get("plan_cache_misses", 0.0) for m in cm.replicas)
    wrapper_plans = tracer.calls("repro.core.wrapper:BatchAttentionWrapper.plan")
    computed = tracer.calls("repro.core.wrapper:plan_schedule")
    v["serving.plan_cache.plan_cache_hit_rate"] = _ratio(hits, hits + misses)
    v["serving.plan_cache.cross_step_reuse"] = 1.0 - _ratio(computed, wrapper_plans)
    v["serving.plan_cache.wrapper_plans"] = float(wrapper_plans)
    v["serving.plan_cache.plans_computed"] = float(computed)

    v["core.scheduler.work_items_mean"] = _ratio(c["core.scheduler.work_items"], computed)
    v["core.scheduler.load_balance_mean"] = _ratio(c["core.scheduler.load_balance"], computed)
    v["gpu.flops_costmodel"] = c["gpu.flops"]
    v["gpu.hbm_bytes_costmodel"] = c["gpu.bytes"]
    v["faults.recover.kv_used_pages_peak"] = c["faults.recover.kv_used_pages_peak"]
    v["kvcache.radix.hit_token_frac"] = _ratio(
        c["kvcache.radix.hit_tokens"], c["kvcache.radix.lookup_tokens"]
    )
    v["sparse.composable.cascade_steps"] = s.get("cluster_cascade_steps", 0.0)
    v["sparse.composable.cascade_hbm_bytes_saved"] = s.get("cluster_cascade_bytes_saved", 0.0)

    return {
        name: {"value": float(v[name]), "unit": unit}
        for name, unit in metric_units() if name in v
    }
