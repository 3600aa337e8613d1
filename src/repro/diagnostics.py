"""Human-readable diagnostics for plans and simulated executions.

Serving operators debug load-balance problems by *looking* at them; this
module renders schedule plans and simulation reports as text — per-CTA
load histograms, work-item tables, utilization summaries — used by the
examples and the CLI (``python -m repro``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.scheduler import SchedulePlan
from repro.gpu.executor import SimReport
from repro.gpu.spec import GPUSpec

_BAR = "█"
_BAR_WIDTH = 40


def format_report(report: SimReport, spec: Optional[GPUSpec] = None) -> str:
    """One-paragraph summary of a simulated kernel execution."""
    lines = [
        f"makespan      : {report.makespan * 1e6:10.2f} µs",
        f"work tiles    : {report.num_tiles:10d} over {report.num_ctas} CTAs",
        f"useful FLOPs  : {report.total_flops:10.3e}",
        f"traffic       : {report.total_bytes / 1e6:10.2f} MB",
        f"CTA balance   : {report.balance:10.2f}  (mean/max busy time)",
    ]
    if spec is not None:
        lines += [
            f"bandwidth     : {report.achieved_bandwidth() / 1e9:10.1f} GB/s "
            f"({report.bandwidth_utilization(spec):.0%} of {spec.name} peak)",
            f"compute       : {report.achieved_flops() / 1e12:10.2f} TFLOP/s "
            f"({report.flops_utilization(spec):.0%} of peak)",
        ]
    return "\n".join(lines)


def format_plan_load(plan: SchedulePlan, buckets: int = 16) -> str:
    """ASCII histogram of the *modelled* per-CTA cost of a plan
    (Algorithm 1's α·l_q + β·l_kv weights)."""
    costs = plan.cta_costs()
    if costs.size == 0 or costs.max() <= 0:
        return "(empty plan)"
    lines = []
    group = max(1, -(-costs.size // buckets))
    peak = costs.max()
    for start in range(0, costs.size, group):
        seg = costs[start : start + group]
        bar = _BAR * max(int(round(float(seg.mean()) / peak * _BAR_WIDTH)), 0)
        lines.append(
            f"CTA {start:4d}-{min(start + group, costs.size) - 1:4d} "
            f"|{bar:<{_BAR_WIDTH}}| cost {seg.mean():10.0f}"
        )
    return "\n".join(lines)


def format_cta_load(report: SimReport, buckets: int = 16) -> str:
    """ASCII histogram of per-CTA busy time (load-balance at a glance)."""
    busy = np.asarray(report.per_cta_time, dtype=np.float64)
    if busy.size == 0:
        return "(per-CTA times unavailable — combined report; see format_plan_load)"
    peak = busy.max()
    if peak <= 0:
        return "(all CTAs idle)"
    lines = []
    group = max(1, -(-busy.size // buckets))
    for start in range(0, busy.size, group):
        seg = busy[start : start + group]
        frac = float(seg.mean()) / peak
        bar = _BAR * max(int(round(frac * _BAR_WIDTH)), 0)
        lines.append(
            f"CTA {start:4d}-{min(start + group, busy.size) - 1:4d} "
            f"|{bar:<{_BAR_WIDTH}}| {seg.mean() * 1e6:8.2f} µs"
        )
    return "\n".join(lines)


def format_step_events(events, max_rows: int = 20) -> str:
    """Tabular view of a traced serving run's :class:`repro.obs.StepEvent`
    list: per-step kind, duration, tokens, dominant component, KV pressure."""
    header = (
        "  step  kind     dur(ms)  pf_tok  dc_tok  strm   attn%  gemm%  "
        "kv_used  pre"
    )
    rows = [header]
    shown = 0
    for ev in events:
        if shown >= max_rows:
            break
        if ev.kind == "idle":
            rows.append(
                f"  {ev.index:4d}  {'idle':<7s} {ev.duration * 1e3:7.3f}"
                + " " * 45
            )
            shown += 1
            continue
        dur = ev.duration or 1.0
        rows.append(
            f"  {ev.index:4d}  {ev.kind:<7s} {ev.duration * 1e3:7.3f} "
            f"{ev.num_prefill_tokens:7d} {ev.num_decode_tokens:7d} "
            f"{ev.num_streams:5d} {ev.component('attention') / dur:6.1%} "
            f"{ev.component('gemm') / dur:6.1%} {ev.kv_used_pages:8d} "
            f"{ev.preemptions:4d}"
        )
        shown += 1
    total = len(events) if hasattr(events, "__len__") else shown
    if shown < total:
        rows.append(f"  ... ({total - shown} more)")
    return "\n".join(rows)


def format_plan(plan: SchedulePlan, max_rows: int = 12) -> str:
    """Tabular view of a schedule plan: chunking, splits, merge fan-in."""
    items = [w for q in plan.cta_queues for w in q]
    n_split = sum(1 for w in items if w.partial_slot >= 0)
    header = [
        f"work items    : {len(items)} "
        f"({n_split} split → {plan.num_partial_slots} partial slots, "
        f"{len(items) - n_split} writethrough)",
        f"query tile    : {plan.q_tile_size} rows; KV chunk ≤ {plan.kv_chunk_size}",
        f"merge entries : {len(plan.merges)} "
        f"(fan-in ≤ {max((len(m.slots) for m in plan.merges), default=0)})",
        f"modelled balance: {plan.load_balance:.2f}",
    ]
    rows = ["  cta  group  qtile  q_rows  kv_range          slot"]
    shown = 0
    for cta, queue in enumerate(plan.cta_queues):
        if shown >= max_rows:
            break
        for w in queue:
            if shown >= max_rows:
                break
            slot = "write" if w.partial_slot < 0 else f"p{w.partial_slot}"
            rows.append(
                f"  {cta:4d} {w.group:6d} {w.q_tile:6d} {w.q_rows:7d} "
                f"[{w.kv_start:6d},{w.kv_stop:6d}) {slot:>8}"
            )
            shown += 1
    if shown < len(items):
        rows.append(f"  ... ({len(items) - shown} more)")
    return "\n".join(header + rows)
