"""Overload sweep: front door + breakers + brownout vs an unprotected run.

Not a pytest benchmark (no ``test_`` prefix): this is the perf-trajectory
harness for the overload subsystem.  It drives one fixed bursty
multi-tenant workload at a multiple of dp=2 cluster capacity, once
without the overload layer (the control arm) and once per protected
scenario in the sweep, verifies every accepted stream token-exact
against the uncontended single-GPU reference (brownout-clamped streams
must be exact prefixes — ``tokens_lost`` must be 0), and appends one
timestamped record with SLO attainment, admission/breaker/brownout
counters and the attainment delta over the control arm to
``BENCH_overload.json`` at the repo root so successive commits build an
overload-resilience trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_overload.py
    PYTHONPATH=src python benchmarks/bench_overload.py --requests 64 --rate 30
"""

from __future__ import annotations

import argparse

from repro.cluster import ClusterConfig, ClusterEngine, expected_tokens
from repro.cluster.router import BreakerConfig
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, bursty_workload
from repro.serving.overload import (
    OverloadConfig,
    overload_token_divergence,
    slo_attainment,
)

from harness import append_record, default_output

#: (label, overload-config overrides).  The first row is the tuned
#: acceptance scenario (the one ``serve --overload`` runs); the others
#: probe the two big levers — a stricter door and no hedging.
SWEEP = [
    ("tuned", {}),
    ("strict-door", {"admit_rate": 12.0, "burst_capacity": 4.0}),
    ("no-hedge", {"hedge": False}),
]

DEFAULT_OUTPUT = default_output("overload")


def make_overload(seed, tenants, **overrides):
    base = dict(
        tenants=tenants, admit_rate=24.0, burst_capacity=8.0,
        max_client_retries=5, retry_budget=2.0, retry_base=0.08,
        seed=seed, slo_ttft=0.4, engage_after=25, anneal_after=60,
        brownout_clamp=32,
        breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                              probe_successes=2, pressure_threshold=0.5),
    )
    base.update(overrides)
    return OverloadConfig(**base)


def run_sweep(requests, rate, seed, tenants, burst):
    model = LLAMA_3_1_8B
    workload = bursty_workload(
        requests, rate, seed=seed, tenants=tenants, burst=burst,
        burst_len=0.25, burst_every=0.6,
    )
    offered = len(workload)
    engine_cfg = EngineConfig(
        max_running=16, chunked_prefill=True, composable=True,
        prefill_chunk_size=256,
    )
    reference = ClusterEngine(model, H100_80G, ClusterConfig()).run_reference(
        workload
    )
    expected = expected_tokens(reference)
    slo = make_overload(seed, tenants).slo_ttft
    # Control arm: same trace, same engines, no overload layer.
    baseline = ClusterEngine(
        model, H100_80G, ClusterConfig(dp=2, engine=engine_cfg),
    ).run(workload)
    _, base_frac = slo_attainment(baseline, offered, slo)
    print(f"  {'unprotected':12s}: slo_attainment {base_frac:.3f} (control arm)")
    rows = []
    for label, overrides in SWEEP:
        overload = make_overload(seed, tenants, **overrides)
        cluster = ClusterEngine(
            model, H100_80G,
            ClusterConfig(dp=2, engine=engine_cfg, overload=overload),
            fault_plan=FaultPlan(seed=seed, timeout_rate=0.08),
        )
        cm = cluster.run(workload)
        divergent, compared = overload_token_divergence(cm, expected)
        s = cm.summary()
        rows.append({
            "scenario": label,
            "slo_attainment": round(s["slo_attainment"], 6),
            "slo_attainment_baseline": round(base_frac, 6),
            "slo_delta": round(s["slo_attainment"] - base_frac, 6),
            "admitted": int(s["overload_admitted"]),
            "rejected": int(s["overload_rejected"]),
            "retries": int(s["overload_retries"]),
            "dropped": int(s["overload_dropped"]),
            "breaker_opens": int(s["breaker_open_total"]),
            "breaker_closes": int(s["breaker_close_total"]),
            "brownout_peak_level": int(s["brownout_peak_level"]),
            "brownout_final_level": int(s["brownout_final_level"]),
            "hedged": int(s["hedged_prefills"]),
            "hedge_wins": int(s["hedge_wins"]),
            "makespan_s": round(cm.total_time, 6),
            # The contract: an accepted stream never diverges.
            "tokens_lost": divergent,
            "streams_compared": compared,
        })
        r = rows[-1]
        print(
            f"  {label:12s}: slo_attainment {r['slo_attainment']:.3f} "
            f"({r['slo_delta']:+.3f} vs unprotected), "
            f"{r['rejected']} rejected / {r['dropped']} dropped, "
            f"breakers {r['breaker_opens']} open / {r['breaker_closes']} close, "
            f"brownout peak {r['brownout_peak_level']} "
            f"final {r['brownout_final_level']}, "
            f"tokens_lost {r['tokens_lost']}/{r['streams_compared']}"
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=96)
    ap.add_argument("--rate", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--burst", type=float, default=3.0)
    ap.add_argument("--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args()

    print(
        f"overload sweep: {args.requests} bursty requests at "
        f"{args.rate} req/s base rate x {args.burst:g} bursts, "
        f"{args.tenants} tenants, dp=2 round-robin"
    )
    rows = run_sweep(args.requests, args.rate, args.seed, args.tenants,
                     args.burst)
    append_record(args.output, {
        "requests": args.requests, "rate": args.rate, "seed": args.seed,
        "tenants": args.tenants, "burst": args.burst,
        "model": "llama-3.1-8b",
    }, rows)
    return 0 if all(r["tokens_lost"] == 0 for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
