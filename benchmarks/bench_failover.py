"""Failover recovery sweep: detection + migration cost per failure mode.

Not a pytest benchmark (no ``test_`` prefix): this is the perf-trajectory
harness for the failover subsystem.  It runs one fixed ShareGPT-like
workload on a dp=2 cluster, kills (or drains) replica 0 mid-run under
each failure scenario in the sweep, verifies token-exactness against the
single-GPU reference (``tokens_lost`` must be 0 — failover's whole
contract), and appends one timestamped record with recovery time,
detection time and migration traffic to ``BENCH_failover.json`` at the
repo root so successive commits build a recovery-latency trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_failover.py
    PYTHONPATH=src python benchmarks/bench_failover.py --requests 24 --rate 150
"""

from __future__ import annotations

import argparse

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    FailoverConfig,
    ReplicaFailure,
    expected_tokens,
)
from repro.faults import FaultPlan
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, sharegpt_workload

from harness import append_record, default_output

#: (label, failure mode, failure step, link fault schedule).
SWEEP = [
    ("crash-early", "crash", 4, ()),
    ("crash-late", "crash", 10, ()),
    ("drain", "drain", 6, ()),
    ("crash-faulty-link", "crash", 6, (0, 1)),
]

DEFAULT_OUTPUT = default_output("failover")


def run_sweep(requests, rate, seed, topology):
    model = LLAMA_3_1_8B
    workload = sharegpt_workload(requests, rate, seed=seed)
    reference = ClusterEngine(model, H100_80G, ClusterConfig()).run_reference(
        workload
    )
    expected = expected_tokens(reference)
    # No-failure baseline at the same shape: the makespan delta is the
    # end-to-end cost of the failure.
    baseline = ClusterEngine(
        model, H100_80G,
        ClusterConfig(tp=1, dp=2, topology=topology, router="least-loaded",
                      engine=EngineConfig(max_running=256)),
    ).run(workload)
    rows = []
    for label, mode, step, link_faults in SWEEP:
        cluster = ClusterEngine(
            model, H100_80G,
            ClusterConfig(
                tp=1, dp=2, topology=topology, router="least-loaded",
                engine=EngineConfig(max_running=256),
                failover=FailoverConfig(),
            ),
            replica_failures={0: ReplicaFailure(step, mode)},
            fault_plan=(
                FaultPlan(schedules={"link": link_faults})
                if link_faults else None
            ),
        )
        cm = cluster.run(workload)
        divergent, compared = cm.token_divergence(expected)
        s = cm.summary()
        rows.append({
            "scenario": label,
            "mode": mode,
            "fail_step": step,
            "detect_s": round(s["failover_detect_s"], 6),
            "recovery_s": round(s["failover_recovery_s"], 6),
            "makespan_s": round(cm.total_time, 6),
            "makespan_overhead_s": round(
                cm.total_time - baseline.total_time, 6
            ),
            "migration_pages": int(s["migration_pages"]),
            "migration_bytes": s["migration_bytes"],
            "migration_chunks": int(s["migration_chunks"]),
            "migration_retries": int(s["migration_retries"]),
            "inflight_migrated": int(s["failover_inflight_migrated"]),
            "fallbacks": int(s["failover_fallbacks"]),
            # The contract: a failover never loses a token.
            "tokens_lost": divergent,
            "streams_compared": compared,
        })
        r = rows[-1]
        print(
            f"  {label:18s}: detect {r['detect_s'] * 1e3:6.1f} ms, "
            f"recover {r['recovery_s'] * 1e3:6.1f} ms, "
            f"{r['migration_pages']:3d} pages / "
            f"{r['migration_bytes'] / 1e6:6.2f} MB migrated "
            f"({r['migration_retries']} retries), "
            f"tokens_lost {r['tokens_lost']}/{r['streams_compared']}"
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=16)
    ap.add_argument("--rate", type=float, default=120.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--topology", default="nvlink")
    ap.add_argument("--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args()

    print(
        f"failover sweep: {args.requests} requests at {args.rate} req/s, "
        f"dp=2 least-loaded, {args.topology} topology"
    )
    rows = run_sweep(args.requests, args.rate, args.seed, args.topology)
    append_record(args.output, {
        "requests": args.requests, "rate": args.rate, "seed": args.seed,
        "topology": args.topology, "model": "llama-3.1-8b",
    }, rows)
    return 0 if all(r["tokens_lost"] == 0 for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
