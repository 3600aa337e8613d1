"""Cluster scaling sweep: tp x dp throughput on a fixed workload.

Not a pytest benchmark (no ``test_`` prefix): this is the perf-trajectory
harness.  It runs one fixed ShareGPT-like workload through every
(tp, dp) in the sweep, verifies token-exactness against the single-GPU
reference for every shape, and appends one timestamped record to
``BENCH_cluster.json`` at the repo root so successive commits build a
throughput trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --requests 32 --rate 200
"""

from __future__ import annotations

import argparse

from repro.cluster import ClusterConfig, ClusterEngine, expected_tokens
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, sharegpt_workload

from harness import append_record, default_output

SWEEP = [(tp, dp) for tp in (1, 2, 4) for dp in (1, 2)]

DEFAULT_OUTPUT = default_output("cluster")


def run_sweep(requests, rate, seed, router, topology):
    model = LLAMA_3_1_8B
    workload = sharegpt_workload(requests, rate, seed=seed)
    reference = ClusterEngine(model, H100_80G, ClusterConfig()).run_reference(
        workload
    )
    expected = expected_tokens(reference)
    rows = []
    for tp, dp in SWEEP:
        cluster = ClusterEngine(
            model, H100_80G,
            ClusterConfig(
                tp=tp, dp=dp, topology=topology, router=router,
                engine=EngineConfig(max_running=256),
            ),
        )
        cm = cluster.run(workload)
        divergent, compared = cm.token_divergence(expected)
        s = cm.summary()
        rows.append({
            "tp": tp,
            "dp": dp,
            "world": tp * dp,
            "makespan_s": round(cm.total_time, 6),
            "throughput_tok_s": round(cm.throughput_tokens_per_s(), 2),
            "output_tokens": int(s["cluster_output_tokens"]),
            "link_bytes": s.get("link_bytes", 0.0),
            "link_utilization": round(s.get("link_utilization", 0.0), 4),
            "token_divergence": divergent,
            "streams_compared": compared,
        })
        print(
            f"  tp={tp} dp={dp}: {rows[-1]['throughput_tok_s']:9.1f} tok/s, "
            f"makespan {rows[-1]['makespan_s'] * 1e3:8.1f} ms, "
            f"divergence {divergent}/{compared}"
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=24)
    ap.add_argument("--rate", type=float, default=200.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--router", default="least-loaded")
    ap.add_argument("--topology", default="nvlink")
    ap.add_argument("--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args()

    print(
        f"cluster sweep: {args.requests} requests at {args.rate} req/s, "
        f"{args.router} router, {args.topology} topology"
    )
    rows = run_sweep(args.requests, args.rate, args.seed, args.router,
                     args.topology)
    append_record(args.output, {
        "requests": args.requests, "rate": args.rate, "seed": args.seed,
        "router": args.router, "topology": args.topology,
        "model": "llama-3.1-8b",
    }, rows)
    return 0 if all(r["token_divergence"] == 0 for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
