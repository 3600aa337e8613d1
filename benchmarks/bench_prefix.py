"""Prefix-cache sweep: cold vs warm prefill work on a shared-prefix workload.

Not a pytest benchmark (no ``test_`` prefix): this is the perf-trajectory
harness for the radix prefix cache + cascade attention path.  It runs one
fixed shared-prefix workload (>70% of prompt tokens shared) through every
(tp, dp) in the sweep, twice per shape — cold cache vs warm (radix cache +
cascade, cache-aware router) — verifies both against the cold single-GPU
token oracle, and appends one timestamped record to ``BENCH_prefix.json``
at the repo root so successive commits build a savings trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_prefix.py
    PYTHONPATH=src python benchmarks/bench_prefix.py --requests 32 --rate 80
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.cluster import ClusterConfig, ClusterEngine, expected_tokens
from repro.gpu import H100_80G
from repro.serving import EngineConfig, LLAMA_3_1_8B, shared_prefix_workload

from harness import append_record, default_output

SWEEP = [(tp, dp) for tp in (1, 2) for dp in (1, 2)]

DEFAULT_OUTPUT = default_output("prefix")


def prefill_flops(model, tokens: int) -> float:
    """GEMM FLOPs to prefill ``tokens`` prompt tokens (tp-independent)."""
    return model.num_layers * model.layer_gemm_flops(tokens)


def run_sweep(requests, rate, seed, router, topology):
    model = LLAMA_3_1_8B
    workload = shared_prefix_workload(requests, rate, seed=seed)
    total_prompt = sum(r.prompt_len for r in workload)
    shared = sum(r.prefix_len for r in workload)
    print(
        f"  workload: {total_prompt} prompt tokens, "
        f"{shared / total_prompt:.0%} inside a shared prefix"
    )
    warm_engine = EngineConfig(
        max_running=256, chunked_prefill=True, prefix_cache=True,
        composable=True,
    )
    cold_engine = dataclasses.replace(
        warm_engine, prefix_cache=False, composable=False
    )
    oracle = expected_tokens(
        ClusterEngine.from_config(
            ClusterConfig(engine=cold_engine), model=model, gpu=H100_80G
        ).run_reference(workload)
    )
    rows = []
    for tp, dp in SWEEP:
        out = {"tp": tp, "dp": dp, "world": tp * dp}
        for mode, engine_cfg in (("cold", cold_engine), ("warm", warm_engine)):
            cluster = ClusterEngine.from_config(
                ClusterConfig(tp=tp, dp=dp, topology=topology, router=router,
                              engine=engine_cfg),
                model=model, gpu=H100_80G,
            )
            cm = cluster.run(workload)
            divergent, compared = cm.token_divergence(oracle)
            s = cm.summary()
            hit = int(s.get("cluster_radix_hit_tokens", 0))
            out[mode] = {
                "makespan_s": round(cm.total_time, 6),
                "throughput_tok_s": round(cm.throughput_tokens_per_s(), 2),
                "prefill_tokens": total_prompt - hit,
                "prefill_flops": prefill_flops(model, total_prompt - hit),
                "radix_hit_tokens": hit,
                "cascade_steps": int(s.get("cluster_cascade_steps", 0)),
                "cascade_hbm_bytes_saved": s.get(
                    "cluster_cascade_bytes_saved", 0.0
                ),
                "token_divergence": divergent,
                "streams_compared": compared,
            }
        cold, warm = out["cold"], out["warm"]
        out["prefill_flops_saved"] = (
            cold["prefill_flops"] - warm["prefill_flops"]
        )
        out["hbm_bytes_saved"] = warm["cascade_hbm_bytes_saved"]
        rows.append(out)
        print(
            f"  tp={tp} dp={dp}: warm {warm['throughput_tok_s']:8.1f} tok/s "
            f"vs cold {cold['throughput_tok_s']:8.1f}, "
            f"hit {warm['radix_hit_tokens']}/{total_prompt} tokens, "
            f"flops saved {out['prefill_flops_saved']:.3e}, "
            f"divergence {cold['token_divergence'] + warm['token_divergence']}"
            f"/{cold['streams_compared'] + warm['streams_compared']}"
        )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=24)
    ap.add_argument("--rate", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--router", default="cache-aware")
    ap.add_argument("--topology", default="nvlink")
    ap.add_argument("--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args()

    print(
        f"prefix-cache sweep: {args.requests} shared-prefix requests at "
        f"{args.rate} req/s, {args.router} router, {args.topology} topology"
    )
    rows = run_sweep(args.requests, args.rate, args.seed, args.router,
                     args.topology)
    append_record(args.output, {
        "requests": args.requests, "rate": args.rate, "seed": args.seed,
        "router": args.router, "topology": args.topology,
        "model": "llama-3.1-8b",
    }, rows)
    ok = all(
        r["cold"]["token_divergence"] == 0
        and r["warm"]["token_divergence"] == 0
        and r["warm"]["radix_hit_tokens"] > 0
        and r["prefill_flops_saved"] > 0
        for r in rows
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
