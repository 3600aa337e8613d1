"""Disaggregation sweep: colocated vs prefill/decode-split serving.

Not a pytest benchmark (no ``test_`` prefix): this is the perf-trajectory
harness for the disaggregated-serving subsystem.  It runs one fixed mixed
workload — a minority of long prompts with short outputs interleaved with
chatty short-prompt/long-output requests — on a 2-replica cluster twice:
colocated (both replicas serve prefill and decode, least-loaded routing)
and disaggregated (``prefill=1,decode=1`` with live KV handoff over
priced links).  Both arms must stay token-exact against the single-GPU
reference (``tokens_lost`` must be 0), the chatty requests' ITL p95 must
improve under disaggregation (the headline interference-isolation win),
and one timestamped record with per-class latencies and handoff traffic
is appended to ``BENCH_disagg.json`` at the repo root so successive
commits build a trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_disagg.py
    PYTHONPATH=src python benchmarks/bench_disagg.py --requests 48 --rate 60
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cluster import (
    ClusterConfig,
    ClusterEngine,
    expected_tokens,
)
from repro.gpu import H100_80G
from repro.serving import (
    MIXED_LONG_PROMPT_THRESHOLD,
    EngineConfig,
    LLAMA_3_1_8B,
    mixed_disagg_workload,
)

from harness import append_record, default_output

DEFAULT_OUTPUT = default_output("disagg")


def class_latencies(cm) -> dict:
    """Per-class (chatty vs long-prompt) latency roll-up for one run.

    Class membership is recoverable from the prompt length alone — the
    workload generator keeps chatty prompts strictly below
    ``MIXED_LONG_PROMPT_THRESHOLD`` and long prompts at or above it.
    """
    itls = {"chatty": [], "long": []}
    ttfts = {"chatty": [], "long": []}
    for reqs, metrics in zip(cm.replica_requests, cm.replicas):
        for tr in metrics.traces:
            if tr.req_id < 0:
                continue
            klass = (
                "chatty"
                if reqs[tr.req_id].prompt_len < MIXED_LONG_PROMPT_THRESHOLD
                else "long"
            )
            itls[klass].extend(tr.itls.tolist())
            ttfts[klass].append(tr.ttft)
    out = {}
    for klass in ("chatty", "long"):
        out[f"{klass}_itl_p95_s"] = round(
            float(np.percentile(itls[klass], 95)) if itls[klass] else float("nan"), 6
        )
        out[f"{klass}_ttft_p95_s"] = round(
            float(np.percentile(ttfts[klass], 95)) if ttfts[klass] else float("nan"), 6
        )
        out[f"{klass}_streams"] = len(ttfts[klass])
    return out


def run_arm(label, workload, expected, cfg, **engine_kwargs) -> dict:
    cm = ClusterEngine(LLAMA_3_1_8B, H100_80G, cfg, **engine_kwargs).run(workload)
    divergent, compared = cm.token_divergence(expected)
    s = cm.summary()
    row = {"arm": label, "makespan_s": round(cm.total_time, 6)}
    row.update(class_latencies(cm))
    row.update({
        "cluster_itl_p95_s": round(s["cluster_p95_itl"], 6),
        "cluster_ttft_p95_s": round(s["cluster_p95_ttft"], 6),
        "tokens_lost": divergent,
        "streams_compared": compared,
    })
    if "handoff_requests" in s:
        row.update({
            "handoff_requests": int(s["handoff_requests"]),
            "handoff_pages": int(s["handoff_pages"]),
            "handoff_bytes": s["handoff_bytes"],
            "handoff_chunks": int(s["handoff_chunks"]),
            "handoff_retries": int(s["handoff_retries"]),
            "link_handoff_bytes": s.get("link_handoff_bytes", 0.0),
        })
    print(
        f"  {label:12s}: chatty ITL p95 {row['chatty_itl_p95_s'] * 1e3:6.2f} ms, "
        f"chatty TTFT p95 {row['chatty_ttft_p95_s'] * 1e3:6.1f} ms, "
        f"long TTFT p95 {row['long_ttft_p95_s'] * 1e3:6.1f} ms, "
        f"makespan {row['makespan_s'] * 1e3:7.1f} ms, "
        f"tokens_lost {row['tokens_lost']}/{row['streams_compared']}"
    )
    return row


def run_sweep(requests, rate, seed, topology) -> list:
    workload = mixed_disagg_workload(requests, rate, seed=seed)
    reference = ClusterEngine(
        LLAMA_3_1_8B, H100_80G, ClusterConfig()
    ).run_reference(workload)
    expected = expected_tokens(reference)
    # Both arms run the identical engine config; the only delta is the
    # role split, so the per-class latency delta is pure interference
    # isolation (plus the handoff wire cost disagg pays for it).
    engine = EngineConfig(max_running=256, chunked_prefill=True, composable=True)
    rows = [
        run_arm(
            "colocated", workload, expected,
            ClusterConfig(tp=1, dp=2, topology=topology,
                          router="least-loaded", engine=engine),
        ),
        run_arm(
            "disagg", workload, expected,
            ClusterConfig(tp=1, dp=2, topology=topology,
                          roles="prefill=1,decode=1", engine=engine),
        ),
    ]
    colocated, disagg = rows
    improved = disagg["chatty_itl_p95_s"] < colocated["chatty_itl_p95_s"]
    disagg["chatty_itl_p95_improved"] = improved
    disagg["chatty_itl_p95_delta_s"] = round(
        colocated["chatty_itl_p95_s"] - disagg["chatty_itl_p95_s"], 6
    )
    print(
        f"  chatty ITL p95: {colocated['chatty_itl_p95_s'] * 1e3:.2f} ms "
        f"colocated -> {disagg['chatty_itl_p95_s'] * 1e3:.2f} ms disagg "
        f"({'improved' if improved else 'REGRESSED'})"
    )
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=32)
    ap.add_argument("--rate", type=float, default=80.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--topology", default="nvlink")
    ap.add_argument("--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args()

    print(
        f"disagg sweep: {args.requests} mixed requests at {args.rate} req/s, "
        f"dp=2 (colocated least-loaded vs prefill=1,decode=1), "
        f"{args.topology} topology"
    )
    rows = run_sweep(args.requests, args.rate, args.seed, args.topology)
    append_record(args.output, {
        "requests": args.requests, "rate": args.rate, "seed": args.seed,
        "topology": args.topology, "model": "llama-3.1-8b",
    }, rows)
    ok = (
        all(r["tokens_lost"] == 0 for r in rows)
        and rows[1]["chatty_itl_p95_improved"]
        and rows[1]["handoff_requests"] > 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
