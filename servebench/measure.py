"""End-to-end metrics of one cluster run, on the simulated clock.

Every latency is measured from the request's original arrival in the
generated workload, so front-door retries, hedges, handoff waits and
holds all count against it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from oracle import StreamCheck
from workloads import SLO_ITL_P95_S, SLO_TTFT_S

#: ``name -> unit`` of every simulated-clock end-to-end metric.
SIM_METRICS = {
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_p999_ms": "ms",
    "throughput_tok_s": "tok/s",
    "slo_attainment": "fraction",
    "completed_frac": "fraction",
}


def _gaps(tr) -> np.ndarray:
    return np.diff([tr.first_token_time, *tr.token_times])


def sim_metrics(cm, requests, check: StreamCheck) -> Dict[str, float]:
    """The simulated-clock metrics of :data:`SIM_METRICS`."""
    arrival = {r.rid: r.arrival for r in requests}
    ttfts = []
    itls = []
    meets = {}
    for (rid, _gen), tr in check.completed.items():
        ttft = tr.first_token_time - arrival[rid]
        gaps = _gaps(tr)
        ttfts.append(ttft)
        itls.append(gaps)
        own_p95 = float(np.percentile(gaps, 95)) if gaps.size else 0.0
        ok = ttft <= SLO_TTFT_S and own_p95 <= SLO_ITL_P95_S
        meets[rid] = meets.get(rid, True) and ok
    done = {}
    for rid, _gen in check.completed:
        done[rid] = done.get(rid, 0) + 1
    # A request meets the SLO only when every one of its streams completed
    # token-exact and met both limits.
    met = sum(
        1 for r in requests if done.get(r.rid, 0) == r.n and meets.get(r.rid)
    )
    ttft = np.asarray(ttfts)
    itl = np.concatenate(itls) if itls else np.empty(0)
    return {
        "ttft_p50_ms": 1e3 * float(np.percentile(ttft, 50)),
        "ttft_p90_ms": 1e3 * float(np.percentile(ttft, 90)),
        "itl_p50_ms": 1e3 * float(np.percentile(itl, 50)),
        "itl_p999_ms": 1e3 * float(np.percentile(itl, 99.9)),
        "throughput_tok_s": cm.throughput_tokens_per_s(),
        "slo_attainment": met / len(requests),
        "completed_frac": len(check.completed) / check.sent,
    }
