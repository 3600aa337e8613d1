"""The benchmark's four open-loop serving workloads.

Each workload is a seeded request generator from ``repro.serving`` plus
one fixed cluster shape.  Arrivals are seeded Poisson (or bursty)
schedules on the simulated clock and the program under test receives
only the generated request list, so generator lateness is zero by
construction: no request can be sent late because of a slow simulator.

Two choices keep the figures steady from seed to seed without a larger
(slower) workload:

* a fixed request count in a fixed window of simulated time
  (:func:`_fit_window`), so neither the amount of traffic nor the
  simulated span the host must step through varies with the seed;
* a fixed set of request bodies replayed under each seed's arrival
  schedule and order (:func:`_replay`), the way a serving benchmark
  replays one dataset.

ShareGPT-like answers are capped at a client ``max_tokens`` so that one
2k-token answer cannot set the makespan alone.

Nothing here imports ``repro`` at module load: the set-up timer in
``run.py`` must see the package import.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict

#: Every workload sends at least this many requests, so the p90 of time
#: to first token has at least ten samples beyond it.
MIN_REQUESTS = 100

#: Seed of the fixed request bodies every seed replays (see :func:`_replay`).
DATASET_SEED = 0

#: SLO limits used by ``slo_attainment``.
SLO_TTFT_S = 0.250
SLO_ITL_P95_S = 0.015


def _fit_window(requests: list, count: int, seconds: float) -> list:
    """The first ``count`` requests, arrivals rescaled onto ``[0, seconds)``.

    Scaling by ``seconds / t`` where ``t`` is the arrival of request
    ``count + 1`` keeps the process shape: for a Poisson process the
    result is exactly the process conditioned on ``count`` arrivals in
    the window.  Request count and simulated span then no longer vary
    with the seed, only the order, spacing and sizes of requests do.
    """
    ordered = sorted(requests, key=lambda r: r.arrival)
    if len(ordered) <= count:
        raise ValueError(f"need {count + 1} generated requests, got {len(ordered)}")
    scale = seconds / ordered[count].arrival
    return [
        dataclasses.replace(r, arrival=r.arrival * scale) for r in ordered[:count]
    ]


def _replay(generate: Callable[[int], list], count: int, seconds: float,
            seed: int) -> list:
    """A fixed request set re-timed and shuffled by ``seed``.

    Request bodies (lengths, prefix groups, tenants) come from one fixed
    draw of the generator, the way a serving benchmark replays a fixed
    dataset; ``seed`` draws the arrival schedule and which request takes
    which arrival slot.  The work per run then does not vary with the
    seed, only its timing and order do.
    """
    import numpy as np

    bodies = sorted(generate(DATASET_SEED), key=lambda r: r.arrival)[:count]
    times = [r.arrival for r in _fit_window(generate(seed), count, seconds)]
    order = np.random.default_rng(seed).permutation(count)
    return [
        dataclasses.replace(bodies[i], arrival=t) for i, t in zip(order, times)
    ]


def _cap_output(requests: list, max_tokens: int) -> list:
    return [
        dataclasses.replace(r, output_len=max_tokens)
        if r.output_len > max_tokens else r
        for r in requests
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``seed -> [Request]``: the generated open-loop traffic.
    generate: Callable[[int], list]
    #: ``(seed, trace) -> ClusterEngine``: a fresh engine for one run.
    build: Callable[[int, bool], object]
    #: One-line description of rate, window and cluster shape.
    shape: str


# -- chat ----------------------------------------------------------------------

CHAT_REQUESTS = 120
CHAT_WINDOW_S = 2.72
CHAT_MAX_TOKENS = 256


def _chat_requests(seed: int) -> list:
    from repro.serving import sharegpt_workload

    rate = CHAT_REQUESTS / CHAT_WINDOW_S
    reqs = _replay(
        lambda s: sharegpt_workload(CHAT_REQUESTS + 1, rate, seed=s),
        CHAT_REQUESTS, CHAT_WINDOW_S, seed,
    )
    return _cap_output(reqs, CHAT_MAX_TOKENS)


def _chat_engine(seed: int, trace: bool):
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.serving import EngineConfig

    cfg = ClusterConfig(
        tp=1, dp=2, router="least-loaded",
        engine=EngineConfig(chunked_prefill=True, max_running=32),
    )
    return ClusterEngine.from_config(cfg, trace=trace)


# -- prefix --------------------------------------------------------------------

PREFIX_REQUESTS = 220
PREFIX_WINDOW_S = 5.5


def _prefix_requests(seed: int) -> list:
    from repro.serving import shared_prefix_workload

    rate = PREFIX_REQUESTS / PREFIX_WINDOW_S
    return _replay(
        lambda s: shared_prefix_workload(
            PREFIX_REQUESTS + 1, rate, seed=s, num_groups=3, prefix_len=2048
        ),
        PREFIX_REQUESTS, PREFIX_WINDOW_S, seed,
    )


def _prefix_engine(seed: int, trace: bool):
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.serving import EngineConfig

    cfg = ClusterConfig(
        tp=2, dp=2, router="cache-aware",
        engine=EngineConfig(
            prefix_cache=True, composable=True, chunked_prefill=True
        ),
    )
    return ClusterEngine.from_config(cfg, trace=trace)


# -- disagg --------------------------------------------------------------------

DISAGG_REQUESTS = 130
DISAGG_WINDOW_S = 8.5
DISAGG_CHUNK = 512
DISAGG_CHATTY = 0.85


def _disagg_requests(seed: int) -> list:
    from repro.serving import mixed_disagg_workload

    rate = DISAGG_REQUESTS / DISAGG_WINDOW_S
    return _replay(
        lambda s: mixed_disagg_workload(
            DISAGG_REQUESTS + 1, rate, seed=s, chatty_fraction=DISAGG_CHATTY
        ),
        DISAGG_REQUESTS, DISAGG_WINDOW_S, seed,
    )


def _disagg_engine(seed: int, trace: bool):
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.serving import EngineConfig

    cfg = ClusterConfig(
        dp=2, roles="prefill=1,decode=1",
        engine=EngineConfig(
            chunked_prefill=True, prefill_chunk_size=DISAGG_CHUNK
        ),
    )
    return ClusterEngine.from_config(cfg, trace=trace)


# -- burst ---------------------------------------------------------------------

BURST_REQUESTS = 100
BURST_WINDOW_S = 6.0
#: Base rate before the diurnal swing and the 3x bursts; chosen so the
#: generator's own span for BURST_REQUESTS is close to BURST_WINDOW_S.
BURST_RATE = 11.5
BURST_LEN_S = 0.15
BURST_EVERY_S = 0.3
BURST_MAX_TOKENS = 256
BURST_TENANTS = 4
BURST_RETRY_FACTOR = 2.0
BURST_RETRY_JITTER = 0.5


def _burst_requests(seed: int) -> list:
    from repro.serving import bursty_workload

    reqs = _replay(
        lambda s: bursty_workload(
            BURST_REQUESTS + 1, BURST_RATE, seed=s, tenants=BURST_TENANTS,
            burst=3.0, burst_len=BURST_LEN_S, burst_every=BURST_EVERY_S,
        ),
        BURST_REQUESTS, BURST_WINDOW_S, seed,
    )
    return _cap_output(reqs, BURST_MAX_TOKENS)


def tuned_overload(seed: int):
    """The "tuned" overload policy of ``benchmarks/bench_overload.py``."""
    from repro.cluster.router import BreakerConfig
    from repro.serving.overload import OverloadConfig

    return OverloadConfig(
        tenants=BURST_TENANTS, admit_rate=24.0, burst_capacity=8.0,
        max_client_retries=5, retry_budget=2.0, retry_base=0.08,
        retry_factor=BURST_RETRY_FACTOR, retry_jitter=BURST_RETRY_JITTER,
        seed=seed, slo_ttft=0.4, engage_after=25, anneal_after=60,
        brownout_clamp=32,
        breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                              probe_successes=2, pressure_threshold=0.5),
    )


def _burst_engine(seed: int, trace: bool):
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.faults import FaultPlan
    from repro.serving import EngineConfig

    cfg = ClusterConfig(
        dp=2,
        engine=EngineConfig(
            max_running=16, chunked_prefill=True, composable=True,
            prefill_chunk_size=256,
        ),
        overload=tuned_overload(seed),
    )
    return ClusterEngine.from_config(
        cfg, trace=trace, fault_plan=FaultPlan(seed=seed, timeout_rate=0.08)
    )


#: Why each workload was chosen is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "chat",
            _chat_requests, _chat_engine,
            f"sharegpt_workload, {CHAT_REQUESTS} requests Poisson in "
            f"{CHAT_WINDOW_S:g} s, max_tokens {CHAT_MAX_TOKENS}; tp=1 dp=2 "
            "least-loaded, chunked prefill, max_running=32",
        ),
        Workload(
            "prefix",
            _prefix_requests, _prefix_engine,
            f"shared_prefix_workload, {PREFIX_REQUESTS} requests Poisson in "
            f"{PREFIX_WINDOW_S:g} s; tp=2 dp=2 cache-aware, prefix cache, "
            "composable, chunked prefill",
        ),
        Workload(
            "disagg",
            _disagg_requests, _disagg_engine,
            f"mixed_disagg_workload, {DISAGG_REQUESTS} requests Poisson in "
            f"{DISAGG_WINDOW_S:g} s; dp=2 prefill=1,decode=1, chunked prefill "
            f"in {DISAGG_CHUNK}-token chunks",
        ),
        Workload(
            "burst",
            _burst_requests, _burst_engine,
            f"bursty_workload (4 tenants, 3x bursts), {BURST_REQUESTS} requests "
            f"in {BURST_WINDOW_S:g} s, max_tokens {BURST_MAX_TOKENS}; dp=2, "
            "max_running=16, tuned OverloadConfig, FaultPlan(timeout_rate=0.08)",
        ),
    )
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None
