"""Two-clock serving benchmark: host time and simulated latency.

Runs one named workload through the public ``repro.cluster.ClusterEngine``
API in this process, checks every token stream against the analytic
oracle, and prints every metric by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh-process set-ups), host time of ``ClusterEngine.run`` (median of
the runs that fit in ``--seconds``), both rescaled to a reference
machine speed sampled while they run (``speed.py``), peak RSS, and the
simulated-clock latency, throughput and SLO metrics of ``measure.py``.
``--trace 1`` serves the workload once untraced and once under the layer
tracer of ``layers.py`` and reports the per-layer metrics; the spans are
written to ``servebench/out/``.

Usage, from the repository root::

    python3 servebench/run.py --workload chat --seed 1 --seconds 10 --trace 0

The exit code is 0 only when every stream matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (pure Python; imports repro lazily)
from speed import SpeedProbe  # noqa: E402

#: Seconds between machine-speed samples while set-up / a serve runs.
SETUP_PROBE_INTERVAL_S = 0.02
SERVE_PROBE_INTERVAL_S = 0.05

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Requests served once, untimed, before timing (lazy imports, caches).
WARMUP_REQUESTS = 8
SPAN_DIR = os.path.join(HERE, "out")

HOST_METRICS = {"setup_s": "s", "host_s": "s", "host_peak_rss_mb": "MB"}


def _setup_once(name: str, seed: int) -> tuple:
    """Import ``repro``, generate the workload, build the engine.

    numpy is already imported (by the speed probe), so its import is not
    part of the set-up time.  Returns ``(wall seconds, seconds at the reference speed)``.
    """
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
        t0 = time.perf_counter()
        from repro.cluster import assign_rids

        wl = workloads.get(name)
        assign_rids(wl.generate(seed))
        wl.build(seed, False)
        wall = time.perf_counter() - t0
    return wall, probe.normalise(wall)


def _setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, each timing itself."""
    walls, samples = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall, setup = out.stdout.split()[-2:]
        walls.append(float(wall))
        samples.append(float(setup))
    print(f"setup wall s: {' '.join(f'{w:.4f}' for w in walls)}")
    return statistics.median(samples)


def _serve(wl, seed: int, requests, trace: bool = False):
    """One serve under the speed probe: ``(engine, cm, wall_s, probe)``."""
    engine = wl.build(seed, trace)
    with SpeedProbe(SERVE_PROBE_INTERVAL_S) as probe:
        t0 = time.perf_counter()
        cm = engine.run(requests)
        wall = time.perf_counter() - t0
    return engine, cm, wall, probe


def _checked(cm, requests, expected):
    from measure import sim_metrics
    from oracle import check_streams

    check = check_streams(cm, requests, expected)
    return check, sim_metrics(cm, requests, check)


def _streams(check) -> dict:
    return {key: list(tr.tokens) for key, tr in check.completed.items()}


def _report(check, sent: int) -> None:
    print(
        f"requests: sent={sent} succeeded={len(check.completed)} "
        f"failed={check.not_completed} (shed={len(check.shed)} "
        f"dropped={len(check.dropped)} divergent={len(check.divergent)} "
        f"lost={len(check.lost)}) failed_frac={check.not_completed / check.sent:.6f}"
    )


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!r} {m['unit']}")


def run_untraced(wl, seed: int, seconds: float, requests, expected):
    """``(correct, check, metrics)`` for ``--trace 0``."""
    from measure import SIM_METRICS

    setup = _setup_seconds(wl.name, seed)
    _serve(wl, seed, requests[:WARMUP_REQUESTS])
    hosts, walls, kernels = [], [], []
    first = check = None
    correct = True
    start = time.perf_counter()
    while not hosts or time.perf_counter() - start < seconds:
        _, cm, wall, probe = _serve(wl, seed, requests)
        hosts.append(probe.normalise(wall))
        walls.append(wall)
        kernels.append(probe.kernel_s)
        run_check, sim = _checked(cm, requests, expected)
        if first is None:
            first, check = sim, run_check
        elif sim != first:
            print("error: simulated metrics differ between repeats of one seed")
            correct = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"serve wall s: {' '.join(f'{w:.4f}' for w in walls)}; speed-probe "
          f"kernel ms: {' '.join(f'{1e3 * k:.4f}' for k in kernels)}")
    print(f"host_s samples: {' '.join(f'{h:.4f}' for h in hosts)}")
    values = {"setup_s": setup, "host_s": statistics.median(hosts),
              "host_peak_rss_mb": rss_mb, **first}
    units = {**HOST_METRICS, **SIM_METRICS}
    return correct, check, {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def run_traced(wl, seed: int, requests, expected):
    """``(correct, check, metrics)`` for ``--trace 1``."""
    from layers import LayerTracer
    from per_layer import per_layer_metrics

    _serve(wl, seed, requests[:WARMUP_REQUESTS])
    _, cm, wall_plain, probe_plain = _serve(wl, seed, requests)
    check, sim = _checked(cm, requests, expected)
    with LayerTracer() as tracer:
        engine, traced_cm, wall_traced, probe_traced = _serve(
            wl, seed, requests, trace=True
        )
    traced_check, traced_sim = _checked(traced_cm, requests, expected)
    correct = True
    if traced_sim != sim or _streams(traced_check) != _streams(check):
        print("error: the traced run differs from the untraced run")
        correct = False
    os.makedirs(SPAN_DIR, exist_ok=True)
    span_path = os.path.join(SPAN_DIR, f"{wl.name}-seed{seed}.spans.jsonl")
    tracer.write(span_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_path)}")
    metrics = per_layer_metrics(tracer, engine, traced_cm)
    metrics["tracing_overhead"] = {
        "value": probe_traced.normalise(wall_traced) / probe_plain.normalise(wall_plain),
        "unit": "ratio",
    }
    return correct, check, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(*_setup_once(args.workload, args.seed))
        return 0

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    from repro.cluster import assign_rids

    wl = workloads.get(args.workload)
    requests = assign_rids(wl.generate(args.seed))
    if len(requests) < workloads.MIN_REQUESTS:
        raise SystemExit(f"{wl.name}: only {len(requests)} requests generated")
    from oracle import expected_streams

    expected = expected_streams(requests)
    print(f"workload {wl.name} seed {args.seed}: {wl.shape}")
    print("open loop: arrivals are fixed before the run, generator lateness 0 s")
    if args.trace:
        correct, check, metrics = run_traced(wl, args.seed, requests, expected)
    else:
        correct, check, metrics = run_untraced(
            wl, args.seed, args.seconds, requests, expected
        )
    correct = correct and check.failed == 0
    _report(check, len(requests))
    _print_metrics(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(requests),
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
