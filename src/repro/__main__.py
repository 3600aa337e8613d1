"""Command-line entry point: ``python -m repro <command>``.

Subcommands:

* ``info``        — library, GPU-model and JIT-cache summary.
* ``demo``        — the quickstart flow with plan/report diagnostics.
* ``generate``    — run the tiny transformer through the paged engine.
* ``serve``       — a small serving comparison across attention backends.
* ``figures``     — how to regenerate every paper figure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args) -> int:
    import repro
    from repro.core import cache_info
    from repro.gpu import A100_40G, H100_80G

    print(f"repro {repro.__version__} — FlashInfer (MLSys 2025) reproduction")
    for spec in (A100_40G, H100_80G):
        print(
            f"  {spec.name}: {spec.num_sms} SMs, "
            f"{spec.peak_bandwidth_bytes / 1e12:.2f} TB/s, "
            f"{spec.peak_fp16_flops / 1e12:.0f} TFLOP/s fp16"
        )
    print(f"  JIT kernel cache: {cache_info()}")
    return 0


def _cmd_demo(args) -> int:
    from repro import A100_40G, AttentionMapping, BatchAttentionWrapper, WorkspaceBuffer
    from repro.core import HeadConfig, VANILLA
    from repro.diagnostics import format_plan, format_plan_load, format_report
    from repro.kvcache import PagedKVCache

    rng = np.random.default_rng(args.seed)
    heads = HeadConfig(8, 2, 64)
    cache = PagedKVCache(1024, 16, 2, 64)
    seqs = []
    for n in (700, 5300, 90, 2500):
        sid = cache.new_seq()
        cache.append(sid, rng.standard_normal((n, 2, 64)), rng.standard_normal((n, 2, 64)))
        seqs.append(sid)
    mapping = AttentionMapping(np.arange(len(seqs) + 1), cache.layout(seqs), causal=True)
    w = BatchAttentionWrapper(VANILLA, heads, WorkspaceBuffer(1 << 28), A100_40G, avg_qo_len=1)
    plan = w.plan(mapping)
    print("— schedule plan " + "—" * 48)
    print(format_plan(plan))
    q = rng.standard_normal((len(seqs), 8, 64))
    _, _, report = w.run(q, cache.k_pool, cache.v_pool)
    print("\n— simulated execution " + "—" * 42)
    print(format_report(report, A100_40G))
    print("\n— planned per-CTA load (Algorithm 1 weights) " + "—" * 18)
    print(format_plan_load(plan))
    return 0


def _cmd_generate(args) -> int:
    from repro.models import GenerationSession, TinyConfig, TinyTransformer
    from repro.models.sampling import SamplingParams, sample_token

    model = TinyTransformer(TinyConfig(), seed=args.seed)
    sess = GenerationSession(model)
    rng = np.random.default_rng(args.seed)
    prompt = rng.integers(0, model.config.vocab_size, 6).tolist()
    sid = sess.new_sequence()
    logits = sess.step([sid], [prompt])
    params = SamplingParams(temperature=args.temperature, top_k=args.top_k)
    tokens = [sample_token(logits[0], params, rng)]
    for _ in range(args.tokens - 1):
        logits = sess.step([sid], [[tokens[-1]]])
        tokens.append(sample_token(logits[0], params, rng))
    print(f"prompt : {prompt}")
    print(f"output : {tokens}")
    print(f"(temperature={args.temperature}, top_k={args.top_k}, paged attention engine)")
    return 0


#: Flags that make ``serve`` cluster-shaped; any mix of them composes into
#: one :class:`~repro.cluster.ClusterConfig`.
_CLUSTER_FLAGS = (
    ("--prefix-cache", lambda a: a.prefix_cache),
    ("--overload", lambda a: a.overload),
    ("--disagg", lambda a: a.disagg is not None),
    ("--fail-replica", lambda a: a.fail_replica is not None),
    ("--tp", lambda a: a.tp > 1),
    ("--dp", lambda a: a.dp > 1),
)
#: Flags only a single engine honours (engine-level fault plans and the
#: on-disk journal, which the cluster does not plumb).
_ENGINE_FLAGS = (
    ("--chaos", lambda a: a.chaos),
    ("--crash", lambda a: a.crash > 0),
    ("--crash-rate", lambda a: a.crash_rate > 0),
    ("--deadline", lambda a: a.deadline is not None),
    ("--journal", lambda a: a.journal is not None),
    ("--trace-csv", lambda a: a.trace_csv is not None),
)


def _flag_conflict(args):
    """Why this flag mix cannot run as asked, or ``None`` if it can."""
    cluster = [f for f, on in _CLUSTER_FLAGS if on(args)]
    engine = [f for f, on in _ENGINE_FLAGS if on(args)]
    if args.recover:
        # --recover resumes one journaled engine at the --tp/--dp shape
        # its snapshot recorded.
        clash = [f for f in cluster + engine if f not in ("--tp", "--dp", "--journal")]
        if clash:
            return f"--recover cannot be combined with {', '.join(clash)}"
    elif cluster and engine:
        return (f"single-engine {', '.join(engine)} cannot be combined with "
                f"cluster-shaped {', '.join(cluster)}")
    elif args.crash_rate > 0 and not args.crash:
        return "--crash-rate needs --crash"
    elif args.journal and not (args.crash or args.checkpoint_every > 0):
        return "--journal needs --checkpoint-every or --crash"
    elif args.trace_csv and not args.trace:
        return "--trace-csv needs --trace"
    return None


def _cmd_serve(args) -> int:
    from repro.core import HeadConfig
    from repro.serving import (
        CheckpointConfig, DirectoryStore, FlashInferBackend, LLAMA_3_1_8B,
        TritonBackend, TRTLLMBackend, sharegpt_workload,
    )

    conflict = _flag_conflict(args)
    if conflict:
        print(f"serve: {conflict}", file=sys.stderr)
        return 2
    model = LLAMA_3_1_8B
    heads = HeadConfig(model.num_qo_heads, model.num_kv_heads, model.head_dim)
    if args.recover:
        return _serve_recover(args, model, heads)
    if any(on(args) for _, on in _CLUSTER_FLAGS):
        return _serve_cluster(args, model)
    requests = sharegpt_workload(args.requests, args.rate, seed=args.seed)
    if args.crash:
        return _serve_crash(args, model, heads, requests)
    print(f"{args.requests} ShareGPT-like requests at {args.rate} req/s, {model.name} on H100")
    for make in (FlashInferBackend, TritonBackend, TRTLLMBackend):
        # The FlashInfer run (the system under test) carries the tracer —
        # unless --chaos is on, in which case the chaos run below gets it —
        # and the checkpointing; the competitors stay on the plain hot path.
        sut = make is FlashInferBackend
        tracer = _tracer(args) if sut and not args.chaos else None
        ckpt = store = None
        if args.checkpoint_every > 0 and sut:
            ckpt = CheckpointConfig(every_steps=args.checkpoint_every)
            store = DirectoryStore(args.journal) if args.journal else None
        engine = _engine(args, model, heads, make, tracer=tracer,
                         checkpoint=ckpt, checkpoint_store=store)
        s = engine.run(requests).summary()
        print(f"  {engine.backend.name:>10s}: ITL {s['median_itl'] * 1e3:6.2f} ms, "
              f"TTFT {s['median_ttft'] * 1e3:6.1f} ms, "
              f"P99 TTFT {s['p99_ttft'] * 1e3:5.0f} ms")
        if ckpt is not None:
            print(f"             checkpoints: {int(s['ckpt_snapshots'])} snapshots, "
                  f"{int(s['ckpt_journal_records'])} journal records"
                  + (f" → {args.journal}" if args.journal else " (in memory)"))
        if tracer is not None:
            _write_trace(args, model, tracer, "\n  step trace",
                         "load in chrome://tracing or Perfetto")
    if args.chaos:
        return _serve_chaos(args, model, heads, requests)
    return 0


def _engine(args, model, heads, make=None, resilient=False, **kwargs):
    """One single-GPU H100 engine (FlashInfer unless ``make`` says otherwise)
    at the CLI's scheduling knobs; ``resilient`` adds the deadline/retry
    layer the chaos and crash passes run under."""
    from repro.gpu import H100_80G
    from repro.serving import EngineConfig, FlashInferBackend, ServingEngine

    if resilient:
        from repro.faults import ResilienceConfig

        kwargs["resilience"] = ResilienceConfig(deadline=args.deadline,
                                                max_retries=args.max_retries)
    return ServingEngine(
        model, (make or FlashInferBackend)(heads, H100_80G), H100_80G,
        EngineConfig(max_running=256, policy=args.policy), **kwargs,
    )


def _tracer(args):
    from repro.obs import StepTracer

    return StepTracer() if args.trace else None


def _write_trace(args, model, tracer, head, note, table=True, **meta) -> None:
    """Write a single-engine run's Chrome trace (plus the CSV step log under
    ``--trace-csv``), say where they went, and print the step summary."""
    from repro.obs import summary_table, write_chrome_trace, write_csv

    write_chrome_trace(
        args.trace, tracer.events,
        metadata={"model": model.name, "backend": "flashinfer",
                  "requests": args.requests, "rate": args.rate, **meta},
        fault_events=tracer.fault_events,
    )
    print(f"{head} → {args.trace} ({note})")
    if args.trace_csv:
        write_csv(args.trace_csv, tracer.events)
        lead = head.lstrip("\n")  # align the arrow under the trace line's
        width = len(lead.lstrip())
        print(f"{lead[:len(lead) - width]}{'step log':<{width}} → {args.trace_csv}")
    if table:
        print("\n" + summary_table(tracer) + "\n")


def _tuned_overload(args):
    """The overload drill's tuned front door, breakers and brownout ladder."""
    from repro.cluster.router import BreakerConfig
    from repro.serving.overload import OverloadConfig

    return OverloadConfig(
        tenants=args.tenants, admit_rate=24.0, burst_capacity=8.0,
        max_client_retries=5, retry_budget=2.0, retry_base=0.08,
        seed=args.seed, slo_ttft=0.4, engage_after=25, anneal_after=60,
        brownout_clamp=32,
        breaker=BreakerConfig(fail_threshold=3, cooldown=0.25,
                              probe_successes=2, pressure_threshold=0.5),
    )


_OVERLOAD_ON = lambda a, s: "overload_offered" in s

#: The cluster report: ``(label, shown?, fields)`` rows of greppable
#: ``name=value`` tokens; a field is a summary key printed as an int, or
#: ``(name, summary key, format)``.  The cache and overload drills report
#: their control comparison instead of latency percentiles.
_ROWS = (
    ("latency", lambda a, s: not (a.prefix_cache or a.overload),
     [(f"p{q}_{m}", f"cluster_p{q}_{m}", "ms") for m in ("ttft", "itl") for q in (50, 95, 99)]),
    ("prefix", lambda a, s: a.prefix_cache,
     [("radix_hit_tokens", "cluster_radix_hit_tokens", "d"),
      ("prefill_flops_saved", "prefill_flops_saved", ".3e"),
      ("cascade_hbm_bytes_saved", "cluster_cascade_bytes_saved", ".3e"),
      ("cascade_steps", "cluster_cascade_steps", "d")]),
    ("handoff", lambda a, s: "handoff_requests" in s,
     ["handoff_requests", "handoff_pages", "handoff_bytes", "handoff_chunks",
      "handoff_retries", "handoff_pages_skipped", "link_handoff_bytes"]),
    ("migration", lambda a, s: "migration_pages" in s,
     ["migration_pages", "link_migration_bytes"]),
    ("front door", _OVERLOAD_ON, [f"overload_{k}" for k in (
        "offered", "admitted", "rejected", "retries", "dropped")]),
    ("breakers", _OVERLOAD_ON,
     ["breaker_open_total", "breaker_half_open_total", "breaker_close_total",
      ("timeouts", "overload_timeouts", "d"), ("reroutes", "overload_reroutes", "d")]),
    ("brownout", _OVERLOAD_ON,
     ["brownout_engaged", "brownout_annealed", ("peak_level", "brownout_peak_level", "d"),
      ("final_level", "brownout_final_level", "d")]),
    ("hedging", _OVERLOAD_ON, ["hedged_prefills", "hedge_wins"]),
)


def _token(s, field) -> str:
    name, key, spec = field if isinstance(field, tuple) else (field, field, "d")
    value = s.get(key, 0)
    if spec == "ms":
        return f"{name}={value * 1e3:.2f}ms"
    return f"{name}={format(int(value) if spec == 'd' else value, spec)}"


def _serve_cluster(args, model) -> int:
    """Every cluster-shaped run: one :class:`~repro.cluster.ClusterConfig`
    composed from all the flags, checked token-exact against a single-GPU
    oracle, next to at most one control arm that is a
    ``dataclasses.replace`` of it — a cold cache under ``--prefix-cache``,
    no overload layer under ``--overload``, else dp=1 for a colocated
    dp > 1 run."""
    import dataclasses

    from repro.cluster import (
        ClusterConfig, ClusterEngine, FailoverConfig, ReplicaFailure,
        expected_tokens, parse_roles,
    )
    from repro.faults import FaultPlan
    from repro.gpu import H100_80G
    from repro.serving import (
        EngineConfig, bursty_workload, mixed_disagg_workload,
        shared_prefix_workload, sharegpt_workload,
    )
    from repro.serving.overload import overload_token_divergence, slo_attainment

    roles = failure = None
    try:
        if args.disagg is not None:
            # The role pools size the cluster; an explicit --dp must agree.
            roles = parse_roles(args.disagg, args.dp if args.dp > 1 else None)
        if args.fail_replica is not None:
            step, _, mode = args.fail_replica.partition(":")
            if not step.isdigit():
                raise ValueError(f"--fail-replica expects STEP[:crash|drain], "
                                 f"got {args.fail_replica!r}")
            failure = ReplicaFailure(int(step), mode or "crash")
        dp = (len(roles[0]) + len(roles[1]) if roles
              else max(args.dp, 2) if args.overload else args.dp)
        features = {}
        if args.prefix_cache or args.overload or args.disagg:
            features.update(chunked_prefill=True, composable=True)
        if args.prefix_cache:
            features["prefix_cache"] = True
        if args.overload:
            features.update(max_running=16, prefill_chunk_size=256)
        engine = EngineConfig(**{"max_running": 256, "policy": args.policy, **features})
        cfg = ClusterConfig(
            tp=args.tp, dp=dp, topology=args.topology, router=args.router,
            engine=engine, checkpoint_every=args.checkpoint_every,
            failover=FailoverConfig() if failure else None,
            overload=_tuned_overload(args) if args.overload else None,
            roles=args.disagg,
        )
        cluster = ClusterEngine(
            model, H100_80G, cfg, trace=bool(args.trace),
            replica_failures={0: failure} if failure else None,
            fault_plan=FaultPlan(seed=args.seed, timeout_rate=0.08) if args.overload else None,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    n, rate, seed = args.requests, args.rate, args.seed
    if args.prefix_cache:
        requests = shared_prefix_workload(n, rate, seed=seed)
        shared = sum(r.prefix_len for r in requests) / sum(r.prompt_len for r in requests)
        what = (f"{n} shared-prefix requests at {rate} req/s "
                f"({shared:.0%} of prompt tokens shared)")
    elif args.overload:
        requests = bursty_workload(n, rate, seed=seed, tenants=args.tenants,
                                   burst=args.burst, burst_len=0.25, burst_every=0.6)
        span = requests[-1].arrival if requests else 0.0
        what = (f"{len(requests)} bursty requests ({args.tenants} tenants, "
                f"{args.burst:g}x bursts) in {span:.2f} s")
    elif args.disagg:
        requests = mixed_disagg_workload(n, rate, seed=seed)
        long_prompts = sum(1 for r in requests if r.prompt_len >= 512)
        what = (f"{len(requests)} mixed requests ({long_prompts} long-prompt, "
                f"{len(requests) - long_prompts} chatty) at {rate} req/s")
    else:
        requests = sharegpt_workload(n, rate, seed=seed)
        what = f"{n} ShareGPT-like requests at {rate} req/s"
    if roles:
        shape = f"disaggregated: prefill={list(roles[0])}, decode={list(roles[1])}"
    elif args.overload and args.tp == 1:
        shape = f"dp={dp}"  # the drill is data-parallel unless --tp says otherwise
    else:
        shape = f"tp={args.tp}, dp={dp}"
    print(f"{what}, {model.name} on a {args.tp * dp}-GPU H100 cluster ({shape}, "
          f"{args.topology} topology, {cluster.router.name} router"
          f"{', overload front door armed' if args.overload else ''})")

    control = None
    if args.prefix_cache:
        control = ("cold cache", dataclasses.replace(
            cfg, engine=dataclasses.replace(engine, prefix_cache=False, composable=False)))
    elif args.overload:
        control = ("no overload", dataclasses.replace(cfg, overload=None))
    elif dp > 1 and roles is None:
        control = ("dp=1", dataclasses.replace(cfg, dp=1, failover=None))
    control_cluster = ClusterEngine(model, H100_80G, control[1]) if control else cluster
    # The oracle is the control arm's engine on one GPU (the cold cache
    # under --prefix-cache): caching, routing, failover and overload
    # control must all be timing-only.
    oracle = expected_tokens(control_cluster.run_reference(requests))
    arms = [("cluster", cluster.run(requests))]
    if control:
        arms.append((control[0], control_cluster.run(requests)))
    cm = arms[0][1]
    s = cm.summary()
    hit = int(s.get("cluster_radix_hit_tokens", 0))
    s["prefill_flops_saved"] = model.num_layers * model.layer_gemm_flops(hit)

    for label, m in arms:
        ms = m.summary()
        print(f"  {label:<11s}: {ms['cluster_total_time'] * 1e3:8.1f} ms makespan, "
              f"{ms['cluster_throughput_tok_s']:7.0f} tok/s, "
              f"{int(ms['cluster_output_tokens'])} tokens, "
              f"{int(ms['cluster_preemptions'])} preemptions")
    for i in range(dp):
        role = f"{'prefill' if i in roles[0] else 'decode':>7s}, " if roles else ""
        print(f"  replica {i} : {role}{int(s[f'replica{i}_requests']):3d} requests, "
              f"{s[f'replica{i}_total_time'] * 1e3:8.1f} ms, "
              f"{s[f'replica{i}_throughput_tok_s']:7.0f} tok/s, "
              f"{s[f'replica{i}_utilization']:6.1%} of makespan")
    if "link_utilization" in s:
        print(f"  interconnect: {s['link_bytes'] / 1e9:.2f} GB on the wire, "
              f"{s['link_utilization']:.1%} busy ({cluster.topology.link.name}, "
              f"{int(s['link_degradations'])} degradation windows)")
    if failure is not None:
        print(f"  failover  : replica 0 {failure.mode} at step {failure.step} detected "
              f"in {s['failover_detect_s'] * 1e3:.1f} ms, recovered in "
              f"{s['failover_recovery_s'] * 1e3:.1f} ms "
              f"({int(s['failover_inflight_migrated'])} in-flight streams carried "
              f"over, {int(s['failover_fallbacks'])} fallbacks)")
    for label, shown, fields in _ROWS:
        if shown(args, s):
            print(f"  {label:<10s}: " + " ".join(_token(s, f) for f in fields))
    if control and control[0] == "dp=1":
        base = arms[1][1].throughput_tokens_per_s()
        speedup = cm.throughput_tokens_per_s() / base if base > 0 else float("nan")
        print(f"  dp_speedup={speedup:.2f} (vs dp=1 at tp={args.tp})")
    if args.overload:
        slo, baseline = cfg.overload.slo_ttft, ""
        if control[0] == "no overload":
            base_frac = slo_attainment(arms[1][1], len(requests), slo)[1]
            baseline = f"baseline {base_frac:.3f} without the overload layer, "
        print(f"  slo_attainment={s['slo_attainment']:.3f} "
              f"({baseline}TTFT <= {slo:g} s, drops count as misses)")
    counts = [overload_token_divergence(m, oracle) for _, m in arms]
    divergent = sum(d for d, _ in counts)
    details = ", ".join(f"{label} {d}/{c}" for (label, _), (d, c) in zip(arms, counts))
    print(f"  token_divergence={divergent} ({details} streams vs single-GPU reference)")
    if args.trace:
        from repro.obs import write_cluster_trace

        write_cluster_trace(args.trace, cluster.trace_processes(), metadata={
            "model": model.name, "tp": args.tp, "dp": dp, "topology": args.topology,
            "router": args.router, "requests": args.requests, "rate": args.rate})
        print(f"  cluster trace → {args.trace} "
              f"({dp} replica process rows, shared simulated clock)")
    ok = (divergent == 0 and (hit > 0 or not args.prefix_cache)
          and (roles is None or s["handoff_requests"] > 0))
    return 0 if ok else 1


def _serve_chaos(args, model, heads, requests) -> int:
    """The ``serve --chaos`` pass: a no-fault resilience baseline, then a
    seeded chaos run, and a token-exactness comparison between the two."""
    from repro.faults import chaos_plan

    baseline = _engine(args, model, heads, resilient=True).run(requests)
    expected = {(t.req_id, t.gen_index): t.tokens for t in baseline.traces}
    tracer = _tracer(args)
    chaos = _engine(args, model, heads, resilient=True, tracer=tracer,
                    fault_plan=chaos_plan(args.chaos_seed)).run(requests)
    s = chaos.summary()
    compared = [t for t in chaos.traces if (t.req_id, t.gen_index) in expected]
    divergent = sum(1 for t in compared if t.tokens != expected[(t.req_id, t.gen_index)])
    print(f"\n  chaos (seed {args.chaos_seed}):")
    print(f"    faults_injected={int(s['faults_injected'])} "
          f"kernel_faults={int(s['kernel_faults'])} "
          f"checksum_failures={int(s['checksum_failures'])} "
          f"alloc_faults={int(s['alloc_faults'])}")
    print(f"    retries={int(s['retries'])} sheds={int(s['sheds'])} "
          f"degraded_steps={int(s['degraded_steps'])} "
          f"watchdog_flags={int(s['watchdog_flags'])}")
    print(f"    token_divergence={divergent} "
          f"({len(compared)} streams compared, {chaos.sheds} shed)")
    if tracer is not None:
        _write_trace(args, model, tracer, "\n  chaos trace",
                     f"{len(tracer.fault_events)} fault events embedded",
                     chaos_seed=args.chaos_seed)
    return 0 if divergent == 0 else 1


def _serve_crash(args, model, heads, requests) -> int:
    """The ``serve --crash N`` pass: an uninterrupted baseline, then a
    kill/restore campaign (scripted deaths, plus seeded-random ones under
    ``--crash-rate``) recovered via snapshot + journal replay, and a
    token-exactness comparison between the two."""
    from repro.faults import chaos_plan
    from repro.serving import (
        CheckpointConfig, CheckpointStore, CrashHarness, DirectoryStore,
    )

    every = args.checkpoint_every if args.checkpoint_every > 0 else 4
    # Uninterrupted baseline: same workload, same fault seed (when --chaos),
    # no deaths.  Every surviving stream must match it byte for byte.
    baseline = _engine(
        args, model, heads, resilient=True,
        fault_plan=chaos_plan(args.chaos_seed) if args.chaos else None,
    ).run(requests)
    expected = {(t.req_id, t.gen_index): t.tokens for t in baseline.traces}
    store = DirectoryStore(args.journal) if args.journal else CheckpointStore()
    # One fault plan shared across process "lives" keeps the crash RNG
    # stream advanced past already-fired deaths (recovery rewinds every
    # other site stream to the snapshot).
    shared_plan = None
    if args.chaos or args.crash_rate > 0:
        shared_plan = chaos_plan(args.chaos_seed if args.chaos else 0,
                                 crash_rate=args.crash_rate)
        if not args.chaos:
            for site in ("kernel", "corrupt", "alloc", "straggler"):
                shared_plan.disarm(site)
    tracer = _tracer(args)

    def factory():
        return _engine(args, model, heads, resilient=True, tracer=tracer,
                       fault_plan=shared_plan, checkpoint_store=store,
                       checkpoint=CheckpointConfig(every_steps=every))

    # Alternate boundary and mid-step kills so any N >= 2 exercises both.
    script = [(3 + 4 * k, "mid-step" if k % 2 else "boundary") for k in range(args.crash)]
    report = CrashHarness(
        factory, requests, store, crash_script=script, expected_tokens=expected
    ).run()
    s = report.metrics.summary()
    phases = ", ".join(f"{p}×{report.crash_phases.count(p)}"
                       for p in dict.fromkeys(report.crash_phases))
    print(f"\n  kill/restore ({args.crash} scripted kills, "
          f"crash-rate {args.crash_rate}, snapshot every {every} steps):")
    print(f"    crashes={report.crashes} ({phases}) recoveries={report.recoveries}")
    print(f"    snapshots={int(s['ckpt_snapshots'])} "
          f"journal_records={int(s['ckpt_journal_records'])} "
          f"replayed_tokens={int(s['recover_replayed_tokens'])} "
          f"resumed_streams={int(s['recover_resumed'])}")
    print(f"    token_divergence={report.token_divergence} "
          f"({report.compared} streams compared vs uninterrupted baseline)")
    if args.journal:
        print(f"    journal + snapshots → {args.journal}")
    if tracer is not None:
        _write_trace(args, model, tracer, "    recovery trace",
                     f"{len(tracer.fault_events)} fault events embedded",
                     table=False, crashes=report.crashes)
    return 0 if report.token_divergence == 0 and report.crashes >= args.crash else 1


def _serve_recover(args, model, heads) -> int:
    """The ``serve --recover`` cold start: open the journal directory from
    a previous (killed) ``serve --checkpoint-every N --journal DIR`` run,
    load and verify the latest snapshot, and resume it to completion."""
    from repro.faults import FaultPlan
    from repro.gpu import H100_80G
    from repro.serving import (
        CheckpointConfig, DirectoryStore, EngineConfig, FlashInferBackend,
        NoSnapshotError, RecoveryManager, ServingEngine,
        SnapshotIntegrityError, SnapshotVerificationError, WorldMismatchError,
    )

    if not args.journal:
        print("serve --recover needs --journal DIR (the directory the "
              "crashed run was journaling to)", file=sys.stderr)
        return 2
    store = DirectoryStore(args.journal)
    try:
        # A snapshot taken at one cluster shape must not be resumed into
        # another: the KV cache is sharded by tp and the request subset by
        # dp, so a shape change would silently corrupt the resumed run.
        recovered = RecoveryManager(
            store, expected_world={"tp": args.tp, "dp": args.dp}
        ).recover()
    except NoSnapshotError as exc:
        print(f"nothing to recover: {exc}", file=sys.stderr)
        return 1
    except WorldMismatchError as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 1
    except (SnapshotIntegrityError, SnapshotVerificationError) as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 1
    snap = recovered.snapshot
    print(
        f"recovering {args.journal}: snapshot {recovered.snapshot_id} "
        f"(step {snap['steps_done']}, t={snap['t']:.3f}s, "
        f"{len(recovered.corrupt_pages)} KV pages to recompute, "
        f"{recovered.replay.window_size if recovered.replay else 0} "
        f"journaled tokens to replay)"
    )
    # Rebuild the fault plan from the snapshot, but keep the crash site
    # disarmed: re-seeding the death we are recovering from would re-kill
    # the resumed run at the same step, forever.
    plan = None
    if snap["fault_plan"] is not None:
        plan = FaultPlan.from_state(snap["fault_plan"])
        plan.disarm("crash")
    every = args.checkpoint_every if args.checkpoint_every > 0 else 4
    # Rebuild the engine at the snapshot's cluster shape: sharded heads
    # for tp > 1, and the dp coordinates the replica ran at.
    if args.tp > 1:
        from repro.cluster import plan_tp_sharding

        heads = plan_tp_sharding(model, args.tp).shard_heads
    snap_world = snap.get("world") or {"tp": 1, "dp": 1, "replica": 0}
    engine = ServingEngine(
        model, FlashInferBackend(heads, H100_80G), H100_80G,
        EngineConfig(max_running=256, policy=args.policy,
                     tensor_parallel=args.tp),
        fault_plan=plan,
        checkpoint=CheckpointConfig(every_steps=every), checkpoint_store=store,
    )
    engine.dp_world = int(snap_world["dp"])
    engine.dp_rank = int(snap_world["replica"])
    s = engine.resume(recovered).summary()
    print(
        f"  resumed to completion: ITL {s['median_itl'] * 1e3:6.2f} ms, "
        f"TTFT {s['median_ttft'] * 1e3:6.1f} ms, "
        f"{int(s['recover_resumed'])} streams resumed"
    )
    print(
        f"  replay: {int(s['recover_replayed_tokens'])} journaled tokens "
        f"re-verified, divergence={int(s['recover_token_divergence'])}"
    )
    return 0 if int(s["recover_token_divergence"]) == 0 else 1


def _cmd_figures(args) -> int:
    print("Regenerate every paper figure (tables print with -s):")
    print("  pytest benchmarks/ --benchmark-only -s")
    print("Individual figures:")
    for fig, target in [
        ("Figure 7 (end-to-end serving)", "benchmarks/test_fig7_e2e_serving.py"),
        ("Figure 8 (kernel dynamism)", "benchmarks/test_fig8_kernel_dynamism.py"),
        ("Figure 9 (StreamingLLM)", "benchmarks/test_fig9_streaming_llm.py"),
        ("Figure 10 (parallel generation)", "benchmarks/test_fig10_parallel_generation.py"),
        ("Figure 12 (sparse overhead)", "benchmarks/test_fig12_sparse_overhead.py"),
        ("Design ablations", "benchmarks/test_ablation_*.py"),
    ]:
        print(f"  {fig:38s} pytest {target} --benchmark-only -s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlashInfer reproduction: attention engine demos and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and simulated-GPU summary")

    demo = sub.add_parser("demo", help="plan/run a batch with diagnostics")
    demo.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="generate tokens with the tiny model")
    gen.add_argument("--tokens", type=int, default=16)
    gen.add_argument("--temperature", type=float, default=0.8)
    gen.add_argument("--top-k", type=int, default=8, dest="top_k")
    gen.add_argument("--seed", type=int, default=0)

    from repro.cluster.router import available_routing_policies
    from repro.cluster.topology import TOPOLOGY_PRESETS
    from repro.serving.policy import available_policies

    serve = sub.add_parser(
        "serve", help="serve a workload, checked token-exact",
        description="With no cluster flag, compare the FlashInfer, Triton and "
        "TRT-LLM backends on one GPU.  Cluster flags compose into one cluster "
        "run, checked token-exact against a single-GPU reference; flags that "
        "need a single engine are refused on it (exit 2).",
    )
    serve.add_argument("--requests", type=int, default=40)
    serve.add_argument("--rate", type=float, default=60.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--policy", default="fcfs", help="prefill-queue scheduling "
                       f"policy: {', '.join(available_policies())} (default: fcfs)")
    serve.add_argument("--trace", metavar="OUT.json", help="write a Chrome "
                       "trace_event JSON of the FlashInfer run (a row per replica)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       dest="checkpoint_every", metavar="N",
                       help="snapshot engine state every N executed steps (0 = off)")
    cluster = serve.add_argument_group("cluster flags (any mix composes)")
    cluster.add_argument("--tp", type=int, default=1, metavar="N",
                         help="tensor-parallel shards per replica")
    cluster.add_argument("--dp", type=int, default=1, metavar="M", help="data-"
                         "parallel replicas; a colocated dp > 1 run reports dp_speedup")
    cluster.add_argument("--topology", default="nvlink", choices=sorted(TOPOLOGY_PRESETS),
                         help="interconnect preset that prices collectives")
    cluster.add_argument("--router", default="round-robin", help="routing policy: "
                         f"{', '.join(available_routing_policies())}")
    cluster.add_argument("--prefix-cache", action="store_true", dest="prefix_cache",
                         help="shared-prefix workload on the radix cache and cascade "
                         "attention, against a cold-cache control")
    cluster.add_argument("--overload", action="store_true", help="bursty multi-tenant "
                         "drill (dp >= 2) through the front door, breakers, hedging "
                         "and brownout, against a control without them")
    cluster.add_argument("--tenants", type=int, default=4,
                         help="tenants for --overload (default: 4)")
    cluster.add_argument("--burst", type=float, default=3.0,
                         help="burst multiplier for --overload (default: 3.0)")
    cluster.add_argument("--disagg", metavar="prefill=N,decode=M", help="split the "
                         "dp pool into prefill and decode replicas with KV handoff")
    cluster.add_argument("--fail-replica", dest="fail_replica",
                         metavar="STEP[:crash|drain]", help="kill or drain replica 0 "
                         "at engine step STEP under heartbeat failover")
    single = serve.add_argument_group("single-engine flags")
    single.add_argument("--chaos", action="store_true", help="rerun FlashInfer under "
                        "a seeded fault plan and check token-exact recovery")
    single.add_argument("--chaos-seed", type=int, default=7, dest="chaos_seed",
                        help="seed for the chaos fault plan (default: 7)")
    single.add_argument("--deadline", type=float, help="per-request deadline in "
                        "seconds; expired requests are shed (--chaos/--crash)")
    single.add_argument("--max-retries", type=int, default=3, dest="max_retries",
                        help="recompute retries per stream before it is shed")
    single.add_argument("--crash", type=int, default=0, metavar="N", help="inject N "
                        "engine deaths, recover each from snapshot + journal")
    single.add_argument("--crash-rate", type=float, default=0.0, dest="crash_rate",
                        metavar="P", help="also die at random with probability P per "
                        "step phase (needs --crash)")
    single.add_argument("--journal", metavar="DIR", help="persist snapshots and the "
                        "write-ahead journal to DIR (default: in memory)")
    single.add_argument("--recover", action="store_true", help="resume the latest "
                        "snapshot in --journal DIR to completion")
    single.add_argument("--trace-csv", metavar="OUT.csv", dest="trace_csv",
                        help="also write the per-step CSV log (needs --trace)")

    sub.add_parser("figures", help="how to regenerate the paper figures")

    args = parser.parse_args(argv)
    return {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "generate": _cmd_generate,
        "serve": _cmd_serve,
        "figures": _cmd_figures,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
