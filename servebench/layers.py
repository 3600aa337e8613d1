"""Outside-in layer tracer: host-time spans around each layer's public calls.

:class:`LayerTracer` patches the public entry points of every layer the
benchmark measures, each under the name its caller looks up (a class
attribute, or a module global such as ``repro.core.wrapper.plan_schedule``),
and restores the originals on exit.  Each call becomes a span
``(entry, start, end, parent, replica)`` kept in memory; a span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the root span, ``ClusterEngine.run``.

Spans whose layer is not in :data:`LAYERS` (the root, and
``ServingEngine.run``/``resume``, which only tag the replica) count as
"unattributed".  Counters taken from return values run after the call
returns; their cost is charged to ``overhead_s``, not to any layer.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> entry points, as ``"module:Class.method"`` or ``"module:function"``.
#: A function entry is patched in the module its caller reads it from.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cluster.engine": ("repro.cluster.engine:ClusterEngine.route",),
    "cluster.disagg": ("repro.cluster.disagg:DisaggCoordinator.ship",),
    "serving.overload": (
        "repro.serving.overload:FrontDoor.admit",
        "repro.serving.overload:BrownoutController.observe",
    ),
    "serving.admission": (
        "repro.serving.admission:AdmissionController.admit",
        "repro.serving.admission:AdmissionController.absorb_handoffs",
        "repro.serving.policy:SchedulerPolicy.order",
    ),
    "serving.batching": (
        "repro.serving.batching:BatchFormer.form_prefill",
        "repro.serving.batching:BatchFormer.form_decode",
        "repro.serving.batching:BatchFormer.form_mixed",
        "repro.serving.batching:BatchFormer.form_resume",
    ),
    "serving.executor": (
        "repro.serving.executor:StepExecutor.execute",
        "repro.serving.executor:Postprocessor.finalize",
    ),
    "serving.backends": (
        "repro.serving.backends:AttentionBackend.attention_time",
    ),
    "core.wrapper": (
        "repro.core.wrapper:BatchAttentionWrapper.plan",
        "repro.core.wrapper:BatchAttentionWrapper.run",
        "repro.core.wrapper:ComposableAttentionWrapper.plan",
        "repro.core.wrapper:ComposableAttentionWrapper.run",
    ),
    "core.scheduler": ("repro.core.wrapper:plan_schedule",),
    "gpu": (
        "repro.core.simulate:simulate_queues",
        "repro.core.simulate:simulate_grid",
        "repro.gpu.executor:PersistentKernelExecutor.run_persistent",
        "repro.gpu.executor:PersistentKernelExecutor.run_grid",
    ),
    "faults.recover": ("repro.faults.recover:KVScrubber.scrub",),
    "kvcache.radix": (
        "repro.kvcache.radix:RadixTree.match_prefix",
        "repro.kvcache.radix:RadixTree.insert",
        "repro.kvcache.radix:RadixTree.evict_until",
    ),
    "sparse.composable": (
        "repro.serving.batching:detect_shared_prefixes",
        "repro.serving.batching:decompose_multi_level",
    ),
}

#: Spans that carry no layer of their own; their self time is unattributed.
_FRAME = (
    "repro.cluster.engine:ClusterEngine.run",
    "repro.serving.engine:ServingEngine.run",
    "repro.serving.engine:ServingEngine.resume",
)
ROOT = _FRAME[0]
UNATTRIBUTED = "unattributed"


def _targets(entry: str) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs to patch for one entry point.

    A method is patched on its class and on every subclass that overrides
    it, so an overriding ``order`` or ``attention_time`` is timed too.
    """
    module_name, qual = entry.split(":")
    module = importlib.import_module(module_name)
    if "." not in qual:
        return [(module, qual)]
    cls_name, attr = qual.split(".")
    cls = getattr(module, cls_name)
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if attr in vars(c):
            out.append((c, attr))
        todo.extend(c.__subclasses__())
    return out


class LayerTracer:
    """Context manager: patch on enter, restore on exit, keep spans."""

    def __init__(self):
        #: ``(entry, start, end, parent index or -1, replica or -1)``.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.layer_of: Dict[str, str] = {e: l for l, es in LAYERS.items() for e in es}
        #: Per-span self time, parallel to :attr:`spans`.
        self.self_s: List[float] = []
        #: Host time spent in counter hooks (excluded from every layer).
        self.overhead_s = 0.0
        #: Counters the hooks fill in.
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._replica = -1
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        hooks = self._hooks()
        for entry in (*_FRAME, *self.layer_of):
            for owner, attr in _targets(entry):
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(entry, original, hooks.get(entry)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, entry: str, fn: Callable, hook: Optional[Callable]):
        tracer = self
        clock = time.perf_counter
        spans, self_s, stack = self.spans, self.self_s, self._stack
        tags_replica = entry in _FRAME[1:]

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == entry:
                # super() call of an overridden method: one span, not two.
                return fn(*args, **kwargs)
            saved_replica = tracer._replica
            if tags_replica:
                tracer._replica = int(getattr(args[0], "dp_rank", 0))
            index = len(spans)
            parent = stack[-1][2] if stack else -1
            spans.append(None)
            self_s.append(0.0)
            frame = [entry, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (entry, start, end, parent, tracer._replica)
                self_s[index] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer._replica = saved_replica
            if hook is not None:
                hook(args, result)
                spent = clock() - end
                tracer.overhead_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken from public arguments and return values ----------------

    def _hooks(self) -> Dict[str, Callable]:
        c = self.counters

        def plan_schedule(args, plan):
            c["core.scheduler.work_items"] += plan.num_work_items
            c["core.scheduler.load_balance"] += plan.load_balance

        def formed(args, step):
            if step is not None:
                c["serving.batching.steps"] += 1
                c["serving.batching.tokens"] += step.num_tokens
                c["serving.batching.streams"] += len(step.seq_ids)

        def kernel(args, report):
            c["gpu.flops"] += report.total_flops
            c["gpu.bytes"] += report.total_bytes

        def match(args, result):
            c["kvcache.radix.lookup_tokens"] += len(args[1])
            c["kvcache.radix.hit_tokens"] += result[0]

        def admit(args, _):
            adm = args[0]
            st = adm.state
            sat = (len(st.streams) + len(st.prefill_queue)) / adm.engine.config.max_running
            c["serving.admission.pressure_sum"] += sat
            c["serving.admission.samples"] += 1

        def scrub(args, _):
            key = "faults.recover.kv_used_pages_peak"
            c[key] = max(c[key], args[0].state.cache.num_used_pages)

        hooks = {
            "repro.core.wrapper:plan_schedule": plan_schedule,
            "repro.kvcache.radix:RadixTree.match_prefix": match,
            "repro.serving.admission:AdmissionController.admit": admit,
            "repro.faults.recover:KVScrubber.scrub": scrub,
        }
        for kind in ("prefill", "decode", "mixed", "resume"):
            hooks[f"repro.serving.batching:BatchFormer.form_{kind}"] = formed
        for entry in LAYERS["gpu"]:
            hooks[entry] = kernel
        return hooks

    # -- summaries ---------------------------------------------------------------

    def calls(self, entry: str) -> int:
        return sum(1 for s in self.spans if s[0] == entry)

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == ROOT)

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``host_s`` (outermost spans of the layer)
        and ``self_s``; plus the ``unattributed`` self time."""
        out = {l: {"calls": 0, "host_s": 0.0, "self_s": 0.0} for l in LAYERS}
        out[UNATTRIBUTED] = {"calls": 0, "host_s": 0.0, "self_s": 0.0}
        layer_of = self.layer_of
        spans = self.spans
        for (entry, start, end, parent, _), own in zip(spans, self.self_s):
            layer = layer_of.get(entry, UNATTRIBUTED)
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += own
            # A layer's host time counts only its outermost spans, so a
            # composable wrapper calling a batch wrapper is not counted twice.
            nested = False
            p = parent
            while p >= 0:
                if layer_of.get(spans[p][0], UNATTRIBUTED) == layer:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                row["host_s"] += end - start
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for entry, start, end, parent, replica in self.spans:
                f.write(json.dumps([
                    entry, round(start - t0, 9), round(end - t0, 9), parent, replica,
                ]) + "\n")
