"""Analytic token oracle and stream accounting.

Serving-path token ids are a pure function of ``(rid, generation,
position)``, so the expected streams of a workload follow from the
request list alone, with no reference simulation.  The hash below is an
independent copy of the program's token model; ``test_servebench.py``
cross-checks it against ``ClusterEngine.run_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

_VOCAB = 50257

Key = Tuple[int, int]


def token(rid: int, gen: int, pos: int) -> int:
    h = rid * 1000003 + gen * 8191 + pos * 2654435761
    return (h & 0x7FFFFFFF) % _VOCAB


def expected_streams(requests) -> Dict[Key, List[int]]:
    """``{(rid, g): tokens}`` over a rid-stamped (``assign_rids``) workload."""
    return {
        (r.rid, g): [token(r.rid, g, pos) for pos in range(r.output_len)]
        for r in requests
        for g in range(r.n)
    }


@dataclass
class StreamCheck:
    """Outcome of every sent stream, keyed ``(rid, gen)``."""

    sent: int
    #: Completed streams equal to the oracle (clamped ones as exact prefixes).
    completed: Dict[Key, object] = field(default_factory=dict)
    #: Streams shed inside an engine (deadline, brownout, retries).
    shed: Set[Key] = field(default_factory=set)
    #: Streams of requests the front door never dispatched.
    dropped: Set[Key] = field(default_factory=set)
    #: Streams whose tokens differ from the oracle, or that completed twice.
    divergent: Set[Key] = field(default_factory=set)
    #: Streams with no outcome at all.
    lost: Set[Key] = field(default_factory=set)

    @property
    def failed(self) -> int:
        """Correctness failures: divergent or lost streams."""
        return len(self.divergent) + len(self.lost)

    @property
    def not_completed(self) -> int:
        return self.sent - len(self.completed)


def _is_prefix(got, want) -> bool:
    return len(got) <= len(want) and got == want[: len(got)]


def check_streams(cm, requests, expected: Dict[Key, List[int]]) -> StreamCheck:
    """Compare every stream a cluster run produced with the oracle.

    A brownout-clamped stream (``outcome_reason == "brownout-clamp"``)
    must be a non-empty exact prefix, as ``overload_token_divergence``
    requires; a shed stream's partial tokens must be a prefix too.
    """
    out = StreamCheck(sent=len(expected))
    routed = set()
    for reqs, metrics in zip(cm.replica_requests, cm.replicas):
        routed.update(r.rid for r in reqs)
        for tr in metrics.traces:
            key = (reqs[tr.req_id].rid, tr.gen_index)
            want = expected.get(key)
            got = tr.tokens
            if want is None or got is None or key in out.completed:
                out.divergent.add(key)
            elif tr.outcome_reason == "brownout-clamp":
                if got and _is_prefix(got, want):
                    out.completed[key] = tr
                else:
                    out.divergent.add(key)
            elif got == want:
                out.completed[key] = tr
            else:
                out.divergent.add(key)
        for tr in metrics.shed_traces:
            key = (reqs[tr.req_id].rid, tr.gen_index)
            want = expected.get(key)
            if want is None or (tr.tokens and not _is_prefix(tr.tokens, want)):
                out.divergent.add(key)
            else:
                out.shed.add(key)
    for r in requests:
        for g in range(r.n):
            key = (r.rid, g)
            if key in out.completed or key in out.divergent or key in out.shed:
                continue
            if r.rid in routed:
                out.lost.add(key)
            else:
                out.dropped.add(key)
    if cm.overload is None and out.dropped:
        # Without a front door every request must reach a replica.
        out.lost |= out.dropped
        out.dropped = set()
    return out
