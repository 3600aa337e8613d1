"""``python -m repro serve``: one row per mode its CI job drives.

Each row runs a small invocation in-process and asserts the exit code
and the greppable ``key=value`` tokens the matching CI step relies on.
Combinations the composed cluster path cannot run exit 2 with a message
naming the conflicting flags instead of silently dropping one.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.__main__ import main

DIVERGENCE_0 = r"token_divergence=0 "

#: ``(id, serve args, exit code, stdout patterns, stderr pattern)``;
#: ``{tmp}`` in an argument is replaced by the test's temp directory.
ROWS = [
    ("plain", ["--requests", "6", "--rate", "50", "--trace", "{tmp}/t.json",
               "--trace-csv", "{tmp}/t.csv"],
     0, [r"flashinfer: ITL", r"step trace → ", r"step log   → "], None),
    ("cluster", ["--requests", "6", "--rate", "200", "--tp", "2", "--dp", "2",
                 "--router", "least-loaded", "--trace", "{tmp}/c.json"],
     0, [DIVERGENCE_0, r"dp_speedup=[0-9.]+", r"p95_itl=[0-9.]+ms"], None),
    ("fail-replica", ["--requests", "6", "--rate", "200", "--dp", "2",
                      "--router", "least-loaded", "--fail-replica", "4"],
     0, [DIVERGENCE_0, r"migration_pages=[1-9]", r"link_migration_bytes=[1-9]"], None),
    ("drain-replica", ["--requests", "6", "--rate", "200", "--dp", "2",
                       "--router", "least-loaded", "--fail-replica", "4:drain"],
     0, [DIVERGENCE_0, r"migration_pages=[1-9]"], None),
    ("prefix", ["--prefix-cache", "--requests", "8", "--rate", "40",
                "--router", "cache-aware"],
     0, [DIVERGENCE_0, r"radix_hit_tokens=[1-9]", r"cascade_steps=[1-9]"], None),
    ("overload", ["--overload", "--dp", "2", "--requests", "6", "--rate", "40"],
     0, [DIVERGENCE_0, r"overload_rejected=\d", r"breaker_open_total=\d",
         r"breaker_close_total=\d", r"brownout_engaged=\d", r"final_level=\d",
         r"slo_attainment=[0-9.]+ \(baseline"], None),
    ("disagg", ["--disagg", "prefill=1,decode=1", "--requests", "8", "--rate", "80",
                "--seed", "3"],
     0, [DIVERGENCE_0, r"handoff_pages=[1-9]", r"link_handoff_bytes=[1-9]",
         r"p95_itl=", r"p95_ttft="], None),
    ("chaos", ["--requests", "6", "--rate", "80", "--chaos", "--chaos-seed", "7",
               "--trace", "{tmp}/chaos.json"],
     0, [DIVERGENCE_0, r"faults_injected=[1-9]", r"chaos trace → "], None),
    ("crash", ["--requests", "6", "--rate", "80", "--crash", "2",
               "--checkpoint-every", "4", "--journal", "{tmp}/ckpt"],
     0, [DIVERGENCE_0, r"crashes=[2-9]", r"mid-step"], None),
    ("prefix+disagg", ["--prefix-cache", "--disagg", "prefill=1,decode=1",
                       "--requests", "8", "--rate", "40"],
     0, [DIVERGENCE_0, r"radix_hit_tokens=[1-9]", r"handoff_pages=[1-9]",
         r"handoff_pages_skipped=[1-9]"], None),
    ("reject-tp-chaos", ["--tp", "2", "--chaos"], 2, [], r"--chaos .*--tp"),
    ("reject-dp-crash", ["--dp", "2", "--crash", "2"], 2, [], r"--crash .*--dp"),
    ("reject-journal-cluster", ["--prefix-cache", "--journal", "{tmp}/j"],
     2, [], r"--journal .*--prefix-cache"),
    ("reject-recover-mode", ["--recover", "--journal", "{tmp}/j", "--overload"],
     2, [], r"--recover .*--overload"),
    ("reject-bad-disagg", ["--disagg", "prefill=x,decode=1"],
     2, [], r"bad roles spec 'prefill=x,decode=1'"),
    ("reject-disagg-dp", ["--disagg", "prefill=1,decode=1", "--dp", "3"],
     2, [], r"dp=3"),
    ("reject-bad-failure", ["--fail-replica", "soon"], 2, [], r"--fail-replica"),
]


@pytest.mark.parametrize(
    "argv, code, patterns, err", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_serve(argv, code, patterns, err, tmp_path, capsys):
    rc = main(["serve", *(a.replace("{tmp}", str(tmp_path)) for a in argv)])
    out, stderr = capsys.readouterr()
    assert rc == code, out + stderr
    for pattern in patterns:
        assert re.search(pattern, out), f"{pattern!r} not in:\n{out}"
    if err is not None:
        assert out == ""
        assert re.search(err, stderr), stderr


def test_cluster_trace_has_a_row_per_replica(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert main(["serve", "--requests", "6", "--rate", "200", "--dp", "2",
                 "--prefix-cache", "--trace", str(path)]) == 0
    capsys.readouterr()
    pids = {e["pid"] for e in json.loads(path.read_text())["traceEvents"]}
    assert len(pids) >= 2
