"""The benchmark's catalog-1d workload runs against this package: it imports
qmbox names and checks every result at the acceptance tolerances, every nh3
ordering included.  One round, untraced and traced, must fail no request, so
a change that breaks what the benchmark uses fails here and not only when the
benchmark is run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_catalog_round_fails_no_request(tmp_path, traced):
    workload = workloads.WORKLOADS["catalog-1d"]
    ctx = workloads.Context(str(tmp_path))
    workload.prepare(ctx)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    loop = workloads.run_loop(workload, 1, ctx, tracer, rounds=1)
    failures = [(r.kind, r.params, v.detail)
                for r, v in zip(loop.requests, loop.verdicts) if not v.ok]
    assert loop.requests and not failures, failures
