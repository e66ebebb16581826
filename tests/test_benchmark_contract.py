"""The benchmark's 1D workloads run against this package: they import qmbox
names and check every result at the acceptance tolerances, every nh3
ordering and every convergence scan included.  One round of each, untraced
and traced, must fail no request, so a change that breaks what the benchmark
uses fails here and not only when the benchmark is run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def failed_requests(name, workdir, traced):
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context(str(workdir))
    workload.prepare(ctx)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    loop = workloads.run_loop(workload, 1, ctx, tracer, rounds=1)
    assert loop.requests
    return [(r.kind, r.params, v.detail)
            for r, v in zip(loop.requests, loop.verdicts) if not v.ok]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_catalog_round_fails_no_request(tmp_path, traced):
    failures = failed_requests("catalog-1d", tmp_path, traced)
    assert not failures, failures


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_scan_round_fails_no_request(tmp_path, traced):
    failures = failed_requests("scan-1d", tmp_path, traced)
    assert not failures, failures
