"""Self-tests of the benchmark: the tail-percentile rule, failure counting and
seeded request generation.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, Request, Verdict, Workload, run_loop  # noqa: E402


# --- tail percentile ---------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 50, 100, 357, 2001])
def test_tail_has_exactly_ten_samples_beyond_it(n):
    samples = [float(x) for x in range(n, 0, -1)]  # distinct, unsorted
    value, percentile = tracing.tail_latency(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    samples = [float(x) for x in range(1, 101)]
    value, percentile = tracing.tail_latency(samples)
    assert (value, percentile) == (90.0, 90.0)
    # the next sample up has only nine beyond it
    assert sum(s > 91.0 for s in samples) == 9


@pytest.mark.parametrize("n", [1, 4, 10])
def test_tail_with_ten_samples_or_fewer_is_the_max_and_says_so(n):
    value, percentile = tracing.tail_latency([float(x) for x in range(n)])
    assert value == n - 1
    assert percentile is None


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tracing.tail_latency([])


# --- failures are counted, never dropped -------------------------------------------

def _fake_workload(run, check_round=workloads.check_each):
    return Workload("fake", lambda rng: [Request("ok"), Request("raise"), Request("miss")],
                    warmup=None, run=run, check_round=check_round)


def _fake_run(request, tracer, ctx):
    if request.kind == "raise":
        raise RuntimeError("boom")
    return request.kind


def _fake_check(requests, results, ctx):
    return [Verdict(r == "ok") for r in results]


def test_raised_and_missed_requests_are_failed_not_dropped():
    loop = run_loop(_fake_workload(_fake_run, _fake_check), 1, Context("."),
                    tracing.NullTracer(), rounds=3)
    assert len(loop.requests) == len(loop.latencies) == len(loop.verdicts) == 9
    assert loop.failed == 6
    assert all(v.ok == (r.kind == "ok") for r, v in zip(loop.requests, loop.verdicts))


def test_a_check_that_raises_fails_its_whole_round():
    def broken_check(requests, results, ctx):
        raise KeyError("no reference")

    loop = run_loop(_fake_workload(_fake_run, broken_check), 1, Context("."),
                    tracing.NullTracer(), rounds=2)
    assert len(loop.requests) == 6 and loop.failed == 6


def test_real_requests_that_raise_or_miss_tolerance_are_failed():
    requests = [
        Request("drift", {"problem": "pdm_ho_1", "ordering": "mass-sandwich",
                          "overrides": {"N": 141}}),
        Request("drift", {"problem": "pdm_ho_1", "ordering": "mass-sandwich",
                          "overrides": {"N": 143}}),
        Request("analytic", {"problem": "no_such_problem", "overrides": {}}),
    ]
    ctx = Context(".")
    reference = workloads.solve(workloads.builtin_problem("pdm_ho_1", N=301)).eigenvalues[:10]
    # a reference off by 1e-9 relative: both drift requests miss DRIFT_REL
    ctx.references[("pdm_ho_1", "mass-sandwich")] = reference * (1 + 1e-9)
    workload = Workload("fake", lambda rng: list(requests), warmup=None)
    loop = run_loop(workload, 1, ctx, tracing.NullTracer(), rounds=1)
    assert [v.ok for v in loop.verdicts] == [False, False, False]
    assert "drift" in loop.verdicts[0].detail
    assert "raised" in loop.verdicts[2].detail
    assert loop.failed == 3 and len(loop.latencies) == 3


# --- seeded request sequences ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests_different_seed_different(name):
    workload = workloads.WORKLOADS[name]
    first = [workloads.make_round(workload, 7, i) for i in range(4)]
    again = [workloads.make_round(workload, 7, i) for i in range(4)]
    other = [workloads.make_round(workload, 8, i) for i in range(4)]
    assert first == again
    assert first != other
    # the mix of request kinds does not depend on the seed
    kinds = sorted(r.kind for r in first[0])
    assert all(sorted(r.kind for r in rnd) == kinds for rnd in first + other)


# --- self time ------------------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("parent", 0.0, 10.0, 0, None, 0),
        tracing.Span("child", 1.0, 4.0, 1, 0, 0),
        tracing.Span("child", 3.0, 6.0, 2, 0, 0),   # overlaps the first child
        tracing.Span("grandchild", 1.0, 2.0, 3, 1, 0),
    ]
    totals = tracer.self_times()
    assert totals["parent"] == pytest.approx((5.0, 1))
    assert totals["child"] == pytest.approx((5.0, 2))
    assert totals["grandchild"] == pytest.approx((1.0, 1))


# --- BENCHMARK.json ---------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
