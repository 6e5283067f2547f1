"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import math
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

wmod = run.import_biconserve()
TINY = {
    "verify_grid": {"points": 4},
    "fd_oracle": {"points_per_chart": 1, "keys": ["thm3.i", "ex41"]},
    "catalog_identities": {"points_per_chart": 2,
                           "keys": ["thm1.i", "ex41", "intsurf.i", "intcurve.A"]},
}


def test_benchmark_json_names_the_runner_s_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(wmod.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    _, t, metrics, units, extra = run.untraced_run(workload, 3, 0.0, TINY[workload])
    assert units == run.E2E_UNITS
    assert set(metrics) == set(units)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert t["attempted"] >= 1 and t["failed"] == 0
    assert extra["failed_ops_frac"] == 0.0
    assert len(extra["setup_samples_s"]) == run.SETUP_BUILDS


COUNTS = [name for name in run.LAYER_UNITS if name.endswith("calls_per_point")] \
    + ["catalog.build.calls"]


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_counts_repeat_exactly(workload):
    first = run.traced_run(workload, 5, 0.0, TINY[workload], pool_points=8)
    second = run.traced_run(workload, 5, 0.0, TINY[workload], pool_points=8)
    assert set(first[2]) == set(run.LAYER_UNITS)
    assert all(math.isfinite(v) for v in first[2].values())
    assert {k: first[2][k] for k in COUNTS} == {k: second[2][k] for k in COUNTS}
    assert first[1]["failed"] == 0


def test_traced_run_writes_spans_for_every_layer():
    import numpy as np

    _, _, _, _, extra = run.traced_run("verify_grid", 5, 0.0, TINY["verify_grid"],
                                       pool_points=8)
    with np.load(run.ROOT / extra["span_file"]) as spans:
        names = set(spans["names"][np.unique(spans["name_id"])])
        counts = dict(zip(spans["count_names"], spans["counts"]))
    layers = {name.split(".")[0] for name in names}
    assert {"jets", "expr", "profiles", "catalog", "immersion", "spectral", "sweep",
            "cli"} <= layers
    assert counts["jets.kernel.mul_into"] > 0 and counts["jets.Jet.new"] > 0


def test_every_jet_product_is_counted_and_scaling_is_not():
    import numpy as np
    from spans import Tracer
    from biconserve.jets import Jet, JetSpace

    x = Jet(JetSpace.get(2), 3, np.array([2.0, 1.0, 0.5] + [0.0] * 7))
    tracer = Tracer()
    tracer.install()
    try:
        x * x                # one product
        2.0 * x              # scaling: no product
        x.reciprocal()       # compose: one product per order
    finally:
        tracer.uninstall()
    assert tracer.counts["jets.kernel.mul_into"][0] == 1 + 3


def test_traced_run_sees_the_layers_of_its_workload():
    _, _, m, _, _ = run.traced_run("fd_oracle", 5, 0.0, TINY["fd_oracle"], pool_points=8)
    assert m["expr.fd_partial.calls_per_point"] > 0
    assert m["immersion.packet_fd.ms_per_call"] > m["immersion.packet_fd.self_ms"] > 0
    assert m["spectral.eigen_structure.ms_per_call"] == 0.0
    assert m["catalog.build.calls"] == 2


def test_inverted_expectations_are_counted_as_failures_without_crashing():
    chart = wmod.catalog.build(wmod.chart_spec("thm1.i"))
    point = wmod.sweep.random_points(chart.domain, 1, 0)
    requests = [
        wmod.verify_request(4, 1, solved=True),
        wmod.verify_request(4, 1, solved=False, expect_exit=0),      # control must fail
        wmod.verify_request(4, 1, solved=True, box=((0.1, 0.4),) * 4),  # BiconserveError
        wmod.identity_request("thm1.i", chart, point, tol={"beltrami": 0.0, "gauss": 0.0,
                                                           "codazzi": 0.0, "unit_normal": 0.0}),
        wmod.fd_request("broken", None, point),                      # unexpected exception
    ]
    wl = wmod.Workload("inverted", lambda: None, lambda state, seed, k: requests, {})
    result = run.run_pass(wl, None, 0, 0)
    assert result["failed"] == 4
    assert len(result["requests"]) == 5
    text = "\n".join(result["failures"])
    assert "exit code 1, expected 0" in text
    assert "outside chart domain" in text
    assert "beltrami" in text
    assert "unexpected AttributeError" in text
