"""The benchmark's three workloads and the checks on every operation.

Each workload is a closed loop with one caller: ``requests(state, seed, k)``
returns the operations of pass ``k``, and the runner starts each only after
the previous one has finished.  An operation (a request) returns the list of
its failures; an empty list means every output was checked and correct.
Points are drawn with ``sweep.random_points`` from a seed derived from the
run's seed, the pass and the request, so every pass sees fresh points and
the same run seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from biconserve import catalog, cli, immersion, sweep

HEADLINE_BOX = ((0.6, 1.4), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))
EX41_PARAMS = {"a": 1.0, "b": 2.0}
SOLVED = {"solve_psi": True, "c": 1.0}
CONTROL = {"psi": "s^2"}
SOLVED_CHECKS = ["biconservative", "principal_direction", "unit_normal", "structure"]

# acceptance criterion 1 and 4
BICONSERVATIVE_PASS = 1e-6
BICONSERVATIVE_FAIL = 1e-3
# acceptance criterion 6: relative shape-operator defect, jets vs differences
S_DEFECT = 1e-5
# acceptance criterion 3
IDENTITY_TOL = {"beltrami": 1e-7, "gauss": 1e-6, "codazzi": 1e-6, "unit_normal": 1e-9}


@dataclass
class Request:
    label: str
    points: int
    run: Callable[[], list]


@dataclass
class Workload:
    name: str
    setup: Callable[[], object]
    requests: Callable[[object, int, int], list]
    sizes: dict


def sub_seed(*key: int) -> int:
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def chart_spec(key: str) -> catalog.FamilySpec:
    family, _, case = key.partition(".")
    profiles = dict(SOLVED) if key == "ex41" else {}
    return catalog.FamilySpec(family, case, profiles=profiles)


# -- verify_grid -----------------------------------------------------------


def verify_request(points: int, seed: int, solved: bool, expect_exit: int | None = None,
                   box=HEADLINE_BOX) -> Request:
    """One ``run_verify`` request on ex41: the solved profile or the negative control."""
    if expect_exit is None:
        expect_exit = 0 if solved else 1

    def run():
        req = cli.VerifyRequest(
            target="ex41", parameters=dict(EX41_PARAMS),
            profiles=dict(SOLVED if solved else CONTROL),
            grid=[[lo, hi, 5] for lo, hi in box], random_points=points, seed=seed,
            checks=list(SOLVED_CHECKS) if solved else [], jobs=1)
        report, code = cli.run_verify(req)
        checks = {c["name"]: c for c in report["checks"]}
        bc = checks.get("biconservative", {}).get("max", float("nan"))
        failures = []
        if code != expect_exit:
            failures.append(f"exit code {code}, expected {expect_exit}")
        if solved:
            labels = report["spectral"].get("labels")
            if labels != {"I": points}:
                failures.append(f"labels {labels}, expected {{'I': {points}}}")
            if not bc < BICONSERVATIVE_PASS:
                failures.append(f"biconservative max {bc:.3e} not below {BICONSERVATIVE_PASS:g}")
        elif not bc > BICONSERVATIVE_FAIL:
            failures.append(f"control biconservative max {bc:.3e} not above {BICONSERVATIVE_FAIL:g}")
        return failures

    return Request("ex41 solved" if solved else "ex41 control", points, run)


def verify_grid(points: int = 625) -> Workload:
    def setup():
        for profiles in (SOLVED, CONTROL):
            catalog.build(catalog.FamilySpec("ex41", parameters=dict(EX41_PARAMS),
                                             profiles=dict(profiles)))
        return None

    def requests(state, seed, k):
        return [verify_request(points, sub_seed(seed, k, 0), solved=True),
                verify_request(points, sub_seed(seed, k, 1), solved=False)]

    return Workload("verify_grid", setup, requests,
                    {"requests_per_pass": 2, "points_per_request": points})


# -- fd_oracle -------------------------------------------------------------


def s_defect(chart, p) -> float:
    pk = immersion.packet(chart, p)
    fpk = immersion.packet_fd(chart, p)
    scale = np.maximum(np.abs(pk.S), 1.0)
    return float(np.max(np.abs(pk.S - fpk.S) / scale))


def fd_request(key, chart, points: np.ndarray) -> Request:
    def run():
        failures = []
        for p in points:
            d = s_defect(chart, p)
            if not d < S_DEFECT:
                failures.append(f"{key} at {tuple(p)}: S defect {d:.3e} not below {S_DEFECT:g}")
        return failures

    return Request(key, len(points), run)


def fd_oracle(points_per_chart: int = 4, keys=None) -> Workload:
    keys = keys or [k for k in catalog.all_keys() if catalog.CATALOG[k].kind == "hypersurface"]

    def setup():
        return [(k, catalog.build(chart_spec(k))) for k in keys]

    def requests(charts, seed, k):
        return [fd_request(key, chart, sweep.random_points(chart.domain, points_per_chart,
                                                           sub_seed(seed, k, i)))
                for i, (key, chart) in enumerate(charts)]

    return Workload("fd_oracle", setup, requests,
                    {"charts": len(keys), "points_per_chart": points_per_chart})


# -- catalog_identities ------------------------------------------------------


def identity_residuals(chart, p) -> dict:
    """Criterion-3 residuals at one point, plus the metric index found there."""
    if chart.codim == 1:
        pk = immersion.packet(chart, p)
        w = chart.signature.weights
        out = {"unit_normal": abs(float(np.dot(w * pk.N.components, pk.N.components)) - 1.0)}
    else:
        pk = immersion.submanifold_packet(chart, p)
        out = {}
    out["beltrami"] = immersion.beltrami_residual(chart, p, pk)
    out["gauss"], out["codazzi"] = immersion.gauss_codazzi_residual(chart, p, pk)
    out["index"] = int(np.sum(np.linalg.eigvalsh(pk.G) < 0))
    return out


def identity_request(key, chart, points: np.ndarray, tol=None) -> Request:
    tol = IDENTITY_TOL if tol is None else tol

    def run():
        failures = []
        for p in points:
            res = identity_residuals(chart, p)
            if res.pop("index") != chart.expected_index:
                failures.append(f"{key} at {tuple(p)}: metric index != {chart.expected_index}")
            for name, value in res.items():
                if not value < tol[name]:
                    failures.append(f"{key} at {tuple(p)}: {name} {value:.3e} "
                                    f"not below {tol[name]:g}")
        return failures

    return Request(key, len(points), run)


def catalog_identities(points_per_chart: int = 20, keys=None) -> Workload:
    keys = keys or catalog.all_keys()

    def setup():
        return [(k, catalog.build(chart_spec(k))) for k in keys]

    def requests(charts, seed, k):
        return [identity_request(key, chart, sweep.random_points(chart.domain, points_per_chart,
                                                                 sub_seed(seed, k, i)))
                for i, (key, chart) in enumerate(charts)]

    return Workload("catalog_identities", setup, requests,
                    {"charts": len(keys), "points_per_chart": points_per_chart})


WORKLOADS = {
    "verify_grid": verify_grid,
    "fd_oracle": fd_oracle,
    "catalog_identities": catalog_identities,
}
