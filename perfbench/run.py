"""Pipeline benchmark for biconserve: one workload per run.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a separate traced run.  Every operation's output
is checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, sample counts and any failures, is written to
``.bench_out/`` in the checkout, together with the spans of a traced run.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

from reference import Probe

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_BUILDS = 3
MUL_REPS, MUL_BATCHES = 2000, 5  # Jet products per batch, batches per order

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
IMMERSION = ("packet", "packet_fd", "submanifold_packet", "beltrami_residual",
             "gauss_codazzi_residual", "biconservative_residual",
             "principal_direction_check")

clock = time.perf_counter


def import_biconserve():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "biconserve" / "__init__.py").is_file():
        raise SystemExit(f"error: no biconserve sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import biconserve
    if pathlib.Path(biconserve.__file__).resolve().parent != SRC / "biconserve":
        raise SystemExit(f"error: imported biconserve from {biconserve.__file__}")
    import workloads
    return workloads


def timed_setup(workload: str, sizes=None):
    """Import biconserve, then build the workload's charts ``SETUP_BUILDS`` times.

    The import is cold only once in a process, so each set-up is the import
    time plus one build.  Returns (the set-ups' seconds at reference speed,
    workloads module, workload, state).  ``sizes`` shrinks the workload for
    the benchmark's own tests.
    """
    with Probe() as probe:
        t0 = clock()
        wmod = import_biconserve()
        if workload not in wmod.WORKLOADS:
            raise SystemExit(f"error: unknown workload {workload!r}; "
                             f"choose from {', '.join(wmod.WORKLOADS)}")
        wl = wmod.WORKLOADS[workload](**(sizes or {}))
        import_s = probe.scaled(clock() - t0, 0, probe.mark())
        setups = []
        for _ in range(SETUP_BUILDS):
            lo, b0 = probe.mark(), clock()
            state = wl.setup()
            setups.append(import_s + probe.scaled(clock() - b0, lo, probe.mark()))
    return setups, wmod, wl, state


# -- the closed loop -----------------------------------------------------------


def run_request(req, tracer=None):
    """Run one operation; returns its failures.  Never raises."""
    from biconserve.errors import BiconserveError

    try:
        return tracer.span("bench.request", req.run) if tracer else req.run()
    except BiconserveError as exc:
        return [f"{req.label}: {type(exc).__name__}: {exc}"]
    except Exception as exc:  # an unexpected crash is a failed operation, not a dead run
        return [f"{req.label}: unexpected {type(exc).__name__}: {exc}\n"
                + traceback.format_exc()]


def run_pass(wl, state, seed: int, k: int, tracer=None, probe=None) -> dict:
    """One pass of requests.  Records each request's wall time, and with a
    probe also its time at reference speed."""
    t0 = clock()
    reqs = wl.requests(state, seed, k)
    walls, scaled, failures, failed = [], [], [], 0
    for req in reqs:
        lo = probe.mark() if probe else 0
        r0 = clock()
        found = run_request(req, tracer)
        wall = clock() - r0
        walls.append(wall)
        scaled.append(probe.scaled(wall, lo, probe.mark()) if probe else wall)
        failures.extend(found)
        failed += bool(found)
    return {"requests": walls, "scaled": scaled, "points": sum(r.points for r in reqs),
            "failed": failed, "failures": failures, "start": t0, "end": clock()}


def run_loop(wl, state, seed: int, seconds: float, tracer=None, probe=None,
             passes=None) -> list:
    """Whole passes until ``seconds`` is reached, to the nearest pass."""
    passes = list(passes or [])
    t0 = passes[0]["start"] if passes else clock()
    while True:
        if passes:
            last = passes[-1]
            if last["end"] - t0 + (last["end"] - last["start"]) / 2.0 > seconds:
                return passes
        passes.append(run_pass(wl, state, seed, len(passes), tracer, probe))


def tally(passes) -> dict:
    return {
        "attempted": sum(len(p["requests"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "points": sum(p["points"] for p in passes),
        "request_s": [w for p in passes for w in p["requests"]],
        "scaled_s": [w for p in passes for w in p["scaled"]],
        "failures": [f for p in passes for f in p["failures"]][:20],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return {"percentile": q, "value": cut}
    return None


# -- end-to-end run -------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, sizes=None):
    samples, wmod, wl, state = timed_setup(workload, sizes)
    with Probe() as probe:
        t = tally(run_loop(wl, state, seed, seconds, probe=probe))
    metrics = {
        "setup_s": statistics.median(samples),
        "points_per_s": t["points"] / sum(t["scaled_s"]),
        "verify_s_p50": statistics.median(t["scaled_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "setup_samples_s": samples,
        "failed_ops_frac": t["failed"] / t["attempted"],
        "verify_s_samples": len(t["scaled_s"]),
        "verify_s_tail": tail(t["scaled_s"]),
        "points": t["points"],
        "probe_samples": len(probe.samples),
        "raw_points_per_s": t["points"] / sum(t["request_s"]),
        "raw_verify_s_p50": statistics.median(t["request_s"]),
        "request_s": t["request_s"],
        "scaled_request_s": t["scaled_s"],
    }
    return wl, t, metrics, E2E_UNITS, extra


# -- traced run -----------------------------------------------------------------


def mul_us(order: int) -> float:
    """Median microseconds per Jet product at one order, in four variables."""
    import numpy as np
    from biconserve.jets import Jet, JetSpace

    space = JetSpace.get(4)
    rng = np.random.default_rng(order)
    a = Jet(space, order, rng.normal(size=space.ncoef[order]))
    b = Jet(space, order, rng.normal(size=space.ncoef[order]))
    per_call = []
    for _ in range(MUL_BATCHES):
        t0 = clock()
        for _ in range(MUL_REPS):
            a * b
        per_call.append(1e6 * (clock() - t0) / MUL_REPS)
    return statistics.median(per_call)


def pool_speedup(wmod, seed: int, points: int = 625) -> float:
    """Sweep time of one solved request at jobs=1 over its time at jobs=2."""
    from biconserve import catalog, sweep

    chart = catalog.build(catalog.FamilySpec("ex41", parameters=dict(wmod.EX41_PARAMS),
                                             profiles=dict(wmod.SOLVED)))
    pts = sweep.random_points(wmod.HEADLINE_BOX, points, wmod.sub_seed(seed, 1 << 20))
    wall = {}
    for jobs in (1, 2):
        t0 = clock()
        sweep.sweep(chart, pts, wmod.SOLVED_CHECKS, jobs=jobs)
        wall[jobs] = clock() - t0
    return wall[1] / wall[2]


def layer_metrics(tracer, setup_window, pass0, timed_window, counts0, counts1,
                  untraced_pass0_s):
    first = tracer.stats(pass0["start"], pass0["end"])
    timed = tracer.stats(*timed_window)
    setup = tracer.stats(*setup_window)
    whole = tracer.stats(setup_window[0], timed_window[1])
    npts = pass0["points"]

    def per_point(name):
        return first.get(name, (0, 0.0, 0.0))[0] / npts

    def mean(stats, name, field, scale):
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        return scale * (total if field == "total" else own) / calls if calls else 0.0

    m = {
        "jets.Jet.mul.calls_per_point":
            (counts1["jets.kernel.mul_into"] - counts0["jets.kernel.mul_into"]) / npts,
        "jets.Jet.new.calls_per_point":
            (counts1["jets.Jet.new"] - counts0["jets.Jet.new"]) / npts,
        "expr.jet_eval.calls_per_point": per_point("expr.jet_eval"),
        "expr.jet_eval.self_ms": mean(timed, "expr.jet_eval", "self", 1e3),
        "expr.eval_value.calls_per_point": per_point("expr.eval_value"),
        "expr.eval_value.us_per_call": mean(timed, "expr.eval_value", "total", 1e6),
        "expr.fd_partial.calls_per_point": per_point("expr.fd_partial"),
        "profiles.QuadratureProfile.build.s":
            mean(whole, "profiles.QuadratureProfile.build", "total", 1.0),
        "profiles.PsiSolution.build.s": mean(whole, "profiles.PsiSolution.build", "total", 1.0),
        "profiles.derivs.calls_per_point": per_point("profiles.derivs"),
        "catalog.build.calls": setup.get("catalog.build", (0, 0.0, 0.0))[0],
        "catalog.build.s": setup.get("catalog.build", (0, 0.0, 0.0))[1],
        "spectral.eigen_structure.ms_per_call":
            mean(timed, "spectral.eigen_structure", "total", 1e3),
        "sweep.sweep.s": mean(timed, "sweep.sweep", "total", 1.0),
        "sweep.summarize.s": mean(timed, "sweep.summarize", "total", 1.0),
        "cli.run_verify.self_s": mean(timed, "cli.run_verify", "self", 1.0),
        "trace.overhead_frac": (pass0["end"] - pass0["start"]) / untraced_pass0_s - 1.0,
    }
    for fn in IMMERSION:
        m[f"immersion.{fn}.ms_per_call"] = mean(timed, f"immersion.{fn}", "total", 1e3)
        m[f"immersion.{fn}.self_ms"] = mean(timed, f"immersion.{fn}", "self", 1e3)
    eig_calls = whole.get("spectral.eigen_structure", (0, 0.0, 0.0))[0]
    m["spectral.unresolved_frac"] = tracer.unresolved[0] / eig_calls if eig_calls else 0.0
    return m


def traced_run(workload: str, seed: int, seconds: float, sizes=None, pool_points: int = 625):
    _, wmod, wl, state = timed_setup(workload, sizes)
    from spans import Tracer

    # spans around the two untraced measurements, before any wrapper is installed
    tracer = Tracer()
    extra_metrics = {f"jets.mul_us.order{r}": tracer.span(f"jets.mul_us.order{r}", mul_us, r)
                     for r in range(1, 5)}
    extra_metrics["sweep.pool_speedup"] = tracer.span("sweep.pool_speedup", pool_speedup,
                                                      wmod, seed, pool_points)
    untraced0 = run_pass(wl, state, seed, 0)

    tracer.install()
    try:
        s0 = clock()
        state = tracer.span("bench.setup", wl.setup)
        s1 = clock()
        counts0 = {k: v[0] for k, v in tracer.counts.items()}
        pass0 = run_pass(wl, state, seed, 0, tracer)
        counts1 = {k: v[0] for k, v in tracer.counts.items()}
        passes = run_loop(wl, state, seed, seconds, tracer, passes=[pass0])
    finally:
        tracer.uninstall()
    t = tally([untraced0] + passes)
    metrics = layer_metrics(tracer, (s0, s1), pass0, (pass0["start"], passes[-1]["end"]),
                            counts0, counts1, untraced0["end"] - untraced0["start"])
    metrics.update(extra_metrics)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{workload}-seed{seed}-spans.npz"
    tracer.write(span_file, s0)
    extra = {"spans": len(tracer.start), "span_file": str(span_file.relative_to(ROOT)),
             "traced_wall_s": passes[-1]["end"] - pass0["start"], "points": t["points"]}
    return wl, t, metrics, LAYER_UNITS, extra


# -- environment and output ---------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import biconserve
    from biconserve.jets import backend_name

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "biconserve": biconserve.__version__,
        "jet_backend": backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "sizes": sizes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = traced_run if args.trace else untraced_run
    wl, t, metrics, units, extra = run(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, wl.sizes),
        "attempted": t["attempted"], "failed": t["failed"], "failures": t["failures"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps(record["environment"]))
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{'failed_ops_frac':<44} {extra['failed_ops_frac']:>14.6g} frac "
              f"({t['failed']} of {t['attempted']} operations)")
        for name in ("raw_points_per_s", "raw_verify_s_p50"):
            print(f"{name:<44} {extra[name]:>14.6g} {units[name[4:]]} (wall time, not scaled)")
        tail_s = extra["verify_s_tail"]
        print(f"{'verify_s samples':<44} {extra['verify_s_samples']:>14d}"
              + (f" (p{tail_s['percentile']} {tail_s['value']:.6g} s)" if tail_s else ""))
    for failure in t["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": t["failed"] == 0,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
