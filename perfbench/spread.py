"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads verify_grid,fd_oracle --seeds 10
    python3 perfbench/spread.py --seeds 1    # every workload once
    python3 perfbench/spread.py --seeds 10 --sets 2 --first-seed 11 \
        --baseline perfbench/baseline.json

For every end-to-end metric, and for the raw (unscaled) ``points_per_s``
and ``verify_s_p50``, it prints the median of the runs and the distance
between the first and third quartile as a share of that median, next to the
metric's bound from BENCHMARK.json.  With ``--sets 2`` it makes a second,
separate set of runs on fresh seeds and reports how much worse each median
of the second set is than the first's.  ``--baseline FILE`` also makes one
traced run per workload and writes the environment, every run, the medians,
the spreads, the agreement and the per-layer metrics to FILE, keeping the
``"calibration"`` entry that ``calibrate.py`` stored there.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """One run; returns its JSON line plus its wall time and its record."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    record = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def run_set(spec: dict, workload: str, seeds) -> dict:
    """Untraced runs over ``seeds``: every run, each metric's median and spread."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds:
        r = run_once(spec, workload, seed)
        runs.append(r)
        vals = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{workload} seed={seed} correct={r['correct']} failed_ops_frac="
              f"{r['record']['failed_ops_frac']:g} wall={r['run_wall_s']:.1f}s {vals}",
              flush=True)
    out = {
        "seeds": list(seeds),
        "runs": [{"seed": r["record"]["environment"]["seed"], "correct": r["correct"],
                  "attempted": r["attempted"], "failed": r["failed"],
                  "run_wall_s": r["run_wall_s"],
                  "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                  "setup_samples_s": r["record"]["setup_samples_s"],
                  "raw_points_per_s": r["record"]["raw_points_per_s"],
                  "raw_verify_s_p50": r["record"]["raw_verify_s_p50"]} for r in runs],
    }
    if len(runs) < 2:
        return out
    summary = {}
    for name, bound in bounds.items():
        med, rel = spread([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"median": med, "iqr_frac": rel, "bound": bound}
        print(f"  {workload:<20} {name:<16} median={med:<12.6g} iqr/median={rel:.4f} "
              f"bound={bound} {'ok' if rel < bound / 3 else 'WIDE'}", flush=True)
    for name in ("raw_points_per_s", "raw_verify_s_p50"):
        med, rel = spread([r["record"][name] for r in runs])
        summary[name] = {"median": med, "iqr_frac": rel}
        print(f"  {workload:<20} {name:<16} median={med:<12.6g} iqr/median={rel:.4f} "
              f"(wall time, not scaled)", flush=True)
    out["summary"] = summary
    return out


def agreement(spec: dict, first: dict, second: dict) -> dict:
    """How much worse the second set's median is than the first's, per metric."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"worse_frac": worse, "bound": m["bound"], "ok": worse <= m["bound"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1, help="separate sets of runs, in turn")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--baseline", help="write runs, medians and spreads to this file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sets = {name: [] for name in names}
    for i in range(args.sets):
        first = args.first_seed + i * args.seeds
        for workload in names:
            sets[workload].append(run_set(spec, workload, range(first, first + args.seeds)))
    out = {}
    for workload in names:
        out[workload] = {"sets": sets[workload]}
        if len(sets[workload]) > 1 and all("summary" in s for s in sets[workload]):
            agree = agreement(spec, sets[workload][0]["summary"], sets[workload][-1]["summary"])
            out[workload]["agreement"] = agree
            for name, a in agree.items():
                print(f"  {workload:<20} {name:<16} second set worse by {a['worse_frac']:+.4f} "
                      f"bound={a['bound']} {'ok' if a['ok'] else 'FAIL'}", flush=True)
        if args.baseline:
            traced = run_once(spec, workload, args.first_seed, trace=1)
            out[workload]["environment"] = traced["record"]["environment"]
            out[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            out[workload]["traced_correct"] = traced["correct"]
    if args.baseline:
        path = pathlib.Path(args.baseline)
        old = json.loads(path.read_text()) if path.exists() else {}
        if "calibration" in old:
            out["calibration"] = old["calibration"]
        path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
