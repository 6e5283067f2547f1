"""Check that the reference kernel slows down as the program does.

    python3 perfbench/calibrate.py --seconds 15 --baseline perfbench/baseline.json

The end-to-end times are scaled by the kernel of ``reference.py``.  That is
only sound while the kernel and the program slow down together when other
work shares the host.  This script alternates batches of the kernel with
calls of ``immersion.packet`` and ``immersion.packet_fd`` on thm3.i, in four
phases of ``--seconds`` each: alone, next to one process that streams
memory, next to one that makes small numpy calls, and next to two of those
(more runnable processes than the 2 cores).  Each program time is paired
with the mean kernel time of the batches just before and after it.

It prints, per phase, the median kernel time and the median raw and scaled
``packet`` and ``packet_fd`` times: where the kernel tracks the program, the
scaled medians stay level while the raw ones rise.  Over all pairs it also
fits log(program time) against log(kernel time); noise in the kernel times
pulls that slope below its true value.  With ``--baseline FILE`` the result,
every (kernel s, program s) pair included, is stored under
``"calibration"`` in FILE.
Re-run it when the program's mix of work changes, for instance when jets
become batched arrays.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np

from reference import REFERENCE_S, kernel
from run import import_biconserve

KERNEL_BATCH = 50
PHASES = {
    "alone": [],
    "memory": ["memory"],
    "numpy_calls": ["calls"],
    "two_numpy_calls": ["calls", "calls"],
}
COMPETITORS = {
    # about 16 MB of arrays copied over and over
    "memory": "import numpy as np\na = np.ones(2_000_000)\nwhile True:\n    b = a.copy()\n",
    # small numpy calls, like the program's own
    "calls": "import numpy as np\na = np.ones(35)\nwhile True:\n    a = np.sqrt(a * a + 1.0) - 1.0\n",
}


def kernel_s() -> float:
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(KERNEL_BATCH):
        kernel()
    t = (time.perf_counter() - t0) / KERNEL_BATCH
    gc.enable()
    return t


def phase(programs: dict, seconds: float) -> dict:
    """Pairs (kernel s, program s per call) for each program, for ``seconds``."""
    pairs = {name: [] for name in programs}
    end = time.perf_counter() + seconds
    k_before = kernel_s()
    while time.perf_counter() < end:
        for name, (fn, reps) in programs.items():
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            prog = (time.perf_counter() - t0) / reps
            k_after = kernel_s()
            pairs[name].append(((k_before + k_after) / 2.0, prog))
            k_before = k_after
    return pairs


def fit(pairs) -> dict:
    x = np.log([k for k, _ in pairs])
    y = np.log([p for _, p in pairs])
    slope = float(np.polyfit(x, y, 1)[0])
    return {"pairs": len(pairs), "slope": slope, "r": float(np.corrcoef(x, y)[0, 1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=15.0, help="length of each phase")
    ap.add_argument("--baseline", help="store the result under 'calibration' in this file")
    args = ap.parse_args(argv)

    wmod = import_biconserve()
    from biconserve import catalog, immersion, sweep

    chart = catalog.build(wmod.chart_spec("thm3.i"))
    p = sweep.random_points(chart.domain, 1, 0)[0]
    programs = {"packet": (lambda: immersion.packet(chart, p), 5),
                "packet_fd": (lambda: immersion.packet_fd(chart, p), 1)}

    pairs = {name: [] for name in programs}
    phases = {}
    for label, kinds in PHASES.items():
        procs = [subprocess.Popen([sys.executable, "-c", COMPETITORS[k]]) for k in kinds]
        try:
            time.sleep(0.5 if procs else 0.0)
            got = phase(programs, args.seconds)
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        row = {}
        for name, xs in got.items():
            pairs[name].extend(xs)
            row[f"{name}_ms"] = 1e3 * statistics.median(prog for _, prog in xs)
            row[f"{name}_scaled_ms"] = 1e3 * statistics.median(
                prog * REFERENCE_S / k for k, prog in xs)
        row["kernel_us"] = 1e6 * statistics.median(k for k, _ in got["packet"])
        phases[label] = row
        print(f"{label:<16} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)

    result = {"chart": "thm3.i", "phase_seconds": args.seconds, "phases": phases,
              "fit": {name: fit(xs) for name, xs in pairs.items()},
              "pairs_s": {name: [[k, prog] for k, prog in xs] for name, xs in pairs.items()}}
    for name, f in result["fit"].items():
        print(f"{name:<16} log-log slope against the kernel {f['slope']:.3f}, "
              f"r {f['r']:.3f}, {f['pairs']} pairs")
    if args.baseline:
        path = pathlib.Path(args.baseline)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["calibration"] = result
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
