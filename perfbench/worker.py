"""One fresh benchmark process: timed set-up, then warm passes.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
Set-up is everything from the first statement of this file to the end of
the first (cold) pass: importing cpdhnf with numpy and scipy, generating the
inputs of pass 0, and solving them while lazy caches such as the monomial
bases fill.  In ``measure`` mode warm passes follow until ``--seconds`` have
elapsed (at least ``MIN_PASSES``).  With ``--trace 1`` every warm pass is
solved twice on the same inputs, untraced and then traced, so the tracing
overhead is a paired difference.

Prints one JSON object as the last line of standard output.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(cp, ops):
    """Solve every operation in a closed loop; check them after the clock stops."""
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append(op.solve(cp))
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed operation
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
    elapsed = time.perf_counter() - start
    outcomes = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            outcomes.append(Outcome(False, f"{type(res).__name__}: {res}"))
        else:
            outcomes.append(op.check(res))
    return elapsed, outcomes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.berr_excess = -math.inf

    def add(self, outcomes):
        for out in outcomes:
            self.attempted += 1
            if not out.ok:
                self.failures.append(out.detail)
            if out.berr_excess_log10 is not None:
                self.berr_excess = max(self.berr_excess, out.berr_excess_log10)


def environment():
    import numpy as np
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--cold-pass", type=int, default=0,
                        help="index of the pass solved cold during set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write traced spans")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cpdhnf

    make = WORKLOADS[args.workload]
    tally = Tally()
    _, outcomes = run_pass(cpdhnf, make(cpdhnf, args.seed, args.cold_pass))
    setup_s = time.perf_counter() - START
    tally.add(outcomes)
    report = {"setup_s": setup_s, "setup_rss_mb": maxrss_mb()}
    if args.mode == "measure":
        report.update(measure(cpdhnf, make, args, tally))
        report["env"] = environment()
    report.update({
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:10],
        "berr_excess_log10": tally.berr_excess if tally.berr_excess > -math.inf else None,
        "maxrss_mb": maxrss_mb(),
    })
    print(json.dumps(report))


def measure(cp, make, args, tally):
    tracer = Tracer(cp) if args.trace else None
    plain, traced, stages = [], [], []
    deadline = time.perf_counter() + args.seconds
    j = 1
    while j <= MIN_PASSES or time.perf_counter() < deadline:
        ops = make(cp, args.seed, j)
        elapsed, outcomes = run_pass(cp, ops)
        plain.append(elapsed)
        tally.add(outcomes)
        if tracer is not None:
            with tracer.installed():
                elapsed, outcomes = run_pass(cp, ops)
            traced.append(elapsed)
            tally.add(outcomes)
            stages.extend(out.stages for out in outcomes if out.stages)
        j += 1
    out = {"passes": plain}
    if tracer is not None:
        with tracer.memory_probe():
            _, outcomes = run_pass(cp, make(cp, args.seed, 1))
        tally.add(outcomes)
        out["per_layer"] = layer_metrics(tracer, len(traced), stages)
        out["per_layer"]["berr_excess_log10"] = (
            tally.berr_excess if tally.berr_excess > -math.inf else 0.0)
        out["per_layer"]["trace.pass_s"] = statistics.median(traced)
        out["per_layer"]["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced, plain))
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    return out


if __name__ == "__main__":
    main()
