#!/usr/bin/env python3
"""cpdhnf benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload nf-cokernel --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src`` directory.  Each measurement runs in a fresh worker process
(``worker.py``) with the BLAS thread count pinned to ``BLAS_THREADS``.

``--trace 0`` starts ``SETUPS - 1`` set-up-only workers and one measuring
worker and prints the end-to-end metrics: ``solve_s`` (median warm pass of
the measuring worker), and over the ``SETUPS`` fresh processes the median
``setup_s`` and the median ``peak_rss_mb`` (``ru_maxrss`` at the end of
set-up).  ``--trace 1`` starts one worker
whose warm passes run untraced and then traced, and prints the per-layer
metrics.  Every operation's output is checked; the last stdout line is the
JSON result and the exit code is 1 if any check failed.  A full record with
quartiles, the environment and any failures goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3
BLAS_THREADS = 1
BUDGET_S = 170          # the whole command must end within 180 s


def worker(args, mode, deadline, cold_pass=0, spans=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--trace", str(args.trace), "--cold-pass", str(cold_pass)]
    if spans:
        cmd += ["--spans", str(spans)]
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cpdhnf" / "__init__.py").is_file():
        print(f"perfbench: no cpdhnf package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        reports = [worker(args, "measure", deadline, spans=OUT / f"{tag}-spans.json")]
    else:
        # set-up-only worker k solves the draw of pass 1000 k cold (the
        # measuring worker never gets that far), so the median set-up time
        # does not hang on one draw's input-dependent branches
        reports = [worker(args, "setup", deadline, cold_pass=1000 * k)
                   for k in range(1, SETUPS)]
        reports.append(worker(args, "measure", deadline))
    main_report = reports[-1]
    passes = main_report["passes"]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [detail for r in reports for detail in r["failures"]]

    if args.trace:
        metrics = {name: {"value": main_report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in reports),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["setup_rss_mb"] for r in reports),
                            "unit": "MiB"},
        }
    q1, _, q3 = statistics.quantiles(passes, n=4)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": main_report["env"],
        "passes": passes, "solve_s_quartiles": [q1, q3],
        "setup_s_all": [r["setup_s"] for r in reports],
        "setup_rss_mb_all": [r["setup_rss_mb"] for r in reports],
        "measuring_worker_maxrss_mb": main_report["maxrss_mb"],
        "fail_ratio": failed / attempted, "failures": failures,
        "berr_excess_log10": main_report["berr_excess_log10"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("perfbench env " + json.dumps(main_report["env"]))
    print(f"perfbench {args.workload} seed={args.seed}: {len(passes)} warm passes, "
          f"mean {statistics.fmean(passes):.4f} s, median {statistics.median(passes):.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s; "
          f"fail_ratio {failed}/{attempted}; "
          f"berr_excess_log10 {main_report['berr_excess_log10']}")
    for detail in failures:
        print(f"perfbench FAILED {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
