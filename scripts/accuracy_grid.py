#!/usr/bin/env python3
"""Accuracy grid over unbalanced formats.

For every m+1 >= n+1 in the requested range, generates one random rank-r
instance with l+1 = r = min(bound(m, n, (d, 1)), m*n) and records the
backward error of both kernel paths, with and without Newton refinement.
Emits a CSV ready for plotting.
"""

import argparse
import csv
import math
import sys
import time
import warnings

import numpy as np

from cpdhnf import DecomposeOptions, certifiable_rank, decompose_with_info, random_cpd


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=10, help="largest m+1")
    parser.add_argument("--degree", type=int, default=2, help="x-degree d of the bound")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    warnings.simplefilter("ignore")
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["m1", "n1", "r", "seed", "kernel", "newton",
                     "backward_error", "runtime"])
    for m1 in range(2, args.max_dim + 1):
        for n1 in range(2, m1 + 1):
            m, n = m1 - 1, n1 - 1
            r = certifiable_rank(m, n, args.degree)
            if r < 1:
                continue
            for seed in range(args.seeds):
                tensor, _ = random_cpd((r, m1, n1), r, seed=seed)
                for kernel in ("svd", "eigs"):
                    for newton in (0, 3):
                        opts = DecomposeOptions(kernel=kernel, newton_iters=newton,
                                                seed=seed)
                        start = time.perf_counter()
                        try:
                            _, info = decompose_with_info(tensor, r, opts)
                            err = info["backward_error"]
                        except Exception as exc:  # noqa: BLE001 - recorded per row
                            print(f"({m1},{n1}) seed {seed} {kernel}: {exc}",
                                  file=sys.stderr)
                            err = math.nan
                        writer.writerow([m1, n1, r, seed, kernel, newton,
                                         f"{err:.17g}",
                                         f"{time.perf_counter() - start:.6f}"])
    if args.output:
        out.close()


if __name__ == "__main__":
    main()
