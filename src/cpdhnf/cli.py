"""Command-line front end.

Subcommands: ``decompose`` a tensor file, ``generate`` seeded random
instances, ``noise-sweep`` for plot-ready robustness data, ``certify``
for finite-field regularity certificates.
"""

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .config import NULLSPACE_METHODS, DecomposeOptions
from .errors import CpdError, RankOutOfRange
from .bigraded import certifiable_rank
from .recovery import add_noise, decompose_with_info
from .regcert import DEFAULT_PRIME, certify_regularity
from .tensors import COMPLEX, REAL, random_cpd
from .tensorio import read_tensor, write_tensor

RESULT_FORMAT = "cpdhnf-result v1"


def _parse_dims(text):
    dims = tuple(int(tok) for tok in text.split(","))
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("dimensions must be positive")
    return dims


def _parse_degree(text):
    if text == "auto":
        return None
    d, e = (int(tok) for tok in text.split(","))
    return (d, e)


def _parse_levels(text):
    if ":" in text:
        a, b = (int(tok) for tok in text.split(":"))
        step = 1 if b >= a else -1
        return list(range(a, b + step, step))
    return [int(tok) for tok in text.split(",")]


def _factor_payload(factors):
    out = []
    for f in factors:
        if np.iscomplexobj(f):
            out.append([[[float(z.real), float(z.imag)] for z in row] for row in f])
        else:
            out.append([[float(x) for x in row] for row in f])
    return out


def _emit(payload, path):
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_decompose(args):
    tensor = read_tensor(args.input)
    options = DecomposeOptions(
        degree=args.degree, kernel=args.kernel,
        newton_iters=args.newton, seed=args.seed,
    )
    dec, info = decompose_with_info(tensor, args.rank, options)
    # the rank-1 path fits no basis, so its result reads "basis_cond": null
    result = {"format": RESULT_FORMAT, "shape": list(tensor.shape), "rank": args.rank,
              "basis_cond": None, **info, "factors": _factor_payload(dec.factors)}
    _emit(result, args.output)
    return 0


def cmd_generate(args):
    scalars = COMPLEX if args.field == "complex" else REAL
    tensor, truth = random_cpd(args.dims, args.rank, seed=args.seed, scalars=scalars)
    write_tensor(args.output, tensor)
    if args.truth:
        payload = {
            "shape": list(tensor.shape),
            "rank": args.rank,
            "seed": args.seed,
            "field": scalars,
            "factors": _factor_payload(truth.factors),
        }
        _emit(payload, args.truth)
    return 0


def cmd_noise_sweep(args):
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    writer = csv.writer(out)
    writer.writerow(["e", "trial", "backward_error", "runtime"])
    try:
        for e in args.levels:
            for trial in range(args.trials):
                base = args.seed + 100003 * trial
                tensor, _ = random_cpd(args.dims, args.rank, seed=base)
                noisy = add_noise(tensor, e, seed=base + 1)
                options = DecomposeOptions(kernel=args.kernel, seed=base + 2)
                start = time.perf_counter()
                try:
                    err = decompose_with_info(noisy, args.rank, options)[1]["backward_error"]
                except CpdError as exc:
                    print(f"level {e} trial {trial} failed: {exc}", file=sys.stderr)
                    err = math.nan
                writer.writerow([e, trial, f"{err:.17g}",
                                 f"{time.perf_counter() - start:.6f}"])
    finally:
        if args.output:
            out.close()
    return 0


def cmd_certify(args):
    if args.sweep:
        mmax, nmax = (int(tok) for tok in args.sweep.split(","))
        if min(mmax, nmax) < 2:
            raise ValueError(f"sweep bounds must be at least 2, got {args.sweep}")
        cells = [(m1 - 1, n1 - 1) for m1 in range(2, mmax + 1)
                 for n1 in range(2, nmax + 1)]
    else:
        cells = [(args.m, args.n)]
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        ok = True
        for m, n in cells:
            r = args.r if args.r is not None else certifiable_rank(m, n, args.d)
            try:
                cert = certify_regularity(m, n, args.d, r, p=args.p,
                                          trials=args.trials, seed=args.seed)
            except RankOutOfRange as exc:
                cert = {"format": "cpdhnf-cert v1", "m": m, "n": n, "d": args.d,
                        "r": r, "p": args.p, "success": False, "error": str(exc)}
            ok = ok and cert.get("success", False)
            out.write(json.dumps(cert) + "\n")
        return 0 if ok else 2
    finally:
        if args.output:
            out.close()


def _build_parser():
    parser = argparse.ArgumentParser(prog="cpdhnf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=_parse_degree, default=None,
                   help="auto or D,E")
    p.add_argument("--kernel", choices=NULLSPACE_METHODS, default="auto")
    p.add_argument("--newton", type=int, default=3, help="most refinement steps; 0: none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--output", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("noise-sweep", help="noise robustness sweep (CSV)")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--levels", type=_parse_levels, required=True,
                   help="a:b inclusive range or comma list of exponents")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", choices=NULLSPACE_METHODS, default="auto")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("certify", help="finite-field regularity certificates")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=lambda s: None if s == "auto" else int(s),
                   default=None, help="rank or 'auto'")
    p.add_argument("--p", type=int, default=DEFAULT_PRIME)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweep", default=None, help="mmax,nmax cell sweep")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_certify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and not args.sweep and (args.m is None or args.n is None):
        parser.error("certify needs --m and --n, or --sweep")
    try:
        return args.func(args)
    except CpdError as exc:
        stage = exc.stage or "pipeline"
        detail = exc.args[0] if exc.args else str(exc)
        print(f"error[{stage}]: {exc.__class__.__name__}: {detail}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
