"""Command-line front end: equalization experiments and gradient checks.

Exit codes are a stable contract for scripting: 0 on success, 1 when a
check or experiment fails, 2 on argument or I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import channel
from .cklms import NoveltyCriterion
from .kernels import RealKernel
from .wirtinger import instantaneous_cost_check, property_suite

CSV_HEADER = "n,algorithm,mse,mse_db,dict_size"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ckaf", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    eq = sub.add_parser("equalize", help="run the nonlinear channel equalization benchmark")
    eq.add_argument("--algorithm", choices=(*channel.ALGORITHMS, "all"), default="all")
    eq.add_argument("--samples", type=int, default=5000)
    eq.add_argument("--runs", type=int, default=20)
    eq.add_argument("--rho", type=float, default=channel.DEFAULT_RHO)
    eq.add_argument("--snr-db", type=float, default=channel.ChannelConfig.snr_db)
    eq.add_argument("--mu", type=float, default=None, help="step size for the selected algorithm")
    eq.add_argument("--kernel", choices=("gaussian", "polynomial"), default="gaussian")
    eq.add_argument("--sigma", type=float, default=channel.DEFAULT_SIGMA)
    eq.add_argument("--degree", type=int, default=2)
    eq.add_argument("--filter-length", type=int, default=5)
    eq.add_argument("--delay", type=int, default=2)
    eq.add_argument("--novelty-d1", type=float, default=channel.DEFAULT_NOVELTY.delta1)
    eq.add_argument("--novelty-d2", type=float, default=channel.DEFAULT_NOVELTY.delta2)
    eq.add_argument("--seed", type=int, default=0)
    eq.add_argument("--smooth", type=int, default=1)
    eq.add_argument("--output", default="curves.csv")

    gc = sub.add_parser("gradcheck", help="run the Wirtinger-calculus property and gradient checks")
    gc.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse argv; for `equalize`, also build `config`, `real_kernel` and `novelty`
    (None for thresholds (0, 0)) from the flags, and exit 2 on a value they reject."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "equalize":
        if args.algorithm == "all" and args.mu is not None:
            parser.error("--mu cannot be combined with --algorithm all; per-algorithm defaults apply")
        try:
            args.config = channel.ChannelConfig(snr_db=args.snr_db, rho=args.rho)
            if args.kernel == "gaussian":
                args.real_kernel = RealKernel.gaussian(args.sigma)
            else:
                args.real_kernel = RealKernel.polynomial(args.degree)
            novelty = NoveltyCriterion(args.novelty_d1, args.novelty_d2)
        except ValueError as exc:
            parser.error(str(exc))
        args.novelty = novelty if novelty.delta1 > 0 or novelty.delta2 > 0 else None
    return args


def _config_comment(args: argparse.Namespace, mu_map: dict) -> str:
    # the equalize flags in parser order, the order a bare parse sets them in; --mu is echoed per algorithm
    flags = [name for name in vars(build_parser().parse_args(["equalize"])) if name not in ("subcommand", "mu")]
    parts = [f"{name}={getattr(args, name)}" for name in flags]
    parts += [f"mu_{algo.replace('-', '_')}={mu_map[algo]!r}" for algo in channel.ALGORITHMS]
    return "# " + " ".join(parts)


def emit_csv(curves: dict, comment: str, path) -> None:
    """Write learning curves: header line, config comment, then one row
    per (iteration, algorithm) with the algorithms interleaved per n."""
    names = [a for a in channel.ALGORITHMS if a in curves]
    if not names or len(names) != len(curves):
        raise ValueError(f"expected curves named among {channel.ALGORITHMS}, got {sorted(curves)}")
    length = len(curves[names[0]].mse)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(comment + "\n")
        for n in range(length):
            for name in names:
                c = curves[name]
                fh.write(
                    f"{n},{name},{c.mse[n]:.12e},{c.mse_db[n]:.12e},{c.dict_size[n]:.12g}\n"
                )


def run_equalize(args: argparse.Namespace) -> int:
    algos = list(channel.ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    mu_map = dict(channel.DEFAULT_MU)
    if args.mu is not None:
        mu_map[args.algorithm] = args.mu
    try:
        curves = channel.run_experiment(
            algos,
            args.config,
            L=args.filter_length,
            D=args.delay,
            n_samples=args.samples,
            runs=args.runs,
            mu=mu_map,
            kernel=args.real_kernel,
            novelty=args.novelty,
            seed=args.seed,
            smooth=args.smooth,
        )
    except ValueError as exc:
        print(f"ckaf equalize: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    try:
        emit_csv(curves, _config_comment(args, mu_map), args.output)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    for name in algos:
        tail = curves[name].mse[-min(500, len(curves[name].mse)) :]
        mean_tail = float(tail.mean())
        db = 10.0 * math.log10(mean_tail) if mean_tail > 0 else float("-inf")
        extra = ""
        if name == "cklms":
            extra = f"  final dictionary {curves[name].dict_size[-1]:.1f}"
        print(f"{name:<9s} steady-state mse {mean_tail:.6e} ({db:+.2f} dB){extra}")
    print(f"wrote {args.output}")
    return 0


def run_gradcheck(seed: int) -> int:
    try:
        report = property_suite(rng_seed=seed)
        cost_reports = instantaneous_cost_check(rng_seed=seed)
    except ValueError as exc:
        print(f"ckaf gradcheck: error: {exc}", file=sys.stderr)
        return 2
    print(f"wirtinger property suite (seed {seed}, {report.trials} trials/property, tol {report.tol:g})")
    for result in report.results:
        print(f"  {result}")
        if not result.passed and result.witness is not None:
            print(f"       witness point: {result.witness}")
    worst = max(r.error for r in cost_reports)
    cost_ok = all(r.passed for r in cost_reports)
    status = "PASS" if cost_ok else "FAIL"
    print(
        f"kernel-cost gradient vs finite differences "
        f"({len(cost_reports)} trials, tol {cost_reports[0].tol:g})  max err {worst:.3e}  {status}"
    )
    if report.all_passed and cost_ok:
        print("all checks passed")
        return 0
    print("CHECK FAILURES detected", file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.subcommand == "gradcheck":
        return run_gradcheck(args.seed)
    return run_equalize(args)
