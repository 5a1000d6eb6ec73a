"""Command-line front end: equalization experiments and gradient checks.

Exit codes are a stable contract for scripting, all set in `main`: 0 on
success, 1 when a check or experiment fails, 2 on argument or I/O
errors, 130 on Ctrl-C.
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
    """Parse argv into the parser's flags; `run_equalize` builds the objects they describe."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "equalize" and args.algorithm == "all" and args.mu is not None:
        parser.error("--mu cannot be combined with --algorithm all; per-algorithm defaults apply")
    return args


def _config_comment(args: argparse.Namespace, mu_map: dict) -> str:
    # the equalize flags in parser order; --mu is echoed per algorithm
    parts = [f"{name}={value}" for name, value in vars(args).items() if name not in ("subcommand", "mu")]
    parts += [f"mu_{algo.replace('-', '_')}={mu_map[algo]!r}" for algo in channel.ALGORITHMS]
    return "# " + " ".join(parts)


def emit_csv(curves: dict, comment: str, path) -> None:
    """Write learning curves: header line, config comment, then one row per (iteration, algorithm) with the
    algorithms interleaved per n. A regular or new file is written beside itself and renamed into place, so an
    error or Ctrl-C leaves the old file or the whole new one; a symlink or FIFO is written in place; stdout via fd 1."""
    import os

    names = [a for a in channel.ALGORITHMS if a in curves]
    if not names or len(names) != len(curves):
        raise ValueError(f"expected curves named among {channel.ALGORITHMS}, got {sorted(curves)}")
    length = len(curves[names[0]].mse)
    try:  # this process's stdout, by any name, is written through fd 1 after what was printed to it
        stdout = os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such file yet, or no stdout
        stdout = False
    replace = not stdout and not os.path.islink(path) and (os.path.isfile(path) or not os.path.exists(path))
    tmp = f"{path}.{os.getpid()}.tmp" if replace else path
    if stdout:
        sys.stdout.flush()
    fh = open(1 if stdout else tmp, "x" if replace else "w", encoding="utf-8", newline="\n", closefd=not stdout)
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            fh.write(comment + "\n")
            # an item of a memoryview is a Python float, which formats as a numpy scalar does at a fraction of the cost
            columns = [(a, *map(memoryview, (curves[a].mse, curves[a].mse_db, curves[a].dict_size))) for a in names]
            for n in range(length):
                for name, mse, mse_db, size in columns:
                    fh.write(f"{n},{name},{mse[n]:.12e},{mse_db[n]:.12e},{size[n]:.12g}\n")
        if replace:
            if os.path.exists(path):  # a replaced file keeps its permission bits; a new one took the umask's
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, path)
    except BaseException:
        if replace:
            os.remove(tmp)
        raise


def run_equalize(args: argparse.Namespace) -> int:
    algos = list(channel.ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    mu_map = dict(channel.DEFAULT_MU)
    if args.mu is not None:
        mu_map[args.algorithm] = args.mu
    config = channel.ChannelConfig(snr_db=args.snr_db, rho=args.rho)
    kernel = RealKernel.gaussian(args.sigma) if args.kernel == "gaussian" else RealKernel.polynomial(args.degree)
    curves = channel.run_experiment(
        algos,
        config,
        L=args.filter_length,
        D=args.delay,
        n_samples=args.samples,
        runs=args.runs,
        mu=mu_map,
        kernel=kernel,
        novelty=NoveltyCriterion(args.novelty_d1, args.novelty_d2),
        seed=args.seed,
        smooth=args.smooth,
    )
    try:
        emit_csv(curves, _config_comment(args, mu_map), args.output)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    for name in algos:
        tail = curves[name].mse[-min(500, len(curves[name].mse)) :]
        mean_tail = float(tail.mean())
        db = 10.0 * math.log10(mean_tail) if mean_tail > 0 else float("-inf")
        extra = f"  final dictionary {curves[name].dict_size[-1]:.1f}" if name == "cklms" else ""
        print(f"{name:<9s} steady-state mse {mean_tail:.6e} ({db:+.2f} dB){extra}")
    print(f"wrote {args.output}")
    return 0


def run_gradcheck(seed: int) -> int:
    report = property_suite(rng_seed=seed)
    cost_reports = instantaneous_cost_check(rng_seed=seed)
    print(f"wirtinger property suite (seed {seed}, {report.trials} trials/property, tol {report.tol:g})")
    for result in report.results:
        print(f"  {result}")
        if not result.passed and result.witness is not None:
            print(f"       witness point: {result.witness}")
    worst = max(r.error for r in cost_reports)
    cost_ok = all(r.passed for r in cost_reports)
    print(
        f"kernel-cost gradient vs finite differences ({len(cost_reports)} trials, tol {cost_reports[0].tol:g})"
        f"  max err {worst:.3e}  {'PASS' if cost_ok else 'FAIL'}"
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
    try:
        return run_gradcheck(args.seed) if args.subcommand == "gradcheck" else run_equalize(args)
    except ValueError as exc:
        print(f"ckaf {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"ckaf {args.subcommand}: interrupted", file=sys.stderr)
        return 130
