"""Command-line front end: run error studies, fit orders from saved CSVs,
and run the forward-peaked scattering consistency study.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bie3d import _atomic_write
from .harness import (ConfigError, NumericalError, apply_overrides,
                      dump_fits, fit_results, load_config, parse_eps_range,
                      read_results_csv, run_error_map, run_hg_study)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closeeval",
        description="Close-evaluation error studies for double-layer "
                    "potentials in 2D and 3D.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an error study from a config")
    run_p.add_argument("config", help="JSON study configuration")
    _add_shared_flags(run_p)

    fit_p = sub.add_parser("fit", help="fit convergence orders from a CSV")
    fit_p.add_argument("csv", help="results.csv written by a previous run")
    fit_p.add_argument("--eps-range", metavar="LO:HI[:K]",
                       help="fit window (per-decade part ignored)")
    fit_p.add_argument("--out", metavar="DIR",
                       help="write fits.json here instead of stdout")

    hg_p = sub.add_parser("hg", help="run the scattering expansion study")
    hg_p.add_argument("config", help="JSON study configuration")
    hg_p.add_argument("--eps-range", metavar="LO:HI:K")
    hg_p.add_argument("--out", metavar="DIR")
    return parser


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, metavar="N",
                   help="override the solver resolution")
    p.add_argument("--eps-range", metavar="LO:HI:K",
                   help="override eps values: K points per decade")
    p.add_argument("--methods", metavar="M1,M2,...",
                   help="override the method list")
    p.add_argument("--out", metavar="DIR", help="override the output dir")
    p.add_argument("--cache", metavar="DIR", help="override the cache dir")


def _print_result(result) -> None:
    print(f"rows: {result.row_count}  rejections: {len(result.rejections)}")
    if result.config.out_dir:
        print(f"output: {os.path.abspath(result.config.out_dir)}")
    for f in result.fits:
        print(f"target={f.target} method={f.method} slope={f.slope:.4f} "
              f"points={f.n_points} range=[{f.fit_lo:g}, {f.fit_hi:g}]")


def _cmd_run(args) -> int:
    config = apply_overrides(load_config(args.config), n=args.n,
                             eps_range=args.eps_range, methods=args.methods,
                             out=args.out, cache=args.cache)
    _print_result(run_error_map(config))
    return 0


def _cmd_fit(args) -> int:
    lo, hi = 1e-6, 1e-2
    if args.eps_range:
        parts = args.eps_range.split(":")
        if len(parts) == 2:
            parts.append("25")
        grid = parse_eps_range(":".join(parts))
        lo, hi = min(grid), max(grid)
    fits = fit_results(read_results_csv(args.csv), lo=lo, hi=hi)
    fits.sort(key=lambda f: (f.target, f.method))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fits.json")
        with _atomic_write(path) as fh:
            dump_fits(fits, fh)
        print(f"wrote {path}")
    else:
        dump_fits(fits, sys.stdout)
    return 0


def _cmd_hg(args) -> int:
    config = apply_overrides(load_config(args.config),
                             eps_range=args.eps_range, out=args.out)
    _print_result(run_hg_study(config))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "fit": _cmd_fit, "hg": _cmd_hg}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
