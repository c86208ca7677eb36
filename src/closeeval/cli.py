"""Command-line front end: run an error study of any problem, 2D, 3D or hg
(``hg`` is another name for ``run``), and fit orders from saved CSVs.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written is one), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bie3d import _atomic_write
from .harness import (ConfigError, NumericalError, _check_window, _make_dir,
                      _run_window, apply_overrides, dump_fits, fit_results,
                      load_config, read_results_csv, run_error_map)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closeeval",
        description="Close-evaluation error studies for double-layer "
                    "potentials in 2D and 3D.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", aliases=["hg"],
                           help="run an error study from a config")
    run_p.add_argument("config", help="JSON study configuration")
    run_p.add_argument("--n", type=int, metavar="N",
                       help="override the solver resolution")
    run_p.add_argument("--eps-range", metavar="LO:HI:K",
                       help="override eps values: K points per decade")
    run_p.add_argument("--methods", metavar="M1,M2,...",
                       help="override the method list")
    run_p.add_argument("--out", metavar="DIR", help="override the output dir")
    run_p.add_argument("--cache", metavar="DIR", help="override the cache dir")
    run_p.set_defaults(handler=_cmd_study)

    fit_p = sub.add_parser("fit", help="fit convergence orders from a CSV")
    fit_p.add_argument("csv", help="results.csv written by a previous run")
    fit_p.add_argument("--eps-range", metavar="LO:HI[:K]",
                       help="fit window (per-decade part ignored); default "
                            "the window of the run that wrote the CSV")
    fit_p.add_argument("--out", metavar="DIR",
                       help="write fits.json here instead of stdout")
    fit_p.set_defaults(handler=_cmd_fit)
    return parser


def _print_result(result) -> None:
    print(f"rows: {result.row_count}  rejections: {len(result.rejections)}")
    if result.config.out_dir:
        print(f"output: {os.path.abspath(result.config.out_dir)}")
    for f in result.fits:
        print(f"target={f.target} method={f.method} slope={f.slope:.4f} "
              f"points={f.n_points} range=[{f.fit_lo:g}, {f.fit_hi:g}]")


def _cmd_study(args) -> int:
    _print_result(run_error_map(apply_overrides(
        load_config(args.config), n=args.n, eps_range=args.eps_range,
        methods=args.methods, out=args.out, cache=args.cache)))
    return 0


def _fit_window(text: str) -> tuple:
    """(lo, hi) read from 'LO:HI' or 'LO:HI:K'; K is ignored."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("fit window must look like LO:HI[:K]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad fit window {text!r}: {exc}") from None
    _check_window("fit window", lo, hi)
    return lo, hi


def _cmd_fit(args) -> int:
    window = _fit_window(args.eps_range) if args.eps_range else None
    rows = read_results_csv(args.csv)
    # fit_results keeps the file's order, the order the run wrote its fits in
    fits = fit_results(rows, *(window or _run_window(rows)))
    if args.out:
        _make_dir(args.out)
        path = os.path.join(args.out, "fits.json")
        with _atomic_write(path) as fh:
            dump_fits(fits, fh)
        print(f"wrote {path}")
    else:
        dump_fits(fits, sys.stdout)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a range such as "-1:1e-1:5" joins its flag, or argparse reads an option
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        if ("--eps-range".startswith(flag) and len(flag) > 2 and ":" in value
                and value.startswith("-") and not value.startswith("--")):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # every read reports its own ConfigError: this is an output file or
        # directory that cannot be written or removed
        print(f"config error: cannot write {exc.filename}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
