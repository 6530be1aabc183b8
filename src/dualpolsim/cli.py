"""Command-line interface.

Subcommands:

* ``table1``           XPD-to-correlation/spacing summary table as CSV
* ``cdf``              run a scenario config, write CDF/table CSVs
* ``spacing``          single equivalent-spacing query
* ``xpd-from-pattern`` per-port XPD of a pattern file at one azimuth

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
:func:`main` maps them once, by exception type: the three types in
``_NUMERIC_ERRORS`` give 3, and any other ``ValueError`` (``ConfigError``
and ``PatternFormatError`` included) or an ``OSError`` gives 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, correlation, harness, pattern

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    correlation.NoSolutionError,
    correlation.InvalidCorrelationError,
    np.linalg.LinAlgError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpolsim",
        description="Dual-polarization 2x2 MIMO link-level simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="XPD to correlation and equivalent spacing")
    p_table.add_argument("--xpd", metavar="DB[,DB...]", help="XPD values in dB",
                         default=",".join(map("{:g}".format, harness.DEFAULT_XPD_SWEEP_DB)))
    p_table.add_argument("--spread", type=float, default=harness.DEFAULT_SPREAD_DEG,
                         metavar="DEG", help="Laplacian AoD spread for the d_lap column")
    p_table.add_argument("--out", type=Path, default=None, metavar="FILE",
                         help="write CSV here instead of stdout")

    p_cdf = sub.add_parser("cdf", help="run a scenario and write CDF/table CSVs")
    p_cdf.add_argument("--config", type=Path, required=True, metavar="FILE")
    p_cdf.add_argument("--models", default=None, metavar="i,ii,iii,iv",
                       help="override the models listed in the config")
    p_cdf.add_argument("--out", type=Path, required=True, metavar="DIR")

    p_sp = sub.add_parser("spacing", help="equivalent antenna spacing for a correlation")
    p_sp.add_argument("--rho", type=float, required=True, metavar="R")
    p_sp.add_argument("--dist", choices=("iso", "lap"), default="iso")
    p_sp.add_argument("--spread", type=float, default=harness.DEFAULT_SPREAD_DEG,
                      metavar="DEG")
    p_sp.add_argument("--mean-aod", type=float, default=0.0, metavar="DEG")

    p_xpd = sub.add_parser("xpd-from-pattern", help="XPD of a pattern file at an azimuth")
    p_xpd.add_argument("--file", type=Path, required=True, metavar="F")
    p_xpd.add_argument("--azimuth", type=float, required=True, metavar="DEG")

    return parser


def _cmd_table1(args) -> int:
    xpd = harness._floats(args.xpd, "--xpd")
    harness._check_xpd_sweep(xpd, "--xpd")
    rows = harness._summary_table(xpd, args.spread)
    text = harness.format_table_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_cdf(args) -> int:
    scenario = harness.parse_scenario(harness._read_text(args.config))
    if args.models is not None:
        scenario = dataclasses.replace(scenario, models=harness._models(args.models))
    report = harness.run(scenario)
    written = harness.write_report(report, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_spacing(args) -> int:
    if args.dist == "iso":
        dist = correlation.AodDistribution.isotropic()
    else:
        dist = correlation.AodDistribution.laplacian(
            math.radians(args.mean_aod), math.radians(args.spread)
        )
    query = correlation.SpacingQuery(target_rho=args.rho, distribution=dist)
    d = correlation.equivalent_spacing(query)
    print(f"{d:.6f}")
    return EXIT_OK


def _cmd_xpd(args) -> int:
    if not math.isfinite(args.azimuth):
        raise harness.ConfigError(f"--azimuth: expected a finite angle, got {args.azimuth}")
    pat = harness._read_pattern(args.file)
    phi = math.radians(args.azimuth)
    for port, value in enumerate(pattern.xpd_at(pat, phi).tolist(), start=1):
        print(f"port{port}_xpd_db={10.0 * math.log10(value):.4f}")
    return EXIT_OK


_COMMANDS = {
    "table1": _cmd_table1,
    "cdf": _cmd_cdf,
    "spacing": _cmd_spacing,
    "xpd-from-pattern": _cmd_xpd,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the order is the rule: NoSolutionError and InvalidCorrelationError
    # subclass ValueError, so the numerical types must be caught first
    try:
        return _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
