"""Command-line interface: the parser and `main`.

Subcommands: estimate and weakivtest consume a CSV file with named column
bindings; simulate and curves run the Monte Carlo on a design file (or
shipped design name); nagar gives a design's closed-form concentrations and
Nagar biases; compare contrasts the 2SLS and GMMf Nagar biases over random
designs. `main` parses the arguments, reads the settings through the
library's readers (`weakiv._settings`), then imports `weakiv.commands` and
runs the subcommand's handler `cmd_<subcommand>`, which writes its output as
a table, csv or json. Exit codes: 0 ok, 2 usage, input or file error, 3
numerical failure. Runs are deterministic given the seed.

This module loads only argparse, the package's errors and its settings, so
--version, --help, usage errors and bad settings compile no handler and load
neither json nor numpy; each handler imports the numeric modules it runs.
"""

import argparse
import sys

from . import __version__, _settings, available_designs
from .errors import InputError, NumericalError

__all__ = ["main"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakiv",
        description=(
            "Weak-instruments diagnostics for linear IV models with one "
            "endogenous regressor."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    data_parent = argparse.ArgumentParser(add_help=False)
    data_parent.add_argument("data", help="CSV file with a header row")
    data_parent.add_argument("--y", required=True, help="outcome column")
    data_parent.add_argument("--x", required=True, help="endogenous regressor column")
    data_parent.add_argument(
        "--z", action="append", required=True, help="instrument column (repeatable)"
    )
    data_parent.add_argument(
        "--controls", action="append", default=[],
        help="exogenous control column (repeatable; no intercept is added)",
    )
    data_parent.add_argument("--cluster", help="cluster id column")
    data_parent.add_argument(
        "--dof-correction", action="store_true",
        help="apply the finite-sample correction to the moment covariance",
    )

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument(
        "--format", choices=("csv", "table", "json"), default="table"
    )
    out_parent.add_argument("--out", help="output file (default: stdout)")

    test_parent = argparse.ArgumentParser(add_help=False)
    test_parent.add_argument(
        "--tau", default=_settings.TAU,
        help="worst-case relative bias tolerance, in (0, 1) (default %(default)s)",
    )
    test_parent.add_argument(
        "--alpha", default=_settings.ALPHA, help="test level, in (0, 1) (default %(default)s)"
    )
    test_parent.add_argument(
        "--benchmark", default=_settings.BENCHMARK,
        help=f"bias benchmark, {' or '.join(_settings.BENCHMARKS)} (default %(default)s)",
    )
    test_parent.add_argument(
        "--method", default=_settings.METHOD,
        help=f"critical-value method, {' or '.join(_settings.METHODS)} (default %(default)s)",
    )

    sub.add_parser(
        "estimate", parents=[data_parent, out_parent],
        help="OLS, 2SLS, and GMMf estimates with first-stage F-statistics",
    )

    p_test = sub.add_parser(
        "weakivtest", parents=[data_parent, test_parent, out_parent],
        help="weak-instruments tests for the 2SLS and GMMf estimators",
    )
    p_test.add_argument(
        "--stat", choices=("eff", "robust", "both"), default="both",
        help="which statistic to test (default both)",
    )
    p_test.add_argument("--seed", default=_settings.SEED, help="mc seed (default %(default)s)")

    design_parent = argparse.ArgumentParser(add_help=False)
    design_parent.add_argument(
        "design",
        help=(
            "design file path or shipped design name "
            f"({', '.join(available_designs())})"
        ),
    )
    sim_parent = argparse.ArgumentParser(add_help=False, parents=[design_parent])
    sim_parent.add_argument(
        "--reps", default=_settings.REPS,
        help=f"number of replications, 1 to {_settings.MAX_REPS} (default %(default)s)",
    )
    sim_parent.add_argument("--seed", default=_settings.SEED, help="seed (default %(default)s)")
    sim_parent.add_argument(
        "--workers", default=_settings.WORKERS,
        help="worker processes (default %(default)s; at most the CPU count)",
    )

    sub.add_parser(
        "simulate", parents=[sim_parent, test_parent, out_parent],
        help="Monte Carlo summary of a grouped design",
    )

    p_cur = sub.add_parser(
        "curves", parents=[sim_parent, test_parent, out_parent],
        help="bias and rejection curves over first-stage scales",
    )
    p_cur.add_argument(
        "--scales", type=lambda text: [s for s in text.split(",") if s.strip()], required=True,
        help="comma-separated first-stage scales; each one replaces the "
        "design's scale_e (it is not a multiplier of it)",
    )

    sub.add_parser(
        "nagar", parents=[design_parent, out_parent],
        help="per-group concentrations and closed-form Nagar biases of a design",
    )

    p_cmp = sub.add_parser(
        "compare", parents=[out_parent],
        help="2SLS against GMMf Nagar bias over random grouped designs",
    )
    p_cmp.add_argument(
        "--count", default=_settings.COUNT, help="designs to compare (default %(default)s)"
    )
    p_cmp.add_argument("--seed", default=_settings.SEED, help="seed (default %(default)s)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _settings.read_args(args)
        from . import commands

        return getattr(commands, f"cmd_{args.subcommand}")(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # An OSError without a file name (a failed fork, say) is no input error.
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"weakiv: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"weakiv: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
