"""Command-line interface: the argument types, the parser and `main`.

Subcommands: estimate and weakivtest consume a CSV file with named column
bindings; simulate and curves run the Monte Carlo on a design file (or
shipped design name); nagar gives a design's closed-form concentrations and
Nagar biases; compare contrasts the 2SLS and GMMf Nagar biases over random
designs. `main` parses the arguments, then imports `weakiv.commands` and runs
the subcommand's handler `cmd_<subcommand>`, which writes its output as a
table, csv or json. Exit codes: 0 ok, 2 usage, input or file error, 3
numerical failure. Runs are deterministic given the seed.

This module loads only argparse and the package's errors, so --version,
--help and usage errors compile no handler and load neither json nor numpy;
each handler imports the numeric modules it runs.
"""

import argparse
import sys

from . import __version__, available_designs
from .errors import InputError, NumericalError

__all__ = ["main"]


def _bounded_float(name):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number") from None
        if not 0.0 < value < 1.0:
            raise argparse.ArgumentTypeError(
                f"{name} must be strictly between 0 and 1, got {text}"
            )
        return value

    return parse


def _positive_int(name):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1")
        return value

    return parse


def _scale_list(text):
    try:
        scales = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "scales must be a comma-separated list of numbers"
        ) from None
    if not scales:
        raise argparse.ArgumentTypeError("scales must not be empty")
    if any(s <= 0 for s in scales):
        raise argparse.ArgumentTypeError("scales must be positive")
    return scales


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
        "--tau", type=_bounded_float("tau"), default=0.10,
        help="worst-case relative bias tolerance (default 0.10)",
    )
    test_parent.add_argument(
        "--alpha", type=_bounded_float("alpha"), default=0.05,
        help="test level (default 0.05)",
    )
    test_parent.add_argument(
        "--benchmark", choices=("mop", "ls"), default="ls",
        help="bias benchmark (default ls)",
    )
    test_parent.add_argument(
        "--method", choices=("patnaik", "mc"), default="patnaik",
        help="critical-value method (default patnaik)",
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
    p_test.add_argument(
        "--seed", type=int, default=0, help="seed for the mc critical value"
    )

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
        "--reps", type=_positive_int("reps"), default=2000,
        help="number of replications (default 2000)",
    )
    sim_parent.add_argument("--seed", type=int, default=0)
    sim_parent.add_argument(
        "--workers", type=_positive_int("workers"), default=None,
        help="worker processes (default: WEAKIV_WORKERS or 1; at most the "
        "CPU count)",
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
        "--scales", type=_scale_list, required=True,
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
        "--count", type=_positive_int("count"), default=1000,
        help="accepted designs to compare (default 1000)",
    )
    p_cmp.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
