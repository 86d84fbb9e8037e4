"""Command-line interface.

Subcommands: estimate and weakivtest consume a CSV file with named column
bindings; simulate and curves consume a design file (or shipped design name).
Exit codes: 0 ok, 2 usage or input error, 3 numerical failure. Table output
rounds to 3 decimals; csv and json carry full precision. Runs are
deterministic given the seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .data import load_csv, partial_out
from .errors import InputError, NumericalError
from .estimators import WeightSpec, estimate, estimate_moment_cov, ols
from .fstats import f_effective, f_nonrobust, f_robust
from .grouped_sim import available_designs, load_design, run_sim, sweep_scale
from .weak_test import weak_iv_test

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

    p_est = sub.add_parser(
        "estimate", parents=[data_parent, out_parent],
        help="OLS, 2SLS, and GMMf estimates with first-stage F-statistics",
    )
    p_est.set_defaults(func=cmd_estimate)

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
    p_test.set_defaults(func=cmd_weakivtest)

    sim_parent = argparse.ArgumentParser(add_help=False)
    sim_parent.add_argument(
        "design",
        help=(
            "design file path or shipped design name "
            f"({', '.join(available_designs())})"
        ),
    )
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

    p_sim = sub.add_parser(
        "simulate", parents=[sim_parent, test_parent, out_parent],
        help="Monte Carlo summary of a grouped design",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_cur = sub.add_parser(
        "curves", parents=[sim_parent, test_parent, out_parent],
        help="bias and rejection curves over first-stage scales",
    )
    p_cur.add_argument(
        "--scales", type=_scale_list, required=True,
        help="comma-separated first-stage scales; each one replaces the "
        "design's scale_e (it is not a multiplier of it)",
    )
    p_cur.set_defaults(func=cmd_curves)
    return parser


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(meta, results):
    return json.dumps({"meta": meta, "results": results}, indent=2) + "\n"


def _load(args):
    data = load_csv(
        args.data,
        y=args.y,
        x=args.x,
        z=args.z,
        controls=tuple(args.controls),
        cluster=args.cluster,
    )
    return partial_out(data), ("cluster" if args.cluster else "hc0")


def cmd_estimate(args):
    pd_, flavor = _load(args)
    kw = {"flavor": flavor, "dof_correction": args.dof_correction}
    results = {"estimates": {}, "fstats": {}}
    for label, maker in (
        ("ols", lambda: ols(pd_, **kw)),
        ("2sls", lambda: estimate(pd_, WeightSpec("2sls"), **kw)),
        ("gmmf", lambda: estimate(pd_, WeightSpec("gmmf"), **kw)),
    ):
        res = maker()
        results["estimates"][label] = {
            "beta": res.beta_hat,
            "se_robust": res.se_robust,
            "se_nonrobust": res.se_nonrobust,
        }
    cov = estimate_moment_cov(pd_, **kw)
    results["fstats"] = {
        "f": float(f_nonrobust(pd_)),
        "f_eff": float(f_effective(pd_, cov.v2v2)),
        "f_r": float(f_robust(pd_, cov.v2v2)),
    }
    meta = {
        "command": "estimate",
        "version": __version__,
        "data": args.data,
        "options": {
            "y": args.y, "x": args.x, "z": args.z,
            "controls": args.controls, "cluster": args.cluster,
            "dof_correction": args.dof_correction, "flavor": flavor,
        },
    }
    if args.format == "json":
        text = _json_text(meta, results)
    elif args.format == "csv":
        lines = ["name,value"]
        for label, row in results["estimates"].items():
            for field, value in row.items():
                lines.append(f"{field}_{label},{value!r}")
        for field, value in results["fstats"].items():
            lines.append(f"{field},{value!r}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"# weakiv estimate  data={args.data}  n={pd_.n}  k_z={pd_.k_z}",
            "",
            f"{'estimator':<10}{'beta':>12}{'se_robust':>12}{'se_nonrobust':>14}",
        ]
        for label, row in results["estimates"].items():
            lines.append(
                f"{label:<10}{row['beta']:>12.3f}{row['se_robust']:>12.3f}"
                f"{row['se_nonrobust']:>14.3f}"
            )
        lines += ["", f"{'statistic':<10}{'value':>12}"]
        for field, value in results["fstats"].items():
            lines.append(f"{field:<10}{value:>12.3f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_weakivtest(args):
    pd_, flavor = _load(args)
    which = {"eff": ["eff"], "robust": ["robust"], "both": ["eff", "robust"]}[
        args.stat
    ]
    results = {}
    for label in which:
        res = weak_iv_test(
            pd_,
            WeightSpec("2sls" if label == "eff" else "gmmf"),
            benchmark=args.benchmark,
            tau=args.tau,
            alpha=args.alpha,
            method=args.method,
            flavor=flavor,
            dof_correction=args.dof_correction,
            mc_seed=args.seed,
        )
        results[label] = {
            "statistic": float(res.statistic),
            "bias_bound": res.bias_bound,
            "radius": res.radius,
            "effective_dof": res.effective_dof,
            "cv": res.cv,
            "reject": res.reject,
            "warnings": list(res.warnings),
        }
    meta = {
        "command": "weakivtest",
        "version": __version__,
        "data": args.data,
        "seed": args.seed,
        "options": {
            "y": args.y, "x": args.x, "z": args.z,
            "controls": args.controls, "cluster": args.cluster,
            "dof_correction": args.dof_correction, "flavor": flavor,
            "tau": args.tau, "alpha": args.alpha,
            "benchmark": args.benchmark, "method": args.method,
            "stat": args.stat,
        },
    }
    if args.format == "json":
        text = _json_text(meta, results)
    elif args.format == "csv":
        lines = ["test,statistic,bias_bound,radius,effective_dof,cv,reject"]
        for label, row in results.items():
            lines.append(
                f"{label},{row['statistic']!r},{row['bias_bound']!r},"
                f"{row['radius']!r},{row['effective_dof']!r},{row['cv']!r},"
                f"{int(row['reject'])}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"# weakiv weakivtest  data={args.data}  benchmark={args.benchmark}"
            f"  tau={args.tau}  alpha={args.alpha}  method={args.method}"
            f"  seed={args.seed}",
            "",
            f"{'test':<8}{'statistic':>11}{'bias_bound':>12}{'radius':>10}"
            f"{'eff_dof':>10}{'cv':>10}  decision",
        ]
        for label, row in results.items():
            decision = "reject weak" if row["reject"] else "not rejected"
            lines.append(
                f"{label:<8}{row['statistic']:>11.3f}{row['bias_bound']:>12.3f}"
                f"{row['radius']:>10.3f}{row['effective_dof']:>10.3f}"
                f"{row['cv']:>10.3f}  {decision}"
            )
        for label, row in results.items():
            for note in row["warnings"]:
                lines.append(f"# {label}: {note}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _summary_columns(summ):
    cols = [("design", summ.design_name), ("reps", summ.reps),
            ("failed", summ.failed), ("seed", summ.seed), ("tau", summ.tau),
            ("alpha", summ.alpha), ("benchmark", summ.benchmark),
            ("method", summ.method)]
    for key, mean in summ.means.items():
        cols.append((f"mean_{key}", mean))
        cols.append((f"sd_{key}", summ.sds[key] if summ.sds is not None else ""))
    for key, rate in summ.rejection_rates.items():
        cols.append((f"rf_{key}", rate))
    return cols


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_simulate(args):
    design = load_design(args.design)
    summ = run_sim(
        design,
        args.reps,
        tau=args.tau,
        alpha=args.alpha,
        seed=args.seed,
        benchmark=args.benchmark,
        method=args.method,
        workers=args.workers,
    )
    meta = {
        "command": "simulate",
        "version": __version__,
        "design": summ.design_name,
        "seed": summ.seed,
        "options": {
            "reps": summ.reps, "tau": summ.tau, "alpha": summ.alpha,
            "benchmark": summ.benchmark, "method": summ.method,
        },
    }
    if args.format == "json":
        results = {
            "failed": summ.failed,
            "means": summ.means,
            "sds": summ.sds,
            "rejection_rates": summ.rejection_rates,
            "group_means": {k: list(v) for k, v in summ.group_means.items()},
        }
        text = _json_text(meta, results)
    elif args.format == "csv":
        cols = _summary_columns(summ)
        text = (
            f"# seed={summ.seed}\n"
            + ",".join(name for name, _ in cols)
            + "\n"
            + ",".join(_csv_cell(value) for _, value in cols)
            + "\n"
        )
    else:
        lines = [
            f"# weakiv simulate  design={summ.design_name}  reps={summ.reps}"
            f"  failed={summ.failed}  seed={summ.seed}",
            f"# tau={summ.tau}  alpha={summ.alpha}  benchmark={summ.benchmark}"
            f"  method={summ.method}",
            "",
            f"{'statistic':<12}{'mean':>12}{'sd':>12}",
        ]
        for key, mean in summ.means.items():
            sd = f"{summ.sds[key]:>12.3f}" if summ.sds is not None else f"{'':>12}"
            lines.append(f"{key:<12}{mean:>12.3f}{sd}")
        if summ.rejection_rates:
            lines += ["", f"{'test':<12}{'rej. rate':>12}"]
            for key, rate in summ.rejection_rates.items():
                lines.append(f"{key:<12}{rate:>12.3f}")
        lines += ["", "per-group means"]
        for key, vec in summ.group_means.items():
            body = "  ".join(f"{v:8.3f}" for v in vec)
            lines.append(f"{key:<14}{body}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_curves(args):
    design = load_design(args.design)
    rows = sweep_scale(
        design,
        args.scales,
        args.reps,
        tau=args.tau,
        alpha=args.alpha,
        seed=args.seed,
        benchmark=args.benchmark,
        method=args.method,
        workers=args.workers,
    )
    meta = {
        "command": "curves",
        "version": __version__,
        "design": design.name,
        "seed": args.seed,
        "options": {
            "reps": args.reps, "tau": args.tau, "alpha": args.alpha,
            "benchmark": args.benchmark, "method": args.method,
            "scales": args.scales,
        },
    }
    header = list(rows[0].keys())
    if args.format == "json":
        text = _json_text(meta, rows)
    elif args.format == "csv":
        lines = [f"# seed={args.seed}", ",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[name]) for name in header))
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"# weakiv curves  design={design.name}  reps={args.reps}"
            f"  seed={args.seed}  benchmark={args.benchmark}",
            "",
            "".join(f"{name:>14}" for name in header),
        ]
        for row in rows:
            lines.append("".join(f"{row[name]:>14.3f}" for name in header))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"weakiv: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"weakiv: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
