"""The subcommand handlers of the command line.

`cli.main` parses the arguments, then imports this module and runs
`cmd_<subcommand>(args)`. Each handler imports the numeric modules it runs,
builds its results once, and `_emit` writes them as a table, csv or json:
table output rounds to 3 decimals; csv and json carry full precision, and
csv leaves out per-group vectors. json is imported only for json output.
Each handler returns the exit status 0; errors propagate to `cli.main`,
which maps them to exit codes.
"""

import sys

from . import __version__

__all__ = [
    "cmd_compare",
    "cmd_curves",
    "cmd_estimate",
    "cmd_nagar",
    "cmd_simulate",
    "cmd_weakivtest",
]


def _csv_cell(value):
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _table_lines(table):
    for item in table:
        if isinstance(item, str):
            yield item
            continue
        columns, rows = item
        widths = [spec.split(".")[0] for _, spec in columns]
        yield "".join(format(title, w) for (title, _), w in zip(columns, widths))
        for row in rows:
            yield "".join(
                format("", w) if value is None else format(value, spec)
                for value, (_, spec), w in zip(row, columns, widths)
            )


def _emit(args, meta, results, csv_rows, table):
    """Write one command's output, in args.format, to args.out or stdout.

    json is {"meta": meta, "results": results}, meta led by the subcommand
    and the package version. csv_rows are rows of cells, header first; a
    one-cell "# ..." row is a comment line. table is a list of lines and of
    (columns, rows) blocks, columns being (title, format spec) pairs: a block
    prints the titles, then each row's cells in their specs, with None as a
    blank of its column's width.
    """
    if args.format == "json":
        import json

        meta = {"command": args.subcommand, "version": __version__, **meta}
        text = json.dumps({"meta": meta, "results": results}, indent=2) + "\n"
    elif args.format == "csv":
        text = "".join(",".join(map(_csv_cell, row)) + "\n" for row in csv_rows)
    else:
        text = "".join(line + "\n" for line in _table_lines(table))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _vector_lines(vectors):
    for key, vec in vectors.items():
        body = "  ".join(f"{v:8.3f}" for v in vec)
        yield f"{key:<14}{body}"


def _load(args):
    from .data import load_csv, partial_out

    data = load_csv(
        args.data,
        y=args.y,
        x=args.x,
        z=args.z,
        controls=tuple(args.controls),
        cluster=args.cluster,
    )
    return partial_out(data), ("cluster" if args.cluster else "hc0")


def _data_options(args, flavor):
    """The meta options of a subcommand that reads a data file."""
    return {
        "y": args.y, "x": args.x, "z": args.z,
        "controls": args.controls, "cluster": args.cluster,
        "dof_correction": args.dof_correction, "flavor": flavor,
    }


def _run_options(args):
    """The simulation options `run_sim` and `sweep_scale` take from args."""
    return {
        "tau": args.tau, "alpha": args.alpha, "seed": args.seed,
        "benchmark": args.benchmark, "method": args.method,
        "workers": args.workers,
    }


def cmd_estimate(args):
    from .estimators import estimate, ols
    from .fstats import f_generalized, f_nonrobust

    pd_, flavor = _load(args)
    kw = {"flavor": flavor, "dof_correction": args.dof_correction}
    results = {"estimates": {}, "fstats": {}}
    for label, maker in (
        ("ols", lambda: ols(pd_, **kw)),
        ("2sls", lambda: estimate(pd_, "2sls", **kw)),
        ("gmmf", lambda: estimate(pd_, "gmmf", **kw)),
    ):
        res = maker()
        results["estimates"][label] = {
            "beta": res.beta_hat,
            "se_robust": res.se_robust,
            "se_nonrobust": res.se_nonrobust,
        }
    results["fstats"] = {
        "f": f_nonrobust(pd_),
        "f_eff": f_generalized(pd_, "2sls", **kw),
        "f_r": f_generalized(pd_, "gmmf", **kw),
    }
    meta = {"data": args.data, "options": _data_options(args, flavor)}
    estimates = results["estimates"].items()
    csv_rows = [
        ("name", "value"),
        *((f"{field}_{label}", value)
          for label, row in estimates for field, value in row.items()),
        *results["fstats"].items(),
    ]
    table = [
        f"# weakiv estimate  data={args.data}  n={pd_.n}  k_z={pd_.k_z}",
        "",
        ([("estimator", "<10"), ("beta", ">12.3f"), ("se_robust", ">12.3f"),
          ("se_nonrobust", ">14.3f")],
         [(label, *row.values()) for label, row in estimates]),
        "",
        ([("statistic", "<10"), ("value", ">12.3f")],
         results["fstats"].items()),
    ]
    return _emit(args, meta, results, csv_rows, table)


def cmd_weakivtest(args):
    from .weak_test import weak_iv_test

    pd_, flavor = _load(args)
    which = {"eff": ["eff"], "robust": ["robust"], "both": ["eff", "robust"]}[
        args.stat
    ]
    results = {}
    for label in which:
        res = weak_iv_test(
            pd_,
            "2sls" if label == "eff" else "gmmf",
            benchmark=args.benchmark,
            tau=args.tau,
            alpha=args.alpha,
            method=args.method,
            flavor=flavor,
            dof_correction=args.dof_correction,
            mc_seed=args.seed,
        )
        results[label] = {
            "statistic": res.statistic,
            "bias_bound": res.bias_bound,
            "radius": res.radius,
            "effective_dof": res.effective_dof,
            "cv": res.cv,
            "reject": res.reject,
            "warnings": list(res.warnings),
        }
    meta = {
        "data": args.data,
        "seed": args.seed,
        "options": {
            **_data_options(args, flavor),
            "tau": args.tau, "alpha": args.alpha,
            "benchmark": args.benchmark, "method": args.method,
            "stat": args.stat,
        },
    }
    fields = ("statistic", "bias_bound", "radius", "effective_dof", "cv")
    csv_rows = [("test", *fields, "reject")] + [
        (label, *(row[f] for f in fields), int(row["reject"]))
        for label, row in results.items()
    ]
    table = [
        f"# weakiv weakivtest  data={args.data}  benchmark={args.benchmark}"
        f"  tau={args.tau}  alpha={args.alpha}  method={args.method}"
        f"  seed={args.seed}",
        "",
        ([("test", "<8"), ("statistic", ">11.3f"), ("bias_bound", ">12.3f"),
          ("radius", ">10.3f"), ("eff_dof", ">10.3f"), ("cv", ">10.3f"),
          ("  decision", "")],
         [(label, *(row[f] for f in fields),
           "  reject weak" if row["reject"] else "  not rejected")
          for label, row in results.items()]),
        *(f"# {label}: {note}"
          for label, row in results.items() for note in row["warnings"]),
    ]
    return _emit(args, meta, results, csv_rows, table)


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


def cmd_simulate(args):
    from .grouped_sim import load_design, run_sim

    design = load_design(args.design)
    summ = run_sim(design, args.reps, **_run_options(args))
    meta = {
        "design": summ.design_name,
        "seed": summ.seed,
        "options": {
            "reps": summ.reps, "tau": summ.tau, "alpha": summ.alpha,
            "benchmark": summ.benchmark, "method": summ.method,
        },
    }
    results = {
        "failed": summ.failed,
        "means": summ.means,
        "sds": summ.sds,
        "rejection_rates": summ.rejection_rates,
        "group_means": {k: list(v) for k, v in summ.group_means.items()},
    }
    cols = _summary_columns(summ)
    csv_rows = [(f"# seed={summ.seed}",), [n for n, _ in cols], [v for _, v in cols]]
    table = [
        f"# weakiv simulate  design={summ.design_name}  reps={summ.reps}"
        f"  failed={summ.failed}  seed={summ.seed}",
        f"# tau={summ.tau}  alpha={summ.alpha}  benchmark={summ.benchmark}"
        f"  method={summ.method}",
        "",
        ([("statistic", "<12"), ("mean", ">12.3f"), ("sd", ">12.3f")],
         [(key, mean, None if summ.sds is None else summ.sds[key])
          for key, mean in summ.means.items()]),
    ]
    if summ.rejection_rates:
        table += ["", ([("test", "<12"), ("rej. rate", ">12.3f")],
                       summ.rejection_rates.items())]
    table += ["", "per-group means", *_vector_lines(summ.group_means)]
    return _emit(args, meta, results, csv_rows, table)


def cmd_curves(args):
    from .grouped_sim import load_design, sweep_scale

    design = load_design(args.design)
    rows = sweep_scale(design, args.scales, args.reps, **_run_options(args))
    meta = {
        "design": design.name,
        "seed": args.seed,
        "options": {
            "reps": args.reps, "tau": args.tau, "alpha": args.alpha,
            "benchmark": args.benchmark, "method": args.method,
            "scales": args.scales,
        },
    }
    header = list(rows[0].keys())
    values = [[row[name] for name in header] for row in rows]
    table = [
        f"# weakiv curves  design={design.name}  reps={args.reps}"
        f"  seed={args.seed}  benchmark={args.benchmark}",
        "",
        ([(name, ">14.3f") for name in header], values),
    ]
    return _emit(args, meta, rows, [(f"# seed={args.seed}",), header, *values], table)


def cmd_nagar(args):
    from .grouped_sim import load_design, nagar_bias_grouped

    design = load_design(args.design)
    conc = design.n * design.pi**2 / design.var_v2
    scalars = vars(nagar_bias_grouped(design)) if design.has_structural else {}
    meta = {"design": design.name}
    results = {"concentration": conc.tolist(), **scalars}
    table = [f"# weakiv nagar  design={design.name}  n={design.n}  groups={design.G}"]
    if scalars:
        table += ["", ([("statistic", "<12"), ("value", ">12.3f")], scalars.items())]
    else:
        table.append("# first-stage design: no Nagar biases without cov_uv2")
    table += ["", "per-group", *_vector_lines({"concentration": conc})]
    csv_rows = [("design", *scalars), (design.name, *scalars.values())]
    return _emit(args, meta, results, csv_rows, table)


def cmd_compare(args):
    from .grouped_sim import random_design_comparison

    comp = random_design_comparison(count=args.count, seed=args.seed)
    meta = {"seed": comp.seed, "options": {"count": comp.count}}
    biases = {
        "fraction_2sls_worse": comp.fraction_2sls_worse,
        "mean_abs_nagar_2sls": float(abs(comp.nagar_2sls).mean()),
        "mean_abs_nagar_gmmf": float(abs(comp.nagar_gmmf).mean()),
    }
    results = {"attempts": comp.attempts, **biases}
    cols = {"count": comp.count, "seed": comp.seed, **results}
    table = [
        f"# weakiv compare  count={comp.count}  seed={comp.seed}"
        f"  attempts={comp.attempts}",
        "",
        ([("statistic", "<22"), ("value", ">12.3f")], biases.items()),
    ]
    csv_rows = [(f"# seed={comp.seed}",), cols, cols.values()]
    return _emit(args, meta, results, csv_rows, table)
