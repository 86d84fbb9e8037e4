import ast
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import weakiv
import weakiv.cli
from helpers import ill_conditioned_dataset
from weakiv.cli import main
from weakiv.grouped_sim import (
    available_designs,
    load_design,
    random_design_comparison,
)
from weakiv.weak_test import nagar_bias_grouped


def write_iv_csv(path, n=300, kz=3, seed=0, weak=False, het=False):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, kz))
    pi = (0.02 if weak else 0.5) * np.ones(kz) / np.sqrt(kz)
    eps = rng.standard_normal((n, 2))
    scale = np.sqrt(0.3 + z[:, 0] ** 2) if het else np.ones(n)
    v2 = eps[:, 1] * scale
    u = (0.8 * eps[:, 0] + 0.5 * eps[:, 1]) * scale
    x = z @ pi + v2
    y = 0.4 * x + u
    w = rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["y", "x"] + [f"z{j}" for j in range(kz)] + ["c1", "g"])
        for i in range(n):
            wr.writerow(
                [y[i], x[i]] + list(z[i]) + [w[i], f"s{i % 7}"]
            )
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestUsageErrors:
    def test_missing_required_binding_exits_2(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", path, "--y", "y", "--z", "z0"])
        assert exc.value.code == 2

    def test_invalid_tau_exits_2(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as exc:
            main(
                ["weakivtest", path, "--y", "y", "--x", "x", "--z", "z0",
                 "--tau", "0"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "weakivtest"])
    def test_alpha_whose_complement_rounds_to_1_exits_2(self, command, tmp_path, capsys):
        argv = (["simulate", "me_reconstructed", "--reps", "3"] if command == "simulate"
                else ["weakivtest", write_iv_csv(tmp_path / "d.csv"), "--y", "y", "--x", "x",
                      "--z", "z0"])
        code, out, err = run_main(argv + ["--alpha", "1e-17"], capsys)
        assert code == 2
        assert err == "weakiv: error: alpha 1e-17 is too small: 1 - alpha rounds to 1\n"
        assert out == ""

    @pytest.mark.parametrize("tau, message", [
        ("1e-300", r"noncentrality \S+e\+299 is above 2e\+07, the largest the chi-square "
                   r"series supports"),
        ("1e-320", r"noncentrality radius inf is not finite"),
    ])
    def test_tau_near_zero_exits_3(self, tau, message, tmp_path, capsys):
        """A tau near 0 gives a one-line error and no traceback."""
        argv = ["weakivtest", write_iv_csv(tmp_path / "d.csv"), "--y", "y", "--x", "x",
                "--z", "z0", "--z", "z1", "--tau", tau]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (3, "")
        assert re.fullmatch(f"weakiv: numerical error: {message}\n", err)

    @pytest.mark.parametrize("argv, seed", [
        (["simulate", "me", "--reps", "2", "--seed", "-1"], -1),
        (["curves", "me_reconstructed", "--reps", "2", "--scales", "1", "--seed", "-2"], -2),
        (["compare", "--seed", "-1"], -1),
        (["weakivtest", "DATA", "--y", "y", "--x", "x", "--z", "z0", "--method", "mc",
          "--seed", "-1"], -1),
    ], ids=["simulate", "curves", "compare", "weakivtest"])
    def test_negative_seed_exits_2(self, argv, seed, tmp_path, capsys):
        """A negative seed is one error line, not numpy's traceback."""
        argv = [write_iv_csv(tmp_path / "d.csv") if a == "DATA" else a for a in argv]
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"weakiv: error: seed must be a nonnegative integer, got {seed}\n"

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        code, out, err = run_main(
            ["estimate", path, "--y", "y", "--x", "x", "--z", "zz"], capsys
        )
        assert code == 2
        assert "missing column" in err

    def test_unknown_design_exits_2(self, capsys):
        code, out, err = run_main(["simulate", "missing_design"], capsys)
        assert code == 2
        assert "shipped designs" in err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing_csv", "No such file"),
            ("directory_csv", "Is a directory"),
            ("undecodable_csv", "can't decode"),
            ("directory_design", "Is a directory"),
            ("undecodable_design", "can't decode"),
            ("out_in_missing_directory", "No such file"),
        ],
    )
    def test_file_error_exits_2(self, case, message, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_bytes(b"y,x,z0\n1,2,\xff\n")
        bad_design = tmp_path / "bad.yaml"
        bad_design.write_bytes(b"pi0: [1.0, \xff]\n")
        bind = ["--y", "y", "--x", "x", "--z", "z0"]
        argv = {
            "missing_csv": ["estimate", str(tmp_path / "none.csv"), *bind],
            "directory_csv": ["estimate", str(tmp_path), *bind],
            "undecodable_csv": ["estimate", str(bad_csv), *bind],
            "directory_design": ["simulate", str(tmp_path), "--reps", "2"],
            "undecodable_design": ["nagar", str(bad_design)],
            "out_in_missing_directory": [
                "nagar", "a2", "--out", str(tmp_path / "none" / "out.txt")
            ],
        }[case]
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert err.startswith("weakiv: error: ")
        assert message in err
        assert "Traceback" not in err

    def test_oserror_without_file_name_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(weakiv.grouped_sim, "run_sim", fail)
        with pytest.raises(OSError):
            main(["simulate", "me", "--reps", "2"])

    @pytest.mark.parametrize("field, line", [
        ("n", "n: ten"),
        ("n", "n: 5.7"),
        ("pi0", "pi0: abc"),
        ("scale_e", "scale_e: big"),
        ("beta", "beta: [1, 2]"),
        ("var_v2", "var_v2: [1.0, x]"),
    ], ids=["n-word", "n-fraction", "pi0", "scale_e", "beta", "var_v2"])
    def test_bad_design_field_exits_2(self, field, line, tmp_path, capsys):
        fields = {"pi0": "pi0: [0.5, -0.2, 0.1]", "var_v2": "var_v2: [1.0, 2.0, 0.5]"}
        fields[field] = line
        path = tmp_path / "bad.yaml"
        path.write_text("\n".join(fields.values()) + "\n")
        code, out, err = run_main(["nagar", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"weakiv: error: {field} must be ")

    @pytest.mark.parametrize("n", ["1.0e4", "1.0e+4", "10000"])
    def test_integral_n_is_accepted(self, n, tmp_path, capsys):
        path = tmp_path / "d.yaml"
        path.write_text(f"pi0: [0.5, -0.2, 0.1]\nvar_v2: [1.0, 2.0, 0.5]\nn: {n}\n")
        code, out, err = run_main(["nagar", str(path)], capsys)
        assert code == 0, err
        assert out.startswith("# weakiv nagar  design=d  n=10000  groups=3\n")

    def test_non_string_design_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("pi0: [0.5, -0.2]\nvar_v2: [1.0, 2.0]\n1: 2\nnull: 3\n")
        code, out, err = run_main(["nagar", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "weakiv: error: unknown design fields: 1, None\n"


class TestEstimate:
    def test_table_lists_all_estimators(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        code, out, err = run_main(
            ["estimate", path, "--y", "y", "--x", "x",
             "--z", "z0", "--z", "z1", "--z", "z2", "--controls", "c1"],
            capsys,
        )
        assert code == 0
        for token in ("ols", "2sls", "gmmf", "f_eff", "f_r"):
            assert token in out

    def test_single_instrument_estimates_coincide(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv", kz=1, het=True)
        code, out, err = run_main(
            ["estimate", path, "--y", "y", "--x", "x", "--z", "z0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]["estimates"]
        assert results["2sls"]["beta"] == pytest.approx(
            results["gmmf"]["beta"], rel=1e-12
        )
        assert results["2sls"]["se_robust"] == pytest.approx(
            results["gmmf"]["se_robust"], rel=1e-10
        )

    def test_cluster_binding(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        code, out, err = run_main(
            ["estimate", path, "--y", "y", "--x", "x", "--z", "z0",
             "--cluster", "g", "--format", "json"],
            capsys,
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["options"]["flavor"] == "cluster"

    def test_csv_format_full_precision(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        code, out, err = run_main(
            ["estimate", path, "--y", "y", "--x", "x", "--z", "z0",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        values = dict(line.split(",", 1) for line in lines[1:])
        # repr round-trip means no precision was lost in formatting
        assert repr(float(values["f_eff"])) == values["f_eff"]
        assert repr(float(values["beta_gmmf"])) == values["beta_gmmf"]


class TestWeakIvTest:
    def test_json_round_trips(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv", het=True)
        code, out, err = run_main(
            ["weakivtest", path, "--y", "y", "--x", "x",
             "--z", "z0", "--z", "z1", "--z", "z2", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out
        assert set(doc["results"]) == {"eff", "robust"}
        for row in doc["results"].values():
            assert set(row) >= {
                "statistic", "bias_bound", "radius", "effective_dof", "cv",
                "reject",
            }

    def test_stat_selector(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv")
        code, out, err = run_main(
            ["weakivtest", path, "--y", "y", "--x", "x", "--z", "z0",
             "--z", "z1", "--z", "z2", "--stat", "eff", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert list(json.loads(out)["results"]) == ["eff"]

    def test_benchmarks_agree_on_homoskedastic_data(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv", n=800, het=False)
        decisions = {}
        for bench in ("mop", "ls"):
            code, out, err = run_main(
                ["weakivtest", path, "--y", "y", "--x", "x",
                 "--z", "z0", "--z", "z1", "--z", "z2",
                 "--benchmark", bench, "--format", "json"],
                capsys,
            )
            assert code == 0
            doc = json.loads(out)
            decisions[bench] = {
                k: v["reject"] for k, v in doc["results"].items()
            }
        assert decisions["mop"] == decisions["ls"]

    def test_mc_method_seeded(self, tmp_path, capsys):
        path = write_iv_csv(tmp_path / "d.csv", het=True)
        outs = []
        for _ in range(2):
            code, out, err = run_main(
                ["weakivtest", path, "--y", "y", "--x", "x",
                 "--z", "z0", "--z", "z1", "--z", "z2",
                 "--method", "mc", "--seed", "7", "--format", "json"],
                capsys,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


    def test_ill_conditioned_instruments_exit_0(self, tmp_path, capsys):
        """cond(Z) = 1e4: both tests run; no weight was given, so no omega
        check may turn into an input error (exit 2)."""
        data = ill_conditioned_dataset()
        path = tmp_path / "ill.csv"
        cols = np.column_stack([data.y, data.x, data.z])
        header = ["y", "x"] + [f"z{j}" for j in range(data.k_z)]
        path.write_text(",".join(header) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in cols.tolist()
        ))
        argv = ["weakivtest", str(path), "--y", "y", "--x", "x", "--stat", "both"]
        for name in header[2:]:
            argv += ["--z", name]
        code, out, err = run_main(argv, capsys)
        assert code == 0, err


class TestSimulateAndCurves:
    def test_simulate_csv_columns(self, capsys):
        code, out, err = run_main(
            ["simulate", "homoskedastic", "--reps", "8", "--seed", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=3"
        header = lines[1].split(",")
        for col in (
            "design", "reps", "failed", "seed",
            "mean_f_eff", "sd_f_eff", "mean_cv_eff", "rf_weak_eff",
            "mean_f_r", "sd_f_r", "mean_cv_r", "rf_weak_r",
            "mean_beta_ols", "mean_beta_2sls", "mean_beta_gmmf",
            "rf_wald_2sls", "rf_wald_gmmf",
        ):
            assert col in header
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["simulate", "homoskedastic", "--reps", "6", "--seed", "9",
                "--format", "csv"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_simulate_json_meta(self, capsys):
        code, out, err = run_main(
            ["simulate", "me", "--reps", "4", "--seed", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "simulate"
        assert doc["meta"]["seed"] == 1
        assert doc["meta"]["options"]["reps"] == 4
        assert "f_r" in doc["results"]["means"]

    def test_extreme_alpha_exits_0(self, capsys):
        """alpha near 1 puts the Wald critical value's chi-square quantile
        far below 1."""
        code, out, err = run_main(
            ["simulate", "me_reconstructed", "--reps", "2", "--alpha", "0.9999"],
            capsys,
        )
        assert code == 0, err

    def test_curves_single_point(self, capsys):
        code, out, err = run_main(
            ["curves", "homoskedastic", "--scales", "0.04", "--reps", "5",
             "--seed", "2", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=2"
        assert lines[1].startswith("scale,")
        assert len(lines) == 3
        assert lines[2].startswith("0.04,")

    def test_curves_rejects_bad_scales(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "homoskedastic", "--scales", "0,-1"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        design = tmp_path / "impossible.yaml"
        design.write_text(
            "pi0: [1.0, 1.0, 1.0, 1.0]\n"
            "var_v2: [1.0, 1.0, 1.0, 1.0]\n"
            "n: 40\n"
            "group_probs: [1.0e-12, 0.333333333333, 0.333333333333, "
            "0.333333333333666]\n"
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_main(
                ["simulate", str(design), "--reps", "2"], capsys
            )
        assert code == 3
        assert "numerical error" in err


class TestNagarAndCompare:
    def test_nagar_matches_closed_form(self, capsys):
        code, out, err = run_main(["nagar", "a2", "--format", "json"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        design = load_design("a2")
        diag = nagar_bias_grouped(design)
        results = doc["results"]
        for key in ("conc_2sls", "conc_gmmf", "nagar_2sls", "nagar_gmmf"):
            assert results[key] == getattr(diag, key)
        assert results["concentration"] == list(
            design.n * design.pi**2 / design.var_v2
        )

    def test_nagar_first_stage_design_gives_concentration_only(self, capsys):
        code, out, err = run_main(["nagar", "me", "--format", "json"], capsys)
        assert code == 0, err
        assert list(json.loads(out)["results"]) == ["concentration"]
        code, out, err = run_main(["nagar", "me"], capsys)
        assert code == 0, err
        assert "concentration" in out

    def test_compare_matches_library(self, capsys):
        code, out, err = run_main(
            ["compare", "--count", "60", "--seed", "9", "--format", "json"],
            capsys,
        )
        assert code == 0, err
        doc = json.loads(out)
        comp = random_design_comparison(count=60, seed=9)
        assert doc["meta"]["seed"] == 9
        assert doc["meta"]["options"] == {"count": 60}
        assert doc["results"] == {
            "attempts": comp.attempts,
            "fraction_2sls_worse": comp.fraction_2sls_worse,
            "mean_abs_nagar_2sls": float(np.abs(comp.nagar_2sls).mean()),
            "mean_abs_nagar_gmmf": float(np.abs(comp.nagar_gmmf).mean()),
        }


def _estimate_records(doc):
    res = doc["results"]
    return [
        {"name": f"{field}_{label}", "value": value}
        for label, row in res["estimates"].items()
        for field, value in row.items()
    ] + [{"name": key, "value": value} for key, value in res["fstats"].items()]


def _weakivtest_records(doc):
    fields = ("statistic", "bias_bound", "radius", "effective_dof", "cv", "reject")
    return [
        {"test": label, **{f: row[f] for f in fields}}
        for label, row in doc["results"].items()
    ]


def _simulate_records(doc):
    meta, res = doc["meta"], doc["results"]
    opts = meta["options"]
    return [{
        "design": meta["design"], "reps": opts["reps"], "failed": res["failed"],
        "seed": meta["seed"], "tau": opts["tau"], "alpha": opts["alpha"],
        "benchmark": opts["benchmark"], "method": opts["method"],
        **{f"mean_{k}": v for k, v in res["means"].items()},
        **{f"sd_{k}": v for k, v in res["sds"].items()},
        **{f"rf_{k}": v for k, v in res["rejection_rates"].items()},
    }]


def _nagar_records(doc):
    res = doc["results"]
    return [{
        "design": doc["meta"]["design"],
        **{k: v for k, v in res.items() if k != "concentration"},
    }]


def _compare_records(doc):
    meta = doc["meta"]
    return [{**meta["options"], "seed": meta["seed"], **doc["results"]}]


def _csv_cell(value):
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


_EVERY_COMMAND = pytest.mark.parametrize(
    "argv, records",
    [
        (["estimate", "DATA", "--y", "y", "--x", "x", "--z", "z0",
          "--z", "z1", "--controls", "c1"], _estimate_records),
        (["weakivtest", "DATA", "--y", "y", "--x", "x", "--z", "z0",
          "--z", "z1", "--z", "z2", "--cluster", "g"], _weakivtest_records),
        (["simulate", "me_reconstructed", "--reps", "4", "--seed", "2"],
         _simulate_records),
        (["curves", "a2", "--scales", "0.5,1", "--reps", "4"],
         lambda doc: doc["results"]),
        (["nagar", "a2"], _nagar_records),
        (["compare", "--count", "20", "--seed", "1"], _compare_records),
    ],
    ids=["estimate", "weakivtest", "simulate", "curves", "nagar", "compare"],
)


class TestCrossFormat:
    """Every csv cell is the json value it comes from, in repr round trip,
    and every float result shows in the table to 3 decimals."""

    @_EVERY_COMMAND
    def test_csv_json_and_table_agree(self, argv, records, tmp_path, capsys):
        data = write_iv_csv(tmp_path / "d.csv", het=True)
        argv = [data if a == "DATA" else a for a in argv]
        outs = {}
        for fmt in ("table", "csv", "json"):
            code, outs[fmt], err = run_main(argv + ["--format", fmt], capsys)
            assert code == 0, err
        rows = list(csv.reader(
            line for line in outs["csv"].splitlines() if not line.startswith("#")
        ))
        expected = records(json.loads(outs["json"]))
        assert [dict(zip(rows[0], row)) for row in rows[1:]] == [
            {key: _csv_cell(value) for key, value in rec.items()}
            for rec in expected
        ]
        for rec in expected:
            for key, value in rec.items():
                if isinstance(value, float) and key not in ("tau", "alpha"):
                    assert f"{value:.3f}" in outs["table"], key

    @_EVERY_COMMAND
    def test_json_meta_leads_with_command_and_version(self, argv, records,
                                                      tmp_path, capsys):
        data = write_iv_csv(tmp_path / "d.csv", het=True)
        argv = [data if a == "DATA" else a for a in argv]
        code, out, err = run_main(argv + ["--format", "json"], capsys)
        assert code == 0, err
        meta = json.loads(out)["meta"]
        assert list(meta)[:2] == ["command", "version"]
        assert (meta["command"], meta["version"]) == (argv[0], weakiv.__version__)


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakiv.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    @pytest.mark.parametrize("argv, status", [
        (["--version"], 0),
        (["--help"], 0),
        (["simulate", "--help"], 0),
        (["simulate", "me", "--reps", "0"], 2),
    ], ids=["version", "help", "simulate-help", "usage-error"])
    def test_parse_only_invocation_loads_no_numpy(self, argv, status):
        """Arguments are parsed before any numeric module loads, so version,
        help and usage errors load neither numpy nor a weakiv submodule
        beyond the CLI and its errors."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "weakiv.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == status, proc.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")
        }
        assert "weakiv" in loaded
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("weakiv.")} <= {"weakiv.cli", "weakiv.errors"}

    def test_package_import_loads_no_numpy(self):
        code = "import sys, weakiv; print(sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("weakiv.")} == set()

    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
    @pytest.mark.parametrize("argv", [["--version"], ["simulate", "--help"]],
                             ids=["version", "simulate-help"])
    def test_design_listing_loads_no_resource_machinery(self, flags, argv):
        """The shipped designs are listed with os.listdir, so a run imports
        none of importlib.resources and what its package reader pulls in,
        beyond what `site` has already loaded."""
        src = os.path.dirname(os.path.dirname(weakiv.__file__))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        proc = subprocess.run(
            [sys.executable, *flags, "-X", "importtime", "-m", "weakiv.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        names = [line.rsplit("|", 1)[1].strip()
                 for line in proc.stderr.splitlines() if line.startswith("import time:")]
        after_site = names[names.index("site") + 1:] if "site" in names else names
        assert "weakiv" in after_site
        assert not {"importlib.resources", "importlib.readers", "pathlib", "tempfile",
                    "zipfile", "threading"} & set(after_site)

    @pytest.mark.parametrize("sub", ["simulate", "curves", "nagar"])
    def test_help_lists_the_shipped_designs(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert f"({', '.join(available_designs())})" in out

    @pytest.mark.parametrize("name", available_designs())
    def test_simulate_runs_every_shipped_design(self, name, capsys):
        code, out, err = run_main(["simulate", name, "--reps", "3"], capsys)
        assert code == 0, err
        assert out.startswith(f"# weakiv simulate  design={name}  reps=3  failed=")

    def test_cli_import_leaves_scipy_out(self):
        """scipy is a test-only oracle, and the CLI module imports numpy only
        when a subcommand runs, and pyyaml only to load a design. The
        process pool is imported only by a run with more than one worker."""
        code = "import sys, weakiv.cli; print(sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        tops = {m.split(".")[0] for m in loaded}
        assert "scipy" not in tops
        assert "numpy" not in tops
        assert "multiprocessing" not in tops
        assert "yaml" not in tops
        assert "concurrent.futures.process" not in loaded

    def test_weakivtest_run_leaves_random_and_yaml_out(self, tmp_path):
        """A default weakivtest run draws no random numbers and loads no
        design, so it imports neither numpy.random nor yaml, nor the
        simulation module."""
        argv = ["weakivtest", write_iv_csv(tmp_path / "d.csv"), "--y", "y",
                "--x", "x", "--z", "z0", "--z", "z1", "--z", "z2"]
        code = (
            "import sys, weakiv.cli\n"
            f"code = weakiv.cli.main({argv!r})\n"
            "print(code, sorted(sys.modules), file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        status, loaded = proc.stderr.rstrip("\n").split(" ", 1)
        assert status == "0", proc.stderr
        loaded = set(ast.literal_eval(loaded))
        assert "numpy" in loaded
        assert "numpy.random" not in loaded
        assert "yaml" not in loaded
        assert "weakiv.grouped_sim" not in loaded

    @pytest.mark.parametrize("argv", [
        ["simulate", "me_reconstructed", "--reps", "2"],
        ["curves", "me_reconstructed", "--scales", "0.04", "--reps", "2"],
        ["nagar", "a2"],
        ["compare", "--count", "20"],
    ], ids=["simulate", "curves", "nagar", "compare"])
    def test_design_table_run_loads_no_json(self, argv):
        """A table is written without json: the handlers import it only for
        --format json."""
        code = (
            "import sys, weakiv.cli\n"
            f"code = weakiv.cli.main({argv!r})\n"
            "print(code, sorted(sys.modules), file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        status, loaded = proc.stderr.rstrip("\n").split(" ", 1)
        assert status == "0", proc.stderr
        loaded = set(ast.literal_eval(loaded))
        assert {"weakiv.commands", "weakiv.grouped_sim"} <= loaded
        assert "json" not in loaded

    def test_version_run_loads_only_the_parser(self):
        """--version compiles no subcommand handler and loads no json."""
        code = (
            "import sys, weakiv.cli\n"
            "try:\n"
            "    weakiv.cli.main(['--version'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, sorted(sys.modules), file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        status, loaded = proc.stderr.rstrip("\n").split(" ", 1)
        assert status == "0", proc.stderr
        loaded = set(ast.literal_eval(loaded))
        assert {m for m in loaded if m.startswith("weakiv")} == {
            "weakiv", "weakiv.cli", "weakiv.errors"
        }
        assert "json" not in loaded

    def test_invalid_design_yaml_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("pi0: [1.0, 2.0\nvar_v2: [1.0]\n")
        code, out, err = run_main(["nagar", str(path)], capsys)
        assert code == 2
        assert err.startswith("weakiv: error: design file is not valid YAML")
