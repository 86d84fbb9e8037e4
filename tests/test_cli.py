import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakiv.cli import main


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


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakiv.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_reproduce_tables_script_runs(self):
        """The script simulates all five shipped designs it tabulates, he and
        a2 among them, and prints a header for each."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "reproduce_tables.py"), "--reps", "3"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("me", "he", "me_reconstructed", "he_reconstructed", "a2"):
            assert f"== {name}  (reps=3, failed=" in proc.stdout

    def test_cli_import_leaves_scipy_out(self):
        """scipy is a test-only oracle: the runtime imports numpy and pyyaml."""
        code = "import sys, weakiv.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "'scipy'" not in proc.stdout
        assert "'numpy'" in proc.stdout
