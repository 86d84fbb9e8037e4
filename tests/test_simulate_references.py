"""`weakiv simulate` outputs of the benchmark workloads, checked against the
references the benchmark records (perfbench/references.json) with its own
output check. The benchmark files are only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from weakiv.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_module("workloads")
outcheck = _perfbench_module("outcheck")
REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [3, 26])
@pytest.mark.parametrize("workload", ["sim_me", "sim_he", "sim_firststage"])
def test_simulate_matches_reference(workload, seed, capsys):
    argv = workloads.sim_argv(workloads.WORKLOADS[workload], seed)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert outcheck.compare(out, REFERENCES["outputs"][workload][str(seed)]) == []
