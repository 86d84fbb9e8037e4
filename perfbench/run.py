"""weakiv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from the checkout's
src/ tree. Workloads and why they were chosen are in workloads.py.

Every run is single-threaded: one worker and one BLAS thread.

--trace 0 (end to end): for S seconds, spawn in turn a host probe
(`python -c "import numpy"`), a no-op `python -m weakiv.cli --version` and one
workload invocation, each in its own process, and check every output against
references.json. The shared host's speed drifts by tens of percent over
minutes, and process start-up and the workloads drift with it; the probe runs
nothing of the package, so its median time measures that drift alone. Time
figures are scaled to the reference host speed by the factor
slowdown = median probe time / HOST_PROBE_REF_S; the unscaled figures and the
factor are printed on a '#' line. Reports
  reps_per_s   replications (datasets, for test_csv) completed per second of
               invocation wall time, spawn to exit: completed replications of
               all invocations over their summed wall time, times slowdown
  rows_per_s   data rows per second of the same wall time: reps x n for the
               simulations, CSV rows for test_csv
  setup_s      wall time of the no-op invocation (interpreter start, import,
               parser); median, divided by slowdown
  peak_rss_mb  peak resident memory of each workload process, from its own
               rusage (os.wait4); median over invocations
  ok_frac      1 - failed / attempted. A failure is a replication reported as
               failed, or every replication of an invocation that exits
               nonzero or fails the output check (for test_csv: an invocation)

--trace 1 (per layer): for S seconds, alternately run weakiv.cli.main(argv)
in this process untraced and traced (spans.py), on the run's first input.
Time metrics are medians over traced passes, counts come from one pass, and
latency percentiles pool every traced call. The traced wall time must equal
the sum of the layers' self times, and every output must match its reference.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it, starting with '#', carry provenance and sample
counts. The CSV, logs and span dump go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

# One BLAS thread, set before numpy loads: the measured runs are then
# single-threaded, and a figure does not depend on whether another core is free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import outcheck  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, csv_argv, input_order, sim_argv, write_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

MIN_INVOCATIONS = 3
HOST_PROBE = ["-c", "import numpy"]
"""A process that starts the interpreter and imports numpy, and runs nothing
of the package, so no change to the package can move its time."""
HOST_PROBE_REF_S = 0.13
"""The probe's wall time on the reference host (a 2-vCPU Intel Xeon VM) when
it is not loaded; at that speed the scaled figures equal the unscaled ones."""
DEADLINE_S = 150.0
"""Every run ends within this many seconds: a hung invocation is killed."""
SELF_SUM_TOL = 0.01
"""Allowed relative gap between the traced wall time and the self-time sum."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WEAKIV_WORKERS", None)
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tree_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "weakiv").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    probe = ("import json, platform, numpy, weakiv; print(json.dumps({"
             "'python': platform.python_version(), 'numpy': numpy.__version__, "
             "'weakiv_file': weakiv.__file__}))")
    child = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                           capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(child.stdout)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **info,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(),
    }


Invocation = namedtuple("Invocation", "wall_s rss_mb returncode stdout")


def invoke(cli_args, timeout):
    """Run `python -m weakiv.cli ARGS` as its own process."""
    return run_python(["-m", "weakiv.cli", *cli_args], timeout)


def run_python(args, timeout):
    """Run `python ARGS` as its own process; wall time is taken from spawn to
    exit and peak memory from the child's own rusage."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        lock = threading.Lock()
        exited = False
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
            timer.join()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      out_path.read_text(encoding="utf-8", errors="replace"))


def load_references(workload):
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["outputs"][workload]


def plan(workload, seed):
    """Argument list and reference output of invocation i, as a function of i.
    Writes the test_csv input before any timing starts."""
    refs = load_references(workload.name)
    order = input_order(seed)
    if workload.design is None:
        path = WORK / "test_csv.csv"
        write_csv(order[0], path)
        return lambda i: (csv_argv(path), refs[str(order[0])])

    def case(i):
        sim_seed = order[i % len(order)]
        return sim_argv(workload, sim_seed), refs[str(sim_seed)]

    return case


def report(label, values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4)
    print(f"# {label}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
          f"n={len(values)})")


def run_e2e(workload, seed, seconds, started):
    case = plan(workload, seed)

    def left():
        return DEADLINE_S - (time.perf_counter() - started)

    # untimed: writes the bytecode of a fresh checkout and fills the file cache
    invoke(["--version"], left())
    setup, walls, rss, probes = [], [], [], []
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    i = 0
    while i < MIN_INVOCATIONS or time.perf_counter() - begin < seconds:
        probe = run_python(HOST_PROBE, left())
        noop = invoke(["--version"], left())
        for name, done in (("host probe", probe), ("--version", noop)):
            if done.returncode != 0:
                print(f"# {name} exited {done.returncode}")
                correct = False
        probes.append(probe.wall_s)
        setup.append(noop.wall_s)
        argv, reference = case(i)
        run = invoke(argv, left())
        problems = (outcheck.compare(run.stdout, reference)
                    if run.returncode == 0 else [f"exit code {run.returncode}"])
        attempted += workload.reps
        if problems:
            print(f"# invocation {i} failed: {'; '.join(problems[:5])}")
            correct = False
            failed += workload.reps
        else:
            failed += outcheck.failed_reps(run.stdout)
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
        i += 1
    report("invocation wall", walls, "s")
    report("setup wall", setup, "s")
    report("host probe wall", probes, "s")
    report("peak_rss_mb", rss, "MB")
    slowdown = statistics.median(probes) / HOST_PROBE_REF_S
    wall_reps_per_s = (attempted - failed) / sum(walls)
    print(f"# unscaled: reps_per_s {wall_reps_per_s!r}, setup_s "
          f"{statistics.median(setup)!r}; host slowdown {slowdown!r}")
    reps_per_s = wall_reps_per_s * slowdown
    metrics = {
        "reps_per_s": (reps_per_s, "1/s"),
        "rows_per_s": (reps_per_s * workload.rows_per_rep, "1/s"),
        "setup_s": (statistics.median(setup) / slowdown, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    return correct, attempted, failed, metrics


def call_main(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code, buf.getvalue()


PER_LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count", "errors": "count",
                   "p50_us": "us", "p99_us": "us", "self_us_per_rep": "us",
                   "reps_failed": "count", "cdf_per_quantile": "calls/call",
                   "overhead_frac": "frac", "wall_s": "s"}


def run_traced(workload, seed, seconds):
    sys.path.insert(0, str(SRC))
    import weakiv.cli as cli

    argv, reference = plan(workload, seed)(0)
    tracer = spans.Tracer()
    untraced, traced, per_pass = [], [], []
    attempted = failed = 0
    correct = True
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        for tracing in (False, True):
            first = len(tracer.spans)
            tracer.pass_id = len(traced)
            with tracer.installed() if tracing else contextlib.nullcontext():
                wall, code, out = call_main(cli, argv)
            problems = (outcheck.compare(out, reference) if code == 0
                        else [f"exit code {code}"])
            attempted += workload.reps
            if problems:
                print(f"# traced={tracing} pass failed: {'; '.join(problems[:5])}")
                correct = False
                failed += workload.reps
            else:
                failed += outcheck.failed_reps(out)
            if not tracing:
                untraced.append(wall)
                continue
            traced.append(wall)
            layer = spans.pass_metrics(tracer.spans[first:], workload.reps)
            layer["grouped_sim.reps_failed"] = outcheck.failed_reps(out)
            gap = abs(layer.pop("trace.self_sum_s") - wall) / wall
            if gap > SELF_SUM_TOL:
                print(f"# self times miss the traced wall time by {gap:.2%}")
                correct = False
            per_pass.append(layer)
    tracer.write(WORK / f"spans_{workload.name}.csv")
    values = spans.median_of_passes(per_pass)
    latency, samples = spans.latency_metrics(tracer.spans)
    values.update(latency)
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.median(untraced) - 1.0
    print(f"# traced passes {len(traced)}, untraced passes {len(untraced)}, "
          f"latency samples {samples}, spans {len(tracer.spans)}")
    metrics = {key: (value, PER_LAYER_UNITS[key.rsplit(".", 1)[1]])
               for key, value in values.items()}
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "weakiv" / "__init__.py").is_file():
        print(f"perfbench: no weakiv source tree at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    info = provenance()
    if not Path(info["weakiv_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: weakiv resolves to {info['weakiv_file']}, "
              f"outside {SRC}", file=sys.stderr)
        return 2
    print("# provenance " + json.dumps(info))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = run_traced(workload, args.seed, args.seconds)
        else:
            result = run_e2e(workload, args.seed, args.seconds, started)
    finally:
        (WORK / "test_csv.csv").unlink(missing_ok=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
