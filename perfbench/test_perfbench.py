"""Tests of the benchmark's own parts: seeded inputs, self times, output check."""

import outcheck
import spans
from workloads import write_csv

SMALL = {"rows": 300, "instruments": 4, "clusters": 10}


def test_same_seed_gives_identical_csv_and_another_seed_differs(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_csv(7, a, **SMALL)
    write_csv(7, b, **SMALL)
    write_csv(8, c, **SMALL)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "y,x,z01,z02,z03,z04,const,w1,w2,state"
    assert len(lines) == 301
    assert len({line.rsplit(",", 1)[1] for line in lines[1:]}) == 10


def span(sid, parent, name, start, end, raised=False):
    return (sid, parent, 0, name, start, end, raised)


# cli.main [0, 1000] -> run_sim [100, 900] -> critical_value [200, 600]
#   -> chisq_quantile [250, 550] -> chisq_cdf [300, 340], [400, 460]
# run_sim -> worst_case_bias [650, 700] (raised, leaves weak_test)
NESTED = [
    span(0, -1, "cli.main", 0, 1000),
    span(1, 0, "grouped_sim.run_sim", 100, 900),
    span(2, 1, "weak_test.critical_value", 200, 600),
    span(3, 2, "distributions.chisq_quantile", 250, 550),
    span(4, 3, "distributions.chisq_cdf", 300, 340),
    span(5, 3, "distributions.chisq_cdf", 400, 460),
    span(6, 1, "weak_test.worst_case_bias", 650, 700, raised=True),
]


def test_self_time_on_nested_trace():
    own = spans.self_times(NESTED)
    assert own == {0: 200, 1: 350, 2: 100, 3: 200, 4: 40, 5: 60, 6: 50}
    m = spans.pass_metrics(NESTED, reps=4)
    assert m["cli.self_s"] == 200e-9
    assert m["grouped_sim.self_s"] == 350e-9
    assert m["weak_test.self_s"] == 150e-9
    assert m["weak_test.critical_value.self_s"] == 100e-9
    assert m["distributions.self_s"] == 300e-9
    assert m["distributions.chisq_quantile.s"] == 300e-9
    assert m["distributions.chisq_cdf.calls"] == 2
    assert m["distributions.cdf_per_quantile"] == 2.0
    assert m["grouped_sim.self_us_per_rep"] == 350e-3 / 4
    assert m["weak_test.errors"] == 1
    assert m["data.errors"] == 0
    assert m["trace.self_sum_s"] == 1000e-9


def test_errors_count_once_where_they_leave_the_layer():
    trace = [
        span(0, -1, "cli.main", 0, 100, raised=True),
        span(1, 0, "data.load_csv", 10, 90, raised=True),
        span(2, 1, "data.partial_out", 20, 80, raised=True),
    ]
    m = spans.pass_metrics(trace, reps=1)
    assert m["data.errors"] == 1
    assert m["data.partial_out.calls"] == 1


def test_tracer_sees_module_global_calls_and_restores_originals():
    from weakiv import distributions, weak_test

    original = distributions.chisq_cdf
    tracer = spans.Tracer()
    with tracer.installed():
        assert weak_test.chisq_quantile is distributions.chisq_quantile
        assert weak_test.chisq_quantile.__wrapped__ is not None
        weak_test.chisq_quantile(distributions.NoncentralChiSq(3.0, 5.0), 0.95)
    assert distributions.chisq_cdf is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "distributions.chisq_quantile"
    assert names.count("distributions.chisq_cdf") > 10
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own.values()) == root[spans.END] - root[spans.START]


SIM_REF = (
    "# seed=3\n"
    "design,reps,failed,seed,mean_cv_eff,sd_cv_eff,rf_weak_eff\n"
    "me_reconstructed,200,0,3,7.556767989677987,0.4925575624680472,0.37\n"
)


def test_output_check_accepts_root_finder_noise_and_flags_perturbations():
    assert outcheck.compare(SIM_REF, SIM_REF) == []
    noise = SIM_REF.replace("7.556767989677987", "7.556767989677990")
    assert outcheck.compare(noise, SIM_REF) == []
    perturbed = SIM_REF.replace("7.556767989677987", "7.556768")
    assert outcheck.compare(perturbed, SIM_REF) == [
        "row 0 mean_cv_eff: 7.556768 != 7.556767989677987"
    ]
    rate = SIM_REF.replace(",0.37\n", ",0.375\n")
    assert len(outcheck.compare(rate, SIM_REF)) == 1
    count = SIM_REF.replace(",200,0,", ",200,1,")
    assert len(outcheck.compare(count, SIM_REF)) == 1
    assert outcheck.compare("", SIM_REF)
    assert outcheck.failed_reps(count) == 1


def test_output_check_compares_reject_decisions_exactly():
    ref = "test,statistic,reject\neff,10.8,0\nrobust,13.4,1\n"
    flipped = "test,statistic,reject\neff,10.8,1\nrobust,13.4,1\n"
    assert outcheck.compare(flipped, ref) == ["row 0 reject: 1 != 0"]


def test_traced_metrics_are_the_listed_per_layer_metrics():
    import json
    from pathlib import Path

    listed = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    produced = set(spans.pass_metrics(NESTED, reps=4)) - {"trace.self_sum_s"}
    produced |= set(spans.latency_metrics(NESTED)[0])
    produced |= {"grouped_sim.reps_failed", "trace.wall_s", "trace.overhead_frac"}
    assert produced == {m["name"] for m in listed["per_layer"]}
