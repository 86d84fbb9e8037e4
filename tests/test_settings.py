"""Each setting of the test and of the simulation has one reader, in
`weakiv._settings`: the command line and every library function that takes
the setting refuse a bad value with the same InputError message, the command
line with exit 2, and both read numeric text as a number."""

import dataclasses
import inspect

import numpy as np
import pytest

from weakiv import (
    Benchmark,
    GroupedDesign,
    RngStream,
    WeightSpec,
    _settings,
    critical_value,
    effective_dof,
    generate,
    grouped_sim,
    partial_out,
    random_design_comparison,
    run_sim,
    sweep_scale,
    weak_iv_test,
)
from weakiv.cli import build_parser, main
from weakiv.errors import InputError


def design():
    return GroupedDesign(pi0=[0.5, -0.3, 0.2], var_v2=1.0, var_u=1.0, cov_uv2=0.3, n=60)


# Each function that takes a setting, called with the setting `s` at `v`;
# `weak_iv_test` takes the seed of its mc critical value as mc_seed.
CALLS = {
    "weak_iv_test": lambda s, v: weak_iv_test(
        partial_out(generate(design(), 3)), WeightSpec("2sls"),
        **{"mc_seed" if s == "seed" else s: v}
    ),
    "critical_value": lambda s, v: critical_value(np.eye(2), 1.0, **{"alpha": 0.05, s: v}),
    "run_sim": lambda s, v: run_sim(design(), **{"reps": 2, s: v}),
    "sweep_scale": lambda s, v: sweep_scale(
        design(), **{"scales": [1.0], "reps": 2, s: [v] if s == "scales" else v}
    ),
    "random_design_comparison": lambda s, v: random_design_comparison(**{"count": 2, s: v}),
    "generate": lambda s, v: generate(design(), v),
    "RngStream": lambda s, v: RngStream(v),
    "Benchmark": lambda s, v: Benchmark(v),
    "GroupedDesign": lambda s, v: dataclasses.replace(design(), scale_e=v),
}

# The command lines and the library functions that take each setting;
# `weak_iv_test` also takes the "conservative" method, so it lists three.
TAKEN_BY = {
    "tau": (("weakivtest", "simulate", "curves"), ("weak_iv_test", "run_sim", "sweep_scale")),
    "alpha": (("weakivtest", "simulate", "curves"),
              ("weak_iv_test", "critical_value", "run_sim", "sweep_scale")),
    "method": (("weakivtest", "simulate", "curves"),
               ("critical_value", "run_sim", "sweep_scale")),
    "benchmark": (("weakivtest", "simulate", "curves"),
                  ("weak_iv_test", "run_sim", "sweep_scale", "Benchmark")),
    "reps": (("simulate", "curves"), ("run_sim", "sweep_scale")),
    "workers": (("simulate", "curves"), ("run_sim", "sweep_scale")),
    "seed": (("weakivtest", "simulate", "curves", "compare"),
             ("weak_iv_test", "critical_value", "run_sim", "sweep_scale",
              "random_design_comparison", "generate", "RngStream")),
    "count": (("compare",), ("random_design_comparison",)),
    "scales": (("curves",), ("sweep_scale", "GroupedDesign")),
}
# The data file and design are never read: the settings are refused first.
COMMANDS = {
    "weakivtest": ["weakivtest", "missing.csv", "--y", "y", "--x", "x", "--z", "z0"],
    "simulate": ["simulate", "no_such_design"],
    "curves": ["curves", "no_such_design", "--scales", "1"],
    "compare": ["compare"],
}

# (setting, its text on the command line, its value in the library, message)
BAD = [
    ("tau", "2", 2, "tau must be in (0, 1), got 2.0"),
    ("tau", "x", "x", "tau must be a number, got 'x'"),
    ("alpha", "0", 0, "alpha must be in (0, 1), got 0.0"),
    ("alpha", "1e-17", 1e-17, "alpha 1e-17 is too small: 1 - alpha rounds to 1"),
    ("alpha", "x", "x", "alpha must be a number, got 'x'"),
    ("method", "exact", "exact", "unknown method 'exact'; use one of patnaik, mc"),
    ("benchmark", "stock-yogo", "stock-yogo",
     "unknown benchmark 'stock-yogo'; use one of mop, ls"),
    ("reps", "0", 0, "reps must be from 1 to 10000000, got 0"),
    ("reps", "2.5", 2.5, "reps must be an integer, got 2.5"),
    ("workers", "0", 0, "workers must be at least 1, got 0"),
    ("workers", "x", "x", "workers must be an integer, got 'x'"),
    ("seed", "1.5", 1.5, "seed must be an integer, got 1.5"),
    ("seed", "x", "x", "seed must be an integer, got 'x'"),
    ("seed", "-1", -1, "seed must be a nonnegative integer, got -1"),
    ("count", "2.5", 2.5, "count must be an integer, got 2.5"),
    ("count", "0", 0, "count must be at least 1, got 0"),
    ("scales", "0", 0, "scale_e must be a positive number, got 0.0"),
    ("scales", "x", "x", "scale_e must be a number, got 'x'"),
]


@pytest.mark.parametrize("setting, text, value, message", BAD,
                         ids=[f"{row[0]}={row[1]}" for row in BAD])
def test_each_bad_setting_has_one_message_everywhere(setting, text, value, message,
                                                     monkeypatch, capsys):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(grouped_sim, "_sim_chunk", no_chunk)
    commands, functions = TAKEN_BY[setting]
    for command in commands:
        code = main([*COMMANDS[command], f"--{setting}", text])
        assert (code, *capsys.readouterr()) == (2, "", f"weakiv: error: {message}\n"), command
    for name in functions:
        with pytest.raises(InputError) as exc:
            CALLS[name](setting, value)
        assert str(exc.value) == message, name


@pytest.mark.parametrize("setting, name", [
    ("reps", "run_sim"), ("workers", "run_sim"), ("seed", "run_sim"),
    ("count", "random_design_comparison"), ("seed", "RngStream"),
])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_a_bool_is_not_an_integer(setting, name, value, monkeypatch):
    """A bool is refused where an integer is read, with the setting's one
    message, though Python counts it as the int 1 or 0."""

    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(grouped_sim, "_sim_chunk", no_chunk)
    with pytest.raises(InputError) as exc:
        CALLS[name](setting, value)
    assert str(exc.value) == f"{setting} must be an integer, got {value!r}"


def test_bool_reps_and_stream_are_refused():
    with pytest.raises(InputError, match="^reps must be an integer, got True$"):
        run_sim(design(), True, seed=False)
    with pytest.raises(InputError, match="^stream must be an integer, got True$"):
        RngStream(0, True)


def test_weak_iv_test_lists_its_own_methods():
    with pytest.raises(InputError) as exc:
        CALLS["weak_iv_test"]("method", "exact")
    assert str(exc.value) == "unknown method 'exact'; use one of patnaik, mc, conservative"


@pytest.mark.parametrize("call", [
    lambda: critical_value(np.eye(2), "x", 0.05),
    lambda: effective_dof(np.eye(2), "x"),
], ids=["critical_value", "effective_dof"])
def test_radius_that_is_not_a_number_is_refused(call):
    with pytest.raises(InputError, match="^radius must be a number, got 'x'$"):
        call()


def test_numeric_text_reads_as_its_number():
    """Text reads as the command line reads it: run_sim(tau="0.1",
    seed="3", reps="1e1") is run_sim(tau=0.1, seed=3, reps=10)."""
    text = run_sim(design(), "1e1", tau="0.1", alpha="0.05", seed="3", workers="1")
    want = run_sim(design(), 10, tau=0.1, alpha=0.05, seed=3, workers=1)
    assert (text.reps, text.tau, text.seed, text.means) == (10, 0.1, 3, want.means)
    assert RngStream("7", 2.0) == RngStream(7, 2)
    big = "12345678901234567891"
    assert RngStream(big).seed == int(big)


# The library parameters that default to each command-line setting.
SIGNATURE_DEFAULTS = {
    "tau": [(weak_iv_test, "tau"), (run_sim, "tau")],
    "alpha": [(weak_iv_test, "alpha"), (run_sim, "alpha")],
    "benchmark": [(weak_iv_test, "benchmark"), (run_sim, "benchmark")],
    "method": [(weak_iv_test, "method"), (critical_value, "method"), (run_sim, "method")],
    "reps": [],
    "workers": [(run_sim, "workers")],
    "seed": [(weak_iv_test, "mc_seed"), (critical_value, "seed"), (run_sim, "seed"),
             (random_design_comparison, "seed"), (generate, "rng")],
    "count": [(random_design_comparison, "count")],
}


def test_parser_defaults_and_allowed_values_are_the_library_ones(capsys):
    """Each command-line default is the module's, and the default of every
    library parameter that takes the setting; --help lists the module's
    allowed benchmarks and methods."""
    parser = build_parser()
    seen = set()
    for argv in COMMANDS.values():
        for name, value in vars(parser.parse_args(argv)).items():
            if name not in SIGNATURE_DEFAULTS:
                continue
            seen.add(name)
            want = getattr(_settings, name.upper())
            assert value == want, name
            for function, param in SIGNATURE_DEFAULTS[name]:
                assert inspect.signature(function).parameters[param].default == want
    assert seen == set(SIGNATURE_DEFAULTS)
    for command in ("weakivtest", "simulate", "curves"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"bias benchmark, {' or '.join(_settings.BENCHMARKS)} (default ls)" in text
        assert f"method, {' or '.join(_settings.METHODS)} (default patnaik)" in text
