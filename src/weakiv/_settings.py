"""The settings of the test and of the simulation: each one's default and
bounds or allowed values, and `read`, which takes a setting's value or its
text and returns it as a float, an int or the allowed string, or raises the
setting's one InputError. The library reads each setting when it is called,
and `cli.main` its parsed arguments (`read_args`) before any numeric module
loads, so this module imports nothing but the package's errors."""

from .errors import InputError

TAU, ALPHA = 0.1, 0.05
BENCHMARKS, BENCHMARK = ("mop", "ls"), "ls"
METHODS, METHOD = ("patnaik", "mc"), "patnaik"  # weak_iv_test also takes "conservative"
REPS = 2000
MAX_REPS = 10**7
"""Most replications of a run. It bounds run time, not memory: `run_sim` folds
each chunk of replications into exact partial sums as it ends, so its memory
does not grow with the replications. At about 0.1-1 ms per replication of the
shipped designs, the cap is hours of one worker's time."""
WORKERS, SEED, COUNT = 1, 0, 1000


def number(value, name):
    """`value` as a float: a numeric string is a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a number, got {value!r}") from None


def integer(value, name):
    """`value` as an int: integer text is read exactly, and an integral float
    such as 1.0e+4 is one; a fraction, a bool or a non-number is refused."""
    if type(value).__name__ in ("bool", "bool_"):  # Python's and numpy's
        raise InputError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or not x.is_integer():
        raise InputError(f"{name} must be an integer, got {repr(value) if x is None else x}")
    try:
        return int(value)  # exact for integer text past 2**53, where x rounds
    except (TypeError, ValueError):
        return int(x)


# Each bounded setting: its reader, its test and what its value must be.
_BOUNDS = {
    "tau": (number, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "alpha": (number, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "reps": (integer, lambda v: 1 <= v <= MAX_REPS, f"from 1 to {MAX_REPS}"),
    "workers": (integer, lambda v: v >= 1, "at least 1"),
    "count": (integer, lambda v: v >= 1, "at least 1"),
    "seed": (integer, lambda v: v >= 0, "a nonnegative integer"),
    "stream": (integer, lambda v: v >= 0, "a nonnegative integer"),
    "scale_e": (number, lambda v: 0.0 < v < float("inf"), "a positive number"),
    "radius": (number, lambda v: v >= 0.0, "nonnegative"),
}
_CHOICES = {"benchmark": BENCHMARKS, "method": METHODS}


def read(name, value, allowed=None):
    """`value` of the setting `name`, read and checked; `allowed`, when
    given, replaces the allowed strings of a choice."""
    if name in _CHOICES:
        allowed = allowed or _CHOICES[name]
        if not isinstance(value, str) or value not in allowed:
            raise InputError(f"unknown {name} {value!r}; use one of {', '.join(allowed)}")
        return value
    kind, ok, must = _BOUNDS[name]
    v = kind(value, name)
    if not ok(v):
        raise InputError(f"{name} must be {must}, got {v}")
    if name == "alpha" and 1.0 - v == 1.0:
        raise InputError(f"alpha {v} is too small: 1 - alpha rounds to 1")
    return v


def scales(values):
    """The first-stage scales of a sweep, each a scale_e, as a list."""
    values = [read("scale_e", s) for s in values]
    if not values:
        raise InputError("scales must not be empty")
    return values


def read_args(args):
    """Read in place each setting that the parsed command-line `args` carry."""
    for name, value in list(vars(args).items()):
        if name == "scales":
            args.scales = scales(value)
        elif name in _BOUNDS or name in _CHOICES:
            setattr(args, name, read(name, value))
