"""An edge-input table over the dense entry points.

Each entry point runs on every row of a fixed table of awkward inputs: weight
kinds as strings, unknown kinds, custom weights of the wrong size or not
symmetric, column names that are not strings, tau = 1e-300, and y or x scaled
by 1e+-21. Every case must return finite figures or raise a `WeakIvError`;
any other exception, or a floating-point warning, fails it. The table is
fixed, so the test is derandomized.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import make_dataset
from weakiv import (
    Dataset,
    WeightSpec,
    estimate,
    f_generalized,
    load_csv,
    partial_out,
    weak_iv_test,
    weight_matrix,
)
from weakiv.errors import WeakIvError

K = 3
SCALES = [(1.0, 1.0), (1e21, 1.0), (1e-21, 1.0), (1.0, 1e21), (1.0, 1e-21)]
SPECS = [
    "2sls", "gmmf", "GMM-F", "liml", "two-step",
    ("custom", 2.5 * np.eye(K)),
    ("custom", np.eye(K - 1)),
    ("custom", np.eye(K + 1)),
    ("custom", np.eye(K) + np.triu(np.full((K, K), 0.3), 1)),
]
TAUS = [0.1, 1e-300]


def _spec(spec):
    return WeightSpec(*spec) if isinstance(spec, tuple) else spec


def _figures(result):
    """The numbers in a result, as one flat float array."""
    if dataclasses.is_dataclass(result):
        values = [v for f in dataclasses.fields(result)
                  if not isinstance(v := getattr(result, f.name), (str, bool, tuple))
                  and v is not None and not dataclasses.is_dataclass(v)]
        return np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values])
    return np.ravel(np.asarray(result, dtype=float))


def _outcome(call):
    """"finite" when `call` returns finite figures and "refused" when it
    raises a WeakIvError, with warnings as errors; else what went wrong."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            figures = _figures(call())
    except WeakIvError:
        return "refused"
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        return f"{type(exc).__name__}: {exc}"
    return "finite" if np.isfinite(figures).all() else f"non-finite figures {figures}"


def _check(outcomes, plain):
    """No case went wrong, and the `plain` case, with ordinary inputs,
    returned figures."""
    assert {k: v for k, v in outcomes.items() if v not in ("finite", "refused")} == {}
    assert outcomes[plain] == "finite"


@pytest.fixture(scope="module")
def cases():
    """(case, data, spec, flavor) for every scale, weight and flavor."""
    base = make_dataset(np.random.default_rng(41), n=200, kz=K, het=True, with_cluster=True)
    out = []
    for sy, sx in SCALES:
        pd_ = partial_out(Dataset(y=base.y * sy, x=base.x * sx, z=base.z,
                                  cluster=base.cluster))
        for i, spec in enumerate(SPECS):
            for flavor in ("hc0", "cluster"):
                out.append(((sy, sx, i, flavor), pd_, spec, flavor))
    return out


@pytest.mark.parametrize("entry", [estimate, weight_matrix, f_generalized])
def test_weight_entry_points(entry, cases):
    _check({case: _outcome(lambda: entry(pd_, _spec(spec), flavor, True))
            for case, pd_, spec, flavor in cases}, (1.0, 1.0, 0, "hc0"))


def test_weak_iv_test(cases):
    _check({(*case, tau): _outcome(
                lambda: weak_iv_test(pd_, _spec(spec), tau=tau, flavor=flavor))
            for case, pd_, spec, flavor in cases for tau in TAUS},
           (1.0, 1.0, 0, "hc0", 0.1))


NAMES = [
    {}, {"y": ["y"]}, {"x": ["x"]}, {"cluster": ["g"]}, {"z": [["z0"]]},
    {"controls": [["c"]]}, {"y": 0}, {"cluster": b"g"}, {"z": "z0"}, {"y": "w"},
]


@pytest.mark.parametrize("sy, sx", SCALES)
def test_load_csv(sy, sx, tmp_path):
    cols = np.random.default_rng(42).standard_normal((5, 40)) * [[sy], [sx], [1], [1], [1]]
    path = tmp_path / "d.csv"
    path.write_text("y,x,c,z0,z1,g\n" + "".join(
        ",".join(map(repr, row.tolist())) + f",g{i % 5}\n" for i, row in enumerate(cols.T)))
    kw = {"y": "y", "x": "x", "z": ["z0", "z1"], "controls": ["c"], "cluster": "g"}
    _check({i: _outcome(lambda: load_csv(path, **{**kw, **names}))
            for i, names in enumerate(NAMES)}, 0)
