"""Fuzz the file-reading subcommands with generated inputs.

`fit`, `offset`, `bound` and `experiment` read a CSV, a class spec, a
params file or an experiment config, and numeric flags. Whatever they are
fed, `main` must return 0 or 1 (with an `error:` line) or exit 2 through
argparse; no other exception may escape. Inputs start from a valid file
and are then perturbed, so most examples get past parsing into the
estimators, bound evaluators and experiment runners.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from starloc.cli import main
from starloc.experiments import EXPERIMENT_NAMES

# Derandomized, so every run of the suite tries the same inputs; a few
# dozen examples per subcommand keep this module to seconds.
FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ROWS = 5
TOKENS = ["0", "1", "-1", "2", "3", "0.5", "-2.5", "1e-300", "1e308", "1e400", "nan", "inf", "-inf"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.sampled_from(TOKENS), st.lists(st.floats(-2.0, 2.0), max_size=ROWS + 1), st.just({}),
)


def perturbed(valid: dict):
    """valid with some keys dropped and some values replaced by junk, or with a key it does not read."""
    keys = sorted(valid)
    return st.one_of(
        st.builds(
            lambda drop, junk: {**{k: v for k, v in valid.items() if k not in drop}, **junk},
            st.sets(st.sampled_from(keys), max_size=1),
            st.dictionaries(st.sampled_from(keys), JUNK, max_size=2),
        ),
        st.just({**valid, "extra": 0}),
    )


def _csv(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


CELL = st.one_of(st.floats(-1.0, 1.0).map(repr), st.sampled_from(["1", "2", "3", "0"]))
GOOD_CSV = st.builds(_csv, st.just("x1,y"), st.lists(st.lists(CELL, min_size=2, max_size=2), min_size=ROWS, max_size=ROWS))
BAD_CSV = st.builds(
    _csv,
    st.sampled_from(["x1,y", "x1,x2,y", "y", "x1", ""]),
    st.lists(st.lists(st.one_of(CELL, st.sampled_from(TOKENS + ["", "x"])), min_size=1, max_size=3), max_size=ROWS),
)
CSV = st.one_of(GOOD_CSV, GOOD_CSV, BAD_CSV)

GOOD_MEMBERS = [
    {"type": "constant", "value": 0.3},
    {"type": "constant", "value": -0.4},
    {"type": "tabular", "values": [0.1, -0.2, 0.3, 0.0, 0.5]},
    {"type": "linear", "weights": [[0.5], [-0.5]], "bound": 1.0, "link": "softmax", "delta": 0.1},
    {"type": "linear", "weights": [[0.5], [-0.5], [0.2]]},
    {"type": "star_mix", "lam": 0.5, "left": {"type": "constant", "value": 0.2},
     "right": {"type": "constant", "value": -0.1}},
]
MEMBER = st.one_of(
    st.sampled_from(GOOD_MEMBERS), *[perturbed(m) for m in GOOD_MEMBERS], JUNK,
)
CLASS_SPEC = st.one_of(
    st.builds(lambda members: {"variant": "finite", "members": members}, st.lists(MEMBER, min_size=1, max_size=4)),
    perturbed({"variant": "finite", "members": GOOD_MEMBERS[:2], "delta": 0.1, "link": "softmax"}),
    perturbed({"variant": "linear_ball", "d": 1, "k": 2, "bound": 1.0, "link": "softmax"}),
    JUNK,
)

ENTROPY = st.one_of(
    perturbed({"variant": "power_law", "A": 1.0, "q": 1.0, "star_hull_correction": True}),
    perturbed({"variant": "parametric", "k": 2, "d": 2, "A": 1.0, "B": 3.0}),
    perturbed({"variant": "constant", "value": 2.0}),
    perturbed({"variant": "finite_empirical", "vectors": [[0.1, 0.2], [0.3, 0.0], [0.2, 0.2]]}),
)
BOUND_PARAMS = {
    "packing": {"m": 4.0, "eta": 0.25, "n": 256, "rho": 0.05, "eps": 0.01},
    "chaining": {"m": 4.0, "eta": 0.25, "n": 256, "rho": 0.05, "gamma": 1.0, "alpha": 0.1},
    "glm": {"n": 256, "rho": 0.05, "k": 2, "d": 2, "A": 1.0, "B": 3.0},
    "bigglm": {"q": 1.0, "regime": "lipschitz_glm", "A": 1.0, "n": 256},
}


@st.composite
def bound_case(draw):
    kind = draw(st.sampled_from(sorted(BOUND_PARAMS)))
    params = draw(perturbed(BOUND_PARAMS[kind]))
    if kind in ("packing", "chaining"):
        params["entropy"] = draw(ENTROPY)
    return kind, draw(st.one_of(st.just(params), st.just(params), JUNK))


def _flags(names):
    """Optional numeric flags from small values, so no run is large.

    Non-finite values come in every spelling float() accepts.
    """
    return st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(TOKENS + ["NaN", "Infinity", "-Infinity", "abc"])),
        max_size=3,
    ).map(lambda pairs: [token for pair in pairs for token in pair])


LOSS = st.lists(st.sampled_from(["square", "p_loss", "log", "glm", "hinge"]), max_size=1).map(
    lambda losses: [arg for loss in losses for arg in ("--loss", loss)]
)
LOSS_FLAGS = ["--p", "--B", "--k", "--regularize"]


def _run(argv):
    """main(argv) must return 0 or 1, or exit 2 from argparse."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert rc in (0, 1), argv


def _write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _data_and_spec(tmp, data, spec):
    return [_write(tmp, "data.csv", data), "--class-spec", _write(tmp, "cls.json", json.dumps(spec))]


@FUZZ
@given(CSV, CLASS_SPEC, LOSS, _flags([*LOSS_FLAGS, "--candidates", "--seed"]))
def test_fit_fuzz(data, spec, loss, flags):
    with tempfile.TemporaryDirectory() as tmp:
        _run(["fit", *_data_and_spec(tmp, data, spec), *loss, *flags, "--out", str(Path(tmp) / "out.json")])


@FUZZ
@given(
    CSV, CLASS_SPEC, LOSS,
    st.lists(st.sampled_from(["mu_d", "exp_concave", "uniform_convex"]), max_size=1),
    _flags([*LOSS_FLAGS, "--draws", "--levels", "--reference-index", "--seed"]),
)
def test_offset_fuzz(data, spec, loss, kind, flags):
    with tempfile.TemporaryDirectory() as tmp:
        kind_flag = ["--kind", *kind] if kind else []
        _run(["offset", *_data_and_spec(tmp, data, spec), *loss, *kind_flag, *flags,
              "--out", str(Path(tmp) / "out.json")])


@FUZZ
@given(bound_case(), _flags(["--seed"]))
def test_bound_fuzz(case, flags):
    kind, params = case
    with tempfile.TemporaryDirectory() as tmp:
        _run(["bound", "--kind", kind, "--params", _write(tmp, "params.json", json.dumps(params)), *flags,
              "--out", str(Path(tmp) / "out.json")])


# Tiny sizes: the smallest oracle the config accepts, and junk integers
# are at most 3, so no perturbation makes a run large.
EXPERIMENT = {
    "n_grid": [8, 16, 32], "replications": 2, "oracle_size": 100_000, "seed": 1, "p": 3.0, "B": 3.0,
    "sigma": 1.0, "c": 1.0, "noise": 0.2, "center": 0.2, "delta": "1/n", "d": 2, "k": 2, "members": 4,
    "n_candidates": 2,
}


@FUZZ
@given(st.sampled_from(EXPERIMENT_NAMES), st.one_of(perturbed(EXPERIMENT), perturbed(EXPERIMENT), JUNK))
def test_experiment_fuzz(name, config):
    """Every failure is an `error:` line with exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["experiment", "--name", name, "--config", _write(tmp, "exp.json", json.dumps(config)),
                "--out-dir", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1), argv
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert (rc == 1) == bool(errors), (config, err.getvalue())
