import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import starloc.cli
from starloc.cli import load_class_spec, load_data_csv, main
from starloc.experiments import ExperimentConfig
from starloc.predictors import FiniteClass, LinearBall

DATA = "x1,y\n0.0,0.5\n0.0,-0.3\n0.0,0.8\n0.0,0.1\n"
CLS = json.dumps({
    "variant": "finite",
    "members": [{"type": "constant", "value": 0.6}, {"type": "constant", "value": -0.2}],
})


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(DATA)
    (tmp_path / "cls.json").write_text(CLS)
    return tmp_path


def test_verify_exit_zero(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "losses", "--trials", "2000", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["tool"] == "starloc"
    assert payload["violations_total"] == 0
    assert all(r["violations"] == 0 for r in payload["reports"])


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_reports_cover_scope(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--trials", "500", "--grid", "20",
                 "--tol", "1e-8", "--out", str(out)]) == 0
    ids = {r["inequality_id"] for r in json.loads(out.read_text())["reports"]}
    prefixes = [
        "mu_d_convexity_square", "mu_d_convexity_p_loss", "mu_d_convexity_log",
        "mu_d_convexity_glm", "exp_concave_margin_", "self_concordance_",
        "self_concordance_saturation_", "contraction_", "log_margin_scalar_",
        "erm_margin_", "star_margin_", "empirical_convexity_",
        "regularization_sandwich_", "log_gap_identity", "loss_range_",
        "gradient_fd_", "softmax_roundtrip",
    ]
    for prefix in prefixes:
        assert any(i.startswith(prefix) for i in ids), prefix


def test_fit_singleton_matches_member_risk(workdir):
    spec = workdir / "single.json"
    spec.write_text(json.dumps({"variant": "finite",
                                "members": [{"type": "constant", "value": 0.4}]}))
    out = workdir / "fit.json"
    rc = main(["fit", str(workdir / "data.csv"), "--class-spec", str(spec),
               "--loss", "square", "--out", str(out)])
    assert rc == 0
    fit = json.loads(out.read_text())["fit"]
    y = np.array([0.5, -0.3, 0.8, 0.1])
    assert fit["star_risk"] == pytest.approx(float(np.mean((0.4 - y) ** 2)), abs=1e-12)
    assert fit["lambda"] == 1.0


def test_fit_rerun_byte_identical(workdir):
    a, b = workdir / "a.json", workdir / "b.json"
    for out in (a, b):
        assert main(["fit", str(workdir / "data.csv"), "--class-spec",
                     str(workdir / "cls.json"), "--loss", "square", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_twopoint_lambda_matches_grid_oracle(workdir):
    out = workdir / "fit.json"
    assert main(["fit", str(workdir / "data.csv"), "--class-spec",
                 str(workdir / "cls.json"), "--loss", "square", "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    y = np.array([0.5, -0.3, 0.8, 0.1])
    lams = np.linspace(0.0, 1.0, 10_001)
    erm = 0.6 if np.mean((0.6 - y) ** 2) <= np.mean((-0.2 - y) ** 2) else -0.2
    other = -0.2 if erm == 0.6 else 0.6
    risks = ((lams[:, None] * erm + (1 - lams[:, None]) * other - y[None, :]) ** 2).mean(axis=1)
    assert fit["lambda"] == pytest.approx(float(lams[np.argmin(risks)]), abs=1e-4)


def test_fit_malformed_csv_names_line(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("x1,y\n0.0,0.5\n0.0\n")
    rc = main(["fit", str(bad), "--class-spec", str(workdir / "cls.json"), "--loss", "square"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_offset_cli_determinism_and_prefix(workdir):
    args = ["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
            "--loss", "square", "--kind", "exp_concave", "--seed", "7", "--full"]
    outs = []
    for name, draws in (("o1.json", "8"), ("o2.json", "8"), ("o3.json", "16")):
        out = workdir / name
        assert main(args + ["--draws", draws, "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0] == outs[1]
    assert outs[2]["estimate"]["per_draw_sup"][:8] == outs[0]["estimate"]["per_draw_sup"]


def test_offset_singleton_zero(workdir):
    spec = workdir / "single.json"
    spec.write_text(json.dumps({"variant": "finite",
                                "members": [{"type": "constant", "value": 0.4}]}))
    out = workdir / "o.json"
    assert main(["offset", str(workdir / "data.csv"), "--class-spec", str(spec),
                 "--loss", "square", "--kind", "mu_d", "--draws", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["estimate"]["mean"] == 0.0


def test_offset_rejects_zero_draws(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
              "--loss", "square", "--draws", "0"])
    assert exc.value.code == 2


def test_bound_cli_worked_examples(workdir):
    params = workdir / "p.json"
    params.write_text(json.dumps({
        "m": 1.0, "eta": 1.0, "n": 1000, "rho": 0.05, "eps": 0.01,
        "entropy": {"variant": "constant", "value": 10.0}}))
    out = workdir / "b.json"
    assert main(["bound", "--kind", "packing", "--params", str(params), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(0.9456927236958873, rel=1e-12)
    # glm: doubling C doubles the value
    for c, name in ((1.0, "g1.json"), (2.0, "g2.json")):
        gp = workdir / f"gp{c}.json"
        gp.write_text(json.dumps({"n": 1000, "rho": 0.05, "k": 2, "d": 2, "A": 1.0, "B": 3.0, "C": c}))
        assert main(["bound", "--kind", "glm", "--params", str(gp), "--out", str(workdir / name)]) == 0
    v1 = json.loads((workdir / "g1.json").read_text())["value"]
    v2 = json.loads((workdir / "g2.json").read_text())["value"]
    assert v2 == pytest.approx(2 * v1, rel=1e-12)
    # chaining with H = 0 collapses to rho / sqrt(gamma^2 + n^2)
    cp = workdir / "cp.json"
    cp.write_text(json.dumps({"m": 1.0, "eta": 1.0, "n": 100, "rho": 0.5, "gamma": 2.0,
                              "entropy": {"variant": "constant", "value": 0.0}}))
    assert main(["bound", "--kind", "chaining", "--params", str(cp), "--out", str(workdir / "c.json")]) == 0
    got = json.loads((workdir / "c.json").read_text())["value"]
    assert got == pytest.approx(0.5 / np.sqrt(4.0 + 10_000.0), rel=1e-12)


def test_bound_missing_parameter(workdir, capsys):
    params = workdir / "p.json"
    params.write_text(json.dumps({"m": 1.0, "eta": 1.0, "n": 1000, "rho": 0.05}))
    rc = main(["bound", "--kind", "packing", "--params", str(params)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "eps" in err and "entropy" in err


def test_experiment_cli_outputs(workdir):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [32, 64, 128], "replications": 6,
                               "seed": 3, "oracle_size": 100000}))
    out1 = workdir / "out1"
    out2 = workdir / "out2"
    for out in (out1, out2):
        rc = main(["experiment", "--name", "nonconvex_gap", "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 0
    for name in ("results.csv", "summary.json", "plot.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["seed"] == 3
    assert set(summary["estimators"]) == {"erm", "star"}
    csv_lines = (out1 / "results.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "experiment,estimator,n,replication,excess_risk"
    svg = (out1 / "plot.svg").read_text()
    assert svg.startswith("<svg") and "slope=" in svg and "polyline" in svg
    # slope annotations match the summary values exactly
    for est, rec in summary["estimators"].items():
        assert f"{est}: slope={rec['slope']:.3f}" in svg


def test_experiment_parallel_identical(workdir):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [32, 64, 128], "replications": 6,
                               "seed": 3, "oracle_size": 100000}))
    serial = workdir / "serial"
    par = workdir / "par"
    assert main(["experiment", "--name", "nonconvex_gap", "--config", str(cfg),
                 "--out-dir", str(serial), "--jobs", "1"]) == 0
    assert main(["experiment", "--name", "nonconvex_gap", "--config", str(cfg),
                 "--out-dir", str(par), "--jobs", "2"]) == 0
    for name in ("results.csv", "summary.json", "plot.svg"):
        assert (serial / name).read_bytes() == (par / name).read_bytes()


def test_experiment_names_dropped_rate_fit_sizes_on_one_line(workdir, capsys):
    # At seed 6 the ERM picks the better constant at n = 16 and 128, so its mean excess there is 0.
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64, 128, 256], "replications": 1, "oracle_size": 100000,
                               "seed": 6}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["experiment", "--name", "nonconvex_gap", "--config", str(cfg), "--out-dir", str(workdir / "o")])
    assert rc == 0
    assert capsys.readouterr().err == "warning: erm rate fit dropped n = [16, 128]\n"
    rows = json.loads((workdir / "o" / "summary.json").read_text())["estimators"]["erm"]["rows"]
    assert [n for n, mean, _ in rows if mean <= 0.0] == [16, 128]


def test_experiment_unknown_name(workdir, capsys):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [32, 64], "replications": 2, "oracle_size": 100000}))
    rc = main(["experiment", "--name", "mystery", "--config", str(cfg),
               "--out-dir", str(workdir / "o")])
    assert rc == 1


def test_experiment_default_w_true_fits_a_small_ball(workdir):
    # B defaults to 1, inside which the default W_true rows (norm 1.118) do not fit as given.
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000}))
    rc = main(["experiment", "--name", "logistic_rate", "--config", str(cfg),
               "--out-dir", str(workdir / "o")])
    assert rc == 0
    assert set(json.loads((workdir / "o" / "summary.json").read_text())["estimators"]) == {"erm", "star"}


@pytest.mark.parametrize("config, field", [
    ({"d": 0}, "d"),
    ({"k": 1}, "k"),
    ({"replications": 2.5}, "replications"),
    ({"replications": True}, "replications"),
    ({"n_candidates": -1}, "n_candidates"),
    ([1, 2], "JSON object"),
    ({"n_grid": [16.7, 32, 64, 128]}, "n_grid"),
    ({"n_grid": [True, 16, 32]}, "n_grid"),
    ({"n_grid": [0, 16, 32]}, "n_grid"),
    ({"n_grid": [-4, 16, 32]}, "n_grid"),
    ({"n_grid": 64}, "n_grid"),
    ({"W_true": 5}, "config"),
    ({"n_grid": [], "name": "nonconvex_gap"}, "n_grid"),
    ({"n_grid": [16, 32], "name": "nonconvex_gap"}, "n_grid"),
    ({"sigma": "1", "name": "nonconvex_gap"}, "sigma"),
    ({"sigma": -1, "name": "nonconvex_gap"}, "sigma"),
    ({"sigma": 10**400, "name": "nonconvex_gap"}, "sigma"),
    ({"c": 0.01, "name": "nonconvex_gap"}, "c must"),
    ({"p": "3", "name": "ploss_rate"}, "p must"),
    ({"B": True, "name": "ploss_rate"}, "B must"),
    ({"noise": float("nan"), "name": "ploss_rate"}, "noise"),
    ({"center": 5, "name": "ploss_rate"}, "center"),
    ({"delta": 0.7}, "delta"),
    ({"delta": "1/m"}, "delta"),
], ids=["d0", "k1", "float-reps", "bool-reps", "negative-candidates", "list", "float-n", "bool-n",
        "zero-n", "negative-n", "scalar-grid", "scalar-w-true", "empty-grid", "short-grid", "string-sigma",
        "negative-sigma", "huge-sigma", "small-c", "string-p", "bool-B", "nan-noise", "center-outside", "large-delta",
        "string-delta"])
def test_experiment_bad_config_is_an_error(workdir, capsys, config, field):
    name = "logistic_rate"
    if isinstance(config, dict):
        config = {"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, **config}
        name = config.pop("name", name)
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps(config))
    rc = main(["experiment", "--name", name, "--config", str(cfg),
               "--out-dir", str(workdir / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_glm_csv_labels(workdir):
    glm_csv = workdir / "glm.csv"
    glm_csv.write_text("x1,x2,y\n0.5,0.1,1\n-0.2,0.3,2\n0.9,-0.4,1\n")
    sample = load_data_csv(str(glm_csv), "glm", 2)
    assert sample.y.tolist() == [0, 1, 0]
    bad = workdir / "glmbad.csv"
    bad.write_text("x1,x2,y\n0.5,0.1,0\n")
    from starloc.cli import CliError

    with pytest.raises(CliError):
        load_data_csv(str(bad), "glm", 2)


def test_class_spec_linear_ball(workdir):
    spec = workdir / "ball.json"
    spec.write_text(json.dumps({"variant": "linear_ball", "d": 2, "k": 2, "bound": 3.0, "link": "softmax"}))
    ball = load_class_spec(str(spec))
    assert isinstance(ball, LinearBall)
    assert ball.B == 3.0
    nested = workdir / "nested.json"
    nested.write_text(json.dumps({"variant": "finite", "members": [
        {"type": "star_mix", "lam": 0.25,
         "left": {"type": "constant", "value": 1.0},
         "right": {"type": "constant", "value": 0.0}}]}))
    cls = load_class_spec(str(nested))
    assert isinstance(cls, FiniteClass)


def test_fit_linear_ball_scores_transform_is_the_combined_mix(workdir):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((24, 2))
    rows = "".join(f"{a!r},{b!r},{1 + int(a > 0)}\n" for a, b in X.tolist())
    (workdir / "glm.csv").write_text("x1,x2,y\n" + rows)
    spec = workdir / "ball.json"
    spec.write_text(json.dumps({"variant": "linear_ball", "d": 2, "k": 2, "bound": 3.0}))
    out = workdir / "fit.json"
    assert main(["fit", str(workdir / "glm.csv"), "--class-spec", str(spec), "--loss", "glm",
                 "--regularize", "0.05", "--candidates", "8", "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["combined"]["type"] == "star_mix"
    assert fit["scores_transform"] == {**fit["combined"], "type": "glm_star"}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "starloc", "--version"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "starloc" in proc.stdout


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_offset_rejects_levels_below_one(workdir, levels):
    with pytest.raises(SystemExit) as exc:
        main(["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
              "--loss", "square", "--levels", levels])
    assert exc.value.code == 2


def test_offset_levels_above_the_size_ceiling_exit_one(workdir, capsys, monkeypatch):
    def never(self, sample):
        raise AssertionError("the class was evaluated")

    monkeypatch.setattr(FiniteClass, "prediction_matrix", never)
    # 2 members at 40,000,000 levels: 40,000,001 rows x n = 4 points, past the 2^27-entry ceiling
    rc = main(["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
               "--loss", "square", "--kind", "exp_concave", "--draws", "2", "--levels", "40000000"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "40000001 rows" in err and "--levels 40000000" in err and "n = 4" in err


@pytest.mark.parametrize("levels, message", [
    # 40,000,001 rows x n = 2 is under the 2^27-entry ceiling, but not with psi(F) beside F
    ("40000000", "40000001 rows x n = 2 for F and again for psi(F) is 160000004 entries"),
    # 70,001 rows x n = 2 is small, but the mixes would be written one weight at a time
    ("70000", "--levels 70000 is above the ceiling of 65536"),
])
def test_offset_work_above_the_ceilings_exits_one(tmp_path, capsys, monkeypatch, levels, message):
    def never(self, sample):
        raise AssertionError("the class was evaluated")

    monkeypatch.setattr(FiniteClass, "prediction_matrix", never)
    (tmp_path / "data.csv").write_text("x1,y\n0.0,0.5\n0.0,-0.3\n")
    (tmp_path / "cls.json").write_text(CLS)
    rc = main(["offset", str(tmp_path / "data.csv"), "--class-spec", str(tmp_path / "cls.json"),
               "--loss", "square", "--kind", "exp_concave", "--draws", "2", "--levels", levels])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("index", ["5", "2", "-1"])
def test_offset_reference_index_out_of_range(workdir, capsys, index):
    rc = main(["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
               "--loss", "square", "--kind", "mu_d", "--draws", "2", "--reference-index", index])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "reference-index" in err


def test_offset_reference_index_in_range(workdir):
    out = workdir / "o.json"
    assert main(["offset", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
                 "--loss", "square", "--kind", "mu_d", "--draws", "2", "--reference-index", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["reference_index"] == 1


def test_bound_divergent_value_is_an_error(workdir, capsys):
    params = workdir / "p.json"
    params.write_text(json.dumps({"m": 1.0, "eta": 1.0, "n": 100, "rho": 0.5, "gamma": 1.0, "alpha": 0,
                                  "entropy": {"variant": "power_law", "A": 1.0, "q": 2.0}}))
    out = workdir / "b.json"
    rc = main(["bound", "--kind", "chaining", "--params", str(params), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "diverges" in err


# The params of the two entropy-integral bounds besides the entropy; each kind rejects the other's keys.
ENTROPY_KIND_PARAMS = {
    "packing": {"m": 1.0, "eta": 1.0, "n": 100, "rho": 0.5, "eps": 0.1},
    "chaining": {"m": 1.0, "eta": 1.0, "n": 100, "rho": 0.5, "gamma": 1.0},
}


def _bound_entropy(workdir, kind, entropy):
    params = workdir / "p.json"
    params.write_text(json.dumps({**ENTROPY_KIND_PARAMS[kind], "entropy": entropy}))
    out = workdir / "b.json"
    return main(["bound", "--kind", kind, "--params", str(params), "--out", str(out)]), out


@pytest.mark.parametrize("kind", ["packing", "chaining"])
@pytest.mark.parametrize("vectors", [
    [], [[]], 5, [0.1, 0.2], [[0.1, float("nan")]], [[0.1], [float("inf")]], [[0.1, 0.2], [0.3]], {"a": 1}, None,
], ids=["empty", "empty-row", "scalar", "one-d", "nan", "inf", "ragged", "object", "null"])
def test_bound_malformed_vectors_is_an_error(workdir, capsys, kind, vectors):
    rc, out = _bound_entropy(workdir, kind, {"variant": "finite_empirical", "vectors": vectors})
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: finite_empirical entropy spec: 'vectors' must be a nonempty 2-D array of finite numbers\n"


@pytest.mark.parametrize("flag", ["false", "no", 1, 0, None, [True]])
def test_bound_star_hull_correction_must_be_boolean(workdir, capsys, flag):
    rc, out = _bound_entropy(workdir, "packing", {"variant": "constant", "value": 1.0, "star_hull_correction": flag})
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: constant entropy spec: 'star_hull_correction' must be true or false, not {flag!r}\n"
    )


def test_bound_star_hull_correction_true_false_or_absent(workdir):
    values = {}
    for flag in (True, False, "absent"):
        entropy = {"variant": "constant", "value": 1.0}
        if flag != "absent":
            entropy["star_hull_correction"] = flag
        rc, out = _bound_entropy(workdir, "packing", entropy)
        assert rc == 0
        values[flag] = json.loads(out.read_text())["value"]
    # eps = 0.1 < 1, so the correction adds ln(1/eps) to H2
    assert values[False] == values["absent"] < values[True]


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "starloc", *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )


@pytest.mark.parametrize("command", ["fit", "offset"])
@pytest.mark.parametrize("spec", [
    [{"type": "constant", "value": 0.6}],
    {"variant": "finite", "members": [{"type": "constant"}]},
    {"variant": "finite", "members": [{"type": "constant", "value": None}]},
    {"variant": "finite", "members": [{"type": "constant", "value": {"v": 1}}]},
    {"variant": "finite", "members": [0.6]},
    {"variant": "finite", "members": [{"type": "linear", "weights": [[0.5]], "bound": None}]},
    {"variant": "finite", "members": [{"type": "star_mix", "lam": 0.5,
                                       "left": {"type": "constant", "value": 0.1}}]},
    {"variant": "linear_ball", "d": 1, "k": 2, "bound": None},
    {"variant": "finite", "delta": "x", "members": [{"type": "constant", "value": 0.6}]},
    {"variant": "finite", "delta": [0.1], "members": [{"type": "constant", "value": 0.6}]},
    {"variant": "finite", "members": [{"type": "linear", "weights": [[0.5], [-0.5]], "delta": "x"}]},
    {"variant": "finite", "members": [{"type": "linear", "weights": [[0.5]], "link": "identity"}]},
    {"variant": "linear_ball", "d": 1, "k": 2, "bound": 1.0, "link": "identity"},
    {"variant": "linear_ball", "d": 1, "k": 2, "bound": 1.0, "delta": "x"},
], ids=["top-level-list", "missing-value", "null-value", "object-value", "bare-number",
        "null-bound", "missing-right", "ball-null-bound", "string-delta", "list-delta",
        "member-string-delta", "member-identity-link", "ball-identity-link", "ball-string-delta"])
def test_malformed_class_spec_is_an_error(workdir, command, spec):
    path = workdir / "bad.json"
    path.write_text(json.dumps(spec))
    proc = _run_cli(command, str(workdir / "data.csv"), "--class-spec", str(path), "--loss", "square")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: class spec")
    assert "Traceback" not in proc.stderr


def test_fit_non_finite_target_is_an_error(workdir):
    data = workdir / "nan.csv"
    data.write_text("x1,y\n0.0,0.5\n0.0,nan\n0.0,0.1\n")
    proc = _run_cli("fit", str(data), "--class-spec", str(workdir / "cls.json"), "--loss", "square")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "non-finite target" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("flag,value", [("--B", "inf"), ("--B", "nan"), ("--p", "nan"), ("--p", "inf")])
def test_non_finite_loss_flag_is_an_error(workdir, flag, value):
    proc = _run_cli("fit", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"),
                    "--loss", "p_loss", flag, value)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {flag} must be a finite number")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("trials", ["-5", "0", "1", "2"])
def test_verify_trials_below_minimum_is_a_usage_error(trials):
    proc = _run_cli("verify", "--suite", "all", "--trials", trials)
    assert proc.returncode == 2
    assert "error: --trials must be at least 3" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("flag, value", [("--trials", "1000001"), ("--grid", "1001")])
def test_verify_sizes_above_the_ceilings_are_usage_errors(monkeypatch, capsys, flag, value):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(starloc.cli, "run_suite", never)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flag} must be at most {int(value) - 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["all", "margins", "losses"])
@pytest.mark.parametrize("grid", ["-3", "0", "1"])
def test_verify_grid_below_two_is_a_usage_error(monkeypatch, capsys, suite, grid):
    # The floor holds for every suite, the losses suite too, which never reads --grid:
    # every verify flag is checked and echoed in the config, whichever suite runs.
    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(starloc.cli, "run_suite", never)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: --grid must be at least 2" in err and "Traceback" not in err


def test_verify_grid_at_the_floor_runs_and_is_echoed(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "margins", "--trials", "30", "--grid", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["grid"] == 2


def test_verify_sizes_at_the_ceilings_run(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(starloc.cli, "run_suite", lambda *args, **kwargs: calls.append(kwargs) or [])
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--trials", "1000000", "--grid", "1000", "--out", str(out)]) == 0
    assert calls[0]["trials"] == 1_000_000 and calls[0]["grid"] == 1_000


def test_verify_minimum_trials_runs(tmp_path):
    out = tmp_path / "verify.json"
    proc = _run_cli("verify", "--suite", "all", "--trials", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["config"]["trials"] == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_non_finite_tol_is_an_error(tmp_path, value):
    out = tmp_path / "verify.json"
    proc = _run_cli("verify", "--suite", "all", f"--tol={value}", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: --tol must be a finite number, not {value}\n"
    assert not out.exists() and proc.stdout == ""


GLM_DATA = "x1,x2,y\n0.5,0.1,1\n-0.2,0.3,2\n0.9,-0.4,1\n-0.7,0.2,2\n"
GARBAGE_NUMBERS = ["2", True, "inf", "nan", float("nan")]
# A JSON integer too large for a float.
HUGE_INT = 10**400


def _one_error_naming(argv, capsys, field):
    """main(argv), with every warning raised, exits 1 with one short `error:` line naming field."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(lines) == 1, lines
    assert lines[0].startswith("error:") and field in lines[0], lines
    assert len(lines[0]) < 200, lines  # a huge value is echoed shortened


def _ball(**fields):
    return {"variant": "linear_ball", "d": 2, "k": 2, "bound": 3.0, **fields}


def _member(member):
    return {"variant": "finite", "members": [member]}


@pytest.mark.parametrize("spec, field", [
    *[(_ball(d=v), "'d'") for v in (2.7, "2", True)],
    *[(_ball(k=v), "'k'") for v in (2.5, "2", True, 0)],
    *[(_ball(bound=v), "'bound'") for v in GARBAGE_NUMBERS],
    (_ball(delta=0.1), "'delta'"),
    (_ball(delta=None), "'delta'"),
    *[(_member({"type": "constant", "value": v}), "'value'") for v in GARBAGE_NUMBERS],
    (_member({"type": "constant", "value": ["0.5"]}), "'value'"),
    *[(_member({"type": "tabular", "values": [v, 0.1, 0.2, 0.3]}), "'values'") for v in GARBAGE_NUMBERS],
    (_member({"type": "linear", "weights": [["0.5"]], "bound": 1.0}), "'weights'"),
    *[(_member({"type": "linear", "weights": [[0.5]], "bound": v}), "'bound'") for v in GARBAGE_NUMBERS],
    *[(_member({"type": "star_mix", "lam": v, "left": {"type": "constant", "value": 0.1},
                "right": {"type": "constant", "value": 0.2}}), "'lam'") for v in GARBAGE_NUMBERS],
    (_ball(bound=HUGE_INT), "'bound'"),
    (_member({"type": "linear", "weights": [[0.5]], "bound": HUGE_INT}), "'bound'"),
])
def test_class_spec_numbers_follow_one_rule(workdir, capsys, spec, field):
    (workdir / "glm.csv").write_text(GLM_DATA)
    (workdir / "bad.json").write_text(json.dumps(spec))
    if spec["variant"] == "linear_ball":
        argv = ["fit", str(workdir / "glm.csv"), "--loss", "glm", "--regularize", "0.05", "--candidates", "2"]
    else:
        argv = ["fit", str(workdir / "data.csv"), "--loss", "square"]
    _one_error_naming([*argv, "--class-spec", str(workdir / "bad.json"), "--out", str(workdir / "o.json")],
                      capsys, field)
    assert not (workdir / "o.json").exists()


_INT_CONFIG_FIELDS = ("replications", "seed", "oracle_size", "d", "k", "members", "n_candidates", "jobs")


@pytest.mark.parametrize("fields, field", [
    *[({name: HUGE_INT}, name) for name in _INT_CONFIG_FIELDS],
    ({"n_grid": [16, 32, HUGE_INT]}, "n_grid"),
    ({"sigma": HUGE_INT}, "sigma"),
], ids=[*[f"huge-{name}" for name in _INT_CONFIG_FIELDS], "huge-n", "huge-float-sigma"])
def test_experiment_config_integers_follow_one_rule(workdir, capsys, monkeypatch, fields, field):
    # A config that got through would start a run with a huge count; fail before it does.
    monkeypatch.setattr(starloc.cli, "run_rate_experiment", lambda config: pytest.fail("the run started"))
    config = {"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, **fields}
    with pytest.raises(ValueError, match=f"^{field} "):
        ExperimentConfig(name="nonconvex_gap", **config)
    (workdir / "exp.json").write_text(json.dumps(config))
    _one_error_naming(["experiment", "--name", "nonconvex_gap", "--config", str(workdir / "exp.json"),
                       "--out-dir", str(workdir / "o")], capsys, f"config: {field} ")


@pytest.mark.parametrize("entropy, field", [
    ({"variant": "parametric", "k": 2.7, "d": 2, "A": 1.0, "B": 3.0}, "'k'"),
    ({"variant": "parametric", "k": 2, "d": 2.5, "A": 1.0, "B": 3.0}, "'d'"),
    ({"variant": "parametric", "k": -2, "d": 2, "A": 1.0, "B": 3.0}, "'k'"),
    ({"variant": "parametric", "k": 2, "d": 0, "A": 1.0, "B": 3.0}, "'d'"),
    ({"variant": "finite_empirical", "vectors": [["1", "2"], ["0", "1"]]}, "'vectors'"),
    ({"variant": "finite_empirical", "vectors": [[True, False], [False, True]]}, "'vectors'"),
    # rejected at the parent too, now by the shared reader
    *[({"variant": "parametric", "k": v, "d": 2, "A": 1.0, "B": 3.0}, "'k'") for v in ("2", True)],
    *[({"variant": "parametric", "k": 2, "d": 2, "A": v, "B": 3.0}, "'A'") for v in GARBAGE_NUMBERS],
    # out of range: a negative entropy, a complex power, a log of A B <= 0
    ({"variant": "constant", "value": -5}, "'value'"),
    ({"variant": "power_law", "A": -1, "q": 1.0}, "'A'"),
    ({"variant": "power_law", "A": 1.0, "q": 0}, "'q'"),
    ({"variant": "power_law", "A": 1.0, "q": -1.0, "star_hull_correction": True}, "'q'"),
    ({"variant": "parametric", "k": 2, "d": 2, "A": -1.0, "B": 3.0}, "'A'"),
    ({"variant": "parametric", "k": 2, "d": 2, "A": 1.0, "B": 0}, "'B'"),
    ({"variant": "parametric", "k": 2, "d": 2, "A": 1e-300, "B": 1e-300}, "'A * B'"),
])
@pytest.mark.parametrize("kind", ["packing", "chaining"])
def test_entropy_spec_numbers_follow_one_rule(workdir, capsys, kind, entropy, field):
    params = workdir / "p.json"
    params.write_text(json.dumps({**ENTROPY_KIND_PARAMS[kind], "entropy": entropy}))
    _one_error_naming(["bound", "--kind", kind, "--params", str(params), "--out", str(workdir / "b.json")],
                      capsys, field)
    assert not (workdir / "b.json").exists()


@pytest.mark.parametrize("kind, corrected, alpha", [
    ("chaining", False, 0.5), ("chaining", True, 0.5), ("chaining", False, None), ("packing", False, None),
], ids=["chaining", "corrected", "free-alpha", "packing"])
def test_overflowing_power_law_diverges(workdir, capsys, kind, corrected, alpha):
    # (A / s)^q and A^{q/2} overflow a float: the entropy and its integral are inf.
    params = {**ENTROPY_KIND_PARAMS[kind],
              "entropy": {"variant": "power_law", "A": 1e300, "q": 3, "star_hull_correction": corrected}}
    if alpha is not None:
        params["alpha"] = alpha
    path = workdir / "p.json"
    path.write_text(json.dumps(params))
    _one_error_naming(["bound", "--kind", kind, "--params", str(path), "--out", str(workdir / "b.json")],
                      capsys, f"error: {kind} bound diverges")
    assert not (workdir / "b.json").exists()


GLM_PARAMS = {"n": 1000, "rho": 0.05, "k": 2, "d": 2, "A": 1.0, "B": 3.0}
PACKING_PARAMS = {"m": 1.0, "eta": 1.0, "n": 1000, "rho": 0.05, "eps": 0.01,
                  "entropy": {"variant": "constant", "value": 10.0}}
CHAINING_PARAMS = {**{k: v for k, v in PACKING_PARAMS.items() if k != "eps"}, "gamma": 1.0}


@pytest.mark.parametrize("kind, params, field", [
    ("glm", {**GLM_PARAMS, "k": -2}, "'k'"),
    ("glm", {**GLM_PARAMS, "k": 2.5}, "'k'"),
    ("glm", {**GLM_PARAMS, "d": 2.7}, "'d'"),
    ("glm", {**GLM_PARAMS, "d": 0}, "'d'"),
    ("packing", {**PACKING_PARAMS, "C": 50.0}, "'C'"),
    ("chaining", {**CHAINING_PARAMS, "C": 1.0}, "'C'"),
    ("bigglm", {"q": 1.0, "regime": "lipschitz_glm", "A": 1.0, "n": 256, "C": 2.0}, "'C'"),
    # rejected at the parent too, now by the shared reader
    *[("glm", {**GLM_PARAMS, "k": v}, "'k'") for v in ("2", True)],
    *[("glm", {**GLM_PARAMS, "A": v}, "'A'") for v in GARBAGE_NUMBERS],
    ("glm", {**GLM_PARAMS, "B": HUGE_INT}, "'B'"),
    ("chaining", {**CHAINING_PARAMS, "n": HUGE_INT}, "'n'"),
])
def test_bound_params_follow_one_rule(workdir, capsys, kind, params, field):
    path = workdir / "p.json"
    path.write_text(json.dumps(params))
    _one_error_naming(["bound", "--kind", kind, "--params", str(path), "--out", str(workdir / "b.json")],
                      capsys, field)
    assert not (workdir / "b.json").exists()


@pytest.mark.parametrize("W_true", [
    2.7, [[1.0, "2"], [-1.0, 0.0]], [[True, 0.0], [-1.0, 0.0]], [["inf", 0.0], [-1.0, 0.0]],
    [["nan", 0.0], [-1.0, 0.0]], [[float("nan"), 0.0], [-1.0, 0.0]], ["1"], [[1.0, 0.5]],
    [[1.0, 0.5], [-1.0]], [[4.0, 0.0], [-1.0, 0.0]],
], ids=["scalar", "string", "bool", "string-inf", "string-nan", "nan", "string-row", "one-row", "ragged",
        "outside-ball"])
def test_experiment_w_true_fails_before_any_cell(workdir, capsys, monkeypatch, W_true):
    def no_cells(*args, **kwargs):
        raise AssertionError("a bad W_true reached run_rate_experiment")

    monkeypatch.setattr(starloc.cli, "run_rate_experiment", no_cells)
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, "B": 3.0,
                               "W_true": W_true}))
    _one_error_naming(["experiment", "--name", "logistic_rate", "--config", str(cfg),
                       "--out-dir", str(workdir / "o")], capsys, "W_true")
    assert not (workdir / "o" / "summary.json").exists()


def test_experiment_w_true_is_echoed(workdir):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, "B": 3.0,
                               "n_candidates": 2, "W_true": [[1, 0.5], [-1, -0.5]]}))
    assert main(["experiment", "--name", "logistic_rate", "--config", str(cfg), "--out-dir", str(workdir / "o")]) == 0
    assert json.loads((workdir / "o" / "summary.json").read_text())["config"]["W_true"] == [[1.0, 0.5], [-1.0, -0.5]]


def test_experiment_alias_name_is_gone(workdir, capsys):
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000}))
    _one_error_naming(["experiment", "--name", "bound_vs_empirical", "--config", str(cfg),
                       "--out-dir", str(workdir / "o")], capsys, "unknown experiment 'bound_vs_empirical'")


def test_experiment_unknown_key_is_named(workdir, capsys, monkeypatch):
    monkeypatch.setattr(starloc.cli, "run_rate_experiment", lambda config: pytest.fail("the run started"))
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, "bogus": 1}))
    _one_error_naming(["experiment", "--name", "logistic_rate", "--config", str(cfg), "--out-dir", str(workdir / "o")],
                      capsys, "error: invalid experiment config: unknown key 'bogus'")


def test_nonconvex_with_too_few_positive_erm_means_names_the_estimator(workdir, capsys):
    # With one replication the ERM excess is exactly 0 whenever the ERM picks +c.
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps({"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000}))
    _one_error_naming(["experiment", "--name", "nonconvex_gap", "--config", str(cfg), "--out-dir", str(workdir / "o")],
                      capsys, "error: erm rate fit: need at least 3 rows with positive means; "
                              "the mean excess is not positive at n = [16, 64]")


def test_fit_unbounded_linear_members_emit_and_read_back(workdir):
    (workdir / "glm.csv").write_text(GLM_DATA)
    spec = {"variant": "finite", "members": [
        {"type": "linear", "weights": [[0.5, -0.2], [-0.5, 0.2]]},
        {"type": "linear", "weights": [[1.0, 0.0], [0.0, 1.0]]},
    ]}
    (workdir / "cls.json").write_text(json.dumps(spec))
    out = workdir / "fit.json"
    assert main(["fit", str(workdir / "glm.csv"), "--class-spec", str(workdir / "cls.json"), "--loss", "glm",
                 "--k", "2", "--regularize", "0.05", "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    for key in ("erm", "partner"):
        assert "bound" not in fit[key]
        (workdir / "back.json").write_text(json.dumps({"variant": "finite", "members": [fit[key]]}))
        member = load_class_spec(str(workdir / "back.json")).members[0]
        assert member.bound == np.inf and member.delta == 0.05
        assert member.W.tolist() == fit[key]["weights"] == spec["members"][fit[f"{key}_index"]]["weights"]


# Labels 1..3; with --loss glm they are checked against --k 3.
GLM3_DATA = "x1,x2,y\n0.5,0.1,1\n-0.2,0.3,2\n0.9,-0.4,3\n-0.7,0.2,2\n"
TWO_ROW_MEMBERS = {"variant": "finite", "members": [
    {"type": "linear", "weights": [[0.5, 0.1], [-0.5, 0.2]]},
    {"type": "linear", "weights": [[0.1, 0.2], [0.3, -0.4]]},
]}


@pytest.mark.parametrize("command, data, k, spec, found", [
    ("fit", GLM3_DATA, "3", _ball(), "linear_ball has k = 2"),
    ("fit", GLM3_DATA, "3", TWO_ROW_MEMBERS, "member 0 has a linear predictor with k = 2"),
    ("fit", GLM3_DATA, "3", _member({"type": "constant", "value": [0.2, 0.8]}),
     "member 0 has a constant predictor with k = 2"),
    ("fit", GLM3_DATA, "3", _member({"type": "star_mix", "lam": 0.5,
                                     "left": {"type": "constant", "value": [0.2, 0.3, 0.5]},
                                     "right": {"type": "constant", "value": [0.2, 0.8]}}),
     "member 0 has a constant predictor with k = 2"),
    ("offset", GLM3_DATA, "3", TWO_ROW_MEMBERS, "member 0 has a linear predictor with k = 2"),
    # a --k that disagrees with the ball is not ignored
    ("fit", GLM_DATA, "2", _ball(k=3), "linear_ball has k = 3"),
], ids=["ball", "linear-members", "vector-constant", "star-mix-constant", "offset-linear-members", "ball-k-above-labels"])
def test_class_count_must_equal_k(workdir, capsys, command, data, k, spec, found):
    (workdir / "glm.csv").write_text(data)
    (workdir / "cls.json").write_text(json.dumps(spec))
    _one_error_naming([command, str(workdir / "glm.csv"), "--class-spec", str(workdir / "cls.json"), "--loss", "glm",
                       "--k", k, "--regularize", "0.1", "--out", str(workdir / "o.json")],
                      capsys, f"error: class spec: {found}, but --k is {k}")
    assert not (workdir / "o.json").exists()


def test_class_counts_equal_to_k_fit(workdir):
    (workdir / "glm.csv").write_text(GLM3_DATA)
    for spec in (_ball(k=3), {"variant": "finite", "members": [
        {"type": "linear", "weights": [[0.5, 0.1], [-0.5, 0.2], [0.0, 0.3]]},
        {"type": "constant", "value": [0.2, 0.3, 0.5]},
    ]}):
        (workdir / "cls.json").write_text(json.dumps(spec))
        assert main(["fit", str(workdir / "glm.csv"), "--class-spec", str(workdir / "cls.json"), "--loss", "glm",
                     "--k", "3", "--regularize", "0.1", "--candidates", "4", "--out", str(workdir / "o.json")]) == 0


def _constant(**extra):
    return {"type": "constant", "value": 0.1, **extra}


TWO_CLASS_LINEAR = {"type": "linear", "weights": [[0.5], [-0.5]]}


@pytest.mark.parametrize("command, data, loss, spec, found", [
    # the target 2 indexed a two-row probability vector: an IndexError traceback
    ("fit", "x1,y\n0.3,2\n-0.1,0.5\n", ["--loss", "log"], _member(TWO_CLASS_LINEAR),
     "member 0 has a linear predictor with k = 2, but --loss log"),
    ("fit", "x1,y\n0.3,2\n-0.1,0.5\n", ["--loss", "square", "--B", "3"], _member(TWO_CLASS_LINEAR),
     "member 0 has a linear predictor with k = 2, but --loss square"),
    # the target -1 silently scored the last class
    ("fit", "x1,y\n0.3,-1\n-0.1,0.5\n", ["--loss", "log"], _member({"type": "constant", "value": [0.2, 0.8]}),
     "member 0 has a constant predictor with k = 2, but --loss log"),
    ("offset", "x1,y\n0.3,-1\n-0.1,0.5\n", ["--loss", "square", "--kind", "exp_concave"],
     {"variant": "finite", "members": [_constant(), {"type": "star_mix", "lam": 0.5, "left": _constant(),
                                                     "right": TWO_CLASS_LINEAR}]},
     "member 1 has a linear predictor with k = 2, but --loss square"),
], ids=["fit-log-linear", "fit-square-linear", "fit-log-vector-constant", "offset-star-mix-linear"])
def test_label_indexed_member_needs_glm(workdir, capsys, command, data, loss, spec, found):
    (workdir / "real.csv").write_text(data)
    (workdir / "cls.json").write_text(json.dumps(spec))
    _one_error_naming([command, str(workdir / "real.csv"), "--class-spec", str(workdir / "cls.json"), *loss,
                       "--out", str(workdir / "o.json")], capsys, f"error: class spec: {found} has no class labels")
    assert not (workdir / "o.json").exists()


def test_one_row_linear_member_fits_a_real_target(workdir):
    (workdir / "cls.json").write_text(json.dumps(_member({"type": "linear", "weights": [[0.5]]})))
    assert main(["fit", str(workdir / "data.csv"), "--class-spec", str(workdir / "cls.json"), "--loss", "square",
                 "--out", str(workdir / "o.json")]) == 0


@pytest.mark.parametrize("spec, found", [
    ({"variant": "finite", "members": [_constant(vlaue=3)], "extra": 1}, "finite class: unknown key 'extra'"),
    (_member(_constant(vlaue=3)), "constant member: unknown key 'vlaue'"),
    (_member({"type": "tabular", "values": [0.1, 0.2, 0.3, 0.4], "value": 1}), "tabular member: unknown key 'value'"),
    (_member({"type": "linear", "weights": [[0.5]], "bounds": 1.0}), "linear member: unknown key 'bounds'"),
    (_member({"type": "star_mix", "lam": 0.5, "left": _constant(), "right": _constant(), "mid": _constant()}),
     "star_mix member: unknown key 'mid'"),
    (_member({"type": "star_mix", "lam": 0.5, "left": _constant(), "right": _constant(extra=None)}),
     "constant member: unknown key 'extra'"),
    (_ball(bonud=3.0), "linear_ball: unknown key 'bonud'"),
], ids=["finite-class", "constant", "tabular", "linear", "star-mix", "nested-member", "ball"])
def test_class_spec_unknown_key_is_named(workdir, capsys, spec, found):
    (workdir / "glm.csv").write_text(GLM_DATA)
    (workdir / "bad.json").write_text(json.dumps(spec))
    if spec["variant"] == "linear_ball":
        argv = ["fit", str(workdir / "glm.csv"), "--loss", "glm", "--regularize", "0.05", "--candidates", "2"]
    else:
        argv = ["fit", str(workdir / "data.csv"), "--loss", "square"]
    _one_error_naming([*argv, "--class-spec", str(workdir / "bad.json"), "--out", str(workdir / "o.json")],
                      capsys, f"error: class spec: {found}")
    assert not (workdir / "o.json").exists()


@pytest.mark.parametrize("kind, params, found", [
    ("packing", {**PACKING_PARAMS, "gama": 1.0}, "packing params: unknown key 'gama'"),
    ("chaining", {**CHAINING_PARAMS, "eps": 0.01}, "chaining params: unknown key 'eps'"),
    ("glm", {**GLM_PARAMS, "q": 1.0}, "glm params: unknown key 'q'"),
    ("bigglm", {"q": 1.0, "regime": "lipschitz_glm", "A": 1.0, "n": 256, "B": 3.0}, "bigglm params: unknown key 'B'"),
    ("packing", {**PACKING_PARAMS, "entropy": {"variant": "constant", "value": 10.0, "vaule": 3}},
     "constant entropy spec: unknown key 'vaule'"),
    ("chaining", {**CHAINING_PARAMS, "entropy": {"variant": "parametric", "k": 2, "d": 2, "A": 1.0, "B": 3.0, "q": 1}},
     "parametric entropy spec: unknown key 'q'"),
    ("chaining", {**CHAINING_PARAMS, "entropy": {"variant": "power_law", "A": 1.0, "q": 1.0, "star_hull": True}},
     "power_law entropy spec: unknown key 'star_hull'"),
    ("packing", {**PACKING_PARAMS, "entropy": {"variant": "finite_empirical", "vectors": [[0.1], [0.2]], "k": 2}},
     "finite_empirical entropy spec: unknown key 'k'"),
], ids=["packing", "chaining", "glm", "bigglm", "constant-entropy", "parametric-entropy", "power-law-entropy",
        "finite-empirical-entropy"])
def test_bound_unknown_key_is_named(workdir, capsys, kind, params, found):
    path = workdir / "p.json"
    path.write_text(json.dumps(params))
    _one_error_naming(["bound", "--kind", kind, "--params", str(path), "--out", str(workdir / "b.json")],
                      capsys, f"error: {found}")
    assert not (workdir / "b.json").exists()
