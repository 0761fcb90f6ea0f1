import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starloc.cli import load_class_spec, load_data_csv, main
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
], ids=["d0", "k1", "float-reps", "bool-reps", "negative-candidates", "list", "float-n", "bool-n",
        "zero-n", "negative-n", "scalar-grid", "scalar-w-true"])
def test_experiment_bad_config_is_an_error(workdir, capsys, config, field):
    if isinstance(config, dict):
        config = {"n_grid": [16, 32, 64], "replications": 1, "oracle_size": 100000, **config}
    cfg = workdir / "exp.json"
    cfg.write_text(json.dumps(config))
    rc = main(["experiment", "--name", "logistic_rate", "--config", str(cfg),
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
    spec.write_text(json.dumps({"variant": "linear_ball", "d": 2, "k": 2,
                                "bound": 3.0, "link": "softmax", "delta": 0.1}))
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


def _bound_entropy(workdir, kind, entropy):
    params = workdir / "p.json"
    params.write_text(json.dumps({"m": 1.0, "eta": 1.0, "n": 100, "rho": 0.5, "eps": 0.1, "gamma": 1.0,
                                  "entropy": entropy}))
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
