"""Workload inputs, CLI operations and their output checks.

A workload is a list of CLI operations (argv for `starloc.cli.main`) plus,
for each one, a reader that turns the files the operation wrote into a
JSON-ready record. The benchmark compares each record with the reference
recorded for the same inputs.

Inputs come from one of N_INPUT_SETS committed input sets; `--seed s`
selects set s mod N_INPUT_SETS, so every seed has a reference, and the
same seed always gives the same inputs. The amount of work does not depend
on the set: only values change (experiment seeds, data, class members,
bound constants that do not move the quadrature).
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N_INPUT_SETS = 16
WORKLOADS = ("logistic", "scalar", "certify")

# Relative tolerance for float outputs: loose enough for a change of
# summation order, tight enough to catch a changed estimator.
RTOL = 1e-6
ATOL = 1e-12

# Criterion-5 config at one replication per sample size.
LOGISTIC = {
    "name": "logistic_rate", "n_grid": [2**k for k in range(7, 14)], "replications": 1,
    "oracle_size": 1_000_000, "delta": "1/n", "B": 3.0, "d": 2, "k": 2,
}
# Criterion-7 config. Five replications keep at least three positive ERM
# means (the ERM excess is exactly 0 when it picks the better constant).
NONCONVEX = {
    "name": "nonconvex_gap", "n_grid": [2**k for k in range(7, 14)], "replications": 5,
    "oracle_size": 1_000_000, "c": 1.0, "sigma": 1.0,
}
# Criterion-6 config; the CLI adds the bound_vs_empirical rows for it.
PLOSS = {
    "name": "ploss_rate", "n_grid": [2**k for k in range(5, 12)], "replications": 2,
    "oracle_size": 1_000_000, "p": 3.0, "B": 1.0, "members": 16,
}
TOY_EXPERIMENT = {"oracle_size": 100_000, "replications": 2}

OFFSET_N = 256
OFFSET_DRAWS = 64
TOY_DRAWS = 4
TOY_TRIALS = 1_000


@dataclass(frozen=True)
class Op:
    name: str
    argv: list
    # Reads the operation's output files; returns (record, problems).
    read: Callable[[], tuple]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _experiment_op(name: str, config: dict, work: Path) -> Op:
    cfg = _write_json(work / f"{name}.json", config)
    out = work / f"{name}-out"
    expected_rows = len(config["n_grid"]) * config["replications"]

    def read():
        problems = []
        lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        records = []
        for line in lines[1:]:
            _, est, n, rep, excess = line.split(",")
            records.append([est, int(n), int(rep), float(excess)])
        estimators = {r[0] for r in records}
        if len(records) != expected_rows * len(estimators):
            problems.append(f"{len(records)} records for {len(estimators)} estimators")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if sorted(summary["estimators"]) != sorted(estimators):
            problems.append("summary.json estimators differ from results.csv")
        if not (out / "plot.svg").read_text(encoding="utf-8").startswith("<svg"):
            problems.append("plot.svg is not an svg document")
        record = {"records": records}
        if "bound_vs_empirical" in summary:
            record["bound_vs_empirical"] = summary["bound_vs_empirical"]
        return record, problems

    return Op(name, ["experiment", "--config", cfg, "--out-dir", str(out)], read)


def _json_op(name: str, argv: list, work: Path, extract) -> Op:
    out = work / f"{name}.json"

    def read():
        return extract(json.loads(out.read_text(encoding="utf-8")))

    return Op(name, [*argv, "--out", str(out)], read)


def _verify_record(payload):
    problems = [] if payload["violations_total"] == 0 else [f"violations_total={payload['violations_total']}"]
    return {"ids": [r["inequality_id"] for r in payload["reports"]]}, problems


def _offset_record(payload):
    est = payload["estimate"]
    problems = [] if len(est["per_draw_sup"]) == est["draws"] else ["per_draw_sup length != draws"]
    return {k: est[k] for k in ("mean", "q95", "per_draw_sup")}, problems


def _bound_record(payload):
    value = payload["value"]
    return {"value": value}, ([] if math.isfinite(value) else [f"bound value {value}"])


def _experiments(configs, set_index: int, work: Path, toy: bool) -> list:
    ops = []
    for config in configs:
        config = {**config, "seed": set_index}
        if toy:
            config.update(TOY_EXPERIMENT, n_grid=config["n_grid"][:4])
        ops.append(_experiment_op(config["name"], config, work))
    return ops


def _certify(set_index: int, work: Path, toy: bool) -> list:
    rng = np.random.default_rng((set_index, 4242))
    x = rng.uniform(-1.0, 1.0, OFFSET_N)
    y = np.clip(0.5 * x + 0.3 * rng.standard_normal(OFFSET_N), -1.0, 1.0)
    data = work / "data.csv"
    data.write_text(
        "x1,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)), encoding="utf-8"
    )

    def class_spec(members: int) -> str:
        a, b = rng.uniform(-0.5, 0.5, (2, members))
        values = np.clip(a[:, None] + b[:, None] * x[None, :], -1.0, 1.0)
        spec = {"variant": "finite", "members": [{"type": "tabular", "values": v.tolist()} for v in values]}
        return _write_json(work / f"class-m{members}.json", spec)

    m8, m12 = class_spec(8), class_spec(12)
    draws = str(TOY_DRAWS if toy else OFFSET_DRAWS)
    trials = [] if not toy else ["--trials", str(TOY_TRIALS)]
    seed = str(set_index)

    def offset(name, spec, kind, *loss):
        argv = ["offset", str(data), "--class-spec", spec, *loss, "--kind", kind,
                "--draws", draws, "--seed", seed, "--full"]
        return _json_op(name, argv, work, _offset_record)

    def bound(name, entropy):
        # m, eta and rho enter the bound outside the entropy integral, so
        # drawing them from the input set changes the value, not the work.
        params = {
            "m": float(rng.uniform(2.0, 8.0)), "eta": float(rng.uniform(0.05, 0.5)),
            "rho": float(rng.uniform(0.01, 0.1)), "n": 1024, "gamma": 1.0,
            "entropy": {**entropy, "star_hull_correction": True},
        }
        path = _write_json(work / f"{name}-params.json", params)
        return _json_op(name, ["bound", "--kind", "chaining", "--params", path], work, _bound_record)

    return [
        _json_op("verify-a", ["verify", "--suite", "all", "--seed", str(2 * set_index), *trials], work, _verify_record),
        _json_op("verify-b", ["verify", "--suite", "all", "--seed", str(2 * set_index + 1), *trials], work, _verify_record),
        offset("offset-exp-concave-m8", m8, "exp_concave", "--loss", "square"),
        offset("offset-exp-concave-m12", m12, "exp_concave", "--loss", "square"),
        offset("offset-mu-d-m12", m12, "mu_d", "--loss", "square"),
        offset("offset-uniform-convex-m12", m12, "uniform_convex", "--loss", "p_loss", "--p", "3"),
        bound("bound-power-law", {"variant": "power_law", "A": 1.0, "q": 1.0}),
        bound("bound-parametric", {"variant": "parametric", "k": 2, "d": 2, "A": 1.0, "B": 3.0}),
    ]


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def build(workload: str, seed: int, work: Path, toy: bool = False) -> list:
    """Write the inputs for `seed` into `work` and return the operations."""
    if workload == "logistic":
        return _experiments([LOGISTIC], input_set(seed), work, toy)
    if workload == "scalar":
        return _experiments([NONCONVEX, PLOSS], input_set(seed), work, toy)
    if workload == "certify":
        return _certify(input_set(seed), work, toy)
    raise ValueError(f"unknown workload {workload!r}")


def pass_wall(times: dict) -> float:
    """Wall time of a typical pass from {operation: [seconds per pass]}.

    It sums each operation's median time, which discards a slowdown that
    hits different operations in different passes.
    """
    return sum(statistics.median(t) for t in times.values())


def compare(expected, actual, where: str = "") -> list:
    """Mismatches between a reference record and an output record."""
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        if not math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL):
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        return []
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(expected) != sorted(actual):
            return [f"{where}: keys differ"]
        return [m for k in expected for m in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: length differs"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in compare(e, a, f"{where}[{i}]")]
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]
