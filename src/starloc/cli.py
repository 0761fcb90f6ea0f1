"""Command-line surface: verify, fit, offset, bound, and experiment.

Every JSON artifact carries a reproducibility header (tool, version, seed,
resolved config) with sorted keys; rerunning a command with the same
inputs and seed reproduces the output bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundInputs, bigglm_rate, chaining_bound, glm_bound, packing_bound
from .complexity import (
    EntropyProfile,
    constant_profile,
    finite_empirical_profile,
    offset_complexity_mc,
    parametric_profile,
    power_law_profile,
)
from .estimators import erm_finite, regularized_star_glm, star_fit
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    bound_vs_empirical,
    results_csv,
    run_rate_experiment,
    summary_dict,
)
from .losses import LossModel, glm_loss, log_loss, p_loss, square_loss
from .predictors import Constant, FiniteClass, Linear, LinearBall, Sample, StarMix, Tabular
from .svg import rate_plot_svg
from .verify import SUITES, run_suite

__all__ = ["main"]


class CliError(Exception):
    """Runtime/data failure (exit 1); usage problems exit 2 via argparse."""


def _header(seed: int, config: dict) -> dict:
    return {"tool": "starloc", "version": __version__, "seed": seed, "config": config}


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _check_finite_flags(args, *flags) -> None:
    # These flags are echoed in the output config, so all must be finite.
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise CliError(f"--{flag} must be a finite number, not {value}")


def _build_loss(args) -> LossModel:
    _check_finite_flags(args, "p", "B", "regularize")
    kind = args.loss
    if kind == "square":
        return square_loss(args.B)
    if kind == "p_loss":
        return p_loss(args.p, args.B)
    if kind == "log":
        return log_loss(args.regularize if args.regularize is not None else 1e-12)
    if kind == "glm":
        if args.regularize is None:
            raise CliError("glm loss requires --regularize")
        return glm_loss(args.k, args.regularize)
    raise CliError(f"unknown loss {kind!r}")


def load_data_csv(path: str, loss_kind: str, k: int | None = None) -> Sample:
    """Header x1,...,xd,y; y is real for regression and a 1..k label for glm."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CliError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[-1] != "y":
        raise CliError(f"{path} line 1: header must end with 'y'")
    d = len(header) - 1
    xs, ys = [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise CliError(f"{path} line {i}: expected {d + 1} fields, found {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CliError(f"{path} line {i}: {exc}") from exc
        xs.append(vals[:-1])
        ys.append(vals[-1])
    if not ys:
        raise CliError(f"{path}: no data rows")
    X = np.asarray(xs, dtype=float).reshape(len(ys), d)
    y = np.asarray(ys, dtype=float)
    if loss_kind == "glm":
        labels = y.astype(int)
        if np.any(labels != y) or labels.min() < 1 or (k is not None and labels.max() > k):
            raise CliError("glm targets must be integer class labels in 1..k")
        return Sample(X, labels - 1)
    return Sample(X, y)


def _spec_value(obj: dict, key: str, convert, where: str):
    """obj[key] through convert; missing, null or unconvertible values are CliErrors."""
    value = obj.get(key)
    if value is None:
        raise CliError(f"class spec: {where} needs a non-null {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise CliError(f"class spec: {where} has a bad {key!r}: {exc}") from exc


def _scalar_or_vector(value):
    return np.asarray(value, dtype=float) if isinstance(value, list) else float(value)


def _floats(value):
    return np.asarray(value, dtype=float)


def _delta_and_link(obj: dict, where: str):
    """The spec's optional delta (null or a finite number); its link, if given, must be softmax."""
    if obj.get("link", "softmax") != "softmax":
        raise CliError(f"class spec: {where} has link {obj['link']!r}; only 'softmax' is supported")
    delta = obj.get("delta")
    if delta is not None and (
        isinstance(delta, bool) or not isinstance(delta, (int, float)) or not math.isfinite(delta)
    ):
        raise CliError(f"class spec: {where} 'delta' must be null or a finite number, not {delta!r}")
    return delta


def _predictor_from_spec(obj):
    if not isinstance(obj, dict):
        raise CliError(f"class spec: a member must be a JSON object, not {type(obj).__name__}")
    t = obj.get("type")
    where = f"{t} member"
    if t == "constant":
        return Constant(_spec_value(obj, "value", _scalar_or_vector, where))
    if t == "tabular":
        return Tabular(_spec_value(obj, "values", _floats, where))
    if t == "linear":
        return Linear(
            _spec_value(obj, "weights", _floats, where),
            _spec_value(obj, "bound", float, where) if "bound" in obj else np.inf,
            _delta_and_link(obj, where),
        )
    if t == "star_mix":
        return StarMix(
            _spec_value(obj, "lam", float, where),
            _predictor_from_spec(obj.get("left")),
            _predictor_from_spec(obj.get("right")),
        )
    raise CliError(f"unknown predictor type {t!r} in class spec")


def load_class_spec(path: str):
    """JSON class spec: finite member list, or a linear ball (d, k, B, link)."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse class spec {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"class spec {path} must be a JSON object, not {type(obj).__name__}")
    variant = obj.get("variant")
    if variant == "finite":
        members = obj.get("members") or []
        if not isinstance(members, list):
            raise CliError("finite class spec needs a members list")
        members = [_predictor_from_spec(m) for m in members]
        if not members:
            raise CliError("finite class spec needs a nonempty members list")
        return FiniteClass(members, _delta_and_link(obj, "finite class"))
    if variant == "linear_ball":
        return LinearBall(
            _spec_value(obj, "d", int, variant), _spec_value(obj, "k", int, variant),
            _spec_value(obj, "bound", float, variant), _delta_and_link(obj, variant),
        )
    raise CliError(f"unknown class spec variant {variant!r}")


def _real(obj: dict, key: str, where: str):
    """obj[key] if it is a finite JSON number; a missing or other value is a CliError."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CliError(f"{where}: {key!r} must be a finite number, not {value!r}")
    return value


def _entropy_from_spec(obj) -> EntropyProfile:
    if not isinstance(obj, dict):
        raise CliError(f"entropy spec must be a JSON object, not {type(obj).__name__}")
    variant = obj.get("variant")
    where = f"{variant} entropy spec"
    corr = obj.get("star_hull_correction", False)
    if not isinstance(corr, bool):
        raise CliError(f"{where}: 'star_hull_correction' must be true or false, not {corr!r}")
    if variant == "constant":
        return constant_profile(float(_real(obj, "value", where)), corr)
    if variant == "parametric":
        k, d, A, B = (_real(obj, key, where) for key in ("k", "d", "A", "B"))
        return parametric_profile(int(k), int(d), float(A), float(B), corr)
    if variant == "power_law":
        return power_law_profile(float(_real(obj, "A", where)), float(_real(obj, "q", where)), corr)
    if variant == "finite_empirical":
        try:
            return finite_empirical_profile(obj.get("vectors"), corr)
        except (TypeError, ValueError) as exc:
            raise CliError(f"{where}: 'vectors' must be a nonempty 2-D array of finite numbers") from exc
    raise CliError(f"unknown entropy variant {variant!r}")


def _describe_fit(fit) -> dict:
    return {
        "lambda": fit.lam,
        "erm_risk": fit.erm_risk,
        "star_risk": fit.star_risk,
        "erm_index": fit.erm_index,
        "partner_index": fit.partner_index,
        "erm": fit.erm.describe(),
        "partner": fit.partner.describe(),
        "combined": fit.combined.describe(),
    }


def cmd_verify(args) -> int:
    _check_finite_flags(args, "tol")
    reports = run_suite(args.suite, trials=args.trials, grid=args.grid, seed=args.seed, tol=args.tol)
    payload = _header(args.seed, {"suite": args.suite, "trials": args.trials, "grid": args.grid, "tol": args.tol})
    payload["reports"] = [asdict(r) for r in reports]
    payload["violations_total"] = int(sum(r.violations for r in reports))
    _emit_json(payload, args.out)
    return 0 if payload["violations_total"] == 0 else 1


def cmd_fit(args) -> int:
    model = _build_loss(args)
    sample = load_data_csv(args.data, args.loss, args.k)
    cls = load_class_spec(args.class_spec)
    if isinstance(cls, LinearBall):
        if args.loss != "glm":
            raise CliError("linear_ball fitting is wired for the glm loss")
        delta = args.regularize
        fit = regularized_star_glm(
            model, cls, sample, delta, n_candidates=args.candidates, seed=args.seed
        )
        record = _describe_fit(fit)
        # The GLM star mix read back in score space: link_right_inverse(combined.probs(x)).
        record["scores_transform"] = {**record["combined"], "type": "glm_star"}
    else:
        if args.regularize is not None and cls.delta is None:
            cls = FiniteClass(cls.members, args.regularize)
        fit = star_fit(model, cls, sample)
        record = _describe_fit(fit)
    cfg = {
        "data": args.data, "class_spec": args.class_spec, "loss": args.loss,
        "p": args.p, "B": args.B, "k": args.k, "regularize": args.regularize,
        "candidates": args.candidates,
    }
    payload = _header(args.seed, cfg)
    payload["fit"] = record
    _emit_json(payload, args.out)
    return 0


def cmd_offset(args) -> int:
    model = _build_loss(args)
    sample = load_data_csv(args.data, args.loss, args.k)
    cls = load_class_spec(args.class_spec)
    if not isinstance(cls, FiniteClass):
        raise CliError("offset estimation needs a finite class spec")
    members = cls.effective_members()
    if args.reference_index is not None and not 0 <= args.reference_index < len(members):
        raise CliError(
            f"--reference-index must lie in 0..{len(members) - 1} for a {len(members)}-member class"
        )
    if args.kind in ("mu_d", "uniform_convex"):
        if args.reference_index is not None:
            reference = members[args.reference_index]
        else:
            idx, _ = erm_finite(model, cls, sample)
            reference = members[idx]
    else:
        reference = None
    est = offset_complexity_mc(
        model, cls, reference, sample, args.kind,
        draws=args.draws, seed=args.seed, lambda_levels=args.levels,
    )
    cfg = {
        "data": args.data, "class_spec": args.class_spec, "loss": args.loss,
        "p": args.p, "B": args.B, "k": args.k, "regularize": args.regularize,
        "kind": args.kind, "draws": args.draws, "levels": args.levels,
        "reference_index": args.reference_index,
    }
    payload = _header(args.seed, cfg)
    payload["estimate"] = {
        "offset_kind": est.offset_kind,
        "draws": est.draws,
        "mean": est.mean,
        "q95": est.q95,
        "coefficient": est.coefficient,
    }
    if args.full:
        payload["estimate"]["per_draw_sup"] = est.per_draw_sup.tolist()
    _emit_json(payload, args.out)
    return 0


def cmd_bound(args) -> int:
    try:
        params = json.loads(Path(args.params).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse params {args.params}: {exc}") from exc
    if not isinstance(params, dict):
        raise CliError(f"params {args.params} must be a JSON object, not {type(params).__name__}")
    where = f"{args.kind} params"

    def need(*names):
        missing = [nm for nm in names if nm not in params]
        if missing:
            raise CliError(f"missing parameter(s) for {args.kind}: {', '.join(missing)}")
        return [params[nm] if nm in ("entropy", "regime") else _real(params, nm, where) for nm in names]

    def optional(name, default):
        return default if params.get(name) is None else _real(params, name, where)

    if args.kind == "packing":
        m, eta, n, rho, eps, entropy = need("m", "eta", "n", "rho", "eps", "entropy")
        inputs = BoundInputs(
            n=n, rho=rho, m=m, eta=eta, eps=eps, C=optional("C", 1.0),
            entropy=_entropy_from_spec(entropy),
        )
        value = packing_bound(inputs)
    elif args.kind == "chaining":
        m, eta, n, rho, gamma, entropy = need("m", "eta", "n", "rho", "gamma", "entropy")
        inputs = BoundInputs(
            n=n, rho=rho, m=m, eta=eta, alpha=optional("alpha", None), gamma=gamma,
            C=optional("C", 1.0), entropy=_entropy_from_spec(entropy),
        )
        value = chaining_bound(inputs)
    elif args.kind == "glm":
        n, rho, k, d, A, B = need("n", "rho", "k", "d", "A", "B")
        inputs = BoundInputs(n=n, rho=rho, C=optional("C", 1.0))
        value = glm_bound(inputs, k, d, A, B)
    elif args.kind == "bigglm":
        value = bigglm_rate(*need("q", "regime", "A", "n"))
    else:  # unreachable through argparse choices
        raise CliError(f"unknown bound kind {args.kind!r}")
    if not math.isfinite(value):
        raise CliError(f"{args.kind} bound diverges for these parameters (value {value})")
    payload = _header(args.seed, {"kind": args.kind, "params": params})
    payload["value"] = value
    _emit_json(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    try:
        cfg_obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse config {args.config}: {exc}") from exc
    if not isinstance(cfg_obj, dict):
        raise CliError(f"experiment config {args.config} must be a JSON object")
    cfg_obj["name"] = args.name or cfg_obj.get("name")
    if cfg_obj.get("name") not in EXPERIMENT_NAMES:
        raise CliError(f"unknown experiment name {cfg_obj.get('name')!r}")
    if args.seed is not None:
        cfg_obj["seed"] = args.seed
    if args.reps is not None:
        cfg_obj["replications"] = args.reps
    if args.jobs is not None:
        cfg_obj["jobs"] = args.jobs
    try:
        if cfg_obj.get("W_true") is not None:
            cfg_obj["W_true"] = tuple(tuple(row) for row in cfg_obj["W_true"])
        config = ExperimentConfig(**cfg_obj)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_rate_experiment(config)
    (out_dir / "results.csv").write_text(results_csv(result), encoding="utf-8")
    fields = summary_dict(result)
    summary = dict(_header(config.seed, fields["config"]), estimators=fields["estimators"])
    if config.name in ("ploss_rate", "bound_vs_empirical"):
        rows = bound_vs_empirical(config, result)
        summary["bound_vs_empirical"] = [[n, q, b] for n, q, b in rows]
    _emit_json(summary, str(out_dir / "summary.json"))
    (out_dir / "plot.svg").write_text(
        rate_plot_svg(config.name, result.reports), encoding="utf-8"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starloc",
        description="Star aggregation, curvature certificates, offset complexity, and risk bounds",
    )
    parser.add_argument("--version", action="version", version=f"starloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_loss_flags(p):
        p.add_argument("--loss", choices=("square", "p_loss", "log", "glm"), default="square")
        p.add_argument("--p", type=float, default=2.0, help="p-loss exponent")
        p.add_argument("--B", type=float, default=1.0, help="prediction/target bound")
        p.add_argument("--k", type=int, default=2, help="number of classes (glm)")
        p.add_argument("--regularize", type=float, default=None, help="likelihood floor delta")

    pv = sub.add_parser("verify", help="run the inequality certification suites")
    pv.add_argument("--suite", choices=SUITES, required=True)
    pv.add_argument("--trials", type=int, default=10_000)
    pv.add_argument("--grid", type=int, default=100)
    pv.add_argument("--tol", type=float, default=1e-8)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fit", help="two-stage star fit on a CSV sample")
    pf.add_argument("data")
    pf.add_argument("--class-spec", required=True, dest="class_spec")
    add_loss_flags(pf)
    pf.add_argument("--candidates", type=int, default=64)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out", default=None)
    pf.set_defaults(func=cmd_fit)

    po = sub.add_parser("offset", help="Monte Carlo offset complexity estimate")
    po.add_argument("data")
    po.add_argument("--class-spec", required=True, dest="class_spec")
    add_loss_flags(po)
    po.add_argument("--kind", choices=("mu_d", "exp_concave", "uniform_convex"), default="exp_concave")
    po.add_argument("--draws", type=int, default=64)
    po.add_argument("--levels", type=int, default=20)
    po.add_argument("--reference-index", type=int, default=None, dest="reference_index")
    po.add_argument("--full", action="store_true", help="include per-draw suprema")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--out", default=None)
    po.set_defaults(func=cmd_offset)

    pb = sub.add_parser("bound", help="evaluate a closed-form risk bound")
    pb.add_argument("--kind", choices=("packing", "chaining", "glm", "bigglm"), required=True)
    pb.add_argument("--params", required=True)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_bound)

    pe = sub.add_parser("experiment", help="run a named rate experiment")
    pe.add_argument("--name", default=None)
    pe.add_argument("--config", required=True)
    pe.add_argument("--out-dir", required=True, dest="out_dir")
    pe.add_argument("--seed", type=int, default=None)
    pe.add_argument("--reps", type=int, default=None)
    pe.add_argument("--jobs", type=int, default=None)
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "draws", 1) < 1:
        parser.error("--draws must be at least 1")
    if getattr(args, "levels", 1) < 1:
        parser.error("--levels must be at least 1")
    if getattr(args, "trials", 3) < 3:
        # the softmax round-trip check draws trials // 3 probability vectors
        parser.error("--trials must be at least 3")
    try:
        return args.func(args)
    except (CliError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
