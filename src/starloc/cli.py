"""Command-line surface: verify, fit, offset, bound, and experiment.

Every JSON artifact carries a reproducibility header (tool, version, seed,
resolved config) with sorted keys; rerunning a command with the same
inputs and seed reproduces the output bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
import warnings
from dataclasses import asdict, fields as dataclass_fields
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
    ExperimentConfig,
    _is_finite_array,
    _is_finite_real,
    _is_int,
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

# verify's ceilings: the mu_d certificate builds several arrays of grid^2
# pairs, and the margin and sandwich checks arrays of trials entries.
_MAX_GRID = 1_000
_MAX_TRIALS = 1_000_000


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
        return log_loss() if args.regularize is None else log_loss(args.regularize)
    if kind == "glm":
        if args.regularize is None:
            raise CliError("glm loss requires --regularize")
        return glm_loss(args.k, args.regularize)
    raise CliError(f"unknown loss {kind!r}")


def _load_json_object(path: str, what: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(f"{what} {path} must be a JSON object, not {type(obj).__name__}")
    return obj


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


def _known_keys(obj: dict, allowed, where: str) -> None:
    """A CliError naming the first key of obj that is not in allowed, if there is one."""
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise CliError(f"{where}: unknown key {reprlib.repr(unknown[0])}")


def _number(obj: dict, key: str, where: str, integer: bool = False):
    """obj[key] if it is a finite JSON number (an integer of at least 1, if integer); else a CliError."""
    value = obj.get(key)
    if integer and not (_is_int(value) and value >= 1):
        raise CliError(f"{where}: {key!r} must be an integer of at least 1, not {reprlib.repr(value)}")
    if not _is_finite_real(value):
        raise CliError(f"{where}: {key!r} must be a finite number, not {reprlib.repr(value)}")
    return value


def _array(obj: dict, key: str, where: str, ndim: int | None = None) -> np.ndarray:
    """obj[key] as a float array if it is a nonempty array of finite JSON numbers (with ndim axes, if given)."""
    value = obj.get(key)
    if not _is_finite_array(value) or ndim not in (None, np.ndim(value)):
        axes = "" if ndim is None else f"{ndim}-D "
        raise CliError(f"{where}: {key!r} must be a nonempty {axes}array of finite numbers")
    return np.asarray(value, dtype=float)


def _delta_and_link(obj: dict, where: str):
    """The spec's optional delta (null or a finite number); its link, if given, must be softmax."""
    if obj.get("link", "softmax") != "softmax":
        raise CliError(f"{where} has link {obj['link']!r}; only 'softmax' is supported")
    return None if obj.get("delta") is None else _number(obj, "delta", where)


# The keys each member type, class variant, entropy variant and bound kind reads, besides its "type" or "variant".
_MEMBER_KEYS = {
    "constant": ("value",),
    "tabular": ("values",),
    "linear": ("weights", "bound", "link", "delta"),
    "star_mix": ("lam", "left", "right"),
}
# A linear_ball has no delta: fit takes the likelihood floor from --regularize.
_CLASS_KEYS = {"finite": ("members", "delta", "link"), "linear_ball": ("d", "k", "bound", "link")}
_ENTROPY_KEYS = {
    "constant": ("value",),
    "parametric": ("k", "d", "A", "B"),
    "power_law": ("A", "q"),
    "finite_empirical": ("vectors",),
}
_BOUND_KEYS = {
    "packing": ("m", "eta", "n", "rho", "eps", "entropy"),
    "chaining": ("m", "eta", "n", "rho", "gamma", "entropy", "alpha"),
    "glm": ("n", "rho", "k", "d", "A", "B", "C"),
    "bigglm": ("q", "regime", "A", "n"),
}


def _allowed_keys(table: dict, name, what: str) -> tuple:
    """table[name] if name is one of its keys; else a CliError naming the unknown what."""
    if not (isinstance(name, str) and name in table):
        raise CliError(f"unknown {what} {reprlib.repr(name)}")
    return table[name]


def _predictor_from_spec(obj):
    if not isinstance(obj, dict):
        raise CliError(f"class spec: a member must be a JSON object, not {type(obj).__name__}")
    t = obj.get("type")
    where = f"class spec: {t} member"
    _known_keys(obj, ("type", *_allowed_keys(_MEMBER_KEYS, t, "class spec member type")), where)
    if t == "constant":
        value = obj.get("value")
        return Constant(_array(obj, "value", where) if isinstance(value, list) else float(_number(obj, "value", where)))
    if t == "tabular":
        return Tabular(_array(obj, "values", where))
    if t == "linear":
        return Linear(
            _array(obj, "weights", where),
            float(_number(obj, "bound", where)) if "bound" in obj else np.inf,
            _delta_and_link(obj, where),
        )
    return StarMix(
        float(_number(obj, "lam", where)),
        _predictor_from_spec(obj.get("left")),
        _predictor_from_spec(obj.get("right")),
    )


def load_class_spec(path: str):
    """JSON class spec: finite member list, or a linear ball (d, k, bound, link)."""
    obj = _load_json_object(path, "class spec")
    variant = obj.get("variant")
    where = "class spec: finite class" if variant == "finite" else f"class spec: {variant}"
    _known_keys(obj, ("variant", *_allowed_keys(_CLASS_KEYS, variant, "class spec variant")), where)
    if variant == "finite":
        members = obj.get("members")
        if not isinstance(members, list) or not members:
            raise CliError("finite class spec needs a nonempty members list")
        members = [_predictor_from_spec(m) for m in members]
        return FiniteClass(members, _delta_and_link(obj, where))
    _delta_and_link(obj, where)
    return LinearBall(
        _number(obj, "d", where, integer=True), _number(obj, "k", where, integer=True),
        float(_number(obj, "bound", where)),
    )


def _class_counts(member) -> list:
    """(type, k) of each predictor in member that indexes a probability vector by the label."""
    if isinstance(member, StarMix):
        return _class_counts(member.left) + _class_counts(member.right)
    if isinstance(member, Linear):
        return [("linear", member.k)]
    if isinstance(member, Constant) and isinstance(member.value, np.ndarray):
        return [("constant", len(member.value))]
    return []


def _load_problem(args):
    """The loss, sample and class of fit and offset, and the config keys both echo.

    With --loss glm, the class counts must be --k, as the labels are. Any
    other loss has real targets and no labels, so no member may index a
    probability vector: a vector constant or a linear member with more than
    one weight row is an error.
    """
    model = _build_loss(args)
    sample = load_data_csv(args.data, args.loss, args.k)
    cls = load_class_spec(args.class_spec)
    if isinstance(cls, LinearBall):
        counts = [("linear_ball has", "linear", cls.k)] if args.loss == "glm" else []
    else:
        counts = [(f"member {i} has a {t} predictor with", t, k)
                  for i, member in enumerate(cls.members) for t, k in _class_counts(member)]
    for what, t, k in counts:
        if args.loss == "glm" and k != args.k:
            raise CliError(f"class spec: {what} k = {k}, but --k is {args.k}")
        if args.loss != "glm" and (t == "constant" or k > 1):
            raise CliError(f"class spec: {what} k = {k}, but --loss {args.loss} has no class labels")
    cfg = {key: getattr(args, key) for key in ("data", "class_spec", "loss", "p", "B", "k", "regularize")}
    return model, sample, cls, cfg


def _entropy_from_spec(obj) -> EntropyProfile:
    if not isinstance(obj, dict):
        raise CliError(f"entropy spec must be a JSON object, not {type(obj).__name__}")
    variant = obj.get("variant")
    where = f"{variant} entropy spec"
    keys = _allowed_keys(_ENTROPY_KEYS, variant, "entropy variant")
    _known_keys(obj, ("variant", "star_hull_correction", *keys), where)
    corr = obj.get("star_hull_correction", False)
    if not isinstance(corr, bool):
        raise CliError(f"{where}: 'star_hull_correction' must be true or false, not {corr!r}")
    if variant == "constant":
        return constant_profile(float(_number(obj, "value", where)), corr)
    if variant == "parametric":
        k, d = (_number(obj, key, where, integer=True) for key in ("k", "d"))
        return parametric_profile(k, d, float(_number(obj, "A", where)), float(_number(obj, "B", where)), corr)
    if variant == "power_law":
        return power_law_profile(float(_number(obj, "A", where)), float(_number(obj, "q", where)), corr)
    return finite_empirical_profile(_array(obj, "vectors", where, ndim=2), corr)


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
    model, sample, cls, cfg = _load_problem(args)
    if isinstance(cls, LinearBall):
        if args.loss != "glm":
            raise CliError("linear_ball fitting is wired for the glm loss")
        # The ball's likelihood floor is --regularize; a linear_ball spec has no delta.
        fit = regularized_star_glm(cls, sample, args.regularize, n_candidates=args.candidates, seed=args.seed)
        record = _describe_fit(fit)
        # The GLM star mix read back in score space: link_right_inverse(combined.probs(x)).
        record["scores_transform"] = {**record["combined"], "type": "glm_star"}
    else:
        if args.regularize is not None and cls.delta is None:
            cls = FiniteClass(cls.members, args.regularize)
        fit = star_fit(model, cls, sample)
        record = _describe_fit(fit)
    payload = _header(args.seed, {**cfg, "candidates": args.candidates})
    payload["fit"] = record
    _emit_json(payload, args.out)
    return 0


def cmd_offset(args) -> int:
    model, sample, cls, cfg = _load_problem(args)
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
    payload = _header(args.seed, {
        **cfg, "kind": args.kind, "draws": args.draws, "levels": args.levels,
        "reference_index": args.reference_index,
    })
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
    params = _load_json_object(args.params, "params")
    where = f"{args.kind} params"
    _known_keys(params, _allowed_keys(_BOUND_KEYS, args.kind, "bound kind"), where)

    def need(*names):
        missing = [nm for nm in names if nm not in params]
        if missing:
            raise CliError(f"missing parameter(s) for {args.kind}: {', '.join(missing)}")
        return [params[nm] if nm in ("entropy", "regime") else _number(params, nm, where, nm in ("k", "d"))
                for nm in names]

    def optional(name, default):
        return default if params.get(name) is None else _number(params, name, where)

    if args.kind == "packing":
        m, eta, n, rho, eps, entropy = need("m", "eta", "n", "rho", "eps", "entropy")
        inputs = BoundInputs(n=n, rho=rho, m=m, eta=eta, eps=eps, entropy=_entropy_from_spec(entropy))
        value = packing_bound(inputs)
    elif args.kind == "chaining":
        m, eta, n, rho, gamma, entropy = need("m", "eta", "n", "rho", "gamma", "entropy")
        inputs = BoundInputs(
            n=n, rho=rho, m=m, eta=eta, alpha=optional("alpha", None), gamma=gamma,
            entropy=_entropy_from_spec(entropy),
        )
        value = chaining_bound(inputs)
    elif args.kind == "glm":
        n, rho, k, d, A, B = need("n", "rho", "k", "d", "A", "B")
        inputs = BoundInputs(n=n, rho=rho, C=optional("C", 1.0))
        value = glm_bound(inputs, k, d, A, B)
    else:
        value = bigglm_rate(*need("q", "regime", "A", "n"))
    if not math.isfinite(value):
        raise CliError(f"{args.kind} bound diverges for these parameters (value {value})")
    payload = _header(args.seed, {"kind": args.kind, "params": params})
    payload["value"] = value
    _emit_json(payload, args.out)
    return 0


def cmd_experiment(args) -> int:
    cfg_obj = _load_json_object(args.config, "experiment config")
    cfg_obj["name"] = args.name or cfg_obj.get("name")
    for key, flag in (("seed", args.seed), ("replications", args.reps), ("jobs", args.jobs)):
        if flag is not None:
            cfg_obj[key] = flag
    _known_keys(cfg_obj, {field.name for field in dataclass_fields(ExperimentConfig)}, "invalid experiment config")
    try:
        config = ExperimentConfig(**cfg_obj)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid experiment config: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        # fit_rate warns once per dropped size; say it once per estimator instead.
        warnings.filterwarnings("ignore", "dropping nonpositive mean excess")
        result = run_rate_experiment(config)
    for est, report in sorted(result.reports.items()):
        dropped = [row.n for row in report.rows if row.mean <= 0.0]
        if dropped:
            print(f"warning: {est} rate fit dropped n = {dropped}", file=sys.stderr)
    (out_dir / "results.csv").write_text(results_csv(result), encoding="utf-8")
    fields = summary_dict(result)
    summary = dict(_header(config.seed, fields["config"]), estimators=fields["estimators"])
    if config.name == "ploss_rate":
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
    if getattr(args, "trials", 3) > _MAX_TRIALS:
        parser.error(f"--trials must be at most {_MAX_TRIALS}")
    if getattr(args, "grid", 2) > _MAX_GRID:
        parser.error(f"--grid must be at most {_MAX_GRID}")
    try:
        return args.func(args)
    except (CliError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
