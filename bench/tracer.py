"""Outside-in tracer for the starloc layers.

The tracer wraps the layers' functions by rebinding module attributes, so
the library itself carries no tracing code. Every call is aggregated per
(span name, parent span name): calls, total time and self time, where self
time is a call's duration minus the time of its traced children. A
function also records one span per call (id, name, start, end, parent id,
run id) until it has made SPAN_LIMIT calls in the process; past that it is
only aggregated, which bounds the cost for functions called millions of
times (entropy_eval, eval_loss).

Calls into functions that are not wrapped are charged to the nearest
wrapped caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
from time import perf_counter

from workloads import pass_wall

SPAN_LIMIT = 10_000


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# ---------------------------------------------------------------------------
# counters read at the layer boundaries; each hook runs before the call and
# may replace the arguments (to count calls into a callback)


def _count_oracle_rows(tr, args, kwargs):
    tr.count("experiments.oracle_points", len(_arg(args, kwargs, 1, "X")))
    return args, kwargs


_ORACLE_SCORERS = ("experiments.population_excess_risk", "experiments._run_block")


def _count_loss_elements(tr, args, kwargs):
    size = getattr(_arg(args, kwargs, 1, "pred"), "size", 1)
    tr.count("losses.eval_loss.elements", size)
    # Losses scored directly by the oracle scorers are oracle elements.
    if tr.stack and tr.stack[-1][0] in _ORACLE_SCORERS:
        tr.count("experiments.oracle_points", size)
    return args, kwargs


def _count_gradients(tr, args, kwargs):
    if _arg(args, kwargs, 3, "want_grad", True):
        tr.count("estimators._glm_risk_and_grad.gradients", 1)
    return args, kwargs


def _count_golden(tr, args, kwargs):
    risk_fn = _arg(args, kwargs, 0, "risk_fn")
    n_segments = int(_arg(args, kwargs, 1, "n_segments"))

    def counted(lams):
        tr.count("estimators._golden_batch.risk_evals", 1)
        tr.count("estimators._golden_batch.segment_evals", n_segments)
        return risk_fn(lams)

    if args:
        return (counted, *args[1:]), kwargs
    return args, {**kwargs, "risk_fn": counted}


def _count_pairs(tr, args, kwargs):
    if _arg(args, kwargs, 5, "offset_kind") == "exp_concave":
        rows = len(_arg(args, kwargs, 1, "fprime_preds"))
        tr.count("complexity.offset_sup_one_draw.pairs", rows * rows)
    return args, kwargs


def _count_margin_report(tr, result):
    # Nested certificate calls are already counted by their caller's report.
    if not (tr.stack and tr.stack[-1][0] == "margins"):
        tr.count("margins.trials", result.trials)
        tr.count("margins.violations", result.violations)


_MARGIN_FUNCTIONS = (
    "certify_mu_d_convexity",
    "erm_margin_check",
    "star_margin_check",
    "exp_concave_margin_check",
    "self_concordant_gap_check",
    "log_margin_scalar_check",
    "contraction_check",
    "empirical_convexity_check",
    "regularization_sandwich_check",
)

# (module, attribute, span name, pre-call hook, post-call hook)
LAYERS = [
    ("experiments", "_regularized_likelihoods", "experiments._regularized_likelihoods", _count_oracle_rows, None),
    ("experiments", "population_excess_risk", "experiments.population_excess_risk", None, None),
    ("experiments", "_run_block", "experiments._run_block", None, None),
    ("experiments", "_logistic_oracle", "experiments.oracle_build", None, None),
    ("experiments", "_twopoint_oracle", "experiments.oracle_build", None, None),
    ("experiments", "_ploss_oracle", "experiments.oracle_build", None, None),
    ("estimators", "regularized_star_glm", "estimators.regularized_star_glm", None, None),
    ("estimators", "erm_linear", "estimators.erm_linear", None, None),
    ("estimators", "_glm_risk_and_grad", "estimators._glm_risk_and_grad", _count_gradients, None),
    ("estimators", "_partner_polish", "estimators._partner_polish", None, None),
    ("estimators", "_golden_batch", "estimators._golden_batch", _count_golden, None),
    ("estimators", "star_fit", "estimators.star_fit", None, None),
    ("losses", "eval_loss", "losses.eval_loss", _count_loss_elements, None),
    ("losses", "link_softmax", "losses.link_softmax", None, None),
    ("predictors", "prediction_vector", "predictors.prediction_vector", None, None),
    ("predictors", "FiniteClass.prediction_matrix", "predictors.prediction_matrix", None, None),
    ("complexity", "offset_sup_one_draw", "complexity.offset_sup_one_draw", _count_pairs, None),
    ("complexity", "fprime_matrix", "complexity.fprime_matrix", None, None),
    ("complexity", "entropy_eval", "complexity.entropy_eval", None, None),
    ("complexity", "greedy_cover_indices", "complexity.greedy_cover_indices", None, None),
    ("bounds", "entropy_integral", "bounds.entropy_integral", None, None),
    ("bounds", "chaining_bound", "bounds.chaining_bound", None, None),
    *[("margins", fn, "margins", None, _count_margin_report) for fn in _MARGIN_FUNCTIONS],
    ("verify", "run_suite", "verify.run_suite", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "load_data_csv", "cli.load", None, None),
    ("cli", "load_class_spec", "cli.load", None, None),
    ("cli", "_emit_json", "cli._emit_json", None, None),
    ("svg", "rate_plot_svg", "svg.rate_plot_svg", None, None),
]


class Tracer:
    """Span and counter store for one process; install() wraps the layers."""

    def __init__(self, package: str = "starloc"):
        self.package = package
        self.stack = []  # [span name, child time, span id] per open call
        self.root = [None, 0.0, None]  # stands in for the parent of top-level calls
        self.stats = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []  # (id, name, start, end, parent id, run id)
        self.ids = itertools.count()
        self.run_id = None
        self.missing = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self):
        """Wrap every layer function that exists; record the ones that do not."""
        for module_name, attr, span, pre, post in LAYERS:
            module = importlib.import_module(f"{self.package}.{module_name}")
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, name, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(span, original, pre, post)
            if owner:
                setattr(holder, name, wrapped)
            else:
                self._rebind(original, wrapped)

    def _rebind(self, original, wrapped):
        # `from .x import f` copies the function into each importing module.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _wrap(self, span, fn, pre, post):
        stack, stats, spans, ids, root = self.stack, self.stats, self.spans, self.ids, self.root
        recorded = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal recorded
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            parent = stack[-1] if stack else root
            frame = [span, 0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                key = (span, parent[0])
                agg = stats.get(key)
                if agg is None:
                    agg = stats[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if recorded < SPAN_LIMIT:
                    recorded += 1
                    spans.append((frame[2], span, start, start + duration, parent[2], self.run_id))
            if post is not None:
                post(self, result)
            return result

        return traced

    def take(self):
        """Return and reset the aggregates collected since the last take()."""
        snapshot = {"stats": dict(self.stats), "counters": dict(self.counters)}
        self.stats.clear()
        self.counters.clear()
        return snapshot


def _total(snapshot, name, column):
    return sum(v[column] for (span, _), v in snapshot["stats"].items() if span == name)


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(names, snapshots, spans, traced, untraced):
    """Per-layer values for the metric names, as medians over traced passes.

    traced and untraced map each operation to its time in every pass, with
    and without tracing. A metric that names no span or counter reads 0.
    """
    out = {}
    durations = {}
    for _, span, start, end, _, _ in spans:
        durations.setdefault(span, []).append(end - start)
    for metric in names:
        if metric == "trace.overhead_s":
            value = pass_wall(traced) - pass_wall(untraced)
        elif metric == "trace.coverage":
            top = sum(v[1] for s in snapshots for (_, parent), v in s["stats"].items() if parent is None)
            value = top / sum(sum(t) for t in traced.values())
        elif metric == "estimators.erm_linear.grad_ratio":
            grads = sum(s["counters"].get("estimators._glm_risk_and_grad.gradients", 0) for s in snapshots)
            evals = sum(_total(s, "estimators._glm_risk_and_grad", 0) for s in snapshots)
            value = grads / evals if evals else 0.0
        elif metric.endswith(".self_s"):
            value = _median([_total(s, metric[: -len(".self_s")], 2) for s in snapshots])
        elif metric.endswith(".calls"):
            value = _median([_total(s, metric[: -len(".calls")], 0) for s in snapshots])
        elif metric.endswith(".p50_s"):
            value = _median(durations.get(metric[: -len(".p50_s")], []))
        else:
            value = _median([s["counters"].get(metric, 0) for s in snapshots])
        out[metric] = value
    return out
