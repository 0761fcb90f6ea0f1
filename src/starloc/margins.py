"""Numerical certification of the convexity margin inequalities.

Every check draws grid and/or seeded random instances, evaluates the
left- and right-hand sides of one inequality, and returns a
MarginCheckReport counting violations below an absolute tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import (
    LossModel,
    canonical_modulus,
    eval_loss,
    grad_loss,
    loss_increment_modulus,
    power_modulus,
    sandwich_threshold,
    sandwich_upper_slack,
    second_deriv_loss,
)
from .predictors import seeded_rng

__all__ = [
    "MarginCheckReport",
    "bregman_gap",
    "certify_mu_d_convexity",
    "empirical_metric",
    "erm_margin_check",
    "star_margin_check",
    "exp_concave_margin_check",
    "self_concordant_gap_check",
    "log_margin_scalar_check",
    "contraction_check",
    "empirical_convexity_check",
    "regularization_sandwich_check",
]

IDENTITY_TOL = 1e-12
INEQUALITY_TOL = 1e-8

# Fraction of random pairs forced to x == y to exercise equality cases.
_DEGENERATE_RATE = 0.01


@dataclass(frozen=True)
class MarginCheckReport:
    inequality_id: str
    trials: int
    violations: int
    worst_slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _report(inequality_id: str, slack: np.ndarray, tolerance: float) -> MarginCheckReport:
    slack = np.asarray(slack, dtype=float).ravel()
    violations = int(np.sum(slack < -tolerance))
    worst = float(slack.min()) if slack.size else 0.0
    return MarginCheckReport(inequality_id, int(slack.size), violations, worst, tolerance)


def _random_pairs(model: LossModel, n: int, rng: np.random.Generator):
    """Seeded (x, y, target) triples uniform over the domain box."""
    lo, hi = model.domain
    x = rng.uniform(lo, hi, size=n)
    y = rng.uniform(lo, hi, size=n)
    ties = rng.random(n) < _DEGENERATE_RATE
    y[ties] = x[ties]
    return x, y, model.draw_targets(rng, n)


def bregman_gap(model: LossModel, x, y, target=None):
    """psi(x) - psi(y) - psi'(y)(x - y); nonnegative for convex psi."""
    model.check_pred(x)
    model.check_pred(y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gap = (
        eval_loss(model, x, target)
        - eval_loss(model, y, target)
        - grad_loss(model, y, target) * (x - y)
    )
    return float(gap) if gap.ndim == 0 else gap


def certify_mu_d_convexity(
    model: LossModel,
    grid_size: int = 100,
    seed: int = 0,
    tolerance: float = INEQUALITY_TOL,
    modulus: str = "canonical",
) -> MarginCheckReport:
    """Check bregman_gap(x, y) >= mu(d(x, y)) on grid pairs plus random pairs.

    modulus 'canonical' uses the model's own descriptor; 'power' uses the
    p-uniform-convexity modulus 2^(1-p) |x - y|^p (p-loss, p >= 2 only).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    lo, hi = model.domain
    g = np.linspace(lo, hi, grid_size)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    rng = seeded_rng(seed, 101)
    gt = model.draw_targets(rng, gx.size)
    rx, ry, rt = _random_pairs(model, gx.size, rng)

    def slack(x, y, t):
        if modulus == "canonical":
            rhs = canonical_modulus(model, x, y, t)
        elif modulus == "power":
            rhs = power_modulus(model, x, y)
        else:
            raise ValueError(f"unknown modulus {modulus!r}")
        return bregman_gap(model, x, y, t) - rhs

    slacks = np.concatenate([slack(gx, gy, gt), slack(rx, ry, rt)])
    return _report(f"mu_d_convexity_{model.kind}_{modulus}", slacks, tolerance)


def empirical_metric(model: LossModel, preds_f, preds_g, targets=None) -> float:
    """Sample metric mu^{-1}( mean_i mu(d(f_i, g_i)) ) in closed form."""
    preds_f = np.asarray(preds_f, dtype=float)
    preds_g = np.asarray(preds_g, dtype=float)
    if preds_f.shape != preds_g.shape or preds_f.size == 0:
        raise ValueError("prediction vectors must share a nonzero length")
    model.check_pred(preds_f)
    model.check_pred(preds_g)
    avg = float(np.mean(model.modulus.mu(model.distance(preds_f, preds_g, targets))))
    return float(model.modulus.mu_inv(avg))


def _fit_margin(model, member_preds, targets, fit_preds, fit_risk, shrink, inequality_id, tolerance):
    """risk(g) - fit_risk - mean_i mu(d(g_i, fit_i) / shrink) for every member row g."""
    member_preds = np.atleast_2d(np.asarray(member_preds, dtype=float))
    fit_preds = np.asarray(fit_preds, dtype=float)
    risks = eval_loss(model, member_preds, targets).mean(axis=1)
    d = model.distance(member_preds, fit_preds[None, :], targets)
    rhs = model.modulus.mu(d / shrink).mean(axis=1)
    return _report(inequality_id, risks - fit_risk - rhs, tolerance)


def erm_margin_check(
    model: LossModel,
    member_preds: np.ndarray,
    targets,
    erm_preds: np.ndarray,
    erm_risk: float,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """Margin of a convex-class ERM: risk(g) - risk(f^) >= mean_i mu(d(g_i, f^_i)).

    member_preds has one materialized class member per row; erm_preds is the
    fitted minimizer's prediction vector.
    """
    from .predictors import FiniteClass

    if isinstance(member_preds, FiniteClass):
        raise TypeError(
            "finite classes are not convex; materialize a segment/simplex "
            "for this check or use star_margin_check"
        )
    return _fit_margin(model, member_preds, targets, erm_preds, erm_risk, 1.0, f"erm_margin_{model.kind}", tolerance)


def star_margin_check(
    model: LossModel,
    member_preds: np.ndarray,
    targets,
    star_preds: np.ndarray,
    star_risk: float,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """Two-stage-minimizer margin: risk(g) - risk(f~) >= mean_i mu(d(g_i, f~_i)/3)."""
    return _fit_margin(model, member_preds, targets, star_preds, star_risk, 3.0, f"star_margin_{model.kind}", tolerance)


def exp_concave_margin_check(
    model: LossModel,
    trials: int = 10_000,
    seed: int = 0,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """gap(x, y) >= |psi(x) - psi(y)|^2 / (2m v 4/eta) on random pairs."""
    if not (math.isfinite(model.m) and model.eta > 0):
        raise ValueError("model needs finite m and positive eta")
    rng = seeded_rng(seed, 202)
    x, y, t = _random_pairs(model, trials, rng)
    inc = eval_loss(model, x, t) - eval_loss(model, y, t)
    slack = bregman_gap(model, x, y, t) - loss_increment_modulus(model).mu(inc)
    return _report(f"exp_concave_margin_{model.kind}", slack, tolerance)


def self_concordant_gap_check(
    model: LossModel,
    trials: int = 10_000,
    seed: int = 0,
    tolerance: float = INEQUALITY_TOL,
    saturation: bool = False,
) -> MarginCheckReport:
    """gap(x, y) >= omega(|x - y| sqrt(psi''(y))) with omega(z) = z - ln(1 + z).

    With saturation=True, restricts to x >= y where -ln attains the bound
    exactly, and checks |gap - omega| instead (two-sided, identity tolerance).
    """
    if model.kind not in ("log", "glm"):
        raise ValueError("self-concordance check covers the log/glm families")
    rng = seeded_rng(seed, 303)
    x, y, t = _random_pairs(model, trials, rng)
    if saturation:
        x, y = np.maximum(x, y), np.minimum(x, y)
    local = np.abs(x - y) * np.sqrt(second_deriv_loss(model, y, t))
    omega = local - np.log1p(local)
    slack = bregman_gap(model, x, y, t) - omega
    if saturation:
        slack = -np.abs(slack)
        return _report(f"self_concordance_saturation_{model.kind}", slack, tolerance)
    return _report(f"self_concordance_{model.kind}", slack, tolerance)


def log_margin_scalar_check(
    c: float,
    points: int = 10_000,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """Scalar inequality e^{-z} + z - 1 >= z^2 / (2c v 4) on z in [-c, c]."""
    if c <= 0:
        raise ValueError("c must be positive")
    z = np.linspace(-c, c, points)
    lhs = np.expm1(-z) + z
    rhs = z * z / max(2.0 * c, 4.0)
    return _report(f"log_margin_scalar_c={c:g}", lhs - rhs, tolerance)


def contraction_check(
    model: LossModel,
    trials: int = 10_000,
    seed: int = 0,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """Two-sided bound |psi(x) - psi(y) - mu(d(x,y)/3)/2| <= 2 |psi(y) - psi(x)|.

    Evaluated with the loss-increment modulus, under which the offset term
    is at most |psi(x) - psi(y)|/36 and the bound holds for every pair.
    """
    rng = seeded_rng(seed, 404)
    x, y, t = _random_pairs(model, trials, rng)
    desc = loss_increment_modulus(model)
    inc = eval_loss(model, x, t) - eval_loss(model, y, t)
    lhs = np.abs(inc - 0.5 * desc.mu(np.abs(inc) / 3.0))
    slack = 2.0 * np.abs(inc) - lhs
    return _report(f"contraction_{model.kind}", slack, tolerance)


def empirical_convexity_check(
    model: LossModel,
    trials: int = 200,
    n: int = 64,
    seed: int = 0,
    tolerance: float = INEQUALITY_TOL,
) -> MarginCheckReport:
    """Averaged margin: gap of the empirical risk dominates mean_i mu(d(f_i, g_i))."""
    rng = seeded_rng(seed, 505)
    lo, hi = model.domain
    f = rng.uniform(lo, hi, size=(trials, n))
    g = rng.uniform(lo, hi, size=(trials, n))
    t = model.draw_targets(rng, (trials, n))
    gap = bregman_gap(model, f, g, t).mean(axis=1)
    rhs = model.modulus.mu(model.distance(f, g, t)).mean(axis=1)
    return _report(f"empirical_convexity_{model.kind}", gap - rhs, tolerance)


def regularization_sandwich_check(
    k: int = 1,
    grid: int = 10_000,
    tolerance: float = IDENTITY_TOL,
) -> MarginCheckReport:
    """Pointwise cost of likelihood regularization f -> (1-d) f + d/k.

    Upper side, all f in [0, 1]:  -ln(reg) <= -ln f + max(0, ln(k/(k - k d + d))).
    Lower side, f above the exact threshold d/(k (e^{2d} - 1 + d)):
        -ln(reg) >= -ln f - 2d.
    The f -> 0 endpoint is covered by the convention -ln 0 = +inf, which makes
    the upper side hold trivially.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    side = max(2, int(math.isqrt(grid)))
    deltas = np.linspace(1e-4, 0.5, side)
    fs = np.linspace(0.0, 1.0, side)
    slacks = []
    for d in deltas:
        reg = (1.0 - d) * fs + d / k
        with np.errstate(divide="ignore"):
            raw = -np.log(fs)
        reg_loss = -np.log(reg)
        upper = sandwich_upper_slack(d, k)
        up_slack = raw + upper - reg_loss
        up_slack = np.where(np.isposinf(raw), np.inf, up_slack)
        mask = fs >= sandwich_threshold(d, k)
        low_slack = (reg_loss - (raw - 2.0 * d))[mask]
        slacks.append(np.concatenate([up_slack, low_slack]))
    slack = np.concatenate(slacks)
    slack = np.where(np.isposinf(slack), 1.0, slack)
    return _report(f"regularization_sandwich_k={k}", slack, tolerance)
