"""Named certification suites driving the margin and loss-model checks.

The `margins` suite covers every inequality the library relies on; the
`losses` suite certifies the per-family constants (range, exp-concavity,
Lipschitz, gradients, link round trip, modulus/metric axioms).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import margins as mg
from .estimators import erm_segment, star_fit
from .losses import (
    LossModel,
    eval_loss,
    glm_loss,
    grad_loss,
    link_right_inverse,
    link_softmax,
    log_loss,
    p_loss,
    regularize_likelihood,
    second_deriv_loss,
    square_loss,
)
from .margins import MarginCheckReport
from .predictors import Constant, FiniteClass, Sample, SegmentClass, seeded_rng

__all__ = ["SUITES", "run_suite", "standard_models"]

SUITES = ("margins", "losses", "all")
# Materialized members per random segment class of the ERM margin suite.
_SEGMENT_LEVELS = 250


def standard_models() -> dict[str, LossModel]:
    return {
        "square": square_loss(1.0),
        "p3": p_loss(3.0, 1.0),
        "log": log_loss(0.1),
        "glm": glm_loss(3, 0.1),
    }


def _log_gap_identity(trials: int, seed: int) -> MarginCheckReport:
    """Bregman gap of -ln equals e^{-z} - 1 + z with z = ln(y/x).

    The error is measured relative to max(1, |value|): the identity value
    reaches e^{ln(1/delta)} where absolute double precision is coarser
    than 1e-12.
    """
    model = log_loss(1e-6)
    rng = seeded_rng(seed, 11)
    x = rng.uniform(1e-6, 1.0, trials)
    y = rng.uniform(1e-6, 1.0, trials)
    gap = mg.bregman_gap(model, x, y)
    z = np.log(y) - np.log(x)
    ident = np.expm1(-z) + z
    err = np.abs(gap - ident) / np.maximum(1.0, np.abs(ident))
    return mg._report("log_gap_identity", -err, mg.IDENTITY_TOL)


def _pooled_margin(name, tol, reports) -> MarginCheckReport:
    """One report over the member checks of several margin reports."""
    return MarginCheckReport(
        name,
        sum(r.trials for r in reports),
        sum(r.violations for r in reports),
        float(min(r.worst_slack for r in reports)),
        tol,
    )


def _random_finite_star_margin(model, trials, seed, tol) -> MarginCheckReport:
    """Star margins over random finite constant classes until ~trials member checks.

    Every class is drawn first, then all are fitted by one batched star_fit;
    each prediction matrix is built once, for the fit and its check.
    """
    rng = seeded_rng(seed, 13)
    lo, hi = model.domain
    classes, samples = [], []
    done = 0
    while done < trials:
        m = int(rng.integers(2, 33))
        n = int(rng.integers(8, 129))
        classes.append(FiniteClass([Constant(v) for v in rng.uniform(lo, hi, m)]))
        targets = model.draw_targets(rng, n)
        samples.append(Sample(np.zeros((n, 1)), np.zeros(n) if targets is None else targets))
        done += m
    preds = [c.prediction_matrix(s) for c, s in zip(classes, samples)]
    fits = star_fit(model, classes, samples, preds)
    reports = [
        mg.star_margin_check(model, p, s.y, f.star_preds, f.star_risk, tolerance=tol)
        for p, s, f in zip(preds, samples, fits)
    ]
    return _pooled_margin(f"star_margin_{model.kind}", tol, reports)


def _random_segment_erm_margin(model, trials, seed, tol) -> MarginCheckReport:
    """ERM margins over random segment classes until ~trials member checks; ERM = continuous segment minimizer.

    A class checks its _SEGMENT_LEVELS + 1 materialized members. Every
    class is drawn first, then all are fitted by one batched erm_segment.
    """
    rng = seeded_rng(seed, 17)
    lo, hi = model.domain
    segs, samples = [], []
    done = 0
    while done < trials:
        n = int(rng.integers(8, 65))
        a = rng.uniform(lo, hi, n)
        b = rng.uniform(lo, hi, n)
        segs.append(SegmentClass(a, b, resolution=1.0 / _SEGMENT_LEVELS))
        targets = model.draw_targets(rng, n)
        samples.append(Sample(np.zeros((n, 1)), np.zeros(n) if targets is None else targets))
        done += _SEGMENT_LEVELS + 1
    reports = [
        mg.erm_margin_check(model, seg.materialize(), s.y, preds, risk, tolerance=tol)
        for seg, s, (preds, risk, _) in zip(segs, samples, erm_segment(model, segs, samples))
    ]
    return _pooled_margin(f"erm_margin_{model.kind}", tol, reports)


def margin_reports(trials: int = 10_000, grid: int = 100, seed: int = 0, tol: float = 1e-8):
    models = standard_models()
    reports: list[MarginCheckReport] = []
    for name, model in models.items():
        reports.append(mg.certify_mu_d_convexity(model, grid_size=grid, seed=seed, tolerance=tol))
        reports.append(mg.exp_concave_margin_check(model, trials=trials, seed=seed, tolerance=tol))
        reports.append(mg.contraction_check(model, trials=trials, seed=seed, tolerance=tol))
        reports.append(mg.empirical_convexity_check(model, trials=max(200, trials // 50), seed=seed, tolerance=tol))
    # p-uniform-convexity modulus must pass the same gate before the offset uses it
    reports.append(
        mg.certify_mu_d_convexity(models["p3"], grid_size=grid, seed=seed, tolerance=tol, modulus="power")
    )
    # restricted-domain log modulus at several floors
    for d in (0.5, 0.1, 0.01):
        rep = mg.certify_mu_d_convexity(log_loss(d), grid_size=grid, seed=seed, tolerance=tol)
        reports.append(replace(rep, inequality_id=f"log_restricted_modulus_d={d:g}"))
    for model in (models["log"], models["glm"]):
        reports.append(mg.self_concordant_gap_check(model, trials=trials, seed=seed, tolerance=tol))
        reports.append(
            mg.self_concordant_gap_check(
                model, trials=trials, seed=seed, tolerance=mg.IDENTITY_TOL, saturation=True
            )
        )
    for c in (0.5, 1.0, 2.0, 4.0, 8.0):
        reports.append(mg.log_margin_scalar_check(c, points=trials, tolerance=tol))
    reports.append(_log_gap_identity(trials, seed))
    for k in (1, 2, 3, 5):
        reports.append(mg.regularization_sandwich_check(k=k, grid=trials))
    for model in (models["square"], models["log"]):
        reports.append(_random_segment_erm_margin(model, max(2000, trials // 5), seed, tol))
        reports.append(_random_finite_star_margin(model, max(2000, trials // 5), seed, tol))
    return reports


def _loss_range_report(model, trials, seed) -> MarginCheckReport:
    rng = seeded_rng(seed, 19)
    lo, hi = model.domain
    x = rng.uniform(lo, hi, trials)
    t = model.draw_targets(rng, trials)
    vals = eval_loss(model, x, t)
    slack = np.minimum(vals, model.m - vals)  # nonnegative iff 0 <= psi <= m
    return mg._report(f"loss_range_{model.kind}", slack, 1e-9)


def _constants_report(model, trials, seed) -> MarginCheckReport:
    """Sampled (psi')^2/psi'' <= 1/eta, psi <= m, |psi'| <= lip."""
    rng = seeded_rng(seed, 23)
    lo, hi = model.domain
    x = rng.uniform(lo, hi, trials)
    t = model.draw_targets(rng, trials)
    g = grad_loss(model, x, t)
    h = second_deriv_loss(model, x, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(h > 0, g * g / h, 0.0)
    slack = np.concatenate(
        [
            1.0 / model.eta - ratio,
            model.m - eval_loss(model, x, t),
            model.lip - np.abs(g),
        ]
    )
    return mg._report(f"loss_constants_{model.kind}", slack, 1e-9)


def _midpoint_concavity_report(model, seed, grid_points: int = 1000) -> MarginCheckReport:
    """exp(-eta psi) is midpoint-concave along the prediction axis."""
    rng = seeded_rng(seed, 29)
    lo, hi = model.domain
    gridv = np.linspace(lo, hi, grid_points)
    slacks = []
    targets = [None] if model.is_likelihood else np.linspace(model.target_lo, model.target_hi, 5)
    for t in targets:
        i = rng.integers(0, grid_points, 2000)
        j = rng.integers(0, grid_points, 2000)
        x1, x2 = gridv[i], gridv[j]
        tt = None if t is None else np.full_like(x1, t)
        g1 = np.exp(-model.eta * eval_loss(model, x1, tt))
        g2 = np.exp(-model.eta * eval_loss(model, x2, tt))
        gm = np.exp(-model.eta * eval_loss(model, 0.5 * (x1 + x2), tt))
        slacks.append(gm - 0.5 * (g1 + g2))
    return mg._report(f"exp_concavity_midpoint_{model.kind}", np.concatenate(slacks), 1e-9)


def _gradient_fd_report(model, trials, seed) -> MarginCheckReport:
    """Central finite differences match grad_loss to relative 1e-6.

    Step sizes scale with the distance to the nonsmooth point so both the
    truncation and roundoff terms stay uniformly small.
    """
    rng = seeded_rng(seed, 31)
    lo, hi = model.domain
    if model.is_likelihood:
        x = rng.uniform(lo * (1 + 1e-3), hi - 1e-4, trials)
        t = None
        h = 6e-6 * x
    else:
        span = hi - lo
        t = rng.uniform(model.target_lo, model.target_hi, trials)
        off = rng.uniform(1e-3, span, trials) * rng.choice([-1.0, 1.0], trials)
        x = np.clip(t + off, lo + 5e-5 * span, hi - 5e-5 * span)
        z = np.abs(x - t)
        keep = z > 1e-4
        x, t, z = x[keep], t[keep], z[keep]
        h = 6e-6 * z  # stays below the 5e-5 * span edge margin
    fd = (eval_loss(model, x + h, t) - eval_loss(model, x - h, t)) / (2.0 * h)
    g = grad_loss(model, x, t)
    rel = np.abs(fd - g) / np.maximum(np.abs(g), 1e-12)
    return mg._report(f"gradient_fd_{model.kind}", -rel, 1e-6)


def _softmax_roundtrip_report(trials, seed) -> MarginCheckReport:
    rng = seeded_rng(seed, 37)
    errs = []
    for k in (2, 3, 5):
        p = rng.dirichlet(np.ones(k), size=trials // 3)
        p = np.clip(p, 1e-12, None)
        p /= p.sum(axis=1, keepdims=True)
        back = link_softmax(link_right_inverse(p))
        errs.append(np.abs(back - p).max(axis=1))
    return mg._report("softmax_roundtrip", -np.concatenate(errs), 1e-12)


def _modulus_axioms_report(model, trials, seed) -> MarginCheckReport:
    """mu increasing and convex; d symmetric with the triangle inequality.

    The local-norm pseudodistance is direction-weighted, hence not covered.
    """
    rng = seeded_rng(seed, 41)
    z = np.sort(rng.uniform(0.0, 4.0, trials))
    mu = model.modulus.mu(z)
    inc = np.diff(mu)
    mid = model.modulus.mu(0.5 * (z[:-1] + z[1:]))
    convex = 0.5 * (mu[:-1] + mu[1:]) - mid
    lo, hi = model.domain
    x, y, w = (rng.uniform(lo, hi, trials) for _ in range(3))
    t = model.draw_targets(rng, trials)
    dxy = model.distance(x, y, t)
    dyx = model.distance(y, x, t)
    tri = model.distance(x, w, t) + model.distance(w, y, t) - dxy
    slack = np.concatenate([inc + 1e-12, convex + 1e-12, -np.abs(dxy - dyx), tri])
    return mg._report(f"modulus_axioms_{model.kind}", slack, 1e-12)


def _regularize_range_report(trials, seed) -> MarginCheckReport:
    rng = seeded_rng(seed, 43)
    f = rng.uniform(0.0, 1.0, trials)
    d = rng.uniform(1e-6, 0.5, trials)
    out = (1.0 - d) * f + d
    ref = regularize_likelihood(f, 0.25)
    slack = np.concatenate([out - d, 1.0 - out, ref - 0.25, 1.0 - ref])
    return mg._report("regularize_range", slack, 1e-12)


def loss_reports(trials: int = 10_000, seed: int = 0):
    models = standard_models()
    reports = []
    for model in models.values():
        reports.append(_loss_range_report(model, trials, seed))
        reports.append(_constants_report(model, trials, seed))
        reports.append(_midpoint_concavity_report(model, seed))
        reports.append(_gradient_fd_report(model, trials, seed))
        reports.append(_modulus_axioms_report(model, trials, seed))
    reports.append(_softmax_roundtrip_report(trials, seed))
    reports.append(_regularize_range_report(trials, seed))
    return reports


def run_suite(suite: str, trials: int = 10_000, grid: int = 100, seed: int = 0, tol: float = 1e-8):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    reports = []
    if suite in ("margins", "all"):
        reports += margin_reports(trials=trials, grid=grid, seed=seed, tol=tol)
    if suite in ("losses", "all"):
        reports += loss_reports(trials=trials, seed=seed)
    return reports
