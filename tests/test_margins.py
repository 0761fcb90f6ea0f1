import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starloc.estimators import erm_segment, star_fit
from starloc.losses import glm_loss, log_loss, p_loss, square_loss
from starloc.margins import (
    bregman_gap,
    certify_mu_d_convexity,
    contraction_check,
    empirical_convexity_check,
    empirical_metric,
    erm_margin_check,
    exp_concave_margin_check,
    log_margin_scalar_check,
    regularization_sandwich_check,
    self_concordant_gap_check,
    star_margin_check,
)
from starloc.predictors import Constant, FiniteClass, Sample, SegmentClass, seeded_rng
from starloc.verify import _random_finite_star_margin

ALL_MODELS = [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.1), glm_loss(3, 0.1)]


def test_bregman_gap_examples():
    sq = square_loss(3.0)
    assert bregman_gap(sq, 3.0, 1.0, 0.0) == pytest.approx(4.0, abs=1e-12)
    lg = log_loss(0.01)
    # oracle: e^{-z} - 1 + z with z = ln(y/x)
    z = math.log(1.0 / 0.5)
    assert bregman_gap(lg, 0.5, 1.0) == pytest.approx(math.expm1(-z) + z, abs=1e-14)
    assert bregman_gap(lg, 0.5, 1.0) == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
    assert bregman_gap(sq, 0.7, 0.7, 0.1) == 0.0


def test_bregman_gap_square_identity(rng):
    sq = square_loss(1.0)
    x = rng.uniform(-1, 1, 10_000)
    y = rng.uniform(-1, 1, 10_000)
    t = rng.uniform(-1, 1, 10_000)
    gap = bregman_gap(sq, x, y, t)
    assert np.max(np.abs(gap - (x - y) ** 2)) < 1e-12


def test_bregman_gap_nonnegative(rng):
    for model in ALL_MODELS:
        lo, hi = model.domain
        x = rng.uniform(lo, hi, 10_000)
        y = rng.uniform(lo, hi, 10_000)
        t = None if model.is_likelihood else rng.uniform(-1, 1, 10_000)
        assert bregman_gap(model, x, y, t).min() >= -1e-10


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_certify_canonical_modulus(model):
    rep = certify_mu_d_convexity(model, grid_size=100, seed=0)
    assert rep.violations == 0
    assert rep.worst_slack >= -rep.tolerance


def test_certify_square_is_tight():
    rep = certify_mu_d_convexity(square_loss(1.0), grid_size=100, seed=0)
    assert rep.violations == 0
    assert abs(rep.worst_slack) < 1e-12  # gap equals the modulus exactly


def test_certify_power_modulus_p3():
    rep = certify_mu_d_convexity(p_loss(3.0, 1.0), grid_size=100, seed=0, modulus="power")
    assert rep.violations == 0


def test_empirical_metric_examples():
    sq = square_loss(2.0)
    assert empirical_metric(sq, [1.0, 1.0], [0.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert empirical_metric(sq, [0.7], [0.2], [0.0]) == pytest.approx(0.5, abs=1e-12)
    lg = log_loss(0.5)
    expected = math.sqrt(math.log(2.0) ** 2 / 2.0)
    assert empirical_metric(lg, [0.5, 1.0], [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)


def test_empirical_metric_rms_triangle(rng):
    sq = square_loss(1.0)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        f, g, h = (rng.uniform(-1, 1, n) for _ in range(3))
        t = rng.uniform(-1, 1, n)
        assert empirical_metric(sq, f, g, t) <= (
            empirical_metric(sq, f, h, t) + empirical_metric(sq, h, g, t) + 1e-10
        )


def test_erm_margin_singleton_trivial():
    sq = square_loss(1.0)
    preds = np.array([0.3, -0.2, 0.5])
    targets = np.array([0.1, 0.0, 0.2])
    risk = float(np.mean((preds - targets) ** 2))
    rep = erm_margin_check(sq, preds[None, :], targets, preds, risk)
    assert rep.violations == 0
    assert abs(rep.worst_slack) < 1e-15


@pytest.mark.parametrize("kind", ["square", "log"])
def test_erm_margin_segment_classes(kind, rng):
    model = square_loss(1.0) if kind == "square" else log_loss(0.1)
    lo, hi = model.domain
    for trial in range(20):
        n = int(rng.integers(4, 40))
        seg = SegmentClass(rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), resolution=1e-3)
        targets = None if model.is_likelihood else rng.uniform(-1, 1, n)
        sample = Sample(np.zeros((n, 1)), np.zeros(n) if targets is None else targets)
        preds, risk, _ = erm_segment(model, seg, sample)
        rep = erm_margin_check(model, seg.materialize(), targets, preds, risk)
        assert rep.violations == 0


def test_star_margin_two_point_oracle(rng):
    # oracle: exhaustive lam grid at 1e-4 resolution over the hull segments
    sq = square_loss(1.0)
    n = 12
    targets = rng.uniform(-1, 1, n)
    sample = Sample(np.zeros((n, 1)), targets)
    cls = FiniteClass([Constant(-0.6), Constant(0.8)])
    fit = star_fit(sq, cls, sample)
    preds = cls.prediction_matrix(sample)
    idx = int(np.argmin(((preds - targets[None, :]) ** 2).mean(axis=1)))
    lams = np.linspace(0, 1, 10_001)
    mix = lams[:, None, None] * preds[idx][None, None, :] + (1 - lams)[:, None, None] * preds[None, :, :]
    oracle_risk = float(((mix - targets[None, None, :]) ** 2).mean(axis=-1).min())
    assert fit.star_risk <= oracle_risk + 1e-8
    rep = star_margin_check(sq, preds, targets, fit.star_preds, fit.star_risk)
    assert rep.violations == 0


def test_star_margin_random_log_classes(rng):
    lg = log_loss(0.1)
    for _ in range(16):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(8, 64))
        cls = FiniteClass([Constant(v) for v in rng.uniform(0.0, 1.0, m)], delta=0.1)
        sample = Sample(np.zeros((n, 1)), np.zeros(n))
        fit = star_fit(lg, cls, sample)
        rep = star_margin_check(
            lg, cls.prediction_matrix(sample), None, fit.star_preds, fit.star_risk
        )
        assert rep.violations == 0


def test_star_margin_contains_star_itself():
    sq = square_loss(1.0)
    targets = np.array([0.5, -0.5])
    sample = Sample(np.zeros((2, 1)), targets)
    cls = FiniteClass([Constant(0.5), Constant(-0.25)])
    fit = star_fit(sq, cls, sample)
    members = np.vstack([cls.prediction_matrix(sample), fit.star_preds[None, :]])
    rep = star_margin_check(sq, members, targets, fit.star_preds, fit.star_risk)
    assert rep.violations == 0
    assert rep.worst_slack >= -1e-12  # equality at g = star output


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_exp_concave_margin(model):
    rep = exp_concave_margin_check(model, trials=10_000, seed=1)
    assert rep.violations == 0


def test_exp_concave_margin_measures_the_loss_increment():
    # m and eta too generous for the square loss: the modulus on |psi(x) - psi(y)|
    # outgrows the Bregman gap (x - y)^2, which the metric |x - y| would hide.
    generous = replace(square_loss(1.0), m=1.0, eta=2.0)
    rep = exp_concave_margin_check(generous, trials=2000, seed=0)
    assert rep.violations == 715 and rep.trials == 2000


def test_self_concordance_examples():
    lg = log_loss(0.01)
    gap = bregman_gap(lg, 0.5, 1.0)
    omega = 0.5 - math.log(1.5)
    assert gap >= omega
    assert gap == pytest.approx(0.1931471805599453, abs=1e-12)
    assert omega == pytest.approx(0.09453489189183562, abs=1e-12)
    # x > y saturates: gap computed both ways matches omega of the local norm
    x, y = 0.9, 0.3
    local = abs(x - y) / y
    assert bregman_gap(lg, x, y) == pytest.approx(local - math.log1p(local), abs=1e-12)


def test_self_concordance_checks():
    for model in (log_loss(0.05), glm_loss(3, 0.1)):
        assert self_concordant_gap_check(model, trials=10_000, seed=2).violations == 0
        sat = self_concordant_gap_check(model, trials=10_000, seed=2, saturation=True)
        assert sat.violations == 0
        assert sat.worst_slack >= -1e-12


def test_log_margin_scalar_examples():
    rep = log_margin_scalar_check(2.0, points=10_001)
    assert rep.violations == 0
    # z = 2, c = 2: e^{-2} + 1 >= 4 / max(4, 4)
    assert math.exp(-2.0) + 1.0 >= 1.0
    rep = log_margin_scalar_check(1.0, points=10_001)
    assert rep.violations == 0
    assert math.exp(1.0) - 2.0 >= 0.25
    with pytest.raises(ValueError):
        log_margin_scalar_check(0.0)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_log_margin_scalar_grid(c):
    assert log_margin_scalar_check(c, points=10_000).violations == 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_contraction_two_sided(model):
    rep = contraction_check(model, trials=10_000, seed=3)
    assert rep.violations == 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_empirical_convexity(model):
    rep = empirical_convexity_check(model, trials=300, n=48, seed=4)
    assert rep.violations == 0


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_regularization_sandwich(k):
    rep = regularization_sandwich_check(k=k, grid=10_000)
    assert rep.violations == 0


def test_report_consistency():
    rep = certify_mu_d_convexity(square_loss(1.0), grid_size=20, seed=0)
    assert (rep.worst_slack >= -rep.tolerance) == (rep.violations == 0)


@given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
def test_gap_dominates_modulus_property(x, y, t):
    sq = square_loss(1.0)
    from starloc.losses import canonical_modulus

    assert bregman_gap(sq, x, y, t) >= canonical_modulus(sq, x, y, t) - 1e-10


@pytest.mark.parametrize("model", [square_loss(1.0), log_loss(0.1)], ids=["square", "log"])
@pytest.mark.parametrize("seed", range(4))
def test_verify_star_margin_matches_per_draw_fits(model, seed):
    """verify's batched star margins agree with one star_fit per drawn class."""
    rng = seeded_rng(seed, 13)
    lo, hi = model.domain
    trials = violations = 0
    worst = math.inf
    while trials < 2000:
        m = int(rng.integers(2, 33))
        n = int(rng.integers(8, 129))
        cls = FiniteClass([Constant(v) for v in rng.uniform(lo, hi, m)])
        targets = None if model.is_likelihood else rng.uniform(model.target_lo, model.target_hi, n)
        sample = Sample(np.zeros((n, 1)), np.zeros(n) if targets is None else targets)
        fit = star_fit(model, cls, sample)
        rep = star_margin_check(
            model, cls.prediction_matrix(sample), targets, fit.star_preds, fit.star_risk, tolerance=1e-8
        )
        trials += rep.trials
        violations += rep.violations
        worst = min(worst, rep.worst_slack)
    pooled = _random_finite_star_margin(model, 2000, seed, 1e-8)
    assert (pooled.trials, pooled.violations) == (trials, violations)
    assert abs(pooled.worst_slack - worst) <= 1e-10
