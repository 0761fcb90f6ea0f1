import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starloc.losses import (
    bisect_root,
    canonical_modulus,
    eval_loss,
    glm_loss,
    grad_loss,
    link_right_inverse,
    link_softmax,
    log_loss,
    p_loss,
    power_modulus,
    regularize_likelihood,
    regularize_probs,
    sandwich_threshold,
    sandwich_upper_slack,
    square_loss,
)


def test_eval_loss_examples():
    sq = square_loss(3.0)
    assert eval_loss(sq, 3.0, 0.0) == 9.0
    lg = log_loss(0.01)
    assert eval_loss(lg, 1.0) == 0.0
    p3 = p_loss(3.0, 1.0)
    assert eval_loss(p3, 0.5, -0.5) == pytest.approx(1.0, abs=1e-15)


def test_eval_loss_rejects_out_of_domain():
    sq = square_loss(1.0)
    with pytest.raises(ValueError):
        eval_loss(sq, 1.5, 0.0)
    lg = log_loss(0.1)
    with pytest.raises(ValueError):
        eval_loss(lg, 0.05)
    with pytest.raises(ValueError):
        eval_loss(sq, 0.5, 2.0)  # target outside [-B, B]


def test_check_pred_names_the_value_outside_the_slack():
    # -1 - 5e-13 lies inside the 1e-12 slack, so -3.0 is the value at fault
    with pytest.raises(ValueError, match=r"prediction -3\.0 outside domain"):
        square_loss(1.0).check_pred([-1 - 5e-13, -3.0])
    with pytest.raises(ValueError, match=r"prediction 0\.01 outside domain"):
        log_loss(0.1).check_pred([0.1 - 5e-13, 0.5, 0.01])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_target_rejects_non_finite(bad):
    for model in (square_loss(1.0), p_loss(3.0, 1.0)):
        target = np.array([0.1, bad, -0.2])
        with pytest.raises(ValueError, match="target"):
            model.check_target(target)
        with pytest.raises(ValueError, match="target"):
            eval_loss(model, np.zeros(3), target)
    # in-range targets, including the domain ends, still pass
    square_loss(1.0).check_target(np.array([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError, match="B must be"):
        square_loss(bad)
    with pytest.raises(ValueError, match="B must be"):
        p_loss(3.0, bad)
    with pytest.raises(ValueError, match="p must"):
        p_loss(bad, 1.0)


def test_grad_loss_examples():
    sq = square_loss(1.0)
    assert grad_loss(sq, 1.0, 0.0) == 2.0
    lg = log_loss(0.1)
    assert grad_loss(lg, 0.5) == -2.0
    p3 = p_loss(3.0, 1.0)
    assert grad_loss(p3, 0.4, 0.4) == 0.0
    p15 = p_loss(1.5, 1.0)
    assert grad_loss(p15, 0.2, 0.2) == 0.0  # subgradient choice at the kink


def test_exp_concavity_eta_formulas():
    assert p_loss(3.0, 1.0).eta == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert log_loss().eta == 1.0
    assert glm_loss(3, 0.1).eta == 1.0
    assert p_loss(2.0, 1.0).eta == pytest.approx(0.125, rel=1e-15)
    assert square_loss(1.0).eta == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(ValueError):
        p_loss(1.0, 1.0)


def test_lipschitz_and_range_formulas():
    assert p_loss(3.0, 1.0).lip == 24.0
    assert log_loss(0.01).lip == pytest.approx(100.0, rel=1e-15)
    assert p_loss(2.0, 1.0).lip == 8.0
    assert square_loss(1.0).lip == 8.0
    assert p_loss(2.0, 1.0).m == 4.0
    assert log_loss(math.exp(-3.0)).m == pytest.approx(3.0, rel=1e-12)
    assert p_loss(3.0, 2.0).m == 64.0
    # the glm floor is delta / k
    assert glm_loss(4, 0.2).m == pytest.approx(math.log(20.0), rel=1e-15)
    assert glm_loss(4, 0.2).lip == pytest.approx(20.0, rel=1e-15)


@pytest.mark.parametrize("model", [log_loss(0.1), glm_loss(3, 0.1)], ids=["log", "glm"])
def test_likelihood_draw_targets_draws_nothing(model):
    rng = np.random.default_rng(5)
    assert model.draw_targets(rng, 10) is None
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


@pytest.mark.parametrize("model", [p_loss(3.0, 2.0), square_loss(0.5)], ids=["p3", "square"])
def test_draw_targets_are_the_generator_uniforms(model):
    drawn = model.draw_targets(np.random.default_rng(5), (4, 6))
    expected = np.random.default_rng(5).uniform(-model.target_hi, model.target_hi, (4, 6))
    assert drawn.shape == (4, 6) and np.array_equal(drawn, expected)


def test_canonical_modulus_examples():
    sq = square_loss(3.0)
    assert canonical_modulus(sq, 3.0, 1.0, 0.0) == 4.0
    lg = log_loss(0.5)
    # max(2 ln 2, 4) = 4
    assert canonical_modulus(lg, 0.5, 1.0) == pytest.approx(math.log(2.0) ** 2 / 4.0, rel=1e-12)
    p3 = p_loss(3.0, 1.0)
    assert canonical_modulus(p3, 0.3, 0.3, 0.1) == 0.0


def test_canonical_modulus_symmetry(rng):
    for model in (square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.2), glm_loss(3, 0.2)):
        lo, hi = model.domain
        x = rng.uniform(lo, hi, 500)
        y = rng.uniform(lo, hi, 500)
        t = None if model.is_likelihood else rng.uniform(-1.0, 1.0, 500)
        fwd = canonical_modulus(model, x, y, t)
        bwd = canonical_modulus(model, y, x, t)
        assert np.array_equal(fwd, bwd)


def test_power_modulus_requires_p_ge_2():
    with pytest.raises(ValueError):
        power_modulus(p_loss(1.5, 1.0), 0.1, 0.2)
    val = power_modulus(p_loss(3.0, 1.0), 0.5, -0.5)
    assert val == pytest.approx(2.0 ** (1 - 3.0) * 1.0, rel=1e-15)


def test_regularize_likelihood_examples():
    assert regularize_likelihood(0.0, 0.1) == pytest.approx(0.1)
    assert regularize_likelihood(1.0, 0.1) == pytest.approx(1.0)
    assert regularize_likelihood(0.5, 0.1) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        regularize_likelihood(1.5, 0.1)
    with pytest.raises(ValueError):
        regularize_likelihood(0.5, 0.7)


@given(st.floats(0.0, 1.0), st.floats(1e-6, 0.5))
def test_regularize_likelihood_range(f, delta):
    out = regularize_likelihood(f, delta)
    assert delta - 1e-15 <= out <= 1.0 + 1e-15


def test_link_softmax_examples():
    np.testing.assert_allclose(link_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(link_softmax([math.log(3.0), 0.0]), [0.75, 0.25], atol=1e-12)
    s = link_right_inverse([0.5, 0.5])
    np.testing.assert_allclose(link_softmax(s), [0.5, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        link_right_inverse([0.0, 1.0])


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)
    )
)
def test_softmax_right_inverse_roundtrip(raw):
    p = np.asarray(raw)
    p = p / p.sum()
    back = link_softmax(link_right_inverse(p))
    assert np.max(np.abs(back - p)) < 1e-12


def test_simplex_regularizer_keeps_distribution():
    p = np.array([0.7, 0.2, 0.1])
    out = regularize_probs(p, 0.3)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    assert out.min() >= 0.3 / 3 - 1e-15


def test_sandwich_threshold_is_exact():
    # equality of the lower sandwich side at the threshold, strict above
    for k in (1, 2, 5):
        for d in (0.05, 0.2, 0.5):
            f = sandwich_threshold(d, k)
            lhs = -math.log((1 - d) * f + d / k)
            assert lhs == pytest.approx(-math.log(f) - 2 * d, abs=1e-12)
    assert sandwich_upper_slack(0.3, 1) == 0.0


def test_model_constants_certified_on_samples(rng):
    # eta, m, lip from the formulas dominate the sampled quantities
    for model in (square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.05), glm_loss(4, 0.2)):
        lo, hi = model.domain
        x = rng.uniform(lo, hi, 10_000)
        t = None if model.is_likelihood else rng.uniform(model.target_lo, model.target_hi, 10_000)
        vals = eval_loss(model, x, t)
        grads = grad_loss(model, x, t)
        assert vals.min() >= -1e-9
        assert vals.max() <= model.m + 1e-9
        assert np.abs(grads).max() <= model.lip + 1e-9


def test_exp_concavity_midpoint(rng):
    # e^{-eta psi} midpoint-concave along predictions
    for model in (square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.1)):
        lo, hi = model.domain
        grid = np.linspace(lo, hi, 1000)
        i = rng.integers(0, 1000, 5000)
        j = rng.integers(0, 1000, 5000)
        t = None if model.is_likelihood else np.full(5000, 0.3)
        g = lambda z: np.exp(-model.eta * eval_loss(model, z, t))
        slack = g(0.5 * (grid[i] + grid[j])) - 0.5 * (g(grid[i]) + g(grid[j]))
        assert slack.min() >= -1e-9


def test_glm_loss_floor_is_delta_over_k():
    m = glm_loss(4, 0.2)
    assert m.domain[0] == pytest.approx(0.05)
    assert m.m == pytest.approx(math.log(20.0))
    assert m.eta == 1.0


def test_array_bisect_root_equals_scalar_calls(rng):
    # roots of x^3 + c x - v, with brackets of mixed widths and ends
    c, v = rng.uniform(0.0, 2.0, 50), rng.uniform(-1.0, 3.0, 50)
    lo, hi = rng.uniform(-2.0, 0.0, 50), rng.uniform(1.0, 3.0, 50)
    batched = bisect_root(lambda x: x**3 + c * x < v, lo, hi)
    singles = [bisect_root(lambda x: x**3 + c[i] * x < v[i], lo[i], hi[i]) for i in range(50)]
    assert isinstance(singles[0], float)
    np.testing.assert_array_equal(batched, singles)
