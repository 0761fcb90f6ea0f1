"""The column-wise softmax kernel against numpy's own row reductions.

The reference formulas below are the axis reductions the kernel replaced.
For k < 8 numpy sums a short last axis sequentially, in column order, so
the kernel must agree exactly; from k = 8 numpy sums pairwise and the two
agree to rounding.
"""

import numpy as np
import pytest

from starloc.estimators import _glm_risk_and_grad, _mixed_risk_and_grad
from starloc.experiments import _draw_labels, _regularized_likelihoods
from starloc.losses import link_softmax, row_max, row_sum

EXACT_K = (2, 3, 5)
PAIRWISE_K = 9
RTOL = 1e-15


def _scores(k, n=4000, seed=0):
    """Scores whose within-row gaps reach about 100."""
    rng = np.random.default_rng((seed, k))
    return rng.uniform(-50.0, 50.0, (n, k)) + rng.standard_normal((n, 1)) * 300.0


def _glm_case(k, n=3000, d=3, seed=1):
    rng = np.random.default_rng((seed, k))
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((k, d)) * 12.0
    return W, X, rng.integers(0, k, n)


def ref_softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_glm_risk_and_grad(W, X, y_idx):
    n = X.shape[0]
    Z = X @ W.T
    zmax = Z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(Z - zmax).sum(axis=1))
    risk = float(np.mean(lse - Z[np.arange(n), y_idx]))
    P = np.exp(Z - zmax)
    P /= P.sum(axis=1, keepdims=True)
    R = P.copy()
    R[np.arange(n), y_idx] -= 1.0
    return risk, R.T @ X / n


def ref_mixed_risk_and_grad(Wp, X, y_idx, f_hat_lik, lam, delta):
    n, k = X.shape[0], Wp.shape[0]
    Z = X @ Wp.T
    zmax = Z.max(axis=1, keepdims=True)
    P = np.exp(Z - zmax)
    P /= P.sum(axis=1, keepdims=True)
    q = (1.0 - delta) * P[np.arange(n), y_idx] + delta / k
    mix = lam * f_hat_lik + (1.0 - lam) * q
    risk = float(np.mean(-np.log(mix)))
    w = -(1.0 - lam) * (1.0 - delta) / (mix * n)
    py = P[np.arange(n), y_idx]
    R = -P * (w * py)[:, None]
    R[np.arange(n), y_idx] += w * py
    return risk, R.T @ X


def ref_regularized_likelihoods(W, X, bounds, delta, k):
    lik = np.empty(X.shape[0])
    for c in range(k):
        block = slice(bounds[c], bounds[c + 1])
        gaps = np.exp(X[block] @ (np.delete(W, c, axis=0) - W[c]).T)
        lik[block] = (1.0 - delta) / (1.0 + gaps.sum(axis=1))
    return lik + delta / k


def ref_draw_labels(probs, u):
    k = probs.shape[1]
    return (probs.cumsum(axis=1) < u[:, None]).sum(axis=1).clip(0, k - 1)


def _mixed_case(k):
    W, X, y = _glm_case(k, seed=2)
    rng = np.random.default_rng((3, k))
    f_hat_lik = rng.uniform(0.01, 1.0, X.shape[0])
    return W, X, y, f_hat_lik, 0.3, 0.05


def _sorted_oracle(k):
    W, X, y = _glm_case(k, n=5000, seed=4)
    order = np.argsort(y, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(y, minlength=k))))
    return W * 3.0, X[order], bounds


def _label_case(k):
    probs = ref_softmax(_scores(k, seed=5) / 20.0)
    rng = np.random.default_rng((6, k))
    u = rng.random(probs.shape[0])
    # u on a cumulative value exercises the strict comparison, u = 1 the clip.
    cum = probs.cumsum(axis=1)
    u[:k] = cum[np.arange(k), np.arange(k)]
    u[k : 2 * k] = 1.0
    return probs, u


@pytest.mark.parametrize("k", EXACT_K)
def test_row_reductions_match_numpy(k):
    Z = _scores(k)
    np.testing.assert_array_equal(row_max(Z), Z.max(axis=-1))
    np.testing.assert_array_equal(row_sum(np.exp(Z / 50.0)), np.exp(Z / 50.0).sum(axis=-1))


@pytest.mark.parametrize("k", EXACT_K)
def test_link_softmax_is_bit_identical(k):
    Z = _scores(k)
    np.testing.assert_array_equal(link_softmax(Z), ref_softmax(Z))
    np.testing.assert_array_equal(link_softmax(Z[0]), ref_softmax(Z[0]))


@pytest.mark.parametrize("k", EXACT_K)
def test_glm_risk_and_grad_is_bit_identical(k):
    W, X, y = _glm_case(k)
    risk, grad = _glm_risk_and_grad(W, X, y)
    ref_risk, ref_grad = ref_glm_risk_and_grad(W, X, y)
    assert risk == ref_risk
    np.testing.assert_array_equal(grad, ref_grad)


@pytest.mark.parametrize("k", EXACT_K)
def test_partner_objective_is_bit_identical(k):
    case = _mixed_case(k)
    risk, grad = _mixed_risk_and_grad(*case)
    ref_risk, ref_grad = ref_mixed_risk_and_grad(*case)
    assert risk == ref_risk
    np.testing.assert_array_equal(grad, ref_grad)


@pytest.mark.parametrize("k", EXACT_K)
def test_regularized_likelihoods_are_bit_identical(k):
    W, X, bounds = _sorted_oracle(k)
    np.testing.assert_array_equal(
        _regularized_likelihoods(W, X, bounds, 0.01, k),
        ref_regularized_likelihoods(W, X, bounds, 0.01, k),
    )


@pytest.mark.parametrize("k", (*EXACT_K, PAIRWISE_K))
def test_label_draw_is_identical(k):
    probs, u = _label_case(k)
    np.testing.assert_array_equal(_draw_labels(probs, u), ref_draw_labels(probs, u))


def test_pairwise_width_agrees_to_rounding():
    k = PAIRWISE_K
    Z = _scores(k)
    np.testing.assert_allclose(link_softmax(Z), ref_softmax(Z), rtol=RTOL, atol=0)

    W, X, y = _glm_case(k)
    risk, grad = _glm_risk_and_grad(W, X, y)
    ref_risk, ref_grad = ref_glm_risk_and_grad(W, X, y)
    assert risk == pytest.approx(ref_risk, rel=RTOL, abs=0)
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL * np.abs(ref_grad).max())

    case = _mixed_case(k)
    risk, grad = _mixed_risk_and_grad(*case)
    ref_risk, ref_grad = ref_mixed_risk_and_grad(*case)
    assert risk == pytest.approx(ref_risk, rel=RTOL, abs=0)
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL * np.abs(ref_grad).max())

    W, X, bounds = _sorted_oracle(k)
    np.testing.assert_allclose(
        _regularized_likelihoods(W, X, bounds, 0.01, k),
        ref_regularized_likelihoods(W, X, bounds, 0.01, k),
        rtol=RTOL, atol=0,
    )
