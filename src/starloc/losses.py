"""Scalar loss families with certified curvature constants.

Four families are supported: the square loss, the p-loss (p > 1), the
log loss on likelihood values, and the multiclass GLM likelihood loss.
Each model carries a range bound m, an exp-concavity modulus eta, a
Lipschitz bound, and a canonical convexity modulus mu(d(x, y)) that the
margin checks and offset estimators consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModulusDescriptor",
    "LossModel",
    "square_loss",
    "p_loss",
    "log_loss",
    "glm_loss",
    "eval_loss",
    "grad_loss",
    "second_deriv_loss",
    "canonical_modulus",
    "power_modulus",
    "uniform_convexity_alpha",
    "loss_increment_modulus",
    "regularize_likelihood",
    "regularize_probs",
    "row_max",
    "row_sum",
    "bisect_root",
    "link_softmax",
    "link_right_inverse",
    "sandwich_threshold",
    "sandwich_upper_slack",
]

# Likelihoods below this floor are outside every supported log-loss domain.
LOG_DOMAIN_FLOOR = 1e-12

# Absolute slack allowed when checking domain membership of float inputs
# (mixes of in-domain predictions can drift by a few ulp).
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ModulusDescriptor:
    """Quadratic convexity modulus mu(z) = coef * z^2 composed with a (pseudo)metric d.

    d_kind: 'absolute', 'log_metric', or 'loss_increment'.
    """

    d_kind: str
    coef: float = 1.0

    def mu(self, z):
        z = np.asarray(z, dtype=float)
        return self.coef * z * z

    def mu_inv(self, w):
        """Inverse of mu on [0, inf)."""
        w = np.asarray(w, dtype=float)
        if np.any(w < -_DOMAIN_SLACK):
            raise ValueError("mu_inv requires nonnegative input")
        return np.sqrt(np.maximum(w, 0.0) / self.coef)


@dataclass(frozen=True)
class LossModel:
    """A scalar loss with its certified constants.

    domain is the closed prediction (or likelihood) interval, m the range
    bound (0 <= psi <= m on the domain), eta the exp-concavity modulus,
    lip the Lipschitz bound (may be inf), and modulus the canonical
    (mu, d) descriptor.
    """

    kind: str  # 'square' | 'p_loss' | 'log' | 'glm'
    domain: tuple[float, float]
    m: float
    eta: float
    lip: float
    modulus: ModulusDescriptor
    p: float | None = None
    B: float | None = None
    delta: float | None = None  # likelihood floor for log/glm
    k: int | None = None  # number of classes for glm
    target_lo: float | None = None
    target_hi: float | None = None

    @property
    def is_likelihood(self) -> bool:
        return self.kind in ("log", "glm")

    def check_pred(self, pred) -> None:
        pred = np.asarray(pred, dtype=float)
        lo, hi = self.domain
        if not np.all(np.isfinite(pred)):
            raise ValueError(f"{self.kind} loss: non-finite prediction")
        # A passing check holds one boolean temporary at a time; the value
        # at fault is located only on failure.
        if np.any(pred < lo - _DOMAIN_SLACK) or np.any(pred > hi + _DOMAIN_SLACK):
            outside = (pred < lo - _DOMAIN_SLACK) | (pred > hi + _DOMAIN_SLACK)
            bad = float(pred.flat[int(np.argmax(outside))])
            raise ValueError(
                f"{self.kind} loss: prediction {bad} outside domain [{lo}, {hi}]"
            )

    def check_target(self, target) -> None:
        if self.is_likelihood or target is None:
            return
        target = np.asarray(target, dtype=float)
        if target.size == 0:
            return
        lo, hi = self.target_lo, self.target_hi
        # min and max propagate NaN, and NaN fails both comparisons.
        if not (lo - _DOMAIN_SLACK <= target.min() and target.max() <= hi + _DOMAIN_SLACK):
            if not np.all(np.isfinite(target)):
                raise ValueError(f"{self.kind} loss: non-finite target")
            raise ValueError(f"{self.kind} loss: target outside [{lo}, {hi}]")

    def draw_targets(self, rng: np.random.Generator, size):
        """Uniform targets on [target_lo, target_hi]; None for a likelihood loss, which draws nothing from rng."""
        if self.is_likelihood:
            return None
        return rng.uniform(self.target_lo, self.target_hi, size)

    def distance(self, x, y, target=None):
        """Canonical metric d(x, y) for this model."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        kind = self.modulus.d_kind
        if kind == "absolute":
            return np.abs(x - y)
        if kind == "log_metric":
            return np.abs(np.log(x) - np.log(y))
        if kind == "loss_increment":
            return np.abs(eval_loss(self, x, target) - eval_loss(self, y, target))
        raise ValueError(f"distance not defined for d_kind {kind!r}")


def _increment_coef(m: float, eta: float) -> float:
    # mu(z) = z^2 / (2m v 4/eta) on the loss increment |psi(x) - psi(y)|
    return 1.0 / max(2.0 * m, 4.0 / eta)


def _power_family(kind: str, p: float, B: float) -> LossModel:
    """|x - a|^p on predictions and targets in [-B, B].

    m = 2^p B^p, eta = (p - 1) / (p 2^p B^p), lip = p 2^p B^(p-1).
    """
    if not (B > 0 and math.isfinite(B)):
        raise ValueError(f"B must be positive and finite, not {B}")
    m = 2.0**p * B**p
    eta = (p - 1.0) / (p * 2.0**p * B**p)
    if kind == "square":
        modulus = ModulusDescriptor("absolute", coef=1.0)
    else:
        modulus = ModulusDescriptor("loss_increment", coef=_increment_coef(m, eta))
    return LossModel(
        kind=kind,
        domain=(-B, B),
        m=m,
        eta=eta,
        lip=p * 2.0**p * B ** (p - 1.0),
        modulus=modulus,
        p=p,
        B=B,
        target_lo=-B,
        target_hi=B,
    )


def _likelihood_family(kind: str, floor: float, **fields) -> LossModel:
    """-ln on likelihoods in [floor, 1]: m = ln(1/floor), eta = 1, lip = 1/floor."""
    m = math.log(1.0 / floor)
    return LossModel(
        kind=kind,
        domain=(floor, 1.0),
        m=m,
        eta=1.0,
        lip=1.0 / floor,
        modulus=ModulusDescriptor("log_metric", coef=_increment_coef(m, 1.0)),
        **fields,
    )


def square_loss(B: float = 1.0) -> LossModel:
    """Square loss (x - a)^2 on predictions and targets in [-B, B]."""
    return _power_family("square", 2.0, B)


def p_loss(p: float, B: float = 1.0) -> LossModel:
    """p-loss |x - a|^p, p > 1, on predictions and targets in [-B, B]."""
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"p must exceed 1 and be finite, not {p}")
    return _power_family("p_loss", p, B)


def log_loss(delta: float = LOG_DOMAIN_FLOOR) -> LossModel:
    """Log loss -ln(x) on likelihoods in [delta, 1]."""
    if not LOG_DOMAIN_FLOOR <= delta <= 1.0:
        raise ValueError(f"delta must lie in [{LOG_DOMAIN_FLOOR}, 1]")
    return _likelihood_family("log", delta, delta=delta)


def glm_loss(k: int, delta: float) -> LossModel:
    """GLM likelihood loss -ln<phi(scores), y> with the uniform-mix floor.

    Probability vectors regularized by p -> (1-delta) p + delta/k keep every
    observed-label likelihood in [delta/k, 1], so the effective floor is delta/k.
    """
    if k < 2:
        raise ValueError("glm loss requires k >= 2 classes")
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    return _likelihood_family("glm", delta / k, delta=delta, k=k)


def eval_loss(model: LossModel, pred, target=None):
    """Evaluate the loss at a prediction (scalar or array)."""
    model.check_pred(pred)
    model.check_target(target)
    pred = np.asarray(pred, dtype=float)
    if model.is_likelihood:
        out = -np.log(np.clip(pred, model.domain[0], model.domain[1]))
    else:
        if target is None:
            raise ValueError(f"{model.kind} loss requires a target")
        target = np.asarray(target, dtype=float)
        out = np.abs(pred - target) ** model.p
    return out if out.ndim else float(out)


def grad_loss(model: LossModel, pred, target=None):
    """Subgradient of the loss in its prediction argument.

    For the p-loss the subgradient at pred == target is 0 (the minimizer).
    """
    model.check_pred(pred)
    model.check_target(target)
    pred = np.asarray(pred, dtype=float)
    if model.is_likelihood:
        out = -1.0 / np.clip(pred, model.domain[0], model.domain[1])
    else:
        if target is None:
            raise ValueError(f"{model.kind} loss requires a target")
        z = pred - np.asarray(target, dtype=float)
        out = model.p * np.abs(z) ** (model.p - 1.0) * np.sign(z)
    return out if out.ndim else float(out)


def second_deriv_loss(model: LossModel, pred, target=None):
    """Second derivative psi'' where it exists (used by local-norm margins)."""
    model.check_pred(pred)
    pred = np.asarray(pred, dtype=float)
    if model.is_likelihood:
        out = 1.0 / np.clip(pred, model.domain[0], model.domain[1]) ** 2
    else:
        if target is None:
            raise ValueError(f"{model.kind} loss requires a target")
        z = np.abs(pred - np.asarray(target, dtype=float))
        with np.errstate(divide="ignore"):
            out = model.p * (model.p - 1.0) * z ** (model.p - 2.0)
    return out if out.ndim else float(out)


def canonical_modulus(model: LossModel, x, y, target=None):
    """mu(d(x, y)) for the model's canonical descriptor.

    square -> (x - y)^2; log/glm -> |ln x - ln y|^2 / (2 ln(1/floor) v 4);
    p-loss -> |psi(x) - psi(y)|^2 / (2m v 4/eta).
    """
    model.check_pred(x)
    model.check_pred(y)
    return_scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    d = model.distance(x, y, target)
    out = model.modulus.mu(d)
    return float(out) if return_scalar else out


def power_modulus(model: LossModel, x, y):
    """p-uniform-convexity modulus alpha |x - y|^p with alpha = 2^(1-p).

    Available for the p-loss with p >= 2; certified by the margin suite
    before the uniform-convexity offset uses it.
    """
    if model.kind not in ("square", "p_loss") or model.p < 2.0:
        raise ValueError("power modulus defined for p-loss with p >= 2")
    model.check_pred(x)
    model.check_pred(y)
    alpha = 2.0 ** (1.0 - model.p)
    out = alpha * np.abs(np.asarray(x, float) - np.asarray(y, float)) ** model.p
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def uniform_convexity_alpha(model: LossModel) -> float:
    if model.kind not in ("square", "p_loss") or model.p < 2.0:
        raise ValueError("uniform convexity modulus defined for p-loss with p >= 2")
    return 2.0 ** (1.0 - model.p)


def loss_increment_modulus(model: LossModel) -> ModulusDescriptor:
    """Exp-concave modulus |psi(x) - psi(y)|^2 / (2m v 4/eta) as a descriptor.

    For log/glm models this coincides with the canonical log-metric modulus
    (the log metric is the loss increment of -ln).
    """
    return ModulusDescriptor("loss_increment", coef=_increment_coef(model.m, model.eta))


def regularize_likelihood(f, delta: float):
    """Scalar likelihood regularization f -> (1 - delta) f + delta in [delta, 1]."""
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    f = np.asarray(f, dtype=float)
    if np.any(f < -_DOMAIN_SLACK) or np.any(f > 1.0 + _DOMAIN_SLACK):
        raise ValueError("likelihood must lie in [0, 1]")
    out = (1.0 - delta) * np.clip(f, 0.0, 1.0) + delta
    return float(out) if out.ndim == 0 else out


def regularize_probs(p, delta: float):
    """Simplex regularization p -> (1 - delta) p + delta * uniform.

    Keeps probability vectors on the simplex with every component >= delta/k.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    return (1.0 - delta) * p + delta / k


def row_max(a):
    """Max over the last axis of a, one column at a time.

    numpy reduces a short last axis (the class axis) far slower than it
    combines whole columns, so the softmax kernels reduce column by column.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    return out


def row_sum(a):
    """Sum over the last axis of a, accumulated one column at a time, in column order."""
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def bisect_root(below, lo, hi):
    """Midpoint of [lo, hi] after 80 halvings toward where below turns False.

    below(x) must be True left of the root and False right of it. The
    bracket shrinks by a factor 2^80, so for 0 <= lo < hi it ends narrower
    than the float spacing at hi. lo and hi may also be equal-shape arrays
    of brackets, halved in lockstep: below then returns a boolean array,
    and each bracket ends where its scalar call would.
    """
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        if np.ndim(mid):
            lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        elif left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def link_softmax(scores):
    """Softmax link: scores (..., k) -> probability vectors summing to 1.

    The max shift and the normalizing sum run over the classes in column
    order (row_max, row_sum). numpy sums a last axis shorter than 8 in the
    same sequential order, so for k < 8 the result is bit-identical to
    numpy's axis reductions; from k = 8 numpy sums pairwise and the two
    differ by rounding.
    """
    scores = np.asarray(scores, dtype=float)
    e = np.exp(scores - row_max(scores)[..., None])
    e /= row_sum(e)[..., None]
    return e


def link_right_inverse(probs):
    """Right inverse of the softmax link: probs -> ln(probs).

    softmax(link_right_inverse(p)) == p on the open simplex.
    """
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0.0):
        raise ValueError("right inverse requires strictly positive probabilities")
    return np.log(probs)


def sandwich_threshold(delta: float, k: int = 1) -> float:
    """Smallest f for which -ln f - 2 delta <= -ln((1-delta) f + delta/k).

    Equality holds exactly at the returned value.
    """
    return delta / (k * (math.expm1(2.0 * delta) + delta))


def sandwich_upper_slack(delta: float, k: int = 1) -> float:
    """Additive bound in -ln((1-d) f + d/k) <= -ln f + slack; zero when k = 1."""
    return max(0.0, math.log(k / (k - k * delta + delta)))
