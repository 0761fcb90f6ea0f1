"""Predictors, function classes, and samples.

Predictors are immutable; a fitted star combination is just another
predictor (a pointwise mix in prediction/likelihood space). Function
classes materialize per-sample prediction vectors, applying the class's
likelihood regularization at that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import link_softmax, regularize_likelihood, regularize_probs, row_sum

__all__ = [
    "Sample",
    "Predictor",
    "Constant",
    "Tabular",
    "Linear",
    "StarMix",
    "FiniteClass",
    "SegmentClass",
    "LinearBall",
    "class_labels",
    "clip_rows",
    "prediction_vector",
    "seeded_rng",
]


def seeded_rng(*keys) -> np.random.Generator:
    """Generator seeded from a tuple of ints: (seed, tag, ...) names an independent stream."""
    return np.random.default_rng(tuple(int(k) for k in keys))


def class_labels(y, k: int) -> np.ndarray:
    """Labels y as ints, checked to lie in 0..k-1.

    The GLM kernels read row i's label entry of an (n, k) array as entry
    i k + y_i of its flat view, so a label outside the range would read
    another row's entry instead of failing.
    """
    labels = np.asarray(y, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"class labels must lie in 0..{k - 1}")
    return labels


def clip_rows(X: np.ndarray, radius: float) -> np.ndarray:
    """Scale, in place, the rows of X whose 2-norm exceeds radius back to radius; returns X.

    The row norms are summed one column at a time (row_sum), which for
    fewer than 8 columns gives the same bits as np.linalg.norm(X, axis=1).
    """
    norms = np.sqrt(row_sum(X * X))
    X *= np.minimum(1.0, radius / np.maximum(norms, 1e-300))[:, None]
    return X


@dataclass(frozen=True)
class Sample:
    """Features X (n, d) and targets y (n,); labels are 0-based ints for GLM."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", np.asarray(self.y))
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("features and targets must share the leading dimension")
        if self.n == 0:
            raise ValueError("sample must be nonempty")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


class Predictor:
    """Base class: each predictor type has evaluate(sample); with_floor(delta) is its floored member."""

    __slots__ = ()

    def with_floor(self, delta: float) -> Predictor:
        raise ValueError("delta regularization applies to likelihood members")


@dataclass(frozen=True, eq=False)
class Constant(Predictor):
    """Constant prediction: a scalar, or a probability vector for GLM."""

    value: float | np.ndarray

    def evaluate(self, sample: Sample) -> np.ndarray:
        v = self.value
        if isinstance(v, np.ndarray):
            return v[np.asarray(sample.y, dtype=int)]
        return np.full(sample.n, float(v))

    def with_floor(self, delta: float) -> Constant:
        v = self.value
        return Constant(regularize_probs(v, delta) if isinstance(v, np.ndarray) else regularize_likelihood(v, delta))

    def describe(self) -> dict:
        v = self.value
        return {"type": "constant", "value": v.tolist() if isinstance(v, np.ndarray) else v}


@dataclass(frozen=True, eq=False)
class Tabular(Predictor):
    """Predictions indexed by example id (a materialized function on a sample)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def evaluate(self, sample: Sample) -> np.ndarray:
        if self.values.shape[0] != sample.n:
            raise ValueError("tabular predictor does not match the sample size")
        return self.values.copy()

    def with_floor(self, delta: float) -> Tabular:
        return Tabular(regularize_likelihood(self.values, delta))

    def describe(self) -> dict:
        return {"type": "tabular", "values": self.values.tolist()}


@dataclass(frozen=True, eq=False)
class Linear(Predictor):
    """Linear scores x -> Wx with a row-norm bound.

    For GLM models the scores go through the softmax link; with delta set the
    probability vector is mixed toward uniform. For the square loss, k = 1 and
    the prediction is the scalar score.
    """

    W: np.ndarray
    bound: float
    delta: float | None = None

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        object.__setattr__(self, "W", W)
        row_norms = np.linalg.norm(W, axis=1)
        if np.any(row_norms > self.bound * (1 + 1e-9) + 1e-12):
            raise ValueError(
                f"row norm {row_norms.max():.6g} exceeds bound {self.bound:.6g}"
            )

    @property
    def k(self) -> int:
        return self.W.shape[0]

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.W.shape[1]:
            raise ValueError(
                f"feature dimension {X.shape[1]} does not match weights {self.W.shape}"
            )
        return X @ self.W.T

    def probs(self, X: np.ndarray) -> np.ndarray:
        p = link_softmax(self.scores(X))
        if self.delta is not None:
            p = regularize_probs(p, self.delta)
        return p

    def evaluate(self, sample: Sample) -> np.ndarray:
        if self.k == 1:
            return self.scores(sample.X)[:, 0]
        p = self.probs(sample.X)
        return p.ravel()[np.arange(sample.n) * self.k + class_labels(sample.y, self.k)]

    def with_floor(self, delta: float) -> Linear:
        if self.k == 1:
            return super().with_floor(delta)
        return Linear(self.W, self.bound, delta)

    def describe(self) -> dict:
        # An unbounded member has no "bound", as in a class spec (JSON has no inf).
        bound = {} if np.isinf(self.bound) else {"bound": self.bound}
        return {"type": "linear", "weights": self.W.tolist(), **bound, "link": "softmax", "delta": self.delta}


@dataclass(frozen=True, eq=False)
class StarMix(Predictor):
    """Pointwise mix lam * left + (1 - lam) * right in prediction space."""

    lam: float
    left: Predictor
    right: Predictor

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    def probs(self, X: np.ndarray) -> np.ndarray:
        """Mixed probability vectors of two GLM members (each with a probs method).

        A mix of delta-regularized softmax vectors stays on the simplex with
        every component >= delta/k, so link_right_inverse maps it back to
        (improper) scores.
        """
        return self.lam * self.left.probs(X) + (1.0 - self.lam) * self.right.probs(X)

    def evaluate(self, sample: Sample) -> np.ndarray:
        a = prediction_vector(self.left, sample)
        b = prediction_vector(self.right, sample)
        return self.lam * a + (1.0 - self.lam) * b

    def describe(self) -> dict:
        return {
            "type": "star_mix",
            "lam": self.lam,
            "left": self.left.describe(),
            "right": self.right.describe(),
        }


def prediction_vector(predictor: Predictor, sample: Sample) -> np.ndarray:
    """Vector of predictions (likelihoods for GLM) on a whole sample."""
    return predictor.evaluate(sample)


@dataclass(frozen=True, eq=False)
class FiniteClass:
    """A finite list of predictors, optionally delta-regularized.

    With delta set, scalar likelihood members are mapped through
    (1 - delta) f + delta and probability-vector members through the
    uniform mix, so evaluated likelihoods respect the model's floor.
    """

    members: tuple
    delta: float | None = None

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("finite class must be nonempty")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def effective_members(self) -> list[Predictor]:
        """Members with the class regularization baked in."""
        return [m if self.delta is None else m.with_floor(self.delta) for m in self.members]

    def prediction_matrix(self, sample: Sample) -> np.ndarray:
        """(M, n) matrix of member predictions with regularization applied.

        A class of scalar constants is one broadcast of the member values.
        """
        members = self.effective_members()
        if all(isinstance(m, Constant) and not isinstance(m.value, np.ndarray) for m in members):
            return np.repeat(np.array([float(m.value) for m in members])[:, None], sample.n, axis=1)
        return np.vstack([prediction_vector(m, sample) for m in members])


@dataclass(frozen=True, eq=False)
class SegmentClass:
    """The convex segment between two prediction vectors, materialized on demand."""

    a: np.ndarray
    b: np.ndarray
    resolution: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != self.b.shape:
            raise ValueError("segment endpoints must share a shape")

    def materialize(self) -> np.ndarray:
        """(M, n) grid of lam*a + (1-lam)*b at the class resolution."""
        levels = int(round(1.0 / self.resolution))
        lam = np.linspace(0.0, 1.0, levels + 1)
        return lam[:, None] * self.a[None, :] + (1.0 - lam)[:, None] * self.b[None, :]


@dataclass(frozen=True)
class LinearBall:
    """Linear predictors with rows in the 2-norm ball of radius B."""

    d: int
    k: int
    B: float
    delta: float | None = None

    def random_member(self, rng: np.random.Generator) -> Linear:
        """Uniform draw: each row uniform in the d-ball of radius B."""
        W = np.empty((self.k, self.d))
        for r in range(self.k):
            direction = rng.standard_normal(self.d)
            direction /= max(np.linalg.norm(direction), 1e-300)
            radius = self.B * rng.random() ** (1.0 / self.d)
            W[r] = radius * direction
        return Linear(W, self.B, self.delta)

    def project(self, W: np.ndarray) -> np.ndarray:
        """Project rows onto the ball (scale rows whose norm exceeds B)."""
        return clip_rows(np.array(W, dtype=float, ndmin=2), self.B)
