"""Closed-form excess-risk bound evaluators.

All unspecified leading constants are exposed as explicit inputs with
default 1; nothing is hidden inside the evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .complexity import EntropyProfile, entropy_eval
from .losses import bisect_root

__all__ = [
    "BoundInputs",
    "entropy_integral",
    "packing_bound",
    "chaining_bound",
    "glm_bound",
    "bigglm_rate",
]

_QUAD_REL_TOL = 5e-7
_QUAD_START = 257
_QUAD_MAX = 1 << 20


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Inputs shared by the bound evaluators; only glm_bound reads C (default 1)."""

    n: float
    rho: float
    m: float | None = None
    eta: float | None = None
    eps: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    C: float = 1.0
    entropy: EntropyProfile | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


def _range_constant(m: float, eta: float) -> float:
    return max(36.0 * m, 72.0 / eta)


def packing_bound(inputs: BoundInputs) -> float:
    """eps + (36 m v 72/eta) (H2(eps) + ln(1/rho)) / n."""
    if inputs.eps is None or inputs.eps <= 0:
        raise ValueError("packing bound requires eps > 0")
    if inputs.m is None or inputs.eta is None or inputs.entropy is None:
        raise ValueError("packing bound requires m, eta, and an entropy profile")
    h = entropy_eval(inputs.entropy, inputs.eps)
    return inputs.eps + _range_constant(inputs.m, inputs.eta) * (
        h + math.log(1.0 / inputs.rho)
    ) / inputs.n


_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0


def _trapezoid(f, grid: np.ndarray) -> float:
    vals = f(grid)
    return float(_np_trapezoid(vals, grid))


def _adaptive(f, grid_builder) -> float:
    """Trapezoid sums on doubling grids until two agree; a non-finite sum is returned at once."""
    pts = _QUAD_START
    prev = _trapezoid(f, grid_builder(pts))
    while pts < _QUAD_MAX and math.isfinite(prev):
        pts = 2 * pts - 1
        cur = _trapezoid(f, grid_builder(pts))
        if not math.isfinite(cur) or abs(cur - prev) <= _QUAD_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def _log_antiderivative(s: float, alpha: float, beta: float) -> float:
    """F(s) = s (sqrt u + (sqrt(pi alpha)/2) erfcx(sqrt(u/alpha))), u = alpha ln(1/s) + beta.

    For alpha > 0 and u >= 0, F' = sqrt(u) and F(0) = 0. erfcx(x) = e^{x^2} erfc(x), or from x = 26,
    where e^{x^2} nears overflow, six terms of its asymptotic series (the seventh is below 2e-17 relative).
    """
    if s == 0.0:
        return 0.0
    u = beta - alpha * math.log(s)
    x = math.sqrt(u / alpha)
    if x < 26.0:
        erfcx = math.exp(x * x) * math.erfc(x)
    else:
        h = 0.5 / (x * x)
        erfcx = (1 - h * (1 - 3 * h * (1 - 5 * h * (1 - 7 * h * (1 - 9 * h * (1 - 11 * h)))))) / (x * math.sqrt(math.pi))
    return s * (math.sqrt(u) + 0.5 * math.sqrt(math.pi * alpha) * erfcx)


def entropy_integral(profile: EntropyProfile, a: float, b: float) -> float:
    """int_a^b sqrt(H2(s)) ds, exact except for the star-hull-corrected power law.

    Between cuts at 1 and the covering radii or AB, every other profile has
    H2 = alpha ln(1/s) + beta, whose root has the antiderivative
    _log_antiderivative. The corrected power law takes an adaptive trapezoid
    (stopping at 5e-7 relative change between doublings) on a log grid, or
    for a = 0 after a power substitution that flattens the singularity.
    """
    if a < 0 or b < 0 or a > b:
        raise ValueError("integral limits must satisfy 0 <= a <= b")
    if a == b:
        return 0.0

    if profile.variant != "power_law":
        cuts = [a, b, 1.0] if profile.star_hull_correction else [a, b]
        if profile.variant == "finite_empirical":
            cuts.extend(profile.radii)
        elif profile.variant == "parametric":
            cuts.append(profile.A * profile.B)
        cuts = np.unique(np.clip(cuts, a, b))
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        alpha = (mid < 1.0) * float(profile.star_hull_correction)
        if profile.variant == "parametric":
            # beta = kd ln(AB) makes u = 0 exactly at s = AB
            kd = (mid < profile.A * profile.B) * float(profile.k * profile.d)
            alpha, beta = alpha + kd, kd * math.log(profile.A * profile.B)
        else:  # constant or finite_empirical: a step function
            beta = entropy_eval(replace(profile, star_hull_correction=False), mid)
        return math.fsum(
            math.sqrt(be) * (r - l) if al == 0.0 else _log_antiderivative(r, al, be) - _log_antiderivative(l, al, be)
            for l, r, al, be in zip(cuts[:-1].tolist(), cuts[1:].tolist(), alpha.tolist(), beta.tolist())
        )
    q = profile.q
    if not profile.star_hull_correction:
        # sqrt(H(s)) = A^{q/2} s^{-q/2} integrates in closed form.
        e = 1.0 - q / 2.0
        if e <= 0 and a == 0.0:
            return math.inf
        try:
            Aq = profile.A ** (q / 2.0)
            return Aq * math.log(b / a) if e == 0 else Aq * (b**e - a**e) / e
        except OverflowError:  # a power beyond the float range: so is the integral
            return math.inf

    def sqrt_h(s: np.ndarray) -> np.ndarray:
        return np.sqrt(entropy_eval(profile, s))

    if a == 0.0:
        # star-hull-corrected power law: substitute s = b t^r, r = 2/(2-q),
        # which flattens the s^{-q/2} singularity to a bounded integrand
        if q >= 2.0:
            return math.inf
        r = 2.0 / (2.0 - q)
        limit0 = profile.A ** (q / 2.0) * b ** (1.0 - q / 2.0) * r

        def f(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=float)
            out = np.full(t.shape, limit0)
            big = t > 1e-12
            s = b * t[big] ** r
            out[big] = sqrt_h(s) * b * r * t[big] ** (r - 1.0)
            return out

        return _adaptive(f, lambda p: np.linspace(0.0, 1.0, p))

    return _adaptive(sqrt_h, lambda p: np.exp(np.linspace(math.log(a), math.log(b), p)))


def chaining_bound(inputs: BoundInputs) -> float:
    """4 alpha + (12/sqrt n) int_alpha^gamma sqrt(H2) + (36m v 72/eta) H2(gamma)/n + rho/sqrt(gamma^2 + n^2).

    With alpha unset, returns the infimum over alpha in [0, gamma]. The
    alpha-derivative 4 - 12 sqrt(H2(alpha)/n) never decreases, so the
    infimum sits at the root alpha* = inf{alpha in [0, gamma] : H2(alpha) <= n/9},
    found by bisection on H2 (alpha* = gamma when H2(gamma) > n/9).
    """
    if inputs.gamma is None or inputs.gamma <= 0:
        raise ValueError("chaining bound requires gamma > 0")
    if inputs.m is None or inputs.eta is None or inputs.entropy is None:
        raise ValueError("chaining bound requires m, eta, and an entropy profile")
    gamma = inputs.gamma
    alpha = inputs.alpha
    if alpha is None:

        def above(a: float) -> bool:
            return entropy_eval(inputs.entropy, a) > inputs.n / 9.0

        alpha = gamma if above(gamma) else bisect_root(above, 0.0, gamma)
    elif alpha > gamma or alpha < 0:
        raise ValueError("alpha must lie in [0, gamma]")
    integral = entropy_integral(inputs.entropy, alpha, gamma)
    if not math.isfinite(integral):
        return math.inf
    h_gamma = entropy_eval(inputs.entropy, gamma)
    return (
        4.0 * alpha
        + 12.0 / math.sqrt(inputs.n) * integral
        + _range_constant(inputs.m, inputs.eta) * h_gamma / inputs.n
        + inputs.rho / math.sqrt(gamma**2 + inputs.n**2)
    )


def glm_bound(inputs: BoundInputs, k: int, d: int, A: float, B: float) -> float:
    """C k d ln(A B n)^2 ln(1/rho) / n."""
    if A * B * inputs.n <= 1.0:
        raise ValueError("glm bound requires A * B * n > 1")
    return (
        inputs.C
        * k
        * d
        * math.log(A * B * inputs.n) ** 2
        * math.log(1.0 / inputs.rho)
        / inputs.n
    )


def bigglm_rate(q: float, regime: str, A: float, n: float) -> float:
    """Order-of-magnitude rate (constant 1) for polynomial-entropy classes.

    regime 'lipschitz_glm': A^q n^{-2/(2+q)} ln n (q < 2), A^q n^{-1/2} ln n
    (q = 2), A^q n^{-1/q} (q > 2). regime 'arbitrary_log': n^{-1/(1+3q/2)},
    n^{-1/4} ln n, n^{-1/(2q)}.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if n <= 1:
        raise ValueError("n must exceed 1")
    if regime == "lipschitz_glm":
        if q < 2:
            return A**q * n ** (-2.0 / (2.0 + q)) * math.log(n)
        if q == 2:
            return A**q * n**-0.5 * math.log(n)
        return A**q * n ** (-1.0 / q)
    if regime == "arbitrary_log":
        if q < 2:
            return n ** (-1.0 / (1.0 + 1.5 * q))
        if q == 2:
            return n**-0.25 * math.log(n)
        return n ** (-1.0 / (2.0 * q))
    raise ValueError(f"unknown regime {regime!r}")
