"""Offset complexity estimation and empirical entropy.

The Monte Carlo estimator draws sign vectors, maximizes the offset
objective exactly over a discretized mixture class, and reports the
per-draw suprema. Entropy profiles feed the closed-form risk bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossModel, eval_loss, loss_increment_modulus, uniform_convexity_alpha
from .predictors import FiniteClass, Predictor, Sample, prediction_vector

__all__ = [
    "OffsetEstimate",
    "EntropyProfile",
    "fprime_matrix",
    "offset_sup_one_draw",
    "offset_complexity_mc",
    "greedy_cover_indices",
    "entropy_eval",
    "finite_empirical_profile",
    "parametric_profile",
    "power_law_profile",
    "constant_profile",
]

DEFAULT_LAMBDA_LEVELS = 20
# fprime_matrix and offset_complexity_mc refuse, before they evaluate a
# single member, a mixture class whose arrays of its size hold more entries
# than this (1 GiB of float64) in all, or more weights than _MAX_LAMBDA_LEVELS,
# which bounds the loop that writes the mixes one weight at a time.
_FPRIME_MAX_ENTRIES = 1 << 27
_MAX_LAMBDA_LEVELS = 1 << 16
# offset_complexity_mc draws and scores at most this many entries of signs,
# and of exp_concave scores t = psi S[d], at a time (one draw at least), so
# its memory does not grow with the draw count.
_SIGN_BLOCK_ENTRIES = 1 << 17
# offset_sup_one_draw evaluates losses, increments and penalties over this
# many mixture rows at a time. A multiple of 8, so that each block's
# matrix-vector products group the rows as OpenBLAS groups them in one
# product over the whole class, and every supremum keeps its bits.
_ROW_BLOCK = 128


@dataclass(frozen=True, eq=False)
class OffsetEstimate:
    """Monte Carlo estimate of an offset supremum.

    mean and q95 summarize per_draw_sup; coefficient records the constant
    multiplying the squared (or p-th power) offset term.
    """

    offset_kind: str
    draws: int
    per_draw_sup: np.ndarray
    mean: float
    q95: float
    coefficient: float


def _mixture_rows(m: int, n: int, lambda_levels: int, copies: int = 1) -> int:
    """Rows of the mixture class of m members at lambda_levels, checked against the ceilings.

    copies is the number of arrays of the class's size a caller holds at
    once: F, plus psi(F) for an exp_concave estimate.
    """
    if lambda_levels < 1:
        raise ValueError("lambda_levels must be >= 1")
    rows = m + m * (m - 1) // 2 * (lambda_levels - 1)
    if copies * rows * n > _FPRIME_MAX_ENTRIES:
        held = f"{rows} rows x n = {n}" + (" for F and again for psi(F)" if copies == 2 else "")
        raise ValueError(
            f"the mixture class has {rows} rows ({m} members at --levels {lambda_levels}); "
            f"{held} is {copies * rows * n} entries, above the ceiling of {_FPRIME_MAX_ENTRIES}"
        )
    if lambda_levels > _MAX_LAMBDA_LEVELS:
        raise ValueError(f"--levels {lambda_levels} is above the ceiling of {_MAX_LAMBDA_LEVELS}")
    return rows


def fprime_matrix(
    cls: FiniteClass, sample: Sample, lambda_levels: int = DEFAULT_LAMBDA_LEVELS
) -> np.ndarray:
    """Prediction matrix of the discretized mixture class: the members, then pair mixes.

    Pair rows lam * f_i + (1 - lam) * f_j run over i < j (row-major) and,
    within a pair, over the interior weights lam = 1/L, ..., (L-1)/L; the
    endpoints reproduce the members, so each member row appears exactly
    once and there are M + M(M-1)(L-1)/2 <= M^2 (L+1) rows, written in
    place one weight at a time. A class of more than _FPRIME_MAX_ENTRIES
    rows x n entries, or of more than _MAX_LAMBDA_LEVELS levels, is refused
    before any member is evaluated.
    """
    m, n = len(cls), sample.n
    out = np.empty((_mixture_rows(m, n, lambda_levels), n))
    base = out[:m]
    base[:] = cls.prediction_matrix(sample)
    mixes = out[m:].reshape(m * (m - 1) // 2, lambda_levels - 1, n)
    i, j = np.triu_indices(m, 1)
    f_i, f_j = base[i], base[j]
    for k, lam in enumerate(np.arange(1, lambda_levels) / lambda_levels):
        np.add(lam * f_i, (1.0 - lam) * f_j, out=mixes[:, k])
    return out


def _check_signs(signs, n):
    signs = np.asarray(signs, dtype=float)
    if signs.ndim != 2 or signs.shape[1] != n or signs.size == 0 or not np.all((signs == 1.0) | (signs == -1.0)):
        raise ValueError("signs must be a (draws, n) matrix of +/-1 rows, n the sample size")
    return signs


def _exp_concave_coefficient(model: LossModel) -> float:
    return loss_increment_modulus(model).coef / 9.0


def _exp_concave_sups(model: LossModel, psi_f: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Per-row pair suprema of (4/n)(t_i - t_j) - (coef/n)|psi_i - psi_j|^2, t = psi S[d].

    Pair (i, j) is worth v_ij = fl(fl(t_i - t_j) * 4/n) - pen_ij, pen_ij =
    coef * max(q_i + q_j - 2 G_ij, 0) with q_i = |psi_i|^2 and G_ij =
    psi_i . psi_j; the diagonal pair is exactly 0.

    Per draw, with hi = argmax t and lo = argmin t, theta = max(0, v(hi, lo))
    is computed with G_hi,lo shrunk by 4 n eps: any summation order of n
    nonnegative products (psi >= 0) is within a factor 1 +- n eps / 2 (to
    first order) of the exact sum, and pen is nonincreasing in G, so theta
    is at most the supremum. Only rows with fl(fl(t_i - t_lo) * 4/n) > theta
    and columns with fl(fl(t_hi - t_j) * 4/n) > theta are evaluated, their
    G entries taken from one product of the draw's kept rows and columns
    (an entry's bits depend on the shape of that product; theta holds for
    any order). This is exact: pen >= 0 and rounding is monotone, so a
    skipped pair has v_ij <= theta, and the supremum is theta or the
    largest evaluated v_ij.
    """
    n = psi_f.shape[1]
    coef = _exp_concave_coefficient(model) / n

    def value(dt, qq, g):
        # v from t_i - t_j, q_i + q_j and G_ij, one formula for seeds and pairs
        return dt * (4.0 / n) - coef * np.maximum(qq - 2.0 * g, 0.0)

    q = np.einsum("ij,ij->i", psi_f, psi_f)
    T = np.empty((len(S), len(psi_f)))
    for d, s in enumerate(S):
        np.matmul(psi_f, s, out=T[d])
    hi, lo = T.argmax(axis=1), T.argmin(axis=1)
    draws = np.arange(len(T))
    g_low = np.einsum("ij,ij->i", psi_f[hi], psi_f[lo]) * (1.0 - 4.0 * n * np.finfo(float).eps)
    best = np.maximum(value(T[draws, hi] - T[draws, lo], q[hi] + q[lo], g_low), 0.0)
    for d, t in enumerate(T):
        rows = np.flatnonzero((t - t[lo[d]]) * (4.0 / n) > best[d])
        if rows.size:
            cols = np.flatnonzero((t[hi[d]] - t) * (4.0 / n) > best[d])
            val = value(t[rows, None] - t[cols], q[rows, None] + q[cols], psi_f[rows] @ psi_f[cols].T)
            val[rows[:, None] == cols] = 0.0
            best[d] = max(best[d], val.max())
    return best


def offset_sup_one_draw(
    model: LossModel,
    fprime_preds: np.ndarray,
    reference_preds: np.ndarray | None,
    sample: Sample,
    signs,
    offset_kind: str,
) -> np.ndarray:
    """Exact enumeration supremum for each row of a (draws, n) sign matrix.

    Returns the draws suprema; each depends on its own row of signs only.
    The losses and the mu_d and uniform_convex penalties do not
    depend on the signs and are computed once per call, in blocks of
    _ROW_BLOCK rows: besides F, a call holds psi(F) for exp_concave and
    otherwise only block-sized temporaries and one maximum per block and draw.

    mu_d and uniform_convex maximize over members against the fixed
    reference; exp_concave maximizes over ordered member pairs (the
    diagonal pair contributes 0, so the supremum is nonnegative).
    """
    F = np.atleast_2d(np.asarray(fprime_preds, dtype=float))
    if F.shape[0] == 0:
        raise ValueError("empty class")
    n = sample.n
    S = _check_signs(signs, n)
    blocks = [slice(a, a + _ROW_BLOCK) for a in range(0, F.shape[0], _ROW_BLOCK)]

    if offset_kind == "exp_concave":
        psi_f = np.empty_like(F)
        for b in blocks:
            psi_f[b] = eval_loss(model, F[b], sample.y)
        return _exp_concave_sups(model, psi_f, S)
    if reference_preds is None:
        raise ValueError(f"{offset_kind} offset requires a reference predictor")
    r = np.asarray(reference_preds, dtype=float)
    psi_r = eval_loss(model, r, sample.y)
    if offset_kind == "mu_d":
        scale = 4.0 / n
    elif offset_kind == "uniform_convex":
        alpha = uniform_convexity_alpha(model)
        scale = 4.0 * model.lip / n
    else:
        raise ValueError(f"unknown offset kind {offset_kind!r}")
    # block_max[k, d]: the supremum of draw d over row block k
    block_max = np.empty((len(blocks), len(S)))
    for k, b in enumerate(blocks):
        f = F[b]
        if offset_kind == "mu_d":
            inc = eval_loss(model, f, sample.y) - psi_r[None, :]
            pen = model.modulus.mu(model.distance(f, r[None, :], sample.y) / 3.0).mean(axis=1)
        else:
            model.check_pred(f)
            inc = f - r[None, :]
            pen = (alpha * np.abs(inc) ** model.p / 3.0**model.p).mean(axis=1)
        for d, s in enumerate(S):
            block_max[k, d] = (scale * (inc @ s) - pen).max()
    return block_max.max(axis=0)


def _draw_signs(seed: int, draw: int, n: int) -> np.ndarray:
    rng = np.random.default_rng((int(seed), 9001, int(draw)))
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0


def offset_complexity_mc(
    model: LossModel,
    cls: FiniteClass,
    reference: Predictor | None,
    sample: Sample,
    offset_kind: str,
    draws: int,
    seed: int = 0,
    lambda_levels: int = DEFAULT_LAMBDA_LEVELS,
) -> OffsetEstimate:
    """Seeded Rademacher draws of the offset supremum over the mixture class.

    Sign vectors depend only on (seed, draw index), so nested classes
    evaluated under the same seed see identical draws. They are drawn and
    scored in blocks of _SIGN_BLOCK_ENTRIES // max(n, rows of F) draws (one
    at least), which bounds both the signs and the exp_concave scores t of a
    block; each draw's supremum depends only on its own signs, so the
    blocking moves no bit. The class is refused before any member is
    evaluated if F, and psi(F) beside it for exp_concave, exceed the
    entry ceiling (see fprime_matrix).
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    _mixture_rows(len(cls), sample.n, lambda_levels, 2 if offset_kind == "exp_concave" else 1)
    F = fprime_matrix(cls, sample, lambda_levels)
    ref = None if reference is None else prediction_vector(reference, sample)
    block = max(1, _SIGN_BLOCK_ENTRIES // max(sample.n, F.shape[0]))
    blocks = (range(start, min(start + block, draws)) for start in range(0, draws, block))
    sups = np.concatenate([
        offset_sup_one_draw(model, F, ref, sample, np.array([_draw_signs(seed, d, sample.n) for d in b]), offset_kind)
        for b in blocks
    ])
    if offset_kind == "exp_concave":
        coefficient = _exp_concave_coefficient(model)
    elif offset_kind == "uniform_convex":
        coefficient = uniform_convexity_alpha(model) / 3.0**model.p
    else:
        coefficient = model.modulus.coef
    return OffsetEstimate(
        offset_kind=offset_kind,
        draws=draws,
        per_draw_sup=sups,
        mean=float(np.mean(sups)),
        q95=float(np.quantile(sups, 0.95)),
        coefficient=coefficient,
    )


def _l2pn_dist(V: np.ndarray, v: np.ndarray) -> np.ndarray:
    diff = V - v[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff) / V.shape[1])


def greedy_cover_indices(
    vectors: np.ndarray, eps: float, return_radii: bool = False
) -> list[int] | tuple[list[int], np.ndarray]:
    """Farthest-point traversal cover in L2(P_n), seeded at row 0.

    Returns center indices such that every row lies within eps of a center.
    With return_radii, returns (centers, radii) where radii[k] is the
    covering radius of the first k + 1 centers. The traversal order does not
    depend on eps, so for any eps' >= eps the cover at eps' is the prefix of
    1 + #(radii > eps') centers.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    centers = [0]
    dmin = _l2pn_dist(V, V[0])
    radii = [float(dmin.max())]
    while radii[-1] > eps:
        j = int(np.argmax(dmin))
        centers.append(j)
        dmin = np.minimum(dmin, _l2pn_dist(V, V[j]))
        radii.append(float(dmin.max()))
    if return_radii:
        return centers, np.array(radii)
    return centers


@dataclass(frozen=True, eq=False)
class EntropyProfile:
    """Log covering number H2(eps) in one of four parameterizations.

    A finite_empirical profile holds the covering radii of one full
    farthest-point traversal of its vectors; its cover count at eps is
    1 + #(radii[:-1] > eps). star_hull_correction adds ln(1/eps) for
    eps < 1, the cost of passing from a class to its mixture enlargement.
    """

    variant: str  # 'finite_empirical' | 'parametric' | 'power_law' | 'constant'
    radii: np.ndarray | None = None
    k: int | None = None
    d: int | None = None
    A: float | None = None
    B: float | None = None
    q: float | None = None
    value: float | None = None
    star_hull_correction: bool = False


def finite_empirical_profile(vectors: np.ndarray, star_hull_correction: bool = False) -> EntropyProfile:
    """H2 of a finite set of vectors (one per row) in L2(P_n)."""
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2 or V.size == 0 or not np.isfinite(V).all():
        raise ValueError("finite_empirical vectors must form a nonempty, finite 2-D array")
    radii = greedy_cover_indices(V, 0.0, return_radii=True)[1]
    return EntropyProfile("finite_empirical", radii=radii, star_hull_correction=star_hull_correction)


def _require_positive(variant: str, **fields) -> None:
    for name, value in fields.items():
        if not value > 0:
            raise ValueError(f"{variant} entropy profile: {name!r} must be positive, not {value!r}")


def parametric_profile(k: int, d: int, A: float, B: float, star_hull_correction: bool = False) -> EntropyProfile:
    _require_positive("parametric", A=A, B=B, **{"A * B": A * B})  # A * B may underflow to 0
    return EntropyProfile("parametric", k=k, d=d, A=A, B=B, star_hull_correction=star_hull_correction)


def power_law_profile(A: float, q: float, star_hull_correction: bool = False) -> EntropyProfile:
    _require_positive("power_law", A=A, q=q)
    return EntropyProfile("power_law", A=A, q=q, star_hull_correction=star_hull_correction)


def constant_profile(value: float, star_hull_correction: bool = False) -> EntropyProfile:
    if not value >= 0:
        raise ValueError(f"constant entropy profile: 'value' must be nonnegative, not {value!r}")
    return EntropyProfile("constant", value=value, star_hull_correction=star_hull_correction)


def entropy_eval(profile: EntropyProfile, eps: float | np.ndarray) -> float | np.ndarray:
    """Evaluate H2(eps) for a profile; nonincreasing in eps by construction.

    eps is a positive scalar (returns a float) or an array of radii (returns
    an array of the same shape).
    """
    e = np.asarray(eps, dtype=float)
    if not np.all(e > 0):
        raise ValueError("eps must be positive")
    if profile.variant == "finite_empirical":
        # radii is nonincreasing: the cover at eps is the first
        # 1 + #(radii[:-1] > eps) centers
        h = np.log(1 + np.searchsorted(-profile.radii[:-1], -e, side="left"))
    elif profile.variant == "parametric":
        h = np.maximum(profile.k * profile.d * np.log(profile.A * profile.B / e), 0.0)
    elif profile.variant == "power_law":
        with np.errstate(over="ignore"):  # an entropy beyond the float range is inf
            h = (profile.A / e) ** profile.q
    elif profile.variant == "constant":
        h = np.full(e.shape, float(profile.value))
    else:
        raise ValueError(f"unknown profile variant {profile.variant!r}")
    if profile.star_hull_correction:
        h = h + np.where(e < 1.0, np.log(1.0 / e), 0.0)
    return float(h) if e.ndim == 0 else h
