"""Empirical risk minimization and two-stage star aggregation.

The star fit minimizes empirical risk over the class, then over the union
of segments from that minimizer to every class member. Segments are
searched by golden section (the risk is convex along a segment whenever
the loss is convex in its prediction argument). Before the search, a
screen drops every segment whose risk provably stays above the least
risk already attained on another: the tangents of a convex risk lie
below it, so the upper envelope of a few tangents bounds the segment's
minimum from below. A segment whose risk has slope <= 0 at lambda = 1
has its minimum there, at the ERM end, so it can only tie with the ERM:
it is not searched but taken at lambda = 1 and the ERM's risk. The
segments left are searched exactly as they would be among all, so each
returns the same values. star_fit also takes equal-length lists of classes and
samples and searches every problem's segments in one lockstep golden
section, and erm_segment takes lists of segments and samples and bisects
them in lockstep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .losses import (
    LossModel, bisect_root, eval_loss, glm_loss, grad_loss, link_softmax, row_max, row_sum, second_deriv_loss,
)
from .predictors import (
    FiniteClass,
    Linear,
    LinearBall,
    Predictor,
    Sample,
    SegmentClass,
    StarMix,
    prediction_vector,
)

__all__ = [
    "StarFit",
    "empirical_risk",
    "erm_finite",
    "erm_linear",
    "line_search_segment",
    "star_fit",
    "erm_segment",
    "regularized_star_glm",
]

GOLDEN_TOL = 1e-10
# Step halvings tried per projected-descent step before the descent stops.
_HALVINGS = 40
# Descent steps of the GLM ERM and of each partner-polish round, and polish rounds per GLM fit.
_ERM_STEPS = 500
_POLISH_STEPS = 25
_REFINE_ROUNDS = 3
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Padded blocks of a batched star fit; problems are sorted by size into them.
_BLOCKS = 4
# Relative rounding allowance of the segment screen's bounds.
_SCREEN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StarFit:
    """Result of the two-stage procedure.

    combined evaluates pointwise to lam * erm + (1 - lam) * partner in
    prediction (likelihood) space; star_risk <= erm_risk always, because
    the search segment contains lam = 1.
    """

    erm: Predictor
    partner: Predictor
    lam: float
    combined: Predictor
    erm_risk: float
    star_risk: float
    erm_index: int
    partner_index: int
    erm_preds: np.ndarray
    star_preds: np.ndarray


def empirical_risk(model: LossModel, predictor_or_preds, sample: Sample) -> float:
    """Mean loss over the sample; rejects out-of-domain predictions by index."""
    if isinstance(predictor_or_preds, Predictor):
        preds = prediction_vector(predictor_or_preds, sample)
    else:
        preds = np.asarray(predictor_or_preds, dtype=float)
    lo, hi = model.domain
    bad = np.nonzero((preds < lo - 1e-12) | (preds > hi + 1e-12))[0]
    if bad.size:
        raise ValueError(
            f"prediction at example {int(bad[0])} ({preds[bad[0]]!r}) "
            f"outside the {model.kind} loss domain [{lo}, {hi}]"
        )
    return float(np.mean(eval_loss(model, preds, sample.y)))


def _risk_rows(model: LossModel, pred_matrix: np.ndarray, sample: Sample) -> np.ndarray:
    return eval_loss(model, pred_matrix, sample.y).mean(axis=1)


def erm_finite(model: LossModel, cls: FiniteClass, sample: Sample):
    """Index and risk of the minimal-empirical-risk member; ties -> lowest index."""
    if len(cls) == 0:
        raise ValueError("empty class")
    preds = cls.prediction_matrix(sample)
    risks = _risk_rows(model, preds, sample)
    idx = int(np.argmin(risks))
    return idx, float(risks[idx])


def _golden_batch(risk_fn, n_segments: int):
    """Golden-section search over lam in [0, 1], run in lockstep per segment.

    risk_fn(lams) evaluates the per-segment risks at a vector of lams; one
    such call is made per iteration. The result is compared against both
    endpoints, so risk <= min(risk(0), risk(1)) up to roundoff.
    """
    lo = np.zeros(n_segments)
    hi = np.ones(n_segments)
    w = hi - lo
    x1 = hi - _INVPHI * w
    x2 = lo + _INVPHI * w
    f1 = risk_fn(x1)
    f2 = risk_fn(x2)
    while w.max() > GOLDEN_TOL:
        left = f1 <= f2
        np.copyto(hi, x2, where=left)
        np.copyto(lo, x1, where=~left)
        w = hi - lo
        x1 = hi - _INVPHI * w
        x2 = lo + _INVPHI * w
        vals = risk_fn(np.where(left, x1, x2))
        f1, f2 = np.where(left, vals, f2), np.where(left, f1, vals)
    lam = 0.5 * (lo + hi)
    candidates = np.stack([lam, np.zeros(n_segments), np.ones(n_segments)])
    risks = np.stack([risk_fn(candidates[i]) for i in range(3)])
    best = np.argmin(risks, axis=0)
    take = np.arange(n_segments)
    return candidates[best, take], risks[best, take]


def _segment_risks(model: LossModel, a: np.ndarray, preds: np.ndarray, target, n, scratch=None):
    """risk_fn for _golden_batch: lams -> mean loss of lams[i] * a[i] + (1 - lams[i]) * preds[i].

    a and target are one (n,) row shared by every segment or one row per
    segment, and n is the example count, shared or per segment. The
    operations of eval_loss(model, mix, target).mean(axis=1) on two
    buffers (the first 2 * preds.size entries of scratch, if given),
    without its domain checks and likelihood clip: callers check a, preds
    and target once, and a mix of two in-domain points stays in their hull.
    """
    if scratch is None:
        mix, rest = np.empty(preds.shape), np.empty(preds.shape)
    else:
        mix = scratch[: preds.size].reshape(preds.shape)
        rest = scratch[preds.size : 2 * preds.size].reshape(preds.shape)

    def risk_fn(lams):
        np.multiply(lams[:, None], a, out=mix)
        np.multiply(1.0 - lams[:, None], preds, out=rest)
        np.add(mix, rest, out=mix)
        if model.is_likelihood:
            np.log(mix, out=mix)
            return -mix.sum(axis=1) / n
        np.subtract(mix, target, out=mix)
        np.abs(mix, out=mix)
        np.power(mix, model.p, out=mix)
        return mix.sum(axis=1) / n

    return risk_fn


def line_search_segment(model: LossModel, preds_a, preds_b, targets=None):
    """Minimize lam -> mean psi(lam a + (1 - lam) b) by golden section.

    Returns (lam, risk); for identical endpoints returns lam = 1.
    """
    a = np.asarray(preds_a, dtype=float)
    b = np.asarray(preds_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("segment endpoints must share a shape")
    if model.is_likelihood:
        t = None
    elif targets is None:
        raise ValueError(f"{model.kind} loss requires targets")
    else:
        t = np.asarray(targets, dtype=float)
    model.check_pred(a)
    model.check_pred(b)
    model.check_target(t)
    if np.array_equal(a, b):
        return 1.0, float(np.mean(eval_loss(model, a, t)))
    # one segment over every (broadcast) example, in the order np.mean takes them
    shape = a.shape if t is None else np.broadcast_shapes(a.shape, t.shape)
    a, b, t = (None if v is None else np.broadcast_to(v, shape).ravel() for v in (a, b, t))
    lam, risk = _golden_batch(_segment_risks(model, a, b[None, :], t, a.size), 1)
    return float(lam[0]), float(risk[0])


def _segment_blocks(model: LossModel, preds: list, targets: list, erm_rows: list):
    """Yield (rows, a, stack, target, n) blocks holding every problem's segments; rows in problem order.

    A single problem is one block, searched in place: its ERM row and target
    are one shared (n,) row and n is a scalar. Several problems are sorted
    by example count and split into _BLOCKS blocks, so little of each is
    padding. A block stacks its problems' prediction rows into one (S, L)
    matrix, beside per-row copies of each problem's ERM row and target and
    its example count. Padding entries have zero loss: prediction = target
    = 0 for a p-loss, likelihood 1 for the log loss (lam + fl(1 - lam)
    rounds to 1 for every lam in [0, 1]).
    """
    if len(preds) == 1:
        yield np.arange(preds[0].shape[0]), erm_rows[0], preds[0], targets[0], preds[0].shape[1]
        return
    pad = 1.0 if model.is_likelihood else 0.0
    starts = np.cumsum([0] + [p.shape[0] for p in preds])
    order = np.argsort([p.shape[1] for p in preds], kind="stable")
    for chunk in np.array_split(order, min(_BLOCKS, len(preds))):
        rows = np.concatenate([np.arange(starts[j], starts[j + 1]) for j in chunk])
        shape = (rows.size, max(preds[j].shape[1] for j in chunk))
        a, stack, n = np.full(shape, pad), np.full(shape, pad), np.empty(rows.size)
        target = None if model.is_likelihood else np.zeros(shape)
        at = 0
        for j in chunk:
            m, k = preds[j].shape
            stack[at : at + m, :k] = preds[j]
            a[at : at + m, :k] = erm_rows[j]
            if target is not None:
                target[at : at + m, :k] = targets[j]
            n[at : at + m] = k
            at += m
        yield rows, a, stack, target, n


def _block_rows(block, k):
    """Rows k of a (rows, a, stack, target, n) block; one problem's shared ERM row, target and count stay whole."""
    rows, a, stack, target, n = block
    if np.ndim(n) == 0:
        return rows[k], a, stack[k], target, n
    return rows[k], a[k], stack[k], None if target is None else target[k], n[k]


def _tangent(model: LossModel, x, diff, target, n):
    """Slope mean psi'(x) (a - b) of each segment's risk at the mix x, and the mean size of its terms."""
    terms = grad_loss(model, x, target) * diff
    slope = terms.sum(axis=1) / n
    return slope, np.abs(terms, out=terms).sum(axis=1) / n


def _segment_bounds(model: LossModel, block, erm_risk):
    """Per segment of a block: a lower bound on its risk over [0, 1], a risk it attains, and a rounding allowance.

    erm_risk holds the segments' risks at lam = 1. The risk f along a
    segment is convex. Where f'(1) <= 0, lam = 1 (the ERM end) is its
    minimum, so the segment can only tie with the ERM: its lower bound is
    +inf. Elsewhere the tangents of f lie below it: at lam = 1 and at two
    probes, the Newton step from lam = 1 and twice that step (clipped to
    [0, 1]), which often fall on either side of the minimum. The lower
    bound is the minimum over [0, 1] of the tangents' upper envelope, which
    lies at 0, at 1 or where two tangents cross; the least probe risk is
    attained. The allowance covers the rounding of all these sums, which
    grows with the size of their terms.
    """
    _, a, preds, target, n = block
    diff = a - preds
    s1, size = _tangent(model, a, diff, target, n)
    up = s1 > 0.0
    lower, attained = np.full(s1.shape, np.inf), np.full(s1.shape, np.inf)
    # The probes are taken on the rows where f'(1) > 0 only.
    _, a, preds, target, n = _block_rows(block, up)
    diff = diff[up]
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = (second_deriv_loss(model, a, target) * diff * diff).sum(axis=1) / n
        # fmax and fmin take a NaN step to 0; any probe in [0, 1] gives a valid tangent.
        step = np.fmin(np.fmax(s1[up] / curv, 0.0), 1.0)
    # tangent lines value + slope * (lam - at); the first is at lam = 1
    value = np.tile(erm_risk[up], (3, 1))
    slope = np.tile(s1[up], (3, 1))
    at = np.ones(value.shape)
    for j, lam in ((1, 1.0 - step), (2, np.fmax(1.0 - 2.0 * step, 0.0))):
        mix = lam[:, None] * a
        mix += (1.0 - lam[:, None]) * preds
        at[j] = lam
        value[j] = eval_loss(model, mix, target).sum(axis=1) / n
        slope[j], size_probe = _tangent(model, mix, diff, target, n)
        size[up] += size_probe
    offset = value - slope * at
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = [(offset[j] - offset[i]) / (slope[i] - slope[j]) for i, j in itertools.combinations(range(3), 2)]
    lams = np.stack([np.zeros(at.shape[1]), at[0], *cross])
    # A crossing outside [0, 1] (or of parallel tangents) is replaced by lam = 1, already listed.
    lams = np.where((lams >= 0.0) & (lams <= 1.0), lams, 1.0)
    envelope = (value[:, None] + slope[:, None] * (lams[None] - at[:, None])).max(axis=0)
    lower[up], attained[up] = envelope.min(axis=0), value[1:].min(axis=0)
    return lower, attained, _SCREEN_TOL * (1.0 + np.abs(erm_risk) + size)


def _screen_segments(model: LossModel, blocks, risks: list, erm_idx: list):
    """Drop the segments whose risk provably stays above their problem's star minimum, or ties with its ERM.

    A segment is searched if its lower bound (_segment_bounds) is within
    its allowance of the least risk attained on its problem's segments (a
    probe or the ERM itself); its problem's ERM row and every row of a
    problem with fewer than three members (whose one other segment can
    always win) are searched too. A segment whose slope at lam = 1 is
    <= 0 (lower bound +inf) is minimized at lam = 1, the ERM end: it is
    not searched but marked tied, to be pinned to lam = 1 at the ERM risk.
    A surviving row keeps its place in its block, so its sums keep their
    bits. Its golden-section steps depend on no other row, and every
    bracket first narrows below GOLDEN_TOL at the same step whatever rows
    remain, so the search returns the same values for it as among all
    rows. Returns the blocks cut to the surviving rows, renumbered
    0..K-1 in problem order, the K surviving rows and the tied rows.
    """
    sizes = np.array([r.size for r in risks])
    starts = np.concatenate(([0], np.cumsum(sizes)))
    keep = np.repeat(sizes < 3, sizes)
    keep[starts[:-1] + erm_idx] = True
    tied = np.zeros(keep.size, dtype=bool)
    if keep.all():
        return list(blocks), np.arange(keep.size), np.flatnonzero(tied)
    owner = np.repeat(np.arange(sizes.size), sizes)
    erm_risk = np.array([r[i] for r, i in zip(risks, erm_idx)])
    cut = []
    # Each block is cut as soon as it is built, so the full blocks are never all held at once.
    for block in blocks:
        rows = block[0]
        k = keep[rows]
        if not k.all():
            lower, attained, allowance = _segment_bounds(model, block, erm_risk[owner[rows]])
            best = erm_risk.copy()  # a problem's segments all lie in one block
            np.minimum.at(best, owner[rows], attained)
            tied[rows] = ~k & (lower == np.inf)
            k |= lower <= best[owner[rows]] + allowance
            keep[rows] = k
        cut.append(block if k.all() else _block_rows(block, k))
    position = np.cumsum(keep) - 1
    return [(position[rows], *rest) for rows, *rest in cut], np.flatnonzero(keep), np.flatnonzero(tied)


def _star_over_matrix(model: LossModel, classes: list, samples: list, preds: list) -> list:
    """Two-stage minimization over the rows of each problem's prediction matrix.

    The segments that _screen_segments cannot rule out run in one lockstep
    golden section over the blocks of _segment_blocks. The tied ones take
    lam = 1 at their ERM's risk, the others lam = 1 and risk +inf; among
    equal risks the lowest row is the partner.
    """
    targets = [None if model.is_likelihood else np.asarray(s.y, dtype=float) for s in samples]
    # _risk_rows checks preds and targets, so the segment search need not.
    risks = [_risk_rows(model, p, s) for p, s in zip(preds, samples)]
    erm_idx = [int(np.argmin(r)) for r in risks]
    erm_rows = [p[i] for p, i in zip(preds, erm_idx)]
    blocks, kept, tied = _screen_segments(model, _segment_blocks(model, preds, targets, erm_rows), risks, erm_idx)
    # The blocks are evaluated one after another, so they share one scratch buffer.
    scratch = np.empty(2 * max(block[2].size for block in blocks))
    blocks = [(rows, _segment_risks(model, *args, scratch)) for rows, *args in blocks]

    def risk_fn(lams):
        out = np.empty(lams.shape)
        for rows, fn in blocks:
            out[rows] = fn(lams[rows])
        return out

    lams = np.ones(sum(r.size for r in risks))
    seg_risks = np.full(lams.size, np.inf)
    seg_risks[tied] = np.repeat([r[i] for r, i in zip(risks, erm_idx)], [r.size for r in risks])[tied]
    # A single block holds every row, in order.
    lams[kept], seg_risks[kept] = _golden_batch(risk_fn if len(blocks) > 1 else blocks[0][1], kept.size)
    fits = []
    start = 0
    for c, p, r, i, a in zip(classes, preds, risks, erm_idx, erm_rows):
        block = slice(start, start + p.shape[0])
        start = block.stop
        erm_risk = float(r[i])
        lam_rows, risk_rows = lams[block], seg_risks[block]
        # The self-segment is degenerate: every mix reproduces the stage-1
        # minimizer (up to float mixing noise), so pin it exactly.
        lam_rows[i] = 1.0
        risk_rows[i] = erm_risk
        partner_idx = int(np.argmin(risk_rows))
        star_risk = float(risk_rows[partner_idx])
        lam = float(lam_rows[partner_idx])
        if star_risk > erm_risk:
            partner_idx, lam, star_risk = i, 1.0, erm_risk
        members = c.effective_members()
        fits.append(
            StarFit(
                erm=members[i],
                partner=members[partner_idx],
                lam=lam,
                combined=StarMix(lam, members[i], members[partner_idx]),
                erm_risk=erm_risk,
                star_risk=star_risk,
                erm_index=i,
                partner_index=partner_idx,
                # a copy, so a fit does not hold its class's whole prediction matrix
                erm_preds=a.copy(),
                star_preds=lam * a + (1.0 - lam) * p[partner_idx],
            )
        )
    return fits


def star_fit(model: LossModel, cls, sample, preds=None):
    """Stage 1: ERM over the class; stage 2: best segment from the ERM.

    cls and sample may also be equal-length lists of classes and samples;
    then every problem is fitted in one lockstep segment search and the
    list of their StarFits is returned. preds, if given, holds the
    classes' prediction matrices on the samples (one matrix, or a list),
    for a caller that has already built them.
    """
    single = isinstance(cls, FiniteClass)
    classes, samples = ([cls], [sample]) if single else (list(cls), list(sample))
    if len(classes) != len(samples):
        raise ValueError(f"star_fit got {len(classes)} classes but {len(samples)} samples")
    if preds is None:
        preds = [c.prediction_matrix(s) for c, s in zip(classes, samples)]
    else:
        preds = [np.asarray(p, dtype=float) for p in ([preds] if single else preds)]
        if [p.shape for p in preds] != [(len(c), s.n) for c, s in zip(classes, samples)]:
            raise ValueError("preds must hold one (members, n) prediction matrix per class and sample")
    if not classes:
        return []
    fits = _star_over_matrix(model, classes, samples, preds)
    return fits[0] if single else fits


def _stationary_lambda(model: LossModel, a, b, target, n):
    """Roots of the (increasing) segment risk derivatives, to float resolution.

    Golden section alone localizes the minimizer only to ~sqrt(eps) because
    risk comparisons near the optimum are float noise; margin checks at
    1e-8 need genuine stationarity, and the derivative is exact.

    a, b and target are (S, L) stacks of S segments with per-row example
    counts n, padded with zero-gradient entries: a = b = target = 0 for a
    p-loss, a = b = 1 for the log loss. All rows are bisected in lockstep
    and an (S,) array is returned; a row's derivative sums run over its
    padding too.
    """
    n = np.asarray(n)

    def deriv(lam, a, b, target, n):
        mix = lam[:, None] * a + (1.0 - lam[:, None]) * b
        return (grad_loss(model, mix, target) * (a - b)).sum(axis=1) / n

    seg = (a, b, target, n)
    d0, d1 = deriv(np.zeros(n.size), *seg), deriv(np.ones(n.size), *seg)
    equal = (a == b).all(axis=1)
    lam = np.where(equal | (d0 < 0.0), 1.0, 0.0)
    inner = ~equal & (d0 < 0.0) & (d1 > 0.0)
    if inner.any():
        seg = [None if v is None else v[inner] for v in seg]
        ends = np.zeros(seg[3].size), np.ones(seg[3].size)
        lam[inner] = bisect_root(lambda mid: deriv(mid, *seg) < 0.0, *ends)
    return lam


def _pad_rows(rows: list, pad: float) -> np.ndarray:
    """Stack 1-D rows into one matrix, each padded on the right with pad."""
    out = np.full((len(rows), max(r.size for r in rows)), pad)
    for i, r in enumerate(rows):
        out[i, : r.size] = r
    return out


def erm_segment(model: LossModel, seg, sample):
    """Continuous ERM over a segment class.

    The minimizing weight comes from derivative bisection (stationary to
    float resolution); returns (preds, risk, lam). seg and sample may also
    be equal-length lists of segments and samples; then every segment is
    bisected in one lockstep bisection over rows padded to the longest
    sample, and the list of their (preds, risk, lam) is returned. One
    segment is never padded, alone or in a list of one.
    """
    single = isinstance(seg, SegmentClass)
    segs, samples = ([seg], [sample]) if single else (list(seg), list(sample))
    if len(segs) != len(samples):
        raise ValueError(f"erm_segment got {len(segs)} segments but {len(samples)} samples")
    if not segs:
        return []
    if any(g.a.shape != (s.n,) for g, s in zip(segs, samples)):
        raise ValueError("each segment needs one prediction per example of its sample")
    targets = [None if model.is_likelihood else np.asarray(s.y, dtype=float) for s in samples]
    pad = 1.0 if model.is_likelihood else 0.0
    a, b = _pad_rows([g.a for g in segs], pad), _pad_rows([g.b for g in segs], pad)
    target = None if model.is_likelihood else _pad_rows(targets, 0.0)
    lams = _stationary_lambda(model, a, b, target, [s.n for s in samples])
    fits = []
    for g, t, lam in zip(segs, targets, lams):
        preds = lam * g.a + (1.0 - lam) * g.b
        fits.append((preds, float(np.mean(eval_loss(model, preds, t))), float(lam)))
    return fits[0] if single else fits


def _glm_risk_and_grad(W, X, y_idx):
    """Raw multiclass log loss logsumexp(z) - z_y, convex in W, and its gradient."""
    n = X.shape[0]
    Z = X @ W.T
    zmax = row_max(Z)
    E = np.exp(Z - zmax[:, None])
    total = row_sum(E)
    lse = zmax + np.log(total)
    risk = float(np.mean(lse - Z[np.arange(n), y_idx]))
    E /= total[:, None]  # softmax probabilities; the residual is P - onehot(y)
    E[np.arange(n), y_idx] -= 1.0
    grad = E.T @ X / n
    return risk, grad


def _projected_descent(objective, ball, X, W, steps, stall_limit=8):
    """Projected gradient descent over the row-norm ball from W; returns (W, risk history).

    objective(W) returns the risk and its gradient, once per trial point:
    an accepted point keeps the pair it was tried with. Backtracking (halve
    on non-decrease) keeps the risk monotone; the initial step is
    1 / mean ||x||^2. It stops when no halving lowers the
    risk, the step falls below 1e-18, W stops moving or stall_limit steps
    in a row lower the risk by less than 1e-12 relative (None: never).
    """
    risk, grad = objective(W)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient at the initial point")
    h = 1.0 / max(np.mean(np.sum(X * X, axis=1)), 1e-12)
    history = [risk]
    stalled = 0
    for _ in range(steps):
        for _ in range(_HALVINGS):
            W_new = ball.project(W - h * grad)
            risk_new, grad_new = objective(W_new)
            if risk_new <= risk:
                break
            h *= 0.5
        else:
            break
        if h < 1e-18:
            break
        moved = float(np.max(np.abs(W_new - W)))
        drop = risk - risk_new
        W, risk, grad = W_new, risk_new, grad_new
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError("non-finite gradient during descent")
        history.append(risk)
        h *= 1.3
        stalled = stalled + 1 if drop < 1e-12 * (1.0 + abs(risk)) else 0
        if stalled == stall_limit or moved < 1e-13 * (1.0 + float(np.max(np.abs(W)))):
            break
    return W, history


def erm_linear(ball: LinearBall, sample: Sample) -> Linear:
    """Raw multiclass log-loss ERM over the row-norm ball: projected gradient descent from W = 0."""
    X = sample.X
    if X.shape[1] != ball.d:
        raise ValueError("sample dimension does not match the ball")
    y_idx = np.asarray(sample.y, dtype=int)

    def objective(W):
        return _glm_risk_and_grad(W, X, y_idx)

    W, _ = _projected_descent(objective, ball, X, np.zeros((ball.k, ball.d)), _ERM_STEPS)
    return Linear(ball.project(W), ball.B, ball.delta)


def _mixed_risk_and_grad(Wp, X, y_idx, f_hat_lik, lam, delta):
    """Mixture risk -mean ln(lam f_hat + (1 - lam) q) and its gradient in Wp.

    q = (1 - delta) softmax(X Wp^T)_y + delta / k is the partner's
    regularized likelihood of the observed label.
    """
    n, k = X.shape[0], Wp.shape[0]
    rows = np.arange(n)
    P = link_softmax(X @ Wp.T)
    py = P[rows, y_idx]
    q = (1.0 - delta) * py + delta / k
    mix = lam * f_hat_lik + (1.0 - lam) * q
    risk = float(np.mean(-np.log(mix)))
    w = -(1.0 - lam) * (1.0 - delta) / (mix * n)
    R = -P * (w * py)[:, None]
    R[rows, y_idx] += w * py
    return risk, R.T @ X


def _partner_polish(ball, sample, f_hat_lik, lam, W, delta):
    """Descent on the partner weights with the mixture likelihood fixed at lam; returns (W, risk history)."""
    X = sample.X
    y_idx = np.asarray(sample.y, dtype=int)

    def mixed_risk_grad(Wp):
        return _mixed_risk_and_grad(Wp, X, y_idx, f_hat_lik, lam, delta)

    # No stall test: near lam = 1 the mixed risk falls by less than 1e-12 a step while the partner still descends.
    return _projected_descent(mixed_risk_grad, ball, X, W, _POLISH_STEPS, stall_limit=None)


def regularized_star_glm(
    ball: LinearBall,
    sample: Sample,
    delta: float,
    n_candidates: int = 64,
    seed: int = 0,
) -> StarFit:
    """Star aggregation in the delta-regularized likelihood class.

    Candidates are the projected-gradient ERM plus seeded uniform draws from
    the ball; every candidate's probability vector is mixed toward uniform
    before the log-loss star fit. The returned fit's combined StarMix gives
    the mixed probability vectors (combined.probs), and
    link_right_inverse(combined.probs(X)) is its improper score transform.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    model = glm_loss(ball.k, delta)
    raw_ball = LinearBall(ball.d, ball.k, ball.B)
    reg_ball = LinearBall(ball.d, ball.k, ball.B, delta)
    erm_pred = erm_linear(raw_ball, sample)
    rng = np.random.default_rng((int(seed), 7002))
    candidates = [Linear(erm_pred.W, ball.B, delta)]
    candidates += [reg_ball.random_member(rng) for _ in range(n_candidates)]

    cls = FiniteClass(candidates)
    fit = star_fit(model, cls, sample)
    lam = fit.lam
    f_hat_lik = fit.erm_preds
    partner = fit.partner
    star_risk = fit.star_risk

    for _ in range(_REFINE_ROUNDS):
        W_p, _ = _partner_polish(reg_ball, sample, f_hat_lik, lam, partner.W, delta)
        cand = Linear(W_p, ball.B, delta)
        cand_lik = prediction_vector(cand, sample)
        new_lam, new_risk = line_search_segment(model, f_hat_lik, cand_lik)
        if new_risk < star_risk - 1e-15:
            partner, lam, star_risk = cand, new_lam, new_risk
        else:
            break

    erm_member = candidates[0]
    star_preds = lam * f_hat_lik + (1.0 - lam) * prediction_vector(partner, sample)
    return StarFit(
        erm=erm_member,
        partner=partner,
        lam=lam,
        combined=StarMix(lam, erm_member, partner),
        erm_risk=fit.erm_risk,
        star_risk=star_risk,
        erm_index=0,
        partner_index=fit.partner_index,
        erm_preds=f_hat_lik,
        star_preds=star_preds,
    )
