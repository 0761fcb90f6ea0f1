import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starloc import estimators, predictors
from starloc.estimators import (
    _glm_risk_and_grad,
    _projected_descent,
    empirical_risk,
    erm_finite,
    erm_linear,
    erm_segment,
    line_search_segment,
    regularized_star_glm,
    star_fit,
)
from starloc.losses import (
    eval_loss,
    glm_loss,
    grad_loss,
    link_right_inverse,
    link_softmax,
    log_loss,
    p_loss,
    square_loss,
)
from starloc.margins import erm_margin_check
from starloc.predictors import (
    Constant,
    FiniteClass,
    Linear,
    LinearBall,
    Sample,
    SegmentClass,
    StarMix,
    Tabular,
    prediction_vector,
)


def _const_sample(y):
    y = np.asarray(y, dtype=float)
    return Sample(np.zeros((len(y), 1)), y)


def test_prediction_vector_variants():
    sample = Sample(np.array([[0.3, -0.1], [1.0, 2.0]]), np.array([1, 0]))
    np.testing.assert_array_equal(prediction_vector(Constant(0.7), sample), [0.7, 0.7])
    # probability-vector constants give the observed label's likelihood
    np.testing.assert_array_equal(prediction_vector(Constant(np.array([0.2, 0.8])), sample), [0.8, 0.2])
    np.testing.assert_array_equal(prediction_vector(Tabular([0.1, 0.9]), sample), [0.1, 0.9])
    mix = StarMix(0.5, Constant(0.0), Constant(1.0))
    np.testing.assert_array_equal(prediction_vector(mix, sample), [0.5, 0.5])
    # k = 1 gives the scalar score; k > 1 the softmax likelihood, mixed toward uniform with delta
    w = np.array([[0.5, -0.25]])
    np.testing.assert_allclose(prediction_vector(Linear(w, bound=1.0), sample), sample.X @ w[0], rtol=1e-15)
    lin = Linear(np.zeros((2, 2)), bound=1.0)
    np.testing.assert_allclose(prediction_vector(lin, sample), [0.5, 0.5], rtol=1e-15)
    W = np.array([[0.5, 0.2], [-0.3, 0.1]])
    p = link_softmax(sample.X @ W.T)[[0, 1], [1, 0]]
    np.testing.assert_allclose(prediction_vector(Linear(W, 1.0, delta=0.1), sample), 0.9 * p + 0.05, rtol=1e-15)
    with pytest.raises(ValueError):
        prediction_vector(Tabular([0.1, 0.9, 0.5]), sample)
    with pytest.raises(ValueError):
        prediction_vector(Linear(np.zeros((2, 3)), bound=1.0), sample)


def test_with_floor_follows_the_regularization_formulas():
    delta = 0.2
    sample = Sample(np.array([[0.3, -0.1], [1.0, 2.0], [-0.5, 0.4]]), np.array([1, 0, 1]))
    W = np.array([[0.5, 0.2], [-0.3, 0.1]])
    members = [Constant(0.7), Constant(np.array([0.2, 0.8])), Tabular([0.1, 0.9, 0.4]), Linear(W, 1.0)]
    floored = FiniteClass(members, delta=delta).effective_members()
    assert floored[0].value == 0.8 * 0.7 + 0.2
    np.testing.assert_array_equal(floored[1].value, 0.8 * np.array([0.2, 0.8]) + 0.1)
    np.testing.assert_array_equal(floored[2].values, 0.8 * np.array([0.1, 0.9, 0.4]) + 0.2)
    assert floored[3].delta == delta
    np.testing.assert_array_equal(floored[3].W, W)
    p = link_softmax(sample.X @ W.T)[[0, 1, 2], [1, 0, 1]]
    expected = [[0.76] * 3, [0.74, 0.26, 0.74], [0.28, 0.92, 0.52], 0.8 * p + 0.1]
    np.testing.assert_allclose(FiniteClass(members, delta=delta).prediction_matrix(sample), expected, rtol=1e-15)


def test_scalar_constant_class_matrix_is_one_broadcast(monkeypatch):
    sample = Sample(np.zeros((5, 1)), np.zeros(5))
    for delta in (None, 0.2):
        cls = FiniteClass([Constant(0.7), Constant(1), Constant(np.float64(0.25))], delta=delta)
        expected = np.vstack([prediction_vector(m, sample) for m in cls.effective_members()])
        with monkeypatch.context() as patch:
            patch.setattr(predictors, "prediction_vector", None)  # not called member by member
            got = cls.prediction_matrix(sample)
        assert got.dtype == expected.dtype and got.flags.c_contiguous
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("member", [
    Linear(np.array([[0.5, -0.25]]), bound=1.0),
    StarMix(0.5, Constant(0.2), Constant(0.6)),
], ids=["linear-k1", "star-mix"])
def test_with_floor_rejects_non_likelihood_members(member):
    cls = FiniteClass([Constant(0.5), member], delta=0.1)
    with pytest.raises(ValueError, match="likelihood members"):
        cls.effective_members()
    with pytest.raises(ValueError, match="likelihood members"):
        cls.prediction_matrix(Sample(np.zeros((2, 2)), np.array([0, 1])))


def test_linear_rejects_rows_outside_ball():
    with pytest.raises(ValueError):
        Linear(np.array([[3.0, 4.0]]), bound=1.0)


def test_empirical_risk_examples():
    sq = square_loss(2.0)
    assert empirical_risk(sq, Constant(0.0), _const_sample([1.0, -1.0])) == pytest.approx(1.0)
    lg = log_loss(0.01)
    assert empirical_risk(lg, Constant(1.0), _const_sample([0, 0, 0])) == 0.0
    assert empirical_risk(lg, Constant(0.5), _const_sample([0, 0, 0])) == pytest.approx(math.log(2.0))


def test_empirical_risk_names_offending_index():
    lg = log_loss(0.1)
    with pytest.raises(ValueError, match="example 1"):
        empirical_risk(lg, np.array([0.5, 0.01, 0.7]), _const_sample([0, 0, 0]))


def test_erm_finite_examples():
    sq = square_loss(1.0)
    sample = _const_sample([1.0, 1.0])
    cls = FiniteClass([Constant(0.0), Constant(1.0)])
    idx, risk = erm_finite(sq, cls, sample)
    assert idx == 1 and risk == 0.0
    tie = FiniteClass([Constant(0.5), Constant(0.5)])
    idx, _ = erm_finite(sq, tie, sample)
    assert idx == 0  # lowest index on exact ties
    with pytest.raises(ValueError):
        FiniteClass([])


def test_erm_finite_matches_brute_force(rng):
    sq = square_loss(1.0)
    values = rng.uniform(-1, 1, 16)
    cls = FiniteClass([Constant(v) for v in values])
    sample = _const_sample(rng.uniform(-1, 1, 32))
    idx, risk = erm_finite(sq, cls, sample)
    brute = [float(np.mean((v - sample.y) ** 2)) for v in values]
    assert risk == pytest.approx(min(brute), abs=1e-12)
    assert idx == int(np.argmin(brute))


@given(st.permutations(list(range(6))))
def test_erm_finite_tie_break_under_permutation(perm):
    sq = square_loss(1.0)
    values = [0.5, -0.5, 0.5, 0.2, -0.2, 0.2]
    sample = _const_sample([0.35, 0.35, 0.35])
    permuted = [values[i] for i in perm]
    idx, risk = erm_finite(sq, FiniteClass([Constant(v) for v in permuted]), sample)
    risks = [float(np.mean((v - sample.y) ** 2)) for v in permuted]
    expected = min(range(6), key=lambda i: (risks[i], i))
    assert idx == expected
    assert risk == pytest.approx(risks[expected], abs=1e-15)


def test_line_search_examples(rng):
    sq = square_loss(1.0)
    lam, risk = line_search_segment(sq, np.array([1.0, 1.0]), np.array([-1.0, -1.0]), np.zeros(2))
    assert lam == pytest.approx(0.5, abs=1e-9)
    assert risk == pytest.approx(0.0, abs=1e-15)
    a = np.array([0.3, -0.2])
    lam, risk = line_search_segment(sq, a, a, np.zeros(2))
    assert lam == 1.0
    # log loss vs dense grid oracle
    lg = log_loss(0.01)
    a = np.array([0.2, 0.9])
    b = np.array([0.9, 0.2])
    lam, risk = line_search_segment(lg, a, b)
    grid = np.linspace(0, 1, 1_000_001)
    mix = grid[:, None] * a[None, :] + (1 - grid[:, None]) * b[None, :]
    oracle = float((-np.log(mix)).mean(axis=1).min())
    assert risk == pytest.approx(oracle, abs=1e-8)


def test_line_search_never_beats_endpoints(rng):
    sq = square_loss(1.0)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        a, b, t = (rng.uniform(-1, 1, n) for _ in range(3))
        lam, risk = line_search_segment(sq, a, b, t)
        ra = float(np.mean((a - t) ** 2))
        rb = float(np.mean((b - t) ** 2))
        assert risk <= min(ra, rb) + 1e-12


def _reference_golden(risk_fn, n_segments, tol=1e-10):
    """Golden section with fresh np.where arrays and hi - lo recomputed at every use."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.zeros(n_segments), np.ones(n_segments)
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = risk_fn(x1), risk_fn(x2)
    while float(np.max(hi - lo)) > tol:
        left = f1 <= f2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        vals = risk_fn(np.where(left, x1, x2))
        f1, f2 = np.where(left, vals, f2), np.where(left, f1, vals)
    candidates = np.stack([0.5 * (lo + hi), np.zeros(n_segments), np.ones(n_segments)])
    risks = np.stack([risk_fn(c) for c in candidates])
    best, take = np.argmin(risks, axis=0), np.arange(n_segments)
    return candidates[best, take], risks[best, take]


def _reference_star(model, preds, target):
    """(erm index, partner index, lam, star risk) with a checked eval_loss at every golden step."""
    risks = eval_loss(model, preds, target).mean(axis=1)
    erm = int(np.argmin(risks))
    a = preds[erm]

    def risk_fn(lams):
        return eval_loss(model, lams[:, None] * a[None, :] + (1.0 - lams[:, None]) * preds, target).mean(axis=1)

    lams, seg = _reference_golden(risk_fn, preds.shape[0])
    lams[erm], seg[erm] = 1.0, risks[erm]
    partner = int(np.argmin(seg))
    if seg[partner] > risks[erm]:
        return erm, erm, 1.0, float(risks[erm])
    return erm, partner, float(lams[partner]), float(seg[partner])


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_segment_search_matches_checked_golden_section(model, rng):
    lo, hi = model.domain
    for members, n in ((2, 1), (7, 40), (33, 257)):
        preds = rng.uniform(lo, hi, (members, n))
        target = None if model.is_likelihood else rng.uniform(-1.0, 1.0, n)
        sample = Sample(np.zeros((n, 1)), np.zeros(n) if target is None else target)
        fit = star_fit(model, FiniteClass([Tabular(v) for v in preds]), sample)
        assert (fit.erm_index, fit.partner_index, fit.lam, fit.star_risk) == _reference_star(model, preds, target)

        a, b = preds[0], preds[-1]

        def risk_fn(lams):
            return np.array([np.mean(eval_loss(model, lams[0] * a + (1.0 - lams[0]) * b, target))])

        lam, risk = _reference_golden(risk_fn, 1)
        assert line_search_segment(model, a, b, target) == (float(lam[0]), float(risk[0]))


def _screen_cases(model, rng, n=60):
    """(prediction matrix, target) cases: random classes of 1, 2, 3 and 25 members, a class
    with no star gain (constants on one side of every target; for the log loss any
    constants), and a class whose members, the ERM's among them, come in duplicates."""
    lo, hi = model.domain
    target = None if model.is_likelihood else rng.uniform(-1.0, 0.5, n)
    cases = [rng.uniform(lo, hi, (m, n)) for m in (1, 2, 3, 25)]
    cases.append(np.repeat(rng.uniform(max(lo, 0.5), hi, (12, 1)), n, axis=1))
    members = rng.uniform(lo, hi, (6, n))
    cases.append(np.concatenate([members, members, members[:2]]))
    return cases, target


def _fit_fields(fit):
    return fit.erm_index, fit.partner_index, fit.lam, fit.star_risk


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_segment_screen_keeps_the_full_search_result(model, rng, monkeypatch):
    cases, target = _screen_cases(model, rng)
    n = cases[0].shape[1]
    sample = Sample(np.zeros((n, 1)), np.zeros(n) if target is None else target)
    classes = [FiniteClass([Tabular(v) for v in preds]) for preds in cases]
    expected = [_reference_star(model, preds, target) for preds in cases]
    searched = []
    golden = estimators._golden_batch
    monkeypatch.setattr(estimators, "_golden_batch", lambda fn, k: searched.append(k) or golden(fn, k))
    singles = [star_fit(model, cls, sample) for cls in classes]
    # every problem has the same sample size, so the batch has no padding
    batched = star_fit(model, classes, [sample] * len(classes), cases)
    for fits in (singles, batched):
        for fit, preds, want in zip(fits, cases, expected):
            assert _fit_fields(fit) == want
            erm, partner, lam, _ = want
            assert np.array_equal(fit.star_preds, lam * preds[erm] + (1.0 - lam) * preds[partner])
    # the screen is not idle: the 25-member class searches fewer segments
    assert searched[3] < 25


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_segment_screen_searches_only_the_erm_rows_of_no_gain_classes(model, rng, monkeypatch):
    # Every segment of a no-gain class has slope <= 0 at lam = 1, so lam = 1 is its minimum.
    cases, target = _screen_cases(model, rng)
    n = cases[0].shape[1]
    sample = Sample(np.zeros((n, 1)), np.zeros(n) if target is None else target)
    no_gain = [cases[4], cases[4][::-1].copy(), cases[4][:5]]
    searched = []
    golden = estimators._golden_batch
    monkeypatch.setattr(estimators, "_golden_batch", lambda fn, k: searched.append(k) or golden(fn, k))
    classes = [FiniteClass([Tabular(v) for v in preds]) for preds in no_gain]
    fits = [star_fit(model, cls, sample) for cls in classes]
    fits += star_fit(model, classes, [sample] * len(classes), no_gain)
    assert searched == [1, 1, 1, len(no_gain)]
    for fit, preds in zip(fits, no_gain * 2):
        assert _fit_fields(fit) == _reference_star(model, preds, target)
        assert fit.lam == 1.0 and fit.star_risk == fit.erm_risk


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_segment_screen_keeps_ragged_batch_results(model, rng, monkeypatch):
    sizes = [int(n) for n in rng.integers(1, 90, 30)]
    classes, samples = _star_problems(model, rng, sizes)
    screened = star_fit(model, classes, samples)

    def no_screen(model, block, erm_risk):
        rows = block[0].size
        return np.full(rows, -np.inf), np.full(rows, np.inf), np.zeros(rows)

    monkeypatch.setattr(estimators, "_segment_bounds", no_screen)
    for fit, full in zip(screened, star_fit(model, classes, samples)):
        assert _fit_fields(fit) == _fit_fields(full)
        assert np.array_equal(fit.star_preds, full.star_preds)


@pytest.mark.parametrize("bad", [2.0, -2.0, math.nan], ids=["above", "below", "nan"])
def test_segment_search_rejects_bad_endpoints(bad):
    sq = square_loss(1.0)
    good = np.array([0.1, -0.3, 0.5])
    broken = good.copy()
    broken[1] = bad
    t = np.zeros(3)
    for a, b in ((broken, good), (good, broken)):
        with pytest.raises(ValueError):
            line_search_segment(sq, a, b, t)
    with pytest.raises(ValueError):
        line_search_segment(sq, good, good[::-1], np.array([0.0, bad, 0.0]))
    with pytest.raises(ValueError):
        star_fit(sq, FiniteClass([Tabular(good), Tabular(broken)]), _const_sample(t))
    lg = log_loss(0.01)
    with pytest.raises(ValueError):
        line_search_segment(lg, np.array([0.5, 0.2]), np.array([0.4, bad]))


def _star_problems(model, rng, sizes):
    """Random tabular classes with sample sizes `sizes`, and their samples."""
    lo, hi = model.domain
    classes, samples = [], []
    for n in sizes:
        m = int(rng.integers(1, 20))
        classes.append(FiniteClass([Tabular(v) for v in rng.uniform(lo, hi, (m, n))]))
        target = np.zeros(n) if model.is_likelihood else rng.uniform(-1.0, 1.0, n)
        samples.append(Sample(np.zeros((n, 1)), target))
    return classes, samples


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_star_fit_batch_of_equal_sizes_matches_single_fits(model, rng):
    classes, samples = _star_problems(model, rng, [40] * 6)
    for batched, cls, sample in zip(star_fit(model, classes, samples), classes, samples):
        single = star_fit(model, cls, sample)
        for field in ("lam", "erm_risk", "star_risk", "erm_index", "partner_index"):
            assert getattr(batched, field) == getattr(single, field)
        assert np.array_equal(batched.star_preds, single.star_preds)
        assert np.array_equal(batched.erm_preds, single.erm_preds)


@pytest.mark.parametrize("model", [square_loss(1.0), log_loss(0.01)], ids=["square", "log"])
def test_star_fit_ragged_batch_reports_its_predictions(model, rng):
    sizes = [int(n) for n in rng.integers(1, 130, 25)]
    classes, samples = _star_problems(model, rng, sizes)
    fits = star_fit(model, classes, samples)
    assert len(fits) == len(sizes)
    for fit, sample in zip(fits, samples):
        assert fit.star_preds.shape == (sample.n,)
        assert abs(fit.star_risk - empirical_risk(model, fit.star_preds, sample)) <= 1e-12
        assert fit.star_risk <= fit.erm_risk


def test_star_fit_batch_needs_one_sample_per_class():
    sq = square_loss(1.0)
    cls = FiniteClass([Constant(0.7), Constant(-0.2)])
    sample = _const_sample([0.5, 0.8, 0.6])
    with pytest.raises(ValueError):
        star_fit(sq, [cls, cls], [sample])
    with pytest.raises(ValueError):
        star_fit(sq, [cls], [sample], [np.zeros((2, 2))])
    assert star_fit(sq, [], []) == []


def test_star_fit_singleton():
    sq = square_loss(1.0)
    sample = _const_sample([0.5, 0.8, 0.6])
    fit = star_fit(sq, FiniteClass([Constant(0.7)]), sample)
    assert fit.lam == 1.0
    assert fit.partner_index == fit.erm_index == 0
    assert fit.star_risk == fit.erm_risk


def test_star_fit_two_point_beats_members(rng):
    sq = square_loss(1.0)
    targets = np.full(8, 0.1)
    sample = _const_sample(targets)
    fit = star_fit(sq, FiniteClass([Constant(0.8), Constant(-0.6)]), sample)
    # lam-grid oracle at 1e-4 resolution
    lams = np.linspace(0, 1, 10_001)
    mixes = lams * 0.8 + (1 - lams) * (-0.6)
    oracle = float(((mixes - 0.1) ** 2).min())
    assert fit.star_risk == pytest.approx(oracle, abs=1e-8)
    assert fit.star_risk < min(fit.erm_risk, float(np.mean((-0.6 - targets) ** 2)))


def test_star_risk_below_hull_grid(rng):
    lg = log_loss(0.05)
    cls = FiniteClass([Constant(v) for v in rng.uniform(0.0, 1.0, 6)], delta=0.05)
    sample = _const_sample(np.zeros(24))
    fit = star_fit(lg, cls, sample)
    preds = cls.prediction_matrix(sample)
    f_hat = preds[fit.erm_index]
    for lam in np.linspace(0, 1, 101):
        mixes = lam * f_hat[None, :] + (1 - lam) * preds
        risks = (-np.log(mixes)).mean(axis=1)
        assert fit.star_risk <= risks.min() + 1e-8


def test_star_coincides_with_segment_erm(rng):
    # materialized convex segment: star risk equals the continuous ERM risk
    sq = square_loss(1.0)
    for _ in range(10):
        n = int(rng.integers(4, 32))
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        t = rng.uniform(-1, 1, n)
        sample = Sample(np.zeros((n, 1)), t)
        seg = SegmentClass(a, b, resolution=1e-3)
        members = [Tabular(row) for row in seg.materialize()]
        fit = star_fit(sq, FiniteClass(members), sample)
        _, seg_risk, _ = erm_segment(sq, seg, sample)
        assert abs(fit.star_risk - seg_risk) <= 1e-8


def _segment_problems(model, rng, sizes):
    lo, hi = model.domain
    segs, samples = [], []
    for n in sizes:
        segs.append(SegmentClass(rng.uniform(lo, hi, n), rng.uniform(lo, hi, n), resolution=1.0 / 50))
        target = np.zeros(n) if model.is_likelihood else rng.uniform(-1.0, 1.0, n)
        samples.append(Sample(np.zeros((n, 1)), target))
    return segs, samples


def _reference_segment_lambda(model, a, b, target):
    """Scalar derivative bisection, one np.mean of the gradient terms per step."""
    if np.array_equal(a, b):
        return 1.0

    def deriv(lam):
        return float(np.mean(grad_loss(model, lam * a + (1.0 - lam) * b, target) * (a - b)))

    if deriv(0.0) >= 0.0:
        return 0.0
    if deriv(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if deriv(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_erm_segment_list_of_one_is_the_single_call(model, rng):
    for n in (1, 7, 64, 64):
        (seg,), (sample,) = _segment_problems(model, rng, [n])
        (batched,) = erm_segment(model, [seg], [sample])
        single = erm_segment(model, seg, sample)
        assert batched[1:] == single[1:]
        assert np.array_equal(batched[0], single[0])
        target = None if model.is_likelihood else sample.y
        assert single[2] == _reference_segment_lambda(model, seg.a, seg.b, target)


@pytest.mark.parametrize("model", [square_loss(1.0), p_loss(3.0, 1.0), log_loss(0.01)],
                         ids=["square", "p3", "log"])
def test_erm_segment_ragged_list_matches_single_calls(model, rng):
    sizes = [int(n) for n in rng.integers(1, 90, 30)]
    segs, samples = _segment_problems(model, rng, sizes)
    fits = erm_segment(model, segs, samples)
    assert len(fits) == 30
    for seg, sample, (preds, risk, lam) in zip(segs, samples, fits):
        # padding changes the derivative sums' rounding, so the bisection may end one float step apart
        assert abs(lam - erm_segment(model, seg, sample)[2]) <= np.spacing(1.0)
        target = None if model.is_likelihood else sample.y
        assert erm_margin_check(model, seg.materialize(), target, preds, risk).violations == 0
    assert erm_segment(model, [], []) == []
    with pytest.raises(ValueError):
        erm_segment(model, segs, samples[:-1])


def _glm_descent_history(ball, X, y):
    """Risk history of erm_linear's descent on the GLM objective, from W = 0."""

    def objective(W):
        return _glm_risk_and_grad(W, X, y)

    return np.asarray(_projected_descent(objective, ball, X, np.zeros((ball.k, ball.d)), 500)[1])


def _descent_evaluating_accepted_points_twice(objective, ball, X, W, steps, stall_limit=8):
    """Reference copy of _projected_descent that tries each point for its risk alone (the gradient is
    discarded) and evaluates an accepted point again for its gradient; also returns the number of trial points."""
    risk, grad = objective(W)
    h = 1.0 / max(np.mean(np.sum(X * X, axis=1)), 1e-12)
    history, stalled, trials = [risk], 0, 0
    for _ in range(steps):
        for _ in range(estimators._HALVINGS):
            W_new = ball.project(W - h * grad)
            risk_new, _ = objective(W_new)
            trials += 1
            if risk_new <= risk:
                break
            h *= 0.5
        else:
            break
        if h < 1e-18:
            break
        moved = float(np.max(np.abs(W_new - W)))
        drop = risk - risk_new
        W = W_new
        risk, grad = objective(W)
        history.append(risk)
        h *= 1.3
        stalled = stalled + 1 if drop < 1e-12 * (1.0 + abs(risk)) else 0
        if stalled == stall_limit or moved < 1e-13 * (1.0 + float(np.max(np.abs(W)))):
            break
    return W, history, trials


def _descent_problems():
    """Seeded GLM-ERM and partner-polish objectives: (objective, ball, X, W0, steps, stall_limit)."""
    rng = np.random.default_rng(2024)
    for k, B, scale in ((2, 5.0, 1.0), (3, 2.0, 3.0), (2, 50.0, 0.5)):
        X = scale * rng.standard_normal((96, 2))
        y = rng.integers(0, k, 96)
        y[X[:, 0] > 1.0] = 0  # a partly separable class pushes some steps to the ball's boundary
        yield (lambda W, X=X, y=y: _glm_risk_and_grad(W, X, y),
               LinearBall(2, k, B), X, np.zeros((k, 2)), 500, 8)
    for lam, delta in ((0.3, 0.05), (0.9, 0.01)):
        X = rng.standard_normal((80, 2))
        y = rng.integers(0, 2, 80)
        f_hat_lik = rng.uniform(0.05, 0.95, 80)
        ball = LinearBall(2, 2, 3.0, delta)

        def mixed(W, X=X, y=y, f=f_hat_lik, lam=lam, delta=delta):
            return estimators._mixed_risk_and_grad(W, X, y, f, lam, delta)

        yield mixed, ball, X, ball.random_member(rng).W, estimators._POLISH_STEPS, None


def test_descent_evaluates_each_trial_point_once():
    rejected = 0
    for objective, ball, X, W0, steps, stall_limit in _descent_problems():
        calls = []

        def counted(W, objective=objective):
            calls.append(W)
            return objective(W)

        W, history = _projected_descent(counted, ball, X, W0, steps, stall_limit)
        W_ref, history_ref, trials = _descent_evaluating_accepted_points_twice(objective, ball, X, W0, steps, stall_limit)
        assert np.array_equal(W, W_ref) and history == history_ref
        assert len(calls) == 1 + trials
        rejected += trials - (len(history) - 1)
    assert rejected > 0  # some trial point was rejected, so trials and accepted steps differ


def test_erm_linear_descends_from_zero(rng):
    ball = LinearBall(2, 2, 5.0)
    X = rng.standard_normal((64, 2))
    y = (X[:, 0] > 0).astype(int)  # separable
    history = _glm_descent_history(ball, X, y)
    assert history[-1] <= history[0]
    assert np.all(np.diff(history) <= 1e-15)


def test_erm_linear_monotone_single_example():
    ball = LinearBall(1, 2, 3.0)
    history = _glm_descent_history(ball, np.array([[1.0]]), np.array([0]))
    assert np.all(np.diff(history) <= 1e-15)
    assert history[-1] < history[0]


def test_erm_linear_beats_random_search(rng):
    ball = LinearBall(2, 2, 3.0)
    X = rng.standard_normal((256, 2))
    probs = link_softmax(X @ np.array([[1.0, 0.5], [-1.0, -0.5]]).T)
    y = (rng.random(256) < probs[:, 1]).astype(int)
    sample = Sample(X, y)
    fitted = erm_linear(ball, sample)

    def raw_risk(W):
        Z = X @ W.T
        lse = np.log(np.exp(Z - Z.max(1, keepdims=True)).sum(1)) + Z.max(1)
        return float(np.mean(lse - Z[np.arange(256), y]))

    best_random = min(raw_risk(ball.random_member(rng).W) for _ in range(2000))
    assert raw_risk(fitted.W) <= best_random + 1e-3


def _polish_problem(rng, n=96, delta=0.05):
    ball = LinearBall(2, 2, 3.0, delta)
    X = rng.standard_normal((n, 2))
    y = (rng.random(n) < link_softmax(X @ np.array([[1.0, 0.5], [-1.0, -0.5]]).T)[:, 1]).astype(int)
    f_hat_lik = prediction_vector(ball.random_member(rng), Sample(X, y))
    return ball, Sample(X, y), f_hat_lik, ball.random_member(rng).W


def test_partner_polish_descends_within_its_step_budget(rng):
    ball, sample, f_hat_lik, W0 = _polish_problem(rng)
    W, history = estimators._partner_polish(ball, sample, f_hat_lik, 0.4, W0, 0.05)
    assert 2 <= len(history) <= estimators._POLISH_STEPS + 1
    assert np.all(np.diff(history) <= 0.0)
    assert np.all(np.linalg.norm(W, axis=1) <= 3.0 * (1 + 1e-12))
    y_idx = np.asarray(sample.y, dtype=int)
    risk, _ = estimators._mixed_risk_and_grad(W, sample.X, y_idx, f_hat_lik, 0.4, 0.05)
    assert risk == history[-1]


def test_partner_polish_keeps_descending_when_each_step_is_tiny(rng):
    # Near lam = 1 every step lowers the mixed risk by less than 1e-12 relative; the polish has no stall test.
    ball, sample, f_hat_lik, W0 = _polish_problem(rng)
    lam = 1.0 - 1e-7
    W, history = estimators._partner_polish(ball, sample, f_hat_lik, lam, W0, 0.05)
    assert len(history) == estimators._POLISH_STEPS + 1
    drops = -np.diff(history)
    assert np.all(drops >= 0.0) and np.all(drops < 1e-12 * (1.0 + np.asarray(history[1:])))
    assert history[-1] < history[0] and not np.array_equal(W, W0)


def test_partner_polish_rejects_a_non_finite_gradient(rng):
    ball, sample, f_hat_lik, W0 = _polish_problem(rng)
    f_hat_lik[3] = np.nan
    with pytest.raises(FloatingPointError):
        estimators._partner_polish(ball, sample, f_hat_lik, 0.4, W0, 0.05)


def test_regularized_star_glm_contract(rng):
    ball = LinearBall(2, 2, 3.0)
    X = rng.standard_normal((128, 2))
    probs = link_softmax(X @ np.array([[1.0, 0.0], [-1.0, 0.0]]).T)
    y = (rng.random(128) < probs[:, 1]).astype(int)
    sample = Sample(X, y)
    fit = regularized_star_glm(ball, sample, 0.5, n_candidates=8, seed=0)
    # regularized with delta = 1/2: all likelihoods in [delta/k, 1]
    assert fit.star_preds.min() >= 0.25 - 1e-12
    assert fit.star_risk <= fit.erm_risk + 1e-12
    P = fit.combined.probs(X[:16])
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert P.min() >= 0.5 / 2 - 1e-12
    # score transform maps back through the link exactly
    np.testing.assert_allclose(link_softmax(link_right_inverse(P)), P, atol=1e-12)


def test_regularized_star_glm_excess_drop_bound(rng):
    # benchmark degradation from regularizing the class is at most 2 delta
    glm = glm_loss(2, 0.2)
    X = rng.standard_normal((64, 2))
    y = (rng.random(64) < 0.5).astype(int)
    sample = Sample(X, y)
    ball = LinearBall(2, 2, 2.0)
    delta = 0.2
    members = [ball.random_member(rng) for _ in range(12)]
    raw = FiniteClass(members)
    reg = FiniteClass(members, delta=delta)
    raw_risks = (-np.log(np.vstack([prediction_vector(m, sample) for m in members]).clip(1e-300))).mean(axis=1)
    reg_risks = (-np.log(reg.prediction_matrix(sample))).mean(axis=1)
    assert reg_risks.min() <= raw_risks.min() + 2 * delta + 1e-12


def test_star_fit_deterministic(rng):
    lg = log_loss(0.1)
    cls = FiniteClass([Constant(v) for v in rng.uniform(0, 1, 8)], delta=0.1)
    sample = _const_sample(np.zeros(16))
    f1 = star_fit(lg, cls, sample)
    f2 = star_fit(lg, cls, sample)
    assert f1.lam == f2.lam and f1.star_risk == f2.star_risk
