import itertools
import math
import tracemalloc

import numpy as np
import pytest

from starloc import complexity
from starloc.complexity import (
    _exp_concave_coefficient,
    _exp_concave_sups,
    constant_profile,
    entropy_eval,
    finite_empirical_profile,
    fprime_matrix,
    greedy_cover_indices,
    offset_complexity_mc,
    offset_sup_one_draw,
    parametric_profile,
    power_law_profile,
)
from starloc.losses import eval_loss, log_loss, p_loss, square_loss
from starloc.predictors import Constant, FiniteClass, Sample, Tabular


def _const_sample(y):
    y = np.asarray(y, dtype=float)
    return Sample(np.zeros((len(y), 1)), y)


def test_fprime_matrix_sizes():
    sample = _const_sample([0.0])
    assert fprime_matrix(FiniteClass([Constant(0.3)]), sample, 20).shape == (1, 1)
    two = FiniteClass([Constant(0.0), Constant(1.0)])
    assert fprime_matrix(two, sample, 1).shape == (2, 1)  # lam in {0, 1} reproduces members
    mat = fprime_matrix(two, sample, 2)
    assert mat.shape == (3, 1)  # members plus the midpoint
    assert 0.5 in mat[:, 0]


@pytest.mark.parametrize("members", [1, 2, 5, 12])
@pytest.mark.parametrize("levels", [1, 2, 7, 20])
def test_fprime_matrix_matches_loop_enumeration(members, levels):
    rng = np.random.default_rng((members, levels))
    sample = _const_sample(np.zeros(6))
    cls = FiniteClass([Tabular(row) for row in rng.uniform(-1, 1, (members, 6))])
    base = cls.prediction_matrix(sample)
    rows = list(base)
    for i in range(members):
        for j in range(i + 1, members):
            for lam in np.arange(1, levels) / levels:
                rows.append(float(lam) * base[i] + (1.0 - float(lam)) * base[j])
    np.testing.assert_array_equal(fprime_matrix(cls, sample, levels), np.asarray(rows))


def test_fprime_contains_class_and_bound():
    cls = FiniteClass([Constant(v) for v in (0.1, 0.4, 0.9)])
    levels = 7
    mat = fprime_matrix(cls, _const_sample([0.0, 0.0]), levels)
    m = len(cls)
    assert mat.shape[0] == m + m * (m - 1) // 2 * (levels - 1)
    assert mat.shape[0] <= m * m * (levels + 1)
    for v in (0.1, 0.4, 0.9):
        assert np.any(np.all(mat == v, axis=1))


def test_offset_sup_enumeration_oracle():
    # n = 1, members {0, 1}: the supremum is max over two explicit terms
    sq = square_loss(1.0)
    sample = _const_sample([0.5])
    F = np.array([[0.0], [1.0]])
    ref = np.array([0.0])
    signs = np.array([1.0])
    val = offset_sup_one_draw(sq, F, ref, sample, signs, "mu_d")
    psi0 = (0.0 - 0.5) ** 2
    psi1 = (1.0 - 0.5) ** 2
    expected = max(0.0, 4.0 * (psi1 - psi0) - (1.0 / 3.0) ** 2)
    assert val == pytest.approx(expected, abs=1e-15)


def test_offset_pair_symmetry(rng):
    sq = square_loss(1.0)
    n = 8
    sample = _const_sample(rng.uniform(-1, 1, n))
    F = rng.uniform(-1, 1, (5, n))
    signs = rng.choice([-1.0, 1.0], n)
    v1 = offset_sup_one_draw(sq, F, None, sample, signs, "exp_concave")
    v2 = offset_sup_one_draw(sq, F, None, sample, -signs, "exp_concave")
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert v1 >= 0.0


def test_offset_singleton_exactly_zero():
    sq = square_loss(1.0)
    sample = _const_sample([0.2, -0.1, 0.4])
    cls = FiniteClass([Constant(0.3)])
    for kind in ("mu_d", "exp_concave", "uniform_convex"):
        ref = Constant(0.3) if kind != "exp_concave" else None
        est = offset_complexity_mc(sq, cls, ref, sample, kind, draws=6, seed=9)
        assert est.mean == 0.0
        assert est.q95 == 0.0


def test_offset_determinism_and_seed_prefix(rng):
    sq = square_loss(1.0)
    sample = _const_sample(rng.uniform(-1, 1, 12))
    cls = FiniteClass([Constant(v) for v in (-0.4, 0.2, 0.7)])
    a = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=6, seed=3)
    b = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=6, seed=3)
    assert np.array_equal(a.per_draw_sup, b.per_draw_sup)
    c = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=12, seed=3)
    assert np.array_equal(c.per_draw_sup[:6], a.per_draw_sup)
    assert a.mean == pytest.approx(float(a.per_draw_sup.mean()))
    assert a.q95 == pytest.approx(float(np.quantile(a.per_draw_sup, 0.95)))


def test_offset_class_monotonicity(rng):
    sq = square_loss(1.0)
    sample = _const_sample(rng.uniform(-1, 1, 16))
    small = FiniteClass([Constant(v) for v in (-0.5, 0.3)])
    big = FiniteClass(list(small.members) + [Constant(0.9)])
    ref = Constant(-0.5)
    for kind in ("mu_d", "exp_concave", "uniform_convex"):
        r = None if kind == "exp_concave" else ref
        a = offset_complexity_mc(sq, small, r, sample, kind, draws=10, seed=4)
        b = offset_complexity_mc(sq, big, r, sample, kind, draws=10, seed=4)
        assert np.all(b.per_draw_sup >= a.per_draw_sup - 1e-12)


def test_offset_levels_monotone_under_doubling(rng):
    sq = square_loss(1.0)
    sample = _const_sample(rng.uniform(-1, 1, 16))
    cls = FiniteClass([Constant(v) for v in (-0.8, 0.1, 0.6)])
    a = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=8, seed=5, lambda_levels=20)
    b = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=8, seed=5, lambda_levels=40)
    assert np.all(b.per_draw_sup >= a.per_draw_sup - 1e-12)


def test_offset_coefficients():
    sq = square_loss(1.0)
    p3 = p_loss(3.0, 1.0)
    sample = _const_sample([0.1])
    cls = FiniteClass([Constant(0.2)])
    e = offset_complexity_mc(sq, cls, None, sample, "exp_concave", draws=1, seed=0)
    assert e.coefficient == pytest.approx(sq.eta / max(18 * sq.m * sq.eta, 36.0))
    u = offset_complexity_mc(p3, cls, Constant(0.2), sample, "uniform_convex", draws=1, seed=0)
    assert u.coefficient == pytest.approx(2.0 ** (1 - 3.0) / 27.0)
    m = offset_complexity_mc(sq, cls, Constant(0.2), sample, "mu_d", draws=1, seed=0)
    assert m.coefficient == 1.0


def test_greedy_cover_basics():
    V = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    # L2(P_n) distances: dist(0, 2) = 2, dist(0, 1) = 1
    assert greedy_cover_indices(V, 2.01) == [0]
    assert set(greedy_cover_indices(V, 1.01)) == {0, 2}
    assert len(greedy_cover_indices(V, 0.5)) == 3


def _brute_force_min_cover(V, eps):
    M = V.shape[0]
    d = np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).mean(axis=2))
    for size in range(1, M + 1):
        for centers in itertools.combinations(range(M), size):
            if np.all(d[:, list(centers)].min(axis=1) <= eps):
                return size
    return M


def test_greedy_cover_vs_brute_force(rng):
    # greedy is a valid cover; its centers are eps-separated, so its size is
    # at most the minimal cover size at eps/2 (packing argument)
    for _ in range(25):
        M = int(rng.integers(2, 9))
        V = rng.uniform(-1, 1, (M, 4))
        eps = float(rng.uniform(0.1, 1.0))
        centers = greedy_cover_indices(V, eps)
        d = np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).mean(axis=2))
        assert np.all(d[:, centers].min(axis=1) <= eps + 1e-12)
        assert len(centers) <= _brute_force_min_cover(V, eps / 2)


def test_greedy_cover_collinear_counterexample():
    # greedy seeded at an endpoint uses 2 centers where 1 suffices
    V = np.array([[0.0], [1.0], [2.0]])
    assert _brute_force_min_cover(V, 1.0) == 1
    assert len(greedy_cover_indices(V, 1.0)) == 2


def test_entropy_eval_variants(rng):
    prof = finite_empirical_profile(vectors=np.array([[0.0, 0.0]]))
    assert entropy_eval(prof, 0.5) == 0.0
    par = parametric_profile(2, 2, 1.0, 3.0)
    assert entropy_eval(par, 0.01) == pytest.approx(4 * math.log(300.0), rel=1e-12)
    assert entropy_eval(par, 1e9) == 0.0  # clamped at zero
    pl = power_law_profile(1.0, 1.0)
    assert entropy_eval(pl, 0.25) == 4.0
    cp = constant_profile(10.0, star_hull_correction=True)
    assert entropy_eval(cp, 0.5) == pytest.approx(10.0 + math.log(2.0))
    assert entropy_eval(cp, 2.0) == 10.0  # no correction above eps = 1
    with pytest.raises(ValueError):
        entropy_eval(par, 0.0)


@pytest.mark.parametrize("make, field", [
    (lambda: constant_profile(-5.0), "'value'"),
    (lambda: constant_profile(math.nan), "'value'"),
    (lambda: parametric_profile(2, 2, -1.0, 3.0), "'A'"),
    (lambda: parametric_profile(2, 2, 1.0, 0.0), "'B'"),
    (lambda: parametric_profile(2, 2, 1e-300, 1e-300), "'A \\* B'"),
    (lambda: power_law_profile(-1.0, 1.0), "'A'"),
    (lambda: power_law_profile(1.0, 0.0), "'q'"),
    (lambda: power_law_profile(1.0, -2.0, star_hull_correction=True), "'q'"),
], ids=["negative-value", "nan-value", "negative-A", "zero-B", "underflow-AB", "negative-power-A", "zero-q", "negative-q"])
def test_entropy_profile_out_of_range_names_the_field(make, field):
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("vectors", [
    [], [[]], 5.0, [0.1, 0.2], [[[0.1]]], [[0.1, np.nan]], [[0.1], [np.inf]], [[0.1, 0.2], [0.3]],
], ids=["empty", "empty-row", "scalar", "one-d", "three-d", "nan", "inf", "ragged"])
def test_finite_empirical_profile_rejects_malformed_vectors(vectors):
    with pytest.raises(ValueError):
        finite_empirical_profile(vectors=vectors)


def test_entropy_nonincreasing(rng):
    V = rng.uniform(0, 1, (12, 6))
    profiles = [
        finite_empirical_profile(vectors=V),
        parametric_profile(2, 3, 1.0, 2.0),
        power_law_profile(0.5, 1.5),
        constant_profile(3.0, star_hull_correction=True),
    ]
    eps_grid = np.exp(np.linspace(math.log(1e-3), math.log(3.0), 40))
    for prof in profiles:
        vals = [entropy_eval(prof, float(e)) for e in eps_grid]
        assert np.all(np.diff(vals) <= 1e-12)


def test_entropy_eps_above_diameter(rng):
    V = rng.uniform(0, 1, (6, 4))
    d = np.sqrt(((V[:, None, :] - V[None, :, :]) ** 2).mean(axis=2))
    prof = finite_empirical_profile(vectors=V)
    assert entropy_eval(prof, float(d.max() + 1e-9)) == 0.0


def test_loss_composed_entropy_via_class(rng):
    sq = square_loss(1.0)
    sample = _const_sample(rng.uniform(-1, 1, 8))
    cls = FiniteClass([Constant(v) for v in rng.uniform(-1, 1, 5)])
    loss_vectors = eval_loss(sq, cls.prediction_matrix(sample), sample.y)
    prof = finite_empirical_profile(vectors=loss_vectors)
    assert entropy_eval(prof, 1e-9) == pytest.approx(math.log(5))


def test_lambda_levels_below_one_rejected():
    cls = FiniteClass([Constant(0.0), Constant(1.0)])
    sample = _const_sample([0.0, 0.5])
    for levels in (0, -3):
        with pytest.raises(ValueError):
            fprime_matrix(cls, sample, levels)
        with pytest.raises(ValueError):
            offset_complexity_mc(square_loss(1.0), cls, None, sample, "exp_concave", draws=2, lambda_levels=levels)


def test_batched_offset_equals_row_by_row(rng):
    n = 16
    sample = _const_sample(rng.uniform(-1, 1, n))
    cls = FiniteClass([Constant(float(v)) for v in rng.uniform(-1, 1, 9)])
    F = fprime_matrix(cls, sample, 20)
    assert F.shape[0] == 693
    S = rng.choice([-1.0, 1.0], (5, n))
    ref = F[0]
    for kind, model in (("exp_concave", square_loss(1.0)), ("mu_d", square_loss(1.0)),
                        ("uniform_convex", p_loss(3.0, 1.0))):
        batched = offset_sup_one_draw(model, F, ref, sample, S, kind)
        single = [offset_sup_one_draw(model, F, ref, sample, s, kind) for s in S]
        assert isinstance(single[0], float)
        assert batched.shape == (5,)
        np.testing.assert_array_equal(batched, single)


@pytest.mark.parametrize("kind, model", [("exp_concave", square_loss(1.0)), ("mu_d", square_loss(1.0)),
                                         ("uniform_convex", p_loss(3.0, 1.0))])
def test_offset_draws_stream_in_blocks(monkeypatch, rng, kind, model):
    n, draws = 13, 23
    sample = _const_sample(rng.uniform(-1, 1, n))
    cls = FiniteClass([Constant(float(v)) for v in rng.uniform(-1, 1, 4)])
    whole = offset_complexity_mc(model, cls, Constant(0.1), sample, kind, draws=draws, seed=4)
    blocks = []

    def recording(model, F, ref, sample, signs, kind):
        blocks.append(signs.shape)
        return offset_sup_one_draw(model, F, ref, sample, signs, kind)

    monkeypatch.setattr(complexity, "offset_sup_one_draw", recording)
    rows = fprime_matrix(cls, sample).shape[0]
    assert rows > n  # blocks are sized by the longer of a sign row and a score row
    monkeypatch.setattr(complexity, "_SIGN_BLOCK_ENTRIES", 7 * rows + 5)  # 7 draws per block
    streamed = offset_complexity_mc(model, cls, Constant(0.1), sample, kind, draws=draws, seed=4)
    assert blocks == [(7, n), (7, n), (7, n), (2, n)]
    assert streamed.per_draw_sup.tobytes() == whole.per_draw_sup.tobytes()
    monkeypatch.setattr(complexity, "_SIGN_BLOCK_ENTRIES", 1)  # one draw per block at least
    blocks.clear()
    single = offset_complexity_mc(model, cls, Constant(0.1), sample, kind, draws=3, seed=4)
    assert blocks == [(1, n)] * 3
    assert single.per_draw_sup.tobytes() == whole.per_draw_sup[:3].tobytes()


_REFERENCE_BLOCK = 512


def _all_pairs_sups(model, psi_f, S):
    """Every pair of every draw, in _REFERENCE_BLOCK row blocks and the operation order of the exact enumeration."""
    size, n = psi_f.shape
    coef = _exp_concave_coefficient(model) / n
    ts = [psi_f @ s for s in S]
    q = np.einsum("ij,ij->i", psi_f, psi_f)
    best = [-math.inf] * len(S)
    for s0 in range(0, size, _REFERENCE_BLOCK):
        s1 = min(s0 + _REFERENCE_BLOCK, size)
        pen = psi_f[s0:s1] @ psi_f.T
        pen *= 2.0
        pen = np.subtract(q[s0:s1, None] + q[None, :], pen)
        np.maximum(pen, 0.0, out=pen)
        pen *= coef
        for d, t in enumerate(ts):
            block = t[s0:s1, None] - t[None, :]
            block *= 4.0 / n
            block -= pen
            block[np.arange(s1 - s0), np.arange(s0, s1)] = 0.0
            best[d] = max(best[d], float(block.max()))
    return np.array(best)


@pytest.mark.parametrize("case", ["random-n13", "random-n100", "random-n256", "argmax-copies",
                                  "identical-rows", "single-row", "log-loss"])
def test_exp_concave_pruned_sups_equal_all_pairs(case):
    rng = np.random.default_rng(2024)
    n = {"random-n13": 13, "random-n100": 100}.get(case, 256)
    model = log_loss(0.1) if case == "log-loss" else square_loss(1.0)
    lo, hi = model.domain
    F = rng.uniform(lo, hi, (1 if case == "single-row" else 700, n))
    if case == "identical-rows":
        F[:] = F[0]
    target = None if model.is_likelihood else rng.uniform(-1.0, 1.0, n)
    # integer-valued losses: every Gram entry is exact in any summation order
    psi = np.floor(8.0 * eval_loss(model, F, target))
    S = rng.choice([-1.0, 1.0], (16, n))
    if case == "argmax-copies":
        # 600 copies of draw 0's argmax row all tie at the top of t, so
        # more rows than one reference block survive the pruning
        psi = np.concatenate([psi, np.repeat(psi[[np.argmax(psi @ S[0])]], 600, axis=0)])
        t = psi @ S[0]
        assert np.sum(t == t.max()) > _REFERENCE_BLOCK
    got = _exp_concave_sups(model, psi, S)
    np.testing.assert_array_equal(got, _all_pairs_sups(model, psi, S))
    if case in ("identical-rows", "single-row"):
        np.testing.assert_array_equal(got, 0.0)
    else:
        assert np.all(got > 0.0)


def test_offset_signs_shape_checked():
    sample = _const_sample([0.1, 0.2])
    F = np.array([[0.0, 0.0], [0.5, 0.5]])
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((1, 1, 2)), np.empty((0, 2)), np.full(2, 0.5)):
        with pytest.raises(ValueError):
            offset_sup_one_draw(square_loss(1.0), F, None, sample, bad, "exp_concave")


def _loop_entropy(prof, V, eps):
    """Per-point H2(eps) in plain float arithmetic, the reference for the array path.

    V is the finite_empirical profile's vectors.
    """
    if prof.variant == "finite_empirical":
        h = math.log(len(greedy_cover_indices(V, eps)))
    elif prof.variant == "parametric":
        h = max(prof.k * prof.d * math.log(prof.A * prof.B / eps), 0.0)
    elif prof.variant == "power_law":
        h = (prof.A / eps) ** prof.q
    else:
        h = prof.value
    if prof.star_hull_correction and eps < 1.0:
        h += math.log(1.0 / eps)
    return h


def test_entropy_eval_array_matches_scalar(rng):
    V = rng.uniform(0, 1, (15, 6))
    # straddles 1 and reaches past A * B = 3, where the parametric profile clamps at 0
    eps = np.exp(np.linspace(math.log(1e-3), math.log(10.0), 57))
    eps = np.concatenate([eps, [1.0, 3.0, 5.0]])
    for corr in (False, True):
        profiles = [
            finite_empirical_profile(vectors=V, star_hull_correction=corr),
            parametric_profile(2, 2, 1.0, 3.0, star_hull_correction=corr),
            power_law_profile(0.5, 1.5, star_hull_correction=corr),
            constant_profile(3.0, star_hull_correction=corr),
        ]
        for prof in profiles:
            got = entropy_eval(prof, eps)
            assert got.shape == eps.shape
            scalar = [entropy_eval(prof, float(e)) for e in eps]
            assert all(isinstance(h, float) for h in scalar)
            np.testing.assert_allclose(got, scalar, rtol=1e-13, atol=0.0)
            loop = [_loop_entropy(prof, V, float(e)) for e in eps]
            np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0.0)
            grid = entropy_eval(prof, eps.reshape(4, 15))
            np.testing.assert_array_equal(grid, got.reshape(4, 15))
    assert entropy_eval(parametric_profile(2, 2, 1.0, 3.0), np.array([5.0]))[0] == 0.0
    with pytest.raises(ValueError):
        entropy_eval(constant_profile(1.0), np.array([0.5, 0.0]))


def test_finite_empirical_counts_match_greedy_cover(rng):
    for _ in range(10):
        V = rng.uniform(-1, 1, (int(rng.integers(2, 25)), 5))
        _, radii = greedy_cover_indices(V, 0.0, return_radii=True)
        # random radii plus every covering radius itself, where ties decide the count
        eps = np.concatenate([rng.uniform(0.01, 1.5, 30), radii[radii > 0]])
        got = entropy_eval(finite_empirical_profile(vectors=V), eps)
        want = np.log([len(greedy_cover_indices(V, float(e))) for e in eps])
        np.testing.assert_array_equal(got, want)


def _dyadic_case():
    """A class, sample and signs on a 1/8 grid: mixes at levels 4 are multiples of 1/32, so every
    loss, increment and product below is exact and no summation order can move a bit."""
    rng = np.random.default_rng(11)
    n = 16
    sample = _const_sample(rng.integers(-8, 9, n) / 8.0)
    cls = FiniteClass([Tabular(row) for row in rng.integers(-8, 9, (5, n)) / 8.0])
    return sample, fprime_matrix(cls, sample, 4), rng.choice([-1.0, 1.0], (6, n))


_KINDS = [("exp_concave", square_loss(1.0)), ("mu_d", square_loss(1.0)), ("uniform_convex", p_loss(3.0, 1.0))]


@pytest.mark.parametrize("kind, model", _KINDS)
def test_offset_row_blocks_move_no_bit(monkeypatch, kind, model):
    sample, F, S = _dyadic_case()
    ref = F[3]
    monkeypatch.setattr(complexity, "_ROW_BLOCK", len(F))
    whole = offset_sup_one_draw(model, F, ref, sample, S, kind)
    for rows in (1, 2, 3):
        monkeypatch.setattr(complexity, "_ROW_BLOCK", rows)
        assert offset_sup_one_draw(model, F, ref, sample, S, kind).tobytes() == whole.tobytes()
    # random data: the row blocks of the default size (a multiple of 8) group the
    # rows of each matrix-vector product as one product over the whole class does
    rng = np.random.default_rng(12)
    n = 100
    sample = _const_sample(rng.uniform(-1, 1, n))
    F = fprime_matrix(FiniteClass([Tabular(row) for row in rng.uniform(-1, 1, (7, n))]), sample, 20)
    S = rng.choice([-1.0, 1.0], (4, n))
    monkeypatch.setattr(complexity, "_ROW_BLOCK", len(F))
    whole = offset_sup_one_draw(model, F, F[0], sample, S, kind)
    monkeypatch.undo()
    assert len(F) > 2 * complexity._ROW_BLOCK and complexity._ROW_BLOCK % 8 == 0
    assert offset_sup_one_draw(model, F, F[0], sample, S, kind).tobytes() == whole.tobytes()
    if kind == "exp_concave":  # the row blocks only fill psi(F) here
        monkeypatch.setattr(complexity, "_ROW_BLOCK", 3)
        assert offset_sup_one_draw(model, F, None, sample, S, kind).tobytes() == whole.tobytes()


def _offset_case_m12():
    """The M = 12, n = 256, L = 20 mixture class of the offset benchmark's shape (1266 rows)."""
    rng = np.random.default_rng(7)
    n = 256
    x = rng.uniform(-1, 1, n)
    sample = Sample(x[:, None], np.clip(0.5 * x + 0.3 * rng.standard_normal(n), -1, 1))
    a, b = rng.uniform(-0.5, 0.5, (2, 12))
    cls = FiniteClass([Tabular(np.clip(a_ + b_ * x, -1, 1)) for a_, b_ in zip(a, b)])
    return cls, sample


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, model, bound", [("mu_d", square_loss(1.0), 2.0),
                                                ("uniform_convex", p_loss(3.0, 1.0), 2.0),
                                                ("exp_concave", square_loss(1.0), 2.75)])
def test_offset_memory_is_one_fprime_matrix_plus_blocks(kind, model, bound):
    cls, sample = _offset_case_m12()
    fprime_bytes = fprime_matrix(cls, sample, 20).nbytes
    assert fprime_bytes == 1266 * 256 * 8
    ref = None if kind == "exp_concave" else cls.members[0]
    peak = _traced_peak(lambda: offset_complexity_mc(model, cls, ref, sample, kind, draws=64, seed=3))
    assert peak <= bound * fprime_bytes


def test_exp_concave_memory_does_not_grow_with_draws():
    cls, sample = _offset_case_m12()
    assert complexity._SIGN_BLOCK_ENTRIES // max(sample.n, 1266) >= 64  # 64 draws are one block
    model = square_loss(1.0)
    peaks = [_traced_peak(lambda: offset_complexity_mc(model, cls, None, sample, "exp_concave", draws=d, seed=3))
             for d in (64, 1024)]
    assert peaks[1] <= 1.25 * peaks[0]


class _NeverEvaluated(FiniteClass):
    def prediction_matrix(self, sample):
        raise AssertionError("the class was evaluated")


def test_fprime_matrix_refuses_a_class_above_the_ceiling():
    sample = _const_sample(np.zeros(1000))
    cls = _NeverEvaluated([Constant(float(v)) for v in range(100)])
    # 100 + 4950 * 39 = 193150 rows x 1000 points > 2^27 entries
    with pytest.raises(ValueError, match=r"193150 rows.*--levels 40.*n = 1000"):
        fprime_matrix(cls, sample, 40)
    with pytest.raises(ValueError, match="ceiling"):
        offset_complexity_mc(square_loss(1.0), cls, None, sample, "exp_concave", draws=1, lambda_levels=40)
