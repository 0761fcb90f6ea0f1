import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starloc.bounds as bounds_module
import starloc.complexity as complexity_module
from starloc.bounds import (
    BoundInputs,
    _log_antiderivative,
    bigglm_rate,
    chaining_bound,
    entropy_integral,
    glm_bound,
    packing_bound,
)
from starloc.complexity import (
    constant_profile,
    entropy_eval,
    finite_empirical_profile,
    parametric_profile,
    power_law_profile,
)

H10 = constant_profile(10.0)


def test_packing_worked_example():
    inputs = BoundInputs(n=1000, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=H10)
    expected = 0.01 + 72.0 * (10.0 + math.log(20.0)) / 1000.0
    assert packing_bound(inputs) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.945693, abs=5e-7)


def test_packing_limits():
    # H = 0 and rho -> 1: only eps survives
    inputs = BoundInputs(n=1000, rho=1 - 1e-12, m=1.0, eta=1.0, eps=0.01,
                         entropy=constant_profile(0.0))
    assert packing_bound(inputs) == pytest.approx(0.01, abs=1e-10)
    a = BoundInputs(n=500, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=H10)
    b = BoundInputs(n=1000, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=H10)
    assert packing_bound(a) - 0.01 == pytest.approx(2 * (packing_bound(b) - 0.01), rel=1e-12)


def test_packing_monotonicity_grid():
    for n in (100, 1000, 10000):
        for h in (0.0, 5.0, 20.0):
            lo = BoundInputs(n=n, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=constant_profile(h))
            hi = BoundInputs(n=n, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=constant_profile(h + 1.0))
            assert packing_bound(hi) >= packing_bound(lo)
            more_n = BoundInputs(n=2 * n, rho=0.05, m=1.0, eta=1.0, eps=0.01, entropy=constant_profile(h))
            assert packing_bound(more_n) <= packing_bound(lo)


def test_entropy_integral_closed_form_matches_quadrature():
    # independent oracle for the quadrature path: exact power-law integral
    prof_exact = power_law_profile(1.0, 1.0)
    exact = entropy_integral(prof_exact, 0.1, 1.0)
    assert exact == pytest.approx(2.0 * (1.0 - math.sqrt(0.1)), rel=1e-12)
    # force quadrature through the correction flag with a zero-size correction
    prof_quad = power_law_profile(1.0, 1.0, star_hull_correction=True)
    quad = entropy_integral(prof_quad, 1.0, 2.0)  # eps >= 1: correction inactive
    assert quad == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-6)


# 30 vectors at scales spread over [0.03, 1.2], so the cover count steps
# many times inside [0.05, 1]
STEPPED_V = np.random.default_rng(7).standard_normal((30, 20)) * np.geomspace(0.03, 1.2, 30)[:, None]
# One profile of each closed-form family, with and without the star-hull
# correction, and the cuts inside [0, 2] between which H2 = alpha ln(1/s) + beta.
CLOSED_FORM = [
    *[(prof, [1.0]) for prof in (constant_profile(4.0, True), constant_profile(0.0, True),
                                  constant_profile(1e6, True), parametric_profile(1, 3, 2.0, 3.0, True))],
    (constant_profile(4.0), []),
    *[(parametric_profile(2, 2, 1.0, 0.25, corr), [0.25, 1.0]) for corr in (False, True)],
    *[(prof, [*prof.radii, 1.0]) for prof in (finite_empirical_profile(STEPPED_V, corr) for corr in (False, True))],
]
CLOSED_FORM_IDS = ["constant-4-corr", "constant-0-corr", "constant-1e6-corr", "parametric-AB6-corr", "constant-4",
                   "parametric-AB0.25", "parametric-AB0.25-corr", "finite", "finite-corr"]


@given(alpha=st.sampled_from([1.0, 2.0, 4.0, 5.0, 12.0]), beta=st.floats(0.0, 2e4),
       s=st.floats(1e-6, 0.999))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_log_antiderivative_differentiates_to_the_root(alpha, beta, s):
    # beta up to 2e4 puts u / alpha past 676, where erfcx takes its asymptotic series
    h = 1e-5 * s
    slope = (_log_antiderivative(s + h, alpha, beta) - _log_antiderivative(s - h, alpha, beta)) / (2 * h)
    assert slope == pytest.approx(math.sqrt(alpha * math.log(1 / s) + beta), rel=1e-7)


def test_log_antiderivative_series_meets_exp_erfc_where_erfcx_switches():
    # at u / alpha = 26^2 erfcx(26) comes from its asymptotic series; e^{676} erfc(26) is still finite
    direct = 26.0 + math.sqrt(math.pi) / 2.0 * math.exp(676.0) * math.erfc(26.0)
    assert _log_antiderivative(1.0, 1.0, 676.0) == pytest.approx(direct, rel=1e-15)


@pytest.mark.parametrize("prof, inner", CLOSED_FORM, ids=CLOSED_FORM_IDS)
def test_entropy_integral_differentiates_to_the_root_inside_each_piece(prof, inner):
    cuts = sorted({1e-4, 2.0, *(c for c in inner if 1e-4 < c < 2.0)})
    for left, right in zip(cuts[:-1], cuts[1:]):
        s = math.sqrt(left * right)
        h = 1e-6 * min(s - left, right - s)
        slope = entropy_integral(prof, s - h, s + h) / (2 * h)
        assert slope == pytest.approx(math.sqrt(entropy_eval(prof, s)), rel=1e-6, abs=1e-12)


@given(case=st.sampled_from(range(len(CLOSED_FORM))), c=st.floats(-6.0, 0.3),
       a_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.9)), b_frac=st.floats(0.001, 0.999))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_entropy_integral_is_additive(case, c, a_frac, b_frac):
    prof = CLOSED_FORM[case][0]
    c = 10.0**c
    a = a_frac * c
    b = a + b_frac * (c - a)
    whole = entropy_integral(prof, a, c)
    assert entropy_integral(prof, a, b) + entropy_integral(prof, b, c) == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("prof, inner, tol", [
    *[(prof, inner, 1e-11) for prof, inner in CLOSED_FORM[-2:]],  # finite_empirical
    (constant_profile(3.0, True), [1.0], 1e-9),
    # the root of u has infinite slope at u = 0 (s = AB), which slows the midpoint rule there
    (parametric_profile(2, 2, 1.0, 0.25, True), [0.25, 1.0], 1e-7),
], ids=["finite", "finite-corr", "constant-3-corr", "parametric-AB0.25-corr"])
def test_entropy_integral_matches_a_fine_midpoint_sum(prof, inner, tol):
    cuts = sorted({0.05, 1.0, *(c for c in inner if 0.05 < c < 1.0)})
    N = 1 << 14
    brute = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        h = (right - left) / N
        brute += math.fsum(np.sqrt(entropy_eval(prof, left + h * (np.arange(N) + 0.5))) * h)
    assert entropy_integral(prof, 0.05, 1.0) == pytest.approx(brute, rel=tol)


def test_entropy_integral_edge_cases():
    half_sqrt_pi = math.sqrt(math.pi) / 2.0
    # a = 0 in each family: int_0^c sqrt(kd ln(c/s)) ds = c sqrt(kd) sqrt(pi)/2
    assert entropy_integral(constant_profile(4.0), 0.0, 0.3) == pytest.approx(0.6, rel=1e-15)
    assert entropy_integral(parametric_profile(1, 1, 1.0, 1.0), 0.0, 1.0) == pytest.approx(half_sqrt_pi, rel=1e-14)
    got = entropy_integral(parametric_profile(2, 3, 0.5, 0.5), 0.0, 2.0)
    assert got == pytest.approx(0.25 * math.sqrt(6.0) * half_sqrt_pi, rel=1e-14)
    stepped = finite_empirical_profile(STEPPED_V)
    radii = [0.0, *sorted(set(stepped.radii[:-1].tolist()))]
    steps = math.fsum(math.sqrt(math.log(1 + np.sum(stepped.radii[:-1] > l))) * (r - l)
                      for l, r in zip(radii[:-1], radii[1:]))
    assert entropy_integral(stepped, 0.0, radii[-1]) == pytest.approx(steps, rel=1e-14)
    # AB = 0.25 inside (a, b): nothing above AB, and u = 0 at s = AB itself
    prof = parametric_profile(2, 2, 1.0, 0.25)
    assert entropy_integral(prof, 0.25, 2.0) == 0.0
    assert entropy_integral(prof, 0.1, 2.0) == entropy_integral(prof, 0.1, 0.25) > 0.0
    # a constant 1e6, corrected: sqrt(1e6 + L) expanded in L = ln(1/s), int_0^1 L^j ds = j!
    series = 1e3 * (1.0 + 0.5e-6 - 0.25e-12 + 0.375e-18)
    assert entropy_integral(constant_profile(1e6, True), 0.0, 1.0) == pytest.approx(series, rel=1e-14)
    # a constant 0, corrected: u = 0 at s = 1, and int_{1/2}^1 sqrt(ln(1/s)) ds has a closed form by erf
    zero = constant_profile(0.0, True)
    expected = half_sqrt_pi * math.erf(math.sqrt(math.log(2.0))) - 0.5 * math.sqrt(math.log(2.0))
    assert entropy_integral(zero, 0.5, 1.0) == pytest.approx(expected, rel=1e-14)
    assert entropy_integral(zero, 0.5, 3.0) == entropy_integral(zero, 0.5, 1.0)
    assert entropy_integral(zero, 1.0, 3.0) == 0.0


def test_entropy_integral_zero_lower_limit():
    assert entropy_integral(power_law_profile(1.0, 1.0), 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # sqrt(ln(1/s)) integrates to sqrt(pi)/2 on (0, 1)
    got = entropy_integral(constant_profile(0.0, star_hull_correction=True), 0.0, 1.0)
    assert got == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
    assert entropy_integral(power_law_profile(1.0, 2.0), 0.0, 1.0) == math.inf
    # corrected power law with a zero lower limit goes through the substitution
    got = entropy_integral(power_law_profile(1.0, 1.0, star_hull_correction=True), 0.0, 1.0)
    assert got > 2.0  # correction only adds entropy


def test_overflowing_corrected_power_law_stops_at_the_first_infinite_grid(monkeypatch):
    # (A / s)^q overflows for A = 1e300: every trapezoid sum is inf, and no later grid can change that.
    # q = 1.5 with a = 0 takes the power substitution (q >= 2 diverges there before any grid).
    grids = []
    trapezoid = bounds_module._trapezoid

    def counted(f, grid):
        grids.append(grid.size)
        return trapezoid(f, grid)

    monkeypatch.setattr(bounds_module, "_trapezoid", counted)
    for q, a in ((3.0, 0.5), (1.5, 0.0)):
        grids.clear()
        assert entropy_integral(power_law_profile(1e300, q, star_hull_correction=True), a, 1.0) == math.inf
        assert 1 <= len(grids) <= 2


def test_chaining_worked_example():
    inputs = BoundInputs(n=10**4, rho=1 - 1e-15, m=1.0, eta=1.0, alpha=0.0, gamma=1.0,
                         entropy=power_law_profile(1.0, 1.0))
    expected = 12.0 / 100.0 * 2.0 + 72.0 / 10**4 + 1.0 / math.sqrt(1.0 + 10**8)
    got = chaining_bound(inputs)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(0.2473, abs=5e-5)


def test_chaining_h_zero():
    inputs = BoundInputs(n=100, rho=0.5, m=1.0, eta=1.0, gamma=2.0,
                         entropy=constant_profile(0.0))
    assert chaining_bound(inputs) == pytest.approx(0.5 / math.sqrt(4.0 + 10_000.0), rel=1e-12)


def test_chaining_monotone_in_n():
    prev = math.inf
    for n in (100, 400, 1600, 6400):
        inputs = BoundInputs(n=n, rho=0.5, m=1.0, eta=1.0, alpha=0.01, gamma=1.0,
                             entropy=power_law_profile(1.0, 1.0))
        val = chaining_bound(inputs)
        assert val <= prev
        prev = val


def test_chaining_infimum_beats_random_alphas(rng):
    # Stepped H2 of 15 x 6 vectors: at n = 18, n/9 = 2 lies between ln 7 and
    # ln 8, so the infimum sits on a covering radius. Every profile is also
    # pinned at the radii where the cover count steps.
    stepped = finite_empirical_profile(vectors=np.random.default_rng(5).standard_normal((15, 6)) * 0.3)
    radii = stepped.radii[:-1]
    cases = [
        (power_law_profile(1.0, 1.0), 2000),
        (power_law_profile(0.5, 1.5), 2000),
        (parametric_profile(2, 2, 1.0, 3.0), 2000),
        (constant_profile(4.0, star_hull_correction=True), 2000),
        (stepped, 18),
        # H2 = 4 > n/9 on all of [0, gamma]: the infimum sits at gamma
        (constant_profile(4.0), 18),
        # the star-hull-corrected parametric shape the benchmark bounds
        (parametric_profile(2, 2, 1.0, 3.0, star_hull_correction=True), 1024),
    ]
    for prof, n in cases:
        free = BoundInputs(n=n, rho=0.3, m=2.0, eta=0.5, gamma=1.0, entropy=prof)
        inf_val = chaining_bound(free)
        for alpha in np.concatenate([rng.uniform(0.0, 1.0, 20), radii]):
            pinned = BoundInputs(n=n, rho=0.3, m=2.0, eta=0.5, alpha=float(alpha), gamma=1.0, entropy=prof)
            assert inf_val <= chaining_bound(pinned) + 1e-9 * (1 + abs(inf_val))


def test_finite_empirical_bounds_reuse_the_profile_traversal(monkeypatch):
    # The profile runs the one farthest-point traversal; bounds read its radii.
    calls = []
    greedy = complexity_module.greedy_cover_indices

    def counting(*args, **kwargs):
        calls.append(args[1])
        return greedy(*args, **kwargs)

    monkeypatch.setattr(complexity_module, "greedy_cover_indices", counting)
    V = np.random.default_rng(3).standard_normal((40, 8)) * np.geomspace(0.01, 1.0, 40)[:, None]
    for corr in (False, True):
        prof = finite_empirical_profile(vectors=V, star_hull_correction=corr)
        assert calls == [0.0]
        # H2 crosses n/9 = 2 inside (0, gamma), so the free alpha is a bisection
        assert entropy_eval(prof, 1.0) <= 2.0 < entropy_eval(prof, 1e-9)
        chaining_bound(BoundInputs(n=18, rho=0.1, m=2.0, eta=0.5, gamma=1.0, entropy=prof))
        packing_bound(BoundInputs(n=18, rho=0.1, m=2.0, eta=0.5, eps=0.05, entropy=prof))
        entropy_integral(prof, 0.0, 1.0)
        assert calls == [0.0]
        calls.clear()


def test_chaining_rejects_bad_alpha():
    inputs = BoundInputs(n=100, rho=0.5, m=1.0, eta=1.0, alpha=2.0, gamma=1.0,
                         entropy=constant_profile(0.0))
    with pytest.raises(ValueError):
        chaining_bound(inputs)


def test_glm_bound_worked_example():
    inputs = BoundInputs(n=1000, rho=0.05)
    got = glm_bound(inputs, 2, 2, 1.0, 3.0)
    expected = 4.0 * math.log(3000.0) ** 2 * math.log(20.0) / 1000.0
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.768, abs=5e-4)
    double_c = BoundInputs(n=1000, rho=0.05, C=2.0)
    assert glm_bound(double_c, 2, 2, 1.0, 3.0) == pytest.approx(2 * got, rel=1e-12)
    near_one = BoundInputs(n=1000, rho=1 - 1e-15)
    assert glm_bound(near_one, 2, 2, 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)


def test_bigglm_rate_table():
    assert bigglm_rate(1.0, "lipschitz_glm", 1.0, math.e) == pytest.approx(math.e ** (-2.0 / 3.0), rel=1e-12)
    n = 1024.0
    assert bigglm_rate(2.0, "lipschitz_glm", 2.0, n) == pytest.approx(4.0 * n**-0.5 * math.log(n), rel=1e-12)
    assert bigglm_rate(3.0, "lipschitz_glm", 2.0, n) == pytest.approx(8.0 * n ** (-1.0 / 3.0), rel=1e-12)
    assert bigglm_rate(4.0, "arbitrary_log", 1.0, n) == pytest.approx(n ** (-1.0 / 8.0), rel=1e-12)
    assert bigglm_rate(1.0, "arbitrary_log", 1.0, n) == pytest.approx(n ** (-1.0 / 2.5), rel=1e-12)
    assert bigglm_rate(2.0, "arbitrary_log", 1.0, n) == pytest.approx(n**-0.25 * math.log(n), rel=1e-12)
    with pytest.raises(ValueError):
        bigglm_rate(-1.0, "lipschitz_glm", 1.0, 100)
    with pytest.raises(ValueError):
        bigglm_rate(1.0, "bogus", 1.0, 100)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n=0, rho=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n=10, rho=1.5)
    with pytest.raises(ValueError):
        packing_bound(BoundInputs(n=10, rho=0.5, m=1.0, eta=1.0, entropy=H10))  # missing eps
