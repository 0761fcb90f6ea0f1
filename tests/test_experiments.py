import concurrent.futures
import gc
import itertools
import json
import math
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from starloc import experiments
from starloc.estimators import erm_finite, star_fit
from starloc.experiments import (
    _DATA_TAG,
    _ORACLE_TAG,
    _logistic_oracle,
    _regularized_likelihoods,
    ExperimentConfig,
    bound_vs_empirical,
    fit_rate,
    gen_logistic_data,
    gen_ploss_data,
    gen_twopoint_data,
    ploss_members,
    population_excess_risk,
    results_csv,
    run_rate_experiment,
    summary_dict,
)
from starloc.losses import link_softmax, p_loss, square_loss
from starloc.predictors import Constant, FiniteClass, Sample

# 0.999 chi-square quantiles, k - 1 degrees of freedom
_CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266}


def test_gen_logistic_uniform_labels_when_w_zero():
    s = gen_logistic_data(10_000, 2, 3, 1.0, np.zeros((3, 2)), seed=0)
    counts = np.bincount(s.y, minlength=3)
    expected = 10_000 / 3
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < _CHI2_999[2]


def test_gen_logistic_deterministic():
    W = np.array([[1.0, 0.5], [-1.0, -0.5]])
    a = gen_logistic_data(500, 2, 2, 3.0, W, seed=42)
    b = gen_logistic_data(500, 2, 2, 3.0, W, seed=42)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = gen_logistic_data(500, 2, 2, 3.0, W, seed=43)
    assert not np.array_equal(a.y, c.y)


def test_gen_logistic_extreme_w_concentrates():
    W = np.array([[10.0, 0.0], [-10.0, 0.0]])
    s = gen_logistic_data(10_000, 2, 2, 10.0, W, seed=1)
    probs = link_softmax(s.X @ W.T)
    majority = probs.argmax(axis=1)
    assert float(np.mean(s.y == majority)) > 0.9


def test_gen_logistic_rejects_oversized_w():
    with pytest.raises(ValueError):
        gen_logistic_data(10, 2, 2, 1.0, np.array([[3.0, 0.0], [0.0, 0.0]]), seed=0)
    with pytest.raises(ValueError, match="shape"):
        gen_logistic_data(10, 2, 2, 1.0, np.zeros((3, 2)), seed=0)


def test_gen_twopoint_population_gap():
    sample, cls = gen_twopoint_data(200_000, 1.0, 0.25, 1.0, seed=5)
    y = sample.y
    gap = float(np.mean((-1.0 - y) ** 2) - np.mean((1.0 - y) ** 2))
    assert gap == pytest.approx(4.0 * 1.0 * 0.25, abs=0.03)
    assert len(cls) == 2
    with pytest.raises(ValueError):
        gen_twopoint_data(10, 0.5, 0.7, 1.0, seed=0)


def test_gen_twopoint_zero_noise_erm():
    sample, cls = gen_twopoint_data(1, 1.0, 0.1, 0.0, seed=0)
    from starloc.estimators import erm_finite

    idx, _ = erm_finite(square_loss(9.0), cls, sample)
    assert idx == 0  # +c has the smaller risk


def test_gen_ploss_mean_and_optimum():
    s = gen_ploss_data(400_000, 0.2, 0.2, seed=9)
    # mean sits strictly between the members 0.0667 and 0.2
    assert float(s.y.mean()) == pytest.approx(0.12, abs=0.002)
    # the p = 3 first-order condition E[(v - Y)^2 sgn(v - Y)] vanishes at 0.2;
    # the sample version fluctuates with sd ~ 1.3e-4 at this size
    foc = float(np.mean((0.2 - s.y) ** 2 * np.sign(0.2 - s.y)))
    assert abs(foc) < 6e-4


def test_population_excess_risk_basics(rng):
    sq = square_loss(2.0)
    oracle = Sample(np.zeros((200_000, 1)), 0.3 + 0.5 * rng.standard_normal(200_000).clip(-3, 3))
    cls = FiniteClass([Constant(0.3), Constant(-0.5)])
    best = population_excess_risk(sq, Constant(0.3), oracle, cls=cls)
    assert abs(best) < 1e-12  # the best member has zero excess by construction
    worse = population_excess_risk(sq, Constant(-0.5), oracle, cls=cls)
    assert worse > 0.5
    vs_star = population_excess_risk(sq, Constant(0.31), oracle, f_star=Constant(0.3))
    assert 0 < vs_star < 0.01
    with pytest.raises(ValueError):
        population_excess_risk(sq, Constant(0.3), oracle)


def test_fit_rate_examples():
    ns = [16, 64, 256, 1024]
    slope, intercept, r2 = fit_rate([(n, 2.0 / n) for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(2.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, _, _ = fit_rate([(n, 0.7) for n in ns])
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, _, _ = fit_rate([(n, n**-0.5) for n in ns])
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_drops_nonpositive_rows():
    ns = [16, 64, 256, 1024]
    with pytest.warns(UserWarning):
        slope, _, _ = fit_rate([(8, -0.1)] + [(n, 1.0 / n) for n in ns])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([(8, -1.0), (16, 1.0), (32, 0.5)])


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(name="bogus", n_grid=(8, 16, 32))
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig(name="ploss_rate", n_grid=(16, 8, 32))
    with pytest.raises(ValueError, match="oracle_size"):
        ExperimentConfig(name="ploss_rate", n_grid=(8, 16, 32), oracle_size=10)
    with pytest.raises(ValueError, match="n_grid"):
        ExperimentConfig(name="ploss_rate", n_grid=(8, 16))
    cfg = ExperimentConfig(name="logistic_rate", n_grid=(8, 16, 32), delta="1/n", oracle_size=100_000)
    assert cfg.delta_at(16) == pytest.approx(1 / 16)


SMALL = dict(n_grid=(32, 64, 128), replications=12, seed=11, oracle_size=100_000)


def test_run_nonconvex_reports_and_determinism():
    cfg = ExperimentConfig(name="nonconvex_gap", **SMALL)
    res = run_rate_experiment(cfg)
    assert set(res.reports) == {"erm", "star"}
    for rep in res.reports.values():
        assert all(row.mean > -1e-12 for row in rep.rows)
    res2 = run_rate_experiment(cfg)
    assert results_csv(res) == results_csv(res2)
    assert json.dumps(summary_dict(res), sort_keys=True) == json.dumps(summary_dict(res2), sort_keys=True)


def test_run_parallel_matches_serial():
    cfg = ExperimentConfig(name="nonconvex_gap", **SMALL)
    serial = run_rate_experiment(cfg, n_jobs=1)
    parallel = run_rate_experiment(cfg, n_jobs=2)
    assert results_csv(serial) == results_csv(parallel)


def test_star_not_statistically_worse_than_erm():
    cfg = ExperimentConfig(name="nonconvex_gap", n_grid=(32, 64, 128), replications=40,
                           seed=2, oracle_size=100_000)
    res = run_rate_experiment(cfg)
    for row_s, row_e in zip(res.reports["star"].rows, res.reports["erm"].rows):
        se = math.hypot(row_s.se, row_e.se)
        assert row_s.mean <= row_e.mean + 3 * se


def test_bound_vs_empirical_dominates_small():
    cfg = ExperimentConfig(name="ploss_rate", **SMALL)
    res = run_rate_experiment(cfg)
    rows = bound_vs_empirical(cfg, res)
    assert [r[0] for r in rows] == [32, 64, 128]
    for n, q95, bound in rows:
        assert bound >= q95
    # bound column reproduces packing_bound bit for bit on the same inputs
    rows2 = bound_vs_empirical(cfg, res)
    assert rows == rows2


def test_results_csv_shape():
    cfg = ExperimentConfig(name="ploss_rate", n_grid=(32, 64, 128), replications=3,
                           seed=4, oracle_size=100_000)
    res = run_rate_experiment(cfg)
    lines = results_csv(res).strip().split("\n")
    assert lines[0] == "experiment,estimator,n,replication,excess_risk"
    assert len(lines) == 1 + 3 * 3
    assert all(line.count(",") == 4 for line in lines)


def test_oracle_consistency_doubling():
    base = ExperimentConfig(name="ploss_rate", n_grid=(32, 64, 128), replications=20,
                            seed=6, oracle_size=100_000)
    double = ExperimentConfig(name="ploss_rate", n_grid=(32, 64, 128), replications=20,
                              seed=6, oracle_size=200_000)
    r1 = run_rate_experiment(base)
    r2 = run_rate_experiment(double)
    ok = 0
    total = 0
    for a, b in zip(r1.reports["star"].rows, r2.reports["star"].rows):
        total += 1
        if abs(a.mean - b.mean) < 3 * math.hypot(a.se, b.se) + 1e-12:
            ok += 1
    assert ok >= total - 1


# The blocks score constants from the oracle's sufficient statistics; these
# tests materialize the dense oracle Sample from the same draws and score
# every point, as the experiments did before the compression.
EXACT = dict(n_grid=(32, 64, 128), replications=6, seed=3, oracle_size=100_000)


def _by_key(result):
    return {(est, n, rep): excess for est, n, rep, excess in result.records}


def test_nonconvex_compressed_oracle_is_exact():
    cfg = ExperimentConfig(name="nonconvex_gap", **EXACT)
    got = _by_key(run_rate_experiment(cfg))
    model = square_loss(cfg.c + 8.0 * cfg.sigma)
    erm_picked_best = 0
    for n in cfg.n_grid:
        b = cfg.sigma / (4.0 * math.sqrt(n))
        rng = np.random.default_rng((cfg.seed, n, _ORACLE_TAG))
        y = b + cfg.sigma * np.clip(rng.standard_normal(cfg.oracle_size), -8.0, 8.0)
        dense = Sample(np.zeros((cfg.oracle_size, 1)), y)
        for rep in range(cfg.replications):
            sample, cls = gen_twopoint_data(n, cfg.c, b, cfg.sigma, (cfg.seed, n, rep, _DATA_TAG))
            idx, _ = erm_finite(model, cls, sample)
            fit = star_fit(model, cls, sample)
            e_erm = population_excess_risk(model, cls.members[idx], dense, f_star=Constant(cfg.c))
            e_star = population_excess_risk(model, fit.combined, dense, f_star=Constant(b))
            assert got[("erm", n, rep)] == pytest.approx(e_erm, rel=0, abs=1e-12)
            assert got[("star", n, rep)] == pytest.approx(e_star, rel=0, abs=1e-12)
            if idx == 0:  # the ERM picked the best constant, +c
                erm_picked_best += 1
                assert got[("erm", n, rep)] == 0.0
    assert erm_picked_best > 0


def _serial_target_mean(cfg, n, chunk):
    """The size-n oracle's target mean from one draw of all its normals: the chunk sums, added in order."""
    b = cfg.sigma / (4.0 * math.sqrt(n))
    rng = np.random.default_rng((cfg.seed, n, _ORACLE_TAG))
    y = b + cfg.sigma * np.clip(rng.standard_normal(cfg.oracle_size), -8.0, 8.0)
    return sum(float(np.sum(y[start:start + chunk])) for start in range(0, y.size, chunk)) / y.size


def _serial_nonconvex_records(cfg, cells, chunk=None):
    """The nonconvex block's records from a fresh oracle draw per sample size, scored after each fit.

    The oracle means add the sums of chunks of chunk normals (default: the library's chunk size).
    """
    chunk = chunk or experiments._DRAW_CHUNK
    model = square_loss(cfg.c + 8.0 * cfg.sigma)
    out = []
    for n, group in itertools.groupby(cells, key=lambda cell: cell[0]):
        b = cfg.sigma / (4.0 * math.sqrt(n))
        oracle = experiments._atom_oracle(model, [_serial_target_mean(cfg, n, chunk)], [1.0])
        for _, rep in group:
            sample, cls = gen_twopoint_data(n, cfg.c, b, cfg.sigma, (cfg.seed, n, rep, _DATA_TAG))
            fit = star_fit(model, cls, sample)
            out.append(("erm", n, rep, population_excess_risk(model, fit.erm, oracle, f_star=Constant(cfg.c))))
            out.append(("star", n, rep, population_excess_risk(model, fit.combined, oracle, f_star=Constant(b))))
    return out


@pytest.mark.parametrize("seed", [3, 8])
def test_overlapped_oracle_draws_match_serial_draws(seed):
    cfg = ExperimentConfig(name="nonconvex_gap", n_grid=(32, 64, 128), replications=3, seed=seed,
                           oracle_size=100_003)
    cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    for block in (cells, cells[1::2]):  # a whole run, and one task of a two-process run
        assert experiments._block_nonconvex(cfg, block) == _serial_nonconvex_records(cfg, block)
    assert experiments._block_nonconvex(cfg, []) == []


def test_chunked_oracle_draws_match_one_draw(monkeypatch):
    # 100,003 normals in chunks of 4,096 floats: 24 whole chunks and a partial one.
    monkeypatch.setattr(experiments, "_DRAW_CHUNK", 4096)
    cfg = ExperimentConfig(name="nonconvex_gap", n_grid=(32, 64, 128), replications=2, seed=4,
                           oracle_size=100_003)
    cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    assert experiments._block_nonconvex(cfg, cells) == _serial_nonconvex_records(cfg, cells, chunk=4096)
    model = square_loss(cfg.c + 8.0 * cfg.sigma)
    for n in cfg.n_grid:
        b = cfg.sigma / (4.0 * math.sqrt(n))
        y = b + cfg.sigma * np.clip(np.random.default_rng((cfg.seed, n, _ORACLE_TAG)).standard_normal(cfg.oracle_size),
                                    -8.0, 8.0)
        mean = experiments._twopoint_target_mean(cfg, n, model, np.empty(4096))
        assert mean == pytest.approx(float(np.mean(y)), rel=1e-12, abs=0)


@pytest.mark.parametrize("chunk", [1000, None])  # None: the library's chunk size
def test_chunked_ploss_count_equals_one_draw_count(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
    cfg = ExperimentConfig(name="ploss_rate", n_grid=(16, 32, 64), seed=6, oracle_size=300_007)
    high = int(np.count_nonzero(np.random.default_rng((cfg.seed, _ORACLE_TAG)).random(cfg.oracle_size) < 0.2))
    oracle = experiments._ploss_oracle(cfg, p_loss(cfg.p, cfg.B))
    assert oracle.weights.tolist() == [high, cfg.oracle_size - high]


def _traced_peak(fn):
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_oracles_hold_memory_independent_of_oracle_size():
    # Both oracles draw through one fixed-size buffer, so four times the points
    # must not take more memory (one oracle-sized buffer would take four times as much).
    def peaks(name, run):
        configs = [ExperimentConfig(name=name, n_grid=(8, 16, 32), replications=1, seed=2, oracle_size=size)
                   for size in (100_000, 1_000_000, 4_000_000)]
        run(configs[0])  # a first call's one-time allocations are not the oracle's
        return [_traced_peak(lambda: run(cfg)) for cfg in configs[1:]]

    nonconvex = peaks("nonconvex_gap", lambda cfg: experiments._block_nonconvex(cfg, [(8, 0), (16, 0), (32, 0)]))
    ploss = peaks("ploss_rate", lambda cfg: experiments._ploss_oracle(cfg, p_loss(cfg.p, cfg.B)))
    for small, large in (nonconvex, ploss):
        assert large <= 1.25 * small, (small, large)
        assert large <= 2 * 8 * experiments._DRAW_CHUNK


@pytest.mark.parametrize("layer, at_second_size", [
    ("_twopoint_target_mean", lambda config, n, model, z: n == 64),  # on the worker thread
    ("star_fit", lambda model, cls, sample: len(sample.y) == 64),  # on the main thread
], ids=["worker-draw", "main-fit"])
def test_nonconvex_errors_propagate_and_leave_no_thread(monkeypatch, layer, at_second_size):
    cfg = ExperimentConfig(name="nonconvex_gap", n_grid=(32, 64, 128), replications=2, seed=1,
                           oracle_size=100_000)
    error = RuntimeError(f"{layer} failed")
    original = getattr(experiments, layer)

    def failing(*args):
        if at_second_size(*args):
            raise error
        return original(*args)

    monkeypatch.setattr(experiments, layer, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_rate_experiment(cfg)
    assert info.value is error
    assert threading.active_count() == before


def test_nonconvex_fits_need_not_wait_for_the_oracle(monkeypatch):
    # The worker takes every size's oracle mean in turn without the main
    # thread: a first fit that blocks until the last size is done must not
    # stall the run.
    cfg = ExperimentConfig(name="nonconvex_gap", n_grid=(32, 64, 128), replications=2, seed=1,
                           oracle_size=100_000)
    cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    done, all_done = [], threading.Event()
    target_mean, fit = experiments._twopoint_target_mean, experiments.star_fit

    def recording_target_mean(config, n, model, z):
        mean = target_mean(config, n, model, z)
        done.append(n)
        if len(done) == len(cfg.n_grid):
            all_done.set()
        return mean

    def waiting_fit(model, cls, sample):
        assert all_done.wait(timeout=10.0), f"the worker finished only n = {done} while the first fit waited"
        return fit(model, cls, sample)

    monkeypatch.setattr(experiments, "_twopoint_target_mean", recording_target_mean)
    monkeypatch.setattr(experiments, "star_fit", waiting_fit)
    assert experiments._block_nonconvex(cfg, cells) == _serial_nonconvex_records(cfg, cells)
    assert done == list(cfg.n_grid)


def test_ploss_compressed_oracle_is_exact():
    cfg = ExperimentConfig(name="ploss_rate", **EXACT)
    got = _by_key(run_rate_experiment(cfg))
    model = p_loss(cfg.p, cfg.B)
    cls = ploss_members(cfg)
    rng = np.random.default_rng((cfg.seed, _ORACLE_TAG))
    eps = np.where(rng.random(cfg.oracle_size) < 0.2, 2.0 * cfg.noise, -cfg.noise)
    dense = Sample(np.zeros((cfg.oracle_size, 1)), cfg.center + eps)
    for n in cfg.n_grid:
        for rep in range(cfg.replications):
            sample = gen_ploss_data(n, cfg.center, cfg.noise, (cfg.seed, n, rep, _DATA_TAG))
            fit = star_fit(model, cls, sample)
            expected = population_excess_risk(model, fit.combined, dense, cls=cls)
            assert got[("star", n, rep)] == pytest.approx(expected, rel=0, abs=1e-12)


# The logistic oracle is held with each chunk's rows sorted by label and is
# scored one label block at a time; these tests compare it with the dense
# formula over unsorted draws. Its sums run chunk by chunk, so its means move
# from the whole-array means by rounding only.


def _dense_likelihoods(W, X, y, delta, k):
    Z = X @ W.T
    Zy = Z[np.arange(Z.shape[0]), y]
    return (1.0 - delta) / np.exp(Z - Zy[:, None]).sum(axis=1) + delta / k


def _label_sorted(X, y, k):
    order = np.argsort(y, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(y, minlength=k))))
    return X[order], y[order], bounds


def _chunk_sorted(X, y, k, chunk):
    """X with each chunk's rows sorted by label, and each chunk's label bounds, as _logistic_oracle keeps them."""
    starts = range(0, X.shape[0], chunk)
    parts = [_label_sorted(X[s:s + chunk], y[s:s + chunk], k) for s in starts]
    return np.concatenate([Xs for Xs, _, _ in parts]), np.array([s + b for s, (_, _, b) in zip(starts, parts)])


@pytest.mark.parametrize("k, labels", [(2, (0, 1)), (2, (1,)), (3, (0, 1, 2)), (3, (0, 2))])
def test_block_likelihoods_match_dense_formula(k, labels):
    rng = np.random.default_rng((k, len(labels)))
    X = 4.0 * rng.standard_normal((3_000, 2))
    y = rng.choice(np.array(labels), size=X.shape[0])
    Xs, ys, bounds = _label_sorted(X, y, k)
    assert np.count_nonzero(np.diff(bounds) == 0) == k - len(labels)
    for scale in (0.3, 3.0):  # the larger scale gives score gaps of about 100
        W = scale * rng.standard_normal((k, 2))
        for delta in (0.0, 0.05):
            got = _regularized_likelihoods(W, Xs, bounds, delta, k)
            np.testing.assert_allclose(got, _dense_likelihoods(W, Xs, ys, delta, k), rtol=1e-12, atol=0)


def test_logistic_oracle_sorts_the_dense_draws():
    for k, W_true in ((2, None), (3, ((1.0, 0.5), (-1.0, -0.5), (0.0, 0.0)))):
        cfg = ExperimentConfig(name="logistic_rate", n_grid=(32, 64, 128), seed=7,
                               oracle_size=100_000, B=3.0, k=k, W_true=W_true)
        X, bounds, ref_loss = _logistic_oracle(cfg)
        dense = gen_logistic_data(cfg.oracle_size, cfg.d, k, cfg.B, cfg.w_true(), (cfg.seed, _ORACLE_TAG))
        probs = link_softmax(dense.X @ cfg.w_true().T)
        expected = float(np.mean(-np.log(probs[np.arange(cfg.oracle_size), dense.y])))
        assert ref_loss == pytest.approx(expected, rel=1e-13, abs=0)
        Xs, expected_bounds = _chunk_sorted(dense.X, dense.y, k, experiments._ORACLE_CHUNK)
        assert np.array_equal(bounds, expected_bounds)  # every chunk's label counts
        assert np.array_equal(X, Xs)


@pytest.mark.parametrize("chunk", [experiments._ORACLE_CHUNK, 777])
def test_streamed_oracle_losses_equal_the_dense_formula(monkeypatch, chunk):
    # k = 3 with no point labelled 1, and an oracle that is no multiple of the chunk
    monkeypatch.setattr(experiments, "_ORACLE_CHUNK", chunk)
    rng = np.random.default_rng(11)
    X = 3.0 * rng.standard_normal((100_003, 2))
    y = rng.choice(np.array([0, 2]), size=X.shape[0])
    Xs, bounds = _chunk_sorted(X, y, 3, chunk)
    assert np.all(bounds[:, 1] == bounds[:, 2])
    fits = [(0.01, *rng.uniform(-1.0, 1.0, (2, 3, 2)), 0.37), (0.2, *rng.uniform(-1.0, 1.0, (2, 3, 2)), 1.0)]
    losses = experiments._oracle_losses(fits, Xs, bounds, 3)
    for (delta, W_left, W_right, lam), got in zip(fits, losses):
        q_left = _dense_likelihoods(W_left, X, y, delta, 3)
        q_right = _dense_likelihoods(W_right, X, y, delta, 3)
        expected = (np.mean(-np.log(q_left)), np.mean(-np.log(lam * q_left + (1.0 - lam) * q_right)))
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
    # The oracle drawn in chunks holds the same points as one drawn whole, and scores them the same.
    cfg = ExperimentConfig(name="logistic_rate", n_grid=(32, 64, 128), oracle_size=100_003, B=3.0)
    X, bounds, ref_loss = _logistic_oracle(cfg)
    assert bounds.shape == (-(-cfg.oracle_size // chunk), cfg.k + 1)
    monkeypatch.setattr(experiments, "_ORACLE_CHUNK", cfg.oracle_size)
    X_whole, bounds_whole, ref_whole = _logistic_oracle(cfg)
    assert np.array_equal(X[np.lexsort(X.T)], X_whole[np.lexsort(X_whole.T)])
    assert bounds[:, 1].sum() - bounds[:, 0].sum() == bounds_whole[0, 1]  # the label-0 count
    assert ref_loss == pytest.approx(ref_whole, rel=1e-13, abs=0)
    fit = [(0.01, cfg.w_true(), 0.5 * cfg.w_true(), 0.6)]
    np.testing.assert_allclose(experiments._oracle_losses(fit, X, bounds, cfg.k),
                               experiments._oracle_losses(fit, X_whole, bounds_whole, cfg.k), rtol=1e-13, atol=0)


def test_a_cells_oracle_losses_do_not_depend_on_the_other_cells():
    cfg = ExperimentConfig(name="logistic_rate", n_grid=(32, 64, 128), oracle_size=100_003, B=3.0, k=3,
                           W_true=((1.0, 0.5), (-1.0, -0.5), (0.0, 0.0)))
    X, bounds, _ = _logistic_oracle(cfg)
    rng = np.random.default_rng(4)
    fits = [(delta, *rng.uniform(-1.0, 1.0, (2, 3, 2)), lam) for delta, lam in ((0.01, 0.3), (0.1, 0.9), (0.5, 0.0))]
    together = experiments._oracle_losses(fits, X, bounds, cfg.k)
    for fit, means in zip(fits, together):
        assert experiments._oracle_losses([fit], X, bounds, cfg.k) == [means]
    assert experiments._oracle_losses(fits[::-1], X, bounds, cfg.k) == together[::-1]


LOGISTIC_SMALL = dict(n_grid=(32, 64, 128), replications=2, seed=5, oracle_size=100_000,
                      delta="1/n", B=3.0)


def test_logistic_parallel_matches_serial_and_builds_one_oracle(monkeypatch):
    cfg = ExperimentConfig(name="logistic_rate", **LOGISTIC_SMALL)
    built = []
    original = experiments._logistic_oracle

    def counted(config):
        oracle = original(config)
        built.append(weakref.ref(oracle[0]))
        return oracle

    monkeypatch.setattr(experiments, "_logistic_oracle", counted)
    serial = run_rate_experiment(cfg, n_jobs=1)
    assert len(built) == 1
    gc.collect()
    assert built[0]() is None  # nothing holds the oracle once the run returns
    parallel = run_rate_experiment(cfg, n_jobs=2)
    assert serial.records == parallel.records
    assert len(serial.records) == 2 * len(cfg.n_grid) * cfg.replications


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    # Every worker builds its own oracle; the stub pool runs the tasks here and starts no process.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(name="ploss_rate", **SMALL)
    serial = run_rate_experiment(cfg, n_jobs=1)
    capped = run_rate_experiment(cfg, n_jobs=1400)
    assert started == [3]
    assert capped.records == serial.records
    assert len(capped.records) == len(cfg.n_grid) * cfg.replications


def test_logistic_run_peaks_below_1_4_oracle_feature_arrays():
    # The fits run before the oracle is built, and the oracle is held once, as its N x d feature array.
    cfg = ExperimentConfig(name="logistic_rate", n_grid=(32, 64, 128), replications=1, seed=5,
                           oracle_size=1_000_000, delta="1/n", B=3.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run_rate_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * cfg.oracle_size * cfg.d * 8


def test_w_true_is_checked_and_stored_as_rows():
    W = np.array([[1.0, 0.5], [-1.0, -0.5]])
    cfg = ExperimentConfig(name="logistic_rate", n_grid=(8, 16, 32), B=3.0, W_true=W)
    assert cfg.W_true == ((1.0, 0.5), (-1.0, -0.5))
    assert np.array_equal(cfg.w_true(), W)
    for bad in (W * np.nan, W[:1], [[1.0, "0.5"], [-1.0, -0.5]], [[1.0, 0.5], [-1.0]]):
        with pytest.raises(ValueError, match="W_true must be a 2 x 2 array"):
            ExperimentConfig(name="logistic_rate", n_grid=(8, 16, 32), B=3.0, W_true=bad)
    with pytest.raises(ValueError, match="W_true rows"):
        ExperimentConfig(name="logistic_rate", n_grid=(8, 16, 32), B=1.0, W_true=W)
    # B bounds the logistic ball only; the other experiments echo W_true without using it
    assert ExperimentConfig(name="nonconvex_gap", n_grid=(8, 16, 32), W_true=W).W_true == cfg.W_true
