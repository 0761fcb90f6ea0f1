"""Synthetic rate experiments with seeded Monte Carlo excess-risk estimation.

Population risks are estimated on a large held-out oracle sample shared by
all predictors in a replication (common random numbers), and per-sample-size
means are fitted by least squares on the log-log scale.
"""

from __future__ import annotations

import itertools
import math
import os
import reprlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import BoundInputs, packing_bound
from .complexity import finite_empirical_profile
from .estimators import regularized_star_glm, star_fit
from .losses import LossModel, eval_loss, link_softmax, p_loss, row_sum, square_loss
from .predictors import Constant, FiniteClass, LinearBall, Predictor, Sample, clip_rows, prediction_vector, seeded_rng

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "ExperimentResult",
    "gen_logistic_data",
    "gen_twopoint_data",
    "gen_ploss_data",
    "AtomOracle",
    "population_excess_risk",
    "fit_rate",
    "run_rate_experiment",
    "bound_vs_empirical",
    "results_csv",
    "summary_dict",
]

EXPERIMENT_NAMES = ("logistic_rate", "ploss_rate", "nonconvex_gap")

_ORACLE_TAG = 777
# Rows of the logistic oracle drawn, labelled, sorted and scored at a time.
_ORACLE_CHUNK = 2**15
_DATA_TAG = 101
# Integer config fields and their least values.
_INT_FIELDS = {
    "replications": 1, "seed": 0, "oracle_size": 100_000, "d": 1, "k": 2,
    "members": 1, "n_candidates": 0, "jobs": 1,
}
# Float config fields, and those of them that must be positive.
_FLOAT_FIELDS = ("p", "B", "sigma", "c", "noise", "center")
_POSITIVE_FIELDS = ("B", "sigma", "noise")


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON true is not a count) and that a float can hold."""
    return isinstance(value, (int, np.integer)) and _is_finite_real(value)


def _is_finite_real(value) -> bool:
    """A finite int or float that is not a bool; an int too large for a float is not finite."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_finite_array(value) -> bool:
    """A nonempty list or tuple of finite reals, or of such arrays, all of one shape."""
    if not isinstance(value, (list, tuple)):
        return False
    level = [value]
    while all(isinstance(v, (list, tuple)) for v in level):
        if len({len(v) for v in level}) != 1:  # empty or ragged
            return False
        level = [x for v in level for x in v]
    return all(map(_is_finite_real, level))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for one named experiment.

    delta may be a float or the string "1/n" (resolved per sample size).
    W_true is None or a finite k x d array (rows in the B-ball for
    logistic_rate); None means a fixed well-specified parameter in the ball.
    """

    name: str
    n_grid: tuple[int, ...]
    replications: int = 200
    seed: int = 0
    oracle_size: int = 1_000_000
    p: float = 3.0
    B: float = 1.0
    d: int = 2
    k: int = 2
    delta: float | str | None = None
    sigma: float = 1.0
    c: float = 1.0
    noise: float = 0.2
    center: float = 0.2
    members: int = 16
    n_candidates: int = 64
    W_true: tuple | None = None
    jobs: int = 1

    def __post_init__(self):
        if isinstance(self.n_grid, (str, bytes)) or not np.iterable(self.n_grid):
            raise ValueError(f"n_grid must be a list of sample sizes, not {reprlib.repr(self.n_grid)}")
        for n in self.n_grid:
            if not _is_int(n) or n < 1:
                raise ValueError(f"n_grid entries must be integers of at least 1, not {reprlib.repr(n)}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if len(self.n_grid) < 3:
            raise ValueError(f"n_grid needs at least 3 sample sizes for a rate fit, not {len(self.n_grid)}")
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}")
        if any(b >= a for a, b in zip(self.n_grid[1:], self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        for field, least in _INT_FIELDS.items():
            value = getattr(self, field)
            if not _is_int(value):
                raise ValueError(f"{field} must be an integer, not {reprlib.repr(value)}")
            if value < least:
                raise ValueError(f"{field} must be at least {least}")
        for field in _FLOAT_FIELDS:
            value = getattr(self, field)
            if not _is_finite_real(value):
                raise ValueError(f"{field} must be a finite number, not {reprlib.repr(value)}")
            if field in _POSITIVE_FIELDS and value <= 0:
                raise ValueError(f"{field} must be positive, not {reprlib.repr(value)}")
        delta = self.delta
        if not (delta is None or delta == "1/n" or (_is_finite_real(delta) and 0 < delta <= 0.5)):
            raise ValueError(f'delta must be null, "1/n" or a number in (0, 1/2], not {reprlib.repr(delta)}')
        if self.name == "nonconvex_gap":
            b = _twopoint_shift(self.sigma, self.n_grid[0])
            if not b < self.c:
                raise ValueError(f"c must exceed sigma / (4 sqrt(n)) = {b} at the smallest n = {self.n_grid[0]}")
        if self.name == "ploss_rate":
            model = p_loss(self.p, self.B)
            try:
                model.check_target(_ploss_atoms(self))
            except ValueError as exc:
                raise ValueError(f"center and noise put the p-loss targets outside [-B, B]: {exc}") from None
        if self.W_true is not None:
            W = self.W_true.tolist() if isinstance(self.W_true, np.ndarray) else self.W_true
            if not _is_finite_array(W) or np.shape(W) != (self.k, self.d):
                raise ValueError(f"W_true must be a {self.k} x {self.d} array of finite numbers, not {reprlib.repr(W)}")
            if self.name == "logistic_rate" and np.linalg.norm(W, axis=1).max() > self.B + 1e-9:
                raise ValueError(f"W_true rows must have norm at most B = {self.B}")
            object.__setattr__(self, "W_true", tuple(map(tuple, W)))

    def delta_at(self, n: int) -> float:
        if self.delta == "1/n":
            return 1.0 / n
        if self.delta is None:
            return 0.01
        return float(self.delta)

    def w_true(self) -> np.ndarray:
        if self.W_true is not None:
            return np.asarray(self.W_true, dtype=float)
        base = np.zeros((self.k, self.d))
        base[0, 0], base[0, min(1, self.d - 1)] = 1.0, 0.5
        base[1, 0], base[1, min(1, self.d - 1)] = -1.0, -0.5
        # The rows have norm sqrt(1.25) (0.5 for d = 1); a smaller ball
        # gets them scaled onto its boundary.
        norm = float(np.linalg.norm(base, axis=1).max())
        return base * (self.B / norm) if norm > self.B else base


@dataclass(frozen=True)
class RateRow:
    n: int
    mean: float
    se: float


@dataclass(frozen=True)
class RateReport:
    rows: tuple[RateRow, ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    reports: dict
    # (estimator, n, replication, excess) sorted by (estimator, n, replication)
    records: tuple


def _draw_labels(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF class draw: the number of cumulative probabilities below u.

    The cumulative sum runs over the columns in order, so it matches
    cumsum(axis=1) exactly. Cumulative sums only grow, so counting over the
    first k - 1 columns keeps the label in 0..k-1.
    """
    acc = np.zeros(probs.shape[0])
    y = np.zeros(probs.shape[0], dtype=int)
    for j in range(probs.shape[1] - 1):
        acc += probs[:, j]
        y += acc < u
    return y


def gen_logistic_data(n: int, d: int, k: int, B: float, W_true, seed) -> Sample:
    """Standard-normal features clipped to radius 10; labels from softmax(W x)."""
    W = np.asarray(W_true, dtype=float)
    if W.shape != (k, d):
        raise ValueError(f"W_true must have shape ({k}, {d}), not {W.shape}")
    if np.any(np.linalg.norm(W, axis=1) > B + 1e-9):
        raise ValueError("W_true rows must respect the norm bound")
    rng = seeded_rng(*(seed if isinstance(seed, tuple) else (seed,)))
    X = clip_rows(rng.standard_normal((n, d)), 10.0)
    y = _draw_labels(link_softmax(X @ W.T), rng.random(n))
    return Sample(X, y)


def gen_twopoint_data(n: int, c: float, b: float, sigma: float, seed):
    """Gaussian target around b with the two-constant class {+c, -c}.

    The normal draw is clipped at 8 sigma (mass ~1e-15) so targets stay in
    the square-loss domain used by the experiment.
    """
    if not abs(b) < c:
        raise ValueError("|b| must be smaller than c")
    rng = seeded_rng(*(seed if isinstance(seed, tuple) else (seed,)))
    y = b + sigma * np.clip(rng.standard_normal(n), -8.0, 8.0)
    sample = Sample(np.zeros((n, 1)), y)
    cls = FiniteClass([Constant(c), Constant(-c)])
    return sample, cls


def gen_ploss_data(n: int, center: float, scale: float, seed) -> Sample:
    """Two-atom noise around `center`: +2*scale w.p. 1/5, -scale w.p. 4/5.

    E[eps^2 sgn eps] = 0, so `center` is the population p=3 risk minimizer,
    while the mean sits at center - 0.4*scale (off the class grid).
    """
    rng = seeded_rng(*(seed if isinstance(seed, tuple) else (seed,)))
    eps = np.where(rng.random(n) < 0.2, 2.0 * scale, -scale)
    return Sample(np.zeros((n, 1)), center + eps)


def _ploss_atoms(config: ExperimentConfig) -> np.ndarray:
    """The two values gen_ploss_data's targets take: center + 2 noise and center - noise."""
    return config.center + np.array([2.0 * config.noise, -config.noise])


def ploss_members(config: ExperimentConfig) -> FiniteClass:
    """Evenly spaced constant predictors spanning [-B, B]."""
    vals = np.linspace(-config.B, config.B, config.members)
    return FiniteClass([Constant(float(v)) for v in vals])


@dataclass(frozen=True, eq=False)
class AtomOracle:
    """An oracle sample with all-zero features, kept as weighted target atoms.

    A predictor that depends on x only makes one prediction on it, so its
    risk is weights @ loss(prediction, atoms) / weights.sum() plus a shift
    that is the same for every predictor and cancels in an excess risk.
    sample holds one zero-feature row per atom.
    """

    sample: Sample
    weights: np.ndarray


def _atom_oracle(model: LossModel, atoms, weights) -> AtomOracle:
    atoms = np.asarray(atoms, dtype=float)
    model.check_target(atoms)
    return AtomOracle(Sample(np.zeros((atoms.size, 1)), atoms), np.asarray(weights, dtype=float))


def population_excess_risk(
    model: LossModel,
    predictor,
    oracle: Sample | AtomOracle,
    cls: FiniteClass | None = None,
    f_star: Predictor | None = None,
) -> float:
    """Oracle risk of the predictor minus the comparator's.

    The comparator is f_star when the true minimizer is known analytically,
    otherwise the class member with the smallest oracle risk. The oracle is
    a dense Sample (every point weighs the same) or an AtomOracle.
    """
    if isinstance(oracle, AtomOracle):
        sample, weights = oracle.sample, oracle.weights
    else:
        sample, weights = oracle, None

    def risks(preds):
        return np.average(eval_loss(model, preds, sample.y), axis=-1, weights=weights)

    if isinstance(predictor, Predictor):
        preds = prediction_vector(predictor, sample)
    else:
        preds = np.asarray(predictor, dtype=float)
    risk = float(risks(preds))
    if f_star is not None:
        ref = float(risks(prediction_vector(f_star, sample)))
    elif cls is not None:
        ref = float(risks(cls.prediction_matrix(sample)).min())
    else:
        raise ValueError("need a class or an explicit comparator")
    return risk - ref


def fit_rate(rows) -> tuple[float, float, float]:
    """Least squares of ln(mean) on ln(n); nonpositive means are dropped.

    Returns (slope, intercept, r_squared); r_squared is 1.0 when the
    residuals vanish (including the degenerate all-equal case). Fewer than
    3 positive means is a ValueError naming the dropped sizes, else a warning.
    """
    pts, dropped = [], []
    for n, mean in rows:
        if mean <= 0.0:
            dropped.append(n)
        else:
            pts.append((math.log(n), math.log(mean)))
    if len(pts) < 3:
        raise ValueError(f"need at least 3 rows with positive means; the mean excess is not positive at n = {dropped}")
    for n in dropped:
        warnings.warn(f"dropping nonpositive mean excess at n={n}")
    x = np.array([p[0] for p in pts])
    z = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# per-replication runners (module level so process pools can pickle the work)


def _twopoint_shift(sigma: float, n: int) -> float:
    """The target mean b = sigma / (4 sqrt(n)) of the size-n two-point instance."""
    return sigma / (4.0 * math.sqrt(n))


def _twopoint_target_mean(config: ExperimentConfig, n: int, model: LossModel, z: np.ndarray) -> float:
    """Mean of the size-n square-loss oracle's targets b + sigma * clip(z, -8, 8).

    The normals are drawn into z, which is then turned into the targets in
    place, element by element the same operations as that formula. Runs on
    _block_nonconvex's worker thread, so it calls no layer function that
    bench/tracer.py wraps: the tracer keeps one span stack for all threads.
    """
    seeded_rng(config.seed, n, _ORACLE_TAG).standard_normal(out=z)
    np.clip(z, -8.0, 8.0, out=z)
    z *= config.sigma
    z += _twopoint_shift(config.sigma, n)
    model.check_target(z)
    return float(np.mean(z))


def _twopoint_oracle(model: LossModel, mean: float) -> AtomOracle:
    """Square-loss oracle for constant predictors: only the target mean matters.

    mean((v - y)^2) = (v - ybar)^2 + var(y), and var(y) is the same for
    every constant, so one atom at ybar scores every excess exactly.
    """
    return _atom_oracle(model, [mean], [1.0])


def _ploss_oracle(config: ExperimentConfig, model: LossModel) -> AtomOracle:
    """The p-loss oracle sample takes two values, so it is their counts."""
    rng = seeded_rng(config.seed, _ORACLE_TAG)
    high = int(np.count_nonzero(rng.random(config.oracle_size) < 0.2))
    return _atom_oracle(model, _ploss_atoms(config), [high, config.oracle_size - high])


def _logistic_oracle(config: ExperimentConfig):
    """Oracle features, each chunk's rows sorted by label (stable), their label bounds, and the true risk.

    Returns (X, bounds, ref_loss): the draws are taken _ORACLE_CHUNK rows at
    a time, and row i of bounds gives chunk i's label blocks, so rows
    bounds[i, c]:bounds[i, c + 1] of X are that chunk's points labelled c, in
    draw order. ref_loss is the mean negative log-likelihood of the true
    parameter over the draws. The uniforms are drawn per chunk, which takes
    the same stream as one draw of all of them, and each chunk is clipped and
    reordered in place, so X is the only oracle-sized array.
    """
    W = config.w_true()
    size = config.oracle_size
    rng = seeded_rng(config.seed, _ORACLE_TAG)
    X = rng.standard_normal((size, config.d))
    bounds = []
    nll_sum = 0.0
    for start in range(0, size, _ORACLE_CHUNK):
        chunk = clip_rows(X[start:start + _ORACLE_CHUNK], 10.0)
        probs = link_softmax(chunk @ W.T)
        labels = _draw_labels(probs, rng.random(chunk.shape[0]))
        nll_sum -= float(np.sum(np.log(probs[np.arange(labels.size), labels])))
        # A stable sort of one-byte labels is a radix sort, 2.5x faster than one of int64 labels.
        chunk[:] = chunk[np.argsort(labels.astype(np.min_scalar_type(config.k - 1)), kind="stable")]
        bounds.append(start + np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=config.k)))))
    return X, np.array(bounds), nll_sum / size


def _block_nonconvex(config: ExperimentConfig, cells: list) -> list:
    """Records of the nonconvex_gap cells.

    Every sample size's oracle target mean is submitted up front to one
    worker thread, which draws them in turn into one buffer (numpy releases
    the GIL during the fill) while this thread fits the replications. Only
    the worker touches the buffer, so the records do not depend on the
    scheduling, and the pool is shut down before the block returns.
    """
    if not cells:
        return []
    model = square_loss(config.c + 8.0 * config.sigma)
    best_member = Constant(config.c)
    groups = [(n, [rep for _, rep in group]) for n, group in itertools.groupby(cells, key=lambda cell: cell[0])]
    z = np.empty(config.oracle_size)
    out = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        means = [pool.submit(_twopoint_target_mean, config, n, model, z) for n, _ in groups]
        for (n, reps), mean in zip(groups, means):
            b = _twopoint_shift(config.sigma, n)
            fits = []
            for rep in reps:
                sample, cls = gen_twopoint_data(n, config.c, b, config.sigma, (config.seed, n, rep, _DATA_TAG))
                fit = star_fit(model, cls, sample)
                fits.append((fit.erm, fit.combined))
            oracle = _twopoint_oracle(model, mean.result())
            hull_opt = Constant(b)
            for rep, (erm, combined) in zip(reps, fits):
                out.append(("erm", n, rep, population_excess_risk(model, erm, oracle, f_star=best_member)))
                out.append(("star", n, rep, population_excess_risk(model, combined, oracle, f_star=hull_opt)))
    return out


def _block_ploss(config: ExperimentConfig, cells: list) -> list:
    model = p_loss(config.p, config.B)
    cls = ploss_members(config)
    oracle = _ploss_oracle(config, model)
    out = []
    for n, rep in cells:
        sample = gen_ploss_data(n, config.center, config.noise, (config.seed, n, rep, _DATA_TAG))
        fit = star_fit(model, cls, sample)
        # The comparator is the oracle-risk-minimizing member.
        out.append(("star", n, rep, population_excess_risk(model, fit.combined, oracle, cls=cls)))
    return out


def _regularized_likelihoods(W, X, bounds, delta: float, k: int) -> np.ndarray:
    """Observed-label likelihoods of (1-d) softmax(Wx) + d/k on label-sorted rows.

    Rows bounds[c]:bounds[c + 1] of X carry label c, so their softmax
    likelihood is 1 / (1 + sum_{j != c} exp(x (W_j - W_c))). Score gaps are
    bounded by 2 B max||x||, so the direct exp is safe.
    """
    W = np.asarray(W, dtype=float)
    lik = np.empty(X.shape[0])
    for c in range(k):
        block = slice(bounds[c], bounds[c + 1])
        gaps = np.exp(X[block] @ (np.delete(W, c, axis=0) - W[c]).T)
        lik[block] = (1.0 - delta) / (1.0 + row_sum(gaps))
    lik += delta / k
    return lik


def _oracle_losses(fits, X, bounds, k: int) -> list:
    """Mean negative log-likelihoods of each fit's left predictor and of its lam-mix, on the oracle.

    fits holds (delta, W_left, W_right, lam) per cell, and X and bounds are
    as _logistic_oracle returns them. One pass over the chunks scores every
    cell on each; a cell's sums take only its own chunk sums, in chunk
    order, so its means do not depend on the other cells scored with it.
    """
    sums = np.zeros((len(fits), 2))
    for chunk_bounds in bounds:
        rows = X[chunk_bounds[0]:chunk_bounds[-1]]
        local = chunk_bounds - chunk_bounds[0]
        for total, (delta, W_left, W_right, lam) in zip(sums, fits):
            q_left = _regularized_likelihoods(W_left, rows, local, delta, k)
            q_right = _regularized_likelihoods(W_right, rows, local, delta, k)
            total[0] -= np.sum(np.log(q_left))
            # lam * q_left + (1 - lam) * q_right, in place
            q_left *= lam
            q_right *= 1.0 - lam
            q_left += q_right
            total[1] -= np.sum(np.log(q_left))
    return (sums / X.shape[0]).tolist()


def _logistic_fit(config: ExperimentConfig, n: int, rep: int) -> tuple:
    """(n, rep, delta, erm W, partner W, lam) of one cell's fit: all that scoring it needs."""
    delta = config.delta_at(n)
    sample = gen_logistic_data(n, config.d, config.k, config.B, config.w_true(), (config.seed, n, rep, _DATA_TAG))
    ball = LinearBall(config.d, config.k, config.B)
    fit = regularized_star_glm(
        ball, sample, delta, n_candidates=config.n_candidates, seed=_mix_seed(config.seed, n, rep),
    )
    return n, rep, delta, fit.erm.W, fit.partner.W, fit.lam


def _block_logistic(config: ExperimentConfig, cells: list) -> list:
    """Records of the logistic_rate cells.

    Every cell is fitted before the oracle is built, and only the weights
    and lam of each fit are kept, so the fits' n-length arrays are freed
    before the oracle is allocated.
    """
    fits = [_logistic_fit(config, n, rep) for n, rep in cells]
    X, bounds, ref_loss = _logistic_oracle(config)
    losses = _oracle_losses([fit[2:] for fit in fits], X, bounds, config.k)
    out = []
    for (n, rep, *_), (loss_erm, loss_star) in zip(fits, losses):
        out.append(("erm", n, rep, loss_erm - ref_loss))
        out.append(("star", n, rep, loss_star - ref_loss))
    return out


def _mix_seed(seed: int, n: int, rep: int) -> int:
    # single int for APIs that take one; SeedSequence-mixed for independence
    return int(np.random.SeedSequence((int(seed), int(n), int(rep))).generate_state(1)[0])


_BLOCKS = {
    "nonconvex_gap": _block_nonconvex,
    "ploss_rate": _block_ploss,
    "logistic_rate": _block_logistic,
}


def _run_block(config_dict: dict, cells: list) -> list:
    """Records of the (n, rep) cells, given in n order; oracles are built once per block."""
    config = ExperimentConfig(**config_dict)
    return _BLOCKS[config.name](config, cells)


def run_rate_experiment(config: ExperimentConfig, n_jobs: int | None = None) -> ExperimentResult:
    """Run every (n, replication) cell and fit the log-log rates.

    Deterministic for a fixed config and seed: replication seeds derive from
    (seed, n, rep) and aggregation folds in (n, rep) order regardless of
    scheduling, so parallel and serial runs emit identical results. The
    nonconvex_gap oracle draws run on one worker thread per block,
    overlapped with the fits; no thread outlives its block.
    """
    jobs = config.jobs if n_jobs is None else n_jobs
    cfg = asdict(config)
    cells = [(n, rep) for n in config.n_grid for rep in range(config.replications)]
    # Every worker builds its own oracles, so there are no more workers than CPUs.
    jobs = min(jobs, len(cells), os.cpu_count() or 1)
    if jobs > 1:
        # Every task takes a share of each sample size, so the tasks cost
        # about the same; each builds its oracles once.
        tasks = [cells[i::jobs] for i in range(jobs)]
        # Imported here, so that serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            blocks = list(pool.map(_run_block, [cfg] * len(tasks), tasks))
    else:
        blocks = [_run_block(cfg, cells)]
    records = [rec for block in blocks for rec in block]
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    estimators = sorted({r[0] for r in records})
    reports = {}
    for est in estimators:
        rows = []
        for n in config.n_grid:
            ex = np.array([r[3] for r in records if r[0] == est and r[1] == n])
            mean = float(ex.mean())
            se = float(ex.std(ddof=1) / math.sqrt(len(ex))) if len(ex) > 1 else 0.0
            if mean < -max(1e-12, 3.0 * se):
                raise RuntimeError(
                    f"negative mean excess {mean:.3e} beyond 3 SE at n={n} "
                    f"({est}): oracle inconsistency"
                )
            rows.append(RateRow(n, mean, se))
        try:
            slope, intercept, r2 = fit_rate([(r.n, r.mean) for r in rows])
        except ValueError as exc:
            raise ValueError(f"{est} rate fit: {exc}") from None
        reports[est] = RateReport(tuple(rows), slope, intercept, r2)
    return ExperimentResult(config, reports, tuple(records))


def bound_vs_empirical(config: ExperimentConfig, result: ExperimentResult | None = None):
    """Per sample size: empirical 95th-percentile star excess and the packing bound.

    The entropy profile covers the finite class's loss vectors on a seeded
    size-n sample, with the mixture-class correction; rho = 0.05, eps = 1/n.
    """
    if result is None:
        result = run_rate_experiment(config)
    model = p_loss(config.p, config.B)
    cls = ploss_members(config)
    rows = []
    for n in config.n_grid:
        ex = np.array([r[3] for r in result.records if r[0] == "star" and r[1] == n])
        q95 = float(np.quantile(ex, 0.95))
        sample = gen_ploss_data(n, config.center, config.noise, (config.seed, n, 0, _DATA_TAG))
        loss_vectors = eval_loss(
            model, cls.prediction_matrix(sample), np.asarray(sample.y, dtype=float)
        )
        profile = finite_empirical_profile(vectors=loss_vectors, star_hull_correction=True)
        inputs = BoundInputs(
            n=n, rho=0.05, m=model.m, eta=model.eta, eps=1.0 / n, entropy=profile
        )
        rows.append((n, q95, packing_bound(inputs)))
    return rows


def results_csv(result: ExperimentResult) -> str:
    """RFC-4180-style CSV of the raw records."""
    lines = ["experiment,estimator,n,replication,excess_risk"]
    for est, n, rep, excess in result.records:
        lines.append(f"{result.config.name},{est},{n},{rep},{excess!r}")
    return "\n".join(lines) + "\n"


def summary_dict(result: ExperimentResult) -> dict:
    """JSON-ready summary: per-estimator fits, rows, and the config echo.

    The echo drops the worker count: results are scheduling-invariant, so
    artifacts must not depend on it.
    """
    cfg = asdict(result.config)
    cfg.pop("jobs", None)
    cfg["n_grid"] = list(result.config.n_grid)
    if cfg.get("W_true") is not None:
        cfg["W_true"] = np.asarray(cfg["W_true"]).tolist()
    estimators = {}
    for est, report in sorted(result.reports.items()):
        estimators[est] = {
            "slope": report.slope,
            "intercept": report.intercept,
            "r_squared": report.r_squared,
            "rows": [[row.n, row.mean, row.se] for row in report.rows],
        }
    return {"config": cfg, "seed": result.config.seed, "estimators": estimators}
