"""Empirical ball-stability probing of the constant-step subgradient iteration.

A point x* is probed for the two-parameter stability property: for a given
epsilon, look for delta and alpha_bar such that every sampled start in
B(x*, delta) keeps all of its first K iterates inside B(x*, epsilon) for
every tested step size alpha <= alpha_bar.  The search is truncated in
every direction (K iterations, N samples, one selection policy), so the
positive verdict is reported as "no escape observed", never as proved
stability; the negative verdict carries a replayable escape witness.

Grid cells are seeded by the (delta, alpha) values themselves, not by their
grid positions, so rerunning any sub-grid reproduces the exact same
trajectories cell for cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import (BATCH_BYTES, KEPT_BYTES, RECORD_BYTES, CatalogFunction, as_count, as_point, as_real,
                      check_budget, get_function)
from .engine import (MINIMAL_NORM, SelectionPolicy, Trajectory, _inside, derive_seed, make_rng, run, run_batch,
                     sample_ball)
from .errors import InvalidQuery, NonFiniteInput, NotConvex

__all__ = [
    "StabilityQuery",
    "StabilityVerdict",
    "Certificate",
    "EscapeWitness",
    "BoundReport",
    "LocalMinCheck",
    "estimate_lipschitz",
    "probe",
    "local_min_check",
    "convex_bounds_report",
]

# geometric grids bracketing the existential quantifiers
DELTA_FRACTIONS = (0.5, 0.25, 0.125, 0.0625)
ALPHA_FRACTIONS = (0.2, 0.1, 0.05, 0.01)
REPETITION_FACTOR = 50
LIPSCHITZ_SAFETY = 1.1
LIPSCHITZ_SAMPLES = 256  # points of the ball besides its center
LOCAL_MIN_SAMPLES = 2000
F_COMPARE_TOL = 1e-12


def _max_generator_norm(fn: CatalogFunction, pts: np.ndarray) -> float:
    """Largest generator norm over the rows of ``pts``, one ``generators`` call per row; NaN if any norm is NaN.

    Every generator at a point has the same norm (the bit rule sets active coordinates to +-1; ``neg_norm``'s rows
    at 0 are +-e_i), so row 0 stands for its set: a listed set gives a copy of it, and at most one set is held.  The
    stacked rows reduce in one call, each with the bits of its own C-ordered sum.  ``np.max`` keeps a NaN that
    Python's ``max`` drops; one sqrt of the largest square is the largest sqrt, as sqrt is monotone and rounds right.
    """
    g = np.concatenate([s if s.shape[0] == 1 else s[:1].copy() for s in map(fn.generators, pts)])
    return float(np.sqrt(np.max((g * g).sum(axis=1))))


def estimate_lipschitz(fn: CatalogFunction, center, radius: float, *, seed: int = 0) -> float:
    """1.1 times the max sampled generator norm over B(center, radius).

    Sample-max with a documented 1.1 safety factor (LIPSCHITZ_SAFETY) over the
    center and LIPSCHITZ_SAMPLES points of the ball drawn from ``seed``.
    """
    center = as_point(center, fn.dim, "center")
    pts = sample_ball(center, radius, LIPSCHITZ_SAMPLES, make_rng(seed))
    return LIPSCHITZ_SAFETY * _max_generator_norm(fn, np.concatenate([center[None, :], pts], axis=0))


@dataclass(frozen=True)
class StabilityQuery:
    """Probe configuration; grids default to geometric ladders when None.

    x_star and both grids pass ``as_point``, the grids as decreasing 1-D arrays; epsilon passes ``as_real`` and
    exceeds every delta; counts are integers >= 1, n_samples passing ``check_samples``.  max_iters None selects the
    heuristic K = ceil(T/alpha) * 50 per step size, T = epsilon / (3 * L_estimate); either passes ``check_budget``.
    """

    fn_id: str
    x_star: np.ndarray
    epsilon: float
    delta_grid: tuple | None = None
    alpha_grid: tuple | None = None
    n_samples: int = 50
    max_iters: int | None = None
    policy: SelectionPolicy = MINIMAL_NORM
    seed: int = 0


@dataclass(frozen=True)
class Certificate:
    epsilon: float
    delta: float
    alpha_bar: float
    n_samples: int
    max_iters: int


@dataclass(frozen=True)
class EscapeWitness:
    """First escaping sample in (delta index, alpha index, sample index) order."""

    x0: np.ndarray
    alpha: float
    exit_index: int
    trajectory_ref: Trajectory
    delta: float
    seed: int


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a probe: a certificate or a witness, plus the cell table."""

    status: str  # no_escape_observed | escape_witnessed
    certificate: Certificate | None
    witness: EscapeWitness | None
    escape_counts: np.ndarray  # (len(delta_grid), len(alpha_grid))
    delta_grid: np.ndarray
    alpha_grid: np.ndarray
    iters_per_alpha: np.ndarray
    lipschitz_estimate: float
    query: StabilityQuery


def _value_key(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def check_samples(n, name: str, dim: int, balls: int, alphas: int):
    """``check_budget`` before probe draws: one alpha's batch, n starts per ball, and every alpha's starts, kept."""
    over = f" over {balls} start ball{'s' * (balls > 1)}"
    check_budget(n, name, dim, BATCH_BYTES * balls, over)
    check_budget(n, name, dim, KEPT_BYTES * balls * alphas, f"{over} and {alphas} step sizes")


def _validate(q: StabilityQuery, epsilon: float, x_star: np.ndarray, deltas: np.ndarray, alphas: np.ndarray | None):
    """Checks the query, its epsilon already checked, before any sampling (alphas None: the default grid)."""
    grids = [deltas] if alphas is None else [deltas, alphas]
    if not all(np.isfinite(v).all() for v in [x_star] + grids):
        raise InvalidQuery("x_star and the grids must be finite")
    n = as_count(q.n_samples, "n_samples", 1, InvalidQuery)
    check_samples(n, "n_samples", x_star.size, deltas.size, len(ALPHA_FRACTIONS) if alphas is None else alphas.size)
    max_iters = None if q.max_iters is None else as_count(q.max_iters, "max_iters", 1, InvalidQuery)
    check_budget(max_iters or 0, "max_iters", x_star.size, RECORD_BYTES)  # the witness replay; None derives K
    if any(g.size == 0 for g in grids):
        raise InvalidQuery("grids must be nonempty")
    if any(np.any(g <= 0) for g in grids):
        raise InvalidQuery("grids must be positive")
    if np.any(deltas >= epsilon):
        raise InvalidQuery("every delta must be < epsilon")
    if any(np.any(np.diff(g) >= 0) for g in grids):
        raise InvalidQuery("grids must be strictly decreasing")
    return n, max_iters


def probe(q: StabilityQuery) -> StabilityVerdict:
    """Grid search for a no-escape certificate, else the first escape witness.

    For each (delta, alpha) cell, N starts in B(x*, delta) run up to the
    alpha's iteration budget with exit checks against B(x*, epsilon), the
    cells of one alpha in one ``run_batch``; every stream stays keyed on the
    (delta, alpha[, sample]) values.  The certificate is the first (largest)
    (delta, alpha_bar) whose cells are escape-free for every tested
    alpha <= alpha_bar; the witness is the smallest (delta index, alpha
    index, sample index), so the verdict does not depend on execution order.
    Before any run, a bad count, or an epsilon or Lipschitz estimate that fails ``as_real`` (NaN where the
    field is NaN), raises InvalidQuery; an exit ball that ``run_batch`` would refuse, or a max_iters, heuristic K
    or N that ``check_budget`` refuses (N through ``check_samples``), raises ValueError on the rule's line.
    """
    x_star = as_point(q.x_star, name="x_star")
    fn = get_function(q.fn_id, dim=x_star.shape[0])
    epsilon = as_real(q.epsilon, "epsilon", InvalidQuery)
    deltas = as_point(epsilon * np.array(DELTA_FRACTIONS) if q.delta_grid is None else q.delta_grid, name="delta_grid")
    alphas = None if q.alpha_grid is None else as_point(q.alpha_grid, name="alpha_grid")
    n, max_iters = _validate(q, epsilon, x_star, deltas, alphas)
    _inside(x_star, epsilon, fn.dim)
    lip = estimate_lipschitz(fn, x_star, epsilon, seed=derive_seed(q.seed, 0x11F))
    lip = as_real(lip, "the Lipschitz estimate", InvalidQuery)
    if alphas is None:
        alphas = np.asarray(ALPHA_FRACTIONS) * epsilon / lip

    if max_iters is not None:
        iters = np.full(alphas.size, max_iters, dtype=np.int64)
    else:
        iters = np.ceil(epsilon / (3.0 * lip) / alphas) * REPETITION_FACTOR  # a float, exact up to 2^53
        check_budget(float(iters.max()), "K from --epsilon/--alpha-grid", fn.dim, RECORD_BYTES)  # as max_iters
        iters = iters.astype(np.int64)

    exits = np.empty((deltas.size, alphas.size, n), dtype=np.int64)  # exit index per sample, or -1
    starts = []
    for a_idx, alpha in enumerate(alphas):
        keys = [(q.seed, _value_key(delta), _value_key(alpha)) for delta in deltas]
        starts.append(np.concatenate([sample_ball(x_star, delta, n, make_rng(derive_seed(*key)))
                                      for delta, key in zip(deltas, keys)]))
        idx, _ = run_batch(fn, starts[-1], alpha, iters[a_idx], x_star, epsilon, q.policy,
                           lambda row: derive_seed(*keys[row // n], row % n))
        exits[:, a_idx] = idx.reshape(-1, n)
    counts = (exits >= 0).sum(axis=2)

    clear = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1] == 0  # no escape at this alpha or any smaller one
    if clear.any():
        d_idx, a_idx = np.argwhere(clear)[0]
        cert = Certificate(epsilon=epsilon, delta=float(deltas[d_idx]), alpha_bar=float(alphas[a_idx]),
                           n_samples=n, max_iters=int(iters[a_idx:].max()))
        return StabilityVerdict("no_escape_observed", cert, None, counts, deltas, alphas, iters, lip, q)

    d_idx, a_idx, i = np.argwhere(exits >= 0)[0]
    alpha, delta = float(alphas[a_idx]), float(deltas[d_idx])
    seed = derive_seed(q.seed, _value_key(delta), _value_key(alpha), i)
    x0, exit_idx = starts[a_idx][d_idx * n + i], int(exits[d_idx, a_idx, i])
    witness = EscapeWitness(x0=x0, alpha=alpha, exit_index=exit_idx, delta=delta, seed=seed,
                            trajectory_ref=run(fn, x0, alpha, exit_idx, q.policy, seed=seed))
    return StabilityVerdict("escape_witnessed", None, witness, counts, deltas, alphas, iters, lip, q)


@dataclass(frozen=True)
class LocalMinCheck:
    status: str  # consistent_with_local_min | counterexample_point
    counterexample: np.ndarray | None
    f_center: float


def local_min_check(fn: CatalogFunction, x_star, radius: float, *, seed: int = 0) -> LocalMinCheck:
    """Sample B(x*, radius) for a strictly lower value than f(x*).

    LOCAL_MIN_SAMPLES points drawn from ``seed``; the 1e-12 margin avoids float-equality traps at the center,
    and a returned counterexample point certifies that x* is not a local minimum at this sampling resolution.
    """
    x_star = as_point(x_star, fn.dim, "x_star")
    f_center = fn.value(x_star)
    pts = sample_ball(x_star, radius, LOCAL_MIN_SAMPLES, make_rng(seed))
    values = fn.value_many(pts)
    below = np.flatnonzero(values < f_center - F_COMPARE_TOL)
    if below.size:
        return LocalMinCheck("counterexample_point", pts[int(below[0])], f_center)
    return LocalMinCheck("consistent_with_local_min", None, f_center)


@dataclass(frozen=True)
class BoundReport:
    """Constant-step bounds for convex functions, checked on one trajectory.

    liminf_gap is estimated as the min objective gap over the tail half of
    the run; bound_c2a2 = c^2 * alpha / 2 with c the largest generator norm
    seen along the trajectory; iters_budget = floor(d(x0, X)^2 / (alpha *
    epsilon)), exact, is the horizon within which the min-so-far gap must
    come within epsilon of the bound; dist_bound = c * sqrt(alpha) / sqrt(2
    beta) applies when a quadratic growth constant beta is registered.  A
    convex entry's minimizer set X is {0}, where f is 0 (the ``catalog``
    contract), so d(x0, X) is ||x0||, the gap is f itself and
    terminal_distance is the last iterate's norm.  diverged_at is the run's own
    (``Trajectory``'s): c is measured along the run, so its bound holds either way.
    """

    fn_id: str
    alpha: float
    c: float
    liminf_gap: float
    bound_c2a2: float
    iters_budget: int
    achieved_within_budget: bool
    terminal_distance: float
    diverged_at: int | None
    dist_bound: float | None = None
    beta: float | None = None


def convex_bounds_report(fn: CatalogFunction, x0, alpha: float, epsilon: float,
                         n_steps: int | None = None) -> BoundReport:
    """The bounds of ``BoundReport``, checked on one minimal-norm run from x0.

    ``iters_budget`` is the floor of an exact rational, times the float 1 + 1e-12 so that an exact integer ratio
    survives the rounding of alpha and epsilon; a NaN or inf in x0 raises NonFiniteInput.  Without ``n_steps`` the
    run takes max(200, 2 * iters_budget) steps; with it, any budget is reported.  The run's record and each point's
    generator set pass ``check_budget`` before either is allocated.  Both take alpha and epsilon as ``as_real``
    floats, and the report states its run's ``diverged_at``.
    """
    alpha, epsilon = as_real(alpha, "alpha"), as_real(epsilon, "epsilon")
    if not fn.convex:
        raise NotConvex(f"{fn.name} is not convex")
    x0 = as_point(x0, fn.dim, "x0")
    if not np.isfinite(x0).all():
        raise NonFiniteInput(f"x0 must be finite, got {x0.tolist()}")
    from fractions import Fraction  # not at module level: every other command would pay its ~1.2 ms and ~0.3 MB
    # d(x0, X)^2 / (alpha * epsilon) exactly, as X = {0}, nudged as the docstring says
    budget = math.floor(sum(Fraction(v) ** 2 for v in x0.tolist()) / (Fraction(alpha) * Fraction(epsilon))
                        * Fraction(1.0 + 1e-12))
    if n_steps is None:
        check_budget(2 * budget, "steps from x0/alpha/epsilon", fn.dim, RECORD_BYTES)
        n_steps = max(200, 2 * budget)
    traj = run(fn, x0, alpha, n_steps, MINIMAL_NORM)
    gaps = fn.value_many(traj.points)
    c = _max_generator_norm(fn, traj.points)
    bound = c * c * alpha / 2.0
    tail = gaps[gaps.shape[0] // 2:]
    beta = fn.quad_growth
    dist_bound = None
    if beta is not None and alpha <= 1.0 / (2.0 * beta):
        dist_bound = c * float(np.sqrt(alpha)) / float(np.sqrt(2.0 * beta))
    return BoundReport(
        fn_id=fn.name,
        alpha=alpha,
        c=c,
        liminf_gap=float(tail.min()),
        bound_c2a2=bound,
        iters_budget=budget,
        achieved_within_budget=bool(gaps[: budget + 1].min() <= bound + epsilon),
        terminal_distance=float(np.linalg.norm(traj.points[-1])),
        diverged_at=traj.diverged_at,
        dist_bound=dist_bound,
        beta=beta,
    )
