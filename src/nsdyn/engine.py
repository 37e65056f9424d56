"""Constant-step subgradient iteration x_{k+1} = x_k - alpha * s_k, s_k in the subdifferential.

The inclusion leaves the subgradient selection free; SelectionPolicy pins it
down.  The default minimal-norm selection matches the slow-solution
convention of the continuous flow and makes discrete/continuous comparisons
canonical.  One rule, ``_select_at``, picks on one point in Python floats:
``fn.min_norm_at``, or under a generator policy where ``fn.generator_count``
exceeds 1, the one ``fn.generator(x, j)`` it picks, never the set.  Recorded
runs (``run``, the flow) step x_i - a * s_i per coordinate;
batches (``run_batch``) step x - a * s in numpy on ``fn.min_norm_many``,
where ``_iterate`` applies ``_select_at`` on a generator policy's ``at_kink``
rows.  Python floats and numpy round alike, and tests hold the two fields
bit-identical, so all agree bit for bit; Wolfe's projector never steps.  One keep test, a pair
(center, bound) kept while ``_measure`` <= bound, decides when a row stops,
from k = 0 on: ``_inside`` an exit ball, or ``_bounded`` without one; a NaN
coordinate makes the measure NaN, which fails <=.  A ball whose center is
all +-0.0 (every default probe query's) is measured as ||x||^2, with no
subtraction: x - (+-0.0) squares to the bits of x * x.  The recorded loop
``_record`` steps one row in Python floats, a block at a time in one inner
loop into flat lists, with the coordinate step chosen once by dimension and
the same x_i - a * s_i in each; it writes each block into its record and tests
it at once; the iterates computed past the first failing one are discarded,
silently.

The batch loop owns its working rows: one column-major (``order="F"``) copy of
the start points, updated in place and compacted only when rows exit, into a
new column-major array with a new keep-test workspace.  Column-major keeps the
per-row reductions over the few coordinates cheap on a thousand rows.  On the
few dozen rows of a probe cell, numpy's fixed cost per call sets the price of
an iteration (numpy 2.4 on x86-64: ~0.3 us a ufunc call, ~0.1 us a view, ~0.2 us
an allocation), so an iteration makes no call, view or allocation it can avoid.  numpy's
``sum(axis=1)`` adds an F-ordered batch column by column but a C-ordered row
of 8 or more entries pairwise, so its bits would depend on the layout and a
batch row would drift from its ``run`` replay.  Every row sum of the dynamics
(the ball test, ``neg_norm``'s field) therefore adds the squared columns left
to right in any layout, as ``catalog.sum_sq`` does.

Reproducibility contract: every random draw comes from a counter-based
Philox generator.  A trajectory owns a single 64-bit seed; batch drivers
derive per-sample seeds with ``derive_seed(root, *indices)`` (a SeedSequence
keyed on the index tuple), so parallel or reordered execution cannot change
any stream.  A row draws from ``make_rng(seeds(row))``, made at its first
kink, with ``run``'s seed or ``run_batch``'s seeds, so the two replay bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, repeat

import numpy as np

from .catalog import CatalogFunction, _reals, as_count, as_point, as_real
from .errors import NonFiniteInput, OutOfHorizon

__all__ = [
    "DIVERGENCE_LIMIT",
    "SelectionPolicy",
    "MINIMAL_NORM",
    "Trajectory",
    "InterpolatedPath",
    "run",
    "run_batch",
    "interpolate",
    "first_exit",
    "sample_ball",
    "derive_seed",
    "make_rng",
]

# any coordinate beyond this magnitude marks the trajectory as diverged
DIVERGENCE_LIMIT = 1e100
RECORD_BLOCK = 64  # a recorded run steps this many iterates into flat lists, then writes and tests them at once
MAX_RECORDED_STEPS = 10 ** 7  # 16 bytes per coordinate per step

_POLICY_KINDS = ("minimal_norm", "random_extreme", "fixed_index")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick one subgradient from the m generators at a point.

    minimal_norm   argmin-norm element of the hull (deterministic)
    random_extreme uniform over the generators (seed-dependent): j is
                   ``rng.integers(m)`` up to m = 2^63; above, m = 2^|A| and
                   j is |A| draws of ``rng.integers(2)``, highest bit first
    fixed_index    generator ``index``, an int of either sign (``as_count``), modulo the generator count
    """

    kind: str = "minimal_norm"
    index: int = 0

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        object.__setattr__(self, "index", as_count(self.index, "index", None))


MINIMAL_NORM = SelectionPolicy("minimal_norm")


def derive_seed(root: int, *indices: int) -> int:
    """64-bit per-stream seed from a root seed and an index tuple, each an integer >= 0 (``as_count``)."""
    key = (as_count(root, "seed"),) + tuple(as_count(i, "seed index") for i in indices)
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(as_count(seed, "seed"))))


def sample_ball(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the closed ball B(center, radius): a finite center, a radius ``as_real``, an integer n >= 0.

    Isotropic direction times radius * u^(1/dim), the standard volume-uniform
    construction; documented so seeded experiments stay reproducible.
    """
    center = as_point(center, name="center")
    if not np.isfinite(center).all():
        raise NonFiniteInput(f"ball center must be finite, got {center.tolist()}")
    radius, n = as_real(radius, "radius"), as_count(n, "n")
    dim = center.shape[0]
    direction = rng.standard_normal((n, dim))
    norms = np.sqrt((direction * direction).sum(axis=1))
    norms[norms == 0.0] = 1.0
    direction /= norms[:, None]
    radii = radius * rng.uniform(0.0, 1.0, n) ** (1.0 / dim)
    return center[None, :] + radii[:, None] * direction


def _select_at(fn: CatalogFunction, policy: SelectionPolicy, seeds=None):
    """The one selection rule: maps one point, a list of Python floats, and its row id to a tuple of floats.

    Minimal norm is ``fn.min_norm_at``, as is a generator policy where
    ``fn.generator_count(x)`` is 1.  Else it builds ``fn.generator(x, j)`` alone:
    j = ``index % m``, or a draw from the row's stream ``make_rng(seeds(row))``,
    made at the row's first kink; ``row`` is a Python int.
    """
    if policy.kind == "minimal_norm":
        return fn.min_norm_at
    rngs = {}

    def select_at(x, row=0):
        m = fn.generator_count(x)
        if m == 1:
            return fn.min_norm_at(x)
        j = policy.index
        if policy.kind == "random_extreme":
            if seeds is None:
                raise ValueError("random_extreme selection at a kink needs seeds")
            rng = rngs[row] = rngs.get(row) or make_rng(seeds(row))
            n = m.bit_length() - 1  # numpy's integers draws below at most 2^63; above, m = 2^n is n bits
            j = int(rng.integers(m)) if m <= 2 ** 63 else int("".join(map(str, rng.integers(2, size=n))), 2)
        return fn.generator(x, j % m)

    return select_at


def _check_recorded(n_steps, source: str):
    """A recorded run keeps 0 to MAX_RECORDED_STEPS steps, checked before allocating; ``source`` set n_steps."""
    if not 0 <= n_steps <= MAX_RECORDED_STEPS:
        raise ValueError(f"{source} must give between 0 and {MAX_RECORDED_STEPS} recorded steps")


def _inside(center, radius: float, dim: int):
    """Keep test ||x - center||^2 <= radius^2 as a (center, bound) pair; NaN and inf rows fail it.

    The ball needs a center and a radius (``as_real``), within DIVERGENCE_LIMIT / 2
    of the origin, so a row inside it is always ``_bounded``.  Bounds are 0-d
    arrays, which numpy compares without converting a Python float each time.
    """
    if center is None or radius is None:
        raise ValueError(f"exit ball needs both a center and a radius; got center {center}, radius {radius}")
    center, r = as_point(center, dim, "center"), as_real(radius, "radius")
    if not np.abs(center).max() + r <= DIVERGENCE_LIMIT / 2:
        raise ValueError(f"exit ball needs a finite radius > 0 and a finite center, within "
                         f"{DIVERGENCE_LIMIT / 2:g} of the origin; got radius {radius}, center {center.tolist()}")
    return center, np.array(r * r)


# keep test without an exit ball: every |coordinate| <= DIVERGENCE_LIMIT, which NaN fails
_bounded = (None, np.array(DIVERGENCE_LIMIT))


def _workspace(rows: int, dim: int, center):
    """Keep-test scratch, made once per live-row count, as on a small batch each numpy call, view and allocation
    costs more than its arithmetic: an F-ordered (rows, dim) buffer, its first column, its other columns, a bool
    mask, and a ball's center on every row (numpy subtracts a same-shape array in far fewer ns than a broadcast
    one), or None without a ball or for a center of all +-0.0, which ``_measure`` does not subtract."""
    buf = np.empty((rows, dim), order="F")
    cols = [buf[:, j] for j in range(dim)]
    tile = None if center is None or not center.any() else np.asfortranarray(np.broadcast_to(center, (rows, dim)))
    return buf, cols[0], cols[1:], np.empty(rows, dtype=bool), tile


def _measure(keep, pts: np.ndarray, ws=None) -> np.ndarray:
    """Each row's ||x - center||^2, adding squared columns left to right as ``sum_sq`` does, or without a center
    max |x_i|, where NaN propagates; written into column 0 of the workspace ``ws`` or of a fresh one.  A center
    of all +-0.0 is not subtracted: x - (+-0.0) squares to the bits of x * x, signed zeros, inf and NaN included."""
    buf, first, rest, _, tile = ws or _workspace(*pts.shape, keep[0])
    if keep[0] is None:
        np.abs(pts, buf)
        for col in rest:
            np.maximum(first, col, out=first)  # numpy 2.4 deprecates a positional output here
    else:
        np.square(pts if tile is None else np.subtract(pts, tile, buf), buf)
        for col in rest:
            np.add(first, col, first)
    return first


def _first_failing(keep, pts: np.ndarray) -> int | None:
    """Index of the first row without measure <= bound (NaN fails), or None."""
    kept = _measure(keep, pts) <= keep[1]
    return None if kept.all() else int(np.argmin(kept))


def _iterate(fn: CatalogFunction, select_at, pts: np.ndarray, a, n_steps: int, keep):
    """The batch loop: n_steps updates x <- x - a * s(x) of every live row; the step size a is a 0-d array.

    keep = (center, bound) is the one stop rule, applied to the starts (k = 0)
    and after every step k <= n_steps: a row without ``_measure`` <= bound retires
    with exit index k and that point; the rest keep -1.  Returns (exit_index, last_points).

    ``pts`` is never written: the loop steps its own column-major copy in
    place, scaling each fresh ``fn.min_norm_many`` of the live rows by a and
    subtracting it, which gives the same bits as x - a * s.  ``select_at``
    (``_select_at``), unless None, picks the field afresh on each ``fn.at_kink``
    row, given the row as a list of Python floats and its row number in ``pts``.
    The keep test fills a ``_workspace`` made per live-row count; one count of
    its mask tells whether rows stop, and the mask compacts the copy.
    """
    last = np.array(pts)
    pts = np.array(last, order="F")
    exit_index = np.full(pts.shape[0], -1, dtype=np.int64)
    alive_ids = np.arange(pts.shape[0])
    ws = _workspace(*pts.shape, keep[0])
    field, bound, live = fn.min_norm_many, keep[1], pts.shape[0]
    for k in count():
        kept = np.less_equal(_measure(keep, pts, ws), bound, ws[3])  # NaN fails
        if np.count_nonzero(kept) != live:
            gone = alive_ids[~kept]
            exit_index[gone] = k
            last[gone] = pts[~kept]
            alive_ids = alive_ids[kept]
            live = alive_ids.size
            pts = pts.T.compress(kept, axis=1).T  # pts[kept] would come back row-major
            ws = _workspace(*pts.shape, keep[0])
        if k == n_steps or live == 0:
            break
        s = field(pts)
        if select_at is not None:
            for r in fn.at_kink(pts).nonzero()[0]:
                s[r] = select_at(pts[r].tolist(), int(alive_ids[r]))
        s *= a
        pts -= s
    last[alive_ids] = pts
    return exit_index, last


def _stepper(dim: int):
    """x - a * s as x_i - a * s_i per coordinate in Python floats: written out in R^1 and R^2, a comprehension else."""
    if dim == 1:
        return lambda x, a, s: [x[0] - a * s[0]]
    if dim == 2:
        return lambda x, a, s: [x[0] - a * s[0], x[1] - a * s[1]]
    return lambda x, a, s: [xi - a * si for xi, si in zip(x, s)]


def _record(select, points: np.ndarray, subgrads: np.ndarray, steps, keep) -> int | None:
    """points[k+1] = points[k] - a * subgrads[k], for each Python float step size a; returns the exit k or None.

    ``select`` maps one point, a list of Python floats, to its subgradient as
    a tuple of floats (``_select_at``), and ``_stepper(dim)`` steps each
    coordinate as x_i - a * s_i in Python floats, which round as numpy does.
    The start is tested first.  Then one inner loop steps a block of up to
    RECORD_BLOCK iterates into flat lists, each written at once into its rows
    of ``points`` or ``subgrads`` through a flat view (both are C-ordered),
    and the block is tested at once.  The caller drops the iterates stepped
    past the exit.
    """
    x = points[0].tolist()
    dim = len(x)
    step_x = _stepper(dim)
    flat_x, flat_s = points.reshape(-1), subgrads.reshape(-1)
    steps = iter(steps)
    tested, new = 0, 1  # points[:tested] passed the keep test; the next new rows await it
    with np.errstate(all="ignore"):  # steps past an exit may overflow; they are discarded
        while True:
            hit = _first_failing(keep, points[tested:tested + new])
            if hit is not None:
                return tested + hit
            tested += new
            xs, ss = [], []  # the block's iterates and subgradients, flat
            for a in islice(steps, RECORD_BLOCK):
                s = select(x)
                x = step_x(x, a, s)
                xs += x
                ss += s
            if not xs:
                return None
            new = len(xs) // dim
            i, j = tested * dim, (tested + new) * dim
            flat_x[i:j] = xs
            flat_s[i - dim:j - dim] = ss


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterate sequence; ``run`` on the same inputs, its policy and seed too, replays it bit for bit.

    points has shape (k_last+1, dim); chosen_subgradients has one row per
    executed step and satisfies points[k+1] == points[k] - alpha * chosen[k]
    exactly (the stored arrays are the arithmetic results themselves).
    """

    fn_id: str
    alpha: float
    points: np.ndarray
    chosen_subgradients: np.ndarray
    diverged_at: int | None = None

    def __post_init__(self):
        self.points.setflags(write=False)
        self.chosen_subgradients.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_steps(self) -> int:
        return self.chosen_subgradients.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.alpha * np.arange(self.points.shape[0])


def run(fn: CatalogFunction, x0, alpha: float, n_steps: int,
        policy: SelectionPolicy = MINIMAL_NORM, seed: int = 0,
        stop: tuple | None = None) -> Trajectory:
    """Iterate ``n_steps`` times, or until leaving the optional stop ball or diverging.

    stop is (center, radius); from the start on, the first point outside the
    ball or diverged (any |coordinate| > 1e100 or non-finite) is recorded and
    iteration halts there.  Divergence is recorded in diverged_at, never
    raised.  alpha is stepped and stored as the float ``as_real`` returns.  n_steps, an integer (``as_count``), runs
    from 0, the initial point alone, to MAX_RECORDED_STEPS; ``seed`` is checked before any kink.
    A run that uses every step returns the arrays it recorded into; one that
    stops early returns copies of their prefixes.
    """
    alpha = as_real(alpha, "alpha")
    n_steps, seed = as_count(n_steps, "n_steps"), as_count(seed, "seed")
    _check_recorded(n_steps, "steps")
    points = np.empty((n_steps + 1, fn.dim))
    subgrads = np.empty((n_steps, fn.dim))
    points[0] = as_point(x0, fn.dim, "x0")
    keep = _bounded if stop is None else _inside(stop[0], stop[1], fn.dim)
    exit_k = _record(_select_at(fn, policy, lambda row: seed), points, subgrads,
                     repeat(alpha, n_steps), keep)
    k_last = n_steps if exit_k is None else exit_k
    if k_last < n_steps:  # a copy of the prefix frees the unused tail
        points, subgrads = points[:k_last + 1].copy(), subgrads[:k_last].copy()
    return Trajectory(
        fn_id=fn.name,
        alpha=alpha,
        points=points,
        chosen_subgradients=subgrads,
        diverged_at=None if _first_failing(_bounded, points[-1:]) is None else k_last,
    )


def run_batch(fn: CatalogFunction, x0s: np.ndarray, alpha: float, n_steps: int,
              exit_center=None, exit_radius: float | None = None,
              policy: SelectionPolicy = MINIMAL_NORM, seeds=None):
    """``run``'s step loop over many initial points at once.

    ``x0s``, in either layout, passes ``as_point``'s batch form: reals of shape (n, fn.dim), n >= 0, else a ValueError
    subclass that names x0s is raised before any step.  Row i replayed through ``run(..., policy, seed=seeds(i),
    stop=ball)`` gives the same iterates bit for bit; ``seeds`` is called with a Python int at a row's first kink
    only.  Returns (exit_index, last_points): exit_index[i] is the first k (0 for the start) at which ``run`` halts,
    with x_k outside the exit ball or, without one (both halves None), diverged; else -1.  So a diverged row retires
    at its divergence step.  Half a ball, an alpha (checked first, and stepped as its float) or radius that fails
    ``as_real``, or an n_steps that is not an integer >= 0 (``as_count``), raises ValueError.
    """
    alpha, n_steps = as_real(alpha, "alpha"), as_count(n_steps, "n_steps")
    x0s = as_point(x0s, fn.dim, "x0s", rows="n")
    keep = _bounded if exit_center is None and exit_radius is None else _inside(exit_center, exit_radius, fn.dim)
    select_at = None if policy.kind == "minimal_norm" else _select_at(fn, policy, seeds)
    return _iterate(fn, select_at, x0s, np.array(alpha), n_steps, keep)


@dataclass(frozen=True)
class InterpolatedPath:
    """Piecewise-linear curve through the iterates with nodes at t = alpha*k.

    Defined on [0, min(horizon, alpha * n_steps)].
    """

    trajectory: Trajectory
    horizon: float

    @property
    def t_max(self) -> float:
        return min(self.horizon, self.trajectory.alpha * self.trajectory.n_steps)


def _times(t, t_max: float) -> np.ndarray:
    """``t``, of any shape, by ``as_point``'s element rule (``_reals``), checked to lie in [0, t_max]; NaN fails."""
    t = _reals(t, "t")
    bad = ~((t >= 0.0) & (t <= t_max))
    if bad.any():
        raise OutOfHorizon(f"t={t[bad][0]} outside [0, {t_max}]")
    return t


def _blend(lo, hi, w, at_lo, at_hi) -> np.ndarray:
    """lo + w * (hi - lo) row by row; a time on a node gives its stored point."""
    out = np.where(at_hi[..., None], hi, lo + w[..., None] * (hi - lo))
    return np.where(at_lo[..., None], lo, out)


def interpolate(path: InterpolatedPath, t) -> np.ndarray:
    """Value of the interpolated curve at time t; exact at every node.

    ``t`` is a scalar (one point) or an array of times (one row per time).
    The segment is k = floor(t / alpha), clipped to the last one, and the
    weight (t - alpha*k) / alpha; the ``flow`` module docstring says why
    this formula and not ``flow_value``'s.
    """
    traj = path.trajectory
    alpha = traj.alpha
    t = _times(t, path.t_max)
    k = np.clip(np.floor(t / alpha).astype(np.int64), 0, max(traj.n_steps - 1, 0))
    return _blend(traj.points[k], traj.points[np.minimum(k + 1, traj.n_steps)],
                  (t - alpha * k) / alpha, t == alpha * k, t == alpha * (k + 1))


def first_exit(traj: Trajectory, center, radius: float) -> int | None:
    """Smallest k with points[k] outside the ball (``_inside`` fails, as on NaN), or None."""
    return _first_failing(_inside(center, radius, traj.dim), traj.points)
