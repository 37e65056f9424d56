"""Locally Lipschitz test functions with exact subdifferential oracles.

Every catalog function provides its closed-form value ``value_many`` (the
scalar ``value``, its one-row case, refuses a wrong dim or a non-finite
coordinate) and the exact generator representation of its Clarke
subdifferential: the subdifferential at a point is the convex
hull of finitely many generator vectors (a single generator wherever the
function is differentiable, the extreme limiting gradients at kinks).  The
bit rule: with active kinked coordinates A there are ``generator_count`` =
2^|A|, and ``generator(x, j)`` is the ``min_norm_at`` row with active
coordinate t set to +1 where bit |A|-1-t of j is set, else -1 (``neg_norm``
at 0: 2*dim, +e_i then -e_i); ``generators`` lists as many as ``check_budget`` admits.  The
closed-form minimal-norm field drives all dynamics, written twice in one
association order: ``min_norm_at`` on one point in Python floats, which
recorded runs step on, and ``min_norm_many`` on a batch of rows, which
batches step on.  Tests hold the two bit-identical, special values
included.  For ``wiggle`` that identity also rests on libm's ``math.sin``
and ``math.cos`` rounding like numpy's ``np.sin`` and ``np.cos``, which may
use their own SIMD loops on some CPUs and builds; a failure of those tests
that only ``wiggle`` shows is such a library mismatch, not a logic error.
Wolfe's projector minimal_norm_element is the tested reference:
each closed-form row lies in the hull and is no longer than Wolfe's answer.

Catalog (``_REGISTRY``, the one place names and dimensions are declared:
each class states its ``name`` and ``fixed_dim`` once, and its constructor
is the one dimension check, so ``get_function`` and the class agree).  The
convex entries share one contract: each has the origin as its only
minimizer, where f is 0, so d(x, X) = ||x|| and f - inf f = f, which
``stability.convex_bounds_report`` relies on:

    quad      0.5 * ||x||^2          smooth, convex, minimizer 0, any dim
    abs_sum   sum_i |x_i|            sharp strict minimum at 0, convex, any dim
    cross     |x1|^1.5 * |x2|^1.5    C^1 but not C^1,1; every point of the
                                     axis set {x1*x2 = 0} is a non-strict
                                     local minimum
    wiggle    x^2 sin(1/x), f(0)=0   differentiable with f'(0)=0 but not
                                     strictly differentiable at 0; the only
                                     non-semialgebraic entry
    vee_bowl  |x1| + x2^2            strict minimum at 0 mixing a kink with
                                     smooth curvature, convex
    neg_norm  -||x||                 strict maximum at 0; negative control
                                     (0 is not a local minimum)
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

__all__ = [
    "CatalogFunction",
    "minimal_norm_element",
    "list_catalog",
    "get_function",
    "CATALOG_IDS",
]

MIN_NORM_TOL = 1e-12
BUDGET = 32 * 10 ** 7  # bytes each allocation a caller sizes may take, checked before it by ``check_budget``
# bytes a coordinate costs: a recorded step's point and subgradient (so 10^7 steps in R^2); a listed generator; a
# sampled batch row (~90 at its peak in R^2, with room); a start probe keeps for its witness (8) with its 8-byte exit
# index (at most 8 more); ``per`` is one of these times the rows of one counted unit
RECORD_BYTES, LISTED_BYTES, BATCH_BYTES, KEPT_BYTES = 16, 8, 160, 16
_DEFAULT_NAN = math.inf - math.inf  # the hardware's NaN for an invalid operation, as np.sin(inf) returns
_TINY = 2.0 ** -1022  # the least normal float64
_HUGE_RECIPROCAL = 1.0 / sys.float_info.max  # 1/t overflows to inf exactly where 0 < |t| <= this
_THREE_HALVES = np.array(1.5)  # a 0-d array, which numpy takes without converting a Python float each call
_CROSS_CALM = (2.0 ** -681, 2.0 ** 341)  # |x_i| here: |x_i|^1.5 is normal, and a product of two is finite


def _sign(v: float) -> float:
    """np.sign of one float: +1.0 or -1.0, +0.0 for either zero, and a NaN is returned as it is."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0 if v == 0.0 else v


def _sum_sq_at(x) -> float:
    """||x||^2 of one point in Python floats, adding the squares in ``sum_sq``'s order."""
    acc = x[0] * x[0]
    for v in x[1:]:
        acc += v * v
    return acc


def _is_real(value) -> bool:  # a Python or numpy int or float, or a Fraction; a numpy bool is no numbers.Real
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:  # its repr, or past Python's 4300-digit limit on printing an int, the int's sign and bits
    with contextlib.suppress(ValueError):
        return repr(value)
    if isinstance(value, int):
        return f"a {'negative ' * (value < 0)}{value.bit_length()}-bit int"
    return f"a {type(value).__name__} holding an int too long to print"


def _real(e, name: str) -> float:  # the float of an element, a real within float64
    with contextlib.suppress(OverflowError):  # float() of an int or Fraction such as 10**400
        if _is_real(e):
            return float(e)
    raise ValueError(f"{name} must hold real numbers within float64 range, got {_shown(e)}")


def _reals(x, name: str, ndmin: int = 0) -> np.ndarray:
    """``x`` as a float64 array of its own shape, at least ``ndmin``-D.  An int or float array passes by its dtype
    kind (a float64 one comes back as it is), any other array and any list or tuple element by element (``_real``),
    once per call; NaN and inf pass.  A ragged sequence raises DimensionMismatch on one line that names ``name``."""
    try:
        v = np.asarray(x)
    except ValueError:  # numpy's refusal of a ragged sequence
        raise DimensionMismatch(f"{name} must not be ragged, got {_shown(x)}") from None
    if v.dtype.kind not in "iuf" or isinstance(x, (list, tuple)):  # numpy reads [True, 0.5] as floats
        elements = v if v.dtype.kind not in "iuf" else np.asarray(x, dtype=object)
        v = np.array([_real(e, name) for e in elements.ravel().tolist()]).reshape(v.shape)
    return np.array(v, float, copy=None, ndmin=ndmin)  # a float64 array as it is: no copy, no pass over its elements


def as_point(x, dim: int | None = None, name: str = "x", rows: str | None = None) -> np.ndarray:
    """``x``, its elements passing ``_reals``, as a float64 point of shape (dim,), a real scalar one in R^1, any length
    for dim None; or, given ``rows``, the name of a row count, a batch of starts of shape (rows, dim).  A wrong shape
    raises DimensionMismatch on one line that names ``name``."""
    v = _reals(x, name, 1)
    if rows is not None and v.shape[1:] != (dim,):
        raise DimensionMismatch(f"expected starts of shape ({rows}, {dim}), got {name} of shape {v.shape}")
    if rows is None and (v.ndim != 1 or dim is not None and v.shape[0] != dim):
        raise DimensionMismatch(f"expected a 1-D {name}{'' if dim is None else f' of dim {dim}'}, got shape {v.shape}")
    return v


def as_count(value, name: str, least: int | None = 0, error=ValueError) -> int:
    """``value``, a Python or numpy int (no bool or float, 3.0 too) >= ``least`` unless None, as a Python int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        raise error(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {_shown(value)}")
    return int(value)


def as_real(value, name: str, error=ValueError) -> float:
    """``value``, a real (no bool, string or array) exactly <= the largest float, as a Python float, which is > 0."""
    exact = value.item() if isinstance(value, np.floating) else value  # a float32 compares the largest float as inf
    if not _is_real(value) or not (exact <= sys.float_info.max and float(exact) > 0.0):  # NaN, 10**400 fail here
        raise error(f"{name} must be finite and positive, got {_shown(value)}")
    return float(exact)


def check_budget(count, name: str, dim: int, per: int, over: str = ""):
    """The one memory rule: ``count`` units (NaN fails) of ``dim`` coordinates at ``per`` bytes each fit BUDGET."""
    if not count * dim * per <= BUDGET:
        raise ValueError(f"{name} must be at most {BUDGET // (dim * per)}{over} in R^{dim}, got {_shown(count)}")


def sum_sq(pts: np.ndarray) -> np.ndarray:
    """Squared norm of each row, adding the squared columns left to right.

    The same bits in any memory layout, which ``(pts * pts).sum(axis=1)``
    does not promise; the engine's ball test adds in this order too.
    Outputs (values, CSV norms, deviations) take ``np.vecdot(v, v)``
    instead: on C-ordered rows it has the bits of the scalar ``x @ x`` and
    of ``np.linalg.norm``, so a row prints the same as its one-point case.
    """
    sq = pts * pts
    acc = sq[:, 0]
    for j in range(1, sq.shape[1]):
        acc += sq[:, j]
    return acc


class CatalogFunction:
    """Base class: closed-form value plus exact generator oracle on R^dim, ``dim`` an integer >= 1 (``as_count``)."""

    name: str
    semialgebraic: bool = True
    convex: bool = False  # a convex entry's minimizer set X is {0}, where f is 0
    quad_growth: float | None = None  # beta with f(x) - inf f >= beta * d(x, X)^2
    kinked: slice = slice(0)  # leading coordinates i with a kink |x_i| at x_i = 0
    fixed_dim: int | None = None  # the one dimension an entry is defined on; None: any dim >= 1

    def __init__(self, dim: int | None = None):
        dim = (self.fixed_dim or 2) if dim is None else dim
        if self.fixed_dim is not None and dim != self.fixed_dim:
            raise DimensionMismatch(f"{self.name} is defined on R^{self.fixed_dim}")
        self.dim = as_count(dim, "dim", 1, DimensionMismatch)

    def value(self, x: np.ndarray) -> float:
        """f(x), the one-row case of ``value_many``; rejects wrong dims and non-finite input."""
        x = as_point(x, self.dim)
        if not np.isfinite(x).all():
            raise NonFiniteInput(f"non-finite input {x}")
        return float(self.value_many(x[None, :])[0])

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        """f at each row of ``pts``, the only value formula of each function.

        A C-ordered row gets the bits of the one-point formula (``x @ x``,
        ``a ** 1.5``, ``np.sum(np.abs(x))``).  On F-ordered rows ``vecdot`` and
        ``sum(axis=1)`` may add in another order, and the last bit can
        differ (numpy 2.4 on x86-64: from d=4 for ``quad`` and ``neg_norm``,
        from d=8 for ``abs_sum``).  No caller passes F-ordered rows.
        """
        raise NotImplementedError

    def _active(self, x, active_tol: float) -> list[int]:  # NaN is never active; ``kinked`` leads, so i indexes x
        return [i for i, v in enumerate(x[self.kinked]) if abs(v) <= active_tol]

    def generator_count(self, x, active_tol: float = 0.0) -> int:
        """Number of generators at one point, a sequence of Python floats: 2^|A|."""
        return 1 << len(self._active(x, active_tol))

    def generator(self, x, j: int, active_tol: float = 0.0) -> tuple:
        """Generator j < ``generator_count(x)`` at one point in Python floats, by the bit rule; j is any int."""
        g = list(self.min_norm_at(x))
        for b, i in enumerate(reversed(self._active(x, active_tol))):
            g[i] = 1.0 if j >> b & 1 else -1.0
        return tuple(g)

    def generators(self, x: np.ndarray, active_tol: float = 0.0) -> np.ndarray:
        """The exact Clarke subdifferential at ``x``: its (m, dim) generator rows, row j ``generator(x, j)``.

        A kink is active where its defining quantity is <= ``active_tol`` in magnitude (0: exact at ``x``; inf: all
        kinked coordinates).  A NaN or negative tolerance, or rows that ``check_budget`` refuses, raise ValueError."""
        if not active_tol >= 0:
            raise ValueError(f"active_tol must be nonnegative, got {active_tol!r}")
        x = as_point(x, self.dim).tolist()
        m = self.generator_count(x, active_tol)
        check_budget(m, "the generator count", self.dim, LISTED_BYTES)
        return np.array([self.min_norm_at(x)]) if m == 1 else self._listing(x, m, active_tol)

    def _listing(self, x, m: int, active_tol: float) -> np.ndarray:
        """The m > 1 generator rows at one point, the bit rule of ``generator`` taken one column at a time."""
        gens = np.repeat(np.array([self.min_norm_at(x)]), m, axis=0)
        j = np.arange(m)
        for b, i in enumerate(reversed(self._active(x, active_tol))):
            gens[:, i] = np.where(j >> b & 1, 1.0, -1.0)
        return gens

    def at_kink(self, pts: np.ndarray) -> np.ndarray:
        """Rows where ``generator_count`` is above 1: a ``kinked`` coordinate is +-0.0."""
        return (pts[:, self.kinked] == 0.0).any(axis=1)

    def min_norm_at(self, x) -> tuple:
        """Minimal-norm subgradient at one point, given as a sequence of Python floats.

        Each catalog function writes its one-point formula here in Python
        floats, in the association order of its ``min_norm_many`` kernel, so
        the two agree bit for bit.
        """
        raise NotImplementedError

    def min_norm_many(self, pts: np.ndarray) -> np.ndarray:
        """Minimal-norm subgradient at each row of ``pts`` (closed form).

        Returns a new array in the memory layout of ``pts``: the step loop
        scales it in place and keeps its working rows column-major.  Each
        kernel makes few whole-array passes in one fixed association order,
        so each row has the bits of the one-point formula ``min_norm_at``,
        whatever the layout or batch (all but the sign of a NaN, where two
        NaNs of opposite sign meet).  Signs multiply by ``np.sign``, never
        ``np.copysign``: np.sign(-0.0) is +0.0, and copysign would move the
        next iterate of a -0.0 start.
        """
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "id": self.name,
            "dim": self.dim,
            "semialgebraic": self.semialgebraic,
            "convex": self.convex,
        }

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Quad(CatalogFunction):
    """f(x) = 0.5 * ||x||^2, gradient x."""

    name = "quad"
    convex = True
    quad_growth = 0.5

    def value_many(self, pts):
        return 0.5 * np.vecdot(pts, pts)

    def min_norm_at(self, x):
        return tuple(x)

    def min_norm_many(self, pts):
        return pts.copy(order="K")


class AbsSum(CatalogFunction):
    """f(x) = ||x||_1.

    At a point with active coordinates A = {i : |x_i| <= active_tol} the
    subdifferential is {g : g_i = sign(x_i) off A, g_i in [-1, 1] on A};
    the generators are the 2^|A| sign choices on A.
    """

    name = "abs_sum"
    convex = True
    kinked = slice(None)

    def value_many(self, pts):
        return np.sum(np.abs(pts), axis=1)

    def min_norm_at(self, x):
        return tuple(map(_sign, x))

    def min_norm_many(self, pts):
        return np.sign(pts)


class Cross(CatalogFunction):
    """f(x1, x2) = |x1|^1.5 * |x2|^1.5.

    Continuously differentiable (both partials carry a vanishing factor on
    the axes), so the subdifferential is a singleton everywhere; the
    gradient is not locally Lipschitz near the axis set, which is what
    decouples the discrete dynamics from the flow.  Every axis point is a
    critical non-strict local minimum.
    """

    name = "cross"
    fixed_dim = 2

    def value_many(self, pts):
        a = np.abs(pts)
        if not a.size or (a.min() >= _CROSS_CALM[0] and a.max() <= _CROSS_CALM[1]):  # all the keep box off the axes
            f = np.float_power(a, _THREE_HALVES)  # |x_i|^1.5, libm's pow on each element in any layout
            return f[:, 0] * f[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):  # beyond the box a factor or a product overflows to inf
            f = np.float_power(a, _THREE_HALVES)
            out = f[:, 0] * f[:, 1]
            off = ((f < _TINY) | (f == np.inf)).any(axis=1)  # a factor left the normal range; NaN takes neither
            b = a[off]
            out[off] = np.float_power(b[:, 0] * b[:, 1], _THREE_HALVES)  # within 1.25 ulps where f is normal
        return out

    def min_norm_at(self, x):
        x1, x2 = x
        a1, a2 = abs(x1), abs(x2)
        r1, r2 = math.sqrt(a1), math.sqrt(a2)
        return 1.5 * r1 * a2 * r2 * _sign(x1), 1.5 * a1 * r1 * r2 * _sign(x2)

    def min_norm_many(self, pts):
        # coordinate-major throughout: each pass is one loop over the rows per coordinate, in either layout
        x = pts.T
        w = np.empty((4, x.shape[1]))  # rows a1, a2, r1, r2: |x|, then sqrt|x|; then sign(x) in rows a1, a2
        a = w[:2]
        np.abs(x, a)
        np.sqrt(a, w[2:])
        # ((((1.5*r1)*a2)*r2)*sign(x1)) and ((((1.5*a1)*r1)*r2)*sign(x2)), over row pairs
        out = np.empty_like(pts)
        o = np.multiply(_THREE_HALVES, w[2::-2], out.T)
        o *= w[1:3]
        o *= w[3:]
        o *= np.sign(x, a)  # |x| is spent
        return out


class Wiggle(CatalogFunction):
    """f(x) = x^2 sin(1/x) with f(0) = 0, on R.

    Differentiable everywhere with f'(0) = 0, but the limiting gradients at
    0 fill [-1, 1] (the -cos(1/x) term), so the Clarke subdifferential at 0
    is [-1, 1] with extreme generators -1 and +1.  Not semialgebraic.
    """

    name = "wiggle"
    fixed_dim = 1
    semialgebraic = False
    kinked = slice(None)

    def value_many(self, pts):
        t = pts[:, 0]
        out = t * t  # f where t is 0 or 1/t overflows: t * t rounds to 0 there, as f does
        finite = np.abs(t) > _HUGE_RECIPROCAL  # 1/t is finite (or 0, where t is inf)
        out[finite] *= np.sin(1.0 / t[finite])
        return out

    def min_norm_at(self, x):
        t, = x
        if t == 0.0:
            return (0.0,)
        inv = 1.0 / t
        try:
            return (2.0 * t * math.sin(inv) - math.cos(inv),)
        except ValueError:  # 1/t overflowed to inf: math.sin raises, np.sin gives the default NaN
            return (_DEFAULT_NAN,)

    def min_norm_many(self, pts):
        t = pts[:, 0]
        nz = t != 0.0
        inv = np.reciprocal(np.where(nz, t, 1.0))  # 1/t, and 1 on the zero rows, whose field is 0
        return np.where(nz, (t + t) * np.sin(inv) - np.cos(inv), 0.0)[:, None]  # t + t has the bits of 2.0 * t


class VeeBowl(CatalogFunction):
    """f(x1, x2) = |x1| + x2^2; strict minimum at the origin."""

    name = "vee_bowl"
    fixed_dim = 2
    convex = True
    kinked = slice(1)

    def value_many(self, pts):
        return np.abs(pts[:, 0]) + pts[:, 1] * pts[:, 1]

    def min_norm_at(self, x):
        x1, x2 = x
        return _sign(x1), 2.0 * x2

    def min_norm_many(self, pts):
        out = np.empty_like(pts)
        np.sign(pts[:, 0], out=out[:, 0])
        np.multiply(2.0, pts[:, 1], out=out[:, 1])
        return out


class NegNorm(CatalogFunction):
    """f(x) = -||x||; gradient -x/||x|| away from 0.

    The true Clarke subdifferential at 0 is the whole unit ball; the finite
    generator list there is the cross-polytope {+-e_i}, a sub-polytope that
    still contains the minimal-norm element 0.  Trajectories never hit 0
    exactly under continuous sampling, so the approximation is inert.  The
    kink is x == 0 exactly.  Where the squares of x leave the normal range the
    field is that of x * 2^-e (exact, e the exponent of max |x_i|); the value
    keeps one formula, off by < 1.5e-154 there or overflowing beyond 1e100.
    """

    name = "neg_norm"

    def value_many(self, pts):
        return -np.sqrt(np.vecdot(pts, pts))

    def generator_count(self, x, active_tol=0.0):
        return 2 * self.dim if math.hypot(*x) <= active_tol else 1  # hypot neither underflows nor overflows; NaN: 1

    def generator(self, x, j, active_tol=0.0):
        """+e_j for j < dim, else -e_(j-dim) with the -0.0 zeros of ``-np.eye``."""
        if self.generator_count(x, active_tol) == 1:
            return self.min_norm_at(x)
        return tuple((1.0 if j < self.dim else -1.0) * (i == j % self.dim) for i in range(self.dim))

    def _listing(self, x, m, active_tol):
        return np.concatenate([np.eye(self.dim), -np.eye(self.dim)])

    def at_kink(self, pts):
        return (pts == 0.0).all(axis=1)

    def min_norm_at(self, x):
        acc = _sum_sq_at(x)
        if acc < _TINY or acc == math.inf:  # the squares left the normal range: the field of x * 2^-e, exactly
            e = math.frexp(max(map(abs, x)))[1]
            x = [math.ldexp(v, -e) for v in x]
            acc = _sum_sq_at(x)
        r = math.sqrt(acc)
        return tuple(v / -r for v in x) if r > 0.0 else (0.0,) * len(x)

    def min_norm_many(self, pts):
        acc = sum_sq(pts)
        off = (acc < _TINY) | (acc == np.inf)  # min_norm_at's branch; NaN takes neither
        if off.any():
            pts = np.ldexp(pts, np.where(off, -np.frexp(np.abs(pts).max(axis=1))[1], 0)[:, None])
            acc = sum_sq(pts)
        r = np.sqrt(acc)[:, None]
        return np.divide(pts, -r, out=np.zeros_like(pts), where=r > 0.0)  # x/(-r) == (-x)/r bit for bit


_REGISTRY = {cls.name: cls for cls in (Quad, AbsSum, Cross, Wiggle, VeeBowl, NegNorm)}
CATALOG_IDS = tuple(_REGISTRY)


def get_function(name: str, dim: int | None = None) -> CatalogFunction:
    """Instantiate a catalog entry at ``dim``: by default its fixed dimension, else 2."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog function {name!r}; known: {', '.join(CATALOG_IDS)}")
    return _REGISTRY[name](dim)


def list_catalog() -> list[CatalogFunction]:
    """All six catalog entries at their default dimensions."""
    return [cls() for cls in _REGISTRY.values()]


def _segment_min_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return a.copy()
    t = -float(a @ d) / dd
    t = min(1.0, max(0.0, t))
    return a + t * d


def _affine_min_norm(pts: np.ndarray) -> np.ndarray:
    # weights of the min-norm point of the affine hull of the rows
    m = pts.shape[0]
    gram = pts @ pts.T
    lhs = np.zeros((m + 1, m + 1))
    lhs[:m, :m] = gram
    lhs[:m, m] = 1.0
    lhs[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return sol[:m]


def minimal_norm_element(gens) -> np.ndarray:
    """argmin{||v|| : v in conv(gens)}, over the rows of an (m, dim) array.

    Exact segment projection for up to two generators; Wolfe's minimum-norm
    point iteration (tolerance 1e-12, iteration cap 10*m^2) beyond that.
    Wolfe's answer carries a residue up to that tolerance: at ``abs_sum``
    [0, 0, 0.5, 1] its first two entries are -4.4e-16 where 0 is exact.
    The dynamics never use it; they step on ``min_norm_many``.
    """
    gens = np.atleast_2d(np.asarray(gens, float))
    m = gens.shape[0]
    if gens.size == 0:  # also [], which atleast_2d makes one generator of dimension 0
        raise ValueError("empty generator set")
    if m == 1:
        return gens[0].copy()
    if m == 2:
        return _segment_min_norm(gens[0], gens[1])
    return _wolfe_min_norm(gens)


def _wolfe_min_norm(gens: np.ndarray) -> np.ndarray:
    m = gens.shape[0]
    norms2 = np.einsum("ij,ij->i", gens, gens)
    corral = [int(np.argmin(norms2))]
    weights = np.array([1.0])
    x = gens[corral[0]].copy()
    scale = max(1.0, float(np.max(norms2)))
    for _ in range(10 * m * m):
        dots = gens @ x
        j = int(np.argmin(dots))
        if dots[j] >= float(x @ x) - MIN_NORM_TOL * scale:
            break
        if j in corral:
            break
        corral.append(j)
        weights = np.append(weights, 0.0)
        # minor cycle: pull the affine solution back into the simplex
        while True:
            pts = gens[corral]
            v = _affine_min_norm(pts)
            if np.all(v > MIN_NORM_TOL):
                weights = v
                break
            # largest feasible move from weights toward v
            shrink = weights - v
            mask = shrink > MIN_NORM_TOL
            if not np.any(mask):
                weights = np.clip(v, 0.0, None)
                s = weights.sum()
                if s > 0:
                    weights = weights / s
                break
            theta = np.min(weights[mask] / shrink[mask])
            theta = min(1.0, theta)
            weights = (1.0 - theta) * weights + theta * v
            weights[weights < MIN_NORM_TOL] = 0.0
            keep = weights > 0.0
            if keep.all():
                weights = weights / weights.sum()
                break
            corral = [c for c, k in zip(corral, keep) if k]
            weights = weights[keep]
            weights = weights / weights.sum()
        x = weights @ gens[corral]
        if float(x @ x) <= MIN_NORM_TOL * MIN_NORM_TOL:
            x = np.zeros(gens.shape[1])
            break
    return x

