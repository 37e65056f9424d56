import itertools
import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from nsdyn import get_function, list_catalog, minimal_norm_element
from nsdyn.catalog import CATALOG_IDS, CatalogFunction, as_point
from nsdyn.engine import make_rng, sample_ball
from nsdyn.errors import DimensionMismatch, NonFiniteInput
from reference import hull_distance, min_norm_by_subset_enumeration


def test_evaluate_examples():
    cross = get_function("cross")
    assert cross.value([1.0, 0.1]) == pytest.approx(0.1 ** 1.5, rel=1e-15)
    assert cross.value([1.0, 0.0]) == 0.0
    assert get_function("quad", 2).value([3.0, 4.0]) == 12.5
    # value is the one-row case of value_many, bit for bit on C-ordered
    # batches, exact +-0.0 entries included
    rng = np.random.default_rng(8)
    cases = [(name, d) for name in ("quad", "abs_sum", "neg_norm") for d in (1, 2, 3, 4, 5, 8, 13, 32, 64)]
    for name, d in cases + [("cross", 2), ("wiggle", 1), ("vee_bowl", 2)]:
        fn = get_function(name, d)
        pts = rng.standard_normal((300, d)) * rng.choice([1e-3, 1.0, 1e3], size=(300, 1))
        zeros = rng.random((300, d)) < 0.2
        pts[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        pts[:2] = [[0.0] * d, [-0.0] * d]
        many = fn.value_many(pts)
        one = np.array([fn.value(p) for p in pts])
        assert many.tobytes() == one.tobytes(), (name, d)


def test_evaluate_errors():
    quad = get_function("quad", 2)
    with pytest.raises(DimensionMismatch):
        quad.value([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteInput):
        quad.value([np.nan, 0.0])
    with pytest.raises(NonFiniteInput):
        quad.value([np.inf, 0.0])
    with pytest.raises(DimensionMismatch, match="1-D"):
        as_point([[1, 2]])


def test_subdifferential_examples():
    abs1 = get_function("abs_sum", 1)
    s = abs1.generators([0.0], 0.0)
    npt.assert_array_equal(np.sort(s, axis=0), [[-1.0], [1.0]])

    cross = get_function("cross")
    s = cross.generators([1.0, 0.1], 0.0)
    assert s.shape == (1, 2)
    npt.assert_allclose(s[0],
                        [1.5 * 0.1 ** 1.5, 1.5 * 0.1 ** 0.5], rtol=1e-15)

    s = cross.generators([1.0, 0.0], 0.0)
    npt.assert_array_equal(s, [[0.0, 0.0]])


def test_active_tol_widens_kinks():
    vb = get_function("vee_bowl")
    assert vb.generators([1e-9, 0.5], 0.0).shape == (1, 2)
    s = vb.generators([1e-9, 0.5], 1e-8)
    assert s.shape == (2, 2)
    npt.assert_array_equal(s[:, 1], [1.0, 1.0])

    abs3 = get_function("abs_sum", 3)
    s = abs3.generators([0.0, 2.0, 0.0], 0.0)
    assert s.shape == (4, 3)
    assert np.all(s[:, 1] == 1.0)
    # a NaN or negative tolerance is refused; inf makes every kinked coordinate active
    for tol in (np.nan, -1.0, -0.5e-300):
        with pytest.raises(ValueError, match="active_tol"):
            abs3.generators([0.0, 2.0, 0.0], tol)
    assert abs3.generators([0.0, 2.0, -1e300], np.inf).shape == (8, 3)
    assert get_function("neg_norm", 2).generators([3.0, -4.0], np.inf).shape == (4, 2)
    assert get_function("cross").generators([1.0, 0.0], np.inf).shape == (1, 2)


def test_wiggle_at_zero_and_away():
    wig = get_function("wiggle")
    assert wig.value([0.0]) == 0.0
    s = wig.generators([0.0], 0.0)
    npt.assert_array_equal(np.sort(s, axis=0), [[-1.0], [1.0]])
    t = 0.02
    s = wig.generators([t], 0.0)
    npt.assert_allclose(s[0, 0],
                        2 * t * np.sin(1 / t) - np.cos(1 / t), rtol=1e-15)
    assert not wig.semialgebraic


def test_minimal_norm_examples():
    npt.assert_array_equal(minimal_norm_element(np.array([[-1.0], [1.0]])), [0.0])
    g = np.array([[0.047434164902525694, 0.4743416490252569]])
    npt.assert_array_equal(minimal_norm_element(g), g[0])
    npt.assert_allclose(minimal_norm_element(np.array([[1.0, 0.0], [0.0, 1.0]])),
                        [0.5, 0.5], rtol=1e-12)
    # any input with no entries, [] too, which atleast_2d would make one generator of dimension 0
    for empty in (np.empty((0, 2)), [], [[]], np.empty(0), np.empty((0, 0))):
        with pytest.raises(ValueError, match="empty generator set"):
            minimal_norm_element(empty)
    with pytest.raises(ValueError, match="empty generator set"):
        hull_distance([], [])


def test_minimal_norm_against_enumeration_oracle():
    rng = make_rng(314159)
    for trial in range(60):
        m = int(rng.integers(3, 7))
        dim = int(rng.integers(2, 5))
        gens = rng.normal(0.0, 1.0, (m, dim))
        if trial % 3 == 0:
            gens = gens + 2.0  # push hull away from the origin
        got = minimal_norm_element(gens)
        want = min_norm_by_subset_enumeration(gens)
        assert abs(np.linalg.norm(got) - np.linalg.norm(want)) < 1e-9
        assert hull_distance(gens, got) < 1e-9


def test_minimal_norm_matches_brute_force_on_random_polytopes():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # 1-7 generators in dimensions 1-4: Gaussian, or small integers with repeated and collinear rows
    @hyp.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hyp.given(m=st.integers(1, 7), dim=st.integers(1, 4), integer=st.booleans(), shift=st.sampled_from([0.0, 1.5]),
               seed=st.integers(0, 2 ** 32 - 1))
    def check(m, dim, integer, shift, seed):
        rng = make_rng(seed)
        gens = (rng.integers(-2, 3, (m, dim)).astype(float) if integer else rng.standard_normal((m, dim))) + shift
        want = min_norm_by_subset_enumeration(gens)
        assert np.abs(minimal_norm_element(gens) - want).max() <= 1e-9, gens.tolist()

    check()


def test_minimal_norm_exact_zero_for_symmetric_hulls():
    gens = np.concatenate([np.eye(4), -np.eye(4)], axis=0)
    npt.assert_array_equal(minimal_norm_element(gens), np.zeros(4))


SAMPLE_SPECS = [
    ("quad", 2, [0.0, 0.0], 1.5),
    ("abs_sum", 2, [0.0, 0.0], 1.5),
    ("abs_sum", 3, [0.0, 0.0, 0.0], 1.0),
    ("cross", 2, [1.0, 0.0], 0.5),
    ("vee_bowl", 2, [0.0, 0.0], 1.0),
    ("neg_norm", 2, [0.5, 0.5], 0.4),
    ("wiggle", 1, [0.1], 0.05),
]


KINK_POINTS = [
    ("abs_sum", 3, [0.0, 0.0, 0.0]),
    ("abs_sum", 4, [0.0, 0.0, 0.5, 1.0]),
    ("abs_sum", 3, [0.0, 2.0, 0.0]),
    ("vee_bowl", 2, [0.0, 0.3]),
    ("vee_bowl", 2, [0.0, -0.0]),
    ("wiggle", 1, [0.0]),
    ("neg_norm", 3, [0.0, 0.0, 0.0]),
    ("cross", 2, [1.0, 0.0]),
    ("cross", 2, [0.0, 1.0]),
]


def test_min_norm_lies_in_hull_with_smallest_norm():
    rng = make_rng(7)
    points = [(name, dim, x) for name, dim, center, radius in SAMPLE_SPECS
              for x in sample_ball(np.array(center), radius, 40, rng)]
    points += [(name, dim, np.array(x)) for name, dim, x in KINK_POINTS]
    for name, dim, x in points:
        fn = get_function(name, dim)
        s = fn.generators(x, 0.0)
        v = minimal_norm_element(s)
        assert hull_distance(s, v) <= 1e-10
        gen_norms = np.linalg.norm(s, axis=1)
        assert np.linalg.norm(v) <= gen_norms.min() + 1e-12
        # the closed-form field the dynamics use: in the hull, and no longer
        # than Wolfe's projection
        row = fn.min_norm_many(x[None, :])[0]
        assert hull_distance(s, row) <= 1e-12, (name, x)
        assert np.linalg.norm(row) <= np.linalg.norm(v) + 1e-15, (name, x)


def test_at_kink_marks_exactly_the_points_with_several_generators():
    # run_batch sends its at_kink rows to the one-point selection, which counts generators, so the two must
    # agree; and the one generator the selection builds is the row generators lists, bit for bit
    rng = make_rng(12)
    cases = {}
    for name, dim, x in KINK_POINTS:
        cases.setdefault((name, dim), []).append(x)
    for name, dim, center, radius in SAMPLE_SPECS:
        cases.setdefault((name, dim), []).extend(sample_ball(np.array(center), radius, 20, rng).tolist())
    for (name, dim), rows in cases.items():  # and every row of +-0.0, NaN and 0.5
        rows.extend(itertools.product([0.0, -0.0, np.nan, 0.5], repeat=dim))
    # neg_norm's kink is x == 0 exactly: the square of 1e-200 underflows to 0 and that of 1e-160 is subnormal
    cases[("neg_norm", 2)] += [[1e-200, 0.0], [1e-160, 0.0]]
    assert get_function("neg_norm", 2).at_kink(np.array([[1e-200, 0.0], [1e-160, 0.0]])).tolist() == [False, False]
    assert {name for name, _ in cases} == set(CATALOG_IDS)
    # vee_bowl's one kink is x1 = 0; x2 = 0 is smooth
    vee = get_function("vee_bowl")
    assert [vee.generator_count(x) for x in ([0.0, 0.0], [-0.0, 0.5], [0.5, 0.0], [0.5, -0.0])] == [2, 2, 1, 1]
    assert vee.at_kink(np.array([[0.0, 0.3], [0.3, 0.0], [-0.0, -0.0]])).tolist() == [True, False, True]
    assert vee.generators([0.0, 0.0]).tolist() == [[-1.0, 0.0], [1.0, 0.0]]
    for (name, dim), rows in cases.items():
        fn = get_function(name, dim)
        pts = np.array(rows, float)
        assert fn.at_kink(pts).tolist() == [fn.generator_count(p) > 1 for p in pts.tolist()], name
        for p, tol in itertools.product(pts.tolist(), (0.0, 0.3)):
            gens = fn.generators(p, tol)
            one = np.array([fn.generator(p, j, tol) for j in range(fn.generator_count(p, tol))])
            assert one.tobytes() == gens.tobytes(), (name, p, tol)  # -0.0 and NaN bits included
    # the bit rule on a set too large to list: active coordinate t takes bit |A|-1-t of j
    fn, x = get_function("abs_sum", 70), [0.0] * 69 + [2.0]
    assert fn.generator_count(x) == 2 ** 69
    assert fn.generator(x, 2 ** 68 + 1) == (1.0,) + (-1.0,) * 67 + (1.0, 1.0)


def test_min_norm_at_has_no_fallback():
    # each catalog function writes its one-point formula; one row of the batch kernel does not stand in for it
    class BatchOnly(CatalogFunction):
        min_norm_many = staticmethod(get_function("cross").min_norm_many)

    with pytest.raises(NotImplementedError):
        BatchOnly(2).min_norm_at([0.5, 0.5])


def test_no_duplicate_generators():
    checks = [
        ("abs_sum", 2, [0.0, 0.0]),
        ("vee_bowl", 2, [0.0, 0.3]),
        ("wiggle", 1, [0.0]),
        ("neg_norm", 3, [0.0, 0.0, 0.0]),
    ]
    for name, dim, x in checks:
        gens = get_function(name, dim).generators(x, 0.0)
        assert len(np.unique(gens, axis=0)) == gens.shape[0]


def _central_difference(fn, x, i, step=1e-6):
    e = np.zeros_like(x)
    e[i] = step
    return (fn.value(x + e) - fn.value(x - e)) / (2 * step)


def test_singleton_generator_matches_finite_differences():
    # margin 1e-3 from every kink, relative tolerance 1e-6
    rng = make_rng(99)
    cases = [
        ("quad", 3, lambda x: True),
        ("cross", 2, lambda x: min(abs(x[0]), abs(x[1])) > 1e-3),
        ("vee_bowl", 2, lambda x: abs(x[0]) > 1e-3),
        ("abs_sum", 2, lambda x: np.min(np.abs(x)) > 1e-3),
        ("neg_norm", 2, lambda x: np.linalg.norm(x) > 1e-3),
        ("wiggle", 1, lambda x: abs(x[0]) > 0.05),
    ]
    for name, dim, away in cases:
        fn = get_function(name, dim)
        tested = 0
        while tested < 25:
            x = rng.uniform(-1.2, 1.2, dim)
            if not away(x):
                continue
            tested += 1
            s = fn.generators(x, 0.0)
            assert s.shape[0] == 1
            g = s[0]
            fd = np.array([_central_difference(fn, x, i) for i in range(dim)])
            npt.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_cross_sign_symmetry():
    cross = get_function("cross")
    rng = make_rng(5)
    for _ in range(50):
        x = rng.uniform(0.05, 1.5, 2)
        base = cross.generators(x, 0.0)[0]
        for s1, s2 in itertools.product((-1.0, 1.0), repeat=2):
            flipped = np.array([s1 * x[0], s2 * x[1]])
            assert cross.value(flipped) == cross.value(x)
            g = cross.generators(flipped, 0.0)[0]
            npt.assert_array_equal(g, [s1 * base[0], s2 * base[1]])


def _field_at(name, x):
    """One point's minimal-norm field in float64 scalars, in the kernels' association order."""
    x1, x2 = x[0], x[-1]
    sign = np.sign
    if name == "quad":
        return list(x)
    if name == "abs_sum":
        return [sign(v) for v in x]
    if name == "cross":
        a1, a2 = abs(x1), abs(x2)
        r1, r2 = np.sqrt(a1), np.sqrt(a2)
        return [1.5 * r1 * a2 * r2 * sign(x1), 1.5 * a1 * r1 * r2 * sign(x2)]
    if name == "wiggle":
        return [np.float64(0.0) if x1 == 0.0 else 2.0 * x1 * np.sin(1.0 / x1) - np.cos(1.0 / x1)]
    if name == "vee_bowl":
        return [sign(x1), 2.0 * x2]
    acc = x1 * x1 + x2 * x2  # neg_norm: the squared columns added left to right
    if acc < 2.0 ** -1022 or acc == np.inf:  # out of the normal range: the field of x * 2^-e, e of max |x_i|
        x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        acc = x[0] * x[0] + x[1] * x[1]
    r = np.sqrt(acc)
    return [(-v) / r if r > 0.0 else np.float64(0.0) for v in x]


def test_fields_keep_the_bits_of_the_one_point_formula_in_any_layout():
    # NaN is the positive np.nan: where two NaNs of opposite sign meet, numpy and C may keep either sign
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1e300, -1e-300, 0.7]
    table = np.concatenate([np.array(list(itertools.product(special, repeat=2))),
                            make_rng(11).uniform(-3.0, 3.0, (40, 2))])
    for name in ("quad", "abs_sum", "cross", "wiggle", "vee_bowl", "neg_norm"):
        fn = get_function(name)
        pts = table[:, :fn.dim]
        with np.errstate(all="ignore"):
            want = np.array([_field_at(name, row) for row in pts], dtype=float)
            # min_norm_at, in Python floats: wiggle's 1/5e-324 is inf, where it must give np.sin's NaN
            at = np.array([fn.min_norm_at(row) for row in pts.tolist()], dtype=float)
            bad = np.flatnonzero((at.view(np.uint64) != want.view(np.uint64)).any(axis=1))
            assert bad.size == 0, (name, "min_norm_at", pts[bad[:3]].tolist())
            for batch in (np.ascontiguousarray(pts), np.asfortranarray(pts)):
                got = fn.min_norm_many(batch)
                assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                       (batch.flags.c_contiguous, batch.flags.f_contiguous), name
                bad = np.flatnonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))
                assert bad.size == 0, (name, batch.flags.f_contiguous, pts[bad[:3]].tolist())


def test_min_norm_at_matches_min_norm_many_rows():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fns = [get_function(name, dim) for name in ("quad", "abs_sum", "neg_norm") for dim in range(1, 6)]
    fns += [get_function(name) for name in ("cross", "wiggle", "vee_bowl")]
    # rows of like sizes, where the order of a sum shows, and rows of any float or special value (NaN is np.nan)
    size = st.floats(-2.0, 2.0)
    coord = size | st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, np.nan, 5e-324, -2.5e-310, 1e-160])

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(data=st.data(), fn=st.sampled_from(fns))
    def check(data, fn):
        point = st.lists(size, min_size=fn.dim, max_size=fn.dim) | st.lists(coord, min_size=fn.dim, max_size=fn.dim)
        rows = data.draw(st.lists(point, min_size=1, max_size=8))
        with np.errstate(all="ignore"):
            want = np.array([fn.min_norm_at(row) for row in rows], dtype=float)
            for batch in (np.array(rows), np.asfortranarray(rows)):
                got = fn.min_norm_many(batch)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (fn, rows)

    check()


def _exact_field(mp, name, x):
    """The field at the float point x in mpmath's working precision, and each component's error scale.

    ``wiggle`` is taken at the rounded 1/t, with scale |2t sin(1/t)| + |cos(1/t)|: cos(1/t) magnifies the
    rounding of 1/t by 1/t (~1.7e7 ulps near t = 1e-6 against the exact 1/t), which is the conditioning of
    the function, not an error of its formula; the difference cancels, so its result is not the scale.
    """
    x = [mp.mpf(v) for v in x]
    if name == "quad":
        field = x
    elif name == "abs_sum":
        field = [mp.sign(v) for v in x]
    elif name == "cross":
        a1, a2 = abs(x[0]), abs(x[1])
        field = [1.5 * mp.sqrt(a1) * a2 ** 1.5 * mp.sign(x[0]), 1.5 * a1 ** 1.5 * mp.sqrt(a2) * mp.sign(x[1])]
    elif name == "wiggle":
        t = x[0]
        if not t:  # the minimal-norm element of [-1, 1]
            return [t], [t]
        inv = mp.mpf(1.0 / float(t))
        a, b = 2 * t * mp.sin(inv), mp.cos(inv)
        return [a - b], [abs(a) + abs(b)]
    elif name == "vee_bowl":
        field = [mp.sign(x[0]), 2 * x[1]]
    else:  # neg_norm
        r = mp.sqrt(sum(v * v for v in x))
        field = [-v / r if r else v for v in x]
    return field, [abs(v) for v in field]


# a priori worst error of each field in ulps of its scale (scale * 2^-52), at most half of one per rounding:
# cross two square roots and three products; neg_norm in R^3 three squares and two sums (halved by the square
# root), the root and the division; wiggle libm's sin and cos (each within an ulp), a product and the
# difference.  quad, abs_sum and vee_bowl round nothing (2 * x2 is exact).
FIELD_ULPS = {"quad": 0.0, "abs_sum": 0.0, "cross": 2.5, "wiggle": 2.0, "vee_bowl": 0.0, "neg_norm": 1.75}


def test_fields_are_accurate_against_50_digit_arithmetic():
    # the bit tests hold min_norm_at, min_norm_many and a float64 copy of each formula to one another; this
    # holds them to the real value.  Roundings to nearest cancel on average, so the mean signed error stays
    # near 0 where a constant off in its last digits shifts every value one way (1.5 by one ulp: +0.67).
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    # the finite special values within the keep test's 1e100: beyond it the runs stop, and intermediates
    # overflow (cross at (1e300, 0) is NaN); wiggle at 5e-324 and -2.5e-310, where 1/t overflows, is NaN
    special = [0.0, -0.0, 5e-324, -2.5e-310, -1e-300, 1e-100, 0.7, -3.0, 1e100]
    rng = make_rng(13)
    with mp.workdps(50), np.errstate(over="ignore"):  # neg_norm's squares of 1e300 overflow, as they may
        for name, dim in (("quad", 2), ("abs_sum", 2), ("cross", 2), ("wiggle", 1), ("vee_bowl", 2),
                          ("neg_norm", 3)):
            fn = get_function(name, dim)
            table = np.array(list(itertools.product(special, repeat=dim)))
            if name == "wiggle":
                table = table[[t == 0.0 or math.isfinite(1.0 / t) for t in table[:, 0].tolist()]]
            if name == "neg_norm":  # squared norms that are subnormal, underflow to 0 or overflow
                table = np.concatenate([table, [[1e-200, 0.0, 0.0], [1e-160, 0.0, 0.0], [1e300, 0.0, 0.0],
                                                [1e200, 1e200, 0.0], [3e-200, -4e-200, 1e-210],
                                                [-1e300, 5e-324, 0.0]]])
            sampled = rng.choice([-1.0, 1.0], (300, dim)) * 10.0 ** rng.uniform(-5.0, 5.0, (300, dim))
            for label, pts in (("special", table), ("sampled", sampled)):
                errs = []
                for x, got in zip(pts.tolist(), fn.min_norm_many(pts).tolist()):
                    assert tuple(got) == fn.min_norm_at(x), (name, x)
                    want, scale = _exact_field(mp, name, x)
                    errs += [float((g - w) / max(sc * 2.0 ** -52, mp.mpf(2.0 ** -1074))) * (1 if w >= 0 else -1)
                             for g, w, sc in zip(got, want, scale)]
                errs = np.array(errs)
                assert np.abs(errs).max() <= FIELD_ULPS[name], (name, label, pts[np.argmax(np.abs(errs)) // dim])
                assert abs(errs.mean()) <= 0.2, (name, label, errs.mean())


def _exact_value(mp, name, x):
    """f at the float point x in mpmath's working precision; ``wiggle`` at the rounded 1/t, as ``_exact_field`` takes
    it, where that is finite."""
    x = [mp.mpf(v) for v in x]
    if name == "quad":
        return sum(v * v for v in x) / 2
    if name == "abs_sum":
        return sum(abs(v) for v in x)
    if name == "cross":
        return (abs(x[0]) * abs(x[1])) ** 1.5
    if name == "wiggle":
        t = x[0]
        inv = 1.0 / float(t) if t else 0.0
        return t * t * mp.sin(mp.mpf(inv) if math.isfinite(inv) else 1 / t)
    if name == "vee_bowl":
        return abs(x[0]) + x[1] * x[1]
    return -mp.sqrt(sum(v * v for v in x))  # neg_norm


# a priori worst error of each value in ulps of |f| (|f| * 2^-52, at least the least subnormal), at most half of one
# per rounding: quad two squares and a sum (the halving is exact but where it rounds a subnormal, which the floor
# covers); abs_sum one sum; vee_bowl a square and a sum; cross each power within an ulp (libm's pow) and the
# product, or where a factor leaves the normal range the product (amplified 1.5 times by the power) and the power;
# wiggle a square, libm's sin within an ulp and the product; neg_norm in R^3 three squares and two sums (halved by
# the square root) and the root.  Where neg_norm's squares leave the normal range its documented bound is absolute.
VALUE_ULPS = {"quad": 1.5, "abs_sum": 0.5, "cross": 2.5, "wiggle": 2.0, "vee_bowl": 1.0, "neg_norm": 1.75}
NEG_NORM_ABS = 1.5e-154


def test_values_are_accurate_against_50_digit_arithmetic():
    # the value twin of the field test: value_many, the one value formula, held to the real value on the special
    # values within the keep test's 1e100, with -1e-210 (cross's |x1|^1.5 is subnormal there), and on sampled rows;
    # value, its one-row case, gives each row's bits.  Among them are cross at (1e100, 1e-250), where a factor
    # underflows though f is 1e-225, and wiggle at 5e-324, where 1/t overflows though f rounds to 0; cross also
    # beyond the box, where a factor overflows though f need not
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    special = [0.0, -0.0, 5e-324, -2.5e-310, -1e-300, 1e-250, -1e-210, 1e-160, 1e-100, 0.7, -3.0, 1e50, 1e100]
    rng = make_rng(17)
    with mp.workdps(50), np.errstate(over="ignore", invalid="ignore"):  # cross's factors beyond the box overflow
        for name, dim in (("quad", 2), ("abs_sum", 2), ("cross", 2), ("wiggle", 1), ("vee_bowl", 2),
                          ("neg_norm", 3)):
            fn = get_function(name, dim)
            assert fn.value_many(np.empty((0, dim))).shape == (0,)
            table = np.array(list(itertools.product(special, repeat=dim)))
            if name == "cross":
                table = np.concatenate([table, [[1e300, 1e-300], [1e300, -1e-200], [-1e250, 1e-210], [1e300, 0.0]]])
            sampled = rng.choice([-1.0, 1.0], (300, dim)) * 10.0 ** rng.uniform(-5.0, 5.0, (300, dim))
            for label, pts in (("special", table), ("sampled", sampled)):
                errs = []
                for x, got in zip(pts.tolist(), fn.value_many(pts).tolist()):
                    assert repr(fn.value(x)) == repr(got), (name, x)
                    want = _exact_value(mp, name, x)
                    if name == "neg_norm" and want * want < 2.0 ** -1022:
                        assert abs(got - want) < NEG_NORM_ABS, (x, got)
                        continue
                    err = (got - want) / max(abs(want) * 2.0 ** -52, mp.mpf(2.0 ** -1074))
                    assert abs(err) <= VALUE_ULPS[name], (name, label, x, got, float(want))
                    errs.append(float(err) * (1 if want >= 0 else -1))
                assert abs(np.mean(errs)) <= 0.2, (name, label, np.mean(errs))


def test_generator_norms_respect_analytic_lipschitz_constants():
    rng = make_rng(31)
    cases = [
        ("abs_sum", 3, [0.2, -0.1, 0.4], 1.0, np.sqrt(3)),
        ("quad", 2, [0.0, 0.0], 1.0, 1.0),
        ("vee_bowl", 2, [0.0, 0.0], 1.0, np.sqrt(1.0 + 4.0)),
        ("neg_norm", 3, [0.3, 0.0, 0.0], 2.0, 1.0),
        ("wiggle", 1, [0.0], 1.0, 3.0),
        ("cross", 2, [1.0, 0.0], 0.5, 1.5 * np.sqrt(1.5 * 0.5 ** 3 + 1.5 ** 3 * 0.5)),
    ]
    for name, dim, center, radius, bound in cases:
        fn = get_function(name, dim)
        for x in sample_ball(np.array(center, float), radius, 200, rng):
            norms = np.linalg.norm(fn.generators(x, 0.0), axis=1)
            assert norms.max() <= bound + 1e-9


def test_list_catalog_descriptors():
    cat = {fn.name: fn for fn in list_catalog()}
    # the registry's order is the order list-functions prints
    golden = json.loads((Path(__file__).parent / "goldens" / "list_functions.json").read_text())
    assert list(cat) == list(CATALOG_IDS) == [d["id"] for d in golden]
    # get_function and the class's own constructor take the same dims, and refuse the others with one message
    for name, fn in cat.items():
        fixed = type(fn).fixed_dim
        assert fn.dim == (fixed or 2) == get_function(name).dim
        for d in {0, 1, 2, 3, 7} | ({fixed - 1, fixed + 1} if fixed else set()):
            messages = set()
            for build in (get_function, lambda _, d: type(fn)(d)):
                if d == 0 or fixed not in (None, d):
                    with pytest.raises(DimensionMismatch) as exc:
                        build(name, d)
                    messages.add(str(exc.value))
                else:
                    assert build(name, d).dim == d
            assert len(messages) <= 1, (name, d, messages)
            if d != 0 and fixed not in (None, d):
                assert messages == {f"{name} is defined on R^{fixed}"}
    with pytest.raises(KeyError, match="nope"):
        get_function("nope")
    assert cat["cross"].semialgebraic
    assert not cat["wiggle"].semialgebraic
    assert cat["quad"].convex
    # the convex contract convex_bounds_report relies on: each convex entry minimizes at the origin, where 0 is
    # a subgradient and f is 0
    convex = [fn for fn in cat.values() if fn.convex]
    assert [fn.name for fn in convex] == ["quad", "abs_sum", "vee_bowl"]
    for fn in convex + [get_function("quad", 3), get_function("abs_sum", 3)]:
        zeros = np.zeros(fn.dim)
        assert fn.value(zeros) == 0.0 and hull_distance(fn.generators(zeros), zeros) == 0.0, fn
    for fn in cat.values():
        d = fn.describe()
        assert set(d) == {"id", "dim", "semialgebraic", "convex"}


def test_subdifferential_set_validates_dim():
    with pytest.raises(DimensionMismatch):
        get_function("cross").generators([1.0], 0.0)
    # and lists at most MAX_GENERATORS rows, refusing more before it builds any
    with pytest.raises(ValueError, match=f"{2 ** 40} generators"):
        get_function("abs_sum", 41).generators([0.0] * 40 + [1.0])
