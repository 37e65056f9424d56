#!/usr/bin/env python3
"""A committed mutation table: each row breaks the package in one place and names the tests that must catch it.

    python tools/mutants.py

For each row, alone and one after another, the tool copies ``src/``, ``tests/``, ``demos/``,
``pyproject.toml`` and ``README.md`` into a fresh temporary directory, replaces each of the row's exact old
texts in its file under ``src/nsdyn/`` (each must occur there exactly once), and runs
``python -m pytest -x -q`` on the row's tests in that directory.
A row is killed when pytest reports a failed test (exit code 1) or an import error (exit code 2), and
survives when its tests pass.  The named tests must first pass on an unmutated copy.  The tool prints one
line per row and the count killed, and exits 1 if a row survives, if an old text is missing or not unique,
or if pytest ends in any other way (a named test that does not exist ends with exit code 4 or 5).  A change
that moves mutated code updates its row.

Standard library only; nothing runs in parallel.  The whole table takes about two minutes on 2 CPUs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

E, C, S, F, R, CLI, X = ("tests/test_engine.py", "tests/test_catalog.py", "tests/test_stability.py",
                         "tests/test_flow.py", "tests/test_reporting.py", "tests/test_cli.py",
                         "tests/test_counterexample.py")
PT = f"{E}::test_every_point_argument_passes_one_point_rule"

# (file under src/nsdyn, ((exact old text, new text), ...), tests that must fail)
MUTANTS = [
    # the batch keep test: skip a ball's (or box's) last column, let NaN pass the box, retire a row on the
    # sphere, test only every other step
    ("engine.py", (("cols[0], cols[1:], np.empty", "cols[0], cols[1:-1], np.empty"),),
     (f"{E}::test_stop_rule_retires_exactly_the_masked_rows",)),
    ("engine.py", (("np.maximum(first, col, out=first)", "np.fmax(first, col, out=first)"),),
     (f"{E}::test_stop_rule_retires_exactly_the_masked_rows",)),
    ("engine.py", (("np.less_equal(_measure(keep, pts, ws), bound, ws[3])",
                    "np.less(_measure(keep, pts, ws), bound, ws[3])"),),
     (f"{E}::test_stop_rule_retires_exactly_the_masked_rows",)),
    ("engine.py", (("if np.count_nonzero(kept) != live:", "if k % 2 == 0 and np.count_nonzero(kept) != live:"),),
     (f"{E}::test_batch_exit_indices_match_first_exit",)),
    # the keep test's zero-center rule on every ball, so a nonzero center is never subtracted (the converse,
    # subtracting a center of +-0.0 too, gives the same bits by design and is no row)
    ("engine.py", (("center is None or not center.any()", "center is None or True"),),
     (f"{E}::test_run_batch_matches_run_at_signed_zero_and_nonzero_centers",)),
    # the batch loop's last step off by one: a budget of n_steps steps n_steps - 1 times
    ("engine.py", (("if k == n_steps or live == 0:", "if k == n_steps - 1 or live == 0:"),),
     (f"{E}::test_batch_exit_indices_match_first_exit",)),
    # the recorded loop: its exit index off by one, a block tested without its last iterate, the R^2 step with
    # the first subgradient coordinate in both, the R^1 step adding
    ("engine.py", (("return tested + hit\n", "return tested + hit + 1\n"),),
     (f"{E}::test_recorded_loop_exits_at_the_first_failing_iterate",)),
    ("engine.py", (("_first_failing(keep, points[tested:tested + new])",
                    "_first_failing(keep, points[tested:tested + new - 1])"),),
     (f"{E}::test_recorded_loop_exits_at_the_first_failing_iterate",)),
    ("engine.py", (("[x[0] - a * s[0], x[1] - a * s[1]]", "[x[0] - a * s[0], x[1] - a * s[0]]"),),
     (f"{E}::test_recorded_loop_exits_at_the_first_failing_iterate",)),
    ("engine.py", (("[x[0] - a * s[0]]\n", "[x[0] + a * s[0]]\n"),),
     (f"{E}::test_recorded_loop_exits_at_the_first_failing_iterate",)),
    # the seed's key order
    ("engine.py", (('key = (as_count(root, "seed"),) + tuple(as_count(i, "seed index") for i in indices)',
                    'key = tuple(as_count(i, "seed index") for i in indices) + (as_count(root, "seed"),)'),),
     (f"{CLI}::test_goldens_regenerate_byte_identical",)),
    # the one integer rule: without its integrality test (2.5 truncates, True counts as 1), a count at its least
    # value refused, and run's seed checked only at a kink
    ("catalog.py", (("if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (", "if ("),),
     (f"{E}::test_every_integer_argument_passes_one_integer_rule",)),
    ("catalog.py", (("value < least)", "value <= least)"),), (f"{S}::test_probe_validates_query",)),
    ("engine.py", (('n_steps, seed = as_count(n_steps, "n_steps"), as_count(seed, "seed")',
                    'n_steps, seed = as_count(n_steps, "n_steps"), seed'),),
     (f"{E}::test_every_integer_argument_passes_one_integer_rule",)),
    # the one real rule: up to inf, so an int beyond float range reaches float() (OverflowError); the largest float
    # refused; the shared predicate ``_is_real`` without its Real test (a string meets <, a TypeError) or its bool
    # test (True is 1.0); a numpy float compared as itself (a float32 inf passes, as the largest float casts to its
    # inf); the exact value > 0 for its float (a Fraction below the least subnormal passes as 0.0)
    ("catalog.py", (("exact <= sys.float_info.max and", "exact < math.inf and"),),
     (f"{E}::test_alpha_must_be_finite_and_positive",)),
    ("catalog.py", (("exact <= sys.float_info.max and", "exact < sys.float_info.max and"),),
     (f"{E}::test_alpha_must_be_finite_and_positive",)),
    ("catalog.py", (("return isinstance(value, numbers.Real) and not isinstance(value, bool)",
                     "return not isinstance(value, bool)"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    ("catalog.py", (("return isinstance(value, numbers.Real) and not isinstance(value, bool)",
                     "return isinstance(value, numbers.Real)"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    # the one point rule: without the element check (None meets float(), a TypeError; "0.5" runs as 0.5); the
    # dtype-kind test admitting bools, strings or complex numbers (True runs as 1.0, "0.5" as 0.5, 1j as 0.0); a
    # ragged sequence refused by numpy's own line; a point of another length, or a batch of another width, passed
    ("catalog.py", (("        if _is_real(e):\n            return float(e)", "        return float(e)"),),
     (PT,)),
    ("catalog.py", (('if v.dtype.kind not in "iuf" or', 'if v.dtype.kind not in "biuf" or'),), (PT,)),
    ("catalog.py", (('if v.dtype.kind not in "iuf" or', 'if v.dtype.kind not in "iufU" or'),), (PT,)),
    ("catalog.py", (('if v.dtype.kind not in "iuf" or', 'if v.dtype.kind not in "iufc" or'),), (PT,)),
    ("catalog.py", (('raise DimensionMismatch(f"{name} must not be ragged, got {_shown(x)}") from None', "raise"),),
     (PT,)),
    # a list or tuple of numbers read as numpy reads it, so [True, 0.5] runs from (1.0, 0.5): without the list
    # test, or with the list's elements taken from numpy's float array
    ("catalog.py", ((' or isinstance(x, (list, tuple)):', ":"),), (PT,)),
    ("catalog.py", (('else np.asarray(x, dtype=object)', "else v"),), (PT,)),
    # a time outside the point rule: numpy's own coercion runs "0.5" and True as times
    ("engine.py", (('t = _reals(t, "t")', "t = np.asarray(t, dtype=float)"),), (PT,)),
    # a value too long for Python to print: each rule's line printed with repr (Python's own 4300-digit error),
    # and an int's sign dropped
    ("catalog.py", (("float64 range, got {_shown(e)}", "float64 range, got {e!r}"),), (PT,)),
    ("catalog.py", (("f' >= {least}'}, got {_shown(value)}", "f' >= {least}'}, got {value!r}"),),
     (f"{E}::test_every_integer_argument_passes_one_integer_rule",)),
    ("catalog.py", (("finite and positive, got {_shown(value)}", "finite and positive, got {value!r}"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    ("catalog.py", (("{'negative ' * (value < 0)}", ""),),
     (f"{E}::test_every_integer_argument_passes_one_integer_rule",)),
    ("catalog.py", (("(v.ndim != 1 or dim is not None and v.shape[0] != dim)", "(v.ndim != 1)"),),
     (f"{C}::test_evaluate_errors",)),
    ("catalog.py", (("if rows is not None and v.shape[1:] != (dim,):", "if rows is not None and v.ndim != 2:"),),
     (f"{E}::test_stop_rule_retires_exactly_the_masked_rows",)),
    # a batch of starts or a probe grid that bypasses the rule: numpy's own coercion runs "0.5" or meets a TypeError
    ("engine.py", (('x0s = as_point(x0s, fn.dim, "x0s", rows="n")', "x0s = np.asarray(x0s)"),), (PT,)),
    ("counterexample.py", (('as_point(initial_points, 2, "initial_points", rows="n_samples")',
                            "np.asarray(initial_points, float)"),), (PT,)),
    ("stability.py", (('as_point(epsilon * np.array(DELTA_FRACTIONS) if q.delta_grid is None else q.delta_grid, '
                       'name="delta_grid")',
                       "np.asarray(epsilon * np.array(DELTA_FRACTIONS) if q.delta_grid is None else q.delta_grid)"),),
     (PT,)),
    ("stability.py", (('as_point(q.alpha_grid, name="alpha_grid")', "np.asarray(q.alpha_grid)"),), (PT,)),
    ("catalog.py", (("if isinstance(value, np.floating) else value", "if False else value"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    ("catalog.py", (("and float(exact) > 0.0)", "and exact > 0.0)"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    # the recorded-step cap refusing exactly MAX_RECORDED_STEPS, and an exit ball's radius unchecked (0 passes)
    ("engine.py", (("0 <= n_steps <= MAX_RECORDED_STEPS", "0 <= n_steps < MAX_RECORDED_STEPS"),),
     (f"{E}::test_run_zero_steps_records_initial_point",)),
    ("engine.py", (('as_point(center, dim, "center"), as_real(radius, "radius")',
                    'as_point(center, dim, "center"), float(radius)'),),
     (f"{E}::test_bad_exit_ball_is_rejected_everywhere",)),
    # random_extreme's draw: drawn bits in place of rng.integers(m) wherever m > 2
    ("engine.py", (("if m <= 2 ** 63 else", "if m <= 2 else"),),
     (f"{E}::test_random_extreme_draws_the_documented_index",)),
    # a row's stream from the seed after its own (run and run_batch share the source, so only the draw shows
    # it), and a kink without seeds reached without the check's error
    ("engine.py", (("or make_rng(seeds(row))", "or make_rng(seeds(row) + 1)"),),
     (f"{E}::test_random_extreme_draws_the_documented_index",)),
    ("engine.py", (("if seeds is None:", "if False:"),),
     (f"{E}::test_random_extreme_needs_a_stream_only_at_kinks",)),
    # the batch loop's kink pick given the row's place among the live rows, not its row number in the batch, so a
    # row draws from another row's stream once an earlier row has retired
    ("engine.py", (("int(alive_ids[r])", "int(r)"),), (f"{E}::test_run_batch_matches_run_under_every_policy",)),
    # sample_ball's check: a NaN center, and a radius that is not finite and positive
    ("engine.py", (("if not np.isfinite(center).all():", "if False:"),),
     (f"{S}::test_ball_helpers_refuse_a_ball_they_cannot_sample",)),
    ("engine.py", (('radius, n = as_real(radius, "radius"), as_count(n, "n")',
                    'radius, n = radius, as_count(n, "n")'),),
     (f"{S}::test_ball_helpers_refuse_a_ball_they_cannot_sample",)),
    # half an exit ball: a lone radius dropped by run_batch, and either half let through to float(None)
    ("engine.py", (("_bounded if exit_center is None and exit_radius is None else",
                    "_bounded if exit_center is None else"),),
     (f"{E}::test_bad_exit_ball_is_rejected_everywhere",)),
    ("engine.py", (("if center is None or radius is None:", "if False:"),),
     (f"{E}::test_bad_exit_ball_is_rejected_everywhere",)),
    # an exit ball allowed to reach only DIVERGENCE_LIMIT / 3 from the origin, and the recorded-step cap raised
    ("engine.py", (("+ r <= DIVERGENCE_LIMIT / 2", "+ r <= DIVERGENCE_LIMIT / 3"),),
     (f"{E}::test_bad_exit_ball_is_rejected_everywhere",)),
    ("engine.py", (("MAX_RECORDED_STEPS = 10 ** 7", "MAX_RECORDED_STEPS = 10 ** 8"),),
     (f"{E}::test_run_zero_steps_records_initial_point",)),
    # a constant in its last digits, in both kernels alike
    ("catalog.py", (("return 1.5 * r1 * a2 * r2 * _sign(x1), 1.5 * a1", "return 1.5000000000000002 * r1 * a2 * r2 "
                     "* _sign(x1), 1.5000000000000002 * a1"),
                    ("np.array(1.5)", "np.array(1.5000000000000002)")),
     (f"{C}::test_fields_are_accurate_against_50_digit_arithmetic",)),
    ("catalog.py", (("return (2.0 * t * math.sin(inv) - math.cos(inv),)",
                     "return (2.0000000000000004 * t * math.sin(inv) - math.cos(inv),)"),
                    ("np.where(nz, (t + t) * np.sin(inv)", "np.where(nz, 2.0000000000000004 * t * np.sin(inv)")),
     (f"{C}::test_fields_are_accurate_against_50_digit_arithmetic",)),
    # wiggle's kernel: 2t as t * t, and its zero rows without the final where, which gives them -cos(1)
    ("catalog.py", (("(t + t) * np.sin(inv)", "(t * t) * np.sin(inv)"),),
     (f"{C}::test_fields_keep_the_bits_of_the_one_point_formula_in_any_layout",)),
    ("catalog.py", (("np.where(nz, (t + t) * np.sin(inv) - np.cos(inv), 0.0)",
                     "((t + t) * np.sin(inv) - np.cos(inv))"),),
     (f"{C}::test_fields_keep_the_bits_of_the_one_point_formula_in_any_layout",)),
    # vee_bowl's kink set widened to x2 = 0; Wolfe's empty-set check missing the [] that atleast_2d makes (1, 0)
    ("catalog.py", (("kinked = slice(1)", "kinked = slice(2)"),),
     (f"{C}::test_at_kink_marks_exactly_the_points_with_several_generators",)),
    ("catalog.py", (("if gens.size == 0:", "if m == 0:"),), (f"{C}::test_minimal_norm_examples",)),
    ("catalog.py", (("return _sign(x1), 2.0 * x2", "return _sign(x1), 2.0000000000000004 * x2"),
                    ("np.multiply(2.0, pts[:, 1], out=out[:, 1])", "np.multiply(2.0000000000000004, pts[:, 1], "
                     "out=out[:, 1])")),
     (f"{C}::test_fields_are_accurate_against_50_digit_arithmetic",)),
    # the registry's order
    ("catalog.py", (("(Quad, AbsSum, Cross,", "(AbsSum, Quad, Cross,"),),
     (f"{C}::test_list_catalog_descriptors",)),
    # value's finiteness check, and the listing's active_tol check (NaN would pass)
    ("catalog.py", (("if not np.isfinite(x).all():", "if False:"),), (f"{C}::test_evaluate_errors",)),
    ("catalog.py", (("if not active_tol >= 0:", "if active_tol < 0:"),), (f"{C}::test_active_tol_widens_kinks",)),
    # neg_norm's scaled branch, in each kernel, and its kink at x == 0 exactly
    ("catalog.py", (("if acc < _TINY or acc == math.inf:", "if acc == math.inf:"),),
     (f"{C}::test_fields_keep_the_bits_of_the_one_point_formula_in_any_layout",)),
    ("catalog.py", (("off = (acc < _TINY) | (acc == np.inf)", "off = acc == np.inf"),),
     (f"{C}::test_fields_keep_the_bits_of_the_one_point_formula_in_any_layout",)),
    ("catalog.py", (("return (pts == 0.0).all(axis=1)", "return (pts == 0.0).any(axis=1)"),),
     (f"{C}::test_at_kink_marks_exactly_the_points_with_several_generators",)),
    # the value repairs: cross without the power of the product where a factor leaves the normal range, or without
    # its overflow half, in the mask or in the gate (one row at a time, as value asks); wiggle's sine of an
    # overflowed 1/t
    ("catalog.py", (("if f.size and not (f.min() >= _TINY and f.max() < np.inf):", "if False:"),),
     (f"{C}::test_values_are_accurate_against_50_digit_arithmetic",)),
    ("catalog.py", (("off = ((f < _TINY) | (f == np.inf)).any(axis=1)", "off = (f < _TINY).any(axis=1)"),),
     (f"{C}::test_values_are_accurate_against_50_digit_arithmetic",)),
    ("catalog.py", (("f.min() >= _TINY and f.max() < np.inf", "f.min() >= _TINY"),),
     (f"{C}::test_values_are_accurate_against_50_digit_arithmetic",)),
    ("catalog.py", (("finite = np.abs(t) > _HUGE_RECIPROCAL", "finite = t != 0.0"),),
     (f"{C}::test_values_are_accurate_against_50_digit_arithmetic",)),
    # the flow's step sizes, 0.1% long: a coordinate leaves its h-band around the closed-form flow
    ("flow.py", (("np.diff(ts).tolist()", "(np.diff(ts) * 1.001).tolist()"),),
     (f"{F}::test_flow_error_against_closed_form_nonsmooth_flows",)),
    # a CSV block boundary
    ("reporting.py", (("c[i:i + CSV_BLOCK]", "c[i:i + CSV_BLOCK - 1]"),),
     (f"{R}::test_csv_cells_print_as_float_repr",)),
    # the probe's refusals before any run: its ball beyond the keep box, a Lipschitz estimate that is not
    # finite and positive
    ("stability.py", (("    _inside(x_star, epsilon, fn.dim)", "    pass"),), (f"{CLI}::test_usage_errors_exit_2",)),
    ("stability.py", (('    lip = as_real(lip, "the Lipschitz estimate", InvalidQuery)\n', ""),),
     (f"{CLI}::test_usage_errors_exit_2",)),
    # probe's explicit budget without the recorded-steps cap (10^7 + 1 reaches a batch, 2^63 overflows int64)
    ("stability.py", (('    _check_recorded(max_iters or 0, "max_iters")', "    pass"),),
     (f"{S}::test_probe_validates_query",)),
    # the largest generator norm: through Python's max, which drops a NaN; the smallest; the stacked rows cut to
    # the first; a listed set's row 0 kept as a view, which holds the whole set.  Row -1 in place of row 0 is no
    # row: every generator at a point has the same squared norm, bit for bit, which a test holds
    ("stability.py", (("np.sqrt(np.max((g * g)", "np.sqrt(max((g * g)"),),
     (f"{S}::test_max_generator_norm_keeps_its_bits_and_a_nan",)),
    ("stability.py", (("np.sqrt(np.max((g * g)", "np.sqrt(np.min((g * g)"),),
     (f"{S}::test_max_generator_norm_keeps_its_bits_and_a_nan",)),
    ("stability.py", (("g = np.concatenate(rows)", "g = rows[0]"),),
     (f"{S}::test_max_generator_norm_keeps_its_bits_and_a_nan",)),
    ("stability.py", (("g[:1].copy()", "g[:1]"),), (f"{S}::test_convex_bounds_holds_one_listed_set_at_a_time",)),
    # probe's derived budget unchecked (int() of inf, or above 2^63), and its Lipschitz estimate on another stream
    ("stability.py", (('_check_recorded(iters.max(), "--epsilon/--alpha-grid")', "None"),),
     (f"{CLI}::test_usage_errors_exit_2",)),
    ("stability.py", (("derive_seed(q.seed, 0x11F)", "derive_seed(q.seed, 0x120)"),),
     (f"{S}::test_estimate_lipschitz_quad_tracks_ball_radius",)),
    # the convex report's own arithmetic: the default run 200 -> 201 steps, or 3 * budget steps; the cap read on
    # 3 * budget; the liminf over the tail third.  Two mutants need no row: gaps[: budget + 2], and < for <= in
    # achieved_within_budget, give the same verdict, as the convex bound already puts the prefix minimum within
    # c^2 alpha / 2 + epsilon / 2
    ("stability.py", (("n_steps = max(200, 2 * budget)", "n_steps = max(201, 2 * budget)"),),
     (f"{S}::test_convex_bounds_default_run_tail_and_cap",)),
    ("stability.py", (("n_steps = max(200, 2 * budget)", "n_steps = max(200, 3 * budget)"),),
     (f"{S}::test_convex_bounds_default_run_tail_and_cap",)),
    ("stability.py", (("_check_recorded(2 * budget,", "_check_recorded(3 * budget,"),),
     (f"{S}::test_convex_bounds_default_run_tail_and_cap",)),
    ("stability.py", (("gaps[gaps.shape[0] // 2:]", "gaps[gaps.shape[0] // 3:]"),),
     (f"{S}::test_convex_bounds_default_run_tail_and_cap",)),
    # the convex budget: without its nudge (99 for 100 at the abs_sum golden), rounded up, and on a NaN or inf
    # start without the check that names x0 (Fraction raises its own ValueError or OverflowError)
    ("stability.py", (("\n                        * Fraction(1.0 + 1e-12))", ")"),),
     (f"{S}::test_convex_bounds_abs_sum_from_one",)),
    ("stability.py", (("budget = math.floor(", "budget = math.ceil("),),
     (f"{S}::test_convex_bounds_budget_is_exact_for_every_finite_start",)),
    ("stability.py", (("if not np.isfinite(x0).all():", "if False:"),),
     (f"{S}::test_convex_bounds_budget_is_exact_for_every_finite_start",)),
    # the ball helpers' fixed draws, each one off
    ("stability.py", (("LIPSCHITZ_SAMPLES = 256", "LIPSCHITZ_SAMPLES = 257"),),
     (f"{E}::test_ball_helpers_draw_their_fixed_samples",)),
    ("stability.py", (("LOCAL_MIN_SAMPLES = 2000", "LOCAL_MIN_SAMPLES = 1999"),),
     (f"{E}::test_ball_helpers_draw_their_fixed_samples",)),
    # the convex report's distance bound without its beta (quad's beta = 1/2 hides it), or refused at alpha = 1/(2 beta)
    ("stability.py", (("/ float(np.sqrt(2.0 * beta))", "/ 1.0"),),
     (f"{S}::test_convex_bounds_quad_distance_bound",)),
    ("stability.py", (("alpha <= 1.0 / (2.0 * beta)", "alpha < 1.0 / (2.0 * beta)"),),
     (f"{S}::test_convex_bounds_quad_distance_bound",)),
    # the convex report's terminal distance taken at the start
    ("stability.py", (("np.linalg.norm(traj.points[-1])", "np.linalg.norm(traj.points[0])"),),
     (f"{S}::test_convex_bounds_quad_distance_bound",)),
    # the certificate is the first escape-free cell, not the last
    ("stability.py", (("d_idx, a_idx = np.argwhere(clear)[0]", "d_idx, a_idx = np.argwhere(clear)[-1]"),),
     (f"{S}::test_probe_quad_certificate",)),
    # escape's epsilon refused at 1/2, which the interval (0, 1/2] holds
    ("counterexample.py", (("if epsilon > 0.5:", "if epsilon >= 0.5:"),),
     (f"{X}::test_escape_experiment_validates_epsilon",)),
    # an axis start that escaped (it starts outside the ball) counted as stuck
    ("counterexample.py", (("(on_s & ~escaped).sum()", "on_s.sum()"),),
     (f"{X}::test_escape_experiment_forced_axis_start",)),
    # the axis set tested by the product x1 * x2, which underflows to 0 off the axes
    ("counterexample.py", (("return (pts == 0.0).any(axis=-1)", "return pts[..., 0] * pts[..., 1] == 0.0"),),
     (f"{X}::test_cross_update_agrees_with_engine_step",)),
    # NSDYN_SEED, or a config int of more digits than Python reads, refused by Python's own line
    ("cli.py", (('raise ValueError(f"NSDYN_SEED must be an integer, got {env_seed!r}") from None', "raise"),),
     (f"{CLI}::test_usage_errors_exit_2",)),
    ("cli.py", (("json.loads(text, parse_int=_json_int)", "json.loads(text)"),), (f"{CLI}::test_usage_errors_exit_2",)),
    # a policy index after a kind other than fixed_index, accepted
    ("cli.py", (('if colon and kind != "fixed_index":', "if False:"),), (f"{CLI}::test_usage_errors_exit_2",)),
    # a probe witness written to the working directory, not beside a report in a subdirectory
    ("cli.py", (("os.path.join(os.path.dirname(base), witness_csv)", "witness_csv"),),
     (f"{CLI}::test_every_json_report_round_trips_as_strict_json",)),
    # the least --samples, or the least --max-iters, refused
    ("cli.py", (('"samples": 1, "max_iters": 1', '"samples": 2, "max_iters": 1'),),
     (f"{CLI}::test_every_command_holds_configs_to_its_row",)),
    ("cli.py", (('"samples": 1, "max_iters": 1', '"samples": 1, "max_iters": 2'),),
     (f"{CLI}::test_every_command_holds_configs_to_its_row",)),
    # a config's float field read by a plain float (an int beyond float64 is a traceback, "1" runs as 1.0), a vector
    # field without its finiteness check, and an empty path accepted (compare writes into the working directory)
    ("cli.py", (("RULES = {float: as_real,", "RULES = {float: lambda value, name: float(value),"),),
     (f"{CLI}::test_every_command_holds_configs_to_its_row",)),
    ("cli.py", (("not np.isfinite(point := as_point(value, name=name)).all()",
                 "(point := as_point(value, name=name)) is None"),),
     (f"{CLI}::test_every_command_holds_configs_to_its_row",)),
    ("cli.py", (("if not isinstance(value, str) or not value:", "if not isinstance(value, str):"),),
     (f"{CLI}::test_usage_errors_exit_2",)),
    # a convex-bounds report that does not state its run's divergence (the CLI then exits 0 on a diverged run)
    ("stability.py", (("diverged_at=traj.diverged_at,", "diverged_at=None,"),),
     (f"{S}::test_convex_bounds_report_states_its_runs_divergence", f"{CLI}::test_divergence_exit_3")),
    # cross_update's alpha, doubling_check's alpha and an interpolated path's horizon outside the real rule
    ("counterexample.py", (('precision; alpha passes ``as_real``.\n    """\n    x, alpha = as_point(x, 2), '
                            'as_real(alpha, "alpha")', 'precision.\n    """\n    x = as_point(x, 2)'),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    ("counterexample.py", (('tolerance; alpha passes ``as_real``.\n    """\n    x, alpha = as_point(x, 2), '
                            'as_real(alpha, "alpha")', 'tolerance.\n    """\n    x = as_point(x, 2)'),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    ("engine.py", (('object.__setattr__(self, "horizon", as_real(self.horizon, "horizon"))', "pass"),),
     (f"{E}::test_every_real_argument_passes_one_real_rule",)),
    # divergence exits 3, not 2
    ("cli.py", (('print(f"diverged: {exc}", file=sys.stderr)\n        return 3',
                 'print(f"diverged: {exc}", file=sys.stderr)\n        return 2'),),
     (f"{CLI}::test_divergence_exit_3",)),
    # NonFiniteInput is a ValueError, so a caller's ValueError handler (the CLI's exit 2) catches it
    ("errors.py", (("class NonFiniteInput(ValueError):", "class NonFiniteInput(RuntimeError):"),),
     (f"{S}::test_ball_helpers_refuse_a_ball_they_cannot_sample",)),
    # the package exports
    ("__init__.py", (("    integrate_flow,\n", ""),), (F,)),
]


def _copy(dest: Path):
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "demos"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):  # the tests read the README's command lines
        shutil.copy2(ROOT / name, dest / name)


def _apply(path: Path, edits) -> str | None:
    """Write the edits into ``path``; returns a problem, or None."""
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            return f"old text found {text.count(old)} times, not once: {old!r}"
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return None


def run_tests(fname: str, edits, tests) -> tuple[int | None, str]:
    """pytest's exit code on ``tests`` in a fresh copy with the edits made to ``fname``, and a detail line;
    the code is None when an old text is not found exactly once."""
    with tempfile.TemporaryDirectory(prefix="nsdyn-mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        problem = _apply(tmp / "src" / "nsdyn" / fname, edits)
        if problem:
            return None, problem
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
    return proc.returncode, (proc.stdout.strip().splitlines() or [""])[-1]


def main() -> int:
    # a named test that fails with no mutation would kill every row it guards
    code, detail = run_tests("__init__.py", (), sorted({t for _, _, tests in MUTANTS for t in tests}))
    if code != 0:
        print(f"the named tests do not pass on the unmutated tree: [{detail}]")
        return 1
    outcomes = []
    for i, (fname, edits, tests) in enumerate(MUTANTS):
        t0 = time.perf_counter()
        code, detail = run_tests(fname, edits, tests)
        outcomes.append("killed" if code in (1, 2) else "survived" if code == 0 else "error")
        first = edits[0][0].strip().splitlines()[0]
        print(f"{i:2d} {outcomes[-1]:8s} {time.perf_counter() - t0:5.1f}s  {fname}: {first[:60]}  [{detail}]",
              flush=True)
    killed = outcomes.count("killed")
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
