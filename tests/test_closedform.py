import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from adconn.closedform import (
    CANONICAL,
    MERGE_TOL,
    BoundReport,
    SpectrumMatch,
    bound_report,
    canonical_placements,
    circle_spectrum_closed_form,
    crosspolytope_spectrum_closed_form,
    pyramid_spectrum_closed_form,
    simplex_spectrum_closed_form,
    spectrum_matches,
    turan_simplex_spectrum_closed_form,
)
from adconn.framework import stiffness
from adconn.graphs import complete_graph, turan_graph
from adconn.placements import (
    crosspolytope_placement,
    regular_simplex,
    triangular_pyramid,
)
from adconn.spectral import MultiplicitySpectrum, clustered_spectrum


def test_simplex_closed_form_values():
    assert simplex_spectrum_closed_form(3).clusters == ((0.0, 6), (1.0, 2), (2.0, 3), (4.0, 1))
    assert simplex_spectrum_closed_form(2).clusters == ((0.0, 3), (1.5, 2), (3.0, 1))
    assert simplex_spectrum_closed_form(4).clusters == ((0.0, 10), (1.0, 5), (2.5, 4), (5.0, 1))
    with pytest.raises(ValueError):
        simplex_spectrum_closed_form(1)


def test_turan_simplex_closed_form_values():
    assert turan_simplex_spectrum_closed_form(8, 3).clusters == (
        (0.0, 6), (1.0, 8), (2.0, 2), (4.0, 7), (8.0, 1),
    )
    assert turan_simplex_spectrum_closed_form(12, 3).clusters == (
        (0.0, 6), (1.5, 16), (3.0, 2), (6.0, 11), (12.0, 1),
    )
    with pytest.raises(ValueError):
        turan_simplex_spectrum_closed_form(9, 3)


def test_turan_simplex_collapses_to_simplex_at_minimal_n():
    for d in (2, 3, 4, 6):
        assert turan_simplex_spectrum_closed_form(d + 1, d).clusters == simplex_spectrum_closed_form(d).clusters


def test_crosspolytope_closed_form_values():
    assert crosspolytope_spectrum_closed_form(12, 3).clusters == (
        (0.0, 6), (2.0, 15), (4.0, 3), (6.0, 11), (12.0, 1),
    )
    # d=2 merges the n/d and n/2 clusters
    assert crosspolytope_spectrum_closed_form(8, 2).clusters == (
        (0.0, 3), (2.0, 4), (4.0, 8), (8.0, 1),
    )
    assert crosspolytope_spectrum_closed_form(6, 3).clusters == (
        (0.0, 6), (1.0, 3), (2.0, 3), (3.0, 5), (6.0, 1),
    )
    with pytest.raises(ValueError):
        crosspolytope_spectrum_closed_form(9, 3)


def test_crosspolytope_minimal_n_verified_by_eigensolve():
    g, _ = turan_graph(6, 6)
    computed = clustered_spectrum(stiffness(g, crosspolytope_placement(6, 3)))
    match = spectrum_matches(crosspolytope_spectrum_closed_form(6, 3), computed)
    assert match.ok


def test_merged_crosspolytope_case_verified_by_eigensolve():
    g, _ = turan_graph(8, 4)
    computed = clustered_spectrum(stiffness(g, crosspolytope_placement(8, 2)))
    match = spectrum_matches(crosspolytope_spectrum_closed_form(8, 2), computed)
    assert match.ok and match.max_value_error <= 1e-9


def test_pyramid_closed_form_merges():
    # at h = 1/sqrt(6) the middle value 3 - 1/ell^2 reaches 1 and merges
    assert pyramid_spectrum_closed_form(1 / math.sqrt(6)).clusters == (
        (0.0, 6), (1.0, 3), (2.5, 2), (4.0, 1),
    )
    assert pyramid_spectrum_closed_form(math.sqrt(2 / 3)).clusters == (
        (0.0, 6), (1.0, 2), (2.0, 3), (4.0, 1),
    )
    with pytest.raises(ValueError):
        pyramid_spectrum_closed_form(0.0)


def test_pyramid_closed_form_limits():
    clusters = dict()
    for h in (10.0, 100.0, 1000.0):
        values = [v for v, _ in pyramid_spectrum_closed_form(h).clusters]
        clusters[h] = values
    # third cluster tends to 3, fourth to 1.5 as the apex recedes
    assert clusters[1000.0][3] == pytest.approx(3.0, abs=1e-5)
    assert clusters[1000.0][2] == pytest.approx(1.5, abs=1e-5)


@pytest.mark.parametrize("h", [0.2, 1 / math.sqrt(6), math.sqrt(2 / 3), 1.0, 5.0])
def test_pyramid_closed_form_matches_eigensolve(h):
    computed = clustered_spectrum(stiffness(complete_graph(4), triangular_pyramid(h)))
    match = spectrum_matches(pyramid_spectrum_closed_form(h), computed)
    assert match.ok, (h, match)


def test_circle_closed_form_values():
    assert circle_spectrum_closed_form(3).clusters == ((0.0, 3), (1.5, 2), (3.0, 1))
    assert circle_spectrum_closed_form(4).clusters == ((0.0, 3), (2.0, 4), (4.0, 1))
    assert circle_spectrum_closed_form(5).clusters == ((0.0, 3), (2.5, 6), (5.0, 1))
    with pytest.raises(ValueError):
        circle_spectrum_closed_form(2)


@pytest.mark.parametrize(
    "builder,args,total",
    [
        (simplex_spectrum_closed_form, (5,), 30),
        (turan_simplex_spectrum_closed_form, (20, 4), 80),
        (crosspolytope_spectrum_closed_form, (16, 4), 64),
        (pyramid_spectrum_closed_form, (0.7,), 12),
        (circle_spectrum_closed_form, (9,), 18),
    ],
)
def test_multiplicities_sum_to_dimension(builder, args, total):
    pred = builder(*args)
    assert isinstance(pred, MultiplicitySpectrum) and pred.cluster_tol == MERGE_TOL
    assert pred.total == total
    assert all(v >= 0 for v, _ in pred.clusters)


@pytest.mark.parametrize("name", list(CANONICAL))
def test_canonical_row_matches_its_closed_form(name):
    row = CANONICAL[name]
    # the smallest admissible (n, d) where the closed forms are stated, d >= 2
    n, d = min((n, d) for n in range(2, 13) for d in range(2, 7) if row.admits(n, d))
    computed = clustered_spectrum(stiffness(row.graph(n, d), row.placement(n, d)))
    assert computed.total == n * d
    assert spectrum_matches(row.spectrum(n, d), computed).ok, (name, n, d)


def test_canonical_table_order_and_repeats():
    assert list(CANONICAL) == ["simplex", "pyramid", "crosspolytope", "turan-simplex", "circle"]
    # at n = d+1 the Turán simplex placement repeats the simplex and is listed once
    assert CANONICAL["turan-simplex"].admits(4, 3)
    assert [name for name, _ in canonical_placements(4, 3)] == ["simplex", "pyramid"]
    assert [name for name, _ in canonical_placements(2, 1)] == ["simplex", "crosspolytope"]
    assert canonical_placements(5, 3) == []


@pytest.mark.parametrize("name", list(CANONICAL))
def test_admits_answers_every_integer_pair_and_is_false_below_d_one(name):
    # crosspolytope.admits(6, 0) and turan-simplex.admits(6, -1) used to divide
    # by zero, and three rows admitted frameworks that do not exist at d < 1
    row = CANONICAL[name]
    for d in range(-2, 7):
        for n in range(31):
            if row.admits(n, d):
                assert d >= 1, (n, d)
                assert row.placement(n, d).points.shape == (n, d), (n, d)


def test_spectrum_matches_detects_mismatch():
    pred = simplex_spectrum_closed_form(3)
    wrong = clustered_spectrum(stiffness(complete_graph(3), regular_simplex(2)))
    assert not spectrum_matches(pred, wrong).ok


def test_two_empty_spectra_match():
    # the error over no clusters is 0.0, where max() of nothing used to raise
    empty = MultiplicitySpectrum((), 0, 1e-8)
    assert spectrum_matches(empty, empty) == SpectrumMatch(True, 0.0, True)


def test_bound_report_json_dict_keys_in_field_order():
    assert list(bound_report(12, 3).to_json_dict().items()) == [
        ("n", 12),
        ("d", 3),
        ("lower_divisible", 2.0),
        ("lower_general", -3.0),
        ("upper", 2 * 12 / (3 * 2) + 1.0 / 3.0),
        ("ceiling", 2.0),
        ("gap_observed", None),
        ("margin", None),
        ("witness", None),
    ]


def test_bound_report_values():
    r = bound_report(12, 3)
    assert (r.lower_divisible, r.lower_general) == (2.0, -3.0)
    assert r.upper == pytest.approx(13 / 3, abs=1e-12)
    r = bound_report(48, 3)
    assert r.lower_divisible == 8.0 and r.upper == pytest.approx(16 + 1 / 3, abs=1e-12)
    assert bound_report(48, 4).upper == pytest.approx(32 / 3 + 1 / 3, abs=1e-12)
    r = bound_report(8, 3)
    assert r.lower_divisible is None
    assert r.lower_general == -3.0
    assert r.upper == pytest.approx(3.0, abs=1e-12)


def test_bound_report_field_ranges():
    r = bound_report(4, 3)  # n < 2d: only the upper bound applies
    assert r.lower_divisible is None and r.lower_general is None
    assert r.upper == pytest.approx(2 * 4 / (3 * 2) + 1 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        bound_report(10, 2)
    with pytest.raises(ValueError):
        bound_report(3, 3)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("field", ["n", "d"])
def test_bound_report_refuses_non_integer_arguments(field, value):
    # bound_report(12.0, 3) used to return a report with n=12.0
    args = {"n": 12, "d": 3, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        bound_report(**args)


def test_bound_report_stores_python_ints():
    r = bound_report(np.int64(12), np.int32(3))
    assert (type(r.n), type(r.d)) == (int, int) and r == bound_report(12, 3)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_bound_report_keeps_its_formulas_on_a_grid(d):
    # the formulas as written out before lower_divisible asked TuranPartition
    for n in range(1, 41):
        divisible = n / (2 * d) if (n >= 2 * d and n % (2 * d) == 0) else None
        general = float(math.ceil(n / (2 * d)) - 2 * d + 1) if n >= 2 * d else None
        upper = 2 * n / (3 * (d - 1)) + 1.0 / 3.0 if n >= d + 1 else None
        ceiling = n / (2 * d) if n >= 2 * d else None
        if upper is None:
            with pytest.raises(ValueError, match=f"^no bound formula applies to n={n}, d={d}$"):
                bound_report(n, d)
        else:
            assert bound_report(n, d) == BoundReport(n, d, divisible, general, upper, ceiling)


def test_bound_report_lower_general_is_exact_past_2_53():
    # past 2^53 the float quotient n/(2d) can round onto the next integer's side
    assert bound_report(9007199254741289, 4).lower_general == 1125899906842655.0
    for k in range(53, 61):
        for n in range(2**k - 20, 2**k + 20):
            for d in (3, 4, 5, 6):
                exact = math.ceil(Fraction(n, 2 * d)) - 2 * d + 1
                assert bound_report(n, d).lower_general == float(exact), (n, d)


def test_bound_report_is_finite_up_to_the_float_range_and_refused_past_it():
    top = int(sys.float_info.max)
    r = bound_report(top, 3)
    assert (r.ceiling, r.lower_general, r.upper) == (top / 6, float(-(-top // 6) - 5), 2 * top / 6 + 1 / 3)
    assert all(math.isfinite(x) for x in (r.ceiling, r.lower_general, r.upper))
    with pytest.raises(ValueError, match=r"^n must be at most 1.798e\+308 for the float formulas, got a 1329-bit n$"):
        bound_report(10**400, 3)


@pytest.mark.parametrize(
    "form,args,name",
    [
        (simplex_spectrum_closed_form, (10**400,), "d"),
        (turan_simplex_spectrum_closed_form, (4 * 10**400, 3), "n"),
        (crosspolytope_spectrum_closed_form, (6 * 10**400, 3), "n"),
        (circle_spectrum_closed_form, (10**400,), "n"),
    ],
    ids=["simplex", "turan-simplex", "crosspolytope", "circle"],
)
def test_closed_forms_refuse_arguments_past_the_float_range(form, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be at most 1.798e\\+308 for the float formulas"):
        form(*args)


@pytest.mark.parametrize(
    "form,args,tag,total",
    [
        (simplex_spectrum_closed_form, (2**100,), "turan-simplex", 2**100 * (2**100 + 1)),
        (turan_simplex_spectrum_closed_form, (4 * 2**100, 3), "turan-simplex", 12 * 2**100),
        (crosspolytope_spectrum_closed_form, (2**100, 2), "crosspolytope", 2 * 2**100),
        (circle_spectrum_closed_form, (2**63,), "circle", 2**64),
    ],
    ids=["simplex", "turan-simplex", "crosspolytope", "circle"],
)
def test_closed_forms_refuse_spectra_larger_than_an_array(form, args, tag, total):
    with pytest.raises(ValueError, match=f"^{tag}: a spectrum of {total} eigenvalues is more than an array holds$"):
        form(*args)


def test_bounds_sandwich_where_both_defined():
    for d in (3, 4, 5):
        for n in range(2 * d, 49):
            r = bound_report(n, d)
            if r.lower_divisible is not None:
                assert r.lower_divisible <= r.upper + 1e-12
            assert r.lower_general <= r.upper + 1e-12
