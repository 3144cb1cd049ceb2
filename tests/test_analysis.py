"""Zero location, geometric means, and invertibility profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wro import (
    AnalysisError,
    ConvergenceError,
    WeightError,
    boundary_sample_weight,
    classify,
    factorization_summary,
    find_zeros,
    geometric_mean,
    invertibility_profile,
    named_rotation,
    polynomial,
    rational,
    taylor,
    torus_polynomial,
)
from wro.analysis import YES, NO, UNKNOWN
from wro.weights import space


def poly_from_roots(roots, lead=1.0):
    cs = np.polynomial.polynomial.polyfromroots(roots) * lead
    return polynomial(list(cs))


# ----------------------------------------------------------------------
# zero location
# ----------------------------------------------------------------------


def test_find_zeros_splits_inside_and_boundary():
    w = poly_from_roots([0.5, 2.0])
    zs = find_zeros(w)
    assert zs.total_inside == 1
    assert [round(abs(z), 10) for z, _ in zs.inside] == [0.5]
    assert zs.boundary == ()
    assert zs.certified and not zs.count_only


def test_find_zeros_boundary_zero():
    zs = find_zeros(polynomial([-1, 1]))
    assert zs.has_boundary_zero
    assert zs.total_inside == 0


def test_find_zeros_double_zero_multiplicity():
    w = poly_from_roots([0.5, 0.5])
    zs = find_zeros(w)
    assert len(zs.inside) == 1
    assert zs.inside[0][1] == 2
    assert zs.total_inside == 2


def test_find_zeros_tiny_derivative_at_double_zero():
    # w'(0) = 4e-295: the Newton polish must not throw the double zero
    # near 0 out of the disc (it once landed at -6.8e230 i)
    w = polynomial([2.72e-64j, 4.03e-295, 1j, 1.0], tags=("disc_algebra",))
    zs = find_zeros(w)
    assert len(zs.inside) == 1 and zs.inside[0][1] == 2
    assert abs(zs.inside[0][0]) < 1e-30
    assert len(zs.boundary) == 1 and zs.boundary[0][1] == 1
    assert abs(zs.boundary[0][0] - (-1j)) < 1e-12
    assert geometric_mean(w) == pytest.approx(1.0, rel=1e-12)
    rep = classify(space("bergman", p=2), w, named_rotation("golden"))
    assert rep.sets["sigma"].citation == "bergman-trichotomy(3)"


def test_find_zeros_ambiguous_band_rejected():
    w = polynomial([-(1.0 + 1e-8), 1.0])
    with pytest.raises(AnalysisError):
        find_zeros(w)


def test_find_zeros_rational_uses_numerator():
    w = rational([-0.25, 1], [1, 0.5])
    zs = find_zeros(w)
    assert zs.total_inside == 1


def test_find_zeros_taylor_certified_count():
    # z - 0.5 with a tail too small to move the winding number
    zs = find_zeros(taylor([-0.5, 1], 1e-9, tags=["disc_algebra"]))
    assert zs.count_only and zs.certified
    assert zs.total_inside == 1
    # tail bound overwhelming the boundary minimum: no certification
    with pytest.raises(AnalysisError):
        find_zeros(taylor([-0.5, 1], 0.75, tags=["disc_algebra"]))


def test_taylor_certificate_counts_the_grid_step():
    # the only zero lies on the circle half way between two points of the
    # 4096 point grid; the grid minimum 3.8e-4 alone would certify it
    with pytest.raises(AnalysisError, match="grid step term"):
        find_zeros(taylor([-np.exp(1j * np.pi / 4096), 1], 1e-9))
    # 2e-4 inside the circle at that angle: certified on the 16384 point grid
    zs = find_zeros(taylor([-(1 - 2e-4) * np.exp(1j * np.pi / 4096), 1], 0.0))
    assert zs.certified and zs.total_inside == 1


# ----------------------------------------------------------------------
# geometric means
# ----------------------------------------------------------------------


def test_geometric_mean_closed_form_values():
    assert geometric_mean(polynomial([-2, 1])) == pytest.approx(2.0, rel=1e-14)
    assert geometric_mean(polynomial([1, -2.5, 1])) == pytest.approx(2.0, rel=1e-14)
    assert geometric_mean(polynomial([-1, 1])) == pytest.approx(1.0, rel=1e-14)
    assert geometric_mean(polynomial([-1.5, 3])) == pytest.approx(3.0, rel=1e-14)


def test_geometric_mean_at_inner_radius():
    assert geometric_mean(polynomial([-2, 1]), r=0.5) == pytest.approx(2.0, rel=1e-14)
    assert geometric_mean(polynomial([-0.7, 1]), r=0.5) == pytest.approx(0.7, rel=1e-14)
    assert geometric_mean(polynomial([-0.2, 1]), r=0.5) == pytest.approx(0.5, rel=1e-14)


def test_geometric_mean_rational_ratio():
    w = rational([-2, 1], [1, 0.5])
    expected = 2.0 / (0.5 * 2.0)    # max(1, 2) over |lead| max(1, 2) of den roots
    assert geometric_mean(w) == pytest.approx(expected, rel=1e-12)


def test_quadrature_route_matches_jensen():
    w = poly_from_roots([0.4 + 0.1j, 1.7, -2.2j], lead=0.8)
    a = geometric_mean(w, method="closed_form")
    b = geometric_mean(w, method="quadrature")
    assert abs(a - b) <= 1e-10 * a


def test_quadrature_diverges_on_boundary_zero():
    with pytest.raises(ConvergenceError):
        geometric_mean(polynomial([-1, 1]), method="quadrature")


def test_geometric_mean_method_validation():
    w = taylor([1, 0.1], 1e-6, tags=["H_inf"])
    with pytest.raises(AnalysisError):
        geometric_mean(w, method="closed_form")
    with pytest.raises(AnalysisError):
        geometric_mean(polynomial([1]), method="simpson")
    with pytest.raises(AnalysisError):
        geometric_mean(torus_polynomial(2, {(0, 0): 2.0}))


def test_geometric_mean_samples_direct_mean():
    vals = [complex(np.exp(2j * np.pi * k / 256)) + 2.0 for k in range(256)]
    w = boundary_sample_weight(vals)
    got = geometric_mean(w)
    assert got == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(ConvergenceError):
        geometric_mean(boundary_sample_weight([1.0] * 63 + [0.0] + [1.0] * 64))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_jensen_multiplicative_in_factors(roots):
    # keep roots off the circle and separated; companion matrix accuracy
    # for clustered roots is a different (documented) story
    picked = []
    for z in roots:
        if abs(abs(z) - 1.0) <= 1e-3:
            continue
        if any(abs(z - u) < 1e-2 for u in picked):
            continue
        picked.append(z)
    if not picked:
        picked = [0.5]
    half = len(picked) // 2
    w1 = poly_from_roots(picked[:half]) if picked[:half] else polynomial([1.0])
    w2 = poly_from_roots(picked[half:])
    prod_coeffs = np.convolve(
        np.asarray(w1.rep.coeffs, dtype=complex), np.asarray(w2.rep.coeffs, dtype=complex)
    )
    w12 = polynomial(list(prod_coeffs))
    lhs = geometric_mean(w12)
    rhs = geometric_mean(w1) * geometric_mean(w2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


# ----------------------------------------------------------------------
# invertibility and factorization
# ----------------------------------------------------------------------


def test_invertibility_profile_closed_forms():
    p = invertibility_profile(polynomial([-2, 1]))
    assert (p.analytic, p.boundary, p.ell1, p.hinf_boundary) == (YES, YES, YES, YES)
    p = invertibility_profile(polynomial([1, -2.5, 1]))
    assert (p.analytic, p.boundary) == (NO, YES)
    p = invertibility_profile(polynomial([-1, 1]))
    assert p.boundary == NO


def test_invertibility_profile_taylor():
    assert invertibility_profile(taylor([-2, 1], 1e-9, tags=["H_inf"])).boundary == YES
    p = invertibility_profile(taylor([-2, 1], 1.5, tags=["H_inf"]))
    assert p.boundary == UNKNOWN


def test_invertibility_profile_samples():
    zeroed = boundary_sample_weight([1.0] * 63 + [0.0] + [1.0] * 64)
    p = invertibility_profile(zeroed)
    assert p.boundary == NO and p.analytic == NO
    clean = boundary_sample_weight([2.0] * 64)
    assert invertibility_profile(clean).boundary == UNKNOWN


def test_factorization_summary_closed_form():
    fact = factorization_summary(polynomial([1, -2.5, 1]))
    assert fact.zero_count_inside == 1
    assert fact.blaschke_finite is True
    assert fact.singular_part_present is False
    assert fact.g == pytest.approx(2.0, rel=1e-12)


def test_factorization_summary_taylor_count_only():
    fact = factorization_summary(taylor([-0.5, 1], 1e-9, tags=["disc_algebra"]))
    assert fact.count_only
    assert fact.zero_count_inside == 1
    assert fact.blaschke_finite is True


@pytest.mark.parametrize("terms", [
    {(0, 0): 1.0, (1, 0): -2.5, (2, 0): 1.0},   # one variable
    {(0, 0): 2.0},                               # constant
    {(0, 0): 4.0, (1, 1): 1.0},                  # mixed
], ids=["single-axis", "constant", "mixed"])
def test_one_variable_analysis_refuses_torus_weights(terms):
    # callers collapse a single axis torus weight first (axis_polynomial)
    w = torus_polynomial(2, terms)
    for fn in (find_zeros, invertibility_profile, factorization_summary):
        with pytest.raises(AnalysisError, match="one variable only"):
            fn(w)


def test_factorization_summary_degrades_for_samples():
    fact = factorization_summary(boundary_sample_weight([2.0] * 64))
    assert fact.zero_count_inside is None
    assert fact.blaschke_finite is None


@pytest.mark.parametrize("w,on_circle,count,count_only,g,sup,l1", [
    (polynomial([1, -2.5, 1]), NO, 1, False, 2.0, None, None),
    (polynomial([-1, 1]), YES, 0, False, 1.0, None, None),
    (polynomial([-(1 + 1e-8), 1]), UNKNOWN, None, False, 1.0 + 1e-8, None, None),   # ambiguous band
    (taylor([-0.5, 1], 1e-9), NO, 1, True, 1.0, None, 1.5 + 1e-9),
    (taylor([-0.5, 1], 0.75), UNKNOWN, None, True, 1.0, None, 2.25),
    (boundary_sample_weight([2.0] * 64), UNKNOWN, None, True, 2.0, 2.0, None),
    (boundary_sample_weight([1.0] * 63 + [0.0]), YES, None, True, None, 1.0, None),
], ids=["inside", "on-circle", "band", "series", "series-uncertified", "samples", "samples-zero"])
def test_weight_facts(w, on_circle, count, count_only, g, sup, l1):
    facts = factorization_summary(w)
    assert facts.on_circle == on_circle
    assert (facts.zero_count_inside, facts.count_only) == (count, count_only)
    assert facts.g == (None if g is None else pytest.approx(g, rel=1e-12))
    assert (facts.sample_sup, facts.ell1_bound) == (sup, l1)
    # the profile reads the facts: a zero in the band leaves every algebra open
    if on_circle == UNKNOWN:
        p = invertibility_profile(w)
        assert (p.analytic, p.boundary, p.ell1, p.hinf_boundary) == (UNKNOWN,) * 4
