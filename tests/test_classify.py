"""Spectral classification reports across the supported space families."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wro import (
    CircularSet,
    ClassifyError,
    Component,
    ConvergenceError,
    REPORT_KEYS,
    RotationVector,
    Status,
    boundary_sample_weight,
    circle,
    classify,
    closed_annulus,
    closed_disc,
    empty_set,
    geometric_mean,
    named_rotation,
    open_annulus,
    open_disc,
    origin_set,
    point_spectrum_candidates,
    polynomial,
    rational,
    raw_radians,
    report_consistency,
    residual_index,
    root_of_unity,
    taylor,
    torus_polynomial,
)
from wro.classify import (
    FLAG_AP_BOUNDARY,
    FLAG_BEYOND_LIPSCHITZ,
    FLAG_INNER_ANNULUS_INDEX,
    IndexEntry,
    bounds,
)
from wro.weights import space

GOLDEN = named_rotation("golden")


def _tagged(coeffs, *tags):
    return polynomial(coeffs, tags=tags)


# ----------------------------------------------------------------------
# set algebra
# ----------------------------------------------------------------------


def test_circular_set_contains_semantics():
    disc = closed_disc(2.0)
    assert disc.contains(circle(2.0))
    assert disc.contains(open_disc(2.0))
    assert disc.contains(origin_set())
    assert disc.contains(empty_set())
    assert not open_disc(2.0).contains(circle(2.0))
    assert not open_disc(2.0).contains(closed_disc(2.0))
    assert open_disc(2.0).contains(origin_set())
    assert not empty_set().contains(circle(1.0))
    assert empty_set().contains(empty_set())
    assert closed_annulus(1.0, 2.0).contains(circle(1.5))
    assert not closed_annulus(1.0, 2.0).contains(origin_set())
    assert not open_annulus(1.0, 2.0).contains(circle(1.0))
    two = CircularSet((Component("circle", r=0.7), Component("circle", r=1.0)))
    assert closed_annulus(0.7, 1.0).contains(two)
    assert not two.contains(closed_annulus(0.7, 1.0))


def test_component_validation():
    with pytest.raises(ClassifyError):
        Component("square", r=1.0)
    with pytest.raises(ClassifyError):
        Component("circle", r=0.0)
    with pytest.raises(ClassifyError):
        Component("open_annulus", r_in=2.0, r_out=1.0)
    with pytest.raises(ClassifyError):
        Status("roughly")
    with pytest.raises(ClassifyError):
        Status("bounds", lower=circle(1.0))


def test_outer_radius():
    assert empty_set().outer_radius() == 0.0
    assert closed_annulus(0.5, 3.0).outer_radius() == 3.0
    assert circle(1.5).outer_radius() == 1.5


# ----------------------------------------------------------------------
# the trichotomy on the disc
# ----------------------------------------------------------------------


def test_case1_invertible_weight_all_circle():
    w = _tagged([-2, 1], "disc_algebra")
    rep = classify(space("bergman", p=2), w, GOLDEN)
    for key in REPORT_KEYS:
        sr = rep.sets[key]
        assert sr.status.kind == "exact"
        if key == "sigma_r":
            assert sr.set.is_empty
        else:
            assert sr.set == circle(2.0)
    assert "bergman-trichotomy(1)" in rep.citations
    assert "rotation-circles" in rep.citations
    assert rep.index_map == ()
    assert rep.open_flags == ()
    assert not rep.has_unknown()


def test_case2_interior_zero_residual_disc():
    w = _tagged([1, -2.5, 1], "disc_algebra")   # zeros 1/2 and 2
    rep = classify(space("bergman", p=2), w, GOLDEN)
    assert rep.sets["sigma"].set == closed_disc(2.0)
    assert rep.sets["sigma_ap"].set == circle(2.0)
    assert rep.sets["sigma_r"].set == open_disc(2.0)
    for key in ("sigma_1", "sigma_2", "sigma_3"):
        assert rep.sets[key].set == circle(2.0)
    for key in ("sigma_4", "sigma_5"):
        assert rep.sets[key].set == closed_disc(2.0)
    assert len(rep.index_map) == 1
    entry = rep.index_map[0]
    assert entry.index == -1 and not entry.minus_infinity
    assert entry.component.kind == "open_disc" and entry.component.r == pytest.approx(2.0)
    assert "blaschke-zero-index" in rep.citations


def test_case2_double_interior_zero_index():
    w = _tagged([0.25, -1.0, 1.0], "disc_algebra")   # (z - 1/2)^2
    assert residual_index(space("disc_algebra"), w, GOLDEN) == -2


def test_case3_boundary_zero_all_disc():
    w = _tagged([-1, 1], "disc_algebra")
    rep = classify(space("bloch", ), _tagged([-1, 1], "disc_algebra", "multiplier_Bloch"), GOLDEN)
    assert rep.sets["sigma_r"].set.is_empty
    for key in REPORT_KEYS:
        if key == "sigma_r":
            continue
        assert rep.sets[key].set == closed_disc(1.0)
        assert rep.sets[key].status.kind == "exact"
    assert rep.index_map == ()
    del w


def test_family_rules_and_reductions():
    w2 = _tagged([-2, 1], "disc_algebra")
    wh = _tagged([-2, 1], "H_inf")
    cases = (
        (space("disc_algebra"), w2, "uniform-algebra-trichotomy(1)", None),
        (space("smooth_cna", order=2), w2, "uniform-algebra-trichotomy(1)", "smooth-boundary-reduction"),
        (space("dirichlet", p=2), _tagged([-2, 1], "disc_algebra", "multiplier_Dirichlet"),
         "dirichlet-trichotomy(1)", None),
        (space("hinf"), wh, "hinf-trichotomy(1)", None),
        (space("hardy_banach"), wh, "hinf-trichotomy(1)", "hardy-banach-transfer"),
        (space("sobolev_wna", order=1, p=2), wh, "hinf-trichotomy(1)", "sobolev-hardy-reduction"),
    )
    for sp, w, cite, reduction in cases:
        rep = classify(sp, w, GOLDEN)
        assert cite in rep.citations, sp.variant
        if reduction is not None:
            assert reduction in rep.citations, sp.variant


def test_missing_tag_rejected():
    # closed form weights carry every tag implicitly; only series and
    # sample weights can lack one
    t = taylor([-2.0, 0.5], tail_bound=0.25, tags=("disc_algebra",))
    with pytest.raises(ClassifyError):
        classify(space("bloch"), t, GOLDEN)
    with pytest.raises(ClassifyError):
        classify(space("hinf"), t, GOLDEN)
    assert classify(space("disc_algebra"), t, GOLDEN) is not None


def test_rotation_admissibility():
    w = _tagged([-2, 1], "disc_algebra")
    sp = space("bergman", p=2)
    with pytest.raises(ClassifyError):
        classify(sp, w, root_of_unity(1, 3))
    with pytest.raises(ClassifyError):
        classify(sp, w, raw_radians(1.0))
    # declared non periodic raw angles are accepted
    rep = classify(sp, w, raw_radians(1.0, assumed_nonperiodic=True))
    assert rep.sets["sigma"].set == circle(2.0)
    rv = RotationVector((GOLDEN, named_rotation("sqrt2")), ())
    with pytest.raises(ClassifyError):
        classify(sp, w, rv)


# ----------------------------------------------------------------------
# series coefficient weights (exactness degrades honestly)
# ----------------------------------------------------------------------


def test_taylor_boundary_certified_keeps_ap_exact():
    w = taylor([-2.0, 0.5], tail_bound=0.25, tags=("disc_algebra",))
    rep = classify(space("bergman", p=2), w, GOLDEN)
    g = geometric_mean(w, 1.0)
    for key in ("sigma_ap", "sigma_1", "sigma_2"):
        assert rep.sets[key].status.kind == "exact"
        assert rep.sets[key].set == circle(g)
    assert rep.sets["sigma"].status.kind == "bounds"
    assert rep.sets["sigma"].status.lower == circle(g)
    assert rep.sets["sigma"].status.upper == closed_disc(g)
    assert rep.sets["sigma_r"].status.kind == "bounds"
    assert rep.sets["sigma_r"].status.lower == empty_set()
    assert "bergman-trichotomy(boundary-certified)" in rep.citations


def test_taylor_uncertified_full_sandwich():
    w = taylor([-2.0, 0.5], tail_bound=1.9, tags=("disc_algebra",))
    rep = classify(space("bergman", p=2), w, GOLDEN)
    for key in REPORT_KEYS:
        assert rep.sets[key].status.kind == "bounds"
    assert "bergman-trichotomy(unresolved)" in rep.citations


def test_samples_weight_sandwich_and_hinf_special_case():
    vals = [complex(np.exp(2j * np.pi * k / 64)) - 2.0 for k in range(64)]
    w = boundary_sample_weight(vals, tags=("disc_algebra",))
    rep = classify(space("bergman", p=2), w, GOLDEN)
    g = geometric_mean(w, 1.0)
    assert rep.sets["sigma"].status.kind == "bounds"
    assert rep.sets["sigma"].status.lower == circle(g)
    wh = boundary_sample_weight(vals, tags=("H_inf",))
    rep = classify(space("hinf"), wh, GOLDEN)
    assert rep.sets["sigma"].status.kind == "bounds"
    assert rep.sets["sigma"].status.upper == closed_disc(3.0)
    assert rep.sets["sigma_ap"].status.kind == "unknown"
    assert rep.has_unknown()


# ----------------------------------------------------------------------
# series algebra on coefficients
# ----------------------------------------------------------------------


def test_ell1a_invertible_all_circle():
    w = polynomial([3, 1], tags=("ell1A",))
    rep = classify(space("ell1a"), w, GOLDEN)
    assert rep.sets["sigma"].set == circle(3.0)
    assert "wiener-series-circle(1)" in rep.citations


def test_ell1a_noninvertible_keeps_boundary_open():
    w = polynomial([-1, 1], tags=("ell1A",))
    rep = classify(space("ell1a"), w, GOLDEN)
    assert rep.sets["sigma"].status.kind == "exact"
    assert rep.sets["sigma"].set == closed_disc(1.0)
    assert rep.sets["sigma_ap"].status.kind == "unknown"
    assert FLAG_AP_BOUNDARY in rep.open_flags
    assert rep.has_unknown()


def test_ell1a_taylor_beyond_lipschitz():
    w = taylor([2.0, 0.5], tail_bound=0.25, tags=("ell1A",))
    rep = classify(space("ell1a"), w, GOLDEN)
    assert FLAG_BEYOND_LIPSCHITZ in rep.open_flags
    sr = rep.sets["sigma"]
    assert sr.status.kind == "bounds"
    assert sr.status.upper == closed_disc(2.75)   # |2| + |1/2| + tail 1/4
    smooth = taylor([2.0, 0.5], tail_bound=0.25, tags=("ell1A", "Lambda_class"))
    rep = classify(space("ell1a"), smooth, GOLDEN)
    assert rep.open_flags == ()
    assert rep.sets["sigma"].status.kind == "bounds"


# ----------------------------------------------------------------------
# annulus
# ----------------------------------------------------------------------


def test_annulus_two_circles():
    sp = space("annulus_hardy", inner_radius=0.5, p=2)
    w = polynomial([-0.7, 1], tags=("H_inf",))
    rep = classify(sp, w, GOLDEN)
    ap = rep.sets["sigma_ap"].set
    radii = sorted(c.r for c in ap.components)
    assert radii == pytest.approx([0.7, 1.0])
    assert rep.sets["sigma"].set == closed_annulus(0.7, 1.0)
    assert rep.sets["sigma_r"].set == open_annulus(0.7, 1.0)
    assert rep.sets["sigma_3"].status.kind == "bounds"
    assert FLAG_INNER_ANNULUS_INDEX in rep.open_flags
    assert "annulus-boundary-circles(two-circles)" in rep.citations


def test_annulus_merged_circles():
    sp = space("annulus_hardy", inner_radius=0.5, p=2)
    w = polynomial([-2, 1], tags=("H_inf",))
    rep = classify(sp, w, GOLDEN)
    for key in REPORT_KEYS:
        if key == "sigma_r":
            assert rep.sets[key].set.is_empty
        else:
            assert rep.sets[key].set == circle(2.0)
    assert "annulus-boundary-circles(merged)" in rep.citations


def test_annulus_rejects_boundary_zeros_and_series():
    sp = space("annulus_hardy", inner_radius=0.5, p=2)
    with pytest.raises(ClassifyError):
        classify(sp, polynomial([-0.5, 1], tags=("H_inf",)), GOLDEN)
    with pytest.raises(ClassifyError):
        classify(sp, polynomial([-1, 1], tags=("H_inf",)), GOLDEN)
    with pytest.raises(ClassifyError):
        classify(sp, taylor([2.0], tail_bound=0.1, tags=("H_inf",)), GOLDEN)
    # the boundary bands around |z| = R and |z| = 1 are CLUSTER_TOL = 1e-7 wide
    with pytest.raises(ClassifyError, match="annulus boundary circle"):
        classify(sp, polynomial([-(0.5 + 5e-8), 1]), GOLDEN)
    rep = classify(sp, polynomial([-(0.5 + 2e-7), 1]), GOLDEN)
    assert "annulus-boundary-circles(two-circles)" in rep.citations
    with pytest.raises(ClassifyError, match="annulus boundary circle"):
        classify(sp, polynomial([-(1 + 5e-8), 1]), GOLDEN)
    rep = classify(sp, polynomial([-(1 + 2e-7), 1]), GOLDEN)
    assert "annulus-boundary-circles(merged)" in rep.citations


# ----------------------------------------------------------------------
# polydisc
# ----------------------------------------------------------------------

RV2 = RotationVector((GOLDEN, named_rotation("sqrt2")), ())


def test_polydisc_univariate_axis_trichotomy():
    sp = space("polydisc_algebra", dim=2)
    w = torus_polynomial(2, {(0, 0): -2.0, (1, 0): 1.0})
    rep = classify(sp, w, RV2)
    assert rep.sets["sigma"].set == circle(2.0)
    assert "polydisc-algebra-cases(1)" in rep.citations


def test_polydisc_case2_minus_infinity_index():
    sp = space("polydisc_bergman", dim=2, p=2)
    w = torus_polynomial(2, {(0, 0): 1.0, (1, 0): -2.5, (2, 0): 1.0})
    rep = classify(sp, w, RV2)
    assert rep.sets["sigma_3"].set == closed_disc(2.0)
    assert rep.sets["sigma_3"].status.kind == "exact"
    assert rep.sets["sigma_1"].set == circle(2.0)
    entry = rep.index_map[0]
    assert entry.minus_infinity and entry.index is None
    with pytest.raises(ClassifyError):
        residual_index(sp, w, RV2)
    assert "polydisc-bergman-cases(2)" in rep.citations


def test_polydisc_mixed_weight_sandwich():
    sp = space("polydisc_algebra", dim=2)
    w = torus_polynomial(2, {(0, 0): 4.0, (1, 1): 1.0})
    rep = classify(sp, w, RV2)
    assert rep.sets["sigma"].status.kind == "bounds"
    g = rep.sets["sigma"].set.outer_radius()
    assert g == pytest.approx(4.0, rel=1e-6)
    assert "polydisc-algebra-cases(unresolved)" in rep.citations


def test_polydisc_accepts_plain_polynomial_lifted():
    sp = space("polydisc_algebra", dim=3)
    rv = RotationVector((GOLDEN, named_rotation("sqrt2"), named_rotation("e_frac")), ())
    rep = classify(sp, polynomial([-2, 1]), rv)
    assert rep.sets["sigma"].set == circle(2.0)


#: zero of w(z) = z - c per closed form branch; 1 + 1e-8 is too near the
#: circle to place
_BRANCH_ZEROS = {"zero-free": 2.0, "inside": 0.5, "on-circle": 1.0, "near-circle": 1.0 + 1e-8}


@pytest.mark.parametrize("zero", sorted(_BRANCH_ZEROS))
@pytest.mark.parametrize("variant", ["bergman", "ell1a", "polydisc_algebra"])
def test_closed_form_branch_table(variant, zero):
    """Citation, sigma, sigma_ap, index and flags of every closed form branch."""
    c = _BRANCH_ZEROS[zero]
    if variant == "polydisc_algebra":
        rep = classify(space(variant, dim=2), torus_polynomial(2, {(0, 0): -c, (1, 0): 1.0}), RV2)
        rule = "polydisc-algebra-cases"
    else:
        rep = classify(space(variant, p=2) if variant == "bergman" else space(variant),
                       polynomial([-c, 1.0]), GOLDEN)
        rule = {"bergman": "bergman-trichotomy", "ell1a": "wiener-series-circle"}[variant]
    exact, disc = Status("exact"), closed_disc(1.0)
    index, flags, extra = (), (), ()
    if zero == "zero-free":
        branch, sigma, ap = "(1)", (circle(2.0), exact), (circle(2.0), exact)
    elif zero == "near-circle":
        band = bounds(circle(c), closed_disc(c))
        branch, sigma, ap = "(unresolved)", (closed_disc(c), band), (closed_disc(c), band)
    elif variant == "ell1a":
        # not invertible in the series algebra: only sigma is known
        branch, sigma, ap = "(2)", (disc, exact), (empty_set(), Status("unknown"))
        flags = (FLAG_AP_BOUNDARY,)
    elif zero == "on-circle":
        branch, sigma, ap = "(3)", (disc, exact), (disc, exact)
    else:
        branch, sigma, ap = "(2)", (disc, exact), (circle(1.0), exact)
        if variant == "bergman":
            index = (IndexEntry(Component("open_disc", r=1.0), index=-1),)
            extra = ("blaschke-zero-index",)
        else:
            index = (IndexEntry(Component("open_disc", r=1.0), minus_infinity=True),)
    cite = rule + branch
    assert {k: sr.citation for k, sr in rep.sets.items()} == {k: cite for k in REPORT_KEYS}
    assert rep.citations == ("rotation-circles",) + extra + (cite,)
    assert (rep.sets["sigma"].set, rep.sets["sigma"].status) == sigma
    assert (rep.sets["sigma_ap"].set, rep.sets["sigma_ap"].status) == ap
    assert rep.index_map == index
    assert rep.open_flags == flags


_SAMPLES = [2.0 + 0.5 * math.cos(2 * math.pi * j / 64) for j in range(64)]   # sup 2.5

#: (space, weight, branch) per series and sampled weight branch; the zero
#: of the "between-grid-points" series lies on the circle, half way
#: between two points of the 4096 point certificate grid
_SERIES_BRANCHES = {
    "certified-count": ("bergman", taylor([-0.5, 1], 1e-9, tags=("disc_algebra",)),
                        "boundary-certified"),
    "certified-zero-free": ("hinf", taylor([-2.0, 0.5], 0.25, tags=("H_inf",)),
                            "boundary-certified"),
    "uncertified-count": ("bergman", taylor([-0.5, 1], 0.75, tags=("disc_algebra",)), "unresolved"),
    "between-grid-points": ("bergman", taylor([-np.exp(1j * math.pi / 4096), 1], 1e-9,
                                              tags=("disc_algebra",)), "unresolved"),
    "samples": ("bergman", boundary_sample_weight(_SAMPLES, tags=("disc_algebra",)), "unresolved"),
    "samples-touch-zero": ("bergman", boundary_sample_weight([1.0] * 63 + [0.0],
                                                             tags=("disc_algebra",)), "unresolved"),
    "samples-sup-norm": ("hinf", boundary_sample_weight(_SAMPLES, tags=("H_inf",)), "unresolved"),
    "ell1a": ("ell1a", taylor([2.0, 0.5], 0.25, tags=("ell1A",)), "beyond-lipschitz"),
    "ell1a-lambda-class": ("ell1a", taylor([2.0, 0.5], 0.25, tags=("ell1A", "Lambda_class")),
                           "unresolved"),
}


@pytest.mark.parametrize("row", sorted(_SERIES_BRANCHES))
def test_series_and_sample_branch_table(row):
    """Citation, sigma, sigma_ap, index and flags of every branch a series
    or sampled weight can take; none of them is exact beyond sigma_ap,
    sigma_1 and sigma_2 of a certified series."""
    variant, w, branch = _SERIES_BRANCHES[row]
    rep = classify(space(variant, p=2) if variant == "bergman" else space(variant), w, GOLDEN)
    rule = {"bergman": "bergman-trichotomy", "hinf": "hinf-trichotomy",
            "ell1a": "wiener-series-circle"}[variant]
    unknown, flags = (empty_set(), Status("unknown")), ()
    if row == "samples-touch-zero":
        sigma = ap = unknown
    else:
        g = geometric_mean(w, 1.0)
        hi = closed_disc({"samples-sup-norm": 2.5, "ell1a": 2.75}.get(row, g))
        sigma = (hi, bounds(circle(g), hi))
        ap = {"boundary-certified": (circle(g), Status("exact")),
              "unresolved": sigma}.get(branch, unknown)
        if row == "samples-sup-norm":
            ap = unknown
        if branch == "beyond-lipschitz":
            flags = (FLAG_BEYOND_LIPSCHITZ,)
    cite = "%s(%s)" % (rule, branch)
    assert {k: sr.citation for k, sr in rep.sets.items()} == {k: cite for k in REPORT_KEYS}
    assert rep.citations == ("rotation-circles", cite)
    assert (rep.sets["sigma"].set, rep.sets["sigma"].status) == sigma
    assert (rep.sets["sigma_ap"].set, rep.sets["sigma_ap"].status) == ap
    assert rep.index_map == ()
    assert rep.open_flags == flags
    exact = {k for k, sr in rep.sets.items() if sr.status.kind == "exact"}
    certified = branch == "boundary-certified"
    assert exact == ({"sigma_ap", "sigma_1", "sigma_2"} if certified else set())


_ONE_VARIABLE_SPACES = {
    "disc_algebra": (space("disc_algebra"), ("disc_algebra",)),
    "smooth_cna": (space("smooth_cna", order=2), ("disc_algebra",)),
    "bergman": (space("bergman", p=2), ("disc_algebra",)),
    "bloch": (space("bloch"), ("disc_algebra", "multiplier_Bloch")),
    "dirichlet": (space("dirichlet", p=2), ("disc_algebra", "multiplier_Dirichlet")),
    "hinf": (space("hinf"), ("H_inf",)),
    "hardy_banach": (space("hardy_banach"), ("H_inf",)),
    "sobolev_wna": (space("sobolev_wna", order=1, p=2), ("H_inf",)),
    "ell1a": (space("ell1a"), ("ell1A",)),
}


@pytest.mark.parametrize("variant", sorted(_ONE_VARIABLE_SPACES))
def test_series_zero_on_the_quadrature_grid_is_unresolved(variant):
    # the quadrature of ln|1 - z| meets the zero z = 1 on its first grid:
    # with no boundary mean every set is unknown, and no error escapes
    sp, tags = _ONE_VARIABLE_SPACES[variant]
    w = taylor([1, -1], 1e-3, tags=tags)
    with pytest.raises(ConvergenceError):
        geometric_mean(w, 1.0)
    rep = classify(sp, w, GOLDEN)
    rule = rep.citations[-1]
    assert rule.endswith("(unresolved)")
    assert {k: sr.citation for k, sr in rep.sets.items()} == {k: rule for k in REPORT_KEYS}
    assert all(sr.status.kind == "unknown" and sr.set.is_empty for sr in rep.sets.values())
    assert rep.index_map == () and rep.open_flags == ()


def test_polydisc_dimension_mismatches():
    sp = space("polydisc_algebra", dim=2)
    with pytest.raises(ClassifyError):
        classify(sp, torus_polynomial(3, {(0, 0, 0): 2.0}), RV2)
    with pytest.raises(ClassifyError):
        classify(sp, torus_polynomial(2, {(0, 0): 2.0}), GOLDEN)
    rv3 = RotationVector((GOLDEN, named_rotation("sqrt2"), named_rotation("e_frac")), ())
    with pytest.raises(ClassifyError):
        classify(sp, torus_polynomial(2, {(0, 0): 2.0}), rv3)
    with pytest.raises(ClassifyError):
        classify(space("bergman", p=2), torus_polynomial(2, {(0, 0): 2.0}), GOLDEN)


# ----------------------------------------------------------------------
# report invariants
# ----------------------------------------------------------------------


@st.composite
def _random_poly(draw):
    deg = draw(st.integers(1, 4))
    coeffs = [
        complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
        for _ in range(deg + 1)
    ]
    if abs(coeffs[-1]) < 0.1:
        coeffs[-1] = 1.0
    return coeffs


@settings(max_examples=40, deadline=None)
@given(_random_poly())
# a double zero near 0 whose derivative there is 4e-295: an unguarded
# Newton polish threw it to -6.8e230i and the Jensen product overflowed
@example([2.72e-64j, 4.03e-295 + 0j, 1j, 1 + 0j])
# zeros of 2 + z + 2z^2 lie on the circle; the small imaginary part moves
# them into the band where no side of the circle can be certified
@example([2 + 3.63751095500646e-07j, 1 + 0j, 2 + 0j])
def test_report_chain_inclusions_random_weights(coeffs):
    """sigma_1 in sigma_2 in sigma_3 in sigma_4 in sigma_5 in sigma, and
    sigma_ap and sigma_r inside sigma, on every closed form report."""
    w = polynomial(coeffs, tags=("disc_algebra",))
    rep = classify(space("bergman", p=2), w, GOLDEN)
    assert report_consistency(rep) == []
    sets = {k: rep.sets[k] for k in REPORT_KEYS}
    chain = ("sigma_1", "sigma_2", "sigma_3", "sigma_4", "sigma_5")
    for lo_key, hi_key in zip(chain, chain[1:]):
        if sets[lo_key].status.kind == sets[hi_key].status.kind == "exact":
            assert sets[hi_key].set.contains(sets[lo_key].set)
    if sets["sigma"].status.kind == "exact":
        for key in ("sigma_ap", "sigma_r", "sigma_5"):
            if sets[key].status.kind == "exact":
                assert sets["sigma"].set.contains(sets[key].set)


def test_ambiguous_boundary_zero_gives_sandwich():
    # a zero 1e-8 outside the circle: neither branch (1) nor (2)/(3) can
    # be certified, so every set gets the two sided boundary mean estimate
    w = _tagged([-(1.0 + 1e-8), 1.0], "disc_algebra")
    rep = classify(space("bergman", p=2), w, GOLDEN)
    assert report_consistency(rep) == []
    sigma = rep.sets["sigma"]
    assert sigma.citation == "bergman-trichotomy(unresolved)"
    assert sigma.status.kind == "bounds"
    assert sigma.status.lower == circle(1.0 + 1e-8)
    assert sigma.set == closed_disc(1.0 + 1e-8)
    rep = classify(space("ell1a"), w, GOLDEN)
    assert rep.sets["sigma"].citation == "wiener-series-circle(unresolved)"
    assert rep.sets["sigma"].status.kind == "bounds"


def test_inputs_echo_round_trip():
    w = _tagged([-2, 1], "disc_algebra")
    rep = classify(space("bergman", p=2), w, GOLDEN)
    echo = rep.inputs_echo
    assert echo["space"]["variant"] == "bergman"
    assert echo["weight"]["type"] == "poly"
    assert echo["rotation"]["kind"] == "named"


# ----------------------------------------------------------------------
# point spectrum candidates
# ----------------------------------------------------------------------


def test_candidates_diagonal_sequence():
    w = polynomial([-2, 1])
    alpha = GOLDEN.alpha()
    cands = point_spectrum_candidates(w, GOLDEN, count=5)
    assert len(cands) == 5
    for k, c in enumerate(cands):
        assert c == pytest.approx(alpha ** k * (-2.0), abs=1e-12)


def test_candidates_empty_when_origin_zero():
    assert point_spectrum_candidates(polynomial([0, 1]), GOLDEN) == ()


def test_candidates_graded_lex_for_vectors():
    w = torus_polynomial(2, {(0, 0): 3.0})
    cands = point_spectrum_candidates(w, RV2, count=6)
    a1, a2 = RV2.alpha_vector()
    expected = [
        3.0,
        3.0 * a1,
        3.0 * a2,
        3.0 * a1 ** 2,
        3.0 * a1 * a2,
        3.0 * a2 ** 2,
    ]
    for got, want in zip(cands, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_candidates_count_validation():
    with pytest.raises(ClassifyError):
        point_spectrum_candidates(polynomial([1]), GOLDEN, count=0)


# ----------------------------------------------------------------------
# rational weights ride the same closed forms
# ----------------------------------------------------------------------


def test_rational_weight_classifies():
    w = rational([-2, 1], [1, 0.5])
    rep = classify(space("disc_algebra"), w, GOLDEN)
    g = geometric_mean(w, 1.0)
    assert rep.sets["sigma"].set == circle(g)
    assert g == pytest.approx(2.0, rel=1e-12)
