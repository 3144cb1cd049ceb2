"""Weight, rotation, and space constructors plus the JSON round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wro import (
    NAMED_ROTATIONS,
    RotationAngle,
    RotationVector,
    SpaceSpec,
    WeightError,
    boundary_sample_weight,
    boundary_values,
    evaluate,
    named_rotation,
    parse_rotation,
    parse_space,
    parse_weight,
    polynomial,
    rational,
    raw_radians,
    root_of_unity,
    rotation_payload,
    space_payload,
    taylor,
    taylor_coefficients,
    torus_polynomial,
    weight_at_origin,
    weight_payload,
)
from wro.weights import MAX_ROTATION_ORDER

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ----------------------------------------------------------------------
# weight factories
# ----------------------------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    w = polynomial([1, 2, 0, 0])
    assert w.rep.coeffs == (1 + 0j, 2 + 0j)
    assert w.rep.degree == 1


def test_polynomial_rejects_empty_and_zero():
    with pytest.raises(WeightError):
        polynomial([])
    with pytest.raises(WeightError):
        polynomial([0, 0, 0])


def test_polynomial_rejects_unknown_tag():
    with pytest.raises(WeightError):
        polynomial([1, 1], tags=["sup_norm"])


def test_closed_form_weights_carry_every_tag():
    w = polynomial([-2, 1])
    for tag in ("disc_algebra", "H_inf", "multiplier_Bloch", "ell1A", "Lambda_class"):
        assert w.has_tag(tag)


def test_rational_normalizes_constant_denominator_term():
    w = rational([2, 2], [2, 1])
    assert w.rep.den[0] == 1 + 0j
    # scaling both lists by the same factor leaves the function alone
    z = 0.3 + 0.1j
    assert evaluate(w, z) == pytest.approx((2 + 2 * z) / (2 + z), rel=1e-14)


def test_rational_rejects_denominator_zero_near_closed_disc():
    with pytest.raises(WeightError):
        rational([1], [-0.5, 1])      # pole at 0.5, inside
    with pytest.raises(WeightError):
        rational([1], [-1.0, 1])      # pole on the circle
    rational([1], [-1.5, 1])          # pole at 1.5 is fine


def test_taylor_validation():
    with pytest.raises(WeightError):
        taylor([1, 1], -0.25)
    for tail in ("0.1", True, [0.1]):
        with pytest.raises(WeightError, match="tail bound"):
            parse_weight({"type": "taylor", "coeffs": [1, 1], "tail_bound": tail})
    w = taylor([1, 1], 0.0, tags=["H_inf"])
    assert w.rep.tail_bound == 0.0
    assert w.has_tag("H_inf")
    assert not w.has_tag("disc_algebra")


def test_boundary_samples_need_power_of_two_grid():
    with pytest.raises(WeightError):
        boundary_sample_weight([1.0] * 48)
    with pytest.raises(WeightError):
        boundary_sample_weight([1.0] * 32)   # below the minimum grid
    w = boundary_sample_weight([1.0] * 64)
    assert w.rep.grid == 64


def test_evaluate_torus_takes_one_array_per_variable():
    w = torus_polynomial(3, {(0, 0, 0): 2.0, (1, 2, 0): -1.5j, (0, 1, 3): 0.25})
    rng = np.random.default_rng(3)
    z1, z2, z3 = np.exp(2j * np.pi * rng.random((3, 5)))
    explicit = 2.0 - 1.5j * z1 * z2 ** 2 + 0.25 * z2 * z3 ** 3
    assert np.allclose(evaluate(w, z1, z2, z3), explicit, rtol=0, atol=1e-14)
    # per axis grids broadcast to the tensor grid
    grid = evaluate(w, z1[:, None, None], z2[None, :, None], z3[None, None, :])
    assert grid.shape == (5, 5, 5)
    assert np.allclose(grid[1, 2, 3], 2.0 - 1.5j * z1[1] * z2[2] ** 2 + 0.25 * z2[2] * z3[3] ** 3,
                       rtol=0, atol=1e-14)
    for args in ((z1,), (z1, z2), (z1, z2, z3, z1)):
        with pytest.raises(WeightError, match="coordinate arrays"):
            evaluate(w, *args)
    with pytest.raises(WeightError, match="coordinate arrays"):
        evaluate(polynomial([1, 1]), z1, z2)


def test_evaluate_rejects_samples():
    w = boundary_sample_weight([1.0] * 64)
    with pytest.raises(WeightError):
        evaluate(w, 0.5)


def test_weight_at_origin():
    assert weight_at_origin(polynomial([3, 1])) == 3 + 0j
    assert weight_at_origin(rational([4, 1], [1, 0.5])) == 4 + 0j
    assert weight_at_origin(taylor([5, 1], 0.1, tags=["H_inf"])) == 5 + 0j
    wnd = torus_polynomial(2, {(0, 0): 7.0, (1, 1): 1.0})
    assert weight_at_origin(wnd) == 7 + 0j


def test_taylor_coefficients_of_rational_match_series():
    # 1 / (1 - z/2) = sum (z/2)^k
    w = rational([1], [1, -0.5])
    cs = taylor_coefficients(w, 8)
    expected = np.array([0.5 ** k for k in range(8)], dtype=complex)
    assert np.allclose(cs, expected, rtol=0, atol=1e-15)


def test_taylor_coefficients_reject_samples():
    with pytest.raises(WeightError):
        taylor_coefficients(boundary_sample_weight([1.0] * 64), 4)


def test_boundary_values_subsample_samples():
    vals = [complex(np.exp(2j * np.pi * k / 128)) + 2.0 for k in range(128)]
    w = boundary_sample_weight(vals)
    sub = boundary_values(w, 64)
    assert np.array_equal(sub, np.asarray(vals)[::2])
    with pytest.raises(WeightError):
        boundary_values(w, 256)     # cannot refine sampled data
    with pytest.raises(WeightError):
        boundary_values(w, 64, r=0.5)


def test_boundary_values_grid_validation():
    w = polynomial([1, 1])
    with pytest.raises(WeightError):
        boundary_values(w, 60)
    with pytest.raises(WeightError):
        boundary_values(w, 32)


@given(st.integers(6, 9))
def test_boundary_values_nest_under_doubling(k):
    w = polynomial([0.3, -1.2, 0.5])
    coarse = boundary_values(w, 2 ** k)
    fine = boundary_values(w, 2 ** (k + 1))
    assert np.allclose(fine[::2], coarse, rtol=0, atol=1e-12)


def test_torus_polynomial_validation():
    with pytest.raises(WeightError):
        torus_polynomial(1, {(0,): 1.0})
    with pytest.raises(WeightError):
        torus_polynomial(2, {(0, 0, 0): 1.0})
    with pytest.raises(WeightError):
        torus_polynomial(2, {})
    w = torus_polynomial(2, {(0, 0): 1.0, (2, 1): 0.5})
    assert w.rep.axes_used() == (0, 1)


def test_torus_axis_polynomial():
    # single axis: the second variable only, read as a polynomial in it
    w = torus_polynomial(2, {(0, 0): 1.0, (0, 2): 3j})
    assert w.rep.axis_polynomial() == polynomial([1.0, 0.0, 3j])
    # constant: no variable occurs, axis 0 is taken
    assert torus_polynomial(3, {(0, 0, 0): 2.0}).rep.axis_polynomial() == polynomial([2.0])
    # mixed: several variables occur, no one variable collapse
    assert torus_polynomial(2, {(0, 0): 4.0, (1, 1): 1.0}).rep.axis_polynomial() is None
    assert torus_polynomial(2, {(1, 0): 1.0, (0, 1): 1.0}).rep.axis_polynomial() is None


# ----------------------------------------------------------------------
# rotations
# ----------------------------------------------------------------------


def test_named_rotation_constants():
    assert NAMED_ROTATIONS["golden"] == pytest.approx(GOLDEN, abs=0)
    assert NAMED_ROTATIONS["sqrt2"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=0)
    assert NAMED_ROTATIONS["e_frac"] == pytest.approx(math.e - 2.0, abs=0)
    rot = named_rotation("golden")
    assert rot.certified_nonperiodic and not rot.periodic
    with pytest.raises(WeightError):
        named_rotation("pi")


def test_root_of_unity_reduction():
    rot = root_of_unity(2, 4)
    assert (rot.p, rot.q) == (1, 2)
    assert rot.periodic
    assert abs(rot.alpha() + 1.0) < 1e-15
    with pytest.raises(WeightError):
        root_of_unity(1, 0)


def test_root_of_unity_order_cap():
    assert root_of_unity(1, MAX_ROTATION_ORDER).q == MAX_ROTATION_ORDER
    # the cap applies after reduction: 2 / (2 cap) is 1 / cap
    rot = root_of_unity(2, 2 * MAX_ROTATION_ORDER)
    assert (rot.p, rot.q) == (1, MAX_ROTATION_ORDER)
    with pytest.raises(WeightError, match="exceeds the cap"):
        root_of_unity(1, MAX_ROTATION_ORDER + 1)
    with pytest.raises(WeightError, match="exceeds the cap"):
        parse_rotation({"kind": "rational", "p": 2, "q": MAX_ROTATION_ORDER + 1})


def test_raw_radians_certification_flag():
    rot = raw_radians(1.234567)
    assert not rot.certified_nonperiodic
    rot2 = raw_radians(1.234567, assumed_nonperiodic=True)
    assert rot2.certified_nonperiodic
    assert abs(abs(rot2.alpha()) - 1.0) < 1e-15


def test_alpha_lies_on_unit_circle():
    for rot in (named_rotation("golden"), named_rotation("sqrt2"), root_of_unity(1, 3)):
        assert abs(abs(rot.alpha()) - 1.0) < 1e-15


def test_rotation_vector_needs_two_components():
    with pytest.raises(WeightError):
        RotationVector((named_rotation("golden"),), ())


def test_rotation_vector_relation_checks():
    a = named_rotation("golden")
    # a true relation: theta - theta = 0 mod 1
    rv = RotationVector((a, a), ((1, -1),))
    assert rv.relations == ((1, -1),)
    # a false declared relation is rejected
    with pytest.raises(WeightError):
        RotationVector((a, named_rotation("sqrt2")), ((1, -1),))
    # a periodic component with an empty declared lattice is contradictory
    with pytest.raises(WeightError):
        RotationVector((a, root_of_unity(1, 3)), ())


# ----------------------------------------------------------------------
# space specs
# ----------------------------------------------------------------------


def test_space_spec_validation():
    with pytest.raises(WeightError):
        SpaceSpec("soap_bubble")
    with pytest.raises(WeightError):
        SpaceSpec("bergman", p=0.5)
    with pytest.raises(WeightError):
        SpaceSpec("annulus_hardy", inner_radius=1.5, p=2)
    with pytest.raises(WeightError):
        SpaceSpec("polydisc_algebra", dim=1)
    with pytest.raises(WeightError):
        SpaceSpec("smooth_cna", order=0)
    assert SpaceSpec("polydisc_bergman", dim=3, p=2).polydisc
    assert not SpaceSpec("bloch").polydisc


def test_parse_space_rejects_stray_fields():
    with pytest.raises(WeightError):
        parse_space({"variant": "bloch", "p": 2})
    sp = parse_space({"variant": "dirichlet", "p": 2})
    assert sp.variant == "dirichlet" and sp.p == 2.0


@pytest.mark.parametrize("field, value, message", [
    ("p", math.inf, "finite"),
    ("p", math.nan, "finite"),
    ("p", [2], "number"),
    ("p", "2", "number"),
    ("p", True, "number"),
    ("inner_radius", math.nan, "finite"),
    ("inner_radius", "0.6", "number"),
    ("order", True, "integer"),
    ("order", 2.0, "integer"),
])
def test_parse_space_rejects_non_numbers(field, value, message):
    variant = {"inner_radius": "annulus_hardy", "order": "sobolev_wna"}.get(field, "bergman")
    doc = {"variant": variant, "p": 2, field: value}
    with pytest.raises(WeightError, match=message):
        parse_space(doc)


# ----------------------------------------------------------------------
# JSON round trips
# ----------------------------------------------------------------------

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6))
def test_weight_payload_round_trip(pairs):
    coeffs = [complex(a, b) for a, b in pairs]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1.0 + 0j
    w = polynomial(coeffs)
    doc = weight_payload(w)
    again = parse_weight(json.loads(json.dumps(doc)))
    assert again.rep == w.rep


def test_rational_payload_round_trip():
    w = rational([1, 2.5], [2, 1])
    again = parse_weight(weight_payload(w))
    assert again.rep == w.rep


def test_taylor_payload_round_trip():
    w = taylor([1, 0.25j], 1e-3, tags=["H_inf", "Lambda_class"])
    again = parse_weight(weight_payload(w))
    assert again.rep == w.rep
    assert again.tags == w.tags


def test_samples_payload_round_trip():
    vals = [complex(np.exp(2j * np.pi * k / 64)) + 2.0 for k in range(64)]
    w = boundary_sample_weight(vals, tags=["H_inf"])
    again = parse_weight(weight_payload(w))
    assert again.rep == w.rep


def test_torus_payload_round_trip():
    w = torus_polynomial(3, {(0, 0, 0): -2.0, (1, 0, 2): 1.5j})
    again = parse_weight(weight_payload(w))
    assert again.rep == w.rep


def test_rotation_payload_round_trips():
    for rot in (
        named_rotation("e_frac"),
        root_of_unity(3, 7),
        raw_radians(0.77, assumed_nonperiodic=True),
    ):
        again = parse_rotation(rotation_payload(rot))
        assert again == rot
    rv = RotationVector((named_rotation("golden"), named_rotation("sqrt2")), ())
    assert parse_rotation(rotation_payload(rv)) == rv


def test_space_payload_round_trips():
    for sp in (
        SpaceSpec("disc_algebra"),
        SpaceSpec("bergman", p=2),
        SpaceSpec("sobolev_wna", order=2, p=3),
        SpaceSpec("annulus_hardy", inner_radius=0.5, p=2),
        SpaceSpec("polydisc_bergman", dim=2, p=2),
    ):
        assert parse_space(space_payload(sp)) == sp


def test_parse_weight_complex_pairs():
    w = parse_weight({"type": "poly", "coeffs": [[0, 1], 2]})
    assert w.rep.coeffs == (1j, 2 + 0j)
    with pytest.raises(WeightError):
        parse_weight({"type": "poly", "coeffs": ["one"]})
    with pytest.raises(WeightError):
        parse_weight({"type": "spline", "coeffs": [1]})
    with pytest.raises(WeightError, match="list of strings"):
        parse_weight({"type": "poly", "coeffs": [1], "tags": [["H_inf"]]})
    with pytest.raises(WeightError, match="must be a list"):
        parse_weight({"type": "poly", "coeffs": 5})
    for terms in (5, [{"exp": 1, "coeff": 1}]):
        with pytest.raises(WeightError, match="polynd term"):
            parse_weight({"type": "polynd", "dim": 2, "terms": terms})
    with pytest.raises(WeightError, match="integer dim"):
        parse_weight({"type": "polynd", "dim": True, "terms": [{"exp": [0], "coeff": 1}]})
    with pytest.raises(WeightError, match="exponents"):
        parse_weight({"type": "polynd", "dim": 2, "terms": [{"exp": [True, True], "coeff": 1}]})


def test_parsers_take_mappings_only():
    with pytest.raises(WeightError, match="weight must be a JSON object"):
        parse_weight('{"type": "poly", "coeffs": [1]}')
    with pytest.raises(WeightError, match="rotation must be a JSON object"):
        parse_rotation('{"kind": "named", "name": "golden"}')
    with pytest.raises(WeightError, match="space must be a JSON object"):
        parse_space('{"variant": "bloch"}')


def test_parse_rotation_errors():
    with pytest.raises(WeightError):
        parse_rotation({"kind": "rational", "p": 1.5, "q": 3})
    with pytest.raises(WeightError, match="integer p and q"):
        parse_rotation({"kind": "rational", "p": True, "q": 3})
    with pytest.raises(WeightError, match="must be a number"):
        parse_rotation({"kind": "radians", "value": "1.5", "assumed_nonperiodic": True})
    with pytest.raises(WeightError, match="finite"):
        parse_rotation({"kind": "radians", "value": 10 ** 400, "assumed_nonperiodic": True})
    with pytest.raises(WeightError, match="unknown rotation name"):
        parse_rotation({"kind": "named", "name": ["golden"]})
    for flag in ("false", 0, 1, None):
        with pytest.raises(WeightError, match="assumed_nonperiodic"):
            parse_rotation({"kind": "radians", "value": 1.5, "assumed_nonperiodic": flag})
    assert not parse_rotation({"kind": "radians", "value": 1.5}).assumed_nonperiodic
    with pytest.raises(WeightError, match="integer vectors"):
        parse_rotation({"kind": "vector", "relations": [[True, -1]], "components": [
            {"kind": "named", "name": "golden"}, {"kind": "named", "name": "golden"}]})
    with pytest.raises(WeightError):
        parse_rotation({"kind": "vector", "components": [{"kind": "named", "name": "golden"}]})
