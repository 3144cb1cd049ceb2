"""Orbit products, the membership scan, and group rotation radii."""

import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wro import (
    AnalysisError,
    RotationVector,
    WeightError,
    ap_membership,
    boundary_sample_weight,
    evaluate,
    geometric_mean,
    group_rotation_radius,
    named_rotation,
    orbit_products,
    polynomial,
    polynomial_radius_cases,
    raw_radians,
    root_of_unity,
    torus_polynomial,
)
from wro.ergodic import ordered_parallel_map


# ----------------------------------------------------------------------
# the scan's circle map and the benchmark's trace targets
# ----------------------------------------------------------------------


def test_ordered_parallel_map_preserves_order():
    items = list(range(37))
    got = ordered_parallel_map(lambda x: x * x, items)
    assert got == [x * x for x in items]


def test_bench_trace_targets_resolve():
    # bench/run.py --trace 1 wraps every TARGETS entry by module and name;
    # a renamed or deleted function would break the traced run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for mod, fn, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod), fn)), (mod, fn)


# ----------------------------------------------------------------------
# orbit products
# ----------------------------------------------------------------------


def test_orbit_products_shape_and_seed():
    w = polynomial([-2, 1])
    op = orbit_products(w, named_rotation("golden"), 1.0 + 0j, 10)
    assert op.n_max == 10
    assert op.forward[0] == 0.0 and op.backward[0] == 0.0
    # forward[1] is ln|w(k)|
    assert op.forward[1] == pytest.approx(math.log(abs(1.0 - 2.0)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 1.0, exclude_max=True))
def test_cocycle_additivity(n, m, t):
    """ln w_{n+m}(k) = ln w_n(k) + ln w_m(alpha^n k) along every orbit."""
    w = polynomial([0.3, -1.1, 0.7])
    rot = named_rotation("golden")
    alpha = rot.alpha()
    k = complex(np.exp(2j * np.pi * t))
    full = orbit_products(w, rot, k, n + m)
    head = orbit_products(w, rot, k, n)
    tail = orbit_products(w, rot, alpha ** n * k, m)
    assert full.forward[n + m] == pytest.approx(
        head.forward[n] + tail.forward[m], abs=1e-12
    )


def test_backward_matches_forward_on_pulled_back_point():
    w = polynomial([0.5, 1.0, -0.25])
    rot = named_rotation("sqrt2")
    alpha = rot.alpha()
    k = complex(np.exp(0.7j))
    n = 6
    op = orbit_products(w, rot, k, n)
    shifted = orbit_products(w, rot, alpha ** (-n) * k, n)
    assert op.backward[n] == pytest.approx(shifted.forward[n], abs=1e-12)


def test_orbit_products_zero_hit_gives_minus_inf():
    w = polynomial([-1, 1])   # zero at z = 1
    op = orbit_products(w, named_rotation("golden"), 1.0 + 0j, 3)
    assert op.forward[1] == -math.inf
    assert op.forward[3] == -math.inf


# ----------------------------------------------------------------------
# membership scan
# ----------------------------------------------------------------------


def test_ap_membership_case2_frozen_verdicts():
    w = polynomial([1, -2.5, 1])
    rot = named_rotation("golden")
    v = ap_membership(w, rot, 2.0, n_max=200, grid=4096)
    assert v.verdict == "certified_in"
    assert v.certified_in
    assert abs(abs(v.witness) - 1.0) < 1e-12
    assert v.margin == pytest.approx(0.0004, abs=5e-4)
    for lam, frozen in ((1.2, -101.5999), (1.5, -57.1943), (2.5, -44.3598)):
        v = ap_membership(w, rot, lam, n_max=200, grid=4096)
        assert v.verdict == "certified_out"
        assert v.margin == pytest.approx(frozen, abs=1e-3)


def test_ap_membership_out_confirms_on_doubled_grid():
    w = polynomial([-2, 1])
    v = ap_membership(w, named_rotation("golden"), 1.5, n_max=100, grid=2048)
    assert v.verdict == "certified_out"
    assert v.grid == 4096    # one confirming doubling


def test_ap_membership_in_stable_under_grid_doubling():
    w = polynomial([1, -2.5, 1])
    rot = named_rotation("golden")
    a = ap_membership(w, rot, 2.0, n_max=150, grid=2048)
    b = ap_membership(w, rot, 2.0, n_max=150, grid=4096)
    assert a.certified_in and b.certified_in


def test_ap_membership_angle_presentation_invariance():
    w = polynomial([-2, 1])
    theta = (math.sqrt(5.0) - 1.0) / 2.0
    named = ap_membership(w, named_rotation("golden"), 2.0, n_max=100, grid=2048)
    raw = ap_membership(
        w, raw_radians(2.0 * math.pi * theta, assumed_nonperiodic=True), 2.0,
        n_max=100, grid=2048,
    )
    assert named.verdict == raw.verdict


def test_ap_membership_rejects_bad_rotations():
    w = polynomial([-2, 1])
    with pytest.raises(AnalysisError):
        ap_membership(w, root_of_unity(1, 3), 1.0)
    with pytest.raises(AnalysisError):
        ap_membership(w, raw_radians(1.0), 1.0)
    rv = RotationVector((named_rotation("golden"), named_rotation("sqrt2")), ())
    with pytest.raises(AnalysisError):
        ap_membership(w, rv, 1.0)


def test_ap_membership_parameter_validation():
    w = polynomial([-2, 1])
    rot = named_rotation("golden")
    with pytest.raises(AnalysisError):
        ap_membership(w, rot, -1.0)
    with pytest.raises(WeightError):
        ap_membership(w, rot, 1.0, grid=1000)   # not a power of two


# ----------------------------------------------------------------------
# group rotation radii
# ----------------------------------------------------------------------


def test_root_of_unity_radius_closed_form():
    got = group_rotation_radius(polynomial([-2, 1]), root_of_unity(1, 3))
    assert got == pytest.approx(9.0 ** (1.0 / 3.0), abs=1e-10)


def test_periodic_radius_on_samples_grid():
    # w(z) = z + 2 sampled on 64 points; with q = 4 the orbit maximum of
    # |prod (k alpha^j + 2)|^(1/4) is max |16 - k^4|^(1/4) = 17^(1/4)
    vals = [complex(np.exp(2j * np.pi * k / 64)) + 2.0 for k in range(64)]
    w = boundary_sample_weight(vals)
    got = group_rotation_radius(w, root_of_unity(1, 4))
    assert got == pytest.approx(17.0 ** 0.25, rel=1e-6)
    with pytest.raises(AnalysisError):
        group_rotation_radius(w, root_of_unity(1, 5))   # 64/5 does not roll


def test_nonperiodic_radius_is_geometric_mean():
    w = polynomial([1, -2.5, 1])
    got = group_rotation_radius(w, named_rotation("golden"))
    assert got == pytest.approx(geometric_mean(w), rel=1e-12)


def test_vector_rotation_radius_torus_mean():
    rv = RotationVector((named_rotation("golden"), named_rotation("sqrt2")), ())
    w = torus_polynomial(2, {(0, 0): -2.0, (1, 0): 1.0})
    assert group_rotation_radius(w, rv) == pytest.approx(2.0, rel=1e-9)
    mixed = torus_polynomial(2, {(0, 0): 4.0, (1, 1): 1.0})
    assert group_rotation_radius(mixed, rv) == pytest.approx(4.0, rel=1e-6)


def test_polynomial_radius_cases_product():
    assert polynomial_radius_cases(polynomial([1, -2.5, 1])) == pytest.approx(2.0, rel=1e-12)
    assert polynomial_radius_cases(polynomial([-1.5, 3])) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(AnalysisError):
        polynomial_radius_cases(polynomial([-1, 1]))    # zero on the circle
    with pytest.raises(AnalysisError):
        polynomial_radius_cases(boundary_sample_weight([1.0] * 64))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(1, 8))
def test_periodic_radius_dominates_every_orbit_mean(q, pnum):
    """The group rotation radius at a root of unity is the maximum of the
    q step orbit means, so no sampled orbit mean may exceed it."""
    w = polynomial([0.4, -1.3, 0.9])
    rot = root_of_unity(pnum, q)
    radius = group_rotation_radius(w, rot)
    alpha = rot.alpha()
    qq = rot.q
    rng = np.random.default_rng(q * 37 + pnum)
    for t in rng.uniform(0.0, 1.0, size=8):
        k = complex(np.exp(2j * np.pi * t))
        prods = np.prod([abs(evaluate(w, k * alpha ** j)) for j in range(qq)])
        assert prods ** (1.0 / qq) <= radius * (1.0 + 1e-9)
