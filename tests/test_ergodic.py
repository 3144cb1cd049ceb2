"""Orbit products, the membership scan, and group rotation radii."""

import importlib.util
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wro import (
    AnalysisError,
    ConvergenceError,
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
    rational,
    raw_radians,
    root_of_unity,
    taylor,
    torus_polynomial,
)
from wro.ergodic import _log_abs, _membership_margins, _orbit_log_blocks, ordered_parallel_map
from wro.weights import MAX_ROTATION_ORDER


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
# the streamed scan against the whole-array scan it replaced
# ----------------------------------------------------------------------


def _whole_orbit_sums(w, alpha, pts, n_max):
    """Forward and backward cumulative ln|w| as whole (n_max, pts.size) arrays."""
    fwd = (alpha ** np.arange(n_max))[:, None] * pts[None, :]
    bwd = (alpha ** (-np.arange(1, n_max + 1)))[:, None] * pts[None, :]
    return (np.cumsum(_log_abs(evaluate(w, fwd)), axis=0),
            np.cumsum(_log_abs(evaluate(w, bwd)), axis=0))


def _whole_array_margins(w, alpha, lam_abs, n_max, grid):
    pts = np.exp(2j * np.pi * np.arange(grid) / grid)
    fwd, bwd = _whole_orbit_sums(w, alpha, pts, n_max)
    lam_n = np.arange(1, n_max + 1)[:, None] * math.log(lam_abs)
    return pts, np.minimum((fwd - lam_n).min(axis=0), (lam_n - bwd).min(axis=0))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_BITWISE_WEIGHTS = [
    polynomial([-2, 1]),
    polynomial([1, -2.5, 1]),
    polynomial([0.3, -1.1, 0.7, 0.2j]),
    polynomial([0.5, 1.0, -0.25, 0.125, 0.3 - 0.1j]),
    polynomial([1.2, -0.4j, 0.3, 0.1, -0.2, 0.05]),
    polynomial([0.9, 0.2, -0.3, 0.4j, 0.1, -0.15, 0.07]),
    rational([1, -2.5, 1], [4, 1]),
    polynomial([-1, 1]),    # zero at z = 1, a grid point: the -inf path
]


@pytest.mark.parametrize("w", _BITWISE_WEIGHTS)
@pytest.mark.parametrize("n_max,grid", [
    (1, 8192), (7, 256), (7, 2048), (64, 1024), (64, 8192), (130, 512), (130, 4096),
])
def test_streamed_margins_equal_whole_array_bitwise(w, n_max, grid):
    alpha = named_rotation("golden").alpha()
    g = geometric_mean(w)
    for lam in (0.5 * g, g, 2.0 * g):
        pts, got = _membership_margins(w, alpha, lam, n_max, grid)
        ref_pts, ref = _whole_array_margins(w, alpha, lam, n_max, grid)
        assert _same_bits(pts, ref_pts)
        assert _same_bits(got, ref)


def test_streamed_margins_keep_the_exact_zero():
    alpha = named_rotation("golden").alpha()
    _, got = _membership_margins(polynomial([-1, 1]), alpha, 1.0, 7, 256)
    assert got[0] == -math.inf and np.isfinite(got[1:]).all()


@pytest.mark.parametrize("lam,verdict", [(2.0, "certified_in"), (1.5, "certified_out")])
@pytest.mark.parametrize("n_max,grid", [(64, 2048), (130, 4096)])
def test_ap_membership_reads_the_whole_array_margins(lam, verdict, n_max, grid):
    # certified_out rescans the doubled grid; both margins are the reference's
    w = polynomial([1, -2.5, 1])
    rot = named_rotation("golden")
    v = ap_membership.__wrapped__(w, rot, lam, n_max=n_max, grid=grid)
    assert v.verdict == verdict
    pts, ref = _whole_array_margins(w, rot.alpha(), lam, n_max, v.grid)
    j = int(np.argmax(ref))
    assert v.grid == (grid if v.certified_in else 2 * grid)
    assert v.margin == float(ref[j])
    assert v.witness == (complex(pts[j]) if v.certified_in else None)


@pytest.mark.parametrize("w", _BITWISE_WEIGHTS)
@pytest.mark.parametrize("n_max,grid", [(7, 256), (64, 1024), (130, 4096)])
def test_refinement_reads_the_doubled_grid_bitwise(w, n_max, grid):
    # the refinement rescans only the odd points of the doubled grid; the
    # coarse grid is its even points
    alpha = named_rotation("golden").alpha()
    g = geometric_mean(w)
    for lam in (0.5 * g, g, 2.0 * g):
        ref_pts, ref = _whole_array_margins(w, alpha, lam, n_max, 2 * grid)
        for odd, half in ((False, grid), (True, 2 * grid)):
            pts, got = _membership_margins(w, alpha, lam, n_max, half, odd=odd)
            assert _same_bits(pts, ref_pts[int(odd)::2])
            assert _same_bits(got, ref[int(odd)::2])


@pytest.mark.parametrize("w,point,n_max", [
    (polynomial([-2, 1]), 1.0 + 0j, 10),
    (polynomial([-1, 1]), 1.0 + 0j, 3),
    (polynomial([0.3, -1.1, 0.7]), complex(np.exp(0.7j)), 40000),   # beyond one block
])
def test_orbit_products_equal_whole_array_bitwise(w, point, n_max):
    rot = named_rotation("golden")
    op = orbit_products(w, rot, point, n_max)
    fwd, bwd = _whole_orbit_sums(w, rot.alpha(), np.array([complex(point)]), n_max)
    assert _same_bits(op.forward, np.concatenate([[0.0], fwd[:, 0]]))
    assert _same_bits(op.backward, np.concatenate([[0.0], bwd[:, 0]]))


@pytest.mark.parametrize("n_max,grid,bound_mb", [(130, 4096, 8), (128, 1 << 15, 64)])
def test_membership_scan_memory_does_not_grow_with_the_orbit(n_max, grid, bound_mb):
    # certified_out, so the scan also runs on the doubled grid; the whole
    # (horizon, grid) arrays peaked at 47 MB and 740 MB here
    w = polynomial([1, -2.5, 1])
    tracemalloc.start()
    try:
        v = ap_membership.__wrapped__(w, named_rotation("golden"), 1.5, n_max=n_max, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.verdict == "certified_out" and v.grid == 2 * grid
    assert peak < bound_mb * 2 ** 20


# ----------------------------------------------------------------------
# group rotation radii
# ----------------------------------------------------------------------


def test_root_of_unity_radius_closed_form():
    got = group_rotation_radius(polynomial([-2, 1]), root_of_unity(1, 3))
    assert got == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-13)


def _orbit_max_radius(q, zeros, poles=()):
    """Closed form radius of w = prod (z - a) / prod (z - d), all |a|, |d| > 1.

    Over an orbit of order q, |prod_j w(alpha^j t)| = prod |s - a^q| /
    prod |s - d^q| with s = t^q, and |s - b| = |b| |1 - c s|, c = b^{-1}.
    On the circle |1 - c s|^2 = G_c(s)/s with G_c(s) = (1 - c s)(s - conj c),
    so the critical angles of the quotient are the unimodular roots of
    s G_N' G_D - s G_N G_D' - (A - D) G_N G_D, A and D the root counts.
    Once every c is below rounding that polynomial degenerates; the log of
    the maximum is then |sum c_a - sum c_d| to first order.
    """
    P = np.polynomial.Polynomial
    ca = [complex(a) ** -q for a in zeros]
    cd = [complex(d) ** -q for d in poles]

    def G(cs):
        out = P([1.0])
        for c in cs:
            out = out * P([1.0, -c]) * P([-c.conjugate(), 1.0])
        return out

    GN, GD = G(ca), G(cd)
    crit = (P([0.0, 1.0]) * (GN.deriv() * GD - GN * GD.deriv())
            - (len(ca) - len(cd)) * GN * GD).roots()
    crit = crit[np.abs(np.abs(crit) - 1.0) < 1e-6]
    crit = crit / np.abs(crit)

    def log_quotient(s):
        return (sum(math.log(abs(1 - c * s)) for c in ca)
                - sum(math.log(abs(1 - c * s)) for c in cd))

    log_max = max(map(log_quotient, crit)) if crit.size else abs(sum(ca) - sum(cd))
    scale = math.prod(abs(a) for a in zeros) / math.prod(abs(d) for d in poles)
    return scale * math.exp(log_max / q)


_TWO_ZEROS = [-3j, -2 + 1.5j, 1]   # (z - 2)(z + 1.5i)


_ORDERS = [(1, 2), (1, 3), (2, 5), (3, 8), (5, 7), (1, 12),
           (2, 9), (4, 31), (5, 64), (3, 127), (7, 128), (3, 1000), (5, MAX_ROTATION_ORDER)]


@pytest.mark.parametrize("w,poles,p,q", [
    pytest.param(w, poles, p, q, id=kind + "%d-%d" % (p, q))
    for kind, w, poles in (("", polynomial(_TWO_ZEROS), ()),
                           ("rational-", rational(_TWO_ZEROS, [3, 1]), (-3.0,)),
                           ("taylor-", taylor(_TWO_ZEROS, 1e-9), ()))
    for p, q in _ORDERS
])
def test_root_of_unity_radius_two_zeros(w, poles, p, q):
    # w = (z - 2)(z + 1.5i), over z + 3 or as a series; one period of the
    # orbit mean holds 2^14/q grid points up to q = 8 and 2^11 above
    got = group_rotation_radius(w, root_of_unity(p, q))
    assert got == pytest.approx(_orbit_max_radius(q, (2.0, -1.5j), poles), rel=1e-13)


@pytest.mark.parametrize("w", _BITWISE_WEIGHTS)
@pytest.mark.parametrize("q", [1, 2, 3, 8, 9, 64])
def test_one_period_sums_equal_a_row_loop_bitwise(w, q):
    # the periodic radius streams q rows of ln|w| over one period of points
    # through the block kernel; its last row is the row by row sum
    n = max(1 << 14, q << 11)
    ts = np.exp(2j * np.pi * np.arange(-1, -(-n // q) + 1) / n)
    alpha = root_of_unity(1, q).alpha()
    for _, sums in _orbit_log_blocks(w, alpha, ts, q, backward=False):
        pass
    acc = np.zeros(ts.size)
    for a in alpha ** np.arange(q):
        acc += _log_abs(evaluate(w, a * ts))
    assert _same_bits(sums[-1], acc)


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
    # (2 + z_1)(3 + z_2 z_3): three variables, below the 2^7 grid cap
    rv3 = RotationVector(rv.angles + (named_rotation("e_frac"),), ())
    product = torus_polynomial(3, {(0, 0, 0): 6.0, (1, 0, 0): 3.0, (0, 1, 1): 2.0, (1, 1, 1): 1.0})
    assert group_rotation_radius(product, rv3) == pytest.approx(6.0, rel=1e-12)
    rv4 = RotationVector(rv3.angles + (raw_radians(0.1234, assumed_nonperiodic=True),), ())
    with pytest.raises(AnalysisError):
        group_rotation_radius(torus_polynomial(4, {(0, 0, 0, 0): 2.0, (1, 1, 1, 1): 1.0}), rv4)
    # 1 + z_1 + z_2 vanishes at (omega, conj(omega)), omega = exp(2 pi i / 3)
    with pytest.raises(ConvergenceError):
        group_rotation_radius(torus_polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}), rv)


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
