"""Truncation matrices, resolvent gaps, smoothing, singular sequences,
and the space norm ladders."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular, toeplitz

from wro import (
    OracleError,
    bloch_norm,
    build_truncation,
    check_smoothing_identity,
    geometric_mean,
    monomial_norms,
    named_rotation,
    norm_asymptotics,
    point_spectrum_candidates,
    polynomial,
    pseudospectrum_scan,
    rational,
    raw_radians,
    singular_sequence_residual,
    taylor,
    truncation_rank,
    weight_at_origin,
)
from wro import oracle
from wro.oracle import _gap_dense
from wro.weights import space, taylor_coefficients

GOLDEN = named_rotation("golden")
BERGMAN = space("bergman", p=2)


# ----------------------------------------------------------------------
# monomial norms
# ----------------------------------------------------------------------


def test_monomial_norms_tables():
    nus, tag = monomial_norms(space("hardy_banach"), 4)
    assert tag == "euclidean"
    assert np.allclose(nus, 1.0)
    nus, tag = monomial_norms(BERGMAN, 3)
    assert tag == "euclidean"
    assert np.allclose(nus, [math.sqrt(math.pi / (k + 1)) for k in range(3)])
    nus, tag = monomial_norms(space("dirichlet", p=2), 3)
    assert nus[0] == 1.0
    assert np.allclose(nus[1:], [math.sqrt(math.pi * k) for k in (1, 2)])
    nus, tag = monomial_norms(space("ell1a"), 5)
    assert tag == "sum"
    assert np.allclose(nus, 1.0)
    with pytest.raises(OracleError):
        monomial_norms(space("bloch"), 4)


# ----------------------------------------------------------------------
# truncation matrices
# ----------------------------------------------------------------------


def test_truncation_diagonal_matches_candidates():
    w = polynomial([-2, 1])
    T = build_truncation(BERGMAN, w, GOLDEN, 16)
    cands = np.asarray(point_spectrum_candidates(w, GOLDEN, count=16))
    assert np.array_equal(T.bands[0], cands)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(lambda t: complex(*t)),
        min_size=1,
        max_size=5,
    ),
    st.integers(4, 48),
)
def test_truncation_diagonal_exact_for_random_weights(coeffs, order):
    """Diagonal entries are alpha^k w(0) with no rounding at all, even
    for complex origin values where elementwise products round."""
    if all(abs(c) < 1e-9 for c in coeffs):
        coeffs = [1.0 + 0j]
    w = polynomial(coeffs)
    T = build_truncation(BERGMAN, w, GOLDEN, order)
    cands = np.asarray(point_spectrum_candidates(w, GOLDEN, count=order))
    assert np.array_equal(T.bands[0], cands)


def test_truncation_is_lower_triangular_shift_pattern():
    w = polynomial([-2, 1])
    T = build_truncation(space("hardy_banach"), w, GOLDEN, 8)
    m = T.entries
    # column k holds w(z) z^k composed with the rotation: entries only on
    # and below the diagonal, exactly deg(w) + 1 bands
    assert np.allclose(np.triu(m, 1), 0.0)
    assert np.allclose(np.tril(m, -2), 0.0)
    alpha = GOLDEN.alpha()
    assert m[3, 3] == alpha ** 3 * (-2.0)
    assert m[4, 3] == pytest.approx(alpha ** 3, abs=1e-15)


def test_truncation_entries_bitwise_match_scipy_toeplitz():
    # the truncation is filled one diagonal at a time; the entries are the
    # ones scipy's toeplitz gave, bit for bit
    for w in (polynomial([1j, -2.5, 1, 0.3 - 0.2j]), rational([1, -0.5j], [1, 0.4])):
        for sp in (BERGMAN, space("dirichlet", p=2), space("ell1a")):
            T = build_truncation(sp, w, GOLDEN, 40)
            c = taylor_coefficients(w, 40)
            nus = monomial_norms(sp, 40)[0]
            first_row = np.zeros(40, dtype=complex)
            first_row[0] = c[0]
            apow = GOLDEN.alpha() ** np.arange(40)
            ref = toeplitz(c, first_row) * apow[None, :] * (nus[:, None] / nus[None, :])
            np.fill_diagonal(ref, apow * c[0])
            assert np.array_equal(T.entries.view(float), ref.view(float))


MODEL_SPACES = (space("hardy_banach"), BERGMAN, space("dirichlet", p=2), space("ell1a"))


@pytest.mark.parametrize("rotation", [GOLDEN, raw_radians(1.5)], ids=["golden", "radians"])
@pytest.mark.parametrize("w", [
    polynomial([1j, -2.5, 1, 0.3 - 0.2j]),
    rational([1, -0.5j], [1, 0.4]),
    taylor([2.0] + [0.6 ** k for k in range(1, 300)], 1e-12),
], ids=["poly", "rational", "taylor"])
def test_leading_block_is_the_lower_order_truncation(w, rotation):
    # verify builds one truncation and reads every lower order from it
    for sp in MODEL_SPACES:
        top = build_truncation(sp, w, rotation, 256)
        assert np.shares_memory(top.leading(256).entries, top.entries)
        for n in (1, 16, 63, 64, 200):
            block, ref = top.leading(n), build_truncation(sp, w, rotation, n)
            assert (block.order, block.norm_tag) == (ref.order, ref.norm_tag)
            assert block.entries.flags.c_contiguous
            assert block.entries.tobytes() == ref.entries.tobytes()
    with pytest.raises(OracleError):
        top.leading(257)


def test_band_storage_forms_no_dense_matrix():
    # the build fills d + 1 diagonals and a leading block cuts them: at
    # N = 1024 the dense matrix alone would take 16 MB
    w = polynomial([1, -2.5, 1])
    tracemalloc.start()
    try:
        T = build_truncation(BERGMAN, w, GOLDEN, 1024)
        block = T.leading(512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert T.bands.shape == (3, 1024) and block.bands.shape == (3, 512)
    # the scan's max|A_ij| reads every stored entry: past row n the block's are zero
    assert block.bands.tobytes() == build_truncation(BERGMAN, w, GOLDEN, 512).bands.tobytes()
    # the banded routes read the bands, never the dense matrix
    for sp in (BERGMAN, space("ell1a")):
        T = build_truncation(sp, w, GOLDEN, 256)
        assert oracle._BandedShift(T).banded
        pseudospectrum_scan(T, [1.0, 2.0, 3.0], n_angles=8)
        assert "entries" not in vars(T)


def test_truncation_validation():
    w = polynomial([-2, 1])
    with pytest.raises(OracleError):
        build_truncation(BERGMAN, w, GOLDEN, 0)
    with pytest.raises(OracleError):
        build_truncation(BERGMAN, w, GOLDEN, 8192)
    with pytest.raises(OracleError):
        build_truncation(space("bloch"), w, GOLDEN, 8)


# ----------------------------------------------------------------------
# resolvent gaps
# ----------------------------------------------------------------------


def test_scan_layout_and_determinism(monkeypatch):
    w = polynomial([-2, 1])
    T = build_truncation(BERGMAN, w, GOLDEN, 32)
    one = pseudospectrum_scan(T, [1.0, 2.0], n_angles=8)
    two = pseudospectrum_scan(T, [1.0, 2.0], n_angles=8)
    assert np.array_equal(one.gaps, two.gaps)
    assert np.array_equal(one.points, two.points)
    assert one.points.size == 16
    # radius major layout
    assert abs(one.points[0]) == pytest.approx(1.0)
    assert abs(one.points[8]) == pytest.approx(2.0)
    rows = one.rows()
    assert len(rows) == 16 and len(rows[0]) == 3
    # a banded Euclidean scan, where points after the first of a circle
    # take the shifted route from their predecessor's gap
    banded = build_truncation(BERGMAN, w, GOLDEN, 128)
    assert oracle._BandedShift(banded).banded
    shifted = _count_calls(monkeypatch, "_shifted_lanczos")
    one_b = pseudospectrum_scan(banded, [1.0, 2.5, 3.0], n_angles=8)
    # one point per batch carries the previous gap across batches
    monkeypatch.setattr(oracle, "CIRCLE_BATCH_ENTRIES", 1)
    two_b = pseudospectrum_scan(banded, [1.0, 2.5, 3.0], n_angles=8)
    assert shifted["accepted"] > 0
    assert np.array_equal(one_b.gaps, two_b.gaps)


def test_gap_smaller_on_spectrum_than_off():
    w = polynomial([-2, 1])
    T = build_truncation(BERGMAN, w, GOLDEN, 128)
    scan = pseudospectrum_scan(T, [2.0, 3.0], n_angles=4)
    on = scan.gaps[:4].max()
    off = scan.gaps[4:].min()
    assert on < off


def test_scan_validation():
    T = build_truncation(BERGMAN, polynomial([-2, 1]), GOLDEN, 8)
    with pytest.raises(OracleError):
        pseudospectrum_scan(T, [])
    with pytest.raises(OracleError):
        pseudospectrum_scan(T, [-1.0])
    with pytest.raises(OracleError):
        pseudospectrum_scan(T, [1.0], n_angles=0)


def test_sum_norm_gap_ell1a():
    T = build_truncation(space("ell1a"), polynomial([-2, 1]), GOLDEN, 32)
    scan = pseudospectrum_scan(T, [2.0, 3.0], n_angles=4)
    assert scan.gaps[:4].max() < scan.gaps[4:].min()
    # lambda = 0 with an invertible weight: the inverse is bounded
    zero_gap = pseudospectrum_scan(T, [1e-12], n_angles=1).gaps[0]
    assert zero_gap > 0.1


# the scan's banded inverse Lanczos (l^1: banded column sums) against the
# dense reference; polynomial weights of degree 1-4 and one Taylor weight
# whose truncation fills the whole band
AGREEMENT_ORDER = 128
AGREEMENT_WEIGHTS = [
    polynomial([2, 0.5]),
    polynomial([1, -2.5, 1]),
    polynomial(np.poly([0.5j, 1.5, -2.0])[::-1]),
    polynomial(np.poly([0.3 + 0.4j, -0.6, 1.2j, 2.5])[::-1]),
    taylor([2.0] + [0.6 ** k for k in range(1, AGREEMENT_ORDER)],
           0.6 ** AGREEMENT_ORDER / 0.4),
]
MODEL_SPACES = [space("hardy_banach"), BERGMAN, space("dirichlet", p=2), space("ell1a")]


def _dense_tolerance(T, lam, gap):
    a = lam * np.eye(T.order) - T.entries
    return 1e-9 * gap + 4 * T.order * np.finfo(float).eps * np.linalg.norm(a, 2)


def _floor(T, lam):
    """N eps max|A_ij| of A = lambda I - M: the gap reported inside the spectrum."""
    a = lam * np.eye(T.order) - T.entries
    return T.order * np.finfo(float).eps * np.max(np.abs(a))


def _no_dense_route(T, lam):
    raise AssertionError("the scan took the dense route")


@pytest.mark.parametrize("sp", MODEL_SPACES, ids=lambda sp: sp.variant)
def test_banded_gap_agrees_with_dense(sp, monkeypatch):
    # the full band would take the dense route, which is faster there
    monkeypatch.setattr(oracle, "BANDED_MAX_WIDTH_DIVISOR", {"euclidean": 1, "sum": 1})
    for order in (1, 2, 3, 8, 32, 48, AGREEMENT_ORDER):
        full = build_truncation(sp, AGREEMENT_WEIGHTS[-1], GOLDEN, order).entries
        assert np.count_nonzero(full) == order * (order + 1) // 2
        for w in AGREEMENT_WEIGHTS:
            T = build_truncation(sp, w, GOLDEN, order)
            base = {abs(weight_at_origin(w)), geometric_mean(w, 1.0)}
            radii = sorted({f * r for r in base for f in (0.5, 0.75, 1.0, 1.25, 1.5)})
            # with the dense route (and with it the non-converged
            # fallback) disabled, every gap below comes from the banded
            # route
            with monkeypatch.context() as m:
                m.setattr(oracle, "_gap_dense", _no_dense_route)
                scan = pseudospectrum_scan(T, radii, n_angles=4)
            assert np.all(np.isfinite(scan.gaps)) and np.all(scan.gaps >= 0.0)
            for lam, gap in zip(scan.points, scan.gaps):
                dense = _gap_dense(T, complex(lam))
                assert abs(gap - dense) <= _dense_tolerance(T, lam, dense), (sp.variant, order, w, lam)


def test_scan_route_follows_order_and_bandwidth():
    # banded at every order while the bandwidth is at most N/4 (Euclidean
    # models) or N/16 (l^1); the dense route otherwise
    def banded(sp, w, order):
        return oracle._BandedShift(build_truncation(sp, w, GOLDEN, order)).banded

    def degree(d):
        return polynomial([2.0] + [0.5] * d)

    ell1a = space("ell1a")
    for order in (8, 32, 64):
        assert banded(BERGMAN, degree(2), order) and banded(ell1a, degree(order // 16), order)
    assert banded(BERGMAN, degree(2), 128) and banded(ell1a, degree(2), 128)
    assert banded(BERGMAN, degree(32), 128) and not banded(BERGMAN, degree(33), 128)
    assert banded(ell1a, degree(8), 128) and not banded(ell1a, degree(9), 128)
    # a full band is dense at every order
    for order in (2, 8, 32, 64, AGREEMENT_ORDER):
        for sp in (BERGMAN, ell1a):
            assert not banded(sp, AGREEMENT_WEIGHTS[-1], order)


def _count_calls(monkeypatch, name):
    """Count the calls of oracle.<name> that returned a gap ("accepted")."""
    counts = {"accepted": 0}
    inner = getattr(oracle, name)

    def counted(*args):
        out = inner(*args)
        counts["accepted"] += out is not None
        return out

    monkeypatch.setattr(oracle, name, counted)
    return counts


SHIFT_WEIGHTS = [polynomial([2, 0.5]), polynomial([1, -2.5, 1])]


@pytest.mark.parametrize("order", [128, 256])
@pytest.mark.parametrize("sp", MODEL_SPACES[:3], ids=lambda sp: sp.variant)
def test_shifted_gap_agrees_with_dense(sp, order, monkeypatch):
    # circles just inside and outside the predicted radii, where the gap
    # crosses tau max|A_ij|, and one well off the spectrum
    shifted = _count_calls(monkeypatch, "_shifted_lanczos")
    sides = set()
    for w in SHIFT_WEIGHTS:
        T = build_truncation(sp, w, GOLDEN, order)
        tau = oracle._BandedShift(T).tau
        base = {abs(weight_at_origin(w)), geometric_mean(w, 1.0)}
        radii = sorted({f * r for r in base for f in (0.98, 0.995, 1.005, 1.02, 1.5)})
        with monkeypatch.context() as m:
            m.setattr(oracle, "_gap_dense", _no_dense_route)
            scan = pseudospectrum_scan(T, radii, n_angles=4)
        for lam, gap in zip(scan.points, scan.gaps):
            dense = _gap_dense(T, complex(lam))
            assert abs(gap - dense) <= _dense_tolerance(T, lam, dense), (sp.variant, w, lam)
            ratio = dense / np.max(np.abs(lam * np.eye(order) - T.entries))
            if ratio > 1e-10:
                sides.add(ratio >= tau)
    assert sides == {True, False}
    assert shifted["accepted"] > 0


def test_failed_cholesky_returns_the_unshifted_gap(monkeypatch):
    # a shift of 4 g^2 lies above lambda_min(A A^H) at every point, so
    # every banded Cholesky factorization fails and the unshifted route
    # measures the gap, bit for bit as with the shifted route switched off
    from scipy.linalg import lapack

    T = build_truncation(BERGMAN, polynomial([1, -2.5, 1]), GOLDEN, 128)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_shifted_lanczos", lambda *args: None)
        want = pseudospectrum_scan(T, [2.2, 3.0], n_angles=5).gaps
    infos = []
    factor = lapack.zpbtrf

    def recorded(*args, **kwargs):
        out = factor(*args, **kwargs)
        infos.append(out[1])
        return out

    monkeypatch.setattr(lapack, "zpbtrf", recorded)
    monkeypatch.setattr(oracle, "GRAM_SHIFT", 4.0)
    got = pseudospectrum_scan(T, [2.2, 3.0], n_angles=5).gaps
    assert len(infos) == 8 and all(info > 0 for info in infos)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("degree", range(1, 9))
def test_batched_ell1_gap_agrees_with_dense(degree, monkeypatch):
    # bandwidths 1-8 take the banded l^1 route at order 128
    w = polynomial(np.poly(0.8 + 0.9 * np.exp(2j * np.pi * np.arange(degree) / degree))[::-1])
    T = build_truncation(space("ell1a"), w, GOLDEN, AGREEMENT_ORDER)
    assert oracle._BandedShift(T).banded
    base = {abs(weight_at_origin(w)), geometric_mean(w, 1.0)}
    radii = sorted({f * r for r in base for f in (0.5, 0.9, 1.1, 1.5)})
    monkeypatch.setattr(oracle, "_gap_dense", _no_dense_route)
    scan = pseudospectrum_scan(T, radii, n_angles=5)
    # one point per batch gives the same gaps, bit for bit
    monkeypatch.setattr(oracle, "CIRCLE_BATCH_ENTRIES", 1)
    assert np.array_equal(pseudospectrum_scan(T, radii, n_angles=5).gaps, scan.gaps)
    monkeypatch.undo()
    for lam, gap in zip(scan.points, scan.gaps):
        dense = _gap_dense(T, complex(lam))
        assert abs(gap - dense) <= _dense_tolerance(T, lam, dense), (degree, lam)


def test_unconverged_lanczos_falls_back_to_dense(monkeypatch):
    T = build_truncation(BERGMAN, polynomial([2, 0.5]), GOLDEN, 128)
    monkeypatch.setattr(oracle, "LANCZOS_MAX_STEPS", 4)
    scan = pseudospectrum_scan(T, [1.0, 3.0], n_angles=3)
    for lam, gap in zip(scan.points, scan.gaps):
        assert gap == _gap_dense(T, complex(lam))


def _assert_floor(T, scan):
    for lam, gap in zip(scan.points, scan.gaps):
        assert np.isfinite(gap) and 0.0 <= gap <= _floor(T, lam)


@pytest.mark.parametrize("sp", [BERGMAN, space("ell1a")], ids=lambda sp: sp.variant)
def test_gap_on_a_diagonal_entry_reports_the_floor(sp):
    # lambda = alpha^0 w(0) = 1 makes the first diagonal entry exactly zero
    T = build_truncation(sp, polynomial([1, -2.5, 1]), GOLDEN, 64)
    scan = pseudospectrum_scan(T, [1.0], n_angles=1)
    assert scan.points[0] == T.bands[0, 0]
    _assert_floor(T, scan)


@pytest.mark.parametrize("sp", [BERGMAN, space("ell1a")], ids=lambda sp: sp.variant)
def test_gap_on_the_unit_circle_inside_the_spectrum(sp):
    # g = 2, so |lambda| = 1 lies inside the spectral disc, where the gap
    # of the truncation decays like 2^-N
    T = build_truncation(sp, polynomial([1, -2.5, 1]), GOLDEN, 256)
    _assert_floor(T, pseudospectrum_scan(T, [1.0], n_angles=7))


@pytest.mark.parametrize("route", ["banded", "dense"])
@pytest.mark.parametrize("sp", [BERGMAN, space("ell1a")], ids=lambda sp: sp.variant)
def test_gap_deep_inside_where_the_solve_overflows(sp, route, monkeypatch):
    # w = 0.001 + z has g = 1; at |lambda| = 0.01 back substitution grows
    # by about 100 per row and overflows long before row 256
    T = build_truncation(sp, polynomial([0.001, 1]), GOLDEN, 256)
    a = 0.01 * np.eye(256) - T.entries
    with np.errstate(all="ignore"):
        column = solve_triangular(a, np.eye(256)[:, 0], lower=True)
    assert not np.all(np.isfinite(column))
    if route == "dense":
        monkeypatch.setattr(oracle, "BANDED_MAX_WIDTH_DIVISOR", {"euclidean": 2 * T.order, "sum": 2 * T.order})
    assert oracle._BandedShift(T).banded == (route == "banded")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_floor(T, pseudospectrum_scan(T, [0.01], n_angles=4))


# ----------------------------------------------------------------------
# numerical rank
# ----------------------------------------------------------------------


def test_rank_drops_by_inside_zero_count():
    w = polynomial([1, -2.5, 1])   # one zero inside the disc
    r64 = truncation_rank(build_truncation(BERGMAN, w, GOLDEN, 64))
    assert r64.rank == 63
    assert not r64.indeterminate
    assert r64.kept_min == pytest.approx(0.4877, rel=1e-2)
    assert r64.dropped_max < 1e-14
    r256 = truncation_rank(build_truncation(BERGMAN, w, GOLDEN, 256))
    assert r256.rank == 255


def test_rank_full_for_invertible_weight():
    r = truncation_rank(build_truncation(BERGMAN, polynomial([-2, 1]), GOLDEN, 64))
    assert r.rank == 64
    assert not r.indeterminate


def test_rank_small_order_reads_full_with_tiny_margin():
    # at order 32 the kernel direction has not decayed below the svd
    # threshold yet, so the truncation reads as full rank; the audit
    # exposes this through a suspiciously small kept_min
    r = truncation_rank(build_truncation(BERGMAN, polynomial([1, -2.5, 1]), GOLDEN, 32))
    assert r.rank == 32
    assert r.kept_min == pytest.approx(1.276e-9, rel=1e-2)
    assert r.kept_min < 1e-6


# ----------------------------------------------------------------------
# smoothing identity
# ----------------------------------------------------------------------


def test_smoothing_identity_frozen_deviation():
    T = build_truncation(BERGMAN, polynomial([-2, 1]), GOLDEN, 32)
    dev = check_smoothing_identity(T, 0.5, 3)
    assert dev == pytest.approx(1.193e-14, abs=1e-13)
    assert dev < 1e-10


def test_smoothing_identity_accepts_plain_arrays():
    rng = np.random.default_rng(7)
    m = np.tril(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    m /= np.abs(m).sum(axis=0).max()
    dev = check_smoothing_identity(m, 0.1, 7)
    assert dev < 1e-10


def test_smoothing_identity_validation():
    T = build_truncation(BERGMAN, polynomial([-2, 1]), GOLDEN, 8)
    with pytest.raises(OracleError):
        check_smoothing_identity(T, 0.0, 3)
    with pytest.raises(OracleError):
        check_smoothing_identity(T, 1.0, 3)
    with pytest.raises(OracleError):
        check_smoothing_identity(T, 0.5, 0)


# ----------------------------------------------------------------------
# singular sequence residuals
# ----------------------------------------------------------------------


def test_residual_frozen_ladder_bergman():
    w = polynomial([-1, 1])
    frozen = {4: 0.50240, 16: 0.25661, 64: 0.12330}
    orders = {4: 418, 16: 442, 64: 538}
    last = math.inf
    for m, want in frozen.items():
        rep = singular_sequence_residual(BERGMAN, w, GOLDEN, 1.0, m, n=400)
        assert rep.residual == pytest.approx(want, abs=5e-5)
        assert rep.truncation == orders[m]
        assert rep.m == m and rep.n == 400
        assert abs(abs(rep.witness) - 1.0) < 1e-12
        assert rep.margin > 0.0
        assert rep.residual < last
        last = rep.residual
    # the decay follows the 2 / sqrt(m) smoothing window estimate
    assert frozen[64] == pytest.approx(2.0 / math.sqrt(64) * 0.4932, rel=1e-3)


def test_residual_decay_rate_shape():
    rep4 = singular_sequence_residual(BERGMAN, polynomial([-1, 1]), GOLDEN, 1.0, 4, n=200)
    rep16 = singular_sequence_residual(BERGMAN, polynomial([-1, 1]), GOLDEN, 1.0, 16, n=200)
    assert rep16.residual < 0.62 * rep4.residual


def test_residual_error_paths():
    w = polynomial([-1, 1])
    with pytest.raises(OracleError):
        singular_sequence_residual(BERGMAN, w, GOLDEN, 1.0, 1)      # m too small
    with pytest.raises(OracleError):
        singular_sequence_residual(BERGMAN, w, GOLDEN, 0.0, 4)      # lambda zero
    with pytest.raises(OracleError):
        singular_sequence_residual(BERGMAN, w, GOLDEN, 0.3, 4)      # certified out
    with pytest.raises(OracleError):
        singular_sequence_residual(BERGMAN, rational([-1, 1], [1, 0.5]), GOLDEN, 1.0, 4)


# ----------------------------------------------------------------------
# norm ladders for the peaked polynomials
# ----------------------------------------------------------------------


def test_bergman_qm_norm_matches_exact_sum():
    """The closed form against the monomial sum pi 4^{-s} sum_k C(s,k)^2 / (k+1)
    in exact rational arithmetic."""
    for s in (0, 1, 2, 3, 10, 99, 500, 1000, 2000):
        lcm = math.lcm(*range(1, s + 2))
        total = sum(math.comb(s, k) ** 2 * (lcm // (k + 1)) for k in range(s + 1))
        exact = Fraction(total, lcm * 4 ** s)
        # the Vandermonde identity the closed form rests on
        assert exact == Fraction(math.comb(2 * s + 1, s), (s + 1) * 4 ** s)
        assert oracle._bergman_qm_norm_pow(s) == pytest.approx(
            math.pi * float(exact), rel=1e-13, abs=0.0
        )


def test_bloch_qm_norm_matches_radial_grid_maximum():
    """|q_m(0)| + max (1-r^2) (m/2) ((1+r)/2)^{m-1} over a fine radial grid."""
    r = np.linspace(0.0, 1.0, 1_000_001)
    for m in range(0, 51):
        profile = (1.0 - r * r) * (m / 2.0) * ((1.0 + r) / 2.0) ** max(m - 1, 0)
        brute = 2.0 ** -m + float(profile.max())
        closed = oracle._bloch_qm_norm(m)
        assert brute <= closed * (1.0 + 1e-14)
        assert closed == pytest.approx(brute, rel=1e-9, abs=0.0)


def test_bergman_qm_ladder_frozen():
    ladder = norm_asymptotics(BERGMAN, 1000)
    ms = [m for m, _ in ladder]
    assert ms == [10, 30, 100, 300, 1000]
    vals = dict(ladder)
    assert vals[100] == pytest.approx(3.488072, abs=1e-5)
    assert vals[300] == pytest.approx(3.525792, abs=1e-5)
    assert vals[1000] == pytest.approx(3.539155, abs=1e-5)


def test_bloch_qm_ladder_frozen():
    ladder = norm_asymptotics(space("bloch"), 1000)
    vals = dict(ladder)
    assert vals[100] == pytest.approx(73.210141, abs=1e-4)
    assert vals[300] == pytest.approx(220.360499, abs=1e-4)
    assert vals[1000] == pytest.approx(735.391217, abs=1e-4)
    # m * ||q_m|| approaches 2 m / e, not 4 m / e
    assert vals[1000] / 1000.0 == pytest.approx(2.0 / math.e, rel=2e-3)


def test_norm_asymptotics_validation():
    with pytest.raises(OracleError):
        norm_asymptotics(BERGMAN, 1)
    with pytest.raises(OracleError):
        norm_asymptotics(BERGMAN, 10 ** 6)
    with pytest.raises(OracleError):
        norm_asymptotics(space("hinf"), 100)


# ----------------------------------------------------------------------
# Bloch norm
# ----------------------------------------------------------------------


def test_bloch_norm_known_values():
    # constant: derivative term vanishes
    assert bloch_norm(np.array([2.5 + 0j])) == pytest.approx(2.5, abs=1e-12)
    # z: max (1 - r^2) at r = 0 gives 1
    assert bloch_norm(np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)
    # 1/2 + z/2
    assert bloch_norm(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-9)
    # z^2: max 2r(1 - r^2) at r = 1/sqrt(3) gives 4 / (3 sqrt(3))
    assert bloch_norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(
        4.0 / (3.0 * math.sqrt(3.0)), abs=1e-7
    )


def test_bloch_norm_refinement_tightens():
    coeffs = np.array([0.0, 0.0, 0.0, 1.0 + 0j])
    coarse = bloch_norm(coeffs, base_grid=16, refine=0)
    fine = bloch_norm(coeffs, base_grid=16, refine=2)
    # 3 r^2 (1 - r^2) peaks at r = 1/sqrt(2) with value 3/4
    assert fine >= coarse - 1e-15
    assert fine == pytest.approx(0.75, abs=1e-6)


def _direct_base_grid(d, rs, n):
    """Reference for ``oracle._bloch_base_grid``: Horner at every grid point."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    z = rs[:, None] * np.exp(1j * thetas)[None, :]
    return (1.0 - rs[:, None] ** 2) * np.abs(np.polynomial.polynomial.polyval(z, d))


@pytest.mark.parametrize("n", [1, 16, 256])
def test_bloch_folded_base_grid_matches_horner(n):
    rng = np.random.default_rng(n)
    rs = np.linspace(0.0, 1.0, n, endpoint=False)
    for length in (n - 1, n, n + 1, 3 * n + 5):
        if length < 1:
            continue
        d = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        ref = _direct_base_grid(d, rs, n)
        got = oracle._bloch_base_grid(d, rs, n)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def test_bloch_norm_pinned_values():
    # floats of the all-Horner grid, which the folded FFT grid reproduces
    # bit for bit on complex data
    rng = np.random.default_rng(2022)
    small = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    decaying = (rng.standard_normal(700) + 1j * rng.standard_normal(700)) / np.arange(1, 701)
    # the peaked ((z + k)/2)^400 of the residual construction, times
    # ((1 + z)/2)^200 so that its 601 coefficients span three folds of 256
    k = np.exp(0.7j)
    peaked = np.convolve(
        oracle._poly_pow(np.array([k / 2.0, 0.5]), 400),
        oracle._poly_pow(np.array([0.5, 0.5]), 200),
    )
    assert bloch_norm(small) == 16.201526288571422
    assert bloch_norm(decaying) == 1.4138767274173318
    assert bloch_norm(peaked) == 0.0001973837097281359


def test_bloch_norm_horner_only_in_refinement(monkeypatch):
    sizes = []
    polyval = np.polynomial.polynomial.polyval

    def recorded(x, c, *args, **kwargs):
        sizes.append(np.size(x))
        return polyval(x, c, *args, **kwargs)

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", recorded)
    rng = np.random.default_rng(3)
    bloch_norm(rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
    assert sizes == [33 * 33, 33 * 33]


def test_bloch_norm_memory_at_the_largest_window():
    rng = np.random.default_rng(5)
    n = oracle.MAX_RESIDUAL_WINDOW
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.arange(1, n + 1) ** 2
    tracemalloc.start()
    try:
        value = bloch_norm(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 16 * 2 ** 20


def test_bloch_norm_validation():
    with pytest.raises(OracleError):
        bloch_norm(np.array([0.0, 1.0]), base_grid=0)
    with pytest.raises(OracleError):
        bloch_norm(np.array([0.0, 1.0]), refine=-1)
