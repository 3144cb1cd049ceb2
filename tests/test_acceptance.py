"""Acceptance battery.

Each test pins one end to end guarantee of the package at a stated
tolerance and time budget and prints as a single pass or fail line under
pytest -v.  The tenth check exercises determinism across thread counts;
the sixth checks the Bloch peaked-norm constant 2/e against its closed
form.
"""

import json
import math
import time

import numpy as np
import pytest

from wro import (
    ap_membership,
    build_truncation,
    check_smoothing_identity,
    circle,
    classify,
    closed_disc,
    geometric_mean,
    group_rotation_radius,
    named_rotation,
    norm_asymptotics,
    open_disc,
    point_spectrum_candidates,
    polynomial,
    polynomial_radius_cases,
    root_of_unity,
    singular_sequence_residual,
)
from wro.cli import main
from wro.weights import space

GOLDEN = named_rotation("golden")
BERGMAN = space("bergman", p=2)


def _random_weight_corpus(seed, count, max_degree=6, min_circle_distance=1e-3):
    """Random polynomial weights built from roots kept away from the
    unit circle, so every radius route is defined on each of them."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        deg = int(rng.integers(1, max_degree + 1))
        roots = []
        while len(roots) < deg:
            r = rng.uniform(0.05, 2.2)
            if abs(r - 1.0) < min_circle_distance:
                continue
            roots.append(r * np.exp(2j * np.pi * rng.uniform()))
        lead = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.uniform())
        coeffs = np.polynomial.polynomial.polyfromroots(roots) * lead
        out.append(polynomial(np.atleast_1d(coeffs).tolist()))
    return out


def test_criterion_01_jensen_agreement():
    t0 = time.perf_counter()
    for w in _random_weight_corpus(seed=101, count=200):
        quad = geometric_mean(w, 1.0, method="quadrature")
        closed = geometric_mean(w, 1.0, method="closed_form")
        assert abs(quad - closed) <= 1e-10 * max(closed, 1e-300)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_three_way_radius_agreement():
    t0 = time.perf_counter()
    for w in _random_weight_corpus(seed=101, count=200):
        mean = geometric_mean(w, 1.0)
        ergodic = group_rotation_radius(w, GOLDEN)
        cases = polynomial_radius_cases(w)
        ref = max(mean, 1e-300)
        assert abs(ergodic - mean) <= 1e-8 * ref
        assert abs(cases - mean) <= 1e-8 * ref
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_cube_root_radius():
    t0 = time.perf_counter()
    got = group_rotation_radius(polynomial([-2, 1]), root_of_unity(1, 3))
    assert abs(got - 9.0 ** (1.0 / 3.0)) < 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_bergman_trichotomy_end_to_end(tmp_path):
    t0 = time.perf_counter()

    # exact classification of the three representative weights
    rep1 = classify(BERGMAN, polynomial([-2, 1]), GOLDEN)
    assert rep1.sets["sigma"].set == circle(2.0)
    assert rep1.sets["sigma_r"].set.is_empty
    assert rep1.index_map == ()

    rep2 = classify(BERGMAN, polynomial([1, -2.5, 1]), GOLDEN)
    assert rep2.sets["sigma"].set == closed_disc(2.0)
    assert rep2.sets["sigma_ap"].set == circle(2.0)
    assert rep2.sets["sigma_r"].set == open_disc(2.0)
    assert len(rep2.index_map) == 1 and rep2.index_map[0].index == -1

    rep3 = classify(BERGMAN, polynomial([-1, 1]), GOLDEN)
    assert rep3.sets["sigma"].set == closed_disc(1.0)
    assert rep3.sets["sigma_ap"].set == closed_disc(1.0)
    assert rep3.sets["sigma_r"].set.is_empty

    # independent numerical battery for each weight
    for tag, coeffs in (("c1", [-2, 1]), ("c2", [1, -2.5, 1]), ("c3", [-1, 1])):
        job = tmp_path / ("%s.json" % tag)
        job.write_text(json.dumps({
            "space": {"variant": "bergman", "p": 2},
            "weight": {"type": "poly", "coeffs": coeffs},
            "rotation": {"kind": "named", "name": "golden"},
            "params": {"truncation": 64},
        }), encoding="utf-8")
        out = tmp_path / ("%s_ledger.json" % tag)
        assert main(["verify", "--job", str(job), "--out", str(out)]) == 0
        ledger = json.loads(out.read_text())
        assert ledger["passed"] is True
        checks = {c["name"]: c for c in ledger["checks"]}
        trend = checks["pseudospectrum-trend"]
        assert trend["status"] == "passed"
        assert trend["data"]["orders"] == [64, 128, 256]
        on = trend["data"]["on_circle_gaps"]
        assert on[2] < on[1] < on[0]
        off = trend["data"]["off_gaps"]
        assert off[-1] >= 0.5 * off[0]
        if tag == "c2":
            rank = checks["truncation-rank"]
            assert rank["status"] == "passed"
            assert rank["data"]["order"] == 64
            assert rank["data"]["rank"] == 63

    assert time.perf_counter() - t0 < 120.0


def test_criterion_05_smoothing_identity_random_truncations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    for _ in range(50):
        order = int(rng.integers(8, 65))
        deg = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        # normalize to coefficient sum one so the operator norm stays at
        # most one and rounding in the long power sums cannot pile up
        coeffs /= np.sum(np.abs(coeffs))
        sp = BERGMAN if order % 2 == 0 else space("hardy_banach")
        T = build_truncation(sp, polynomial(coeffs.tolist()), GOLDEN, order)
        for eps in (0.1, 0.5, 0.9):
            for n in (1, 3, 7):
                assert check_smoothing_identity(T, eps, n) < 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_norm_asymptotics():
    t0 = time.perf_counter()

    # Bergman scaling m^{3/2} ||q_m||^2 settles within the ladder
    ladder = dict(norm_asymptotics(BERGMAN, 10_000))
    drift = abs(ladder[10_000] / ladder[3_000] - 1.0)
    assert drift < 0.02

    bloch = dict(norm_asymptotics(space("bloch"), 10_000))
    top = bloch[10_000]
    assert time.perf_counter() - t0 < 60.0
    # q_m' = (m/2) ((1+z)/2)^{m-1}; (1-r^2) |q_m'(r)| peaks at r* = (m-1)/(m+1),
    # so ||q_m||_B = 2^{-m} + 2 (m/(m+1))^{m+1}, which tends to 2/e
    m = 10_000
    closed_form = m * (2.0 ** -m + 2.0 * (m / (m + 1)) ** (m + 1))
    assert abs(top / closed_form - 1.0) < 1e-9
    assert abs(top / m / (2.0 / math.e) - 1.0) < 0.01


def test_criterion_07_membership_scan_matches_classifier():
    t0 = time.perf_counter()
    w = polynomial([1, -2.5, 1])
    v = ap_membership(w, GOLDEN, 2.0, n_max=200, grid=4096)
    assert v.verdict == "certified_in"
    for lam in (1.2, 1.5, 2.5):
        v = ap_membership(w, GOLDEN, lam, n_max=200, grid=4096)
        assert v.verdict == "certified_out"
    rep = classify(BERGMAN, w, GOLDEN)
    assert rep.sets["sigma_ap"].set == circle(2.0)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_point_spectrum_candidate_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    alpha = GOLDEN.alpha()
    order = 24
    powers = alpha ** np.arange(order)
    for _ in range(100):
        deg = int(rng.integers(1, 6))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(coeffs[0]) < 1e-6:
            coeffs[0] = 1.0
        w = polynomial(coeffs.tolist())
        T = build_truncation(BERGMAN, w, GOLDEN, order)
        assert np.array_equal(T.bands[0], powers * coeffs[0])
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        coeffs = np.concatenate(([0.0], rng.standard_normal(deg) + 0j))
        if np.all(np.abs(coeffs) < 1e-12):
            coeffs[-1] = 1.0
        w = polynomial(coeffs.tolist())
        assert point_spectrum_candidates(w, GOLDEN) == ()
        T = build_truncation(BERGMAN, w, GOLDEN, order)
        assert np.all(T.bands[0] == 0.0)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_09_residual_decay_on_unit_circle():
    t0 = time.perf_counter()
    w = polynomial([-1, 1])
    residuals = [
        singular_sequence_residual(BERGMAN, w, GOLDEN, 1.0, m).residual
        for m in (4, 16, 64)
    ]
    assert residuals[2] < residuals[1] < residuals[0]
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_determinism_across_threads(tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [1, -2.5, 1]},
        "rotation": {"kind": "named", "name": "golden"},
    }), encoding="utf-8")
    blobs = {}
    for run in ("a", "b"):
        report = tmp_path / ("report_%s.json" % run)
        svg = tmp_path / ("plot_%s.svg" % run)
        assert main(["classify", "--job", str(job), "--out", str(report)]) == 0
        assert main(["plot", "--input", str(report), "--out", str(svg)]) == 0
        blobs[(run, "report")] = report.read_bytes()
        blobs[(run, "svg")] = svg.read_bytes()
    for kind in ("report", "svg"):
        assert blobs[("b", kind)] == blobs[("a", kind)]
