"""Orbit products, membership scans, and rotation radii.

The spectral data of T = w U on rotation invariant spaces is governed by
the cocycle of the weight along rotation orbits,

    w_n(k) = w(k) w(alpha k) ... w(alpha^{n-1} k),   w_0 = 1.

This module computes those products (in the log domain, with -inf for
exact zeros), runs the two sided membership scan that certifies whether
a circle |lambda| = const meets the approximate point spectrum, and
evaluates the rotation radius of the weight by three independent
routes: the boundary geometric mean, the group rotation maximum formula
for periodic rotations, and the factored product formula for polynomial
weights.  The routes are deliberately kept separate so they can be
cross checked against each other.

Scans that iterate over many independent grid points or matrix sizes
run through ``ordered_parallel_map``, a thread pool whose width is
capped by the WRO_THREADS environment variable and whose reduction
preserves input order, so results are deterministic for a fixed input
no matter how many workers run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (
    AnalysisError,
    ConvergenceError,
    _polished_roots,
    geometric_mean,
)
from .weights import (
    BoundarySamples,
    Polynomial,
    Rational,
    RotationAngle,
    RotationVector,
    Taylor,
    TorusPolynomial,
    TOL_ZERO,
    Weight,
    WeightError,
    _require_grid,
    evaluate,
)

# ----------------------------------------------------------------------
# deterministic parallelism
# ----------------------------------------------------------------------


def thread_count() -> int:
    """Worker cap for scans; WRO_THREADS overrides the default."""
    raw = os.environ.get("WRO_THREADS")
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise WeightError("WRO_THREADS must be a positive integer, got %r" % raw)
    if n < 1:
        raise WeightError("WRO_THREADS must be a positive integer, got %r" % raw)
    return n


def ordered_parallel_map(fn: Callable, items: Sequence) -> list:
    """Map fn over items, possibly on a thread pool, preserving order.

    The reduction is a plain ordered gather, so the output is identical
    to ``[fn(x) for x in items]`` regardless of the worker count.
    """
    items = list(items)
    workers = thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# admissibility helpers
# ----------------------------------------------------------------------


def _scan_angle(rotation) -> RotationAngle:
    if isinstance(rotation, RotationVector):
        raise AnalysisError("orbit scans are one variable; got a rotation vector")
    if rotation.periodic:
        raise AnalysisError("orbit scans need a non periodic rotation")
    if not rotation.certified_nonperiodic:
        raise AnalysisError(
            "raw radian rotations must set assumed_nonperiodic to be scanned"
        )
    return rotation


def _orbit_evaluable(w: Weight) -> Weight:
    if isinstance(w.rep, (Polynomial, Rational, Taylor)):
        return w
    raise AnalysisError("orbit scans need a weight evaluable off the sample grid")


def _log_abs(vals: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


# ----------------------------------------------------------------------
# orbit products
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitProduct:
    """Cocycle log moduli along the orbit of a point.

    forward[n]  = ln |w_n(k)|                    (n = 0 .. n_max)
    backward[n] = ln |w_n(alpha^{-n} k)|         (n = 0 .. n_max)

    Both start at 0 (w_0 = 1); exact zeros give -inf from that index on.
    """

    point: complex
    forward: np.ndarray
    backward: np.ndarray

    @property
    def n_max(self) -> int:
        return self.forward.size - 1


def orbit_products(w: Weight, rotation, point: complex, n_max: int) -> OrbitProduct:
    angle = _scan_angle(rotation)
    _orbit_evaluable(w)
    if n_max < 1:
        raise AnalysisError("n_max must be positive")
    alpha = angle.alpha()
    k = complex(point)
    steps = alpha ** np.arange(n_max)
    fwd_vals = _log_abs(evaluate(w, k * steps))
    bwd_vals = _log_abs(evaluate(w, k * alpha ** (-np.arange(1, n_max + 1))))
    forward = np.concatenate([[0.0], np.cumsum(fwd_vals)])
    backward = np.concatenate([[0.0], np.cumsum(bwd_vals)])
    return OrbitProduct(point=k, forward=forward, backward=backward)


# ----------------------------------------------------------------------
# approximate point membership
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the two sided orbit scan at |lambda| = lam_abs.

    verdict is "certified_in", "certified_out" or "inconclusive".  A
    certified_in verdict carries the witness point with the best margin,

        margin(k) = min( min_n ln|w_n(k)| - n ln lam,
                         min_n n ln lam - ln|w_n(alpha^{-n} k)| ),

    which is >= -tol exactly when the forward products stay large and
    the backward products stay small along the whole horizon.
    """

    verdict: str
    witness: Optional[complex]
    margin: float
    grid: int
    n_max: int
    tol: float

    @property
    def certified_in(self) -> bool:
        return self.verdict == "certified_in"


def _membership_margins(w: Weight, alpha: complex, lam_abs: float, n_max: int, grid: int):
    """Margin of every grid point, vectorized over the whole grid."""
    pts = np.exp(2j * np.pi * np.arange(grid) / grid)
    log_lam = math.log(lam_abs)
    ns = np.arange(1, n_max + 1)

    fwd_orbit = (alpha ** np.arange(n_max))[:, None] * pts[None, :]
    fwd = np.cumsum(_log_abs(evaluate(w, fwd_orbit)), axis=0)
    fwd -= ns[:, None] * log_lam
    margin_fwd = fwd.min(axis=0)

    bwd_orbit = (alpha ** (-np.arange(1, n_max + 1)))[:, None] * pts[None, :]
    bwd = np.cumsum(_log_abs(evaluate(w, bwd_orbit)), axis=0)
    bwd = ns[:, None] * log_lam - bwd
    margin_bwd = bwd.min(axis=0)

    return pts, np.minimum(margin_fwd, margin_bwd)


def ap_membership(
    w: Weight,
    rotation,
    lam_abs: float,
    n_max: int = 200,
    grid: int = 4096,
    tol: Optional[float] = None,
) -> MembershipVerdict:
    """Scan the circle for a witness that |lambda| = lam_abs meets the
    approximate point spectrum.

    A point whose margin clears -tol certifies membership.  When no
    point clears it, the scan repeats on the doubled grid (which
    contains the original, so an "in" verdict cannot flip); a persistent
    failure certifies "out", while a flip to "in" on refinement is
    reported as "inconclusive", since the coarse grid was evidently too
    coarse to trust.
    """
    angle = _scan_angle(rotation)
    _orbit_evaluable(w)
    _require_grid(grid)
    if not (lam_abs > 0.0) or not math.isfinite(lam_abs):
        raise AnalysisError("lam_abs must be a positive finite number")
    if n_max < 1:
        raise AnalysisError("n_max must be positive")
    if tol is None:
        tol = n_max * 1e-3
    alpha = angle.alpha()

    pts, margins = _membership_margins(w, alpha, lam_abs, n_max, grid)
    j = int(np.argmax(margins))
    best = float(margins[j])
    if best >= -tol:
        return MembershipVerdict("certified_in", complex(pts[j]), best, grid, n_max, tol)

    pts2, margins2 = _membership_margins(w, alpha, lam_abs, n_max, 2 * grid)
    j2 = int(np.argmax(margins2))
    best2 = float(margins2[j2])
    if best2 >= -tol:
        return MembershipVerdict("inconclusive", complex(pts2[j2]), best2, 2 * grid, n_max, tol)
    return MembershipVerdict("certified_out", None, best2, 2 * grid, n_max, tol)


# ----------------------------------------------------------------------
# rotation radii, three routes
# ----------------------------------------------------------------------


def _periodic_radius(w: Weight, angle: RotationAngle, grid: int = 1 << 14) -> float:
    """max_t (prod_{j<q} |w(alpha^j t)|)^{1/q} for alpha = exp(2 pi i p/q).

    The orbit average of ln|w| is continuous in t, so a dense grid
    maximum polished by a bounded one dimensional search is reliable.
    """
    q = angle.q
    alpha = angle.alpha()
    if isinstance(w.rep, BoundarySamples):
        vals = np.asarray(w.rep.values, dtype=complex)
        g = vals.size
        shift_num = g * angle.p
        if shift_num % q:
            raise AnalysisError(
                "sampled weight grid is incompatible with a rotation of order %d" % q
            )
        shift = (shift_num // q) % g
        acc = np.zeros(g)
        for j in range(q):
            acc += _log_abs(np.roll(vals, -j * shift))
        return math.exp(float(acc.max()) / q)

    _orbit_evaluable(w)
    ts = np.exp(2j * np.pi * np.arange(grid) / grid)
    orbit = (alpha ** np.arange(q))[:, None] * ts[None, :]
    means = _log_abs(evaluate(w, orbit)).mean(axis=0)
    j = int(np.argmax(means))
    theta0 = 2.0 * math.pi * j / grid
    span = 2.0 * math.pi / grid

    def neg_mean(theta: float) -> float:
        z = complex(math.cos(theta), math.sin(theta))
        orbit_vals = evaluate(w, z * alpha ** np.arange(q))
        with np.errstate(divide="ignore"):
            return -float(np.mean(np.log(np.abs(orbit_vals))))

    from scipy import optimize

    res = optimize.minimize_scalar(
        neg_mean, bounds=(theta0 - span, theta0 + span), method="bounded",
        options={"xatol": 1e-12},
    )
    best = max(float(means[j]), -float(res.fun))
    return math.exp(best)


def _torus_log_mean(rep: TorusPolynomial, tol: float = 1e-10) -> float:
    """Tensor trapezoid mean of ln|w| over the torus, doubling all axes."""
    n = rep.dim
    if n > 3:
        raise AnalysisError("tensor quadrature supports at most 3 variables")
    grid_cap = {2: 1 << 11, 3: 1 << 7}[n]
    grid = 64
    prev = None
    while grid <= grid_cap:
        axis = np.exp(2j * np.pi * np.arange(grid) / grid)
        acc = np.zeros((grid,) * n, dtype=complex)
        for exp, coeff in rep.terms:
            term = np.full((1,) * n, coeff, dtype=complex)
            for i, e in enumerate(exp):
                if e:
                    shape = [1] * n
                    shape[i] = grid
                    term = term * (axis ** e).reshape(shape)
            acc = acc + term
        mags = np.abs(acc)
        if not np.all(mags > 0.0):
            raise ConvergenceError("weight vanishes on the sample torus")
        mean = float(np.mean(np.log(mags)))
        if prev is not None and abs(mean - prev) <= tol * max(1.0, abs(mean)):
            return mean
        prev = mean
        grid *= 2
    raise ConvergenceError("torus quadrature did not converge")


def group_rotation_radius(w: Weight, rotation) -> float:
    """Spectral radius route through the rotation group.

    Periodic rotations use the maximum of the finite orbit product;
    non periodic rotations (certified) use the boundary geometric mean,
    which the unique invariant measure of the rotation forces; rotation
    vectors with a declared empty relation lattice use the full torus
    mean.  Nonempty relation lattices are out of scope.
    """
    if isinstance(rotation, RotationVector):
        if rotation.relations:
            raise AnalysisError("nonempty relation lattices are not supported")
        if isinstance(w.rep, TorusPolynomial):
            wa = w.rep.axis_polynomial()
            if wa is None:
                return math.exp(_torus_log_mean(w.rep))
            w = wa
        # a weight in one variable: the torus mean collapses to the circle
        # mean of that variable
        return geometric_mean(w, 1.0)
    if rotation.periodic:
        return _periodic_radius(w, rotation)
    if not rotation.certified_nonperiodic:
        raise AnalysisError(
            "raw radian rotations must set assumed_nonperiodic to pick the ergodic route"
        )
    return geometric_mean(w, 1.0)


def polynomial_radius_cases(w: Weight) -> float:
    """Factored product route for polynomial weights.

    Writing w = lead * prod (z - c_k), the radius is
    |lead| * prod max(1, |c_k|): zeros inside the disc contribute the
    coordinate radius 1, zeros outside contribute their own modulus.
    Zeros within TOL_ZERO of the circle make the case split ill posed
    and are rejected.
    """
    if not isinstance(w.rep, Polynomial):
        raise AnalysisError("the factored radius route needs a polynomial weight")
    coeffs = np.asarray(w.rep.coeffs, dtype=complex)
    lead = abs(complex(coeffs[-1]))
    roots = _polished_roots(coeffs)
    if roots.size == 0:
        return lead
    mags = np.abs(roots)
    if np.any(np.abs(mags - 1.0) <= TOL_ZERO):
        raise AnalysisError("a zero lies within tolerance of the unit circle")
    return lead * float(np.prod(np.maximum(1.0, mags)))
