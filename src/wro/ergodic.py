"""Orbit products, membership scans, and rotation radii.

The spectral data of T = w U on rotation invariant spaces is governed by
the cocycle of the weight along rotation orbits,

    w_n(k) = w(k) w(alpha k) ... w(alpha^{n-1} k),   w_0 = 1.

This module computes those products (in the log domain, with -inf for
exact zeros), runs the two sided membership scan that certifies whether
a circle |lambda| = const meets the approximate point spectrum, and
evaluates the rotation radius of the weight: the group rotation maximum
formula for periodic rotations (a grid maximum refined by one parabolic
step), and the factored product formula for polynomial weights.  Only
the periodic route is independent of the boundary geometric mean: under
a non periodic rotation the unique invariant measure makes the group
rotation radius that mean, and ``group_rotation_radius`` returns
``geometric_mean(w, 1.0)`` itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (
    AnalysisError,
    _polished_roots,
    _quadrature_log_mean,
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
    _require_grid,
    evaluate,
)


# kept by this name only because bench/spans.py traces it to count circles
def ordered_parallel_map(fn: Callable, items: Sequence) -> list:
    """Map fn over items in order, one after the other."""
    return [fn(x) for x in items]


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


#: orbit cells (rows x points) held at once by the streamed orbit sums; a
#: block's few complex temporaries then stay in a core's L2 cache (on a
#: Xeon with 2 MB of L2 per core, blocks of 2^15 cells ran the default
#: scan about half as fast)
_BLOCK_CELLS = 1 << 13


def _orbit_log_blocks(w: Weight, alpha: complex, pts: np.ndarray, n_max: int, backward: bool):
    """Cumulative ln|w| along the orbits of the points ``pts``, in blocks.

    Yields ``(lo, sums)`` for consecutive row blocks covering n = 1 ..
    n_max; row i of ``sums`` holds ln|w_n(k)| (forward) or
    ln|w_n(alpha^{-n} k)| (backward) at n = lo + 1 + i for each point k.
    Each block holds about _BLOCK_CELLS cells and at least one row; the
    running sum of the previous block is carried into the first row, and
    rows add in cumsum order (row by row below 32 rows, where a cumsum
    along axis 0 is slower: 59 us against 2 us for 2 x 4096 on a Xeon),
    so every row equals that of one whole-array cumsum bit for bit.
    """
    rows = max(1, _BLOCK_CELLS // pts.size)
    carry = None
    for lo in range(0, n_max, rows):
        hi = min(lo + rows, n_max)
        powers = alpha ** (-np.arange(lo + 1, hi + 1) if backward else np.arange(lo, hi))
        sums = _log_abs(evaluate(w, powers[:, None] * pts[None, :]))
        if carry is not None:
            sums[0] += carry
        if sums.shape[0] < 32:
            for i in range(1, sums.shape[0]):
                np.add(sums[i - 1], sums[i], out=sums[i])
        else:
            np.cumsum(sums, axis=0, out=sums)
        carry = sums[-1]
        yield lo, sums


def orbit_products(w: Weight, rotation, point: complex, n_max: int) -> OrbitProduct:
    angle = _scan_angle(rotation)
    _orbit_evaluable(w)
    if n_max < 1:
        raise AnalysisError("n_max must be positive")
    k = complex(point)
    alpha = angle.alpha()

    def log_sums(backward):
        blocks = _orbit_log_blocks(w, alpha, np.array([k]), n_max, backward)
        return np.concatenate([[0.0]] + [sums[:, 0] for _, sums in blocks])

    return OrbitProduct(point=k, forward=log_sums(False), backward=log_sums(True))


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


def _membership_margins(w: Weight, alpha: complex, lam_abs: float, n_max: int, grid: int,
                        odd: bool = False):
    """Margin of every grid point (of every odd one when ``odd``), streamed
    over the orbit in row blocks."""
    idx = np.arange(1, grid, 2) if odd else np.arange(grid)
    pts = np.exp(2j * np.pi * idx / grid)
    log_lam = math.log(lam_abs)
    margins = []
    for backward in (False, True):
        acc = np.full(pts.size, np.inf)
        for lo, sums in _orbit_log_blocks(w, alpha, pts, n_max, backward):
            lam_n = np.arange(lo + 1, lo + 1 + sums.shape[0])[:, None] * log_lam
            np.minimum(acc, ((lam_n - sums) if backward else (sums - lam_n)).min(axis=0), out=acc)
        margins.append(acc)
    return pts, np.minimum(*margins)


# residual-decay repeats a horizon for several m; arguments and verdict are frozen
@functools.lru_cache(maxsize=8)
def ap_membership(
    w: Weight,
    rotation,
    lam_abs: float,
    n_max: int = 200,
    grid: int = 4096,
) -> MembershipVerdict:
    """Scan the circle for a witness that |lambda| = lam_abs meets the
    approximate point spectrum.

    A point whose margin clears -tol, tol = n_max * 1e-3, certifies
    membership.  When no point clears it, the scan repeats on the
    doubled grid (which contains the original, so an "in" verdict cannot
    flip); a persistent failure certifies "out", while a flip to "in" on
    refinement is reported as "inconclusive", since the coarse grid was
    evidently too coarse to trust.
    """
    angle = _scan_angle(rotation)
    _orbit_evaluable(w)
    _require_grid(grid)
    if not (lam_abs > 0.0) or not math.isfinite(lam_abs):
        raise AnalysisError("lam_abs must be a positive finite number")
    if n_max < 1:
        raise AnalysisError("n_max must be positive")
    tol = n_max * 1e-3
    alpha = angle.alpha()

    pts, margins = _membership_margins(w, alpha, lam_abs, n_max, grid)
    j = int(np.argmax(margins))
    best = float(margins[j])
    if best >= -tol:
        return MembershipVerdict("certified_in", complex(pts[j]), best, grid, n_max, tol)

    # the doubled grid's even points are bit for bit the grid just scanned
    # (2 pi i (2j)/(2g) rounds as 2 pi i j/g), and a point's margin does not
    # depend on the grid around it: scan the odd points and interleave
    odd_pts, odd_margins = _membership_margins(w, alpha, lam_abs, n_max, 2 * grid, odd=True)
    pts2 = np.stack([pts, odd_pts], axis=1).ravel()
    margins2 = np.stack([margins, odd_margins], axis=1).ravel()
    j2 = int(np.argmax(margins2))
    best2 = float(margins2[j2])
    if best2 >= -tol:
        return MembershipVerdict("inconclusive", complex(pts2[j2]), best2, 2 * grid, n_max, tol)
    return MembershipVerdict("certified_out", None, best2, 2 * grid, n_max, tol)


# ----------------------------------------------------------------------
# rotation radii, three routes
# ----------------------------------------------------------------------


def _periodic_radius(w: Weight, angle: RotationAngle) -> float:
    """max_t (prod_{j<q} |w(alpha^j t)|)^{1/q} for alpha = exp(2 pi i p/q).

    The orbit mean of ln|w| has period 2 pi/q in the angle, so it is
    sampled at 2 pi k/n for k = -1 .. ceil(n/q), one period and a
    neighbour on each side, n = max(2^14, 2^11 q).  Both the best of the
    grid means inside the period and the mean at the vertex of the parabola
    through it and its two neighbours (O(h^4) off the maximum, h = 2 pi/n)
    are samples, so the larger is kept.
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
    n = max(1 << 14, q << 11)
    ts = np.exp(2j * np.pi * np.arange(-1, -(-n // q) + 1) / n)
    for _, sums in _orbit_log_blocks(w, alpha, ts, q, backward=False):
        pass  # the last row is ln|w_q(t)|, q times the orbit mean
    means = sums[-1] / q
    j = 1 + int(np.argmax(means[1:-1]))
    best = float(means[j])
    f_minus, f_plus = float(means[j - 1]), float(means[j + 1])
    curv = f_minus - 2.0 * best + f_plus
    if math.isfinite(curv) and curv < 0.0:  # vertex within half a cell; -inf: an exact zero
        theta = 2.0 * math.pi * (j - 1 + 0.5 * (f_minus - f_plus) / curv) / n
        z = complex(math.cos(theta), math.sin(theta))
        best = max(best, float(np.mean(_log_abs(evaluate(w, z * alpha ** np.arange(q))))))
    return math.exp(best)


def _torus_log_mean(w: Weight) -> float:
    """Tensor trapezoid mean of ln|w| over the torus, doubling all axes."""
    n = w.rep.dim
    if n > 3:
        raise AnalysisError("tensor quadrature supports at most 3 variables")

    def values_at(grid):
        axis = np.exp(2j * np.pi * np.arange(grid) / grid)
        return evaluate(w, *(axis.reshape([grid if j == i else 1 for j in range(n)]) for i in range(n)))

    return _quadrature_log_mean(values_at, {2: 1 << 11, 3: 1 << 7}[n])


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
                return math.exp(_torus_log_mean(w))
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
    and are rejected.  This route finds its own raw companion roots, not
    the shared clustering of ``analysis``, so that it stays an independent
    reference for the closed form mean.
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
