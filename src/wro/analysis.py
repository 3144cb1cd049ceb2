"""One variable function analysis: zeros, means, invertibility.

Everything the classifier needs to know about a weight w on the closed
unit disc reduces to three questions:

* where are the zeros of w (inside the disc, on the circle, outside),
* what is the geometric boundary mean g = exp((1/2pi) int ln|w(e^it)| dt),
* in which algebras is w invertible.

For Polynomial and Rational representations all three are answered
exactly through root finding and the Jensen product formula.  Taylor
representations can still certify boundary invertibility (grid minimum
minus the declared tail bound) and then count interior zeros through the
argument principle; BoundarySamples weights mostly answer "unknown".

The analysis is one variable: a torus polynomial in a single variable is
collapsed first (``TorusPolynomial.axis_polynomial``), and the zero,
invertibility and factorization questions refuse any other torus weight.

Tri-state answers are the strings "yes", "no", "unknown".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .weights import (
    BoundarySamples,
    Polynomial,
    Rational,
    Taylor,
    TorusPolynomial,
    TOL_ZERO,
    Weight,
    _trim,
    boundary_values,
)


class AnalysisError(ValueError):
    """Raised when a question has no certified answer for the given data."""


class AmbiguousZeroError(AnalysisError):
    """Raised when a zero lies too near the unit circle to say on which
    side of it (or on it) the zero sits."""


class ConvergenceError(RuntimeError):
    """Raised when a numerical routine fails to reach its tolerance."""


#: two roots closer than this are treated as one zero with multiplicity
CLUSTER_TOL = 1e-7

#: margin demanded of certified invertibility (grid minima, tail gaps)
TOL_INV = 1e-8

#: quadrature grids double until the mean moves less than this (relative)
QUAD_TOL = 1e-10

_QUAD_GRID_MAX = 1 << 20

YES, NO, UNKNOWN = "yes", "no", "unknown"


# ----------------------------------------------------------------------
# root finding
# ----------------------------------------------------------------------


def _polished_roots(coeffs) -> np.ndarray:
    """Roots of an ascending coefficient list, companion matrix plus one
    Newton step.

    A step longer than max(1, |root|) is rejected: a near zero
    derivative at a multiple root would otherwise throw the root
    arbitrarily far (even to overflow)."""
    c = np.asarray(_trim(coeffs), dtype=complex)
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    roots = np.asarray(np.roots(c[::-1]), dtype=complex)
    dc = npoly.polyder(c)
    pv = npoly.polyval(roots, c)
    dv = npoly.polyval(roots, dc)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = pv / dv
    ok = np.abs(step) <= np.maximum(1.0, np.abs(roots))
    roots[ok] = roots[ok] - step[ok]
    return roots


def _cluster(roots: np.ndarray):
    """Group nearby roots into (location, multiplicity) pairs.

    Zeros of the input separated by less than CLUSTER_TOL merge into one
    cluster whose location is the mean; this is how multiplicities are
    recovered from the slightly scattered eigenvalues of the companion
    matrix.
    """
    if roots.size == 0:
        return []
    order = np.lexsort((roots.imag.round(12), roots.real.round(12)))
    used = np.zeros(roots.size, dtype=bool)
    out = []
    for i in order:
        if used[i]:
            continue
        group = np.abs(roots - roots[i]) <= CLUSTER_TOL
        group &= ~used
        used |= group
        out.append((complex(roots[group].mean()), int(group.sum())))
    out.sort(key=lambda zm: (round(zm[0].real, 9), round(zm[0].imag, 9)))
    return out


def _zero_clusters(coeffs) -> tuple:
    """The one clustering (``_cluster`` of ``_polished_roots``) that every
    zero question about a closed form weight reads, memoised on the bytes
    of the trimmed coefficients, so a signed zero is its own key."""
    return _clusters_by_bytes(np.asarray(_trim(coeffs), dtype=complex).tobytes())


@functools.lru_cache(maxsize=64)  # bounded for long running library callers
def _clusters_by_bytes(key: bytes) -> tuple:
    return tuple(_cluster(_polished_roots(np.frombuffer(key, dtype=complex))))


def _rep_fractions(w: Weight) -> Tuple[tuple, tuple]:
    """(numerator coeffs, denominator coeffs) of a closed form weight."""
    rep = w.rep
    if isinstance(rep, Polynomial):
        return rep.coeffs, (1.0 + 0j,)
    if isinstance(rep, Rational):
        return rep.num, rep.den
    raise AnalysisError("exact zero data needs a polynomial or rational weight")


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of w in the closed unit disc.

    ``total_inside`` counts the zeros inside with multiplicity.  When
    ``count_only`` is set the individual locations are unknown and that
    count is an argument principle winding number; ``certified`` records
    whether it is rigorous.
    """

    inside: tuple = ()
    boundary: tuple = ()
    count_only: bool = False
    total_inside: Optional[int] = None
    certified: bool = True

    @property
    def has_boundary_zero(self) -> bool:
        return bool(self.boundary)


def _split_circle(pairs):
    """The clustered zeros inside and on the unit circle (the rest lie
    outside), rejecting the ambiguous band around it."""
    inside, boundary = [], []
    for z, m in pairs:
        d = abs(abs(z) - 1.0)
        if d < TOL_ZERO:
            boundary.append((z, m))
        elif d < CLUSTER_TOL:
            raise AmbiguousZeroError(
                "ambiguous boundary zero at %r (within %g of the circle "
                "but not certifiably on it)" % (z, CLUSTER_TOL)
            )
        elif abs(z) < 1.0:
            inside.append((z, m))
    return tuple(inside), tuple(boundary)


def _winding_count(vals: np.ndarray) -> int:
    """Winding number of a sampled loop around the origin."""
    phases = np.angle(vals)
    dphi = np.diff(np.concatenate([phases, phases[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    total = float(dphi.sum()) / (2.0 * np.pi)
    count = int(round(total))
    if abs(total - count) > 0.1:
        raise ConvergenceError("winding number did not stabilize (%.3f)" % total)
    return count


def find_zeros(w: Weight) -> ZeroSet:
    """Locate the zeros of w in the closed unit disc.

    Polynomial and Rational weights get exact locations with clustered
    multiplicities.  Taylor weights whose boundary invertibility is
    certified get a rigorous interior count (locations unknown);
    BoundarySamples weights get a heuristic count from the sampled loop.
    """
    rep = w.rep
    if isinstance(rep, (Polynomial, Rational)):
        inside, boundary = _split_circle(_zero_clusters(_rep_fractions(w)[0]))
        return ZeroSet(inside, boundary, total_inside=sum(m for _, m in inside))
    if isinstance(rep, Taylor):
        vals = boundary_values(w, 4096)
        lo = float(np.min(np.abs(vals)))
        # "not >": a NaN grid minimum certifies nothing
        if not (lo - rep.tail_bound > TOL_INV):
            raise AnalysisError(
                "boundary invertibility not certified (grid minimum %.3g, "
                "tail bound %.3g); zero count unavailable" % (lo, rep.tail_bound)
            )
        return ZeroSet(count_only=True, total_inside=_winding_count(vals), certified=True)
    if isinstance(rep, BoundarySamples):
        vals = np.asarray(rep.values, dtype=complex)
        if float(np.min(np.abs(vals))) <= TOL_INV:
            raise AnalysisError("sampled loop passes too close to the origin to count zeros")
        return ZeroSet(count_only=True, total_inside=_winding_count(vals), certified=False)
    raise AnalysisError("zero analysis is one variable only")


# ----------------------------------------------------------------------
# geometric means
# ----------------------------------------------------------------------


def _jensen_product(coeffs, r: float) -> float:
    """exp of the circle mean of ln|p(r e^it)| via the factorization of p:
    |lead| * prod max(r, |root|).

    Multiple roots scatter symmetrically under the companion matrix, so
    the product runs over cluster means rather than raw roots; this
    recovers nearly full precision for repeated zeros.
    """
    out = abs(complex(_trim(coeffs)[-1]))
    for z, m in _zero_clusters(coeffs):
        out *= max(r, abs(z)) ** m
    return float(out)


def _quadrature_log_mean(values_at, grid_max: int) -> float:
    """Circle (or torus) mean of ln|w| by trapezoid sums on doubling grids.

    ``values_at(G)`` returns the samples on the G point grid (per axis),
    for G = 64, 128, ... up to ``grid_max``.  Periodic trapezoid sums
    converge geometrically for weights with no zeros near the sample
    circle; failure to converge (or a zero hit) raises.
    """
    grid = 64
    prev = None
    while grid <= grid_max:
        vals = np.abs(values_at(grid))
        if not np.all(vals > 0.0):
            raise ConvergenceError("weight vanishes on the sample circle")
        mean = float(np.mean(np.log(vals)))
        if not math.isfinite(mean):
            raise ConvergenceError("log mean overflowed on the sample circle")
        if prev is not None and abs(mean - prev) <= QUAD_TOL * max(1.0, abs(mean)):
            return mean
        prev = mean
        grid *= 2
    raise ConvergenceError("quadrature did not converge (weight nearly vanishes on the circle?)")


def geometric_mean(w: Weight, r: float = 1.0, method: str = "auto") -> float:
    """exp((1/2pi) int ln|w(r e^it)| dt).

    ``method`` is "auto", "closed_form" (Jensen product, exact, closed
    form representations only) or "quadrature" (doubling trapezoid
    sums).  The two routes are kept independent so they can be compared
    as a cross check.
    """
    if r <= 0.0:
        raise AnalysisError("radius must be positive")
    if isinstance(w.rep, TorusPolynomial):
        raise AnalysisError("torus weights use the group rotation radius instead")
    if method not in ("auto", "closed_form", "quadrature"):
        raise AnalysisError("unknown method %r" % method)
    if method == "auto":
        method = "closed_form" if isinstance(w.rep, (Polynomial, Rational)) else "quadrature"
    if method == "closed_form":
        num, den = _rep_fractions(w)
        return _jensen_product(num, r) / _jensen_product(den, r)
    if isinstance(w.rep, BoundarySamples):
        # sampled data cannot be refined, so the mean is the plain
        # trapezoid sum over the stored grid
        if r != 1.0:
            raise AnalysisError("sampled weights only provide boundary data")
        vals = np.abs(np.asarray(w.rep.values, dtype=complex))
        if not np.all(vals > 0.0):
            raise ConvergenceError("weight vanishes on the sample circle")
        return math.exp(float(np.mean(np.log(vals))))
    return math.exp(_quadrature_log_mean(lambda g: boundary_values(w, g, r), _QUAD_GRID_MAX))


# ----------------------------------------------------------------------
# invertibility and factorization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InvertibilityProfile:
    """Tri-state invertibility of w in the algebras the classifier cares
    about.

    analytic        the disc algebra A(U) (continuous on the closed disc)
    boundary        C(T), continuous functions on the circle
    ell1            absolutely convergent Taylor series on the disc
    hinf_boundary   essential invertibility of the boundary function in L^inf
    """

    analytic: str
    boundary: str
    ell1: str
    hinf_boundary: str


def invertibility_profile(w: Weight) -> InvertibilityProfile:
    rep = w.rep
    if isinstance(rep, BoundarySamples):
        vals = np.abs(np.asarray(rep.values, dtype=complex))
        if float(vals.min()) < TOL_ZERO:
            # a sample is an exact value, so the function genuinely hits
            # zero on the circle; essential invertibility stays unknown
            # because a single point carries no measure
            return InvertibilityProfile(NO, NO, NO, UNKNOWN)
        return InvertibilityProfile(UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN)
    try:
        zs = find_zeros(w)
    except AnalysisError:
        if not isinstance(rep, Taylor):
            raise
        # boundary invertibility of the series is not certified
        return InvertibilityProfile(UNKNOWN, UNKNOWN, UNKNOWN, UNKNOWN)
    # poles sit outside the closed disc and certified series are summable,
    # so invertibility in the series algebra is exactly zero freeness of
    # the closed disc
    boundary = NO if zs.boundary else YES
    analytic = NO if (zs.total_inside or zs.boundary) else YES
    return InvertibilityProfile(analytic, boundary, analytic, boundary)


@dataclass(frozen=True)
class FactorizationSummary:
    """Inner/outer structure of w as far as it can be certified.

    ``outer_value_mod`` is the geometric boundary mean g, which equals
    the modulus of the outer factor at the origin.  ``blaschke_finite``
    and ``singular_part_present`` are None when the data cannot decide.
    """

    zeros_inside: tuple
    zeros_boundary: tuple
    zero_count_inside: Optional[int]
    count_only: bool
    blaschke_finite: Optional[bool]
    outer_value_mod: float
    singular_part_present: Optional[bool]


def factorization_summary(w: Weight) -> FactorizationSummary:
    rep = w.rep
    if isinstance(rep, (Polynomial, Rational)):
        zs = find_zeros(w)
        return FactorizationSummary(
            zeros_inside=zs.inside,
            zeros_boundary=zs.boundary,
            zero_count_inside=zs.total_inside,
            count_only=False,
            blaschke_finite=True,
            outer_value_mod=geometric_mean(w, 1.0),
            singular_part_present=False,
        )
    if not isinstance(rep, (Taylor, BoundarySamples)):
        raise AnalysisError("factorization is one variable only")
    count = None
    if isinstance(rep, Taylor):
        try:
            count = find_zeros(w).total_inside
        except AnalysisError:
            pass
    # a count means certified boundary invertibility: w is continuous on
    # the closed disc (summable coefficients) and zero free on the circle,
    # so it has finitely many zeros and no singular inner factor (a
    # singular factor forces radial limits of modulus zero somewhere on the
    # circle, contradicting |w| > 0 there).  Without one (an uncertified
    # series, sampled data) neither is decided
    certified = count is not None
    return FactorizationSummary(
        zeros_inside=(),
        zeros_boundary=(),
        zero_count_inside=count,
        count_only=True,
        blaschke_finite=True if certified else None,
        outer_value_mod=geometric_mean(w, 1.0),
        singular_part_present=False if certified else None,
    )
