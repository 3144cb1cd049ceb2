"""One variable function analysis: zeros, means, invertibility.

Everything the classifier needs to know about a weight w on the closed
unit disc reduces to a few facts, which ``factorization_summary``
gathers into one ``WeightFacts`` record:

* the geometric boundary mean g = exp((1/2pi) int ln|w(e^it)| dt),
* the number of zeros inside the disc, with multiplicity, when certified,
* whether w vanishes on the unit circle ("yes", "no", or "unknown" when
  it may),
* for sampled weights the sampled sup, and for series the l1 bound.

For Polynomial and Rational representations the zeros are located
exactly through root finding and g follows from the Jensen product
formula.  Taylor representations can still certify boundary
invertibility and then count interior zeros through the argument
principle: the certificate is the grid minimum of the partial sum p,
minus the declared tail bound, minus (pi/M) sum k |c_k| (a bound on
|p'| times half the step of the M point grid).  BoundarySamples weights
mostly answer "unknown".  ``invertibility_profile`` reads the record,
and ``zero_near_circles`` answers the annulus boundary question from the
same clustering of the zeros.

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

#: finest grid the series boundary certificate refines to
_CERT_GRID_MAX = 1 << 16

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


def _series_winding(w: Weight):
    """(count, grid minimum, grid step term) of a Taylor weight w = p + t.

    Within pi/M of a grid point z_j, |p| >= |p(z_j)| - (pi/M) sum k |c_k|
    and |t| <= tail_bound, so a positive ``lo - tail_bound - step`` keeps
    w zero free on the circle and each step of the sampled loop turns by
    less than pi: the winding number is then the certified count.  The
    grid doubles up to _CERT_GRID_MAX while the minimum alone still
    clears the tail (a finer grid only lowers it); count None: refused."""
    rep = w.rep
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite slope certifies nothing
        slope = float(np.sum(np.arange(len(rep.coeffs)) * np.abs(np.asarray(rep.coeffs))))
    grid = 4096
    while True:
        vals = boundary_values(w, grid)
        lo = float(np.min(np.abs(vals)))
        step = math.pi / grid * slope
        # "not >": a NaN grid minimum certifies nothing
        if lo - rep.tail_bound - step > TOL_INV:
            return _winding_count(vals), lo, step
        if not (lo - rep.tail_bound > TOL_INV) or grid >= _CERT_GRID_MAX:
            return None, lo, step
        grid *= 2


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
        count, lo, step = _series_winding(w)
        if count is None:
            raise AnalysisError(
                "boundary invertibility not certified (grid minimum %.3g, tail bound "
                "%.3g, grid step term %.3g); zero count unavailable" % (lo, rep.tail_bound, step)
            )
        return ZeroSet(count_only=True, total_inside=count, certified=True)
    if isinstance(rep, BoundarySamples):
        vals = np.asarray(rep.values, dtype=complex)
        if float(np.min(np.abs(vals))) <= TOL_INV:
            raise AnalysisError("sampled loop passes too close to the origin to count zeros")
        return ZeroSet(count_only=True, total_inside=_winding_count(vals), certified=False)
    raise AnalysisError("zero analysis is one variable only")


def zero_near_circles(w: Weight, radii) -> bool:
    """Whether a clustered zero of the closed form w lies within
    CLUSTER_TOL of a circle |z| = r, r in ``radii``."""
    clusters = _zero_clusters(_rep_fractions(w)[0])
    return any(abs(abs(z) - r) <= CLUSTER_TOL for z, _ in clusters for r in radii)


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
class WeightFacts:
    """What the data certify about a one variable weight w: all that the
    classifier's disc families read of its zeros and means.

    ``on_circle`` is "yes" when w vanishes on the circle, "no" when it
    certifiably does not, and "unknown" when it may (a zero in the
    ambiguous band, an uncertified series, samples that do not touch
    zero).  Optional fields are None when the data cannot decide them or
    the representation lacks them.
    """

    g: Optional[float]  # boundary geometric mean; None when w is zero at a sample point
    on_circle: str
    zero_count_inside: Optional[int]  # with multiplicity
    count_only: bool  # zero locations unknown (series and sampled weights)
    sample_sup: Optional[float] = None  # max |w| over the samples
    ell1_bound: Optional[float] = None  # sum |c_k| plus the tail bound of a series
    blaschke_finite: Optional[bool] = None
    singular_part_present: Optional[bool] = None


def factorization_summary(w: Weight) -> WeightFacts:
    """The facts record of w; g is ``geometric_mean(w, 1.0)``, so it is
    the modulus of the outer factor at the origin.  g is None when w is
    zero at a point the mean samples: an exact zero sample, or a zero of
    a series on the quadrature grid (closed forms raise there)."""
    rep = w.rep
    if isinstance(rep, BoundarySamples):
        vals = np.abs(np.asarray(rep.values, dtype=complex))
        # a sample is an exact value, so the function genuinely hits zero
        touches = float(vals.min()) < TOL_ZERO
        return WeightFacts(
            g=None if touches else geometric_mean(w, 1.0),
            on_circle=YES if touches else UNKNOWN,
            zero_count_inside=None,
            count_only=True,
            sample_sup=float(vals.max()),
        )
    if not isinstance(rep, (Polynomial, Rational, Taylor)):
        raise AnalysisError("factorization is one variable only")
    series = isinstance(rep, Taylor)
    try:
        zs = find_zeros(w)
    except AnalysisError:  # a zero in the ambiguous band, or an uncertified series
        zs = None
    # closed forms are rational; a certified series is continuous on the
    # closed disc (summable coefficients) and zero free on the circle, so
    # it has finitely many zeros and no singular inner factor (a singular
    # factor forces radial limits of modulus zero somewhere on the circle)
    decided = zs is not None or not series
    try:
        g = geometric_mean(w, 1.0)  # before the l1 sum, which can overflow
    except ConvergenceError:
        if not series:
            raise
        g = None  # a zero of the series on the quadrature grid
    l1 = float(np.sum(np.abs(np.asarray(rep.coeffs)))) + rep.tail_bound if series else None
    return WeightFacts(
        g=g,
        on_circle=UNKNOWN if zs is None else (YES if zs.boundary else NO),
        zero_count_inside=None if zs is None else zs.total_inside,
        count_only=series,
        ell1_bound=l1,
        blaschke_finite=True if decided else None,
        singular_part_present=False if decided else None,
    )


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
    facts = factorization_summary(w)
    boundary = {YES: NO, NO: YES}.get(facts.on_circle, UNKNOWN)
    # poles sit outside the closed disc and certified series are summable,
    # so invertibility in the series algebra is exactly zero freeness of
    # the closed disc; a zero free circle comes with a certified count
    analytic = NO if (boundary == NO or facts.zero_count_inside) else boundary
    # a zero sample is a single point, which carries no measure
    hinf = UNKNOWN if facts.sample_sup is not None else boundary
    return InvertibilityProfile(analytic, boundary, analytic, hinf)
