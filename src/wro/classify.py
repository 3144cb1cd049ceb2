"""Spectral classification of weighted rotation operators.

``classify`` maps (space, weight, rotation) to a ``SpectrumReport``
holding eight rotation invariant sets:

    sigma     the spectrum
    sigma_ap  the approximate point spectrum
    sigma_r   sigma minus sigma_ap
    sigma_1   .. sigma_5, the nested essential spectra (kernel/range
              perturbation classes ordered sigma_1 through sigma_5)

Every reported set is a finite union of circles, discs, and annuli
centered at the origin (rotation invariance forces this shape), and
every set carries a status:

    Exact    the set is the stated one
    Bounds   the truth contains ``lower`` and lies inside ``upper``
    Unknown  the data cannot pin the set down

plus a citation naming the classification rule that produced it.  The
rule identifiers are stable strings documented in the README; the case
number in parentheses is the branch of the rule that fired.

The driving dichotomy for a weight w continuous on the closed disc:

    (1) w invertible on the closed disc: every set is the circle
        |lambda| = |w(0)|.
    (2) w invertible on the circle but with zeros inside the disc: the
        approximate point spectrum is the circle |lambda| = g (the
        boundary geometric mean), the rest of the disc |lambda| < g is
        residual spectrum with constant Fredholm index, and the full
        spectrum is the closed disc.
    (3) w with zeros on the circle: every set is the closed disc of
        radius g.

Weights given only through finite data (Taylor leads with a tail bound,
boundary samples) degrade to Bounds or Unknown statuses instead of
guessing the branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import ergodic
from .analysis import (
    UNKNOWN,
    YES,
    factorization_summary,
    geometric_mean,
    zero_near_circles,
)
from .weights import (
    RotationVector,
    SpaceSpec,
    TorusPolynomial,
    Weight,
    rotation_payload,
    space_payload,
    weight_at_origin,
    weight_payload,
)


class ClassifyError(ValueError):
    """Raised when the inputs fall outside every classification rule."""


class InconsistentReportError(ClassifyError):
    """Raised when a finished report fails its own consistency audit: a
    fault of the classifier, not of the inputs."""


#: circles closer than this (relative) merge into one reported circle
CIRCLE_MERGE_TOL = 1e-9

#: radii closer than this count as equal when testing set inclusion
CONTAINS_TOL = 1e-12


# ----------------------------------------------------------------------
# circular sets
# ----------------------------------------------------------------------

_KINDS = ("origin", "circle", "open_disc", "closed_disc", "open_annulus", "closed_annulus")


@dataclass(frozen=True)
class Component:
    """One rotation invariant piece: a circle, disc, or annulus."""

    kind: str
    r: float = 0.0       # circle / disc radius
    r_in: float = 0.0    # annulus inner radius
    r_out: float = 0.0   # annulus outer radius

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ClassifyError("unknown component kind %r" % self.kind)
        if self.kind in ("circle", "open_disc", "closed_disc") and not self.r > 0.0:
            raise ClassifyError("%s needs a positive radius" % self.kind)
        if self.kind in ("open_annulus", "closed_annulus") and not (0.0 < self.r_in < self.r_out):
            raise ClassifyError("annulus needs 0 < r_in < r_out")

    def radial_interval(self) -> Tuple[float, float, bool, bool]:
        """(lo, hi, lo_open, hi_open) of the component's radii."""
        if self.kind == "origin":
            return (0.0, 0.0, False, False)
        if self.kind == "circle":
            return (self.r, self.r, False, False)
        if self.kind == "open_disc":
            return (0.0, self.r, False, True)
        if self.kind == "closed_disc":
            return (0.0, self.r, False, False)
        if self.kind == "open_annulus":
            return (self.r_in, self.r_out, True, True)
        return (self.r_in, self.r_out, False, False)


@dataclass(frozen=True)
class CircularSet:
    """A finite union of rotation invariant components."""

    components: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.components

    def outer_radius(self) -> float:
        if self.is_empty:
            return 0.0
        return max(c.radial_interval()[1] for c in self.components)

    def contains(self, other: "CircularSet") -> bool:
        """Whether ``other`` is a subset, by radial interval covering."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        merged = _merge_intervals([c.radial_interval() for c in self.components])
        for comp in other.components:
            lo, hi, lo_open, hi_open = comp.radial_interval()
            ok = False
            for mlo, mhi, mlo_open, mhi_open in merged:
                lo_fits = mlo < lo - CONTAINS_TOL or (
                    abs(mlo - lo) <= CONTAINS_TOL and (not mlo_open or lo_open)
                )
                hi_fits = mhi > hi + CONTAINS_TOL or (
                    abs(mhi - hi) <= CONTAINS_TOL and (not mhi_open or hi_open)
                )
                if lo_fits and hi_fits:
                    ok = True
                    break
            if not ok:
                return False
        return True


def _merge_intervals(ivals):
    # closed endpoints sort before open ones so ties keep the closed side
    ivals = sorted(ivals, key=lambda t: (t[0], t[2], t[1]))
    merged = []
    for lo, hi, lo_open, hi_open in ivals:
        if merged:
            mlo, mhi, mlo_open, mhi_open = merged[-1]
            touches = lo <= mhi + CONTAINS_TOL
            open_gap = abs(lo - mhi) <= CONTAINS_TOL and lo_open and mhi_open
            if touches and not open_gap:
                if hi > mhi + CONTAINS_TOL:
                    new_hi, new_open = hi, hi_open
                elif abs(hi - mhi) <= CONTAINS_TOL:
                    new_hi, new_open = mhi, (hi_open and mhi_open)
                else:
                    new_hi, new_open = mhi, mhi_open
                merged[-1] = (mlo, new_hi, mlo_open, new_open)
                continue
        merged.append((lo, hi, lo_open, hi_open))
    return merged


def empty_set() -> CircularSet:
    return CircularSet(())


def circle(r: float) -> CircularSet:
    return CircularSet((Component("circle", r=float(r)),))


def open_disc(r: float) -> CircularSet:
    return CircularSet((Component("open_disc", r=float(r)),))


def closed_disc(r: float) -> CircularSet:
    return CircularSet((Component("closed_disc", r=float(r)),))


def open_annulus(r_in: float, r_out: float) -> CircularSet:
    return CircularSet((Component("open_annulus", r_in=float(r_in), r_out=float(r_out)),))


def closed_annulus(r_in: float, r_out: float) -> CircularSet:
    return CircularSet((Component("closed_annulus", r_in=float(r_in), r_out=float(r_out)),))


def origin_set() -> CircularSet:
    return CircularSet((Component("origin"),))


# ----------------------------------------------------------------------
# statuses and reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Status:
    """Exactness of a reported set."""

    kind: str  # "exact" | "bounds" | "unknown"
    lower: Optional[CircularSet] = None
    upper: Optional[CircularSet] = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "bounds", "unknown"):
            raise ClassifyError("unknown status kind %r" % self.kind)
        if self.kind == "bounds" and (self.lower is None or self.upper is None):
            raise ClassifyError("bounds status needs lower and upper sets")


EXACT = Status("exact")
UNKNOWN_STATUS = Status("unknown")


def bounds(lower: CircularSet, upper: CircularSet) -> Status:
    return Status("bounds", lower=lower, upper=upper)


@dataclass(frozen=True)
class SetReport:
    """One reported spectral set.

    For Exact statuses ``set`` is the set itself; for Bounds it is the
    upper envelope (the outer estimate); for Unknown it is empty.
    """

    set: CircularSet
    status: Status
    citation: str


@dataclass(frozen=True)
class IndexEntry:
    """Fredholm index on one component of the residual set."""

    component: Component
    index: Optional[int] = None
    minus_infinity: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    sets: Dict[str, SetReport]
    index_map: tuple = ()
    open_flags: tuple = ()
    citations: tuple = ()
    inputs_echo: Optional[dict] = None

    def has_unknown(self) -> bool:
        return any(sr.status.kind == "unknown" for sr in self.sets.values())


#: fixed key order of the eight reported sets
REPORT_KEYS = (
    "sigma",
    "sigma_ap",
    "sigma_r",
    "sigma_1",
    "sigma_2",
    "sigma_3",
    "sigma_4",
    "sigma_5",
)

#: open problem flags a report may carry (documented in the README)
FLAG_AP_BOUNDARY = "open-question:ap-boundary-membership"
FLAG_BEYOND_LIPSCHITZ = "open-question:radius-beyond-lipschitz"
FLAG_INNER_ANNULUS_INDEX = "open-question:inner-annulus-index"


def report_consistency(report: SpectrumReport) -> list:
    """Structural invariants every report must satisfy; returns a list of
    violation strings (empty when consistent)."""
    problems = []
    if set(report.sets) != set(REPORT_KEYS):
        problems.append("report keys are %s" % sorted(report.sets))
        return problems
    exact = {
        k: sr.set for k, sr in report.sets.items() if sr.status.kind == "exact"
    }
    chain = ("sigma_1", "sigma_2", "sigma_3", "sigma_4", "sigma_5", "sigma")
    for a, b in zip(chain, chain[1:]):
        if a in exact and b in exact and not exact[b].contains(exact[a]):
            problems.append("%s is not contained in %s" % (a, b))
    if "sigma_ap" in exact and "sigma" in exact and not exact["sigma"].contains(exact["sigma_ap"]):
        problems.append("sigma_ap is not contained in sigma")
    if "sigma_r" in exact and "sigma" in exact and not exact["sigma"].contains(exact["sigma_r"]):
        problems.append("sigma_r is not contained in sigma")
    for key, sr in report.sets.items():
        if sr.status.kind == "bounds":
            if not sr.status.upper.contains(sr.status.lower):
                problems.append("%s bounds are not nested" % key)
            if sr.set != sr.status.upper:
                problems.append("%s display set is not the upper bound" % key)
        if sr.status.kind == "unknown" and not sr.set.is_empty:
            problems.append("%s is unknown but nonempty" % key)
    residual_components = set()
    if "sigma_r" in exact:
        residual_components = set(exact["sigma_r"].components)
    for entry in report.index_map:
        if residual_components and entry.component not in residual_components:
            problems.append("index entry on a component outside sigma_r")
        if entry.index is None and not entry.minus_infinity:
            problems.append("index entry carries no value")
    return problems


# ----------------------------------------------------------------------
# rule tables
# ----------------------------------------------------------------------

_TRICHOTOMY_RULE = {
    "disc_algebra": "uniform-algebra-trichotomy",
    "smooth_cna": "uniform-algebra-trichotomy",
    "bergman": "bergman-trichotomy",
    "bloch": "bloch-trichotomy",
    "dirichlet": "dirichlet-trichotomy",
    "hinf": "hinf-trichotomy",
    "hardy_banach": "hinf-trichotomy",
    "sobolev_wna": "hinf-trichotomy",
    "polydisc_algebra": "polydisc-algebra-cases",
    "polydisc_bergman": "polydisc-bergman-cases",
}

_REDUCTION_RULE = {
    "smooth_cna": "smooth-boundary-reduction",
    "hardy_banach": "hardy-banach-transfer",
    "sobolev_wna": "sobolev-hardy-reduction",
}

_REQUIRED_TAGS = {
    "disc_algebra": ("disc_algebra",),
    "smooth_cna": ("disc_algebra",),
    "bergman": ("disc_algebra",),
    "bloch": ("disc_algebra", "multiplier_Bloch"),
    "dirichlet": ("disc_algebra", "multiplier_Dirichlet"),
    "hinf": ("H_inf",),
    "hardy_banach": ("H_inf",),
    "sobolev_wna": ("H_inf",),
    "ell1a": ("ell1A",),
    "annulus_hardy": ("H_inf",),
    "polydisc_algebra": (),
    "polydisc_bergman": (),
}

#: sup-norm spaces: sampled weights say nothing of the essential boundary
#: behaviour between the samples
_SUPNORM_FAMILY = ("hinf", "hardy_banach", "sobolev_wna")


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------


def _check_rotation(sp: SpaceSpec, rotation) -> None:
    if sp.polydisc:
        if not isinstance(rotation, RotationVector):
            raise ClassifyError("polydisc spaces need a rotation vector")
        if rotation.dim != sp.dim:
            raise ClassifyError(
                "rotation vector has %d components, space has dim %d"
                % (rotation.dim, sp.dim)
            )
        if rotation.relations:
            raise ClassifyError("nonempty relation lattices are not supported")
        return
    if isinstance(rotation, RotationVector):
        raise ClassifyError("one variable spaces need a single rotation angle")
    if rotation.periodic:
        raise ClassifyError("classification requires a non periodic rotation")
    if not rotation.certified_nonperiodic:
        raise ClassifyError(
            "raw radian rotations must declare assumed_nonperiodic for classification"
        )


def _check_tags(sp: SpaceSpec, w: Weight) -> None:
    for tag in _REQUIRED_TAGS[sp.variant]:
        if not w.has_tag(tag):
            raise ClassifyError(
                "missing regularity tag %r required by space %r" % (tag, sp.variant)
            )


# ----------------------------------------------------------------------
# report assembly helpers
# ----------------------------------------------------------------------


def _sandwich(citation: str, g: float) -> Dict[str, SetReport]:
    """The sound two sided estimate available whenever only the boundary
    mean g is known: each set contains the circle |lambda| = g and lies
    in the closed disc of radius g (the residual part lies in the open
    disc)."""
    lo, hi = circle(g), closed_disc(g)
    out = {}
    for key in REPORT_KEYS:
        if key == "sigma_r":
            out[key] = SetReport(open_disc(g), bounds(empty_set(), open_disc(g)), citation)
        else:
            out[key] = SetReport(hi, bounds(lo, hi), citation)
    return out


def _all_exact(citation: str, s: CircularSet) -> Dict[str, SetReport]:
    """Every set equals s exactly; the residual set is empty."""
    return {
        key: SetReport(empty_set() if key == "sigma_r" else s, EXACT, citation)
        for key in REPORT_KEYS
    }


def _all_unknown(citation: str) -> Dict[str, SetReport]:
    return {key: SetReport(empty_set(), UNKNOWN_STATUS, citation) for key in REPORT_KEYS}


def _residual_disc(citation: str, g: float) -> Dict[str, SetReport]:
    """Branch (2): circle of invertibility outside, residual disc inside."""
    ap = circle(g)
    return {
        "sigma": SetReport(closed_disc(g), EXACT, citation),
        "sigma_ap": SetReport(ap, EXACT, citation),
        "sigma_r": SetReport(open_disc(g), EXACT, citation),
        "sigma_1": SetReport(ap, EXACT, citation),
        "sigma_2": SetReport(ap, EXACT, citation),
        "sigma_3": SetReport(ap, EXACT, citation),
        "sigma_4": SetReport(closed_disc(g), EXACT, citation),
        "sigma_5": SetReport(closed_disc(g), EXACT, citation),
    }


def _finish(
    sets: Dict[str, SetReport],
    index_map=(),
    open_flags=(),
    extra_rules=(),
) -> SpectrumReport:
    ordered = {k: sets[k] for k in REPORT_KEYS}
    cites = []
    for rule in ("rotation-circles",) + tuple(extra_rules):
        if rule not in cites:
            cites.append(rule)
    for sr in ordered.values():
        if sr.citation not in cites:
            cites.append(sr.citation)
    report = SpectrumReport(
        sets=ordered,
        index_map=tuple(index_map),
        open_flags=tuple(open_flags),
        citations=tuple(cites),
    )
    problems = report_consistency(report)
    if problems:
        raise InconsistentReportError("internal: inconsistent report: %s" % "; ".join(problems))
    return report


def _zero_free(rule: str, w: Weight, extra_rules=()) -> SpectrumReport:
    """Branch (1), no zero in the closed disc: every set is the circle
    |lambda| = |w(0)|."""
    r0 = abs(weight_at_origin(w))
    return _finish(_all_exact("%s(1)" % rule, circle(r0)), extra_rules=extra_rules)


# ----------------------------------------------------------------------
# per family classifiers
# ----------------------------------------------------------------------


def _classify_trichotomy(sp: SpaceSpec, w: Weight, extra_rules) -> SpectrumReport:
    rule = _TRICHOTOMY_RULE[sp.variant]
    facts = factorization_summary(w)
    g = facts.g
    unresolved = "%s(unresolved)" % rule
    if g is None:
        # w is zero at a point the boundary mean samples, so the mean
        # cannot be computed from the data
        return _finish(_all_unknown(unresolved), extra_rules=extra_rules)
    if facts.on_circle == UNKNOWN:
        if facts.sample_sup is not None and sp.variant in _SUPNORM_FAMILY:
            # essential boundary behavior between the samples is unknown;
            # only the full spectrum gets a two sided estimate, anchored
            # at the sampled mean and the sampled sup
            hi = closed_disc(facts.sample_sup)
            sets = _all_unknown(unresolved)
            sets["sigma"] = SetReport(hi, bounds(circle(g), hi), unresolved)
            return _finish(sets, extra_rules=extra_rules)
        return _finish(_sandwich(unresolved, g), extra_rules=extra_rules)
    if facts.count_only:
        # a series with certified boundary invertibility: the circle
        # |lambda| = g is sigma_ap, sigma_1 and sigma_2; the rest keeps the sandwich
        cite = "%s(boundary-certified)" % rule
        sets = _sandwich(cite, g)
        for key in ("sigma_ap", "sigma_1", "sigma_2"):
            sets[key] = SetReport(circle(g), EXACT, cite)
        return _finish(sets, extra_rules=extra_rules)
    if facts.on_circle == YES:
        return _finish(_all_exact("%s(3)" % rule, closed_disc(g)), extra_rules=extra_rules)
    if facts.zero_count_inside:
        cite = "%s(2)" % rule
        sets = _residual_disc(cite, g)
        disc = Component("open_disc", r=float(g))
        if sp.polydisc:
            # on the polydisc the backward shift chain below a zero of the
            # weight has infinite codimension, so the index is minus
            # infinity and even sigma_3 fills the whole disc
            sets["sigma_3"] = SetReport(closed_disc(g), EXACT, cite)
            entry = IndexEntry(disc, minus_infinity=True)
        else:
            entry = IndexEntry(disc, index=-facts.zero_count_inside)
            extra_rules = tuple(extra_rules) + ("blaschke-zero-index",)
        return _finish(sets, index_map=(entry,), extra_rules=extra_rules)
    return _zero_free(rule, w, extra_rules)


def _classify_ell1a(sp: SpaceSpec, w: Weight) -> SpectrumReport:
    rule = "wiener-series-circle"
    facts = factorization_summary(w)
    if facts.sample_sup is not None:
        raise ClassifyError("series space classification needs coefficient data")
    g = facts.g
    if g is None:   # a zero of the series on the quadrature grid
        return _finish(_all_unknown("%s(unresolved)" % rule))
    if facts.ell1_bound is not None:
        # a series known through its leading coefficients and a tail bound
        if w.has_tag("Lambda_class"):
            return _finish(_sandwich("%s(unresolved)" % rule, g))
        cite = "%s(beyond-lipschitz)" % rule
        sets = _all_unknown(cite)
        hi = closed_disc(max(facts.ell1_bound, g))
        sets["sigma"] = SetReport(hi, bounds(circle(g), hi), cite)
        return _finish(sets, open_flags=(FLAG_BEYOND_LIPSCHITZ,))
    if facts.on_circle == UNKNOWN:
        return _finish(_sandwich("%s(unresolved)" % rule, g))
    if facts.on_circle == YES or facts.zero_count_inside:
        # not invertible in the series algebra: the full spectrum is the
        # closed disc of the boundary mean, but whether the circle
        # |lambda| = g exhausts the approximate point spectrum is open
        cite = "%s(2)" % rule
        sets = _all_unknown(cite)
        sets["sigma"] = SetReport(closed_disc(g), EXACT, cite)
        return _finish(sets, open_flags=(FLAG_AP_BOUNDARY,))
    return _zero_free(rule, w)


def _classify_annulus(sp: SpaceSpec, w: Weight) -> SpectrumReport:
    rule = "annulus-boundary-circles"
    if not w.closed_form:
        raise ClassifyError(
            "annulus classification needs a representation evaluable on both boundary circles"
        )
    R = float(sp.inner_radius)
    if zero_near_circles(w, (1.0, R)):
        raise ClassifyError("weight vanishes on an annulus boundary circle")
    g1 = geometric_mean(w, 1.0)
    gR = geometric_mean(w, R)
    lo, hi = min(g1, gR), max(g1, gR)
    if hi - lo <= CIRCLE_MERGE_TOL * max(1.0, hi):
        r = 0.5 * (lo + hi)
        return _finish(_all_exact("%s(merged)" % rule, circle(r)))
    cite = "%s(two-circles)" % rule
    ap = CircularSet((Component("circle", r=lo), Component("circle", r=hi)))
    body = closed_annulus(lo, hi)
    gap = open_annulus(lo, hi)
    sets = {
        "sigma": SetReport(body, EXACT, cite),
        "sigma_ap": SetReport(ap, EXACT, cite),
        "sigma_r": SetReport(gap, EXACT, cite),
        "sigma_1": SetReport(ap, EXACT, cite),
        "sigma_2": SetReport(ap, EXACT, cite),
        "sigma_3": SetReport(body, bounds(ap, body), cite),
        "sigma_4": SetReport(body, bounds(ap, body), cite),
        "sigma_5": SetReport(body, bounds(ap, body), cite),
    }
    return _finish(sets, open_flags=(FLAG_INNER_ANNULUS_INDEX,))


def _classify_polydisc(sp: SpaceSpec, w: Weight, rotation) -> SpectrumReport:
    rep = w.rep
    if isinstance(rep, TorusPolynomial):
        if rep.dim != sp.dim:
            raise ClassifyError(
                "weight has %d variables, space has dim %d" % (rep.dim, sp.dim)
            )
        wa = rep.axis_polynomial()
        if wa is None:
            g = ergodic.group_rotation_radius(w, rotation)
            return _finish(_sandwich("%s(unresolved)" % _TRICHOTOMY_RULE[sp.variant], g))
        w = wa
    elif not w.closed_form:
        raise ClassifyError("polydisc classification needs a polynomial weight")
    # a one variable weight, read as w(z_1, ..., z_n) = w(z_1)
    return _classify_trichotomy(sp, w, ())


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def classify(sp: SpaceSpec, w: Weight, rotation) -> SpectrumReport:
    """Classify the spectrum and essential spectra of T = w U.

    Raises ClassifyError (bad inputs, unsupported combinations) or a
    numerical error from the underlying analysis.  The rotation must be
    certifiably non periodic (or a vector with a declared empty relation
    lattice); every reported set is rotation invariant.
    """
    if not isinstance(sp, SpaceSpec):
        raise ClassifyError("first argument must be a SpaceSpec")
    _check_rotation(sp, rotation)
    _check_tags(sp, w)
    if isinstance(w.rep, TorusPolynomial) and not sp.polydisc:
        raise ClassifyError("several variable weights need a polydisc space")

    if sp.polydisc:
        report = _classify_polydisc(sp, w, rotation)
    elif sp.variant in _TRICHOTOMY_RULE:
        extra = (_REDUCTION_RULE[sp.variant],) if sp.variant in _REDUCTION_RULE else ()
        report = _classify_trichotomy(sp, w, extra)
    elif sp.variant == "ell1a":
        report = _classify_ell1a(sp, w)
    else:
        report = _classify_annulus(sp, w)
    echo = {
        "space": space_payload(sp),
        "weight": weight_payload(w),
        "rotation": rotation_payload(rotation),
    }
    return replace(report, inputs_echo=echo)


def point_spectrum_candidates(w: Weight, rotation, count: int = 16) -> tuple:
    """Candidate eigenvalues alpha^k w(0) of the truncation diagonal.

    Empty when w(0) = 0 (the diagonal then certifies nothing).  For
    rotation vectors the candidates run over multi indices in graded
    lexicographic order.
    """
    if count < 1:
        raise ClassifyError("count must be positive")
    w0 = weight_at_origin(w)
    if w0 == 0:
        return ()
    if isinstance(rotation, RotationVector):
        alphas = rotation.alpha_vector()
        n = len(alphas)
        out = []
        degree = 0
        while len(out) < count:
            for idx in _graded_indices(n, degree):
                val = complex(w0)
                for a, k in zip(alphas, idx):
                    val *= a ** k
                out.append(val)
                if len(out) >= count:
                    break
            degree += 1
        return tuple(out)
    alpha = rotation.alpha()
    return tuple((alpha ** np.arange(count)) * w0)


def _graded_indices(n: int, degree: int):
    """All length-n tuples of nonnegative integers summing to degree, in
    lexicographic order."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _graded_indices(n - 1, degree - first):
            yield (first,) + rest


def residual_index(sp: SpaceSpec, w: Weight, rotation) -> int:
    """Fredholm index on the residual disc, defined only in branch (2)."""
    report = classify(sp, w, rotation)
    for entry in report.index_map:
        if entry.minus_infinity:
            raise ClassifyError("index is minus infinity on the residual component")
        return entry.index
    raise ClassifyError("classification has no residual component with a certified index")
