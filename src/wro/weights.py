"""Weight functions, rotation angles, and space descriptors.

A weighted rotation operator is T = w U acting on a space of analytic
functions, where (U x)(z) = x(alpha z) rotates through an angle alpha on
the unit circle (or componentwise on a torus) and w is the weight.  This
module holds the input side of the library: the weight representations,
the rotation descriptors, the space descriptors, and the JSON parsers
for all three.

Weight representations
----------------------

``Polynomial``       coefficients c_0 + c_1 z + ... + c_d z^d, exact.
``Rational``         num/den with den zero free on the closed unit disc,
                     normalized so den(0) = 1, exact.
``Taylor``           a finite coefficient list plus a bound on the l^1
                     norm of the discarded tail; evaluation anywhere on
                     the closed disc is accurate to the tail bound.
``BoundarySamples``  exact values of w on a uniform grid of the unit
                     circle; nothing off the grid is known.
``TorusPolynomial``  a polynomial in several variables for weights on a
                     polydisc, stored as exponent tuple -> coefficient.

Closed form representations (Polynomial, Rational, TorusPolynomial)
carry every regularity tag automatically: polynomials multiply all the
supported spaces, and rational functions with poles off the closed disc
have geometrically decaying Taylor coefficients, so they are smooth on
the circle and absolutely summable.  Taylor and BoundarySamples weights
only carry the tags they are declared with.

JSON schema (document fragments accepted by the parsers)
---------------------------------------------------------

weight:
    {"type": "poly",     "coeffs": [c, ...], "tags": [...]}
    {"type": "rational", "num": [c, ...], "den": [c, ...]}
    {"type": "taylor",   "coeffs": [c, ...], "tail_bound": t, "tags": [...]}
    {"type": "samples",  "values": [c, ...], "tags": [...]}
    {"type": "polynd",   "dim": n, "terms": [{"exp": [e1, ...], "coeff": c}, ...]}
rotation:
    {"kind": "named",    "name": "golden" | "sqrt2" | "e_frac"}
    {"kind": "rational", "p": p, "q": q}
    {"kind": "radians",  "value": x, "assumed_nonperiodic": true}
    {"kind": "vector",   "components": [rotation, ...], "relations": [[m1, ...], ...]}
space:
    {"variant": "bergman", "p": 2}   and so on, see VARIANT_FIELDS.

Complex numbers are written as [re, im]; bare numbers are accepted and
read as real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

# ----------------------------------------------------------------------
# errors and shared constants
# ----------------------------------------------------------------------


class WeightError(ValueError):
    """Raised for malformed weights, rotations, spaces, or job fragments."""


#: tolerance below which a computed modulus counts as an exact zero
TOL_ZERO = 1e-9

#: smallest admissible sampling / scanning grid; grids are powers of two
#: so that refined grids contain coarse ones
GRID_MIN = 64

#: every regularity tag a weight may carry
REGULARITY_TAGS = frozenset(
    {
        "disc_algebra",
        "H_inf",
        "multiplier_Bloch",
        "multiplier_Dirichlet",
        "ell1A",
        "Lambda_class",
    }
)


def _require_grid(grid: int) -> int:
    if not isinstance(grid, int) or grid < GRID_MIN or grid & (grid - 1):
        raise WeightError(
            "grid size must be a power of two >= %d, got %r" % (GRID_MIN, grid)
        )
    return grid


def _is_real_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(value: object, what: str) -> float:
    """A finite real JSON number; strings, booleans and pairs are refused."""
    if not _is_real_number(value):
        raise WeightError("%s must be a number, got %r" % (what, value))
    return _as_complex_scalar(value, what).real


def _as_complex_scalar(value: object, what: str) -> complex:
    """Read a JSON number, an [re, im] pair, or a complex scalar; both
    parts must be finite (``json`` accepts NaN and Infinity)."""
    try:
        if isinstance(value, complex):
            z = value
        elif _is_real_number(value):
            z = complex(float(value), 0.0)
        elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real_number, value)):
            z = complex(float(value[0]), float(value[1]))
        else:
            raise WeightError("%s must be a number or an [re, im] pair, got %r" % (what, value))
    except OverflowError:
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise WeightError("%s must be finite, got %r" % (what, value))
    return z


def _coeff_tuple(values: Iterable[object], what: str) -> tuple:
    if not isinstance(values, Iterable):
        raise WeightError("%s list must be a list, got %r" % (what, values))
    out = tuple(_as_complex_scalar(v, what) for v in values)
    if not out:
        raise WeightError("%s list is empty" % what)
    return out


def _trim(coeffs: Sequence[complex]) -> tuple:
    """Drop trailing zero coefficients, keeping at least the constant term."""
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0:
        d -= 1
    return tuple(coeffs[: d + 1])


def complex_pair(z: complex) -> list:
    """Canonical JSON spelling of a complex number."""
    return [float(z.real), float(z.imag)]


# ----------------------------------------------------------------------
# weight representations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple  # ascending, trailing zeros trimmed

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Rational:
    num: tuple  # numerator coefficients, ascending
    den: tuple  # denominator coefficients, ascending, den[0] == 1


@dataclass(frozen=True)
class Taylor:
    coeffs: tuple      # leading coefficients, ascending
    tail_bound: float  # bound on sum_{k >= len(coeffs)} |c_k|


@dataclass(frozen=True)
class BoundarySamples:
    values: tuple  # w(exp(2 pi i j / G)) for j = 0 .. G-1

    @property
    def grid(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TorusPolynomial:
    dim: int
    terms: tuple  # sorted ((e1, ..., en), coeff) pairs, coeff != 0

    def axes_used(self) -> tuple:
        """Indices of variables that actually occur with positive exponent."""
        used = set()
        for exp, _ in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return tuple(sorted(used))

    def axis_polynomial(self) -> Optional["Weight"]:
        """The equal one variable polynomial weight when at most one
        variable occurs (a constant is read in z_1), else None."""
        used = self.axes_used()
        if len(used) > 1:
            return None
        axis = used[0] if used else 0
        coeffs = [0j] * (max(exp[axis] for exp, _ in self.terms) + 1)
        for exp, c in self.terms:
            coeffs[exp[axis]] += c
        return polynomial(coeffs)


Representation = Union[Polynomial, Rational, Taylor, BoundarySamples, TorusPolynomial]

#: representations whose regularity is known a priori
_CLOSED_FORM = (Polynomial, Rational, TorusPolynomial)


@dataclass(frozen=True)
class Weight:
    """A weight function together with its declared regularity tags."""

    rep: Representation
    tags: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        bad = set(self.tags) - REGULARITY_TAGS
        if bad:
            raise WeightError("unknown regularity tags: %s" % sorted(bad))

    @property
    def closed_form(self) -> bool:
        return isinstance(self.rep, _CLOSED_FORM)

    def has_tag(self, tag: str) -> bool:
        return self.closed_form or tag in self.tags


def polynomial(coeffs: Iterable[complex], tags: Iterable[str] = ()) -> Weight:
    cs = _trim(_coeff_tuple(coeffs, "polynomial coefficient"))
    if all(c == 0 for c in cs):
        raise WeightError("weight is identically zero")
    return Weight(Polynomial(cs), frozenset(tags) | REGULARITY_TAGS)


def rational(num: Iterable[complex], den: Iterable[complex]) -> Weight:
    ncs = _trim(_coeff_tuple(num, "numerator coefficient"))
    dcs = _trim(_coeff_tuple(den, "denominator coefficient"))
    if all(c == 0 for c in ncs):
        raise WeightError("weight is identically zero")
    if dcs[0] == 0:
        raise WeightError("denominator vanishes at the origin")
    # normalize the constant term of the denominator to 1; dividing both
    # coefficient lists by den(0) leaves the function unchanged
    scale = dcs[0]
    dcs = tuple(c / scale for c in dcs)
    ncs = tuple(c / scale for c in ncs)
    if len(dcs) > 1:
        roots = np.roots(np.asarray(dcs[::-1], dtype=complex))
        if roots.size and np.min(np.abs(roots)) <= 1.0 + TOL_ZERO:
            raise WeightError("denominator has a root in the closed unit disc")
    return Weight(Rational(ncs, dcs), frozenset(REGULARITY_TAGS))


def taylor(coeffs: Iterable[complex], tail_bound: float, tags: Iterable[str] = ()) -> Weight:
    cs = _coeff_tuple(coeffs, "taylor coefficient")
    tb = _real(tail_bound, "tail bound")
    if tb < 0.0:
        raise WeightError("tail bound must be a finite nonnegative number, got %r" % (tail_bound,))
    if all(c == 0 for c in cs) and tb == 0.0:
        raise WeightError("weight is identically zero")
    return Weight(Taylor(tuple(cs), tb), frozenset(tags))


def boundary_sample_weight(values: Iterable[complex], tags: Iterable[str] = ()) -> Weight:
    vs = _coeff_tuple(values, "boundary sample")
    _require_grid(len(vs))
    return Weight(BoundarySamples(vs), frozenset(tags))


def torus_polynomial(dim: int, terms: Mapping[tuple, complex]) -> Weight:
    if not _is_integer(dim) or dim < 2:
        raise WeightError("polydisc weights need an integer dim >= 2")
    norm = {}
    for exp, coeff in terms.items():
        exp = tuple(exp)
        if len(exp) != dim or not all(_is_integer(e) and e >= 0 for e in exp):
            raise WeightError("bad exponent tuple %r for dim %d" % (exp, dim))
        c = complex(coeff)
        if c != 0:
            norm[exp] = norm.get(exp, 0) + c
    norm = {e: c for e, c in norm.items() if c != 0}
    if not norm:
        raise WeightError("weight is identically zero")
    return Weight(TorusPolynomial(dim, tuple(sorted(norm.items()))), frozenset(REGULARITY_TAGS))


# ----------------------------------------------------------------------
# evaluation and coefficient extraction
# ----------------------------------------------------------------------


def evaluate(w: Weight, *z) -> np.ndarray:
    """Evaluate w at z (scalar or ndarray).

    Polynomial and Rational are exact.  Taylor uses the stored partial
    sum; on the closed disc the error is at most the tail bound.
    BoundarySamples cannot be evaluated off its grid and raises.
    TorusPolynomial takes one array per variable, ``evaluate(w, z1, ...,
    z_dim)``; the arrays broadcast against each other, so per axis grids
    reshaped along their own axis give the values on the tensor grid.
    """
    rep = w.rep
    dim = rep.dim if isinstance(rep, TorusPolynomial) else 1
    if len(z) != dim:
        raise WeightError("got %d coordinate arrays, weight has dim %d" % (len(z), dim))
    if isinstance(rep, (Polynomial, Taylor)):
        return npoly.polyval(np.asarray(z[0], dtype=complex), np.asarray(rep.coeffs))
    if isinstance(rep, Rational):
        zz = np.asarray(z[0], dtype=complex)
        return npoly.polyval(zz, np.asarray(rep.num)) / npoly.polyval(zz, np.asarray(rep.den))
    if isinstance(rep, TorusPolynomial):
        axes = [np.asarray(x, dtype=complex) for x in z]
        acc = np.zeros(np.broadcast_shapes(*(a.shape for a in axes)), dtype=complex)
        for exp, coeff in rep.terms:
            term = np.full((1,) * acc.ndim, coeff, dtype=complex)
            for a, e in zip(axes, exp):
                if e:
                    term = term * a ** e
            acc = acc + term
        return acc
    raise WeightError("sampled weights only provide boundary data on their own grid")


def weight_at_origin(w: Weight) -> complex:
    """w(0), or w(0, ..., 0) for torus polynomials."""
    rep = w.rep
    if isinstance(rep, TorusPolynomial):
        return complex(dict(rep.terms).get((0,) * rep.dim, 0.0))
    if isinstance(rep, BoundarySamples):
        raise WeightError("sampled weights only provide boundary data")
    return complex(evaluate(w, 0.0))


def taylor_coefficients(w: Weight, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of w at the origin.

    Rational representations are expanded through the linear recurrence
    of the reciprocal denominator series, which is exact in the sense of
    floating point arithmetic because den(0) = 1.
    """
    if count < 1:
        raise WeightError("count must be positive")
    rep = w.rep
    if isinstance(rep, (Polynomial, Taylor)):
        out = np.zeros(count, dtype=complex)
        src = np.asarray(rep.coeffs, dtype=complex)[:count]
        out[: src.size] = src
        return out
    if isinstance(rep, Rational):
        num = np.asarray(rep.num, dtype=complex)
        den = np.asarray(rep.den, dtype=complex)
        inv = np.zeros(count, dtype=complex)
        inv[0] = 1.0  # den[0] == 1 by normalization
        for k in range(1, count):
            jmax = min(k, den.size - 1)
            inv[k] = -np.dot(den[1 : jmax + 1], inv[k - jmax : k][::-1])
        out = np.zeros(count, dtype=complex)
        for k in range(count):
            jmax = min(k, num.size - 1)
            out[k] = np.dot(num[: jmax + 1], inv[k - jmax : k + 1][::-1])
        return out
    raise WeightError("taylor coefficients are unavailable for this representation")


def boundary_values(w: Weight, grid: int, r: float = 1.0) -> np.ndarray:
    """Values of w on the uniform grid {r exp(2 pi i j / grid)}.

    The grid must be a power of two (>= 64) so refinements nest.  For a
    BoundarySamples weight the requested grid must divide the stored
    grid and r must be 1; no refinement of sampled data is possible.
    """
    _require_grid(grid)
    if not (0.0 < r <= 1.0) and not isinstance(w.rep, _CLOSED_FORM):
        raise WeightError("radius must lie in (0, 1] for this representation")
    if r <= 0.0:
        raise WeightError("radius must be positive")
    rep = w.rep
    if isinstance(rep, BoundarySamples):
        if r != 1.0:
            raise WeightError("sampled weights only provide boundary data")
        stored = rep.grid
        if stored % grid:
            raise WeightError("cannot refine sampled data beyond its stored grid")
        return np.asarray(rep.values, dtype=complex)[:: stored // grid]
    pts = r * np.exp(2j * np.pi * np.arange(grid) / grid)
    return np.asarray(evaluate(w, pts), dtype=complex)


# ----------------------------------------------------------------------
# rotations
# ----------------------------------------------------------------------

#: fractional parts of the named irrational rotation numbers; any float
#: with the same fractional part describes the same rotation, the named
#: forms exist so a job can request a certified irrational angle without
#: trusting raw radians
NAMED_ROTATIONS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2": math.sqrt(2.0) - 1.0,
    "e_frac": math.e - 2.0,
}


@dataclass(frozen=True)
class RotationAngle:
    """A rotation of the circle, z -> alpha z with alpha = exp(2 pi i theta)."""

    kind: str  # "root_of_unity" | "named" | "radians"
    p: int = 0
    q: int = 1
    name: str = ""
    radians: float = 0.0
    assumed_nonperiodic: bool = False

    def theta(self) -> float:
        """Rotation number as a fraction of a full turn, in [0, 1)."""
        if self.kind == "root_of_unity":
            return self.p / self.q
        if self.kind == "named":
            return NAMED_ROTATIONS[self.name]
        return (self.radians / (2.0 * math.pi)) % 1.0

    def alpha(self) -> complex:
        return complex(np.exp(2j * np.pi * self.theta()))

    @property
    def periodic(self) -> bool:
        return self.kind == "root_of_unity"

    @property
    def certified_nonperiodic(self) -> bool:
        """True when the angle is known (or declared) not to be a root of unity."""
        if self.kind == "named":
            return True
        if self.kind == "radians":
            return self.assumed_nonperiodic
        return False


#: largest p/q order after reduction; the periodic radius costs O(q)
MAX_ROTATION_ORDER = 1 << 13


def root_of_unity(p: int, q: int) -> RotationAngle:
    if not isinstance(p, int) or not isinstance(q, int) or q < 1:
        raise WeightError("root of unity needs integer p and q >= 1")
    g = math.gcd(p % q if q else 0, q) or 1
    if q // g > MAX_ROTATION_ORDER:
        raise WeightError("rotation order %d exceeds the cap %d" % (q // g, MAX_ROTATION_ORDER))
    return RotationAngle("root_of_unity", p=(p % q) // g, q=q // g)


def named_rotation(name: str) -> RotationAngle:
    if not isinstance(name, str) or name not in NAMED_ROTATIONS:
        raise WeightError("unknown rotation name %r (known: %s)" % (name, sorted(NAMED_ROTATIONS)))
    return RotationAngle("named", name=name)


def raw_radians(value: float, assumed_nonperiodic: bool = False) -> RotationAngle:
    v = _real(value, "rotation angle")
    return RotationAngle("radians", radians=v, assumed_nonperiodic=bool(assumed_nonperiodic))


@dataclass(frozen=True)
class RotationVector:
    """Componentwise rotation of a torus with a declared relation lattice.

    ``relations`` lists integer vectors m with m . theta an integer; an
    empty tuple declares that no nonzero relation holds, which in
    particular asserts every component is non periodic.  A declared
    relation is checked numerically, and an explicit root of unity
    component contradicts an empty lattice, so both are rejected.
    """

    angles: tuple
    relations: tuple = ()

    def __post_init__(self) -> None:
        if len(self.angles) < 2:
            raise WeightError("rotation vectors need at least two components")
        if not self.relations:
            for a in self.angles:
                if a.periodic:
                    raise WeightError(
                        "a root of unity component is itself a relation; "
                        "the declared lattice cannot be empty"
                    )
        thetas = [a.theta() for a in self.angles]
        for m in self.relations:
            if len(m) != len(self.angles) or not any(m):
                raise WeightError("bad relation vector %r" % (m,))
            frac = sum(mi * ti for mi, ti in zip(m, thetas))
            if min(frac % 1.0, (-frac) % 1.0) > 1e-9:
                raise WeightError("declared relation %r does not hold" % (m,))

    @property
    def dim(self) -> int:
        return len(self.angles)

    def alpha_vector(self) -> tuple:
        return tuple(a.alpha() for a in self.angles)


Rotation = Union[RotationAngle, RotationVector]


# ----------------------------------------------------------------------
# spaces
# ----------------------------------------------------------------------

#: extra fields each space variant requires
VARIANT_FIELDS = {
    "disc_algebra": (),
    "hinf": (),
    "hardy_banach": (),
    "bergman": ("p",),
    "bloch": (),
    "dirichlet": ("p",),
    "smooth_cna": ("order",),
    "sobolev_wna": ("order", "p"),
    "ell1a": (),
    "annulus_hardy": ("inner_radius", "p"),
    "polydisc_algebra": ("dim",),
    "polydisc_bergman": ("dim", "p"),
}


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of the Banach space the operator acts on."""

    variant: str
    p: Optional[float] = None
    order: Optional[int] = None
    inner_radius: Optional[float] = None
    dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANT_FIELDS:
            raise WeightError(
                "unknown space variant %r (known: %s)"
                % (self.variant, sorted(VARIANT_FIELDS))
            )
        need = VARIANT_FIELDS[self.variant]
        for name in ("p", "order", "inner_radius", "dim"):
            val = getattr(self, name)
            if name in need:
                if val is None:
                    raise WeightError("space %r needs field %r" % (self.variant, name))
            elif val is not None:
                raise WeightError("space %r does not take field %r" % (self.variant, name))
        if self.p is not None and not (float(self.p) >= 1.0):
            raise WeightError("p must satisfy p >= 1")
        if self.order is not None and (not isinstance(self.order, int) or self.order < 1):
            raise WeightError("order must be a positive integer")
        if self.inner_radius is not None and not (0.0 < float(self.inner_radius) < 1.0):
            raise WeightError("inner radius must lie in (0, 1)")
        if self.dim is not None and (not isinstance(self.dim, int) or self.dim < 2):
            raise WeightError("polydisc dim must be an integer >= 2")

    @property
    def polydisc(self) -> bool:
        return self.variant in ("polydisc_algebra", "polydisc_bergman")


def space(variant: str, **kw) -> SpaceSpec:
    return SpaceSpec(variant, **kw)


# ----------------------------------------------------------------------
# JSON parsing
# ----------------------------------------------------------------------


def parse_weight(doc: Mapping) -> Weight:
    """Parse the weight fragment of a job document."""
    if not isinstance(doc, Mapping):
        raise WeightError("weight must be a JSON object")
    kind = doc.get("type")
    tags = doc.get("tags", [])
    if not isinstance(tags, (list, tuple)) or not all(isinstance(t, str) for t in tags):
        raise WeightError("tags must be a list of strings")
    if kind == "poly":
        return polynomial(doc.get("coeffs", []), tags)
    if kind == "rational":
        if tags:
            raise WeightError("rational weights carry every tag; do not declare tags")
        return rational(doc.get("num", []), doc.get("den", []))
    if kind == "taylor":
        if "tail_bound" not in doc:
            raise WeightError("taylor weights need a tail_bound")
        return taylor(doc.get("coeffs", []), doc["tail_bound"], tags)
    if kind == "samples":
        return boundary_sample_weight(doc.get("values", []), tags)
    if kind == "polynd":
        terms_doc = doc.get("terms", [])
        if not isinstance(terms_doc, list):
            raise WeightError("polynd terms must be a list")
        terms = {}
        for item in terms_doc:
            if not isinstance(item, Mapping) or not isinstance(item.get("exp"), list) or "coeff" not in item:
                raise WeightError("each polynd term needs an exp list and a coeff")
            exp = tuple(item["exp"])
            if not all(_is_integer(e) and e >= 0 for e in exp):
                raise WeightError("polynd exponents must be nonnegative integers")
            c = _as_complex_scalar(item["coeff"], "polynd coefficient")
            terms[exp] = terms.get(exp, 0) + c
        return torus_polynomial(doc.get("dim"), terms)
    raise WeightError("unknown weight type %r" % kind)


def parse_rotation(doc: Mapping) -> Rotation:
    """Parse the rotation fragment of a job document."""
    if not isinstance(doc, Mapping):
        raise WeightError("rotation must be a JSON object")
    kind = doc.get("kind")
    if kind == "named":
        return named_rotation(doc.get("name", ""))
    if kind == "rational":
        p, q = doc.get("p"), doc.get("q")
        if not _is_integer(p) or not _is_integer(q):
            raise WeightError("rational rotations need integer p and q")
        return root_of_unity(p, q)
    if kind == "radians":
        if "value" not in doc:
            raise WeightError("radians rotations need a value")
        assumed = doc.get("assumed_nonperiodic", False)
        if not isinstance(assumed, bool):
            raise WeightError("assumed_nonperiodic must be true or false, got %r" % (assumed,))
        return raw_radians(doc["value"], assumed)
    if kind == "vector":
        comps = doc.get("components", [])
        if not isinstance(comps, list) or len(comps) < 2:
            raise WeightError("vector rotations need at least two components")
        angles = []
        for c in comps:
            a = parse_rotation(c)
            if isinstance(a, RotationVector):
                raise WeightError("vector rotations cannot nest")
            angles.append(a)
        rels = doc.get("relations", [])
        if not isinstance(rels, list):
            raise WeightError("relations must be a list of integer vectors")
        relations = []
        for m in rels:
            if not isinstance(m, list) or not all(map(_is_integer, m)):
                raise WeightError("relations must be integer vectors")
            relations.append(tuple(m))
        return RotationVector(tuple(angles), tuple(relations))
    raise WeightError("unknown rotation kind %r" % kind)


def parse_space(doc: Mapping) -> SpaceSpec:
    """Parse the space fragment of a job document."""
    if not isinstance(doc, Mapping):
        raise WeightError("space must be a JSON object")
    variant = doc.get("variant")
    if not isinstance(variant, str):
        raise WeightError("space needs a variant string")
    kw = {}
    for name in ("p", "order", "inner_radius", "dim"):
        if name in doc:
            val = doc[name]
            if name in ("order", "dim"):
                if not _is_integer(val):
                    raise WeightError("%s must be an integer" % name)
                kw[name] = val
            else:
                kw[name] = _real(val, name)
    extra = set(doc) - {"variant", "p", "order", "inner_radius", "dim"}
    if extra:
        raise WeightError("unknown space fields: %s" % sorted(extra))
    return SpaceSpec(variant, **kw)


# ----------------------------------------------------------------------
# canonical echo (normalized job fragments, used for report provenance)
# ----------------------------------------------------------------------


def weight_payload(w: Weight) -> dict:
    rep = w.rep
    declared = sorted(w.tags) if not w.closed_form else sorted(REGULARITY_TAGS)
    if isinstance(rep, Polynomial):
        return {"type": "poly", "coeffs": [complex_pair(c) for c in rep.coeffs], "tags": declared}
    if isinstance(rep, Rational):
        # the type alone implies every regularity tag, and the parser
        # rejects an explicit list, so none is echoed
        return {
            "type": "rational",
            "num": [complex_pair(c) for c in rep.num],
            "den": [complex_pair(c) for c in rep.den],
            "tags": [],
        }
    if isinstance(rep, Taylor):
        return {
            "type": "taylor",
            "coeffs": [complex_pair(c) for c in rep.coeffs],
            "tail_bound": float(rep.tail_bound),
            "tags": declared,
        }
    if isinstance(rep, BoundarySamples):
        return {"type": "samples", "values": [complex_pair(c) for c in rep.values], "tags": declared}
    return {
        "type": "polynd",
        "dim": rep.dim,
        "terms": [{"exp": list(e), "coeff": complex_pair(c)} for e, c in rep.terms],
        "tags": declared,
    }


def rotation_payload(rot: Rotation) -> dict:
    if isinstance(rot, RotationVector):
        return {
            "kind": "vector",
            "components": [rotation_payload(a) for a in rot.angles],
            "relations": [list(m) for m in rot.relations],
        }
    if rot.kind == "root_of_unity":
        return {"kind": "rational", "p": rot.p, "q": rot.q}
    if rot.kind == "named":
        return {"kind": "named", "name": rot.name}
    return {
        "kind": "radians",
        "value": float(rot.radians),
        "assumed_nonperiodic": bool(rot.assumed_nonperiodic),
    }


def space_payload(sp: SpaceSpec) -> dict:
    out = {"variant": sp.variant}
    for name in VARIANT_FIELDS[sp.variant]:
        val = getattr(sp, name)
        out[name] = val if name in ("order", "dim") else float(val)
    return out
