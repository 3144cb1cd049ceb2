"""Seeded job corpora for the four benchmark workloads.

Every weight is built from its zeros, so the generator knows the answer
before the program runs: the boundary geometric mean

    g = |lead| * prod max(1, |root|)      (Jensen's formula)

the trichotomy branch (1: no zeros in the closed disc, 2: zeros inside
only, 3: a zero on the circle) and, from those, the sets, citations and
verify verdicts the README documents.  Nothing here imports ``wro``.

Roots are dyadic numbers with a few significant bits (and the on-circle
roots are exactly +-1 and +-i), so the expanded coefficients are exact in
double precision and the truth needs no tolerance beyond rounding of g.

The *shape* of each corpus (which space, weight type, degree and branch
sits at which position) is fixed, so every seed asks the program for the
same mix of work; the seed draws the numbers inside that shape.  The
cli_classify corpus is rotated by a seed dependent offset so that over
several seeds every space variant is reached within the run window.

The timed corpora hold only jobs the program is expected to answer
correctly, so a failed operation in a timed run is a regression.  The
inputs that hit the two known defects (repeated zeros, and verify's
smoothing identity on truncations of large norm) are the separate
``defect_items`` corpus, run by ``run.py --defects``.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

NAMED = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2": math.sqrt(2.0) - 1.0,
    "e_frac": math.e - 2.0,
}

INSIDE = (0.5, -0.5, 0.5j, -0.5j, 0.25, -0.25, 0.25 + 0.5j, -0.5 + 0.25j,
          0.5 + 0.5j, -0.5 - 0.5j, 0.75, -0.75j, 0.375, 0.25j)
OUTSIDE = (2.0, -2.0, 2j, -2j, 1.5, -1.5, 1.5j, 2 + 1j, -1 - 2j, 3.0, -3j,
           1.5 + 1.5j, 4.0)
ON_CIRCLE = (1.0, -1.0, 1j, -1j)
LEADS = (1.0, 2.0, -1.0, 0.5, 1.5, -3.0, 1j)
DEN_ROOTS = (2.0, -2.0, 4.0, -4.0)

#: inner radius of every annulus job; no root pool has this modulus
ANNULUS_R = 0.6

_TRICHOTOMY = {
    "disc_algebra": "uniform-algebra-trichotomy",
    "smooth_cna": "uniform-algebra-trichotomy",
    "bergman": "bergman-trichotomy",
    "bloch": "bloch-trichotomy",
    "dirichlet": "dirichlet-trichotomy",
    "hinf": "hinf-trichotomy",
    "hardy_banach": "hinf-trichotomy",
    "sobolev_wna": "hinf-trichotomy",
}
_SUPNORM = ("hinf", "hardy_banach", "sobolev_wna")
_TAGS = {
    "disc_algebra": ["disc_algebra"],
    "smooth_cna": ["disc_algebra"],
    "bergman": ["disc_algebra"],
    "bloch": ["disc_algebra", "multiplier_Bloch"],
    "dirichlet": ["disc_algebra", "multiplier_Dirichlet"],
    "hinf": ["H_inf"],
    "hardy_banach": ["H_inf"],
    "sobolev_wna": ["H_inf"],
    "ell1a": ["ell1A", "Lambda_class"],
}
SPACES = {
    "disc_algebra": {},
    "hinf": {},
    "hardy_banach": {},
    "bergman": {"p": 2},
    "bloch": {},
    "dirichlet": {"p": 2},
    "smooth_cna": {"order": 2},
    "sobolev_wna": {"order": 1, "p": 2},
    "ell1a": {},
    "annulus_hardy": {"inner_radius": ANNULUS_R, "p": 2},
    "polydisc_algebra": {"dim": 2},
    "polydisc_bergman": {"dim": 2, "p": 2},
}


# ----------------------------------------------------------------------
# exact polynomial arithmetic on dyadic roots
# ----------------------------------------------------------------------


def poly_from_roots(roots, lead=1.0):
    """Ascending coefficients of lead * prod (z - a)."""
    c = [complex(lead)]
    for a in roots:
        nxt = [0j] * (len(c) + 1)
        for i, x in enumerate(c):
            nxt[i + 1] += x
            nxt[i] -= a * x
        c = nxt
    return c


def horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def jensen(roots, lead, r=1.0):
    """|lead| * prod max(r, |a|): exp of the circle mean of ln|p(r e^it)|."""
    out = abs(complex(lead))
    for a in roots:
        out *= max(r, abs(a))
    return out


def periodic_radius(roots, lead, q):
    """max over |t| = 1 of prod_{j<q} |w(alpha^j t)|^(1/q) for alpha of order q.

    The orbit product of lead * prod (z - a) over the q-th roots of unity
    is lead^q * prod (t^q - a^q) up to a unimodular factor, so the radius
    is |lead| * max_{|s|=1} prod |s - a^q|^(1/q): a dense grid on s, then
    golden section on the best cell.
    """
    bs = np.array([complex(a) ** q for a in roots])

    def f(theta):
        s = np.exp(1j * np.atleast_1d(theta))
        with np.errstate(divide="ignore"):
            return np.log(np.abs(s[:, None] - bs[None, :])).sum(axis=1)

    grid = 1 << 14
    vals = f(2.0 * np.pi * np.arange(grid) / grid)
    j = int(np.argmax(vals))
    lo, hi = 2.0 * math.pi * (j - 1) / grid, 2.0 * math.pi * (j + 1) / grid
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fa, fb = float(f(a)[0]), float(f(b)[0])
    for _ in range(60):
        if fa > fb:
            hi, b, fb = b, a, fa
            a = hi - inv * (hi - lo)
            fa = float(f(a)[0])
        else:
            lo, a, fa = a, b, fb
            b = lo + inv * (hi - lo)
            fb = float(f(b)[0])
    best = max(float(vals[j]), fa, fb)
    return abs(complex(lead)) * math.exp(best / q)


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


# ----------------------------------------------------------------------
# weights with their construction truth
# ----------------------------------------------------------------------


def _draw_roots(rng, degree, branch, on_mult=1, distinct=True):
    """Roots for a weight of the given branch; branch 3 puts one root of
    multiplicity ``on_mult`` on the circle.  Off-circle roots are drawn
    without replacement unless ``distinct`` is false."""
    roots = []
    if branch == 3:
        roots += [rng.choice(ON_CIRCLE)] * on_mult
    if branch == 2:
        roots.append(rng.choice(INSIDE))
    while len(roots) < degree:
        pool = OUTSIDE if branch == 1 else rng.choice((INSIDE, OUTSIDE))
        a = rng.choice(pool)
        if distinct and a in roots:
            continue
        roots.append(a)
    return roots


def _truth(roots, lead, den_roots=(), den_lead=1.0):
    g = jensen(roots, lead) / jensen(den_roots, den_lead)
    w0 = abs(horner(poly_from_roots(roots, lead), 0)) / abs(horner(poly_from_roots(den_roots, den_lead), 0))
    on = [a for a in roots if abs(abs(a) - 1.0) < 1e-12]
    branch = 3 if on else (2 if any(abs(a) < 1.0 for a in roots) else 1)
    mult = max((roots.count(a) for a in roots), default=0)
    return {
        "g": g,
        "w0": w0,
        "branch": branch,
        "gR": jensen(roots, lead, ANNULUS_R) / jensen(den_roots, den_lead, ANNULUS_R),
        # repeated zeros are the multiplicity defect family: companion
        # matrix roots of an m-fold zero scatter by about eps^(1/m), so the
        # program may refuse them or answer wrongly
        "defect": mult >= 2,
        "multiplicity": mult,
    }


def make_weight(rng, wtype, space, degree, branch, on_mult=1, distinct=True, unit_sum=False):
    """(weight document, truth) for one weight of the given type.  With
    ``unit_sum`` the lead is divided by a power of two so that the
    coefficients' absolute values sum to at most 1 (still exact)."""
    lead = rng.choice(LEADS)
    roots = _draw_roots(rng, degree, branch, on_mult, distinct)
    if unit_sum:
        total = sum(abs(c) for c in poly_from_roots(roots, lead))
        lead /= 2.0 ** max(0, math.ceil(math.log2(total)))
    if wtype == "rational":
        den = [rng.choice(DEN_ROOTS) for _ in range(rng.randint(1, 2))]
        doc = {"type": "rational", "num": [pair(c) for c in poly_from_roots(roots, lead)],
               "den": [pair(c) for c in poly_from_roots(den)]}
        return doc, dict(_truth(roots, lead, den), roots=[pair(a) for a in roots], lead=pair(lead))
    coeffs = poly_from_roots(roots, lead)
    truth = dict(_truth(roots, lead), roots=[pair(a) for a in roots], lead=pair(lead))
    if wtype == "poly":
        return {"type": "poly", "coeffs": [pair(c) for c in coeffs]}, truth
    if wtype in ("taylor", "samples"):
        # these representations never go through root finding
        truth["defect"] = False
    if wtype == "taylor":
        return {"type": "taylor", "coeffs": [pair(c) for c in coeffs], "tail_bound": 1e-6,
                "tags": _TAGS[space]}, truth
    if wtype == "samples":
        grid = 128
        vals = [horner(coeffs, cmath.exp(2j * math.pi * j / grid)) for j in range(grid)]
        truth["sample_max"] = max(abs(v) for v in vals)
        return {"type": "samples", "values": [pair(v) for v in vals], "tags": _TAGS[space]}, truth
    raise ValueError(wtype)


def make_torus(rng, product):
    """A two variable weight p(z1) (single axis) or p(z1) q(z2) (product),
    with every zero off the circle so the torus mean converges."""
    p_roots = rng.sample(INSIDE + OUTSIDE, rng.randint(1, 2))
    q_roots = rng.sample(INSIDE + OUTSIDE, rng.randint(1, 2)) if product else []
    lead = rng.choice((1.0, 2.0, -1.0, 0.5))
    pc = poly_from_roots(p_roots, lead)
    qc = poly_from_roots(q_roots)
    terms = {}
    for i, a in enumerate(pc):
        for j, b in enumerate(qc):
            if a * b != 0:
                terms[(i, j)] = terms.get((i, j), 0) + a * b
    doc = {"type": "polynd", "dim": 2,
           "terms": [{"exp": list(e), "coeff": pair(c)} for e, c in sorted(terms.items())]}
    truth = dict(_truth(p_roots + q_roots, lead), roots=[pair(a) for a in p_roots + q_roots],
                 lead=pair(lead))
    # each factor has distinct zeros; a zero shared by p and q is in
    # another variable, not a repeated zero
    truth["defect"] = False
    if product:
        # the torus mean factorizes; the branch rules only read one axis
        truth["branch"] = None
    return doc, truth


def make_rotation(rng, kind):
    if kind == "named":
        return {"kind": "named", "name": rng.choice(sorted(NAMED))}
    if kind == "radians":
        return {"kind": "radians", "value": 2.0 * math.pi * rng.uniform(0.05, 0.95),
                "assumed_nonperiodic": True}
    if kind == "vector":
        names = rng.sample(sorted(NAMED), 2)
        return {"kind": "vector", "components": [{"kind": "named", "name": n} for n in names],
                "relations": []}
    if kind == "pq":
        q = rng.choice((2, 3, 4, 5, 6, 8))
        p = rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1])
        return {"kind": "rational", "p": p, "q": q}
    raise ValueError(kind)


# ----------------------------------------------------------------------
# expected classification
# ----------------------------------------------------------------------


def expected_report(space, wtype, truth):
    """sigma_ap (status, components), its citation, the outer radius of
    sigma and the exit code, as the README's rules give them."""
    g, w0, br = truth["g"], truth["w0"], truth["branch"]

    def by_branch(rule):
        if br == 1:
            return "exact", [["circle", w0]], "%s(1)" % rule, w0
        if br == 2:
            return "exact", [["circle", g]], "%s(2)" % rule, g
        return "exact", [["closed_disc", g]], "%s(3)" % rule, g

    exit_code = 0
    if space in _TRICHOTOMY:
        rule = _TRICHOTOMY[space]
        if wtype in ("poly", "rational"):
            status, comps, cite, outer = by_branch(rule)
        elif wtype == "taylor":
            status, comps, cite, outer = "exact", [["circle", g]], "%s(boundary-certified)" % rule, g
        elif space in _SUPNORM:
            status, comps, cite, outer = "unknown", [], "%s(unresolved)" % rule, truth["sample_max"]
            exit_code = 3
        else:
            status, comps, cite, outer = "bounds", [["closed_disc", g]], "%s(unresolved)" % rule, g
    elif space == "ell1a":
        rule = "wiener-series-circle"
        if wtype == "taylor":
            status, comps, cite, outer = "bounds", [["closed_disc", g]], "%s(unresolved)" % rule, g
        elif br == 1:
            status, comps, cite, outer = by_branch(rule)
        else:
            status, comps, cite, outer = "unknown", [], "%s(2)" % rule, g
            exit_code = 3
    elif space == "annulus_hardy":
        rule = "annulus-boundary-circles"
        lo, hi = sorted((truth["g"], truth["gR"]))
        if hi - lo <= 1e-9 * max(1.0, hi):
            status, comps, cite, outer = "exact", [["circle", 0.5 * (lo + hi)]], "%s(merged)" % rule, hi
        else:
            status, comps, cite, outer = "exact", [["circle", lo], ["circle", hi]], "%s(two-circles)" % rule, hi
    else:
        rule = "polydisc-algebra-cases" if space == "polydisc_algebra" else "polydisc-bergman-cases"
        if br is None:
            status, comps, cite, outer = "bounds", [["closed_disc", g]], "%s(unresolved)" % rule, g
        else:
            status, comps, cite, outer = by_branch(rule)
    return {"status": status, "components": comps, "citation": cite,
            "sigma_outer": outer, "exit": exit_code}


# ----------------------------------------------------------------------
# workload corpora
# ----------------------------------------------------------------------

_CLI_TYPES = {
    "ell1a": ("poly", "rational", "taylor", "poly"),
    "annulus_hardy": ("poly", "rational", "poly", "rational"),
    "polydisc_algebra": ("poly", "torus1", "torus2", "poly"),
    "polydisc_bergman": ("torus2", "poly", "poly", "torus1"),
}


def _job_doc(space, weight, rotation, params=None):
    doc = {"space": dict({"variant": space}, **SPACES[space]), "weight": weight, "rotation": rotation}
    if params:
        doc["params"] = params
    return doc


def cli_items(seed):
    """Items of the cli_classify workload: one job document each, run as
    classify, plot of the report, and radius; periodic (p/q) items are run
    through radius only, since classification needs a non periodic angle.
    Zeros are simple (on the circle exactly +-1 or +-i).
    """
    rng = random.Random("cli_classify:%d" % seed)
    spaces = list(SPACES)
    items = []
    j = 0  # index among the classify items
    for i in range(60):
        if i % 6 == 5:
            roots_branch = (1, 2, 3)[i % 3]
            w, truth = make_weight(rng, "poly", "bergman", rng.randint(1, 4), roots_branch)
            rot = make_rotation(rng, "pq")
            items.append({"doc": _job_doc("bergman", w, rot), "commands": ["radius"],
                          "space": "bergman", "wtype": "poly", "truth": truth})
            continue
        space = spaces[j % 12]
        wtype = _CLI_TYPES.get(space, ("poly", "rational", "taylor", "samples"))[(j // 12) % 4]
        j += 1
        if space.startswith("polydisc"):
            rot = make_rotation(rng, "vector")
        else:
            rot = make_rotation(rng, "radians" if i % 4 == 3 else "named")
        if wtype.startswith("torus"):
            w, truth = make_torus(rng, wtype == "torus2")
        else:
            if wtype in ("taylor", "samples") or space == "annulus_hardy":
                branch = rng.choice((1, 2))
            elif space == "ell1a" and wtype == "rational":
                branch = rng.choice((1, 2))
            else:
                branch = rng.choice((1, 2, 3))
            w, truth = make_weight(rng, wtype, space, rng.randint(1, 4), branch)
        items.append({"doc": _job_doc(space, w, rot), "commands": ["classify", "radius"],
                      "space": space, "wtype": wtype, "truth": truth,
                      "expect": expected_report(space, wtype, truth)})
    offset = seed % len(items)
    return items[offset:] + items[:offset]


VERIFY_SPACES = ("hardy_banach", "bergman", "dirichlet", "ell1a", "bloch")


def expected_verdicts(space, truth):
    """Allowed statuses per verify check (README, "Verify battery")."""
    model = space != "bloch"
    br = truth["branch"]
    ap_known = not (space == "ell1a" and br != 1)
    out = {
        "report-consistency": ["passed"],
        "radius-routes": ["passed"],
        "diagonal-candidates": ["passed"] if model else ["skipped"],
        "smoothing-identity": ["passed"] if model else ["skipped"],
        # interior zeros leave a singular value gap the audit may call
        # indeterminate; zero free weights have full rank
        "truncation-rank": (["passed"] if br == 1 else ["passed", "skipped"]) if model else ["skipped"],
        "pseudospectrum-trend": ["passed"] if (model and ap_known) else ["skipped"],
        "residual-decay": ["passed"] if ap_known else ["skipped"],
        "norm-ladder": {"bergman": ["passed"], "bloch": ["failed"]}.get(space, ["skipped"]),
    }
    return out


def verify_items(seed):
    """Items of verify_models: wro verify on the sequence model spaces and
    the Bloch space, polynomial weights of degree 1 to 6 with zeros off
    the circle, scaled to coefficient sum at most 1 so that the
    truncation norm stays below 5 (see ``defect_items``).  The space,
    degree and branch pattern is fixed."""
    rng = random.Random("verify_models:%d" % seed)
    items = []
    for i in range(60):
        space = VERIFY_SPACES[i % 5]
        degree = 1 + (i % 6)
        branch = 1 if (i // 5) % 2 == 0 else 2
        w, truth = make_weight(rng, "poly", space, degree, branch, unit_sum=True)
        rot = {"kind": "named", "name": ("golden", "sqrt2", "e_frac")[i % 3]}
        truth["theta"] = NAMED[rot["name"]]
        items.append({"doc": _job_doc(space, w, rot), "commands": ["verify"], "space": space,
                      "wtype": "poly", "truth": truth,
                      "verdicts": expected_verdicts(space, truth)})
    return items


SCAN_SPACES = ("bergman", "ell1a", "hardy_banach", "dirichlet")


def scan_items(seed):
    """Items of scan_dense: wro scan at the job defaults, then wro plot of
    the grid.  The series space (ell1a) only has a known approximate point
    spectrum for zero free weights, so its items are branch 1."""
    rng = random.Random("scan_dense:%d" % seed)
    items = []
    for i in range(24):
        space = SCAN_SPACES[i % 4]
        branch = 1 if space == "ell1a" or (i // 4) % 2 == 0 else 2
        w, truth = make_weight(rng, "poly", space, rng.randint(1, 4), branch)
        name = ("golden", "sqrt2", "e_frac")[i % 3]
        truth["theta"] = NAMED[name]
        truth["ap_radius"] = truth["w0"] if branch == 1 else truth["g"]
        items.append({"doc": _job_doc(space, w, {"kind": "named", "name": name}),
                      "commands": ["scan"], "space": space, "wtype": "poly", "truth": truth})
    return items


LIB_SPACES = ("disc_algebra", "bergman", "bloch", "dirichlet", "hinf", "hardy_banach",
              "ell1a", "annulus_hardy")


def lib_items(seed, count=2000):
    """Items of lib_sweep: one weight each, taken through classify,
    geometric_mean (both methods) and group_rotation_radius.  Every fourth
    item uses a periodic rotation (radius only)."""
    rng = random.Random("lib_sweep:%d" % seed)
    items = []
    for i in range(count):
        space = LIB_SPACES[i % len(LIB_SPACES)]
        periodic = i % 4 == 3
        wtype = "rational" if i % 5 == 4 and not periodic else "poly"
        w, truth = make_weight(rng, wtype, space, rng.randint(1, 4), rng.choice((1, 2)))
        rot = make_rotation(rng, "pq" if periodic else ("named" if i % 2 else "radians"))
        item = {"doc": _job_doc(space, w, rot), "space": space, "wtype": wtype, "truth": truth,
                "periodic": periodic}
        if not periodic:
            item["expect"] = expected_report(space, wtype, truth)
        items.append(item)
    return items


def defect_items(seed):
    """Inputs that hit the two known defects, kept out of every timed run.

    * repeated zeros (ROADMAP item 3): m-fold zeros on the circle
      (m = 2, 3) and repeated zeros off it, through classify and radius;
      companion matrix roots of an m-fold zero scatter by about
      eps^(1/m), so the program refuses the job, reports a wrong exact
      set or loses digits of the closed form radius;
    * verify's smoothing identity compares an absolute 1e-8 with a
      deviation whose rounding floor is about eps (1 + ||M||)^8, so it
      fails on unscaled weights whose truncation norm is above about 3.
    """
    rng = random.Random("defects:%d" % seed)
    items = []
    for i in range(12):
        space = ("bergman", "disc_algebra", "hinf", "dirichlet")[i % 4]
        on_mult = 2 + i % 2
        branch = 3 if i < 8 else 1 + i % 2
        while True:
            w, truth = make_weight(rng, "poly", space, rng.randint(on_mult, 4), branch, on_mult,
                                   distinct=False)
            if truth["defect"]:
                break
        items.append({"doc": _job_doc(space, w, make_rotation(rng, "named")),
                      "commands": ["classify", "radius"], "space": space, "wtype": "poly",
                      "truth": truth, "expect": expected_report(space, "poly", truth)})
    for i in range(8):
        space = VERIFY_SPACES[i % 4]
        w, truth = make_weight(rng, "poly", space, 4 + i % 3, 1)
        rot = {"kind": "named", "name": ("golden", "sqrt2", "e_frac")[i % 3]}
        truth["theta"] = NAMED[rot["name"]]
        truth["defect"] = True
        items.append({"doc": _job_doc(space, w, rot), "commands": ["verify"], "space": space,
                      "wtype": "poly", "truth": truth, "verdicts": expected_verdicts(space, truth)})
    return items


# ----------------------------------------------------------------------
# the coverage set of the traced run
# ----------------------------------------------------------------------

#: small numerical knobs so the coverage jobs touch every layer quickly
SMALL_PARAMS = {"truncation": 48, "ladder": [16, 32, 48], "m_ladder": [4, 8], "peak_power": 60,
                "grid": 256, "angles": 8, "m_max": 400}


def coverage_items(seed):
    """One small job per layer path, so a traced run of any workload
    reaches every traced function (verify on a model space, on ell1a and
    on Bloch; a scan; a Taylor classify; a periodic radius)."""
    rng = random.Random("coverage:%d" % seed)
    items = []
    for space in ("bergman", "ell1a", "bloch"):
        w, truth = make_weight(rng, "poly", space, 2, 1 if space == "ell1a" else 2)
        doc = _job_doc(space, w, {"kind": "named", "name": "golden"}, SMALL_PARAMS)
        items.append({"doc": doc, "commands": ["verify"], "space": space, "wtype": "poly",
                      "truth": truth, "verdicts": None})
    w, truth = make_weight(rng, "poly", "bergman", 2, 2)
    truth["theta"] = NAMED["golden"]
    truth["ap_radius"] = truth["g"]
    items.append({"doc": _job_doc("bergman", w, {"kind": "named", "name": "golden"}, SMALL_PARAMS),
                  "commands": ["scan"], "space": "bergman", "wtype": "poly", "truth": truth})
    w, truth = make_weight(rng, "taylor", "bergman", 2, 2)
    items.append({"doc": _job_doc("bergman", w, {"kind": "named", "name": "sqrt2"}),
                  "commands": ["classify", "radius"], "space": "bergman", "wtype": "taylor",
                  "truth": truth, "expect": expected_report("bergman", "taylor", truth)})
    w, truth = make_weight(rng, "poly", "bergman", 2, 2)
    rot = make_rotation(rng, "pq")
    items.append({"doc": _job_doc("bergman", w, rot), "commands": ["radius"], "space": "bergman",
                  "wtype": "poly", "truth": truth})
    return items
