"""Independent output checker.

Judges the program's outputs against the construction truth recorded by
``corpus`` and against the benchmark's own numerics.  It imports nothing
from ``wro``: the truncation matrix and its resolvent gap are rebuilt here
from the formula M[n, k] = alpha^k c_(n-k) nu_n / nu_k with the monomial
norms of the README's space table, using numpy's dense SVD (euclidean
models) or a general solve for the l^1 column sums (ell1a).

Every check returns a ``Verdict``: ``ok``; ``defect`` when the output is
wrong in one of two known ways; or ``error`` for any other mismatch.  Both
are failures.  The timed corpora avoid the known defects, whose inputs
are ``corpus.defect_items``; the defects are

* repeated zeros (ROADMAP item 3): companion matrix roots of an m-fold
  zero scatter by about eps^(1/m), so the classifier refuses the job or
  reports a wrong exact set, and the closed form radius loses digits;
* the smoothing identity check of ``wro verify`` compares an absolute
  1e-8 against a deviation whose rounding floor grows like ||M||^(2n+2),
  so it fails on truncations of norm above about 3.
"""

from __future__ import annotations

import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from corpus import NAMED, periodic_radius

#: relative tolerance on every reported radius and mean
REL_TOL = 1e-9

CHECK_NAMES = ("report-consistency", "radius-routes", "diagonal-candidates", "smoothing-identity",
               "truncation-rank", "pseudospectrum-trend", "residual-decay", "norm-ladder")
#: absolute tolerance of the verify battery's smoothing identity check
SMOOTHING_TOL = 1e-8
RADIUS_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
SCAN_ORDER = 256
SCAN_ANGLES = 64


@dataclass(frozen=True)
class Verdict:
    kind: str          # "ok" | "defect" | "error"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.kind != "ok"


OK = Verdict("ok")


def mismatch(item, detail: str) -> Verdict:
    return Verdict("defect" if item["truth"].get("defect") else "error", detail)


def _close(a, b, rel=REL_TOL) -> bool:
    return a is not None and abs(a - b) <= rel * abs(b)


def expected_ergodic(item):
    """The group rotation radius the construction implies: the periodic
    orbit maximum for p/q rotations, the boundary mean g otherwise, and
    nothing for raw radians without the non periodic declaration."""
    rot = item["doc"]["rotation"]
    truth = item["truth"]
    if rot["kind"] == "rational":
        return periodic_radius([complex(*a) for a in truth["roots"]], complex(*truth["lead"]), rot["q"])
    if rot["kind"] == "radians" and not rot.get("assumed_nonperiodic"):
        return None
    return truth["g"]


# ----------------------------------------------------------------------
# classify, radius, lib results
# ----------------------------------------------------------------------


def _status_kind(status) -> str:
    return status if isinstance(status, str) else status["kind"]


def check_sigma_ap(item, sets) -> Verdict:
    """Compare sigma_ap (status, components, citation) and the outer radius
    of sigma with the expectation; ``sets`` is the report's "sets" map."""
    exp = item["expect"]
    ap = sets["sigma_ap"]
    if _status_kind(ap["status"]) != exp["status"]:
        return mismatch(item, "sigma_ap status %s, expected %s" % (_status_kind(ap["status"]), exp["status"]))
    if ap["citation"] != exp["citation"]:
        return mismatch(item, "citation %s, expected %s" % (ap["citation"], exp["citation"]))
    comps = ap["components"]
    if len(comps) != len(exp["components"]):
        return mismatch(item, "sigma_ap has %d components, expected %d" % (len(comps), len(exp["components"])))
    for got, (kind, radius) in zip(comps, exp["components"]):
        if got["kind"] != kind or not _close(got.get("radius"), radius):
            return mismatch(item, "sigma_ap component %r, expected %s of radius %r" % (got, kind, radius))
    outer = 0.0
    for comp in sets["sigma"]["components"]:
        outer = max(outer, comp.get("radius", comp.get("outer_radius", 0.0)))
    if not _close(outer, exp["sigma_outer"]):
        return mismatch(item, "sigma outer radius %r, expected %r" % (outer, exp["sigma_outer"]))
    return OK


def check_report(item, text: str, rc: int) -> Verdict:
    exp = item["expect"]
    if rc != exp["exit"]:
        return mismatch(item, "classify exit %d, expected %d" % (rc, exp["exit"]))
    try:
        report = json.loads(text)
    except ValueError as exc:
        return Verdict("error", "report is not JSON: %s" % exc)
    return check_sigma_ap(item, report["sets"])


def check_radius(item, text: str, rc: int) -> Verdict:
    """Each reported route must match its own truth; the agreement flag and
    the exit code must follow from the reported values."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return mismatch(item, "radius output is not JSON (exit %d): %s" % (rc, exc))
    routes = out["routes"]
    g = item["truth"]["g"]
    erg = expected_ergodic(item)
    closed = item["wtype"] in ("poly", "rational")
    if closed and routes.get("closed_form") is None:
        return mismatch(item, "closed form route missing")
    if (erg is None) != (routes.get("ergodic") is None):
        return mismatch(item, "ergodic route %r, expected %r" % (routes.get("ergodic"), erg))
    for name, want in (("closed_form", g), ("quadrature", g), ("ergodic", erg)):
        got = routes.get(name)
        if got is not None and not _close(got, want):
            return mismatch(item, "%s route %r, expected %r" % (name, got, want))
    vals = [v for v in routes.values() if v is not None]
    agree = len(vals) < 2 or max(vals) - min(vals) <= REL_TOL * max(max(vals), 1e-300)
    if out["agreement"] != agree or rc != (0 if agree else 2):
        return Verdict("error", "agreement %r with exit %d, routes %r" % (out["agreement"], rc, routes))
    return OK


def check_lib(item, res: dict) -> Verdict:
    """One lib_sweep job: means by both methods, the rotation radius and
    (non periodic items) the classification."""
    if res.get("error"):
        return mismatch(item, "raised %s" % res["error"])
    g = item["truth"]["g"]
    if not _close(res["gm_closed"], g):
        return mismatch(item, "closed form mean %r, expected %r" % (res["gm_closed"], g))
    if not _close(res["gm_quad"], g):
        return mismatch(item, "quadrature mean %r, expected %r" % (res["gm_quad"], g))
    erg = expected_ergodic(item)
    if not _close(res["radius"], erg):
        return mismatch(item, "group rotation radius %r, expected %r" % (res["radius"], erg))
    if "expect" in item:
        return check_sigma_ap(item, res["sets"])
    return OK


# ----------------------------------------------------------------------
# verify ledgers
# ----------------------------------------------------------------------


def check_ledger(item, text: str, rc: int) -> Verdict:
    try:
        ledger = json.loads(text)
    except ValueError as exc:
        return mismatch(item, "ledger is not JSON (exit %d): %s" % (rc, exc))
    checks = ledger["checks"]
    if tuple(c["name"] for c in checks) != CHECK_NAMES:
        return Verdict("error", "ledger checks %r" % [c["name"] for c in checks])
    passed = all(c["status"] != "failed" for c in checks)
    if ledger["passed"] != passed or rc != (0 if passed else 2):
        return Verdict("error", "ledger passed=%r with exit %d" % (ledger["passed"], rc))
    table = item.get("verdicts")
    if table:
        for c in checks:
            if c["status"] in table[c["name"]]:
                continue
            detail = "%s is %s, expected %s" % (c["name"], c["status"], "/".join(table[c["name"]]))
            if c["name"] == "smoothing-identity" and smoothing_floor(item) > 0.1 * SMOOTHING_TOL:
                return Verdict("defect", detail + " (absolute tolerance below the rounding floor)")
            return mismatch(item, detail)
    routes = next(c for c in checks if c["name"] == "radius-routes")
    if routes["status"] == "passed":
        for name, val in routes["data"]["routes"].items():
            if val is not None and not _close(val, item["truth"]["g"]):
                return mismatch(item, "verify %s route %r, expected %r" % (name, val, item["truth"]["g"]))
    return OK


def smoothing_floor(item) -> float:
    """Rounding floor of the smoothing identity check: the identity
    multiplies 2n + 1 truncations (order <= 64), so its computed deviation
    can reach about eps (1 + ||M||)^(2n + 2) whatever the tolerance."""
    params = item["doc"].get("params", {})
    order = min(params.get("truncation", SCAN_ORDER), 64)
    n = params.get("smoothing_n", 3)
    m = truncation(item["doc"]["space"]["variant"], item["doc"]["weight"]["coeffs"],
                   NAMED[item["doc"]["rotation"]["name"]], order)
    norm = float(np.linalg.norm(m, 2))
    return np.finfo(float).eps * (1.0 + norm) ** (2 * n + 2)


# ----------------------------------------------------------------------
# scans: the benchmark's own truncation and resolvent gap
# ----------------------------------------------------------------------


def monomial_norms(variant: str, order: int) -> np.ndarray:
    ks = np.arange(order, dtype=float)
    if variant in ("hardy_banach", "ell1a"):
        return np.ones(order)
    if variant == "bergman":
        return np.sqrt(np.pi / (ks + 1.0))
    if variant == "dirichlet":
        return np.concatenate([[1.0], np.sqrt(np.pi * ks[1:])])
    raise ValueError("no sequence model for %r" % variant)


def truncation(variant: str, coeffs, theta: float, order: int) -> np.ndarray:
    """M[n, k] = alpha^k c_(n-k) nu_n / nu_k for n >= k, zero above."""
    c = np.zeros(order, dtype=complex)
    src = np.asarray([complex(*x) if isinstance(x, list) else complex(x) for x in coeffs])
    c[: min(order, src.size)] = src[:order]
    nus = monomial_norms(variant, order)
    alpha = np.exp(2j * np.pi * theta)
    n, k = np.meshgrid(np.arange(order), np.arange(order), indexing="ij")
    m = np.where(n >= k, c[np.clip(n - k, 0, order - 1)], 0.0)
    return m * alpha ** np.arange(order)[None, :] * (nus[:, None] / nus[None, :])


def own_gap(variant: str, m: np.ndarray, lam: complex):
    """(gap, tolerance): 1/||(lam I - M)^-1|| in the model norm, and the
    absolute accuracy any backward stable route can claim, 4 N eps ||A||,
    which is the floor inside the spectrum where the gap is roundoff."""
    a = lam * np.eye(m.shape[0]) - m
    floor = 4 * m.shape[0] * np.finfo(float).eps
    if variant == "ell1a":
        inv = np.linalg.solve(a, np.eye(m.shape[0]))
        return 1.0 / float(np.abs(inv).sum(axis=0).max()), floor * float(np.abs(a).sum(axis=0).max())
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1]), floor * float(s[0])


def parse_grid(text: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "re,im,gap":
        raise ValueError("grid CSV header is %r" % (lines[:1],))
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:] if ln.strip()])


def check_scan(item, text: str, rc: int, rows_to_check) -> Verdict:
    """Grid layout from the construction (radius factors times the radius
    of the predicted circle) and the gap at ``rows_to_check``, a list of
    row indices, against the benchmark's own truncation."""
    if rc != 0:
        return mismatch(item, "scan exit %d" % rc)
    try:
        grid = parse_grid(text)
    except ValueError as exc:
        return Verdict("error", str(exc))
    params = item["doc"].get("params", {})
    angles = params.get("angles", SCAN_ANGLES)
    order = params.get("truncation", SCAN_ORDER)
    r0 = item["truth"]["ap_radius"]
    radii = sorted({f * r0 for f in RADIUS_FACTORS})
    want = np.concatenate([r * np.exp(2j * np.pi * np.arange(angles) / angles) for r in radii])
    if grid.shape != (want.size, 3):
        return mismatch(item, "grid has shape %r, expected (%d, 3)" % (grid.shape, want.size))
    if np.max(np.abs(grid[:, 0] + 1j * grid[:, 1] - want)) > 1e-12 * max(radii):
        return mismatch(item, "grid points are not the predicted circles")
    variant = item["doc"]["space"]["variant"]
    m = truncation(variant, item["doc"]["weight"]["coeffs"], item["truth"]["theta"], order)
    for i in rows_to_check:
        gap, tol = own_gap(variant, m, complex(grid[i, 0], grid[i, 1]))
        if abs(grid[i, 2] - gap) > REL_TOL * gap + tol:
            return Verdict("error", "row %d: gap %r, own %r (tolerance %.3g)" % (i, grid[i, 2], gap, REL_TOL * gap + tol))
    return OK


# ----------------------------------------------------------------------
# plots
# ----------------------------------------------------------------------


def check_svg(text: str, again: str = None) -> Verdict:
    """Well formed SVG; byte identical to ``again`` when given."""
    try:
        root = ET.parse(io.StringIO(text)).getroot()
    except ET.ParseError as exc:
        return Verdict("error", "SVG is not well formed: %s" % exc)
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return Verdict("error", "SVG root is %r" % root.tag)
    if again is not None and again != text:
        return Verdict("error", "two plots of one input differ")
    return OK
