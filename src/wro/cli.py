"""Command line front end.

Subcommands
-----------

classify   read a job document, classify the operator, write report JSON
verify     run every numerical cross check applicable to the job
scan       resolvent gap grid around the predicted circles, as CSV
plot       render a report (SVG rings) or a scan grid (SVG heat dots)
radius     compare the independent spectral radius routes

Exit codes: 0 success, 1 invalid input, 2 numerical or cross check
failure, 3 when the classification succeeded but at least one set came
back Unknown (the report is still written).

All output is deterministic for fixed inputs: JSON is written with
sorted keys, the scan CSV row order is the grid order, and the SVG
contains no timestamps or random identifiers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .analysis import (
    AnalysisError,
    ConvergenceError,
    geometric_mean,
)
from .classify import (
    REPORT_KEYS,
    Component,
    InconsistentReportError,
    SetReport,
    SpectrumReport,
    classify,
    origin_set,
    point_spectrum_candidates,
    report_consistency,
)
from .ergodic import group_rotation_radius
from .oracle import (
    MAX_LADDER_M,
    MAX_RESIDUAL_WINDOW,
    MAX_TRUNCATION,
    OracleError,
    build_truncation,
    check_smoothing_identity,
    norm_asymptotics,
    pseudospectrum_scan,
    residual_horizon,
    residual_window,
    singular_sequence_residual,
    smoothing_floor,
    truncation_rank,
)
from .weights import (
    Weight,
    WeightError,
    _is_real_number,
    _require_grid,
    parse_rotation,
    parse_space,
    parse_weight,
)


# ----------------------------------------------------------------------
# job documents
# ----------------------------------------------------------------------

#: tunables a job may override; everything else is an error
PARAM_DEFAULTS = {
    "grid": 4096,            # membership scan grid (power of two)
    "truncation": 256,       # matrix model order
    "ladder": [64, 128, 256],          # orders for the gap trend check
    "m_ladder": [4, 16, 64],           # smoothing half widths for residuals
    "peak_power": 400,       # power of the peaked polynomial
    "angles": 64,            # angles per circle in scans
    "radius_factors": [0.5, 0.75, 1.0, 1.25, 1.5],
    "m_max": 10000,          # top of the norm asymptotics ladder
}

_INT_PARAMS = ("grid", "truncation", "peak_power", "angles", "m_max")
_LIST_PARAMS = ("ladder", "m_ladder", "radius_factors")

#: membership scan budget: grid points times orbit horizon.  The scan
#: streams the orbit in blocks of a fixed size, so the cap bounds its
#: time, not its memory; the defaults use 4096 x 130, about an eighth of it
MAX_MEMBERSHIP_CELLS = 1 << 22
#: angles per circle in a scan
MAX_ANGLES = 1 << 14
#: epsilon and half width of the smoothing identity, which holds at every value
SMOOTHING_EPS = 0.5
SMOOTHING_N = 3
#: upper bounds of the integer tunables
_INT_CAPS = {
    "truncation": MAX_TRUNCATION,
    "m_max": MAX_LADDER_M,
    "angles": MAX_ANGLES,
}


@dataclass(frozen=True)
class JobDocument:
    """Parsed job: the operator data plus resolved tunables."""

    space: object
    weight: Weight
    rotation: object
    params: dict


def _positive_finite(x) -> bool:
    """x is a JSON number, not a boolean, with 0 < float(x) < inf."""
    if not _is_real_number(x):
        return False
    try:
        return 0.0 < float(x) < math.inf
    except OverflowError:   # an integer beyond the float range
        return False


def _merge_params(doc: dict) -> dict:
    """Defaults overridden by ``doc``, validated before any work: types,
    finiteness, and the size caps that bound time and memory."""
    out = dict(PARAM_DEFAULTS)
    unknown = set(doc) - set(PARAM_DEFAULTS)
    if unknown:
        raise WeightError("unknown params: %s" % sorted(unknown))
    out.update(doc)
    for name in _INT_PARAMS:
        val = out[name]
        if isinstance(val, bool) or not isinstance(val, int) or val < 1:
            raise WeightError("param %s must be a positive integer" % name)
    try:
        _require_grid(out["grid"])  # the membership scan's grid rule
    except WeightError as exc:
        raise WeightError("param grid: %s" % exc) from None
    for name in _LIST_PARAMS:
        val = out[name]
        integral = name != "radius_factors"
        if (
            not isinstance(val, (list, tuple))
            or not val
            or not all(_positive_finite(x) and (not integral or x == int(x)) for x in val)
        ):
            raise WeightError(
                "param %s must be a nonempty list of positive finite %s"
                % (name, "integers" if integral else "numbers")
            )
        out[name] = [int(x) if integral else float(x) for x in val]
    for name, cap in _INT_CAPS.items():
        if out[name] > cap:
            raise WeightError("param %s must be at most %d" % (name, cap))
    # the norm ladder judges its drift on two rungs; the residual needs m >= 2
    if out["m_max"] < 3:
        raise WeightError("param m_max must be at least 3")
    if min(out["m_ladder"]) < 2:
        raise WeightError("param m_ladder entries must be at least 2")
    if max(out["ladder"]) > MAX_TRUNCATION:
        raise WeightError("param ladder entries must be at most %d" % MAX_TRUNCATION)
    # the residual check scans orbits of residual_horizon(m) steps for each m
    horizon = residual_horizon(max(out["m_ladder"]))
    if out["grid"] * horizon > MAX_MEMBERSHIP_CELLS:
        raise WeightError(
            "params grid x orbit horizon = %d x %d exceed the budget of %d cells"
            % (out["grid"], horizon, MAX_MEMBERSHIP_CELLS)
        )
    return out


def load_job(path: str) -> JobDocument:
    """Read and validate a job document from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise WeightError("job document must be a JSON object")
    extra = set(doc) - {"space", "weight", "rotation", "params"}
    if extra:
        raise WeightError("unknown job fields: %s" % sorted(extra))
    for key in ("space", "weight", "rotation"):
        if key not in doc:
            raise WeightError("job document needs a %r field" % key)
    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise WeightError("params must be a JSON object")
    job = JobDocument(
        space=parse_space(doc["space"]),
        weight=parse_weight(doc["weight"]),
        rotation=parse_rotation(doc["rotation"]),
        params=_merge_params(params_doc),
    )
    # the residual check's window grows with peak_power, m_ladder and deg w
    try:
        residual_window(job.weight, max(job.params["m_ladder"]), job.params["peak_power"])
    except OracleError as exc:
        raise WeightError("params peak_power and m_ladder: %s (at most %d)"
                          % (exc, MAX_RESIDUAL_WINDOW)) from None
    return job


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------


def component_payload(comp: Component) -> dict:
    if comp.kind == "origin":
        return {"kind": "origin"}
    if comp.kind in ("circle", "open_disc", "closed_disc"):
        return {"kind": comp.kind, "radius": float(comp.r)}
    return {
        "kind": comp.kind,
        "inner_radius": float(comp.r_in),
        "outer_radius": float(comp.r_out),
    }


def _payload_radius(doc: dict, key: str) -> float:
    val = doc.get(key)
    if not _positive_finite(val):
        raise WeightError("component %s needs a positive finite %s, got %r"
                          % (doc.get("kind"), key, val))
    return float(val)


def component_from_payload(doc: dict) -> Component:
    if not isinstance(doc, dict):
        raise WeightError("a component must be a JSON object, got %r" % (doc,))
    kind = doc.get("kind")
    if kind == "origin":
        return Component("origin")
    if kind in ("circle", "open_disc", "closed_disc"):
        return Component(kind, r=_payload_radius(doc, "radius"))
    if kind in ("open_annulus", "closed_annulus"):
        return Component(kind, r_in=_payload_radius(doc, "inner_radius"),
                         r_out=_payload_radius(doc, "outer_radius"))
    raise WeightError("unknown component kind %r" % kind)


def _set_payload(sr: SetReport) -> dict:
    if sr.status.kind == "exact":
        status = "exact"
    elif sr.status.kind == "unknown":
        status = "unknown"
    else:
        status = {
            "kind": "bounds",
            "lower": [component_payload(c) for c in sr.status.lower.components],
            "upper": [component_payload(c) for c in sr.status.upper.components],
        }
    return {
        "components": [component_payload(c) for c in sr.set.components],
        "status": status,
        "citation": sr.citation,
    }


def spectrum_payload(report: SpectrumReport) -> dict:
    index_map = []
    for entry in report.index_map:
        index_map.append(
            {
                "component": component_payload(entry.component),
                "index": "-inf" if entry.minus_infinity else int(entry.index),
            }
        )
    return {
        "sets": {key: _set_payload(report.sets[key]) for key in REPORT_KEYS},
        "index_map": index_map,
        "open_flags": list(report.open_flags),
        "citations": list(report.citations),
        "inputs_echo": report.inputs_echo,
    }


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def cmd_classify(args) -> int:
    job = load_job(args.job)
    report = classify(job.space, job.weight, job.rotation)
    _write_text(args.out, _dump_json(spectrum_payload(report)))
    return 3 if report.has_unknown() else 0


# ----------------------------------------------------------------------
# radius routes
# ----------------------------------------------------------------------


def _radius_routes(job: JobDocument) -> Dict[str, Optional[float]]:
    w = job.weight
    routes: Dict[str, Optional[float]] = {
        "closed_form": None,
        "quadrature": None,
        "ergodic": None,
    }
    # geometric_mean refuses the routes a representation lacks
    for method in ("closed_form", "quadrature"):
        try:
            routes[method] = geometric_mean(w, 1.0, method=method)
        except (ConvergenceError, AnalysisError, WeightError):
            pass
    try:
        routes["ergodic"] = group_rotation_radius(w, job.rotation)
    except (ConvergenceError, AnalysisError, WeightError):
        pass
    return routes


#: relative spread within which the radius routes agree
ROUTE_TOL = 1e-9


def _routes_agree(routes: Dict[str, Optional[float]]) -> bool:
    vals = [v for v in routes.values() if v is not None]
    if len(vals) < 2:
        return True
    lo, hi = min(vals), max(vals)
    return (hi - lo) <= ROUTE_TOL * max(hi, 1e-300)


def cmd_radius(args) -> int:
    job = load_job(args.job)
    routes = _radius_routes(job)
    agree = _routes_agree(routes)
    payload = {"routes": routes, "agreement": agree, "tolerance": ROUTE_TOL}
    _write_text(args.out, _dump_json(payload))
    return 0 if agree else 2


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


def _circle_radii(sr: SetReport) -> List[float]:
    """Boundary radii of the display set, deduplicated, ascending."""
    out = set()
    for comp in sr.set.components:
        lo, hi, _, _ = comp.radial_interval()
        if hi > 0.0:
            out.add(float(hi))
        if lo > 0.0:
            out.add(float(lo))
    return sorted(out)


def cmd_scan(args) -> int:
    job = load_job(args.job)
    report = classify(job.space, job.weight, job.rotation)
    ap = report.sets["sigma_ap"]
    if ap.status.kind == "unknown" or ap.set.is_empty:
        raise OracleError("scan needs a known approximate point spectrum")
    base = _circle_radii(ap)
    radii = sorted({f * r for r in base for f in job.params["radius_factors"]})
    t = _matrix_model(job, job.params["truncation"])
    if isinstance(t, str):
        raise WeightError(t)
    grid = pseudospectrum_scan(t, radii, n_angles=job.params["angles"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re", "im", "gap"])
    for re, im, gap in grid.rows():
        writer.writerow([repr(re), repr(im), repr(gap)])
    _write_text(args.out, buf.getvalue())
    return 0


# ----------------------------------------------------------------------
# plot
# ----------------------------------------------------------------------

_SIGMA_COLOR = "#35507b"
_AP_COLOR = "#a03232"
_FILL_OPACITY = 0.15


def _svg_open(lines: List[str]) -> None:
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="0 0 640 640">'
    )
    lines.append('<rect width="640" height="640" fill="#ffffff"/>')


def _fmt(x: float) -> str:
    return "%.6f" % x


def _svg_circle(lines, r_px, color, width, dashed=False, fill=None):
    style = 'cx="320" cy="320" r="%s" stroke="%s" stroke-width="%s"' % (
        _fmt(r_px),
        color,
        _fmt(width),
    )
    if dashed:
        style += ' stroke-dasharray="6 4"'
    if fill is None:
        style += ' fill="none"'
    else:
        style += ' fill="%s" fill-opacity="%s"' % (fill, _fmt(_FILL_OPACITY))
    lines.append("<circle %s/>" % style)


def _svg_ring(lines, r_in_px, r_out_px, color):
    def loop(r):
        return (
            "M %s 320 A %s %s 0 1 0 %s 320 A %s %s 0 1 0 %s 320 Z"
            % (_fmt(320 + r), _fmt(r), _fmt(r), _fmt(320 - r), _fmt(r), _fmt(r), _fmt(320 + r))
        )

    d = loop(r_out_px) + " " + loop(r_in_px)
    lines.append(
        '<path d="%s" fill="%s" fill-opacity="%s" fill-rule="evenodd" stroke="none"/>'
        % (d, color, _fmt(_FILL_OPACITY))
    )


def _draw_component(lines, comp: Component, scale: float, color: str, dash_circles: bool):
    if comp.kind == "origin":
        lines.append('<circle cx="320" cy="320" r="3" fill="%s"/>' % color)
        return
    if comp.kind == "circle":
        _svg_circle(lines, comp.r * scale, color, 2.0, dashed=dash_circles)
        return
    if comp.kind in ("open_disc", "closed_disc"):
        _svg_circle(
            lines,
            comp.r * scale,
            color,
            1.5,
            dashed=comp.kind == "open_disc",
            fill=color,
        )
        return
    _svg_ring(lines, comp.r_in * scale, comp.r_out * scale, color)
    for r in (comp.r_in, comp.r_out):
        _svg_circle(lines, r * scale, color, 1.5, dashed=comp.kind == "open_annulus")


def _plot_report(doc: dict) -> str:
    sets = doc.get("sets", {})
    if not isinstance(sets, dict):
        raise WeightError("report sets must be a JSON object")
    comps = {}
    for key in ("sigma", "sigma_ap"):
        payload = sets.get(key, {})
        clist = payload.get("components", []) if isinstance(payload, dict) else None
        if not isinstance(clist, list):
            raise WeightError("report set %s must be an object with a components list" % key)
        comps[key] = [component_from_payload(c) for c in clist]
    rmax = 0.0
    for clist in comps.values():
        for comp in clist:
            rmax = max(rmax, comp.radial_interval()[1])
    scale = 280.0 / max(rmax, 1e-9)
    lines: List[str] = []
    _svg_open(lines)
    if scale <= 300.0:
        lines.append(
            '<circle cx="320" cy="320" r="%s" stroke="#cccccc" stroke-width="1.0" '
            'stroke-dasharray="2 2" fill="none"/>' % _fmt(scale)
        )
    for comp in comps["sigma"]:
        _draw_component(lines, comp, scale, _SIGMA_COLOR, dash_circles=False)
    for comp in comps["sigma_ap"]:
        _draw_component(lines, comp, scale, _AP_COLOR, dash_circles=True)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _plot_grid(rows: List[tuple]) -> str:
    res = np.array([r[0] for r in rows])
    ims = np.array([r[1] for r in rows])
    gaps = np.array([max(r[2], 1e-300) for r in rows])
    span = float(max(np.max(np.abs(res)), np.max(np.abs(ims)), 1e-9))
    scale = 280.0 / span
    logs = np.log10(gaps)
    lo, hi = float(logs.min()), float(logs.max())
    width = max(hi - lo, 1e-12)
    lines: List[str] = []
    _svg_open(lines)
    for (x, y, _), lg in zip(rows, logs):
        shade = int(round(255.0 * (1.0 - (lg - lo) / width)))
        color = "#%02x%02x%02x" % (shade, shade, shade)
        lines.append(
            '<circle cx="%s" cy="%s" r="2.5" fill="%s"/>'
            % (_fmt(320.0 + x * scale), _fmt(320.0 - y * scale), color)
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        svg = _plot_report(json.loads(text))
    else:
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["re", "im", "gap"]:
            raise WeightError("grid CSV must start with a re,im,gap header")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise WeightError("grid CSV rows need exactly re,im,gap")
            re, im, gap = (float(x) for x in row)
            if not (math.isfinite(re) and math.isfinite(im) and math.isfinite(gap) and gap >= 0.0):
                raise WeightError("grid CSV rows need finite re, im and a finite gap >= 0, got %s"
                                  % ",".join(row))
            rows.append((re, im, gap))
        if not rows:
            raise WeightError("grid CSV has no data rows")
        svg = _plot_grid(rows)
    _write_text(args.out, svg)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _matrix_model(job: JobDocument, order: int):
    """The job's truncation of ``order``, or the oracle's reason why the
    job has no matrix model (space, rotation or weight data)."""
    try:
        return build_truncation(job.space, job.weight, job.rotation, order)
    except OracleError as exc:
        return str(exc)


def _verdict(name, ok, data):
    return {"name": name, "status": "passed" if ok else "failed", "data": data}


def _skipped(name, reason):
    return {"name": name, "status": "skipped", "data": {"reason": reason}}


def _check_consistency(job, report):
    problems = report_consistency(report)
    data = {"violations": list(problems)}
    return _verdict("report-consistency", not problems, data)


def _check_radius_routes(job):
    routes = _radius_routes(job)
    vals = [v for v in routes.values() if v is not None]
    if len(vals) < 2:
        return _skipped("radius-routes", "fewer than two routes are available")
    data = {"routes": routes, "tolerance": ROUTE_TOL}
    return _verdict("radius-routes", _routes_agree(routes), data)


def _check_diagonal(job, model):
    if isinstance(model, str):
        return _skipped("diagonal-candidates", model)
    order = min(job.params["truncation"], 64)
    t = model.leading(order)
    cand = point_spectrum_candidates(job.weight, job.rotation, count=order)
    diag = t.bands[0]
    if cand:
        ok = np.array_equal(np.asarray(cand, dtype=complex), diag)
    else:
        ok = bool(np.all(diag == 0))
    data = {"order": order, "candidates": len(cand)}
    return _verdict("diagonal-candidates", ok, data)


def _check_smoothing(job, model):
    if isinstance(model, str):
        return _skipped("smoothing-identity", model)
    order = min(job.params["truncation"], 64)
    t = model.leading(order)
    dev = check_smoothing_identity(t, SMOOTHING_EPS, SMOOTHING_N)
    floor = smoothing_floor(t, SMOOTHING_N)
    data = {
        "order": order,
        "eps": SMOOTHING_EPS,
        "n": SMOOTHING_N,
        "deviation": dev,
        "tolerance": floor,
    }
    return _verdict("smoothing-identity", dev < floor, data)


def _check_rank(job, report, model):
    if isinstance(model, str):
        return _skipped("truncation-rank", model)
    if not job.weight.closed_form:
        return _skipped("truncation-rank", "needs a closed form one variable weight")
    order = job.params["truncation"]
    t = model.leading(order)
    result = truncation_rank(t)
    # the truncation is triangular: singular exactly when w(0) = 0
    sigma = report.sets["sigma"]
    invertible = sigma.status.kind == "exact" and not sigma.set.contains(origin_set())
    origin_zero = t.bands[0, 0] == 0
    data = {
        "order": order,
        "rank": result.rank,
        "kept_min": result.kept_min,
        "dropped_max": result.dropped_max,
        "indeterminate": result.indeterminate,
    }
    if result.indeterminate:
        return _skipped("truncation-rank", "the singular value gap is indeterminate")
    ok = not (invertible and result.rank != order) and not (origin_zero and result.rank >= order)
    return _verdict("truncation-rank", ok, data)


def _check_gap_trend(job, report, model):
    if isinstance(model, str):
        return _skipped("pseudospectrum-trend", model)
    ap = report.sets["sigma_ap"]
    if ap.status.kind == "unknown" or ap.set.is_empty:
        return _skipped("pseudospectrum-trend", "the approximate point spectrum is unknown")
    r_on = ap.set.outer_radius()
    sig_outer = report.sets["sigma"].set.outer_radius()
    if r_on <= 0.0 or sig_outer <= 0.0:
        return _skipped("pseudospectrum-trend", "no positive radius to probe")
    ladder = sorted(set(job.params["ladder"]))
    if len(ladder) < 2:
        return _skipped("pseudospectrum-trend", "the order ladder needs at least two entries")
    r_off = 1.25 * sig_outer
    on_gaps = []
    off_gaps = []
    floors = []
    for order in ladder:
        grid = pseudospectrum_scan(model.leading(order), [r_on, r_off], n_angles=8)
        on_gaps.append(float(np.max(grid.gaps[:8])))
        off_gaps.append(float(np.min(grid.gaps[8:])))
        floors.append(float(np.max(grid.floors[:8])))
    # on the predicted circle the gap must shrink with the order: it is
    # nonincreasing in exact arithmetic, so a step may rise by at most the
    # rounding floor of its larger order, and the top order's gap must lie
    # below the first's; at 25 percent relative distance outside it must
    # not collapse (stay at least half its value at the smallest order)
    shrinking = on_gaps[-1] < on_gaps[0] and all(
        b <= a + tol for a, b, tol in zip(on_gaps, on_gaps[1:], floors[1:])
    )
    stable_off = off_gaps[-1] >= 0.5 * off_gaps[0]
    data = {
        "orders": list(ladder),
        "on_circle_gaps": on_gaps,
        "tolerance": floors,
        "off_radius": r_off,
        "off_gaps": off_gaps,
    }
    ok = shrinking and stable_off
    return _verdict("pseudospectrum-trend", ok, data)


def _check_residual_decay(job, report, model):
    sp = job.space
    # load_job has already sized this window, so it cannot raise here
    if residual_window(job.weight, max(job.params["m_ladder"]), job.params["peak_power"]) is None:
        return _skipped("residual-decay", "needs a polynomial weight")
    # the space norm is the model's, or the Bloch norm
    if isinstance(model, str) and sp.variant != "bloch":
        return _skipped("residual-decay", model)
    ap = report.sets["sigma_ap"]
    if ap.status.kind == "unknown" or ap.set.is_empty:
        return _skipped("residual-decay", "the approximate point spectrum is unknown")
    lam = ap.set.outer_radius()
    rungs = sorted(set(job.params["m_ladder"]))
    if len(rungs) < 2:
        return _skipped("residual-decay", "the m ladder needs at least two entries")
    residuals = []
    try:
        for m in rungs:
            rep = singular_sequence_residual(
                sp,
                job.weight,
                job.rotation,
                lam,
                m,
                n=job.params["peak_power"],
                grid=job.params["grid"],
            )
            residuals.append(rep.residual)
    except OracleError as exc:
        return _verdict("residual-decay", False, {"error": str(exc), "residuals": residuals})
    data = {"lambda": lam, "m_ladder": rungs, "residuals": residuals}
    ok = all(b < a for a, b in zip(residuals, residuals[1:]))
    return _verdict("residual-decay", ok, data)


def _check_norm_ladder(job):
    sp = job.space
    if not (sp.variant == "bergman" and sp.p == 2 or sp.variant == "bloch"):
        return _skipped("norm-ladder", "ladder constants cover the Bergman (p = 2) and Bloch spaces")
    ladder = norm_asymptotics(sp, job.params["m_max"])
    top = ladder[-1][1]
    data = {"ladder": [[m, v] for m, v in ladder]}
    if sp.variant == "bergman":
        # convergence is judged on the top two rungs; the low rungs are
        # still climbing toward the limit by design
        data["drift"] = abs(top / ladder[-2][1] - 1.0)
        return _verdict("norm-ladder", data["drift"] < 0.02, data)
    expected = 4.0 * math.exp(-1.0)
    data.update(expected_constant=expected, top_value=top, relative_error=abs(top / expected - 1.0))
    return _verdict("norm-ladder", data["relative_error"] < 0.01, data)


def cmd_verify(args) -> int:
    job = load_job(args.job)
    report = classify(job.space, job.weight, job.rotation)
    # one truncation at the top order; every check reads its leading blocks
    model = _matrix_model(job, max(job.params["truncation"], *job.params["ladder"]))
    checks = [
        _check_consistency(job, report),
        _check_radius_routes(job),
        _check_diagonal(job, model),
        _check_smoothing(job, model),
        _check_rank(job, report, model),
        _check_gap_trend(job, report, model),
        _check_residual_decay(job, report, model),
        _check_norm_ladder(job),
    ]
    passed = all(c["status"] != "failed" for c in checks)
    ledger = {"space": job.space.variant, "checks": checks, "passed": passed}
    _write_text(args.out, _dump_json(ledger))
    return 0 if passed else 2


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wro",
        description="spectra of weighted rotation operators on analytic function spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a job and write the report JSON")
    p.add_argument("--job", required=True, help="path to the job document")
    p.add_argument("--out", "-o", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the numerical cross checks for a job")
    p.add_argument("--job", required=True, help="path to the job document")
    p.add_argument("--out", "-o", default=None, help="ledger path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="resolvent gap grid around the predicted circles")
    p.add_argument("--job", required=True, help="path to the job document")
    p.add_argument("--out", "-o", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("plot", help="render a report or scan grid as SVG")
    p.add_argument("--input", "-i", required=True, help="report JSON or grid CSV")
    p.add_argument("--out", "-o", default=None, help="SVG path (default stdout)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("radius", help="compare the spectral radius routes")
    p.add_argument("--job", required=True, help="path to the job document")
    p.add_argument("--out", "-o", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=cmd_radius)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, OracleError, InconsistentReportError, np.linalg.LinAlgError) as exc:
        # first: the last two subclass ValueError, which means bad input below
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
