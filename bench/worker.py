"""In-process side of the benchmark: runs inside a child interpreter with
the pinned environment and ``src`` on the path, so that imports happen
outside every timed region.

    python bench/worker.py SPEC.json OUT.json

SPEC modes:

``setup``  import ``wro.cli`` and parse every job document (the set-up
           step whose time is reported as setup_s).
``lib``    closed loop over the lib_sweep items for ``seconds``; per-job
           latencies, results, CPU time and peak RSS of the loop.
``trace``  replay the workload's jobs untraced within a budget, then the
           same jobs untraced again and traced, then the coverage jobs
           traced, then the per-point gap probes and the allocation probe
           untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tracemalloc
from time import perf_counter


def _now_cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _set_payload(sr):
    from wro.cli import component_payload

    return {"components": [component_payload(c) for c in sr.set.components],
            "status": sr.status.kind, "citation": sr.citation}


class LibJob:
    """One lib_sweep item, parsed at set-up."""

    def __init__(self, wro, item):
        from wro.weights import parse_rotation, parse_space, parse_weight

        self.wro = wro
        doc = item["doc"]
        self.space = parse_space(doc["space"])
        self.weight = parse_weight(doc["weight"])
        self.rotation = parse_rotation(doc["rotation"])
        self.periodic = item["periodic"]

    def run(self):
        wro = self.wro
        res = {}
        try:
            if not self.periodic:
                report = wro.classify(self.space, self.weight, self.rotation)
                res["sets"] = {k: _set_payload(report.sets[k]) for k in ("sigma", "sigma_ap")}
            res["gm_closed"] = wro.geometric_mean(self.weight, 1.0, method="closed_form")
            res["gm_quad"] = wro.geometric_mean(self.weight, 1.0, method="quadrature")
            res["radius"] = wro.group_rotation_radius(self.weight, self.rotation)
        except Exception as exc:  # a failed job is reported, not fatal
            res["error"] = "%s: %s" % (type(exc).__name__, exc)
        return res


def run_cli(main, argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except Exception as exc:  # the checker sees the exit as unexpected
            return "raised %s: %s" % (type(exc).__name__, exc)


def mode_setup(spec):
    import wro.cli

    if spec.get("lib_items"):
        for it in spec["lib_items"]:
            LibJob(wro, it)
    for path in spec.get("job_files", []):
        wro.cli.load_job(path)
    return {}


def mode_lib(spec):
    import wro

    jobs = [LibJob(wro, it) for it in spec["lib_items"]]
    lat, idx, results = [], [], {}
    deadline = spec["seconds"]
    cpu0 = _now_cpu()
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < deadline:
        k = i % len(jobs)
        s = perf_counter()
        res = jobs[k].run()
        lat.append(perf_counter() - s)
        idx.append(k)
        results.setdefault(k, res)
        i += 1
    wall = perf_counter() - t0
    return {"lat": lat, "idx": idx, "results": results, "wall_s": wall, "cpu_s": _now_cpu() - cpu0,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _replay(jobs, lib_jobs, main, tracer=None, budget=None):
    """Run job descriptors in order; stop starting new ones after
    ``budget`` seconds.  Returns (count, wall seconds, outcomes)."""
    outcomes = []
    t0 = perf_counter()
    for n, job in enumerate(jobs):
        if budget is not None and n and perf_counter() - t0 >= budget:
            break
        if tracer is not None:
            tracer.job = n
        if job["kind"] == "cli":
            outcomes.append(run_cli(main, job["argv"]))
        else:
            outcomes.append(lib_jobs[job["item"]].run())
    return len(outcomes), perf_counter() - t0, outcomes


def _gap_probe(wro, order, points):
    """Wall ms per point of pseudospectrum_scan on one circle at ``order``."""
    from wro.oracle import build_truncation, pseudospectrum_scan

    space = wro.weights.parse_space({"variant": "bergman", "p": 2})
    weight = wro.polynomial([1.0, -2.5, 1.0])
    t = build_truncation(space, weight, wro.named_rotation("golden"), order)
    pseudospectrum_scan(t, [2.0], n_angles=1)
    s = perf_counter()
    pseudospectrum_scan(t, [2.0], n_angles=points)
    ms = (perf_counter() - s) * 1e3 / points
    tracemalloc.start()
    pseudospectrum_scan(t, [2.0], n_angles=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return ms, peak


def mode_trace(spec):
    import wro
    import wro.cli
    from spans import Tracer

    lib_jobs = [LibJob(wro, it) for it in spec.get("lib_items", [])]
    jobs, coverage = spec["jobs"], spec["coverage"]
    # a first untraced pass warms caches and sets how many jobs the
    # measured passes run; the overhead compares the next two passes
    count, _, _ = _replay(jobs, lib_jobs, wro.cli.main, budget=spec["budget"])
    _, plain_wall, _ = _replay(jobs[:count], lib_jobs, wro.cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_wall, outcomes = _replay(jobs[:count], lib_jobs, wro.cli.main, tracer)
        _, _, cov_outcomes = _replay(coverage, lib_jobs, wro.cli.main, tracer)
    finally:
        tracer.uninstall()
    probes = {}
    for order, points in spec["gap_probe"]:
        probes[str(order)] = _gap_probe(wro, order, points)
    with open(spec["spans_path"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return {
        "count": count,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "outcomes": outcomes,
        "coverage_outcomes": cov_outcomes,
        "summary": tracer.summary(),
        "scan_in_cmd_scan_s": tracer.inclusive_under("oracle.pseudospectrum_scan", "cli.cmd_scan"),
        "counts": dict(tracer.counts),
        "probes": probes,
    }


def main():
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = {"setup": mode_setup, "lib": mode_lib, "trace": mode_trace}[spec["mode"]]
    out = mode(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
