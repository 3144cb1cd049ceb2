#!/usr/bin/env python3
"""Benchmark of the wro command line and library, run against the tree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --defects [--seed N]
    python3 bench/run.py --write-benchmark-json

Workloads (each a closed loop with one client: a job starts only after
the previous one has exited):

cli_classify   ``wro classify``, ``wro plot`` of the report and ``wro
               radius`` over every space variant and weight type; one CLI
               process is one job.  Start-up and imports dominate.
verify_models  ``wro verify`` on the sequence model spaces and Bloch; one
               process is one job.  The oracle at small truncation orders.
scan_dense     ``wro scan`` at the job defaults then ``wro plot`` of the
               grid; the pair is one job.  The gap layer at order 256.
lib_sweep      classify, geometric_mean (both methods) and
               group_rotation_radius in one process with imports outside
               the timing; one weight is one job.

Every child gets a pinned environment (PYTHONPATH=src, WRO_THREADS=2,
OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1) so worker threads never exceed
two.  Each output is judged by ``check.py`` against the construction truth
of ``corpus.py``.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the workload's jobs are replayed in one process with
spans around each layer (``spans.py``) and the per-layer metrics are
printed.  The last line of standard output is the JSON result; the full
record (environment, every job, every failure) is written under
``.bench_work/results``.

The timed corpora hold no input of a known defect, so every failed
operation is a regression and makes the run incorrect; ``--defects``
runs the inputs of the known defects once and lists the wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PINNED = {"PYTHONPATH": "src", "WRO_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# the checker's own linear algebra runs between jobs, single threaded too
os.environ.update({k: v for k, v in PINNED.items() if k != "PYTHONPATH"})

import numpy as np  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
SETUP_REPS = 3
GAP_PROBE = ((64, 16), (128, 16), (256, 8), (1024, 2))
SCAN_ROWS_CHECKED = 4

WORKLOADS = {
    "cli_classify": "one CLI process per job over all 12 spaces and 5 weight types; start-up and import bound",
    "verify_models": "wro verify on the model spaces and Bloch: the oracle at orders 64-256, rank, residuals",
    "scan_dense": "wro scan at order 256 (320 points) then plot: the dense per-point resolvent gap",
    "lib_sweep": "in-process classify, both geometric means and rotation radii: analysis, classify, ergodic",
}

# Bounds: on a shared two-CPU host the speed of a 20 s run drifts by 10 to
# 20 percent between runs (CPU time drifts with wall time), so every
# timing metric gets the largest bound allowed; memory is steady.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_ms", "ms", "lower", 0.25),
    ("job_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_job", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CHECKS = tuple(check.CHECK_NAMES)
PER_LAYER = (
    [("startup.interpreter_ms", "ms", "lower"), ("startup.import_numpy_ms", "ms", "lower"),
     ("startup.import_scipy_ms", "ms", "lower"), ("startup.import_wro_cli_ms", "ms", "lower"),
     ("cli.load_job.calls", "count", "higher"), ("cli.load_job.self_ms", "ms", "lower"),
     ("cli.serialize.self_ms", "ms", "lower"), ("cli.cmd_plot.self_ms", "ms", "lower")]
    + [("cli.check.%s.ms" % n, "ms", "lower") for n in CHECKS]
    + [(p + s, u, b) for p in ("analysis.find_zeros", "analysis.geometric_mean",
                               "analysis.factorization_summary", "analysis.invertibility_profile",
                               "classify.classify", "ergodic.ap_membership",
                               "ergodic.group_rotation_radius", "oracle.build_truncation",
                               "oracle.bloch_norm")
       for s, u, b in ((".calls", "count", "higher"), (".self_ms", "ms", "lower"))]
    + [("classify.report_consistency.self_ms", "ms", "lower"),
       ("ergodic.ap_membership.refined_frac", "frac", "lower"),
       ("ergodic.ordered_parallel_map.items", "count", "higher"),
       ("oracle.pseudospectrum_scan.points", "count", "higher"),
       ("oracle.pseudospectrum_scan.self_ms", "ms", "lower")]
    + [("oracle.gap_ms_per_point.n%d" % n, "ms", "lower") for n, _ in GAP_PROBE]
    + [("oracle.gap_bytes_per_point.n256", "B", "lower"),
       ("oracle.truncation_rank.self_ms", "ms", "lower"),
       ("oracle.check_smoothing_identity.self_ms", "ms", "lower"),
       ("oracle.singular_sequence_residual.self_ms", "ms", "lower"),
       ("oracle.norm_asymptotics.self_ms", "ms", "lower"),
       ("trace.overhead_frac", "frac", "lower")]
)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    return env


def spawn(argv, log=None):
    """Run a child to completion: (exit code, wall s, CPU s, peak RSS KiB)."""
    with open(log or os.devnull, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def run_worker(spec, tag):
    spec_path = WORK / ("%s.spec.json" % tag)
    out_path = WORK / ("%s.out.json" % tag)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rc, wall, cpu, rss = spawn([sys.executable, "bench/worker.py", str(spec_path), str(out_path)],
                               log=WORK / ("%s.log" % tag))
    if rc != 0:
        raise RuntimeError("worker %s exited %d, see %s" % (tag, rc, WORK / ("%s.log" % tag)))
    return json.loads(out_path.read_text(encoding="utf-8")), wall, cpu, rss


def wro_cli(*args):
    return [sys.executable, "-m", "wro.cli"] + list(args)


# ----------------------------------------------------------------------
# job plans
# ----------------------------------------------------------------------


class Plan:
    """A workload's items, job files and job list for one seed.

    A job is a list of steps (command, input, output) run back to back:
    classify is followed by a plot of its report (twice for every fourth
    item, to check the SVG is byte identical), scan by a plot of its grid.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload
        make = {"cli_classify": corpus.cli_items, "verify_models": corpus.verify_items,
                "scan_dense": corpus.scan_items, "lib_sweep": corpus.lib_items,
                "coverage": corpus.coverage_items, "defects": corpus.defect_items}[workload]
        self.items = make(seed)
        self.jobs = []
        for k, item in enumerate(self.items):
            job = self.path(k, "job.json")
            for cmd in item.get("commands", ["lib"]):
                if cmd == "lib":
                    self.jobs.append((k, [("lib", None, None)]))
                elif cmd == "scan":
                    csv = self.path(k, "csv")
                    self.jobs.append((k, [("scan", job, csv), ("plot", csv, self.path(k, "grid.svg"))]))
                elif cmd == "classify":
                    rep = self.path(k, "report.json")
                    self.jobs.append((k, [("classify", job, rep)]))
                    self.jobs.append((k, [("plot", rep, self.path(k, "svg"))]))
                    if k % 4 == 0:
                        self.jobs.append((k, [("plot", rep, self.path(k, "svg2"))]))
                else:
                    self.jobs.append((k, [(cmd, job, self.path(k, cmd + ".json"))]))

    def path(self, k, suffix):
        return str(self.dir / ("%d.%s" % (k, suffix)))

    def write(self):
        # outputs of earlier runs must not be mistaken for this run's
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.workload == "lib_sweep":
            return
        for k, item in enumerate(self.items):
            Path(self.path(k, "job.json")).write_text(json.dumps(item["doc"]), encoding="utf-8")

    def setup_spec(self):
        if self.workload == "lib_sweep":
            return {"mode": "setup", "lib_items": self.items}
        return {"mode": "setup", "job_files": [self.path(k, "job.json") for k in range(len(self.items))]}


def argv_of(step):
    cmd, src, out = step
    if cmd == "plot":
        return ["plot", "--input", src, "--out", out]
    return [cmd, "--job", src, "--out", out]


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def check_step(plan, k, step, rc, rng):
    """Verdict of one CLI step from its exit code and output file."""
    item = plan.items[k]
    cmd, src, out = step
    if isinstance(rc, str):
        return check.Verdict("error", rc)
    text = _read(out)
    if cmd == "classify":
        if text is None and rc == 1:
            return check.mismatch(item, "classify refused the job (exit 1)")
        return check.check_report(item, text or "", rc)
    if cmd == "radius":
        return check.check_radius(item, text or "", rc)
    if cmd == "verify":
        return check.check_ledger(item, text or "", rc)
    if cmd == "scan":
        rows = rng.sample(range(5 * corpus_angles(item)), SCAN_ROWS_CHECKED)
        return check.check_scan(item, text or "", rc, rows)
    if rc != 0 or text is None:
        return check.Verdict("error", "plot exit %r" % rc)
    again = _read(out[:-1]) if out.endswith(".svg2") else None
    return check.check_svg(text, again)


def corpus_angles(item):
    return item["doc"].get("params", {}).get("angles", check.SCAN_ANGLES)


def plot_input_missing(step):
    return step[0] == "plot" and not Path(step[1]).exists()


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def setup(plan):
    """Set-up time, repeated: generate the corpus, write the job files and
    let a fresh interpreter import wro.cli and parse every document."""
    times = []
    for rep in range(SETUP_REPS):
        start = perf_counter()
        fresh = Plan(plan.workload, plan.seed)
        fresh.write()
        run_worker(fresh.setup_spec(), "%s-setup" % plan.workload)
        times.append(perf_counter() - start)
    return times


def measure_cli(plan, seconds):
    records = []
    start = perf_counter()
    n = 0
    while perf_counter() - start < seconds:
        k, steps = plan.jobs[n % len(plan.jobs)]
        n += 1
        if plot_input_missing(steps[0]):
            continue
        rec = {"item": k, "steps": [], "wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0}
        for step in steps:
            rc, wall, cpu, rss = spawn(wro_cli(*argv_of(step)))
            rec["steps"].append([step, rc])
            rec["wall_s"] += wall
            rec["cpu_s"] += cpu
            rec["rss_kb"] = max(rec["rss_kb"], rss)
        records.append(rec)
    return records, perf_counter() - start


def verdicts_cli(plan, records):
    rng = random.Random("rows:%s:%d" % (plan.workload, plan.seed))
    for rec in records:
        verdicts = [check_step(plan, rec["item"], step, rc, rng) for step, rc in rec["steps"]]
        rec["verdict"] = next((v for v in verdicts if v.failed), check.OK)


def measure_lib(plan, seconds):
    out, _, _, _ = run_worker({"mode": "lib", "lib_items": plan.items, "seconds": seconds},
                              "lib_sweep-loop")
    records = [{"item": k, "wall_s": lat} for k, lat in zip(out["idx"], out["lat"])]
    verdicts = {}
    for rec in records:
        k = rec["item"]
        if k not in verdicts:
            verdicts[k] = check.check_lib(plan.items[k], out["results"][str(k)])
        rec["verdict"] = verdicts[k]
    return records, out


def end_to_end(plan, seconds):
    setup_times = setup(plan)
    if plan.workload == "lib_sweep":
        records, out = measure_lib(plan, seconds)
        wall, cpu, rss_kb = out["wall_s"], out["cpu_s"], out["maxrss_kb"]
    else:
        records, wall = measure_cli(plan, seconds)
        verdicts_cli(plan, records)
        cpu = sum(r["cpu_s"] for r in records)
        # a few jobs (deep quadrature doubling) peak far above the rest,
        # so the typical job's peak is reported, not the run's maximum
        rss_kb = stats.median([r["rss_kb"] for r in records])
    lat_ms = [r["wall_s"] * 1e3 for r in records]
    pct, tail_ms, n, rule_met = stats.tail(lat_ms)
    metrics = {
        "setup_s": stats.median(setup_times),
        "jobs_per_s": len(records) / wall,
        "job_p50_ms": stats.median(lat_ms),
        "job_tail_ms": tail_ms,
        "cpu_ms_per_job": cpu * 1e3 / len(records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"setup_times_s": setup_times, "tail_percentile": pct, "tail_rule_met": rule_met,
             "samples": n, "loop_wall_s": wall}
    return metrics, records, notes


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def parse_importtime(text):
    """(total ms of the top level wro imports, numpy ms, scipy ms) from
    ``-X importtime`` output; numpy and scipy count their outermost
    entries only."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cum), name.strip()))
    wro_us = numpy_us = scipy_us = 0
    stack = []
    # a module is printed after its imports, so reading backwards visits
    # every parent before its children
    for depth, cum, name in reversed(entries):
        stack = stack[:depth] + [name]
        outer = {a.split(".")[0] for a in stack[:-1]}
        pkg = name.split(".")[0]
        if depth == 0 and pkg == "wro":
            wro_us += cum
        if pkg == "numpy" and not outer & {"numpy", "scipy"}:
            numpy_us += cum
        if pkg == "scipy" and "scipy" not in outer:
            scipy_us += cum
    return wro_us / 1e3, numpy_us / 1e3, scipy_us / 1e3


def startup_probe():
    runs = []
    log = WORK / "importtime.log"
    for _ in range(SETUP_REPS):
        rc, wall, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import wro.cli"], log=log)
        if rc != 0:
            raise RuntimeError("import wro.cli failed, see %s" % log)
        wro_ms, numpy_ms, scipy_ms = parse_importtime(log.read_text(encoding="utf-8"))
        runs.append((wall * 1e3 - wro_ms, numpy_ms, scipy_ms, wro_ms))
    names = ("startup.interpreter_ms", "startup.import_numpy_ms", "startup.import_scipy_ms",
             "startup.import_wro_cli_ms")
    return {name: stats.median([r[i] for r in runs]) for i, name in enumerate(names)}


def replay_jobs(plan, suffix):
    """In-process job descriptors; outputs go to files with ``suffix`` so
    they are checked apart from the subprocess run's."""
    descs, owners = [], []
    for k, steps in plan.jobs:
        for cmd, src, out in steps:
            if cmd == "lib":
                descs.append({"kind": "lib", "item": k})
                owners.append((k, (cmd, None, None)))
                continue
            step = (cmd, src + suffix if cmd == "plot" else src, out + suffix)
            descs.append({"kind": "cli", "argv": argv_of(step)})
            owners.append((k, step))
    return descs, owners


def layer_value(name, summary, out, startup):
    """One per-layer metric from the span summary ({span: (calls,
    inclusive s, self s)}), the counts and probes of the traced worker and
    the start-up probe.  ``<span>.self_ms`` and ``<span>.ms`` are self and
    inclusive time per call."""
    if name in startup:
        return startup[name]
    if name == "trace.overhead_frac":
        return out["traced_wall_s"] / out["plain_wall_s"] - 1.0
    span, _, stat = name.rpartition(".")
    calls, incl, own = summary.get(span, (0, 0.0, 0.0))
    if stat == "calls":
        return calls
    if stat in ("self_ms", "ms"):
        return (own if stat == "self_ms" else incl) * 1e3 / calls if calls else 0.0
    if stat == "refined_frac":
        return out["counts"].get(span + ".refined", 0) / calls if calls else 0.0
    if stat in ("items", "points"):
        return out["counts"].get(name, 0)
    probe = out["probes"][stat[1:]]
    return probe[0] if span == "oracle.gap_ms_per_point" else probe[1]


def traced(plan, seconds):
    setup_times = setup(plan)
    cov = Plan("coverage", plan.seed)
    cov.write()
    descs, owners = replay_jobs(plan, ".t")
    cov_descs, cov_owners = replay_jobs(cov, ".t")
    spans_path = WORK / "results" / ("spans-%s-s%d.json" % (plan.workload, plan.seed))
    spec = {"mode": "trace", "jobs": descs, "coverage": cov_descs, "budget": seconds / 3.0,
            "gap_probe": GAP_PROBE, "spans_path": str(spans_path),
            "lib_items": plan.items if plan.workload == "lib_sweep" else []}
    startup = startup_probe()
    out, _, _, _ = run_worker(spec, "%s-trace" % plan.workload)

    rng = random.Random("rows:trace:%d" % plan.seed)
    verdicts = []
    for p, pairs in ((plan, zip(owners, out["outcomes"])), (cov, zip(cov_owners, out["coverage_outcomes"]))):
        for (k, step), outcome in pairs:
            if step[0] == "lib":
                verdicts.append(check.check_lib(p.items[k], outcome))
            elif not plot_input_missing(step):
                verdicts.append(check_step(p, k, step, outcome, rng))

    summary = {k: tuple(v) for k, v in out["summary"].items()}
    m = {name: layer_value(name, summary, out, startup) for name, _, _ in PER_LAYER}

    scan = summary.get("cli.cmd_scan")
    notes = {
        "setup_times_s": setup_times,
        "replayed_jobs": out["count"],
        "scan_share": out["scan_in_cmd_scan_s"] / scan[1] if scan else None,
        "startup_total_ms": startup["startup.interpreter_ms"] + startup["startup.import_wro_cli_ms"],
        "summary": summary,
    }
    return m, verdicts, notes


# ----------------------------------------------------------------------
# environment and output
# ----------------------------------------------------------------------


def environment():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    from importlib import metadata

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        commit = ref
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "commit": commit, "pinned_env": PINNED,
    }


def benchmark_json():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 20,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def defects(seed):
    """Run the known-defect corpus once through the CLI and report every
    wrong output; these inputs are kept out of the timed workloads."""
    plan = Plan("defects", seed)
    plan.write()
    records = []
    for k, steps in plan.jobs:
        if not plot_input_missing(steps[0]):
            records.append({"item": k, "steps": [[step, spawn(wro_cli(*argv_of(step)))[0]] for step in steps]})
    verdicts_cli(plan, records)
    wrong = [r["verdict"] for r in records if r["verdict"].failed]
    for v in wrong:
        print("  %-6s %s" % (v.kind, v.detail))
    known = sum(v.kind == "defect" for v in wrong)
    print("known defects: %d of %d outputs wrong (%d of a known defect family, %d other)"
          % (len(wrong), len(records), known, len(wrong) - known))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defects", action="store_true",
                    help="run the known-defect corpus once and report the wrong outputs")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from the tables in this file and exit")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.write_benchmark_json:
        Path("BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None and not args.defects:
        ap.error("--workload is required")
    if not (ROOT / "src" / "wro" / "cli.py").is_file():
        print("error: no wro source tree under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    if args.defects:
        return defects(args.seed)

    plan = Plan(args.workload, args.seed)
    env = environment()
    if args.trace:
        metrics, verdicts, notes = traced(plan, args.seconds)
        units = {n: u for n, u, _ in PER_LAYER}
        records = None
    else:
        metrics, records, notes = end_to_end(plan, args.seconds)
        verdicts = [r["verdict"] for r in records]
        units = {n: u for n, u, _, _ in END_TO_END}
    failures = [v for v in verdicts if v.failed]
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print("workload %s  seed %d  trace %d  (%s)" % (args.workload, args.seed, args.trace, WORKLOADS[args.workload]))
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print("  %-44s %14.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        print("  job_tail_ms is p%g of n=%d%s" % (notes["tail_percentile"], notes["samples"],
              "" if notes["tail_rule_met"] else " (fewer than 20 jobs: no percentile has 10 beyond it; median shown)"))
    else:
        print("  attribution: scan share %s, start-up total %.1f ms, %d jobs replayed"
              % (notes["scan_share"], notes["startup_total_ms"], notes["replayed_jobs"]))
    print("  error_rate %.4f (%d of %d failed)" % (len(failures) / len(verdicts), len(failures), len(verdicts)))
    for v in failures[:10]:
        print("  FAILED: " + v.detail)

    record = {"args": vars(args), "environment": env, "result": result, "notes": notes,
              "failures": [[v.kind, v.detail] for v in failures]}
    if records is not None and args.workload != "lib_sweep":
        record["jobs"] = [{k: v for k, v in r.items() if k != "verdict"} for r in records]
    out = WORK / "results" / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
