"""Tests of the benchmark itself: corpus determinism, the checker's power
to reject wrong outputs, and the tail percentile rule.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def _wro(*argv):
    from wro.cli import main

    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def _job(tmp_path, item, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(item["doc"]), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", [corpus.cli_items, corpus.verify_items, corpus.scan_items,
                                  corpus.lib_items, corpus.coverage_items])
def test_corpus_is_deterministic_per_seed(make):
    a, b, c = make(7), make(7), make(8)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_cli_corpus_covers_spaces_and_types_with_simple_zeros():
    items = corpus.cli_items(1)
    assert {it["space"] for it in items} == set(corpus.SPACES)
    docs = [it["doc"] for it in items]
    assert {d["weight"]["type"] for d in docs} == {"poly", "rational", "taylor", "samples", "polynd"}
    assert {d["rotation"]["kind"] for d in docs} == {"named", "rational", "radians", "vector"}
    timed = [it for seed in range(1, 6) for make in (corpus.cli_items, corpus.verify_items,
                                                     corpus.scan_items) for it in make(seed)]
    assert any(it["truth"]["branch"] == 3 for it in timed)
    assert not any(it["truth"]["defect"] for it in timed)


def test_defect_corpus_holds_the_multiplicity_and_large_norm_cases():
    items = corpus.defect_items(1)
    assert all(it["truth"]["defect"] for it in items)
    on_circle = [it for it in items if it["truth"]["branch"] == 3]
    assert {it["truth"]["multiplicity"] for it in on_circle} == {2, 3}
    verify = [it for it in items if it["commands"] == ["verify"]]
    assert verify and all(check.smoothing_floor(it) > check.SMOOTHING_TOL for it in verify)


def test_verify_corpus_stays_below_the_smoothing_floor():
    for it in corpus.verify_items(3):
        if it["space"] != "bloch":
            assert check.smoothing_floor(it) < 0.1 * check.SMOOTHING_TOL


def test_truth_matches_jensen_on_an_exact_example():
    coeffs = corpus.poly_from_roots([0.5, 2.0, 1.0, 1.0, 1.0], 2.0)
    assert all(c.imag == 0 for c in coeffs)
    truth = corpus._truth([0.5, 2.0, 1.0, 1.0, 1.0], 2.0)
    assert truth["g"] == 4.0 and truth["branch"] == 3 and truth["defect"]


# ----------------------------------------------------------------------
# checker
# ----------------------------------------------------------------------


def _plain_item(make, seed, pred):
    return next(it for it in make(seed) if not it["truth"]["defect"] and pred(it))


def test_checker_rejects_a_report_radius_nudged_by_1e6(tmp_path):
    item = _plain_item(corpus.cli_items, 3, lambda it: it.get("expect", {}).get("status") == "exact"
                       and it["wtype"] == "poly")
    out = tmp_path / "report.json"
    rc = _wro("classify", "--job", _job(tmp_path, item), "--out", str(out))
    text = out.read_text(encoding="utf-8")
    assert check.check_report(item, text, rc).kind == "ok"
    report = json.loads(text)
    report["sets"]["sigma_ap"]["components"][0]["radius"] *= 1.0 + 1e-6
    assert check.check_report(item, json.dumps(report), rc).kind == "error"


def test_checker_rejects_a_corrupted_scan_gap(tmp_path):
    item = copy.deepcopy(corpus.coverage_items(2)[3])
    assert item["commands"] == ["scan"]
    out = tmp_path / "grid.csv"
    rc = _wro("scan", "--job", _job(tmp_path, item), "--out", str(out))
    text = out.read_text(encoding="utf-8")
    rows = range(len(text.splitlines()) - 1)
    assert check.check_scan(item, text, rc, rows).kind == "ok"
    lines = text.splitlines()
    re_, im, gap = lines[5].split(",")
    lines[5] = ",".join([re_, im, repr(float(gap) * (1.0 + 1e-6))])
    assert check.check_scan(item, "\n".join(lines) + "\n", rc, rows).kind == "error"


def test_own_gap_has_an_absolute_floor_inside_the_spectrum():
    m = check.truncation("bergman", [[1.0, 0.0], [-2.5, 0.0], [1.0, 0.0]], corpus.NAMED["golden"], 64)
    lam = m[10, 10]  # a diagonal entry: the truncation is singular there
    gap, tol = check.own_gap("bergman", m, lam)
    assert gap <= tol


def _ledger_from_table(item):
    table = item["verdicts"]
    checks = [{"name": n, "status": table[n][0], "data": {}} for n in check.CHECK_NAMES]
    checks[1]["data"] = {"routes": {"closed_form": item["truth"]["g"], "quadrature": item["truth"]["g"],
                                    "ergodic": item["truth"]["g"]}}
    passed = all(c["status"] != "failed" for c in checks)
    return {"space": item["space"], "checks": checks, "passed": passed}, 0 if passed else 2


def test_checker_rejects_a_flipped_verify_verdict():
    item = _plain_item(corpus.verify_items, 4, lambda it: it["space"] == "bergman")
    ledger, rc = _ledger_from_table(item)
    assert check.check_ledger(item, json.dumps(ledger), rc).kind == "ok"
    flipped = copy.deepcopy(ledger)
    flipped["checks"][2]["status"] = "failed"       # diagonal-candidates
    assert check.check_ledger(item, json.dumps(flipped), rc).kind == "error"
    flipped["passed"] = False
    assert check.check_ledger(item, json.dumps(flipped), 2).kind == "error"


def test_bloch_norm_ladder_failure_is_the_only_expected_red():
    item = _plain_item(corpus.verify_items, 4, lambda it: it["space"] == "bloch")
    ledger, rc = _ledger_from_table(item)
    assert rc == 2 and check.check_ledger(item, json.dumps(ledger), rc).kind == "ok"
    ledger["checks"][-1]["status"] = "passed"
    ledger["passed"] = True
    assert check.check_ledger(item, json.dumps(ledger), 0).kind == "error"


def test_checker_accepts_real_radius_output_and_rejects_a_nudged_route(tmp_path):
    item = _plain_item(corpus.cli_items, 5, lambda it: it["doc"]["rotation"]["kind"] == "rational")
    out = tmp_path / "radius.json"
    rc = _wro("radius", "--job", _job(tmp_path, item), "--out", str(out))
    text = out.read_text(encoding="utf-8")
    assert check.check_radius(item, text, rc).kind == "ok"
    doc = json.loads(text)
    doc["routes"]["ergodic"] *= 1.0 + 1e-6
    assert check.check_radius(item, json.dumps(doc), rc).failed


def test_svg_check_demands_identical_bytes():
    svg = '<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1"></svg>\n'
    assert check.check_svg(svg, svg).kind == "ok"
    assert check.check_svg(svg, svg.replace('"1"', '"2"', 1)).kind == "error"
    assert check.check_svg(svg[:-8]).kind == "error"


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond_it():
    rng = random.Random(0)
    for n in range(1, 3000, 7):
        xs = [rng.random() for _ in range(n)]
        pct, value, count, met = stats.tail(xs)
        assert count == n
        if not met:
            assert n < 2 * stats.MIN_BEYOND and pct == 50.0 and value == stats.median(xs)
            continue
        assert sum(x > value for x in xs) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_tail_examples():
    assert stats.tail(list(range(20)))[:2] == (50.0, 9)
    assert stats.tail(list(range(1000)))[:2] == (99.0, 989)
    assert stats.tail(list(range(10000)))[:2] == (99.9, 9989)


# ----------------------------------------------------------------------
# start-up parsing and the benchmark description
# ----------------------------------------------------------------------


def test_parse_importtime_counts_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |        200 |   wro.weights",
        "import time:         5 |        300 | wro",
        "import time:         7 |          7 | encodings",
        "import time:         9 |          9 | wro.cli",
    ])
    assert run.parse_importtime(text) == (0.309, 0.15, 0.03)


def test_benchmark_json_is_current():
    on_disk = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == run.benchmark_json()
