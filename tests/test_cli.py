"""Command line surface: job documents, report payloads, exit codes,
rendered output, and the verify battery."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wro import Component, cli
from wro.cli import (
    PARAM_DEFAULTS,
    component_from_payload,
    component_payload,
    load_job,
    main,
)
from wro.weights import MAX_ROTATION_ORDER, WeightError


def _write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _bergman_job(tmp_path, coeffs=(-2, 1), params=None, name="job.json"):
    doc = {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": list(coeffs)},
        "rotation": {"kind": "named", "name": "golden"},
    }
    if params is not None:
        doc["params"] = params
    return _write_job(tmp_path, name, doc)


# ----------------------------------------------------------------------
# job documents
# ----------------------------------------------------------------------


def test_load_job_defaults_and_overrides(tmp_path):
    path = _bergman_job(tmp_path, params={"grid": 1024, "m_ladder": [2, 4]})
    job = load_job(path)
    assert job.params["grid"] == 1024
    assert job.params["m_ladder"] == [2, 4]
    assert job.params["truncation"] == PARAM_DEFAULTS["truncation"]
    assert job.space.variant == "bergman"


def test_load_job_rejects_unknown_fields(tmp_path):
    path = _write_job(tmp_path, "bad.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [1]},
        "rotation": {"kind": "named", "name": "golden"},
        "extra": 1,
    })
    with pytest.raises(WeightError):
        load_job(path)
    path = _bergman_job(tmp_path, params={"grit": 1024}, name="bad2.json")
    with pytest.raises(WeightError):
        load_job(path)
    # the smoothing identity's eps is a constant, no longer a param
    path = _bergman_job(tmp_path, params={"eps": 0.5}, name="bad3.json")
    with pytest.raises(WeightError):
        load_job(path)
    path = _bergman_job(tmp_path, params={"radius_factors": []}, name="bad4.json")
    with pytest.raises(WeightError):
        load_job(path)


@pytest.mark.parametrize("params", [
    {"ladder": [64, math.inf]},            # OverflowError traceback before
    {"radius_factors": [1, math.inf]},     # scan exited 0 with inf,nan,inf rows
    {"radius_factors": [math.nan]},
    {"truncation": True},                  # TypeError traceback before
    {"ladder": [64.5]},
    {"ladder": [10 ** 400]},
    {"truncation": cli.MAX_TRUNCATION + 1},
    {"ladder": [64, cli.MAX_TRUNCATION + 1]},
    {"m_max": cli.MAX_LADDER_M + 1},
    {"angles": cli.MAX_ANGLES + 1},
    {"smoothing_n": 257},                  # a constant now, so an unknown param
    {"m_max": 2},                          # one norm ladder rung: IndexError traceback before
    {"m_max": 1},                          # exited 2 from the ladder
    {"m_ladder": [1, 4]},                  # exited 2 from the residual check
    {"grid": 1 << 24},                     # about 54 GB of membership margins
    {"grid": 1 << 16, "m_ladder": [64]},   # 65536 x 130 cells
    {"n_max": 200},                        # dropped: no command read it
    {"grid": 100},                         # not a power of two: scan exited 0
    {"grid": 32},                          # below the membership grid minimum of 64
], ids=lambda p: json.dumps(p)[:40])
def test_scan_exit_1_on_bad_params(tmp_path, capsys, params):
    job = _bergman_job(tmp_path, params=params)
    assert main(["scan", "--job", job, "--out", str(tmp_path / "grid.csv")]) == 1
    assert "param" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_param_caps_admit_defaults_and_boundaries(tmp_path):
    job = load_job(_bergman_job(tmp_path, params={
        "truncation": cli.MAX_TRUNCATION, "ladder": [64.0, cli.MAX_TRUNCATION],
        "m_max": cli.MAX_LADDER_M, "grid": 1 << 16, "m_ladder": [4, 16],
    }))
    assert job.params["ladder"] == [64, cli.MAX_TRUNCATION]
    # the orbit horizon is residual_horizon(max(m_ladder)) = 64 here
    assert cli.residual_horizon(16) == 64
    assert job.params["grid"] * 64 == cli.MAX_MEMBERSHIP_CELLS
    default_horizon = cli.residual_horizon(max(PARAM_DEFAULTS["m_ladder"]))
    assert PARAM_DEFAULTS["grid"] * default_horizon <= cli.MAX_MEMBERSHIP_CELLS


# w = 1 - 2.5 z + z^2 has degree 2, so at the default m_ladder the
# residual window is peak_power + (2 * 64 + 2) * 2 + 8
def test_peak_power_over_the_residual_window_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a check ran before the job was refused")

    monkeypatch.setattr(cli, "classify", fail)
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1), params={"peak_power": 1000000})
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", job, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "peak_power" in err and "truncation window 1000268" in err
    assert not out.exists()


def test_residual_window_at_the_cap_is_admitted(tmp_path):
    cap = cli.MAX_RESIDUAL_WINDOW
    job = load_job(_bergman_job(tmp_path, coeffs=(1, -2.5, 1),
                                params={"peak_power": cap - 268}))
    assert cli.residual_window(job.weight, 64, job.params["peak_power"]) == cap
    with pytest.raises(WeightError, match="peak_power"):
        load_job(_bergman_job(tmp_path, coeffs=(1, -2.5, 1),
                              params={"peak_power": cap - 267}, name="over.json"))


@pytest.mark.parametrize("command, params", [
    ("scan", {"truncation": 128, "angles": 4}),
    ("verify", None),
], ids=["scan", "verify"])
def test_ell1_scan_loads_no_scipy(tmp_path, command, params):
    # the banded l^1 route is plain numpy at every order: a whole ell1a
    # scan, and a verify at the defaults (its gap trend starts at order
    # 64), run without importing scipy
    doc = {
        "space": {"variant": "ell1a"},
        "weight": {"type": "poly", "coeffs": [2, 0.5, 0.25]},
        "rotation": {"kind": "named", "name": "golden"},
    }
    if params:
        doc["params"] = params
    job = _write_job(tmp_path, "ell1a.json", doc)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, wro.cli; rc = wro.cli.main([sys.argv[1], '--job', sys.argv[2], '--out', sys.argv[3]]); "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, command, job, str(out)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert res.strip() == "0 []"
    if command == "scan":
        assert len(out.read_text().splitlines()) == 1 + 5 * 4
    else:
        assert json.loads(out.read_text())["passed"] is True


def test_periodic_radius_loads_no_scipy(tmp_path):
    # the periodic route is a grid and one parabolic step: a p/q radius job
    # runs without importing scipy, and still reports no route agreement
    job = _write_job(tmp_path, "pq.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [1, -2.5, 1]},
        "rotation": {"kind": "rational", "p": 3, "q": 8},
    })
    out = tmp_path / "radius.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, wro.cli; rc = wro.cli.main(['radius', '--job', sys.argv[1], '--out', sys.argv[2]]); "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, job, str(out)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert res.strip() == "2 []"
    doc = json.loads(out.read_text())
    assert doc["agreement"] is False
    # w = (z - 2)(z - 1/2), q = 8: ((2^8 + 1)(1 + 2^-8))^(1/8), to the nearest double
    assert doc["routes"]["ergodic"] == 258.00390625 ** 0.125


def test_import_cli_loads_no_scipy():
    # scipy is imported only inside the resolvent gap routes, so classify,
    # plot and every radius job never load it; the scan is a plain loop,
    # so neither an executor nor logging loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, wro.cli; print([m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m in ('concurrent.futures', 'logging')])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------------
# payload round trips
# ----------------------------------------------------------------------


def test_component_payload_round_trip():
    comps = (
        Component("circle", r=2.0),
        Component("open_disc", r=1.5),
        Component("closed_disc", r=0.5),
        Component("open_annulus", r_in=0.5, r_out=2.0),
        Component("closed_annulus", r_in=0.7, r_out=1.0),
        Component("origin"),
    )
    for comp in comps:
        assert component_from_payload(component_payload(comp)) == comp


# ----------------------------------------------------------------------
# classify command
# ----------------------------------------------------------------------


def test_classify_writes_report(tmp_path):
    job = _bergman_job(tmp_path)
    out = tmp_path / "report.json"
    assert main(["classify", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"sets", "index_map", "open_flags", "citations", "inputs_echo"}
    sigma = doc["sets"]["sigma"]
    assert sigma["status"] == "exact"
    assert sigma["components"] == [{"kind": "circle", "radius": 2.0}]
    assert doc["index_map"] == []
    assert doc["inputs_echo"]["space"]["variant"] == "bergman"


def test_classify_case2_index_payload(tmp_path):
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1))
    out = tmp_path / "report.json"
    assert main(["classify", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["index_map"] == [
        {"component": {"kind": "open_disc", "radius": 2.0}, "index": -1}
    ]


def test_classify_exit_3_on_unknown_sets(tmp_path):
    job = _write_job(tmp_path, "ell.json", {
        "space": {"variant": "ell1a"},
        "weight": {"type": "poly", "coeffs": [-1, 1]},
        "rotation": {"kind": "named", "name": "golden"},
    })
    out = tmp_path / "report.json"
    assert main(["classify", "--job", job, "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["open_flags"] == ["open-question:ap-boundary-membership"]
    assert doc["sets"]["sigma_ap"]["status"] == "unknown"


#: w = 1 - 2.5 z_1 + z_1^2 on the bidisc: one variable, g = 2
POLYND_SINGLE_AXIS = {
    "space": {"variant": "polydisc_bergman", "dim": 2, "p": 2},
    "weight": {"type": "polynd", "dim": 2, "terms": [
        {"exp": [0, 0], "coeff": 1},
        {"exp": [1, 0], "coeff": -2.5},
        {"exp": [2, 0], "coeff": 1},
    ]},
    "rotation": {"kind": "vector", "components": [
        {"kind": "named", "name": "golden"},
        {"kind": "named", "name": "sqrt2"},
    ], "relations": []},
}


def test_classify_minus_infinity_index(tmp_path):
    job = _write_job(tmp_path, "poly.json", POLYND_SINGLE_AXIS)
    out = tmp_path / "report.json"
    assert main(["classify", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["index_map"][0]["index"] == "-inf"


def test_classify_stdout_default(tmp_path, capsys):
    job = _bergman_job(tmp_path)
    assert main(["classify", "--job", job]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["sets"]["sigma"]["status"] == "exact"


# ----------------------------------------------------------------------
# exit code mapping
# ----------------------------------------------------------------------


def test_exit_1_on_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["classify", "--job", missing]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--job", str(garbled)]) == 1
    bad_rot = _write_job(tmp_path, "rot.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [-2, 1]},
        "rotation": {"kind": "root_of_unity", "p": 1, "q": 3},
    })
    assert main(["classify", "--job", bad_rot]) == 1
    # bool("false") is true: this job used to classify with exact sets
    bad_flag = _write_job(tmp_path, "flag.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [1, -2.5, 1]},
        "rotation": {"kind": "radians", "value": 1.5, "assumed_nonperiodic": "false"},
    })
    capsys.readouterr()
    assert main(["classify", "--job", bad_flag]) == 1
    assert capsys.readouterr().err.startswith("error: assumed_nonperiodic")


def test_exit_2_on_numerical_failure(tmp_path, capsys):
    # the series algebra branch leaves sigma_ap unknown, so the scan has
    # no predicted circles to probe
    job = _write_job(tmp_path, "ell.json", {
        "space": {"variant": "ell1a"},
        "weight": {"type": "poly", "coeffs": [-1, 1]},
        "rotation": {"kind": "named", "name": "golden"},
    })
    assert main(["scan", "--job", job]) == 2
    capsys.readouterr()


def test_exit_2_on_linear_algebra_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which otherwise reads as bad input
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "pseudospectrum_scan", fail)
    assert main(["scan", "--job", _bergman_job(tmp_path)]) == 2
    assert "SVD did not converge" in capsys.readouterr().err


def test_exit_2_on_inconsistent_report(tmp_path, capsys, monkeypatch):
    # a report failing its own audit is a fault of the classifier
    monkeypatch.setattr(sys.modules["wro.classify"], "report_consistency", lambda r: ["forced"])
    assert main(["classify", "--job", _bergman_job(tmp_path)]) == 2
    assert "internal: inconsistent report: forced" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [
    {"type": "poly", "coeffs": [math.nan, 1]},
    {"type": "taylor", "coeffs": [2, math.nan], "tail_bound": 0.0},
    {"type": "poly", "coeffs": [1, math.inf]},
], ids=["poly-nan", "taylor-nan", "poly-inf"])
def test_exit_1_on_non_finite_numbers(tmp_path, capsys, weight):
    # json writes and reads NaN and Infinity; they must stop at the boundary
    job = _write_job(tmp_path, "nonfinite.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": weight,
        "rotation": {"kind": "named", "name": "golden"},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", "--job", job]) == 1
    assert "finite" in capsys.readouterr().err


# ----------------------------------------------------------------------
# shared weight facts
# ----------------------------------------------------------------------


def test_one_root_finding_per_coefficient_list(tmp_path, monkeypatch, capsys):
    # wrapped in every wro module namespace that holds the name, so a
    # call is counted however it is looked up
    from wro import analysis

    orig = analysis._polished_roots
    searched = []

    def counted(coeffs):
        searched.append(np.asarray(analysis._trim(coeffs), dtype=complex).tobytes())
        return orig(coeffs)

    for name, mod in list(sys.modules.items()):
        if (name == "wro" or name.startswith("wro.")) and getattr(mod, "_polished_roots", None) is orig:
            monkeypatch.setattr(mod, "_polished_roots", counted)
    bergman = _bergman_job(tmp_path, coeffs=(1, -2.5, 1),
                           params={"truncation": 64, "ladder": [32, 64], "m_ladder": [4, 16]})
    annulus = _write_job(tmp_path, "annulus.json", {
        "space": {"variant": "annulus_hardy", "inner_radius": 0.5, "p": 2},
        "weight": {"type": "rational", "num": [-0.75, 1], "den": [1, 0.25]},
        "rotation": {"kind": "named", "name": "golden"},
    })
    out = str(tmp_path / "out.json")
    for command, job in (("classify", bergman), ("verify", bergman), ("radius", bergman),
                         ("classify", annulus)):
        analysis._clusters_by_bytes.cache_clear()
        searched.clear()
        assert main([command, "--job", job, "--out", out]) == 0
        # the numerator and the (constant) denominator, once each
        assert len(searched) == len(set(searched)) == 2, command
    capsys.readouterr()


# ----------------------------------------------------------------------
# radius command
# ----------------------------------------------------------------------


def test_radius_routes_agree(tmp_path):
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1))
    out = tmp_path / "radius.json"
    assert main(["radius", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["agreement"] is True
    routes = doc["routes"]
    assert routes["closed_form"] == pytest.approx(2.0, rel=1e-12)
    assert routes["quadrature"] == pytest.approx(2.0, rel=1e-10)
    assert routes["ergodic"] == pytest.approx(2.0, rel=1e-10)


def test_radius_refuses_a_rotation_order_over_the_cap(tmp_path, capsys, monkeypatch):
    # the parser refuses the order before any route runs: exit 1
    def no_radius(*args):
        raise AssertionError("the periodic radius ran")

    monkeypatch.setattr(cli, "group_rotation_radius", no_radius)
    job = _write_job(tmp_path, "pq.json", {
        "space": {"variant": "bergman", "p": 2},
        "weight": {"type": "poly", "coeffs": [1, -2.5, 1]},
        "rotation": {"kind": "rational", "p": 1, "q": MAX_ROTATION_ORDER + 1},
    })
    capsys.readouterr()
    assert main(["radius", "--job", job, "--out", str(tmp_path / "radius.json")]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert not (tmp_path / "radius.json").exists()


def test_radius_skips_unavailable_routes(tmp_path):
    job = _write_job(tmp_path, "samples.json", {
        "space": {"variant": "hinf"},
        "weight": {"type": "samples",
                   "values": [[3.0, 0.0]] * 64, "tags": ["H_inf"]},
        "rotation": {"kind": "named", "name": "golden"},
    })
    out = tmp_path / "radius.json"
    assert main(["radius", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["routes"]["closed_form"] is None


def test_radius_on_a_single_axis_torus_job(tmp_path):
    # the circle mean routes refuse torus weights; the ergodic route
    # collapses the single axis and takes its mean
    job = _write_job(tmp_path, "poly.json", POLYND_SINGLE_AXIS)
    out = tmp_path / "radius.json"
    assert main(["radius", "--job", job, "--out", str(out)]) == 0
    routes = json.loads(out.read_text())["routes"]
    assert routes["closed_form"] is None
    assert routes["quadrature"] is None
    assert routes["ergodic"] == pytest.approx(2.0, rel=1e-12)


# ----------------------------------------------------------------------
# scan command
# ----------------------------------------------------------------------


def test_scan_csv_shape(tmp_path):
    job = _bergman_job(tmp_path, params={"truncation": 32, "angles": 8,
                                         "radius_factors": [0.5, 1.0, 1.5]})
    out = tmp_path / "grid.csv"
    assert main(["scan", "--job", job, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,gap"
    assert len(lines) == 1 + 3 * 8
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0)   # 0.5 * radius 2


# ----------------------------------------------------------------------
# plot command
# ----------------------------------------------------------------------


def test_plot_report_svg(tmp_path):
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1))
    report = tmp_path / "report.json"
    main(["classify", "--job", job, "--out", str(report)])
    svg = tmp_path / "set.svg"
    assert main(["plot", "--input", str(report), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "#35507b" in text          # full spectrum
    assert "#a03232" in text          # approximate point spectrum
    assert "stroke-dasharray" in text


def test_plot_grid_svg(tmp_path):
    job = _bergman_job(tmp_path, params={"truncation": 16, "angles": 8})
    grid = tmp_path / "grid.csv"
    main(["scan", "--job", job, "--out", str(grid)])
    svg = tmp_path / "grid.svg"
    assert main(["plot", "--input", str(grid), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "circle" in text


@pytest.mark.parametrize("name, text", [
    ("grid.csv", "re,im,gap\nnan,0,1\n"),
    ("grid.csv", "re,im,gap\ninf,0,1\n"),
    ("grid.csv", "re,im,gap\n1,0,nan\n"),
    ("grid.csv", "re,im,gap\n1,0,-1\n"),
    ("report.json", '{"sets": {"sigma": {"components": [{"kind": "circle", "radius": 1e400}]}}}'),
    ("report.json", '{"sets": {"sigma": {"components": [{"kind": "circle", "radius": Infinity}]}}}'),
    ("report.json", '{"sets": {"sigma_ap": {"components": [{"kind": "closed_annulus", '
                    '"inner_radius": 1, "outer_radius": NaN}]}}}'),
    ("report.json", '{"sets": []}'),
    ("report.json", '{"sets": {"sigma": []}}'),
    ("report.json", '{"sets": {"sigma": {"components": [3]}}}'),
    ("report.json", '{"sets": {"sigma": {"components": [{"kind": "circle"}]}}}'),
], ids=["re-nan", "re-inf", "gap-nan", "gap-negative", "radius-overflow", "radius-infinity",
        "annulus-nan", "sets-list", "set-list", "component-number", "circle-no-radius"])
def test_plot_exit_1_on_malformed_input(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    svg = tmp_path / "out.svg"
    assert main(["plot", "--input", str(path), "--out", str(svg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not svg.exists()


# ----------------------------------------------------------------------
# verify command
# ----------------------------------------------------------------------

CHECK_NAMES = (
    "report-consistency",
    "radius-routes",
    "diagonal-candidates",
    "smoothing-identity",
    "truncation-rank",
    "pseudospectrum-trend",
    "residual-decay",
    "norm-ladder",
)


def test_verify_bergman_ledger(tmp_path):
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1), params={
        "truncation": 64, "ladder": [32, 64], "angles": 16,
        "m_ladder": [4, 16], "grid": 2048, "m_max": 300,
    })
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["space"] == "bergman"
    names = [c["name"] for c in doc["checks"]]
    assert names == list(CHECK_NAMES)
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["report-consistency"] == "passed"
    assert status["diagonal-candidates"] == "passed"
    assert status["smoothing-identity"] == "passed"
    assert status["truncation-rank"] == "passed"
    assert status["pseudospectrum-trend"] == "passed"
    assert status["residual-decay"] == "passed"
    assert status["norm-ladder"] == "passed"


# the Bergman truncation of w = 20 - 30z + 15z^2 has norm 64: its identity
# deviation rounds to about 7e-7, far above an absolute 1e-8
LARGE_NORM_COEFFS = (20, -30, 15)


def _model(job):
    return cli._matrix_model(job, job.params["truncation"])


def test_smoothing_identity_passes_at_large_norm(tmp_path):
    job = load_job(_bergman_job(tmp_path, coeffs=LARGE_NORM_COEFFS))
    result = cli._check_smoothing(job, _model(job))
    assert result["status"] == "passed"
    assert 1e-8 < result["data"]["deviation"] < 1e-4 * result["data"]["tolerance"]


@pytest.mark.parametrize("coeffs", [(1, -2.5, 1), LARGE_NORM_COEFFS])
def test_smoothing_identity_fails_when_a_term_is_perturbed(tmp_path, coeffs, monkeypatch):
    # a relative change of 1e-3 in one term of the telescoped side breaks
    # the identity; at norm 64 only the terms of the powers above n stand
    # out of the rounding of the largest ones
    from wro import oracle

    job = load_job(_bergman_job(tmp_path, coeffs=coeffs))
    model = _model(job)
    n = cli.SMOOTHING_N
    exact = oracle._smoothing_terms
    terms = exact(cli.SMOOTHING_EPS, n)
    assert cli._check_smoothing(job, model)["status"] == "passed"
    for k, (_, power) in enumerate(terms):
        if coeffs == LARGE_NORM_COEFFS and power <= n:
            continue

        def perturbed(eps, n, k=k):
            out = exact(eps, n)
            out[k] = (out[k][0] * (1.0 + 1e-3), out[k][1])
            return out

        monkeypatch.setattr(oracle, "_smoothing_terms", perturbed)
        assert cli._check_smoothing(job, model)["status"] == "failed", k


def test_verify_bloch_norm_ladder_fails(tmp_path):
    # the peaked polynomial norms approach 2m/e, half the conjectured
    # 4m/e envelope, so the ladder check reports an honest failure
    job = _write_job(tmp_path, "bloch.json", {
        "space": {"variant": "bloch"},
        "weight": {"type": "poly", "coeffs": [-2, 1]},
        "rotation": {"kind": "named", "name": "golden"},
        "params": {"m_ladder": [4, 16], "m_max": 1000, "grid": 2048,
                   "truncation": 64, "ladder": [32, 64], "angles": 8},
    })
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", job, "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["norm-ladder"] == "failed"
    assert status["residual-decay"] == "passed"
    # model based checks need coefficient space norms; Bloch has none
    assert status["diagonal-candidates"] == "skipped"
    assert status["smoothing-identity"] == "skipped"


def test_verify_skips_where_no_model_exists(tmp_path):
    job = _write_job(tmp_path, "poly.json", {
        "space": {"variant": "polydisc_algebra", "dim": 2},
        "weight": {"type": "polynd", "dim": 2, "terms": [
            {"exp": [0, 0], "coeff": -2}, {"exp": [1, 0], "coeff": 1}]},
        "rotation": {"kind": "vector", "components": [
            {"kind": "named", "name": "golden"},
            {"kind": "named", "name": "sqrt2"},
        ], "relations": []},
    })
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", job, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["report-consistency"] == "passed"
    assert status["diagonal-candidates"] == "skipped"
    assert status["pseudospectrum-trend"] == "skipped"


def test_verify_builds_one_truncation(tmp_path, monkeypatch):
    orders = []
    build = cli.build_truncation

    def counted(sp, w, rotation, order):
        orders.append(order)
        return build(sp, w, rotation, order)

    monkeypatch.setattr(cli, "build_truncation", counted)
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1), params={
        "truncation": 64, "ladder": [32, 64, 96], "m_ladder": [4, 16], "grid": 2048,
    })
    assert main(["verify", "--job", job, "--out", str(tmp_path / "ledger.json")]) == 0
    assert orders == [96]


SAMPLED_BERGMAN = {
    "space": {"variant": "bergman", "p": 2},
    "weight": {"type": "samples", "values": [2 + 0.5 * (j % 2) for j in range(64)],
               "tags": ["disc_algebra"]},
    "rotation": {"kind": "named", "name": "golden"},
}


def test_verify_sampled_weight_skips_the_model_checks(tmp_path):
    # the truncation needs coefficient data: every model check skips with
    # the oracle's reason (the trend check exited 2 before)
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", _write_job(tmp_path, "s.json", SAMPLED_BERGMAN),
                 "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("diagonal-candidates", "smoothing-identity", "truncation-rank",
                 "pseudospectrum-trend"):
        assert checks[name]["status"] == "skipped"
        assert "coefficient data" in checks[name]["data"]["reason"]
    assert checks["residual-decay"]["data"]["reason"] == "needs a polynomial weight"


@pytest.mark.parametrize("doc", [
    SAMPLED_BERGMAN,
    {"space": {"variant": "annulus_hardy", "inner_radius": 0.5, "p": 2},
     "weight": {"type": "rational", "num": [-0.75, 1], "den": [1, 0.25]},
     "rotation": {"kind": "named", "name": "golden"}},
    {"space": {"variant": "bergman", "p": 3},
     "weight": {"type": "poly", "coeffs": [1, -2.5, 1]},
     "rotation": {"kind": "named", "name": "golden"}},
], ids=["samples", "annulus", "bergman_p3"])
def test_scan_without_a_matrix_model_exits_1(tmp_path, capsys, doc):
    out = tmp_path / "grid.csv"
    assert main(["scan", "--job", _write_job(tmp_path, "j.json", doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("m_ladder,rungs", [([16, 4, 16], [4, 16]), ([4, 4], None)])
def test_residual_decay_reads_sorted_distinct_rungs(tmp_path, m_ladder, rungs):
    job = load_job(_bergman_job(tmp_path, coeffs=(1, -2.5, 1),
                                params={"m_ladder": m_ladder, "grid": 2048}))
    report = cli.classify(job.space, job.weight, job.rotation)
    result = cli._check_residual_decay(job, report, _model(job))
    if rungs is None:
        assert result["status"] == "skipped"
    else:
        assert result["status"] == "passed" and result["data"]["m_ladder"] == rungs


def test_verify_ambiguous_boundary_zero_runs_every_check(tmp_path):
    # the zeros of 1 - 1.0000001 z^8 lie about 1.2e-8 off the circle:
    # classify reports the (unresolved) sandwich, and verify runs all its
    # checks instead of rejecting the job as an input error
    job = _bergman_job(tmp_path, coeffs=(1, 0, 0, 0, 0, 0, 0, 0, -1.0000001), params={
        "truncation": 64, "ladder": [32, 64], "m_ladder": [4, 16],
    })
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", job, "--out", str(out)]) != 1
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["truncation-rank"] == "passed"


# two Dirichlet e_frac jobs whose on-circle gaps at orders 64 and 128 agree
# to one or two ulp (0.012198153801294258 -> ...262): the gap is
# nonincreasing in the order, and a rise by rounding must not fail it
DIRICHLET_TIE_COEFFS = (
    [[-0.1875, 0.375], [0.21875, -0.3125], [-0.125, 0.0625], [0.03125, 0]],
    [[-0.0703125, -0.2109375], [0.181640625, 0.169921875],
     [-0.087890625, -0.029296875], [0.01171875, 0]],
)


def _dirichlet_tie_job(tmp_path, coeffs):
    return _write_job(tmp_path, "dirichlet.json", {
        "space": {"variant": "dirichlet", "p": 2},
        "weight": {"type": "poly", "coeffs": coeffs},
        "rotation": {"kind": "named", "name": "e_frac"},
    })


@pytest.mark.parametrize("coeffs", DIRICHLET_TIE_COEFFS)
def test_gap_trend_admits_a_rounding_tie(tmp_path, coeffs):
    out = tmp_path / "ledger.json"
    assert main(["verify", "--job", _dirichlet_tie_job(tmp_path, coeffs), "--out", str(out)]) == 0
    trend = next(c for c in json.loads(out.read_text())["checks"]
                 if c["name"] == "pseudospectrum-trend")
    assert trend["status"] == "passed"
    gaps, tol = trend["data"]["on_circle_gaps"], trend["data"]["tolerance"]
    assert len(tol) == len(gaps) == 3
    assert 0.0 < gaps[1] - gaps[0] <= tol[1] < 1e-10 * gaps[0]


@pytest.mark.parametrize("rise,status", [
    (None, "passed"),         # the rounding tie as measured
    (-1e-3, "passed"),        # strictly shrinking
    (1e-9, "failed"),         # a rise far above the rounding floor
    (0.0, "failed"),          # flat: the top order must lie below the first
])
def test_gap_trend_tie_rule(tmp_path, monkeypatch, rise, status):
    from wro.oracle import PseudospectrumGrid, pseudospectrum_scan

    job = load_job(_dirichlet_tie_job(tmp_path, DIRICHLET_TIE_COEFFS[0]))
    report = cli.classify(job.space, job.weight, job.rotation)
    g = 0.012198153801294258
    on = {64: g, 128: 0.012198153801294262, 256: 0.00829}
    if rise is not None:
        on = {64: g, 128: g * (1.0 + rise), 256: g if rise == 0.0 else 0.00829}

    def scan(t, radii, n_angles):
        # the measured points and rounding floors, with the gaps replaced
        grid = pseudospectrum_scan(t, radii, n_angles)
        gaps = np.concatenate([np.full(n_angles, on[t.order]), np.full(n_angles, 0.067)])
        return PseudospectrumGrid(grid.points, gaps, grid.floors)

    monkeypatch.setattr(cli, "pseudospectrum_scan", scan)
    assert cli._check_gap_trend(job, report, _model(job))["status"] == status


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_classify_byte_identical_across_runs(tmp_path):
    job = _bergman_job(tmp_path, coeffs=(1, -2.5, 1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["classify", "--job", job, "--out", str(a)])
    main(["classify", "--job", job, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
