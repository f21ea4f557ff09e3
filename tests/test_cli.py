"""End-to-end CLI checks via subprocess: exit codes, formats, artifacts."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "psm.cli", *argv],
                          capture_output=True, text=True)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def pair(tmp_path):
    a = write(tmp_path / "a.xyz", "0 0 0\n1 0 0\n")
    b = write(tmp_path / "b.xyz", "0 1 0\n1 1 0\n")
    return a, b


# ---------------------------------------------------------------- chamfer

def test_chamfer_identical_is_zero(pair, tmp_path):
    a, _ = pair
    r = run_cli("chamfer", a, a)
    assert r.returncode == 0
    assert r.stdout == "0.000000000000\n"


def test_chamfer_hand_value_and_grad(tmp_path):
    a = write(tmp_path / "a.xyz", "0 0 0\n2 0 0\n")
    b = write(tmp_path / "b.xyz", "1 0 0\n7 4 0\n")
    # directed sums: 1 + 1 and 0 + 25 + 16 = 43, total 2 + 41 = 43... recompute
    grad = tmp_path / "g.xyz"
    r = run_cli("chamfer", a, b, "--grad", str(grad))
    assert r.returncode == 0
    value = float(r.stdout)
    pts_a = np.array([[0, 0, 0], [2, 0, 0]], float)
    pts_b = np.array([[1, 0, 0], [7, 4, 0]], float)
    d2 = ((pts_a[:, None] - pts_b[None]) ** 2).sum(-1)
    expect = d2.min(1).sum() + d2.min(0).sum()
    assert value == pytest.approx(expect, rel=1e-12)
    g = np.loadtxt(grad).reshape(-1, 3)
    assert g.shape == (2, 3)


def test_chamfer_json_schema(pair):
    a, b = pair
    r = run_cli("chamfer", a, b, "--json")
    obj = json.loads(r.stdout)
    assert obj["command"] == "chamfer"
    assert obj["backend"] == "brute"  # the route the sizes picked
    assert obj["normalize"] is False
    assert obj["value"] == pytest.approx(4.0)  # 1+1 forward, 1+1 reverse


def test_chamfer_has_no_backend_option(pair):
    # the sizes pick the route; --json reports it
    r = run_cli("chamfer", *pair, "--backend", "brute")
    assert r.returncode == 2
    assert "--backend" in r.stderr


# -------------------------------------------------------------------- emd

def test_emd_exact_value_matching_grad(pair, tmp_path):
    a, b = pair
    match = tmp_path / "m.txt"
    grad = tmp_path / "g.xyz"
    r = run_cli("emd", a, b, "--dump-matching", str(match), "--grad", str(grad))
    assert r.returncode == 0
    assert r.stdout == "2.00000000000\n"  # 12 significant digits
    lines = match.read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        si, sj, sc = line.split()
        assert int(si) == i and int(sj) == i
        assert float(sc) == pytest.approx(1.0)
    g = np.loadtxt(grad).reshape(-1, 3)
    assert np.allclose(g, [[0, -1, 0], [0, -1, 0]])


def test_emd_dump_matching_bytes(tmp_path):
    # one `i j cost` line per pair, each cost as fmt_float writes it: integral,
    # fractional and zero costs
    from psm.emd import emd_exact
    from psm.io import fmt_float, read_xyz
    a = write(tmp_path / "a.xyz", "0 0 0\n1 0 0\n5 0 0\n9 9 9\n")
    b = write(tmp_path / "b.xyz", "5 0 0.3\n0 2 0\n1 0.5 0\n9 9 9\n")
    match = tmp_path / "m.txt"
    assert run_cli("emd", a, b, "--dump-matching", str(match)).returncode == 0
    _, assignment = emd_exact(read_xyz(a), read_xyz(b))
    assert match.read_bytes() == "".join(
        f"{i} {j} {fmt_float(cost)}\n"
        for i, (j, cost) in enumerate(zip(assignment.perm, assignment.per_pair_cost))).encode()
    lines = match.read_text(encoding="utf-8").splitlines()
    assert lines[:2] + lines[3:] == ["0 1 2", "1 2 0.5", "3 3 0"]


def test_emd_size_mismatch_message(tmp_path):
    a = write(tmp_path / "a.xyz", "0 0 0\n1 0 0\n")
    b = write(tmp_path / "b.xyz", "0 1 0\n")
    r = run_cli("emd", a, b)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.strip() == "error: size mismatch (|a|=2, |b|=1)"


def test_emd_default_route_small_is_exact(pair):
    a, b = pair
    obj = json.loads(run_cli("emd", a, b, "--json").stdout)
    assert obj["backend"] == "exact"
    assert "achieved_eps" not in obj


@pytest.mark.parametrize("flag", ["--exact", "--auction", "--eps", "--budget-entries"])
def test_emd_has_no_solver_option(pair, flag):
    # the exact solver runs at every size; library callers name the auction
    r = run_cli("emd", *pair, flag)
    assert r.returncode == 2
    assert flag in r.stderr


def test_emd_normalize_divides_by_size(pair):
    a, b = pair
    obj = json.loads(run_cli("emd", a, b, "--normalize", "--json").stdout)
    assert obj["value"] == pytest.approx(1.0)


# ----------------------------------------------------- fps / voxelize / iou

def test_fps_start_index_line(tmp_path):
    inp = write(tmp_path / "in.xyz", "0 0 0\n10 0 0\n5 0 0\n")
    out = tmp_path / "out.xyz"
    r = run_cli("fps", inp, "--k", "3", "--start-index", "0", "-o", str(out))
    assert r.returncode == 0
    got = np.loadtxt(out).reshape(-1, 3)
    assert np.array_equal(got[:, 0], [0.0, 10.0, 5.0])


def test_fps_start_index_error_names_it(tmp_path):
    inp = write(tmp_path / "in.xyz", "0 0 0\n10 0 0\n5 0 0\n")
    r = run_cli("fps", inp, "--k", "2", "--start-index", "7", "-o", str(tmp_path / "o.xyz"))
    assert r.returncode == 1
    assert r.stderr == "error: start_index=7 out of range for set of size 3\n"


def test_voxelize_iou_pipeline(tmp_path):
    cloud = write(tmp_path / "c.xyz", "1.5 1.5 1.5\n2.5 2.5 2.5\n")
    g1 = tmp_path / "g1.psgrid"
    g2 = tmp_path / "g2.psgrid"
    for out in (g1, g2):
        r = run_cli("voxelize", cloud, "--dims", "4", "-o", str(out))
        assert r.returncode == 0
    r = run_cli("iou", str(g1), str(g2))
    assert r.returncode == 0
    assert r.stdout == "1.00000000000\n"


def test_voxelize_raw_keeps_fractions(tmp_path):
    cloud = write(tmp_path / "c.xyz", "1.3 1.5 1.5\n")
    out = tmp_path / "g.psgrid"
    r = run_cli("voxelize", cloud, "--dims", "4", "--raw", "-o", str(out),
                "--json")
    assert r.returncode == 0
    body = out.read_text().splitlines()
    vals = np.array([float(v) for line in body[4:] for v in line.split()])
    assert vals.sum() == pytest.approx(1.0)   # mass conserved, not binarized
    assert ((vals > 0) & (vals < 1)).any()


@pytest.mark.parametrize("raw", [False, True])
def test_voxelize_threshold_checked_in_both_modes(tmp_path, raw):
    cloud = write(tmp_path / "c.xyz", "1.5 1.5 1.5\n")
    r = run_cli("voxelize", cloud, "--dims", "4", "--threshold", "2",
                *(["--raw"] if raw else []), "-o", str(tmp_path / "g.psgrid"))
    assert r.returncode == 1
    assert r.stderr == "error: threshold 2.0 not in [0, 1]\n"


def test_voxelize_oversized_grid_is_domain_error(tmp_path):
    # 100000^3 float64 cells exceed the address space, so the allocation
    # fails at once without touching memory
    c = write(tmp_path / "c.xyz", "0 0 0\n1 1 1\n")
    r = run_cli("voxelize", c, "--dims", "100000", "-o",
                str(tmp_path / "g.psgrid"))
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("geometry,message", [
    (["--origin=nan,0,0"], "origin must be finite"),
    (["--origin=inf,0,0"], "origin must be finite"),
    (["--cell", "inf"], "cell_size must be finite and > 0"),
])
def test_voxelize_rejects_non_finite_geometry(tmp_path, geometry, message):
    # such a grid would cover no finite cell, and read_grid refuses it
    cloud = write(tmp_path / "c.xyz", "0.5 0.5 0.5\n")
    out = tmp_path / "g.psgrid"
    r = run_cli("voxelize", cloud, *geometry, "-o", str(out))
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("unit,message", [
    ("32,inf", "cell_size must be finite and > 0"),
    ("32,nan", "cell_size must be finite and > 0"),
    ("32,1e308", "grid extent overflows float64"),
])
def test_grid_unit_rejects_non_finite_scale(pair, unit, message):
    # an infinite scale would print `"scale": Infinity`, which is not JSON
    r = run_cli("chamfer", *pair, "--grid-unit", unit, "--json")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


def test_voxelize_origin_error_names_the_flag(tmp_path):
    cloud = write(tmp_path / "c.xyz", "0.5 0.5 0.5\n")
    r = run_cli("voxelize", cloud, "--origin", "a,0,0", "-o", str(tmp_path / "g.psgrid"))
    assert r.returncode == 1
    assert r.stderr == "error: --origin takes three comma-separated numbers, got 'a,0,0'\n"


@pytest.mark.parametrize("unit", ["32,x", "4.5,1"])
def test_grid_unit_error_names_the_flag(pair, unit):
    r = run_cli("chamfer", *pair, "--grid-unit", unit)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == (f"error: --grid-unit takes DIMS,CELL: an integer and a number, "
                        f"got '{unit}'\n")


def test_voxelize_no_clamp_errors_on_outside_point(tmp_path):
    cloud = write(tmp_path / "c.xyz", "100 0 0\n")
    r = run_cli("voxelize", cloud, "--dims", "4", "--no-clamp",
                "-o", str(tmp_path / "g.psgrid"))
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


def test_iou_disjoint_zero(tmp_path):
    c1 = write(tmp_path / "c1.xyz", "0.5 0.5 0.5\n")
    c2 = write(tmp_path / "c2.xyz", "3.5 3.5 3.5\n")
    g1, g2 = tmp_path / "g1.psgrid", tmp_path / "g2.psgrid"
    run_cli("voxelize", c1, "--dims", "4", "-o", str(g1))
    run_cli("voxelize", c2, "--dims", "4", "-o", str(g2))
    r = run_cli("iou", str(g1), str(g2))
    assert r.stdout == "0.000000000000\n"


def test_missing_input_file_is_domain_error(tmp_path):
    r = run_cli("chamfer", str(tmp_path / "absent.xyz"),
                str(tmp_path / "absent.xyz"))
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


def test_unknown_subcommand_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_no_subcommand_takes_threads(capsys):
    from psm.cli import build_parser
    argv = {"chamfer": ["a", "b"], "emd": ["a", "b"],
            "fps": ["a", "--k", "1", "-o", "o"], "voxelize": ["a", "-o", "o"],
            "iou": ["a", "b"], "mon": ["gt", "c"],
            "meanshape": ["--spec", "s"], "selftest": []}
    for command, rest in argv.items():
        build_parser().parse_args([command, *rest])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *rest, "--threads", "2"])
        assert exc.value.code == 2, command


# -------------------------------------------------------------------- mon

@pytest.fixture
def mon_files(tmp_path):
    gt = write(tmp_path / "gt.xyz", "0 0 0\n")
    c5 = write(tmp_path / "c5.xyz", "5 0 0\n")
    c3 = write(tmp_path / "c3.xyz", "0 3 0\n")
    return gt, c5, c3


def test_mon_positional(mon_files):
    gt, c5, c3 = mon_files
    r = run_cli("mon", gt, c5, c3, "--metric", "emd")
    assert r.returncode == 0
    assert r.stdout == "3.00000000000 1\n"


def test_mon_bundle_relative_paths(mon_files, tmp_path):
    manifest = tmp_path / "bundle.json"
    manifest.write_text(json.dumps({"groundtruth": "gt.xyz",
                                    "candidates": ["c5.xyz", "c3.xyz"],
                                    "metric": "emd"}))
    r = run_cli("mon", "--bundle", str(manifest), "--json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["value"] == pytest.approx(3.0)
    assert obj["argmin_index"] == 1
    assert obj["metric"] == "emd"


def test_mon_bundle_conflicts_with_positional(mon_files, tmp_path):
    gt, c5, _ = mon_files
    manifest = tmp_path / "bundle.json"
    manifest.write_text(json.dumps({"groundtruth": "gt.xyz",
                                    "candidates": ["c5.xyz"]}))
    r = run_cli("mon", gt, c5, "--bundle", str(manifest))
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize("fields", [{"groundtruth": 5, "candidates": ["c5.xyz"]},
                                    {"groundtruth": "gt.xyz", "candidates": 7},
                                    {"groundtruth": "gt.xyz", "candidates": "c5.xyz"}])
def test_mon_bundle_field_types(mon_files, tmp_path, fields):
    manifest = tmp_path / "bundle.json"
    manifest.write_text(json.dumps(fields))
    r = run_cli("mon", "--bundle", str(manifest))
    assert r.returncode == 1
    assert r.stderr.startswith("error: bundle manifest needs")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("text,message", [("not json", "line 1: Expecting value"),
                                          ('["gt.xyz"]', "line 1: expected a JSON object")])
def test_mon_bundle_reads_json_as_spec_files_are(mon_files, tmp_path, text, message):
    manifest = tmp_path / "bundle.json"
    manifest.write_text(text)
    r = run_cli("mon", "--bundle", str(manifest))
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"


def test_utf8_files_under_ascii_locale(tmp_path):
    # files are UTF-8 whatever the locale: a comment and a manifest name
    # outside ASCII, read where Python's default text encoding is ASCII
    (tmp_path / "u.xyz").write_bytes("# café ✓\n0 0 0\n1 0 0\n".encode())
    with open(os.path.join(os.fsencode(tmp_path), "cé.xyz".encode()), "wb") as fh:
        fh.write(b"0 0 0\n")  # a bytes name: the suite's own locale may be ASCII
    manifest = tmp_path / "b.json"
    manifest.write_bytes(json.dumps({"groundtruth": "u.xyz", "candidates": ["cé.xyz"]},
                                    ensure_ascii=False).encode())
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    xyz = str(tmp_path / "u.xyz")
    for argv in (["chamfer", xyz, xyz], ["mon", "--bundle", str(manifest)]):
        r = subprocess.run([sys.executable, "-m", "psm.cli", *argv], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


def test_threads_env_starts_no_pool(mon_files, tmp_path, monkeypatch, capsys):
    import psm.core
    from psm import cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    gt, c5, c3 = mon_files
    spec = spec_file(tmp_path, family="circle_radius", n_points=12)
    runs = (["mon", gt, c5, c3, "--metric", "emd"],
            ["meanshape", "--spec", spec, "--steps", "3", "--metric", "emd"])
    plain = []
    for argv in runs:
        assert cli.main(argv) == 0
        plain.append(capsys.readouterr().out)
    monkeypatch.setenv("PSM_THREADS", "3")
    monkeypatch.setattr(psm.core, "ThreadPoolExecutor", no_pool)
    for argv, out in zip(runs, plain):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


# -------------------------------------------------------------- meanshape

def spec_file(tmp_path, **kwargs):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def test_meanshape_outputs_and_determinism(tmp_path):
    spec = spec_file(tmp_path, family="circle_radius", n_points=12)
    args = ("meanshape", "--spec", spec, "--steps", "5", "--batch", "2",
            "--seed", "4", "-o", str(tmp_path / "x.xyz"),
            "--plot", str(tmp_path / "x.svg"),
            "--trace", str(tmp_path / "t.csv"))
    r1 = run_cli(*args)
    assert r1.returncode == 0
    assert r1.stdout.startswith("final_loss ")
    trace1 = (tmp_path / "t.csv").read_text()
    lines = trace1.splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + 5
    assert lines[1].startswith("0,")
    x1 = (tmp_path / "x.xyz").read_bytes()
    svg1 = (tmp_path / "x.svg").read_bytes()
    r2 = run_cli(*args)
    assert r2.stdout == r1.stdout
    assert (tmp_path / "x.xyz").read_bytes() == x1
    assert (tmp_path / "x.svg").read_bytes() == svg1
    assert (tmp_path / "t.csv").read_text() == trace1


def test_meanshape_corner_fractions_line(tmp_path):
    spec = spec_file(tmp_path, family="corner_square", n_points=12)
    r = run_cli("meanshape", "--spec", spec, "--steps", "3", "--batch", "1",
                "--json")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["family"] == "corner_square"
    assert len(obj["corner_fractions"]) == 4
    assert obj["final_loss"] >= 0.0


def test_meanshape_emd_metric_runs(tmp_path):
    spec = spec_file(tmp_path, family="circle_radius", n_points=10)
    r = run_cli("meanshape", "--spec", spec, "--metric", "emd",
                "--steps", "4", "--batch", "1")
    assert r.returncode == 0
    assert r.stdout.startswith("final_loss ")


def test_meanshape_bad_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{\"family\": \"torus\"}")
    r = run_cli("meanshape", "--spec", str(path), "--steps", "1")
    assert r.returncode == 1
    assert r.stderr.startswith("error:")


def test_meanshape_refuses_non_finite_lr(tmp_path):
    # an infinite step would first show as a non-finite coordinate of x
    spec = spec_file(tmp_path, family="circle_radius", n_points=8)
    r = run_cli("meanshape", "--spec", spec, "--lr", "inf", "--steps", "2")
    assert r.returncode == 1
    assert r.stderr == "error: lr0 must be finite and > 0\n"


def test_meanshape_seed_error_names_it(tmp_path):
    spec = spec_file(tmp_path, family="circle_radius", n_points=8)
    r = run_cli("meanshape", "--spec", spec, "--seed", "-1", "--steps", "2")
    assert r.returncode == 1
    assert r.stderr == "error: seed must be >= 0\n"


def test_meanshape_blames_a_diverging_step(tmp_path):
    # the first step throws x past float64's span: the step diverged, the
    # spec's points are fine
    spec = spec_file(tmp_path, family="circle_radius", n_points=8)
    r = run_cli("meanshape", "--spec", spec, "--lr", "1e308", "--steps", "5")
    assert r.returncode == 1
    assert r.stderr.startswith("error: loss diverged at step 1: inf exceeds")


def test_meanshape_blames_a_step_that_overflows_x(tmp_path):
    # two points far inside the span: the first step overflows x to inf with
    # a finite gradient, so the step diverged, without a warning on the way
    spec = spec_file(tmp_path, family="circle_radius", n_points=64)
    r = run_cli("meanshape", "--spec", spec, "--lr", "1e308", "--batch", "1",
                "--m", "2", "--steps", "5")
    assert r.returncode == 1
    assert r.stderr.startswith("error: loss diverged at step 1: inf exceeds")
    assert r.stderr.count("\n") == 1 and r.stdout == ""


@pytest.mark.parametrize("spec, key", [
    ({"family": "circle_radius", "r_min": "a"}, "r_min"),
    ({"family": ["x"]}, "family"),
    ({"family": "spiky_arc", "n_spikes": None}, "n_spikes"),
    ({"family": "circle_radius", "r_max": float("inf")}, "r_max"),
    ({"family": "circle_radius", "center": [0.5, "nan"]}, "center"),
])
def test_meanshape_spec_value_types(tmp_path, spec, key):
    r = run_cli("meanshape", "--spec", spec_file(tmp_path, **spec),
                "--steps", "1", "--batch", "1")
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {key} must be")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("spec, key", [
    ({"family": "circle_radius", "r_max": 1e308}, "r_max"),
    ({"family": "spiky_arc", "spike_height": 1e300}, "spike_height"),
    ({"family": "corner_square", "bar_width": 1e308}, "bar_width"),
])
def test_meanshape_spec_outline_overflow(tmp_path, spec, key):
    # finite values whose outline length or coordinates overflow float64
    r = run_cli("meanshape", "--spec", spec_file(tmp_path, **spec),
                "--steps", "2", "--batch", "1")
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {key} is too large")
    assert len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("spec, key", [
    ({"family": "spiky_arc", "n_spikes": 10**300}, "n_spikes"),
    ({"family": "circle_radius", "n_points": 10**18}, "n_points"),
])
def test_meanshape_spec_count_past_address_space(tmp_path, spec, key):
    # both counts are refused before anything is allocated
    r = run_cli("meanshape", "--spec", spec_file(tmp_path, **spec),
                "--steps", "2", "--batch", "1")
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {key} is too large")
    assert len(r.stderr.splitlines()) == 1


# --------------------------------------------------------------- selftest

def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    r = run_cli("selftest", "--json")
    assert r.returncode == 0, r.stdout + r.stderr
    obj = json.loads(r.stdout)
    assert obj["command"] == "selftest" and obj["failures"] == 0
    assert len(obj["results"]) == 13
    assert all(set(row) == {"check", "ok"} and row["ok"]
               for row in obj["results"])


def test_selftest_reports_a_failure(monkeypatch, capsys):
    from psm import cli, selftest

    def boom():
        raise AssertionError("boom at 3")

    monkeypatch.setattr(selftest, "CHECKS", [
        (name, boom if name == "emd.auction_soundness" else lambda: None)
        for name, _ in selftest.CHECKS])
    assert cli.main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and sum(line.startswith("ok   ") for line in lines) == 12
    assert lines[7] == "FAIL emd.auction_soundness: boom at 3"
    assert lines[-1] == "1 of 13 checks failed"
    assert cli.main(["selftest", "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["failures"] == 1
    assert [row for row in obj["results"] if not row["ok"]] == [
        {"check": "emd.auction_soundness", "ok": False, "detail": "boom at 3"}]


# ------------------------------------------------------------------- docs

def test_docs_name_every_subcommand():
    from psm.cli import build_parser
    subcommands = set(next(a for a in build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices)
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI")[1].split("```")[1]
    assert set(re.findall(r"^psm (\w+)", block, flags=re.M)) == subcommands
    doc = (root / "docs" / "formats.md").read_text(encoding="utf-8")
    section = doc.split("## CLI outputs")[1].split("\n### ")[0]
    listed = set(re.findall(r"^- `(\w+)`:", section, flags=re.M))
    assert listed == subcommands
