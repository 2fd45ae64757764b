import csv
import dataclasses
import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from qii import cli, geometry, loops
from qii.applications import BoundChain
from qii.cli import main
from qii.errors import DegenerateSpec
from qii.loops import load_loop


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# --- verify ---

def test_verify_small_run(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--m", "2", "--loops", "40", "--n", "512",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "margins.csv")
    assert rows[0][:4] == ["index", "d_fs", "gamma_b", "weak_margin"]
    assert len(rows) == 41
    assert min(float(r[3]) for r in rows[1:]) >= -1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["config"]["seed"] == 1
    assert manifest["version"]


def test_verify_strong_columns(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--m", "2", "--loops", "10", "--n", "512",
                 "--seed", "2", "--strong", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "margins.csv")
    assert rows[0][-2:] == ["strong_margin", "n_subloops"]


def test_strong_verify_summarizes_an_unsplit_loop_once(monkeypatch):
    calls = []
    summarize = cli.summarize
    monkeypatch.setattr(cli, "summarize", lambda loop: calls.append(1) or summarize(loop))
    rows = cli.run_weak_suite(3, 6, 2, 256, 0, strong=True)
    assert any(r[-1] == 1 for r in rows)
    # one summary per loop, plus one per sub-loop of a loop that splits
    assert len(calls) == sum(1 if r[-1] == 1 else 1 + r[-1] for r in rows)


def test_weak_verify_makes_two_overlap_passes_a_row(monkeypatch):
    # Loop's segment gate, which summarize reuses for the full loop, and the
    # half-resolution estimate; fourier_loop gates through Loop
    calls = []
    overlap_pass = geometry._overlap_pass

    def spy(states):
        calls.append(1)
        return overlap_pass(states)

    monkeypatch.setattr(geometry, "_overlap_pass", spy)
    rows = cli.run_weak_suite(3, 10, 2, 2048, 0)
    assert len(calls) == 2 * len(rows) == 20


@pytest.mark.parametrize("report", ["weak_qii", "strong_qii"])
def test_verify_gates_each_report_at_its_own_tol(tmp_path, monkeypatch, report):
    # the verdict reads every report's own bound: 1e-9 here, far inside the
    # fixed 1e-6 floor of tol and the whole loop's 10 * convergence_est
    real = getattr(cli, report)
    monkeypatch.setattr(cli, report, lambda summary, **kwargs: dataclasses.replace(
        real(summary, **kwargs), bound=1e-9, margin=-2e-9))
    out = tmp_path / "run"
    assert main(["verify", "--strong", "--m", "3", "--loops", "6", "--n", "256",
                 "--out", str(out)]) == 2
    assert (out / "violation_loop.csv").exists()


def test_verify_strong_gates_every_subloop(monkeypatch):
    # odd rows are a great circle wound twice, which splits in two; only
    # sub-loop reports (fewer than n segments) are made to fail
    loop_for_index = cli._loop_for_index
    monkeypatch.setattr(cli, "_loop_for_index", lambda m, k, n, seed, i: (
        (None, loops.great_circle([0, 0, 1], n, turns=2)) if i % 2
        else loop_for_index(m, k, n, seed, i)))
    strong_qii = cli.strong_qii

    def report(summary, conjecture=False):
        rep = strong_qii(summary, conjecture=conjecture)
        return dataclasses.replace(rep, margin=-1.0) if summary.n_segments < 256 else rep
    monkeypatch.setattr(cli, "strong_qii", report)
    rows = cli.run_weak_suite(2, 6, 2, 256, 0, strong=True)
    assert [r[-1] for r in rows] == [1, 2] * 3
    assert [r.violated for r in rows] == [False, True] * 3
    assert [len(r) for r in rows] == [8] * 6


def test_verify_single_band_usage_error(tmp_path):
    assert main(["verify", "--m", "1", "--out", str(tmp_path / "x")]) == 1


def test_verify_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--m", "3", "--loops", "12", "--n", "256", "--seed", "5",
          "--out", str(a)])
    main(["verify", "--m", "3", "--loops", "12", "--n", "256", "--seed", "5",
          "--out", str(b)])
    assert (a / "margins.csv").read_text() == (b / "margins.csv").read_text()


# sha256 of two seeded output files: the verdict rules decide exit codes only,
# and may not move a written value; a Fermi-surface row's band is "upper"
@pytest.mark.parametrize("name, argv, digest", [
    ("margins.csv", ["verify", "--strong", "--m", "2", "--loops", "20", "--n", "256",
                     "--seed", "0"],
     "1eae160754d887c0566112e15e0fc5dc8213901a5653c2fc9ff3471dd8b714a6"),
    ("models.csv", ["models", "--model", "rhombohedral", "--layers", "3"],
     "76a507a552d856bbe99c0431edc58193096651548b4917fe3d7b1279ac91c98d"),
    ("spherical.csv", ["figure1"],
     "00e29c4b81a53378881f550b858290f8764612b00f96f730274b74fce3d80e62"),
    ("planar.csv", ["figure1"],
     "2a646de7fd0ce0bc5de00d3cfd92382c32889ce33d32b9f3ec8dce7c0ea4a7f4"),
], ids=["verify", "models", "figure1-spherical", "figure1-planar"])
def test_output_bytes_pinned(tmp_path, name, argv, digest):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_verify_retries_a_degenerate_spec_then_exits_2(tmp_path, monkeypatch, capsys):
    # retry r of loop i draws its spec from SeedSequence([seed, i, r]); after
    # 16 degenerate draws verify reports one error line
    real, specs = cli.fourier_loop, []

    def first_draw_degenerate(spec):
        specs.append(spec)
        if len(specs) == 1:
            raise DegenerateSpec("degenerate draw")
        return real(spec)
    monkeypatch.setattr(cli, "fourier_loop", first_draw_degenerate)
    spec, loop = cli._loop_for_index(3, 2, 64, 7, 4)
    retry = loops.random_fourier_spec(3, 2, 64, np.random.default_rng(
        np.random.SeedSequence([7, 4, 1])))
    assert len(specs) == 2 and spec is specs[1]
    np.testing.assert_array_equal(spec.coeffs, retry.coeffs)
    assert loop.states.tobytes() == real(retry).states.tobytes()

    def always_degenerate(spec):
        specs.append(spec)
        raise DegenerateSpec("degenerate draw")
    monkeypatch.setattr(cli, "fourier_loop", always_degenerate)
    specs.clear()
    capsys.readouterr()
    assert main(["verify", "--m", "2", "--loops", "1", "--n", "64", "--seed", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert len(specs) == 16
    assert capsys.readouterr().err.splitlines() == [
        "error: no valid loop for index 0 after 16 retries"]



@pytest.mark.parametrize("flags", [[], ["--strong"]], ids=["weak", "strong"])
def test_verify_workers_match_serial(tmp_path, monkeypatch, flags):
    # m = 2 loops split, so --strong sends sub-loop columns and verdicts
    # across process boundaries
    serial, parallel = tmp_path / "s", tmp_path / "p"
    argv = ["verify", "--m", "2", "--loops", "16", "--n", "256", "--seed", "3", *flags]
    assert main([*argv, "--out", str(serial)]) == 0
    monkeypatch.setenv("QII_THREADS", "2")
    assert main([*argv, "--out", str(parallel)]) == 0
    assert (serial / "margins.csv").read_bytes() == (parallel / "margins.csv").read_bytes()


def test_verify_workers_with_no_loops_return_no_rows():
    assert cli.run_weak_suite(2, 0, 2, 64, 0, workers=2) == []


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "", "1.5"])
def test_bad_qii_threads_is_a_usage_error(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("QII_THREADS", threads)
    assert main(["verify", "--m", "2", "--loops", "2", "--n", "64",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: QII_THREADS must be a positive integer")
    assert not (tmp_path / "o").exists()


# --- figure1 ---

def test_figure1_tables(tmp_path):
    out = tmp_path / "fig"
    code = main(["figure1", "--n-list", "3,4,6,10000", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "planar.csv")
    quotients = {int(r[0]): float(r[3]) for r in rows[1:]}
    assert quotients[3] == pytest.approx(1.653, abs=1e-3)
    assert quotients[4] == pytest.approx(1.273, abs=1e-3)
    assert quotients[6] == pytest.approx(1.103, abs=1e-3)
    assert quotients[10000] == pytest.approx(1.0, abs=1e-6)
    sph = _read_csv(out / "spherical.csv")
    assert sph[-1][0] == "circle"
    assert float(sph[-1][3]) == pytest.approx(1.0, abs=1e-12)
    assert (out / "figure1.svg").read_text().startswith("<svg")


def test_figure1_spherical_quotient_decreases(tmp_path):
    out = tmp_path / "fig"
    main(["figure1", "--n-list", "3,8,64", "--out", str(out)])
    rows = _read_csv(out / "spherical.csv")
    qs = [float(r[3]) for r in rows[1:-1]]
    assert qs[0] > qs[1] > qs[2] > 1.0
    assert qs[2] == pytest.approx(1.0, abs=1e-2)


def test_figure1_circle_row_is_the_limit_of_the_polygon_rows(tmp_path):
    # past the equator the polygons enclose the smaller, south-polar cap
    out = tmp_path / "fig"
    assert main(["figure1", "--theta", "3.1", "--n-list", "3,1000", "--out", str(out)]) == 0
    rows = {r[0]: r for r in _read_csv(out / "spherical.csv")[1:]}
    assert float(rows["circle"][2]) == pytest.approx(float(rows["1000"][2]), rel=1e-5)


@pytest.mark.parametrize("theta", ["2e-8", "1e-8", "1e-12"])
def test_figure1_near_the_north_pole(tmp_path, theta):
    # the circle's cap area pi min(sin, cos)^2 (theta / 2) keeps its digits
    # where 1 - |cos theta| cancels, and so do the polygons' corner fans
    out = tmp_path / "fig"
    assert main(["figure1", "--theta", theta, "--out", str(out)]) == 0
    rows = _read_csv(out / "spherical.csv")[1:]
    assert rows[-1][0] == "circle"
    assert all(float(r[3]) >= 1 - 1e-12 for r in rows)


def test_figure1_refuses_an_area_that_underflows(tmp_path, capsys):
    assert main(["figure1", "--theta", "1e-300", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --theta is too close to a pole")
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, where", [
    (["verify", "--m", "3", "--loops", "1"], "run_weak_suite"),
    (["loop-io", "export", "c.csv", "--generator", "bloch-circle"], "bloch_circle"),
])
def test_exhausted_memory_is_one_error_line(tmp_path, capsys, monkeypatch, argv, where):
    # a huge --n ends in numpy's MemoryError subclass; raised here instead of
    # asking for terabytes, which an overcommitting kernel may grant
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. TiB")
    monkeypatch.setattr(cli, where, exhausted)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 149. TiB\n"


# --- models ---

def test_models_ssh_topological(tmp_path):
    out = tmp_path / "m"
    code = main(["models", "--model", "ssh", "--v", "0", "--w", "1",
                 "--nk", "512", "--out", str(out), "--svg"])
    assert code == 0
    rows = _read_csv(out / "models.csv")
    assert float(rows[1][4]) == pytest.approx(np.pi, abs=1e-6)
    assert float(rows[1][5]) == pytest.approx(np.pi, abs=1e-6)
    assert (out / "models.svg").exists()


def test_models_rhombohedral_aggregate(tmp_path):
    out = tmp_path / "m"
    code = main(["models", "--model", "rhombohedral", "--layers", "3",
                 "--ef", "1", "--nk", "768", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "models.csv")
    agg = [r for r in rows[1:] if r[2] == "aggregate"][0]
    assert float(agg[4]) == pytest.approx(3 * np.pi, abs=1e-5)
    assert float(agg[5]) == pytest.approx(3 * np.pi, abs=1e-5)


def test_models_json_config_file(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text('{"kind": "ssh", "parameters": {"v": 2.0, "w": 1.0}}')
    out = tmp_path / "m"
    code = main(["models", "--model-json", str(cfg), "--nk", "256", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "models.csv")
    assert float(rows[1][5]) == pytest.approx(0.0, abs=1e-6)  # trivial phase


# --- apps ---

def test_apps_eph_dirac(tmp_path):
    out = tmp_path / "a"
    code = main(["apps", "--app", "eph", "--model", "dirac", "--vf", "1",
                 "--ef", "1", "--nk", "128", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "chain.csv")
    values = [float(r[1]) for r in rows[1:]]
    np.testing.assert_allclose(values, np.pi / 2, atol=1e-6)
    report = json.loads((out / "report.json").read_text())
    assert report["monotone"] is True


def test_apps_wannier_creutz(tmp_path):
    out = tmp_path / "a"
    code = main(["apps", "--app", "wannier", "--model", "creutz", "--t", "1",
                 "--nk", "64", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "chain.csv")
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]], 0.25, atol=1e-6)


def test_apps_speed_demo(tmp_path):
    out = tmp_path / "a"
    code = main(["apps", "--app", "speed", "--theta-c", "1.0", "--ratio", "40",
                 "--steps", "4000", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "chain.csv")
    tau, bound = float(rows[1][1]), float(rows[2][1])
    assert tau > bound > 0


def test_apps_sfweight_config_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "creutz", "t": 1.0, "nk": 64}))
    out = tmp_path / "a"
    code = main(["apps", "--app", "sfweight", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "chain.csv")
    np.testing.assert_allclose([float(r[1]) for r in rows[1:]],
                               1.0 / (16 * np.pi), atol=1e-8)


def test_apps_config_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "ssh", "v": 0.0, "w": 1.0, "nk": 64}))
    out = tmp_path / "a"
    code = main(["apps", "--app", "sfweight", "--config", str(cfg),
                 "--v", "2.0", "--out", str(out)])  # flag overrides config
    assert code == 0
    rows = _read_csv(out / "chain.csv")
    assert float(rows[3][1]) == pytest.approx(0.0, abs=1e-12)  # gamma = 0 branch


def test_apps_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["apps", "--app", "wannier", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("layers", [4, 5])
def test_apps_eph_rhombohedral_many_layers_monotone(tmp_path, layers):
    # central differences leave rises of ~1e-6 on chains of magnitude 25-40;
    # the gate scales the saturation floor with the chain's magnitude
    out = tmp_path / "a"
    assert main(["apps", "--app", "eph", "--model", "rhombohedral", "--layers",
                 str(layers), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["monotone"] is True


def test_apps_gates_on_the_default_monotone_floor(tmp_path, monkeypatch):
    calls = []
    is_monotone = BoundChain.is_monotone

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        return is_monotone(self, *args, **kwargs)
    monkeypatch.setattr(BoundChain, "is_monotone", spy)
    assert main(["apps", "--app", "wannier", "--nk", "64", "--out", str(tmp_path / "a")]) == 0
    assert calls == [((), {})]


def test_apps_chain_rising_by_1e4_of_its_maximum_fails(tmp_path, monkeypatch):
    top = 40.0
    chain = BoundChain(entries=(("a", top * (1.0 - 1e-4)), ("b", top)), unit="length")
    monkeypatch.setattr(cli, "eph_bound_chain", lambda *args: chain)
    out = tmp_path / "a"
    assert main(["apps", "--app", "eph", "--model", "rhombohedral", "--layers", "5",
                 "--out", str(out)]) == 2
    assert json.loads((out / "report.json").read_text())["monotone"] is False


def test_apps_model_past_1e154_matches_the_unscaled_model(tmp_path, capsys):
    lines = []
    for scale in (1e200, 1.0):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"kind": "fourier_bloch", "parameters": {
            "const": [0, 0, 2 * scale], "cos": [[scale, 0, 0]], "sin": [[0, scale, 0]]}}))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["apps", "--app", "wannier", "--model-json", str(cfg), "--nk", "64",
                         "--out", str(tmp_path / "a")])
        assert code == 0 and seen == []
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert lines[0].startswith("apps/wannier: 0.0499999998 >= 0.0499678744 >= ")


# --- search ---

def test_search_cli_run_record(tmp_path):
    out = tmp_path / "s"
    code = main(["search", "--m", "2", "--k", "1", "--n", "128", "--budget",
                 "2000", "--restarts", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "run.json").read_text())
    assert record["best_margin"] >= -1e-5
    assert record["config"]["budget"] == 2000
    assert record["evals"] <= 2000  # no simplex step runs past the budget
    assert not record["violation"]


def test_search_cli_seed_list_merges(tmp_path):
    out = tmp_path / "s"
    code = main(["search", "--m", "2", "--k", "1", "--n", "128", "--budget",
                 "800", "--restarts", "1", "--seeds", "1,2", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "run.json").read_text())
    assert record["seeds"] == [1, 2]
    assert len(record["runs"]) == 2
    margins = [r["best_margin"] for r in record["runs"]]
    assert record["best_margin"] == min(margins)


def test_search_cli_violation_discovery_path(tmp_path, monkeypatch):
    # no real violation is known; force one to exercise the exit-2 contract
    import qii.cli as cli
    from qii.loops import FourierLoopSpec
    from qii.search import SearchResult

    coeffs = np.zeros((1, 3), dtype=complex)
    coeffs[0, 2] = 1.0
    fake = SearchResult(
        best_margin=-1e-3, best_spec=FourierLoopSpec(2, coeffs, 1, 64),
        evals=123, history=((1, -1e-3),), status="completed",
        violation=True, margin_at_n=-1e-3)
    monkeypatch.setattr(cli, "minimize_margin", lambda cfg: fake)
    out = tmp_path / "s"
    code = main(["search", "--m", "2", "--k", "1", "--n", "64", "--budget",
                 "200", "--restarts", "1", "--out", str(out)])
    assert code == 2
    loop, _ = load_loop(out / "counterexample_loop.csv")
    assert loop.n == 64   # written at the search's own resolution
    record = json.loads((out / "run.json").read_text())
    assert record["violation"] is True


def test_models_table_csv(tmp_path):
    table = tmp_path / "table.csv"
    ks = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    with open(table, "w") as fh:
        fh.write("k,nx,ny,nz\n")
        for k in ks:
            fh.write(f"{k},{np.cos(k)},{np.sin(k)},0.0\n")  # winding-1 equator
    out = tmp_path / "m"
    code = main(["models", "--table-csv", str(table), "--nk", "256",
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "models.csv")
    assert float(rows[1][4]) == pytest.approx(np.pi, abs=1e-3)
    assert float(rows[1][5]) == pytest.approx(np.pi, abs=1e-3)


# --- loop-io ---

def test_loop_io_roundtrip(tmp_path, capsys):
    path = tmp_path / "loop.csv"
    assert main(["loop-io", "export", str(path), "--generator", "great-circle",
                 "--axis", "0,0,1", "--n", "256", "--turns", "2",
                 "--out", str(tmp_path / "o1")]) == 0
    loop, meta = load_loop(path)
    assert loop.n == 256 and meta["generator"] == "great-circle"
    capsys.readouterr()
    assert main(["loop-io", "import", str(path), "--split",
                 "--out", str(tmp_path / "o2")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["subloops"]) == 2
    for sub in doc["subloops"]:
        assert sub["d_fs"] == pytest.approx(np.pi, abs=1e-6)
        assert sub["gamma_b"] == pytest.approx(np.pi, abs=1e-6)


@pytest.mark.parametrize("generator, options, params, expected", [
    ("spherical-polygon", ["--vertices", "4", "--theta", "1.0", "--n-per-edge", "16"],
     {"vertices": 4, "theta": 1.0, "n_per_edge": 16},
     lambda: loops.spherical_polygon(4, 1.0, 16)),
    ("fourier-random", ["--m", "3", "--k", "2", "--n", "64", "--seed", "7"],
     {"m": 3, "k": 2, "n": 64},
     lambda: loops.fourier_loop(loops.random_fourier_spec(3, 2, 64, 7))),
], ids=["spherical-polygon", "fourier-random"])
def test_loop_io_export_import_roundtrip(tmp_path, capsys, generator, options, params,
                                         expected):
    path = tmp_path / "loop.csv"
    assert main(["loop-io", "export", str(path), "--generator", generator, *options,
                 "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    assert main(["loop-io", "import", str(path), "--out", str(tmp_path / "i")]) == 0
    doc = json.loads(capsys.readouterr().out)
    loop = expected()
    assert (doc["n"], doc["dim"]) == (loop.n, loop.dim)
    assert doc["meta"]["generator"] == generator and doc["meta"]["parameters"] == params
    loaded, _ = load_loop(path)
    np.testing.assert_allclose(loaded.states, loop.states, rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", [["--model", "rhombohedral", "--layers", "2"],
                                   ["--model", "dirac"]])
@pytest.mark.parametrize("band", [[], ["--band", "lower"], ["--band", "upper"]])
def test_models_csv_names_the_upper_band_of_a_fermi_surface(tmp_path, model, band):
    # fermi_surface_loop takes the upper band at E_F > 0, whatever --band says
    assert main(["models", *model, *band, "--nk", "64", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "models.csv")
    assert rows[0][1] == "band" and {r[1] for r in rows[1:]} == {"upper"}


def test_loop_io_writes_a_manifest_into_out(tmp_path):
    path = tmp_path / "loop.csv"
    for action, out in (("export", tmp_path / "a" / "o1"), ("import", tmp_path / "b" / "o2")):
        assert main(["loop-io", action, str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "loop-io"
        assert manifest["config"]["action"] == action


_THREAD_VARIABLES = ["QII_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"]


@pytest.mark.parametrize("values", [["2", "1", "1", "1"], [None, "4", None, "1"],
                                    [None, None, None, None]], ids=["set", "some", "unset"])
def test_manifest_records_the_thread_variables(tmp_path, monkeypatch, values):
    # read from the environment as they are, null when unset, and never set
    for name, value in zip(_THREAD_VARIABLES, values):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    out = tmp_path / "o"
    assert main(["loop-io", "export", str(tmp_path / "loop.csv"), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == dict(zip(_THREAD_VARIABLES, values))
    assert [os.environ.get(name) for name in _THREAD_VARIABLES] == values


def _models_argv(tmp_path):
    return ["models", "--nk", "256", "--out", str(tmp_path / "m")]


def _loop_io_import_argv(tmp_path):
    path = tmp_path / "loop.csv"
    assert main(["loop-io", "export", str(path), "--out", str(tmp_path / "e")]) == 0
    return ["loop-io", "import", str(path), "--out", str(tmp_path / "i")]


@pytest.mark.parametrize("report", ["weak_qii", "strong_qii"])
@pytest.mark.parametrize("make_argv", [_models_argv, _loop_io_import_argv])
def test_violated_report_exits_2(tmp_path, monkeypatch, capsys, make_argv, report):
    argv = make_argv(tmp_path)
    assert main(argv) == 0
    real = getattr(cli, report)

    def violated(summary, **kwargs):  # the margin just past -bound
        rep = real(summary, **kwargs)
        return dataclasses.replace(rep, margin=np.nextafter(-rep.bound, -np.inf))
    monkeypatch.setattr(cli, report, violated)
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_loop_io_imports_large_finite_amplitudes(tmp_path, capsys):
    # the row norm of 1e308 + 1e308 i once overflowed and the row was refused
    path = tmp_path / "loop.csv"
    path.write_text('# {"m": 2, "n": 3}\nindex,re_0,im_0,re_1,im_1\n'
                    "0,1e308,1e308,0,0\n1,1,0,1,0\n2,1,0,0,1\n")
    assert main(["loop-io", "import", str(path), "--out", str(tmp_path / "i")]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    loop, _ = load_loop(path)
    np.testing.assert_array_equal(loop.states[0], [(1 + 1j) / np.sqrt(2), 0])



def test_loop_io_import_missing_file(tmp_path):
    assert main(["loop-io", "import", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 2


# --- malformed inputs and usage errors ---

def _loop_csv_without_rows(path):
    path.write_text('# {"m": 2, "n": 0}\nindex,re_0,im_0,re_1,im_1\n')
    return ["loop-io", "import", str(path)]


def _loop_csv_with_zero_row(path):
    path.write_text('# {"m": 2, "n": 3}\nindex,re_0,im_0,re_1,im_1\n'
                    "0,1,0,0,0\n1,0,0,0,0\n2,0,0,1,0\n")
    return ["loop-io", "import", str(path)]


def _loop_csv_with_infinite_amplitude(path):
    # inf * 1j would make a nan, and numpy warn, before the typed error
    path.write_text('# {"m": 2, "n": 3}\nindex,re_0,im_0,re_1,im_1\n'
                    "0,inf,0.0,0.5,0.5\n1,0,0,1,0\n2,1,0,1,0\n")
    return ["loop-io", "import", str(path)]


def _loop_csv_with_odd_columns(path):
    path.write_text('# {"m": 2, "n": 3}\nindex,re_0,im_0,re_1\n'
                    "0,1,0,0\n1,0,0,1\n2,1,0,1\n")
    return ["loop-io", "import", str(path)]


def _table_csv_without_rows(path):
    path.write_text("k,nx,ny,nz\n")
    return ["models", "--table-csv", str(path)]


def _table_csv_with_extra_column(path):
    path.write_text("k,nx,ny,nz,extra\n0,1,0,0,9\n1,0,1,0,9\n2,0,0,1,9\n")
    return ["models", "--table-csv", str(path)]


def _input_file(content, *command):
    """argv of `command` given a file holding `content`, text or bytes."""
    def argv(path):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return [*command, str(path)]
    return argv


_LOOP_HEAD = '# {"m": 2, "n": 3}\nindex,re_0,im_0,re_1,im_1\n'


def _model_json(text):
    def argv(path):
        path.write_text(text)
        return ["models", "--model-json", str(path)]
    return argv


@pytest.mark.parametrize("make_argv, message", [
    (_loop_csv_without_rows, "no data rows"),
    (_loop_csv_with_zero_row, "zero or non-finite"),
    (_loop_csv_with_infinite_amplitude, "zero or non-finite"),
    (_loop_csv_with_odd_columns, "re/im pairs"),
    # a malformed file raises a typed error that names it ("input")
    (_input_file(_LOOP_HEAD + "0\n1\n2\n", "loop-io", "import"),
     "input: loop rows must hold re/im pairs"),
    (_input_file(_LOOP_HEAD + "0,1,0,0,0\n1,1,0\n2,0,0,1,0\n", "loop-io", "import"),
     "input: loop rows must all hold the same number of values"),
    (_input_file(_LOOP_HEAD + "0,1,0,0,0\n1,abc,0,1,0\n2,0,0,1,0\n", "loop-io", "import"),
     "input: could not convert string to float: 'abc'"),
    (_input_file('# {"m": 2\nindex,re_0,im_0\n0,1,0\n', "loop-io", "import"), "input: Expecting"),
    (_input_file("index,re_0,im_0\n0,1,0\n", "loop-io", "import"),
     "input: missing JSON header line"),
    (_input_file(_LOOP_HEAD.encode() + b"0,1,0,0,0\n1,\xff,0,1,0\n", "loop-io", "import"),
     "input: 'utf-8' codec can't decode"),
    (_input_file("k,nx,ny,nz\n0,1,0,x\n", "models", "--table-csv"),
     "input: could not convert string to float: 'x'"),
    (_input_file(b"k,nx,ny,nz\n0,1,0,\xff\n", "models", "--table-csv"),
     "input: 'utf-8' codec can't decode"),
    (_input_file("k,nx,ny,nz\n" + "1" * 200_000 + ",0,0,1\n", "models", "--table-csv"),
     "input: field larger than field limit"),
    (_input_file('{"kind": "ssh"', "models", "--model-json"), "input: Expecting"),
    (_input_file(b'{"kind": "\xff"}', "models", "--model-json"),
     "input: 'utf-8' codec can't decode"),
    (_table_csv_without_rows, "no data rows"),
    (_table_csv_with_extra_column, "4 values"),
    (_model_json('{"kind": "ssh", "parameters": {}}'), "'v'"),
    (_model_json('{"kind": "rhombohedral"}'), "'n_layers'"),
    (_model_json('{"parameters": {"t": 1.0}}'), "'kind'"),
    (_model_json('["ssh"]'), "object"),
    (_model_json('{"kind": "dirac", "parameters": {"v_f": 0}}'), "Fermi velocity"),
    (_model_json('{"kind": "ssh", "parameters": {"v": 1, "w": 2, "u": 3}}'), "'u'"),
    (_model_json('{"kind": "rhombohedral", "parameters": {"n_layers": 2, "scael": 3}}'),
     "'scael'"),
    (_model_json('{"kind": "dirac", "lattice_const": "abc"}'), "'abc'"),
    (_model_json('{"kind": "fourier_bloch", "parameters": {"const": [1, 0], '
                 '"cos": [[0, 0, 1]], "sin": [[0, 1, 0]]}}'), "3-vector"),
])
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, make_argv, message):
    argv = make_argv(tmp_path / "input") + ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, message", [
    pytest.param(["apps", "--app", "wannier", "--a", "-1"], "lattice constant", id="command0"),
    pytest.param(["models", "--a", "-1"], "lattice constant", id="command1"),
    # a chain given a model of the other dimension
    pytest.param(["apps", "--app", "eph", "--model", "ssh"],
                 "Fermi-surface loops need a 2D model", id="eph-ssh"),
    pytest.param(["apps", "--app", "sfweight", "--model", "dirac"],
                 "the superfluid-weight chain is implemented for 1D models", id="sfweight-dirac"),
    pytest.param(["apps", "--app", "wannier", "--model", "dirac"],
                 "the Wannier chain is implemented for 1D models", id="wannier-dirac"),
])
def test_bad_model_exits_2_before_the_manifest(tmp_path, capsys, command, message):
    # the model is built and fitted to the chain before the output directory
    assert main(command + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


_GAPLESS_SSH = ["--model", "ssh", "--v", "1", "--w", "1", "--nk", "64"]


@pytest.mark.parametrize("make_argv, code, message", [
    pytest.param(lambda path: ["apps", "--app", "wannier", *_GAPLESS_SSH], 2, "gap",
                 id="apps-chain"),
    pytest.param(lambda path: ["models", *_GAPLESS_SSH], 2, "gap", id="models-loop"),
    pytest.param(_loop_csv_without_rows, 2, "no data rows", id="import-file"),
    pytest.param(lambda path: ["loop-io", "export", str(path.with_name("gc.csv")),
                               "--generator", "great-circle", "--n", "4", "--turns", "2"],
                 1, "consecutive overlap", id="export-loop"),
    pytest.param(lambda path: ["apps", "--app", "speed", "--steps", "1"], 2, "norm drift",
                 id="speed-chain"),
])
def test_a_failed_input_writes_nothing(tmp_path, capsys, make_argv, code, message):
    # each run builds its model, chain, loop or loop file before the manifest;
    # a failed export loop is a usage error, since its every input is a flag
    argv = make_argv(tmp_path / "input") + ["--out", str(tmp_path / "o")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "error: ") and message in err
    assert not (tmp_path / "o").exists()
    assert [p.name for p in tmp_path.iterdir()] in ([], ["input"])   # no gc.csv either


@pytest.mark.parametrize("command", [
    ["apps", "--app", "eph", "--model", "dirac"], ["models", "--model", "dirac"],
    # runs that build no Fermi surface check --ef too
    ["models", "--model", "ssh", "--nk", "16"], ["apps", "--app", "wannier", "--nk", "16"]])
@pytest.mark.parametrize("e_f", ["nan", "inf", "-inf", "0", "-1"])
def test_bad_fermi_energy_exits_2_with_one_error_line(tmp_path, capsys, command, e_f):
    # warnings are errors under this suite's filterwarnings, so none is raised
    argv = command + [f"--ef={e_f}", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Fermi energy E_F must be finite and positive")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "3", "--loops", "0"],
    ["verify", "--m", "3", "--n", "16"],
    ["search", "--m", "3", "--n", "16"],
    ["search", "--m", "3", "--k", "-1"],
    ["apps", "--app", "speed", "--steps", "0"],
    ["apps", "--app", "speed", "--ratio", "0"],
    ["apps", "--app", "speed", "--ratio", "inf"],
    ["search", "--m", "3", "--coeff-bound", "nan"],
    ["search", "--m", "3", "--coeff-bound", "inf"],
    ["search", "--m", "3", "--coeff-bound", "0"],
    ["search", "--m", "3", "--coeff-bound", "-1"],
    ["apps", "--app", "wannier", "--nk", "0"],
    ["apps", "--app", "eph", "--model", "dirac", "--nk", "2"],
    ["apps", "--app", "sfweight", "--nk", "0"],
    ["models", "--nk", "0"],
    ["models", "--nk", "2"],
    ["figure1", "--n-list", "0"],
    ["figure1", "--n-list", "2"],
    ["figure1", "--n-list", "4,-3"],
    ["figure1", "--n-list", ","],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--axis", "1,2"],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--axis", "0,0,0"],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--axis", "nan,0,1"],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--axis", "1,x,2"],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--turns", "0"],
    ["apps", "--app", "sfweight", "--u", "nan"],
    ["apps", "--app", "sfweight", "--u", "inf"],
    ["apps", "--app", "sfweight", "--u", "-1"],
    ["apps", "--app", "sfweight", "--u", "0"],
    ["search", "--m", "3", "--budget", "50"],
    ["search", "--m", "3", "--restarts", "0"],
    ["search", "--m", "1"],
    ["loop-io", "export", "fr.csv", "--generator", "fourier-random", "--k", "-1"],
    ["loop-io", "export", "fr.csv", "--generator", "fourier-random", "--m", "1"],
    # negative seeds and cone angles outside (0, pi/2), caught before the manifest
    ["verify", "--m", "2", "--seed", "-1"],
    ["search", "--m", "2", "--seed", "-1"],
    ["search", "--m", "2", "--seeds", "1,-2"],
    ["loop-io", "export", "fr.csv", "--generator", "fourier-random", "--seed", "-3"],
    ["apps", "--app", "speed", "--theta-c", "2"],
    ["apps", "--app", "speed", "--theta-c", "0"],
    ["apps", "--app", "speed", "--theta-c", "-0.5"],
    ["apps", "--app", "wannier", "--theta-c", "2"],
    # polygon, circle and filling ranges, caught before the manifest
    ["apps", "--app", "sfweight", "--nu", "1.5"],
    ["apps", "--app", "sfweight", "--nu", "0"],
    ["figure1", "--theta", "0"],
    ["figure1", "--theta", "4"],
    ["figure1", "--n-per-edge", "64"],   # the corner polygons take no such flag
    ["loop-io", "export", "bc.csv", "--generator", "bloch-circle", "--theta", "0"],
    ["loop-io", "export", "bc.csv", "--generator", "bloch-circle", "--n", "2"],
    ["loop-io", "export", "gc.csv", "--generator", "great-circle", "--n", "2"],
    ["loop-io", "export", "sp.csv", "--generator", "spherical-polygon", "--vertices", "2"],
    ["loop-io", "export", "sp.csv", "--generator", "spherical-polygon", "--theta", "-1"],
    ["loop-io", "export", "sp.csv", "--generator", "spherical-polygon", "--n-per-edge", "0"],
    ["search", "--m", "10", "--k", "5", "--budget", "100"],
])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["apps", "--app", "speed", "--steps", "0"], "need at least one integration step, got 0"),
    (["apps", "--app", "speed", "--ratio", "-2"], "period ratio must be positive and finite"),
    (["loop-io", "export", "gc.csv", "--generator", "great-circle", "--turns", "0"],
     "need turns >= 1, got 0"),
])
def test_flag_rules_give_the_library_s_message(tmp_path, capsys, argv, message):
    # evolve, adiabatic_cone_demo and great_circle own these rules
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: {message}")
    assert not (tmp_path / "o").exists()


# the required arguments of each subcommand; models and apps use a 2D model
# so that --ef reaches the Fermi-surface check
_FUZZ_BASE = {
    "verify": ["--m", "2"],
    "figure1": [],
    "models": ["--model", "dirac"],
    "apps": ["--app", "eph", "--model", "dirac"],
    "search": ["--m", "2"],
    "loop-io": ["export", "loop.csv"],
}


def _float_flags():
    _, by_name = cli.build_parser()
    assert set(by_name) == set(_FUZZ_BASE)
    return [(name, action.option_strings[0]) for name, sub in by_name.items()
            for action in sub._actions if action.type is float]


@pytest.mark.parametrize("command, flag", _float_flags())
def test_non_finite_float_flags_end_in_one_error_line(tmp_path, capsys, monkeypatch,
                                                      command, flag):
    # a ValueError or QiiError is caught by main; any other exception fails here
    monkeypatch.chdir(tmp_path)
    for value in ("nan", "inf", "-inf"):
        argv = [command, *_FUZZ_BASE[command], f"{flag}={value}", "--out", "o"]
        assert main(argv) in (1, 2), argv
        err = capsys.readouterr().err
        assert err.startswith(("usage error:", "error:")) and err.count("\n") == 1, argv


@pytest.mark.parametrize("text", ['{"loops": 0}', '{"m": ', '["m", 3]', None])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:  # None: the file does not exist
        cfg.write_text(text)
    assert main(["verify", "--m", "3", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("command, config", [
    (["models"], {"model": "nope"}),
    (["models"], {"band": "middle"}),
    (["apps", "--app", "wannier"], {"band": "middle"}),
    (["verify", "--m", "2"], {"n": 256.5}),
    (["verify", "--m", "2"], {"loops": 2.5}),
    # keys are the subcommand's options: not its positionals, not --help
    (["verify", "--m", "2"], {"help": True}),
    (["loop-io", "export", "x.csv"], {"file": "x"}),
    (["verify", "--m", "2"], {"out": None}),   # null only where the default is None
    (["verify", "--m", "2"], {"strong": 1}),
    (["figure1"], {"n_per_edge": 64}),   # the corner polygons take no such flag
])
def test_malformed_config_value_is_a_usage_error(tmp_path, capsys, command, config):
    # config values pass the choices and types their flags do
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_lists_and_switches_keep_working(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_list": [3, 5]}')
    assert main(["figure1", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    assert [r[0] for r in _read_csv(tmp_path / "f" / "planar.csv")[1:]] == ["3", "5"]
    cfg.write_text('{"loops": 2, "n": 64, "strong": true}')
    assert main(["verify", "--m", "2", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    assert _read_csv(tmp_path / "v" / "margins.csv")[0][-1] == "n_subloops"
    cfg.write_text('{"seeds": [1, 2], "budget": 100, "n": 64}')
    assert main(["search", "--m", "2", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "run.json").read_text())["seeds"] == [1, 2]


# the arguments a subcommand cannot run without; --config cannot supply them
_REQUIRED = {"verify": ["--m", "2"], "search": ["--m", "2"], "apps": ["--app", "eph"],
             "loop-io": ["export", "loop.csv"]}


def _config_cases():
    """(command, dest, config value, the same value as flag tokens) for every
    option a --config entry can set; values that start with '-' show that
    the entry is not read as an option."""
    _, by_name = cli.build_parser()
    cases = []
    for name, sub in by_name.items():
        for action in sub._actions:
            if not action.option_strings or action.required or action.dest in ("help", "config"):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                value, tokens = True, [flag]
            elif action.type is cli._int_list:
                value, tokens = [3, 5], [f"{flag}=3,5"]
            elif action.choices:
                value = action.choices[-1]
                tokens = [f"{flag}={value}"]
            else:
                value, text = {float: (-np.inf, "-inf"), int: (-7, "-7")}.get(
                    action.type, ("-x", "-x"))
                tokens = [f"{flag}={text}"]
            cases.append(pytest.param(name, action.dest, value, tokens, id=f"{name}-{action.dest}"))
    return cases


@pytest.mark.parametrize("command, dest, value, tokens", _config_cases())
def test_config_entry_parses_as_its_flag(tmp_path, monkeypatch, command, dest, value, tokens):
    # the namespace is captured before any check, so out-of-range values compare too
    seen = []
    monkeypatch.setattr(cli, "_check_args", lambda args: None)
    monkeypatch.setattr(cli, "_cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(vars(args)) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: value}))
    argv = [command, *_REQUIRED.get(command, [])]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert main(argv + tokens) == 0
    from_config, from_flags = seen
    assert from_config == {**from_flags, "config": str(cfg)}
    assert from_flags[dest] != cli.build_parser()[1][command].get_default(dest)


@pytest.mark.parametrize("command, config", [
    (["verify"], {"m": 3}),
    (["search"], {"m": 3}),
    (["apps"], {"app": "eph"}),
])
def test_config_cannot_supply_a_required_flag(tmp_path, capsys, command, config):
    # the first parse, which finds --config, already needs the required flags
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: the following arguments are required: --")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_main_builds_one_parser_and_each_call_stands_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text('{"loops": 2, "n": 64, "strong": true}')
    calls = [["verify", "--m", "2", "--config", "cfg.json", "--out", "a"],
             ["verify", "--m", "2", "--loops", "2", "--n", "64", "--out", "b"],
             ["verify", "--m", "3", "--loops", "2", "--n", "64", "--strong", "--out", "c"],
             ["verify", "--m", "3", "--loops", "2", "--n", "64", "--out", "d"]]

    def outputs(argv):
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(Path(argv[-1]).iterdir())}

    cli.build_parser()
    built = cli.build_parser.cache_info().misses
    in_turn = [outputs(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == built
    assert "strong_margin" not in in_turn[1]["margins.csv"].decode()
    for argv, seen in zip(calls, in_turn):
        shutil.rmtree(argv[-1])
        cli.build_parser.cache_clear()   # alone: on a parser no call has used
        assert outputs(argv) == seen


@pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]])
def test_config_is_read_in_every_spelling(tmp_path, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"loops": 3, "n": 64}')
    out = tmp_path / "o"
    flags = [s.format(cfg) for s in spelling]
    assert main(["verify", "--m", "2", *flags, "--out", str(out)]) == 0
    assert len(_read_csv(out / "margins.csv")) == 4
    assert json.loads((out / "manifest.json").read_text())["config"]["n"] == 64


# --- misc ---

def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_usage():
    assert main(["frobnicate"]) == 1
