import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (CHIRAL_OPERATORS, PAULI, chart_metric_grid, elementwise_gated_bloch,
                     full_stack_metric, hamiltonian, outer_fourier_bloch, per_k_band_states,
                     where_spinors)
from qii import models
from qii.config import TOL
from qii.errors import (DegenerateAtTolerance, EmptyInput, OutOfRange, QiiError,
                        SingularAtDiracPoint, WrongDimension)
from qii.geometry import (bloch_vectors, loop_berry_phase, loop_distance, qgt_at,
                          summarize)
from qii.inequalities import aggregate_subloops
from qii.loops import load_loop, split_self_intersections
from qii.models import (band_chart, band_geometry, band_state, band_states, bloch,
                        bloch_table, bloch_table_from_csv, bz_loop,
                        creutz, dirac, dirac_metric, fermi_surface_loop,
                        fourier_bloch, metric_grid, model_from_json,
                        rhombohedral, ssh)

_RNG = np.random.default_rng(12)
_TABLE_KS = np.linspace(0.05, 2 * np.pi, 64, endpoint=False)   # first node above 0
# one model of every kind; the table samples a gapped SSH-like Bloch vector
EVERY_KIND = [
    ssh(0.7, 1.3, a=1.5), creutz(1.2, a=0.8),
    fourier_bloch([0.2, -0.3, 1.6], _RNG.normal(size=(2, 3)) / 3, _RNG.normal(size=(2, 3)) / 3,
                  a=1.2),
    bloch_table(_TABLE_KS, np.c_[0.5 + np.cos(_TABLE_KS), np.sin(_TABLE_KS),
                                 0.3 * np.cos(2 * _TABLE_KS)]),
    rhombohedral(3, scale=0.7), dirac(1.5),
]


def _k_points(spec, n):
    rng = np.random.default_rng(n)
    if spec.dim_k == 1:
        return rng.uniform(0.0, 2 * np.pi / spec.a, n)
    radius, angle = rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2 * np.pi, n)
    return np.c_[radius * np.cos(angle), radius * np.sin(angle)]


# --- hamiltonian ---

def test_ssh_hamiltonian_plug_in():
    np.testing.assert_allclose(hamiltonian(ssh(0, 1), np.pi / 2), PAULI[1], atol=1e-15)


def test_dirac_hamiltonian_plug_in():
    np.testing.assert_allclose(hamiltonian(dirac(1.0), [1.0, 0.0]), PAULI[0], atol=1e-15)


def test_creutz_flat_bands():
    for k in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        vals = np.linalg.eigvalsh(hamiltonian(creutz(1.0), k))
        np.testing.assert_allclose(vals, [-2, 2], atol=1e-12)


def test_chiral_symmetry_all_builtins():
    rng = np.random.default_rng(1)
    specs_and_ks = [
        (ssh(0.7, 1.3), rng.uniform(0, 2 * np.pi, 16)),
        (rhombohedral(3), rng.uniform(-1, 1, (16, 2))),
        (dirac(2.0), rng.uniform(-1, 1, (16, 2))),
        (creutz(1.2), rng.uniform(0, 2 * np.pi, 16)),
    ]
    for spec, ks in specs_and_ks:
        c = CHIRAL_OPERATORS[spec.kind]
        for k in ks:
            h = hamiltonian(spec, k)
            assert np.abs(c @ h + h @ c).max() < 1e-12


# --- band_state ---

def test_ssh_lower_band_traces_equator():
    loop = bz_loop(ssh(0, 1), "lower", 128)
    z = bloch_vectors(loop.states)[:, 2]
    assert np.abs(z).max() < 1e-12


def test_dirac_lower_band_bloch_vector():
    for alpha in (0.0, 0.9, 2.2):
        k = np.array([np.cos(alpha), np.sin(alpha)])
        psi = band_state(dirac(1.0), k, "lower")
        expected = -np.array([np.cos(alpha), np.sin(alpha), 0.0])
        np.testing.assert_allclose(bloch_vectors(psi[None, :])[0], expected, atol=1e-12)


def test_creutz_lower_band_great_circle():
    s = summarize(bz_loop(creutz(1.0), "lower", 256))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert abs(s.gamma_b) == pytest.approx(np.pi, abs=1e-9)


def test_band_state_degenerate_raises():
    with pytest.raises(DegenerateAtTolerance):
        band_state(dirac(1.0), [0.0, 0.0])
    with pytest.raises(DegenerateAtTolerance):
        band_state(ssh(1.0, 1.0), np.pi)


# --- bz_loop ---

def test_ssh_trivial_phase():
    s = summarize(bz_loop(ssh(2, 1), "lower", 512))
    assert s.gamma_b == pytest.approx(0.0, abs=1e-9)


def test_ssh_topological_phase():
    s = summarize(bz_loop(ssh(0, 1), "lower", 512))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-9)


def test_bz_loop_needs_1d():
    with pytest.raises(WrongDimension):
        bz_loop(dirac(1.0))


# --- fermi_surface_loop ---

def test_dirac_fs_loop_summary_and_perimeter():
    loop, l_fs = fermi_surface_loop(dirac(1.0), 2.0, 256)
    assert l_fs == pytest.approx(4 * np.pi)
    s = summarize(loop)
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert abs(s.gamma_b) == pytest.approx(np.pi, abs=1e-9)


def test_rhombohedral_fs_aggregate():
    loop, _ = fermi_surface_loop(rhombohedral(3), 1.0, 768)
    parts = split_self_intersections(loop)
    assert len(parts) == 3
    rep = aggregate_subloops([summarize(p) for p in parts])
    assert rep.lhs == pytest.approx(3 * np.pi, abs=1e-6)
    assert abs(rep.inputs["gamma_total"]) == pytest.approx(3 * np.pi, abs=1e-6)


@pytest.mark.parametrize("n_layers", [1, 2, 4, 5])
def test_rhombohedral_winding(n_layers):
    loop, _ = fermi_surface_loop(rhombohedral(n_layers), 1.0, 512)
    parts = split_self_intersections(loop)
    assert len(parts) == n_layers
    rep = aggregate_subloops([summarize(p) for p in parts])
    assert abs(rep.inputs["gamma_total"]) == pytest.approx(n_layers * np.pi, abs=1e-5)
    assert rep.lhs == pytest.approx(n_layers * np.pi, abs=1e-5)


def test_fermi_surface_needs_positive_energy():
    with pytest.raises(OutOfRange):
        fermi_surface_loop(dirac(1.0), -1.0)


@pytest.mark.parametrize("e_f", [np.nan, np.inf, -np.inf, 0.0])
def test_fermi_surface_needs_a_finite_positive_energy(e_f):
    # nan is not <= 0, and inf reaches the k_F arithmetic: both are refused first
    for spec in (dirac(1.0), rhombohedral(2)):
        with pytest.raises(OutOfRange, match="E_F must be finite and positive"):
            fermi_surface_loop(spec, e_f)


# --- dirac_metric ---

def test_dirac_metric_plug_ins():
    np.testing.assert_allclose(dirac_metric([1.0, 0.0]), [[0, 0], [0, 0.25]], atol=1e-15)
    np.testing.assert_allclose(dirac_metric([0.0, 2.0]), [[1 / 16, 0], [0, 0]], atol=1e-15)


def test_dirac_metric_trace_and_radial():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(k) < 0.1:
            continue
        g = dirac_metric(k)
        k2 = k @ k
        assert np.trace(g) == pytest.approx(1 / (4 * k2), rel=1e-12)
        rhat = k / np.sqrt(k2)
        assert rhat @ g @ rhat == pytest.approx(0.0, abs=1e-15)


def test_dirac_metric_singular_origin():
    with pytest.raises(SingularAtDiracPoint):
        dirac_metric([0.0, 0.0])


def test_dirac_metric_matches_finite_differences():
    chart = band_chart(dirac(1.0), "lower")
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = rng.uniform(0.1, 3.0) * np.array([np.cos(a := rng.uniform(0, 2 * np.pi)),
                                              np.sin(a)])
        t = qgt_at(chart, k, richardson=False)
        exact = dirac_metric(k)
        scale = np.abs(exact).max()
        assert np.abs(t.g - exact).max() <= 1e-6 * scale


# --- custom models ---

def test_model_from_json_roundtrip():
    spec = model_from_json('{"kind": "ssh", "parameters": {"v": 2.0, "w": 1.0}}')
    assert spec.params == {"v": 2.0, "w": 1.0}
    spec = model_from_json({"kind": "rhombohedral",
                            "parameters": {"n_layers": 2}, "lattice_const": 0.5})
    assert spec.params["n_layers"] == 2 and spec.a == 0.5
    assert model_from_json({"kind": "dirac", "lattice_const": 2.0}).a == 2.0


@pytest.mark.parametrize("doc, needle", [
    ('{"kind": "ssh", "parameters": {}}', "'v'"),
    ('{"kind": "ssh", "parameters": {"v": 1.0}}', "'w'"),
    ('{"kind": "creutz"}', "'t'"),
    ('{"kind": "rhombohedral", "parameters": {"scale": 2.0}}', "'n_layers'"),
    ('{"parameters": {"v": 1.0, "w": 2.0}}', "'kind'"),
    ('[1, 2]', "object"),
    ('{"kind": "ssh", "parameters": {"v": [1], "w": 1}}', "'ssh'"),
    ('{"kind": "dirac", "lattice_const": {}}', "'dirac'"),
    ('{"kind": "rhombohedral", "parameters": {"n_layers": Infinity}}', "'rhombohedral'"),
    ('{"kind": "table", "parameters": {"k": [0, 1], "vectors": {}}}', "'table'"),
    ('{"kind": "dirac", "lattice_const": -1.0}', "lattice constant"),
    ('{"kind": "dirac", "lattice_const": NaN}', "lattice constant"),
    # parameters are the builder's keywords: unknown or misspelt keys fail
    ('{"kind": "rhombohedral", "parameters": {"n_layers": 2, "scael": 3}}', "'scael'"),
    ('{"kind": "creutz", "parameters": {"t": 1, "a": 2}}', "'a'"),
    ('{"kind": "dirac", "lattice_const": "abc"}', "'dirac'"),
])
def test_model_from_json_malformed(doc, needle):
    with pytest.raises(OutOfRange, match=needle):
        model_from_json(doc)


def test_bloch_table_from_csv_without_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("k,nx,ny,nz\n")
    with pytest.raises(EmptyInput):
        bloch_table_from_csv(path)


@pytest.mark.parametrize("rows", ["0,1,0,0,9\n1,0,1,0,9\n", "0,1,0\n1,0,1\n",
                                  "0,1,0,0\n1,0,1,0,9\n"])
def test_bloch_table_from_csv_needs_four_values_a_row(tmp_path, rows):
    path = tmp_path / "table.csv"
    path.write_text("k,nx,ny,nz\n" + rows)
    with pytest.raises(WrongDimension, match="4 values"):
        bloch_table_from_csv(path)


def test_bloch_table_matches_ssh(tmp_path):
    base = ssh(0.5, 1.0)
    ks = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    vecs = np.array([[0.5 + np.cos(k), np.sin(k), 0.0] for k in ks])
    table = bloch_table(ks, vecs)
    for k in (0.3, 1.7, 5.1):
        h_ref = hamiltonian(base, k)
        h_tab = hamiltonian(table, k)
        assert np.abs(h_ref - h_tab).max() < 1e-6

    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        fh.write("k,nx,ny,nz\n")
        for k, v in zip(ks[::16], vecs[::16]):
            fh.write(f"{k},{v[0]},{v[1]},{v[2]}\n")
    loaded = bloch_table_from_csv(path)
    assert np.abs(hamiltonian(loaded, 1.0) - hamiltonian(base, 1.0)).max() < 1e-3


def test_fourier_bloch_model():
    spec = fourier_bloch([0.5, 0, 0], [[1.0, 0, 0]], [[0, 1.0, 0]])
    h = hamiltonian(spec, 0.9)
    ref = hamiltonian(ssh(0.5, 1.0), 0.9)
    np.testing.assert_allclose(h, ref, atol=1e-14)


def test_bloch_table_interpolates_across_the_wrap():
    # nodes at 0.5 + j * 2pi/n: k below the first node lies between the last
    # node (shifted down by a period) and the first one
    ks = 0.5 + np.arange(8) * 2 * np.pi / 8
    table = bloch_table(ks, np.c_[np.cos(ks), np.sin(ks), np.zeros(8)])
    span = 2 * np.pi / 8
    w = (0.2 - (ks[-1] - 2 * np.pi)) / span
    expected = (1 - w) * np.array([np.cos(ks[-1]), np.sin(ks[-1]), 0]) \
        + w * np.array([np.cos(ks[0]), np.sin(ks[0]), 0])
    np.testing.assert_allclose(bloch(table, [0.2])[0], expected, atol=1e-15)


@pytest.mark.parametrize("k_grid", [[0.0, 1.0, 2 * np.pi], [-0.1, 1.0], []])
def test_bloch_table_rejects_grids_outside_the_zone(k_grid):
    with pytest.raises(OutOfRange):
        bloch_table(k_grid, np.ones((len(k_grid), 3)))


def test_builders_reject_bad_parameters():
    for build in (lambda: dirac(0.0), lambda: rhombohedral(2, -1.0), lambda: rhombohedral(2.5),
                  lambda: ssh(np.nan, 1.0), lambda: creutz(1.0, a=0.0),
                  lambda: fourier_bloch([1, 0], [[1, 0, 0]], [[0, 1, 0]])):
        with pytest.raises((OutOfRange, WrongDimension)):
            build()


def test_bloch_rejects_wrong_k_shapes():
    with pytest.raises(WrongDimension):
        bloch(ssh(1, 2), np.zeros((4, 2)))
    with pytest.raises(WrongDimension):
        bloch(dirac(1.0), np.zeros(4))


@pytest.mark.parametrize("spec, shape", [(dirac(1.0), (4,)), (ssh(1, 2), (4, 2))],
                         ids=["2D-given-1D", "1D-given-2D"])
def test_metric_grid_names_the_caller_s_k_shape(spec, shape):
    # the shape rule runs before the stencil is stacked, so the error names
    # the k array the caller passed, not the stacked one
    with pytest.raises(WrongDimension, match=re.escape(f"k points of shape {shape}")):
        metric_grid(spec, "lower", np.ones(shape))


def test_describe_names_the_scalar_parameters_of_every_kind():
    # the array parameters of fourier_bloch and table are left out
    assert [s.describe() for s in EVERY_KIND] == [
        "ssh(v=0.7,w=1.3)", "creutz(t=1.2)", "fourier_bloch()", "table()",
        "rhombohedral(n_layers=3,scale=0.7)", "dirac(v_f=1.5)"]


# --- k-array paths against the per-k oracles ---

@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize("band", ["lower", "upper"])
def test_band_states_match_per_k_eigh(spec, band):
    ks = _k_points(spec, 40)
    np.testing.assert_allclose(band_states(spec, ks, band),
                               per_k_band_states(spec, ks, band), atol=1e-14)
    np.testing.assert_array_equal(band_state(spec, ks[3], band),
                                  band_states(spec, ks, band)[3])


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize("band", ["lower", "upper"])
def test_band_geometry_equals_its_three_public_parts(spec, band):
    # the chains' one entry gives band_states, metric_grid and |n(k)| bit for bit
    ks = _k_points(spec, 40)
    states, g, norm = band_geometry(spec, ks, band)
    n = bloch(spec, ks)
    for got, expected in ((states, band_states(spec, ks, band)),
                          (g, metric_grid(spec, band, ks)),
                          (norm, np.hypot(np.hypot(n[:, 0], n[:, 1]), n[:, 2]))):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
@pytest.mark.parametrize("band", ["lower", "upper"])
def test_metric_grid_matches_qgt_at(spec, band):
    ks = _k_points(spec, 40)
    g = metric_grid(spec, band, ks)
    assert g.shape == (40, spec.dim_k, spec.dim_k)
    np.testing.assert_allclose(g, chart_metric_grid(spec, band, ks), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("spec, ks, where", [
    (ssh(1.0, 1.0), np.linspace(0, 2 * np.pi, 8, endpoint=False), "3.14159"),
    (dirac(1.0), np.array([[1.0, 0.5], [0.0, 0.0], [0.0, 0.0]]), "[0. 0.]"),
])
def test_batched_gap_closing_raises(spec, ks, where):
    for run in (lambda: band_states(spec, ks), lambda: band_states(spec, ks, "upper"),
                lambda: metric_grid(spec, "lower", ks)):
        with pytest.raises(DegenerateAtTolerance) as info:
            run()
        assert where in str(info.value)   # the first offending k


# --- closed-form band states at the edges ---

_RING = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)


def _ring_models(rho, z):
    """A table and a Fourier model, both with n(k) = 3 (rho cos k, rho sin k, z)
    on the _RING points."""
    return [bloch_table(_RING, 3.0 * np.c_[rho * np.cos(_RING), rho * np.sin(_RING),
                                           np.full(_RING.size, z)]),
            fourier_bloch([0.0, 0.0, 3.0 * z], [[3.0 * rho, 0.0, 0.0]], [[0.0, 3.0 * rho, 0.0]])]


@pytest.mark.parametrize("rho", [0.0, 1e-16, 1e-12, 1e-9])
@pytest.mark.parametrize("pole", [1.0, -1.0])
@pytest.mark.parametrize("band", ["lower", "upper"])
def test_band_states_near_the_poles_match_per_k_eigh(rho, pole, band):
    for spec in _ring_models(rho, pole * np.sqrt(1.0 - rho**2)):
        states = band_states(spec, _RING, band)
        np.testing.assert_allclose(states, per_k_band_states(spec, _RING, band), atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("band, pole", [("upper", -1.0), ("lower", 1.0)])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_band_states_gauge_threshold(band, pole, factor):
    # the band's first entry is about rho / 2 there: just above
    # TOL.gauge_zero it is made real positive, just below the second one is
    for spec in _ring_models(2.0 * TOL.gauge_zero * factor, pole):
        states = band_states(spec, _RING, band)
        np.testing.assert_allclose(states, per_k_band_states(spec, _RING, band), atol=1e-14)
        lead = states[:, 0] if factor > 1 else states[:, 1]
        assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)
        assert np.all((np.abs(states[:, 0]) > TOL.gauge_zero) == (factor > 1))


@pytest.mark.parametrize("run, message", [
    (lambda band: band_states(ssh(1.0, 1.0), _RING, band),
     "gap 2.449e-16 at k = 3.141592653589793 below 1e-09 * model scale"),
    (lambda band: band_states(dirac(1.0), [[1.0, 0.5], [0.0, 0.0], [0.0, 0.0]], band),
     "gap 0.000e+00 at k = [0. 0.] below 1e-09 * model scale"),
    (lambda band: metric_grid(ssh(1.0, 1.0), band, _RING),
     "gap 2.449e-16 at k = 3.141592653589793 below 1e-09 * model scale"),
    # gapped at both k; closed at k[1] + h e_x and at k[0] - h e_y: the
    # k + e_1 rows come first
    (lambda band: metric_grid(dirac(1.0), band, np.array([[3e-12, TOL.fd_step],
                                                         [-TOL.fd_step, 1e-12]])),
     "gap 2.000e-12 at k = [0.e+00 1.e-12] below 1e-09 * model scale"),
])
@pytest.mark.parametrize("band", ["lower", "upper"])
def test_gap_gate_names_the_first_closing(run, message, band):
    # the messages are the ones the eigh-based band states gave
    with pytest.raises(DegenerateAtTolerance) as info:
        run(band)
    assert str(info.value) == message


@pytest.mark.parametrize("spec, k", [(ssh(0.5, 1.0), np.nan), (dirac(1.0), [np.nan, 1.0])])
def test_band_states_reject_non_finite_bloch_vectors(spec, k):
    with pytest.raises(ValueError, match="non-finite"):
        band_state(spec, k)


# --- k-array paths against the earlier formulas, byte for byte ---

def _outcome(run):
    """The bytes and shape of a run's array, or its error type and message."""
    try:
        out = run()
    except (QiiError, ValueError) as exc:
        return type(exc), str(exc)
    return out.tobytes(), out.shape


def _assert_as_earlier(spec, ks):
    """band_states, metric_grid and bloch give the earlier formulas' bytes, or
    the same error: the two-outer Fourier map, the elementwise gate, the
    where-spinors and the metric of the whole stack."""
    if spec.kind == "fourier_bloch":
        assert bloch(spec, ks).tobytes() == outer_fourier_bloch(spec, ks).tobytes()
    earlier_metric = _outcome(lambda: full_stack_metric(
        *elementwise_gated_bloch(spec, ks, ks), spec.dim_k))
    for band in ("lower", "upper"):
        assert (_outcome(lambda: band_states(spec, ks, band))
                == _outcome(lambda: where_spinors(*elementwise_gated_bloch(spec, ks), band)))
        assert _outcome(lambda: metric_grid(spec, band, ks)) == earlier_metric


# every kind, Fourier series with more sine than cosine terms and with three
# harmonics, and |n| past the model scale (|k| > 1 for the 2D models)
_AS_EARLIER = EVERY_KIND + [
    fourier_bloch([0.1, 0.9, -0.4], [[0.3, -0.2, 0.1]], [[0.2, 0.1, -0.5], [0.0, 0.3, 0.2]]),
    fourier_bloch([0.2, -0.1, 1.9], _RNG.normal(size=(3, 3)) / 3, _RNG.normal(size=(3, 3)) / 3,
                  a=1.3),
    rhombohedral(1), rhombohedral(2, 2.5), rhombohedral(5, 0.3)]


@pytest.mark.parametrize("seed", range(12))
def test_k_array_paths_equal_the_earlier_formulas(seed):
    rng = np.random.default_rng(seed)
    for spec in _AS_EARLIER:
        ks = _k_points(spec, int(rng.integers(1, 60)))
        ks = ks * rng.uniform(0.2, 3.0)   # 2D radii from 0.1 to 6
        _assert_as_earlier(spec, ks)


# pole rows (rho = 0, where one band's first entry is zero) mixed with
# gapped rows, read exactly at the table's nodes
_POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.2, 0.3], [0.0, 0.0, 2.0],
                   [-0.3, 0.4, -0.5], [0.0, 0.0, -0.5], [1e-12, 0.0, 1.0], [0.0, 1e-11, -1.0]])


@pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4, 5, 6, 7], [0, 3], [1, 5], [2, 4]])
def test_pole_rows_equal_the_earlier_formulas(rows):
    _assert_as_earlier(bloch_table(_RING, _POLES), _RING[rows])


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_pole_rings_equal_the_earlier_formulas(pole):
    for spec in _ring_models(0.0, pole):   # every row on the pole
        _assert_as_earlier(spec, _RING)


def _threshold_table(*norms):
    """A table whose largest |n| is 2 and whose other rows are (0, 0, c) for
    the given c: the gate's threshold sits at |n| = TOL.degeneracy."""
    vectors = [[0.0, 2.0, 0.0]] + [[0.0, 0.0, c] for c in norms]
    return bloch_table(_RING[:len(vectors)], vectors), _RING[:len(vectors)]


@pytest.mark.parametrize("factor", [1 - 1e-12, 1.0, 1 + 1e-12, 1 - 1e-3, 1 + 1e-3])
def test_gate_threshold_rows_equal_the_earlier_formulas(factor):
    # 2|n| < TOL.degeneracy * 2 closes the gap just below |n| = TOL.degeneracy
    spec, ks = _threshold_table(0.5, TOL.degeneracy * factor, -TOL.degeneracy * factor)
    _assert_as_earlier(spec, ks)
    _assert_as_earlier(spec, ks[::-1])


@pytest.mark.parametrize("ks", [[[1.0, 0.0]], [[1e5, 0.0], [3e9, 1e9]], [[1e10, 0.0], [1.0, 1.0]]])
def test_gate_past_the_model_scale_equals_the_earlier_formulas(ks):
    # a subnormal scale: |n| = 1e-310 |k| is past the scale for any |k| > 1,
    # and past TOL.zero_vector only for |k| above about 1e10
    _assert_as_earlier(rhombohedral(1, 1e-310), np.array(ks))


def _patch_row(monkeypatch, kind, row, vector):
    """Make a kind's Bloch map return `vector` at the stacked `row`, where the
    evaluation has that row."""
    real = models._KINDS[kind]

    def patched(spec, ks):
        n = real.bloch(spec, ks)
        if row < len(n):
            n[row] = vector
        return n

    monkeypatch.setitem(models._KINDS, kind, dataclasses.replace(real, bloch=patched))


@pytest.mark.parametrize("spec", [ssh(0.5, 1.0), dirac(1.0)], ids=lambda s: s.kind)
@pytest.mark.parametrize("row", [0, 3, 5, 9])   # 5 rows at ks: 0 and 3 are centres
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 2])
def test_non_finite_rows_equal_the_earlier_formulas(monkeypatch, spec, row, bad, column):
    vector = np.array([0.3, -0.2, 0.4])
    vector[column] = bad
    _patch_row(monkeypatch, spec.kind, row, vector)
    ks = _k_points(spec, 5)
    # inf / inf rows make NaN unit vectors; the earlier metric also formed
    # them, with a warning, at the centre rows it did not difference
    with np.errstate(invalid="ignore"):
        _assert_as_earlier(spec, ks)


# --- model_from_json ---

def _to_json(spec):
    params = {k: np.asarray(v).tolist() for k, v in spec.params.items()}
    return json.dumps({"kind": spec.kind, "parameters": params, "lattice_const": spec.a})


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.kind)
def test_model_from_json_roundtrip_every_kind(spec):
    back = model_from_json(_to_json(spec))
    assert back.kind == spec.kind and back.a == spec.a
    assert back.params.keys() == spec.params.keys()
    for key, value in spec.params.items():
        np.testing.assert_array_equal(back.params[key], value)
    ks = _k_points(spec, 16)
    np.testing.assert_array_equal(bloch(back, ks), bloch(spec, ks))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)
_NUMBERS = st.lists(st.floats(), min_size=3, max_size=3)
_PARAMS = st.dictionaries(
    st.sampled_from(["v", "w", "t", "n_layers", "scale", "v_f", "const", "cos", "sin",
                     "k", "vectors"]),
    _JSON | _NUMBERS | st.lists(_NUMBERS, max_size=3), max_size=6)
_MODEL_DOCS = _JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(["ssh", "creutz", "rhombohedral", "dirac", "fourier_bloch",
                              "table", "bogus"]) | _JSON},
    optional={"parameters": _PARAMS | _JSON, "lattice_const": _JSON})


@given(_MODEL_DOCS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_model_from_json_fuzz_raises_only_typed_errors(doc, as_text):
    try:
        model_from_json(json.dumps(doc) if as_text else doc)
    except (QiiError, ValueError):
        pass


_CELLS = st.floats().map(repr) | st.text("0123456789.-e", max_size=6)
_LOOP_TEXT = st.one_of(
    st.text(max_size=200),
    st.builds(lambda head, rows: head + "index,re_0,im_0,re_1,im_1\n" + "".join(
        ",".join(row) + "\n" for row in rows),
        st.sampled_from(['# {"m": 2}\n', "#\n", "# [1\n", "no header\n"]),
        st.lists(st.lists(_CELLS, max_size=6), max_size=6)))


@given(_LOOP_TEXT | st.binary(max_size=64))
# an infinite amplitude once made a nan, and numpy warned, before the typed error
@example('# {"m": 2}\nindex,re_0,im_0,re_1,im_1\n0.0,inf,0.0\n')
@example('# {"m": 2}\nindex,re_0,im_0,re_1,im_1\n0.0,0.0,inf\n')
# the norm of a finite row near 1e308 once overflowed, with a numpy warning
@example('# {"m": 2}\nindex,re_0,im_0,re_1,im_1\n0,1e308,1e308,0,0\n1,1,0,1,0\n2,1,0,0,1\n')
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_loop_fuzz_raises_only_typed_errors(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "loop.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        try:
            load_loop(path)
        except (QiiError, ValueError):
            pass
