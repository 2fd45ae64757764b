"""Two-band Bloch Hamiltonian zoo and band-state loop builders.

Built-in families: SSH chain, pi-flux Creutz ladder (two flat bands),
N-layer rhombohedral continuum model with off-diagonal (kx - i ky)^N,
and the gapless 2D Dirac cone.  Custom two-band models enter either as
smooth Bloch-vector Fourier series or as tabulated Bloch vectors on a
k-grid (periodic linear interpolation), including from JSON/CSV files.
Each kind is one `_KINDS` entry; states and metrics come for all k at once,
in closed form from the Bloch vectors (no eigendecomposition).
"""

import csv
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import TOL
from .errors import (BadResolution, DegenerateAtTolerance, EmptyInput, NonFiniteDerivative,
                     OutOfRange, SingularAtDiracPoint, WrongDimension)
from .geometry import Chart, Loop

__all__ = [
    "ModelSpec", "ssh", "creutz", "rhombohedral", "dirac", "fourier_bloch",
    "bloch_table", "model_from_json", "bloch_table_from_csv", "bloch",
    "band_state", "band_states", "band_chart", "metric_grid", "band_geometry",
    "bz_grid", "bz_loop", "check_fermi_energy", "check_fermi_model", "fermi_surface_loop",
    "dirac_metric",
]

_BAND_INDEX = {"lower": 0, "upper": 1}


@dataclass(frozen=True)
class ModelSpec:
    """A named two-band Bloch-Hamiltonian family with parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    a: float = 1.0  # lattice constant

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise OutOfRange(f"unknown model kind {self.kind!r}")
        if not 0.0 < self.a < np.inf:
            raise OutOfRange("lattice constant must be positive and finite")
        if not all(np.all(np.isfinite(v)) for v in self.params.values()):
            raise OutOfRange(f"model {self.kind!r} parameters must be finite")

    @property
    def bands(self) -> int:
        return 2

    @property
    def dim_k(self) -> int:
        return _KINDS[self.kind].dim_k

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if not isinstance(v, np.ndarray))   # fourier_bloch, table
        return f"{self.kind}({inner})"


def ssh(v: float, w: float, a: float = 1.0) -> ModelSpec:
    """SSH chain with intracell hopping v, intercell w (topological for w > v)."""
    return ModelSpec("ssh", {"v": float(v), "w": float(w)}, a)


def creutz(t: float, a: float = 1.0) -> ModelSpec:
    """Creutz ladder at pi flux: two flat bands at -+2t."""
    return ModelSpec("creutz", {"t": float(t)}, a)


def rhombohedral(n_layers: int, scale: float = 1.0, a: float = 1.0) -> ModelSpec:
    """Chiral two-band continuum model with off-diagonal (kx - i ky)^N."""
    if not (n_layers >= 1 and n_layers == int(n_layers) and float(scale) > 0):
        raise OutOfRange("need an integer layer count >= 1 and scale > 0")
    return ModelSpec("rhombohedral", {"n_layers": int(n_layers),
                                      "scale": float(scale)}, a)


def dirac(v_f: float = 1.0, a: float = 1.0) -> ModelSpec:
    """Gapless 2D Dirac cone with Fermi velocity v_f > 0."""
    if not float(v_f) > 0:
        raise OutOfRange("Fermi velocity must be positive")
    return ModelSpec("dirac", {"v_f": float(v_f)}, a)


def fourier_bloch(const, cos, sin, a: float = 1.0) -> ModelSpec:
    """Smooth 1D model n(k).sigma from a Bloch-vector Fourier series.

    n(k) = const + sum_m cos(m k a) cos[m-1] + sin(m k a) sin[m-1].
    """
    p = {"const": np.asarray(const, dtype=float),
         "cos": np.atleast_2d(np.asarray(cos, dtype=float)),
         "sin": np.atleast_2d(np.asarray(sin, dtype=float))}
    if p["const"].shape != (3,) or {p["cos"].shape[1:], p["sin"].shape[1:]} != {(3,)}:
        raise WrongDimension("need a 3-vector const and (m, 3) cos/sin coefficients")
    return ModelSpec("fourier_bloch", p, a)


def bloch_table(k, vectors, a: float = 1.0) -> ModelSpec:
    """1D model from tabulated Bloch vectors, linearly interpolated in k.

    The k grid must be ascending inside [0, 2 pi / a); the table is treated
    as periodic, so k points beyond either end interpolate across the wrap.
    """
    k = np.asarray(k, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if k.ndim != 1 or vectors.shape != (k.size, 3):
        raise WrongDimension(f"need (n, 3) Bloch vectors, got {vectors.shape}")
    if k.size == 0 or np.any(np.diff(k) <= 0):
        raise OutOfRange("k grid must be non-empty and strictly ascending")
    spec = ModelSpec("table", {"k": k, "vectors": vectors}, a)
    if not (k[0] >= 0.0 and k[-1] < 2.0 * np.pi / spec.a):
        raise OutOfRange("k grid must lie inside [0, 2 pi / a)")
    return spec


def bloch_table_from_csv(path, a: float = 1.0) -> ModelSpec:
    """Read a (k, nx, ny, nz) table written with a header row."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r][1:]
    if not rows:
        raise EmptyInput(f"{path}: Bloch table has no data rows")
    if any(len(r) != 4 for r in rows):
        raise WrongDimension(f"{path}: Bloch table rows must hold 4 values (k, nx, ny, nz)")
    data = np.array([[float(x) for x in r] for r in rows])
    return bloch_table(data[:, 0], data[:, 1:], a)


# ---------------------------------------------------------------- registry
# Bloch-vector maps: ks of shape (n,) (1D kinds) or (n, 2) (2D) -> n(k), (n, 3)

def _ssh_bloch(spec, ks):
    p, ka = spec.params, ks * spec.a
    return np.stack([p["v"] + p["w"] * np.cos(ka), p["w"] * np.sin(ka), 0 * ka], axis=1)


def _creutz_bloch(spec, ks):
    t, ka = spec.params["t"], ks * spec.a
    return np.stack([2 * t * np.cos(ka), 0 * ka, 2 * t * np.sin(ka)], axis=1)


def _fourier_bloch(spec, ks):
    p = spec.params
    m_cos, m_sin = len(p["cos"]), len(p["sin"])
    phases = (ks * spec.a)[:, None] * np.arange(1, max(m_cos, m_sin) + 1)   # one table
    return (p["const"] + np.cos(phases[:, :m_cos]) @ p["cos"]
            + np.sin(phases[:, :m_sin]) @ p["sin"])


def _table_bloch(spec, ks):
    k, period = spec.params["k"], 2.0 * np.pi / spec.a
    return np.stack([np.interp(ks, k, v, period=period) for v in spec.params["vectors"].T],
                    axis=1)


def _rhombohedral_bloch(spec, ks):
    q = (ks[:, 0] - 1j * ks[:, 1]) ** spec.params["n_layers"]
    return spec.params["scale"] * np.stack([q.real, q.imag, 0 * q.real], axis=1)


def _dirac_bloch(spec, ks):
    return spec.params["v_f"] * np.stack([ks[:, 0], ks[:, 1], 0 * ks[:, 0]], axis=1)


def _norm(v):
    """Euclidean norm over the last axis of 3-vectors; hypot does not overflow
    where the sum of squares would (|v| past about 1e154)."""
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


@dataclass(frozen=True)
class _Kind:
    dim_k: int
    build: Callable      # the builder: keyword parameters and a= -> ModelSpec
    bloch: Callable      # (spec, ks) -> Bloch vectors
    scale: Callable      # parameters -> characteristic energy scale
    fermi: Callable | None = None      # (parameters, e_f, n) -> (k_F, samples)


_KINDS = {
    "ssh": _Kind(1, ssh, _ssh_bloch, lambda p: abs(p["v"]) + abs(p["w"])),
    "creutz": _Kind(1, creutz, _creutz_bloch, lambda p: 2.0 * abs(p["t"])),
    "fourier_bloch": _Kind(
        1, fourier_bloch, _fourier_bloch,
        lambda p: float(_norm(p["const"]) + np.abs(p["cos"]).sum() + np.abs(p["sin"]).sum())),
    "table": _Kind(1, bloch_table, _table_bloch, lambda p: float(_norm(p["vectors"]).max())),
    "rhombohedral": _Kind(
        2, rhombohedral, _rhombohedral_bloch, lambda p: abs(p["scale"]),
        # n rounded up to a multiple of N: the N-fold winding closes on the grid
        fermi=lambda p, e_f, n: ((e_f / p["scale"]) ** (1.0 / p["n_layers"]),
                                 p["n_layers"] * int(np.ceil(n / p["n_layers"])))),
    "dirac": _Kind(2, dirac, _dirac_bloch, lambda p: abs(p["v_f"]),
                   fermi=lambda p, e_f, n: (e_f / p["v_f"], n)),
}


def model_from_json(obj) -> ModelSpec:
    """Build a spec from {kind, parameters, lattice_const} (dict or JSON text).

    The parameters are the keyword arguments of the kind's builder, e.g.
    ssh {v, w}, rhombohedral {n_layers, scale}, fourier_bloch {const, cos,
    sin} and table {k, vectors}; a missing, unknown or non-numeric one
    raises OutOfRange, as does a non-numeric lattice_const.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise OutOfRange("model config must be a JSON object with a string 'kind'")
    kind = obj["kind"]
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise OutOfRange("model 'parameters' must be a JSON object")
    if kind not in _KINDS:
        raise OutOfRange(f"unknown model kind {kind!r} in config")
    try:
        return _KINDS[kind].build(**params, a=float(obj.get("lattice_const", 1.0)))
    except (TypeError, ValueError, OverflowError) as exc:   # a bad key or a non-number
        raise OutOfRange(f"model {kind!r}: {exc}") from None


# ---------------------------------------------------------------- k arrays

def _check_k_shape(spec: ModelSpec, ks: np.ndarray):
    if ks.ndim != spec.dim_k or ks.shape[1:] not in ((), (2,)):
        raise WrongDimension(f"{spec.dim_k}D model given k points of shape {ks.shape}")


def bloch(spec: ModelSpec, ks) -> np.ndarray:
    """Bloch vectors n(k), shape (n, 3), of H(k) = n(k).sigma at ks of shape (n, dim_k)."""
    ks = np.asarray(ks, dtype=float)
    _check_k_shape(spec, ks)
    return _KINDS[spec.kind].bloch(spec, ks)


def _stencil_offsets(dim_k: int) -> np.ndarray:
    """Offsets of the shifted blocks +h e_1, -h e_1 [, +h e_2, -h e_2]
    (h = TOL.fd_step), one (2 dim_k, 1) column per k component; each is the
    product sign * h e_i, so the 2D zeros keep their signs."""
    blocks = ((np.eye(dim_k) * TOL.fd_step)[:, None] * np.array([[1.0], [-1.0]]))
    return blocks.reshape(2 * dim_k, dim_k).T[:, :, None]


_STENCIL = {1: _stencil_offsets(1), 2: _stencil_offsets(2)}


def _gated_bloch(spec: ModelSpec, ks, stencil: bool = False):
    """(n, |n|, hypot(n_x, n_y)) from one `bloch` call on ks, or with stencil
    on the stacked [ks, ks +- h e_i] (h = TOL.fd_step), gap-gated once: the
    first closing in that order is named, one at ks as band_states does."""
    ks = np.asarray(ks, dtype=float)
    if stencil:
        _check_k_shape(spec, ks)   # the caller's shape, before the stack hides it
        cols = ks.reshape(len(ks), spec.dim_k)   # a view
        rows = np.empty((1 + 2 * spec.dim_k,) + cols.shape)
        rows[0] = cols
        # one add per k component: a broadcast add over (n, 2) rows would
        # run its inner loop over two elements at a time
        for j, offsets in enumerate(_STENCIL[spec.dim_k]):
            np.add(cols[:, j], offsets, out=rows[1:, :, j])
        ks = rows.reshape((-1,) + ks.shape[1:])
    n = bloch(spec, ks)
    rho = np.hypot(n[:, 0], n[:, 1])
    norm = np.hypot(rho, n[:, 2])   # eigenvalues -+|n|, gap 2|n|
    gap = 2.0 * norm
    # the gap is measured against max(model scale, |eigenvalue|), since at an
    # exact closing the local matrix norm itself collapses to rounding noise;
    # where |n| is past the scale, 2|n| clears TOL.degeneracy * |n| anyway, so
    # one threshold gates every row (NaN and inf rows never fall below it)
    closed = gap < TOL.degeneracy * max(_KINDS[spec.kind].scale(spec.params), TOL.zero_vector)
    if closed.any():
        first = closed.argmax()
        raise DegenerateAtTolerance(f"gap {gap[first]:.3e} at k = {ks[first]} "
                                    f"below {TOL.degeneracy:.0e} * model scale")
    return n, norm, rho


def _spinors(n, r, rho, band: str) -> np.ndarray:
    """States of one band from gated Bloch vectors n with norms r and in-plane
    norms rho; see band_states."""
    if not np.isfinite(r).all():
        raise ValueError("vector has non-finite entries")
    x, y, z = n.T
    # (r + |z|) / 2 and (r - |z|) / 2 = rho^2 / (2 (r + |z|)), free of
    # cancellation and overflow; r > 0 past the gate
    big = 0.5 * r + 0.5 * np.abs(z)
    half_rho = 0.5 * rho
    small = half_rho * (half_rho / big)
    north = z >= 0.0
    cos = np.sqrt(np.where(north, big, small) / r)
    sin = np.sqrt(np.where(north, small, big) / r)
    phase = np.ones(len(r), dtype=complex)
    np.divide(x + 1j * y, rho, out=phase, where=rho > 0.0)
    a, b = (sin, -cos) if _BAND_INDEX[band] == 0 else (cos, sin)   # state (a, e^{ip} b)
    lead = a > TOL.gauge_zero   # else the second entry is made real positive
    states = np.empty((len(r), 2), dtype=complex)
    if lead.all():
        states[:, 0] = a
        states[:, 1] = phase * b
    else:
        states[:, 0] = np.where(lead, a, np.sign(b) * a * phase.conj())
        states[:, 1] = np.where(lead, phase * b, np.abs(b))
    return states


def _metric(n, norm, dim_k: int) -> np.ndarray:
    """Metric from gated Bloch vectors on a stacked k, k +- h e_i; see metric_grid."""
    m = len(n) // (1 + 2 * dim_k)   # the centre rows are not differenced
    unit = (n[m:] / norm[m:, None]).reshape(2 * dim_k, m, 3)
    dn = ((unit[0::2] - unit[1::2]) / (2.0 * TOL.fd_step)).swapaxes(0, 1)
    if not np.isfinite(dn).all():
        raise NonFiniteDerivative("non-finite Bloch-vector difference")
    return 0.25 * np.einsum("nmi,nli->nml", dn, dn)


def band_states(spec: ModelSpec, ks, band: str = "lower") -> np.ndarray:
    """Normalized gauge-fixed eigenstates of one band at each k, shape (n, 2).

    Closed form from the Bloch vector n = r (sin t cos p, sin t sin p, cos t):
    the upper band of n.sigma is (cos t/2, e^{ip} sin t/2), the lower band
    (sin t/2, -e^{ip} cos t/2), with e^{ip} = 1 on the poles.  The global
    phase makes the first entry above TOL.gauge_zero in modulus real
    positive.  Raises DegenerateAtTolerance at the first gap closing (e.g.
    the Dirac point, or the SSH critical point v = w at k a = pi).
    """
    _BAND_INDEX[band]   # a bad band name fails before any Bloch evaluation
    return _spinors(*_gated_bloch(spec, ks), band)


def band_state(spec: ModelSpec, k, band: str = "lower") -> np.ndarray:
    """Normalized gauge-fixed eigenstate of the requested band at one k."""
    return band_states(spec, np.asarray(k, dtype=float)[None], band)[0]


def band_chart(spec: ModelSpec, band: str = "lower") -> Chart:
    """Chart k -> band state, for geometric-tensor evaluation at TOL.fd_step."""
    one_d = spec.dim_k == 1
    return Chart(map=lambda lam: band_state(spec, lam[0] if one_d else lam, band),
                 d=spec.dim_k)


def metric_grid(spec: ModelSpec, band: str, ks) -> np.ndarray:
    """Quantum metric of one band at each k, shape (n, dim_k, dim_k).

    With P = (1 -+ n^.sigma) / 2, g_mn = Re Tr[dP_m dP_n] / 2 =
    (1/4) d_m n^ . d_n n^ for both bands (Provost & Vallee, Commun. Math.
    Phys. 76, 289 (1980)).  Central differences of n^ at TOL.fd_step, so the
    values equal qgt_at(band_chart(spec, band), k).g to rounding.  One Bloch
    evaluation on the stacked k, k + e_1, k - e_1 [, k + e_2, k - e_2]; a gap
    closing at any of them raises DegenerateAtTolerance naming the first in
    that order.
    """
    _BAND_INDEX[band]   # checks the name: the metric is the same for both bands
    n, norm, _ = _gated_bloch(spec, ks, stencil=True)
    return _metric(n, norm, spec.dim_k)


def band_geometry(spec: ModelSpec, ks, band: str = "lower"):
    """(band_states, metric_grid, |n|) at ks from one gated Bloch evaluation
    on the stacked k, k +- h e_i, the metric formed first; |n| is E_+(k)."""
    _BAND_INDEX[band]   # a bad band name fails before any Bloch evaluation
    n, norm, rho = _gated_bloch(spec, ks, stencil=True)
    g = _metric(n, norm, spec.dim_k)
    m = len(g)   # the centre rows
    return _spinors(n[:m], norm[:m], rho[:m], band), g, norm[:m]


def bz_grid(spec: ModelSpec, n: int) -> np.ndarray:
    """The n >= 1 momenta k_j = 2 pi j / (n a) of the 1D Brillouin zone."""
    if n < 1:
        raise BadResolution(f"need n >= 1 momenta, got {n}")
    return 2.0 * np.pi * np.arange(n) / (n * spec.a)


def bz_loop(spec: ModelSpec, band: str = "lower", n: int = 512) -> Loop:
    """Loop of band states over the 1D Brillouin zone, k_j = 2 pi j / (n a)."""
    if spec.dim_k != 1:
        raise WrongDimension("Brillouin-zone loops need a 1D model")
    return Loop(band_states(spec, bz_grid(spec, n), band))


def check_fermi_energy(e_f: float):
    """A Fermi surface needs 0 < E_F < inf."""
    if not 0.0 < e_f < np.inf:
        raise OutOfRange(f"Fermi energy E_F must be finite and positive, got {e_f}")


def check_fermi_model(spec: ModelSpec):
    """A Fermi surface needs a 2D model with a circular one."""
    if _KINDS[spec.kind].fermi is None:
        raise WrongDimension("Fermi-surface loops need a 2D model")


def _fermi_circle(spec: ModelSpec, e_f: float, n: int):
    """k_F and the (n', 2) unit directions of fermi_surface_loop's samples."""
    check_fermi_energy(e_f)
    check_fermi_model(spec)
    k_f, n = _KINDS[spec.kind].fermi(spec.params, e_f, n)
    alphas = 2.0 * np.pi * np.arange(n) / n
    return k_f, np.stack([np.cos(alphas), np.sin(alphas)], axis=1)


def fermi_surface_loop(spec: ModelSpec, e_f: float, n: int = 512):
    """Band-state loop on the circular Fermi surface at energy e_f > 0.

    Returns (loop, perimeter) with perimeter = 2 pi |k_F|.  The positive
    band is used since e_f > 0.  For the rhombohedral model n is rounded
    up to a multiple of N so the N-fold winding closes exactly on the
    sample grid (required for coincidence splitting).
    """
    k_f, directions = _fermi_circle(spec, e_f, n)
    return Loop(band_states(spec, k_f * directions, "upper")), 2.0 * np.pi * k_f


def dirac_metric(k) -> np.ndarray:
    """Closed-form quantum metric of the Dirac model.

    g = (1 / 4 k^4) [[ky^2, -kx ky], [-kx ky, kx^2]], so Tr g = 1/(4 k^2)
    and the radial-radial component vanishes.
    """
    kx, ky = np.asarray(k, dtype=float)
    k2 = kx**2 + ky**2
    if k2 == 0.0:
        raise SingularAtDiracPoint("metric diverges at k = 0")
    return np.array([[ky**2, -kx * ky], [-kx * ky, kx**2]]) / (4.0 * k2**2)
