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
from .errors import (DegenerateAtTolerance, EmptyInput, NonFiniteDerivative,
                     OutOfRange, SingularAtDiracPoint, WrongDimension)
from .geometry import Chart, Loop

__all__ = [
    "ModelSpec", "ssh", "creutz", "rhombohedral", "dirac", "fourier_bloch",
    "bloch_table", "model_from_json", "bloch_table_from_csv", "bloch",
    "band_state", "band_states", "band_chart", "metric_grid",
    "bz_grid", "bz_loop", "check_fermi_energy", "fermi_surface_loop", "dirac_metric",
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
                         if np.isscalar(v))
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


def fourier_bloch(const, cos_coeffs, sin_coeffs, a: float = 1.0) -> ModelSpec:
    """Smooth 1D model n(k).sigma from a Bloch-vector Fourier series.

    n(k) = const + sum_m cos(m k a) cos_coeffs[m-1] + sin(m k a) sin_coeffs[m-1].
    """
    p = {"const": np.asarray(const, dtype=float),
         "cos": np.atleast_2d(np.asarray(cos_coeffs, dtype=float)),
         "sin": np.atleast_2d(np.asarray(sin_coeffs, dtype=float))}
    if p["const"].shape != (3,) or {p["cos"].shape[1:], p["sin"].shape[1:]} != {(3,)}:
        raise WrongDimension("need a 3-vector const and (m, 3) cos/sin coefficients")
    return ModelSpec("fourier_bloch", p, a)


def bloch_table(k_grid, vectors, a: float = 1.0) -> ModelSpec:
    """1D model from tabulated Bloch vectors, linearly interpolated in k.

    k_grid must be ascending inside [0, 2 pi / a); the table is treated as
    periodic, so k points beyond either end interpolate across the wrap.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if k_grid.ndim != 1 or vectors.shape != (k_grid.size, 3):
        raise WrongDimension(f"need (n, 3) Bloch vectors, got {vectors.shape}")
    if k_grid.size == 0 or np.any(np.diff(k_grid) <= 0):
        raise OutOfRange("k grid must be non-empty and strictly ascending")
    spec = ModelSpec("table", {"k": k_grid, "vectors": vectors}, a)
    if not (k_grid[0] >= 0.0 and k_grid[-1] < 2.0 * np.pi / spec.a):
        raise OutOfRange("k grid must lie inside [0, 2 pi / a)")
    return spec


def bloch_table_from_csv(path, a: float = 1.0) -> ModelSpec:
    """Read a (k, nx, ny, nz) table written with a header row."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise EmptyInput(f"{path}: Bloch table has no data rows")
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return bloch_table(data[:, 0], data[:, 1:4], a)


# ---------------------------------------------------------------- registry
# Bloch-vector maps: ks of shape (n,) (1D kinds) or (n, 2) (2D) -> n(k), (n, 3)

def _ssh_bloch(spec, ks):
    p, ka = spec.params, ks * spec.a
    return np.stack([p["v"] + p["w"] * np.cos(ka), p["w"] * np.sin(ka), 0 * ka], axis=1)


def _creutz_bloch(spec, ks):
    t, ka = spec.params["t"], ks * spec.a
    return np.stack([2 * t * np.cos(ka), 0 * ka, 2 * t * np.sin(ka)], axis=1)


def _fourier_bloch(spec, ks):
    p, ka = spec.params, ks * spec.a
    return (p["const"] + np.cos(np.outer(ka, np.arange(1, len(p["cos"]) + 1))) @ p["cos"]
            + np.sin(np.outer(ka, np.arange(1, len(p["sin"]) + 1))) @ p["sin"])


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
    build: Callable      # (JSON parameters, lattice constant) -> ModelSpec
    bloch: Callable      # (spec, ks) -> Bloch vectors
    scale: Callable      # parameters -> characteristic energy scale
    fermi: Callable | None = None      # (parameters, e_f, n) -> (k_F, samples)


_KINDS = {
    "ssh": _Kind(1, lambda p, a: ssh(p["v"], p["w"], a), _ssh_bloch,
                 lambda p: abs(p["v"]) + abs(p["w"])),
    "creutz": _Kind(1, lambda p, a: creutz(p["t"], a), _creutz_bloch,
                    lambda p: 2.0 * abs(p["t"])),
    "fourier_bloch": _Kind(
        1, lambda p, a: fourier_bloch(p["const"], p["cos"], p["sin"], a), _fourier_bloch,
        lambda p: float(_norm(p["const"]) + np.abs(p["cos"]).sum() + np.abs(p["sin"]).sum())),
    "table": _Kind(1, lambda p, a: bloch_table(p["k"], p["vectors"], a), _table_bloch,
                   lambda p: float(_norm(p["vectors"]).max())),
    "rhombohedral": _Kind(
        2, lambda p, a: rhombohedral(p["n_layers"], p.get("scale", 1.0), a),
        _rhombohedral_bloch, lambda p: abs(p["scale"]),
        # n rounded up to a multiple of N: the N-fold winding closes on the grid
        fermi=lambda p, e_f, n: ((e_f / p["scale"]) ** (1.0 / p["n_layers"]),
                                 p["n_layers"] * int(np.ceil(n / p["n_layers"])))),
    "dirac": _Kind(2, lambda p, a: dirac(p.get("v_f", 1.0), a), _dirac_bloch,
                   lambda p: abs(p["v_f"]),
                   fermi=lambda p, e_f, n: (e_f / p["v_f"], n)),
}


def model_from_json(obj) -> ModelSpec:
    """Build a spec from {kind, parameters, lattice_const} (dict or JSON text).

    The parameters are the keyword arguments of the kind's builder, e.g.
    fourier_bloch {const, cos, sin} and table {k, vectors}.
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
        return _KINDS[kind].build(params, float(obj.get("lattice_const", 1.0)))
    except KeyError as exc:
        raise OutOfRange(f"model {kind!r} needs parameter {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:   # a parameter that is not a number
        raise OutOfRange(f"model {kind!r}: {exc}") from None


# ---------------------------------------------------------------- k arrays

def bloch(spec: ModelSpec, ks) -> np.ndarray:
    """Bloch vectors n(k), shape (n, 3), of H(k) = n(k).sigma at ks of shape (n, dim_k)."""
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != spec.dim_k or ks.shape[1:] not in ((), (2,)):
        raise WrongDimension(f"{spec.dim_k}D model given k points of shape {ks.shape}")
    return _KINDS[spec.kind].bloch(spec, ks)


def _gated_bloch(spec: ModelSpec, ks, centers=None):
    """Bloch vectors and norms from one `bloch` call on the stacked [ks, c +- h e_i]
    (c = centers, h = TOL.fd_step; ks alone without centers), gap-gated once:
    the first closing in that order is named, one at ks as band_states does."""
    ks = np.asarray(ks, dtype=float)
    if centers is not None:
        steps = [TOL.fd_step] if spec.dim_k == 1 else list(np.eye(2) * TOL.fd_step)
        ks = np.concatenate([ks] + [np.add(centers, sign * e) for e in steps for sign in (1, -1)])
    n = bloch(spec, ks)
    norm = _norm(n)   # eigenvalues -+|n|, gap 2|n|
    # the gap is measured against max(model scale, |eigenvalue|), since at an
    # exact closing the local matrix norm itself collapses to rounding noise
    scale = np.maximum(_KINDS[spec.kind].scale(spec.params), norm)
    bad = np.flatnonzero(2.0 * norm < TOL.degeneracy * np.maximum(scale, TOL.zero_vector))
    if bad.size:
        raise DegenerateAtTolerance(f"gap {2.0 * norm[bad[0]]:.3e} at k = {ks[bad[0]]} "
                                    f"below {TOL.degeneracy:.0e} * model scale")
    return n, norm


def _spinors(n, r, band: str) -> np.ndarray:
    """States of one band from gated Bloch vectors n with norms r; see band_states."""
    x, y, z = n.T
    rho = np.hypot(x, y)
    if not np.all(np.isfinite(r)):
        raise ValueError("vector has non-finite entries")
    # (r + |z|) / 2 and (r - |z|) / 2 = rho^2 / (2 (r + |z|)), free of
    # cancellation and overflow; r > 0 past the gate
    big = 0.5 * r + 0.5 * np.abs(z)
    small = (0.5 * rho) * (0.5 * rho / big)
    north = z >= 0.0
    cos = np.sqrt(np.where(north, big, small) / r)
    sin = np.sqrt(np.where(north, small, big) / r)
    phase = np.ones(len(r), dtype=complex)
    np.divide(x + 1j * y, rho, out=phase, where=rho > 0.0)
    a, b = (sin, -cos) if _BAND_INDEX[band] == 0 else (cos, sin)   # state (a, e^{ip} b)
    lead = a > TOL.gauge_zero   # else the second entry is made real positive
    states = np.empty((len(r), 2), dtype=complex)
    states[:, 0] = np.where(lead, a, np.sign(b) * a * phase.conj())
    states[:, 1] = np.where(lead, phase * b, np.abs(b))
    return states


def _metric(n, norm, dim_k: int) -> np.ndarray:
    """Metric from gated Bloch vectors on a stacked k, k +- h e_i; see metric_grid."""
    unit = (n / norm[:, None]).reshape(1 + 2 * dim_k, len(n) // (1 + 2 * dim_k), 3)
    dn = ((unit[1::2] - unit[2::2]) / (2.0 * TOL.fd_step)).swapaxes(0, 1)
    if not np.all(np.isfinite(dn)):
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


def band_chart(spec: ModelSpec, band: str = "lower",
               step: float = TOL.fd_step) -> Chart:
    """Chart k -> band state, for geometric-tensor evaluation."""
    one_d = spec.dim_k == 1
    return Chart(map=lambda lam: band_state(spec, lam[0] if one_d else lam, band),
                 d=spec.dim_k, step=step)


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
    return _metric(*_gated_bloch(spec, ks, ks), spec.dim_k)


def bz_grid(spec: ModelSpec, n: int) -> np.ndarray:
    """The n momenta k_j = 2 pi j / (n a) of the 1D Brillouin zone."""
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


def _fermi_circle(spec: ModelSpec, e_f: float, n: int):
    """k_F and the (n', 2) unit directions of fermi_surface_loop's samples."""
    check_fermi_energy(e_f)
    if _KINDS[spec.kind].fermi is None:
        raise WrongDimension("Fermi-surface loops need a 2D model")
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
