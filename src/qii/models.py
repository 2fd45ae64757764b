"""Two-band Bloch Hamiltonian zoo and band-state loop builders.

Built-in families: SSH chain, pi-flux Creutz ladder (two flat bands),
N-layer rhombohedral continuum model with off-diagonal (kx - i ky)^N,
and the gapless 2D Dirac cone.  Custom two-band models enter either as
smooth Bloch-vector Fourier series or as tabulated Bloch vectors on a
k-grid (linear interpolation), including from JSON/CSV files.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .core import eigh, gauge_fix
from .errors import (DegenerateAtTolerance, EmptyInput, OutOfRange,
                     SingularAtDiracPoint, WrongDimension)
from .geometry import PAULI, Chart, Loop

__all__ = [
    "ModelSpec", "ssh", "creutz", "rhombohedral", "dirac", "fourier_bloch",
    "bloch_table", "model_from_json", "bloch_table_from_csv", "hamiltonian",
    "band_state", "band_chart", "bz_loop", "fermi_surface_loop",
    "dirac_metric", "chiral_operator",
]

_BAND_INDEX = {"lower": 0, "upper": 1}
_ONE_D = {"ssh", "creutz", "fourier_bloch", "table"}


@dataclass(frozen=True)
class ModelSpec:
    """A named two-band Bloch-Hamiltonian family with parameters."""

    kind: str
    params: dict = field(default_factory=dict)
    a: float = 1.0  # lattice constant

    def __post_init__(self):
        if self.kind not in _ONE_D | {"rhombohedral", "dirac"}:
            raise OutOfRange(f"unknown model kind {self.kind!r}")
        if self.a <= 0:
            raise OutOfRange("lattice constant must be positive")

    @property
    def bands(self) -> int:
        return 2

    @property
    def dim_k(self) -> int:
        return 1 if self.kind in _ONE_D else 2

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
    if n_layers < 1:
        raise OutOfRange("layer count must be >= 1")
    return ModelSpec("rhombohedral", {"n_layers": int(n_layers),
                                      "scale": float(scale)}, a)


def dirac(v_f: float = 1.0) -> ModelSpec:
    """Gapless 2D Dirac cone with Fermi velocity v_f."""
    return ModelSpec("dirac", {"v_f": float(v_f)})


def fourier_bloch(const, cos_coeffs, sin_coeffs, a: float = 1.0) -> ModelSpec:
    """Smooth 1D model n(k).sigma from a Bloch-vector Fourier series.

    n(k) = const + sum_m cos(m k a) cos_coeffs[m-1] + sin(m k a) sin_coeffs[m-1].
    """
    return ModelSpec("fourier_bloch", {
        "const": np.asarray(const, dtype=float),
        "cos": np.atleast_2d(np.asarray(cos_coeffs, dtype=float)),
        "sin": np.atleast_2d(np.asarray(sin_coeffs, dtype=float)),
    }, a)


def bloch_table(k_grid, vectors, a: float = 1.0) -> ModelSpec:
    """1D model from tabulated Bloch vectors, linearly interpolated in k.

    k_grid must be ascending inside [0, 2 pi / a); the table is treated as
    periodic.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape != (k_grid.size, 3):
        raise WrongDimension(f"need (n, 3) Bloch vectors, got {vectors.shape}")
    if np.any(np.diff(k_grid) <= 0):
        raise OutOfRange("k grid must be strictly ascending")
    return ModelSpec("table", {"k": k_grid, "vectors": vectors}, a)


def model_from_json(obj) -> ModelSpec:
    """Build a spec from {kind, parameters, lattice_const} (dict or JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise OutOfRange("model config must be a JSON object with a string 'kind'")
    kind = obj["kind"]
    params = obj.get("parameters", {})
    if not isinstance(params, dict):
        raise OutOfRange("model 'parameters' must be a JSON object")
    builders = {
        "ssh": lambda a: ssh(params["v"], params["w"], a),
        "creutz": lambda a: creutz(params["t"], a),
        "rhombohedral": lambda a: rhombohedral(params["n_layers"],
                                               params.get("scale", 1.0), a),
        "dirac": lambda a: dirac(params.get("v_f", 1.0)),
    }
    if kind not in builders:
        raise OutOfRange(f"unknown model kind {kind!r} in config")
    try:
        return builders[kind](float(obj.get("lattice_const", 1.0)))
    except KeyError as exc:
        raise OutOfRange(f"model {kind!r} needs parameter {exc.args[0]!r}") from None
    except TypeError as exc:   # a parameter that is not a number
        raise OutOfRange(f"model {kind!r}: {exc}") from None


def bloch_table_from_csv(path, a: float = 1.0) -> ModelSpec:
    """Read a (k, nx, ny, nz) table written with a header row."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise EmptyInput(f"{path}: Bloch table has no data rows")
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return bloch_table(data[:, 0], data[:, 1:4], a)


def _bloch_vector_of(spec: ModelSpec, k) -> np.ndarray:
    kind, p = spec.kind, spec.params
    if kind == "ssh":
        ka = float(k) * spec.a
        return np.array([p["v"] + p["w"] * np.cos(ka), p["w"] * np.sin(ka), 0.0])
    if kind == "creutz":
        ka = float(k) * spec.a
        return np.array([2 * p["t"] * np.cos(ka), 0.0, 2 * p["t"] * np.sin(ka)])
    if kind == "fourier_bloch":
        ka = float(k) * spec.a
        n = p["const"].copy()
        for m, row in enumerate(p["cos"], start=1):
            n += np.cos(m * ka) * row
        for m, row in enumerate(p["sin"], start=1):
            n += np.sin(m * ka) * row
        return n
    if kind == "table":
        period = 2.0 * np.pi / spec.a
        kk = float(k) % period
        grid = np.concatenate([p["k"], [p["k"][0] + period]])
        vecs = np.vstack([p["vectors"], p["vectors"][:1]])
        return np.array([np.interp(kk, grid, vecs[:, i]) for i in range(3)])
    if kind == "rhombohedral":
        kx, ky = np.asarray(k, dtype=float)
        q = (kx - 1j * ky) ** p["n_layers"]
        return p["scale"] * np.array([q.real, q.imag, 0.0])
    if kind == "dirac":
        kx, ky = np.asarray(k, dtype=float)
        return p["v_f"] * np.array([kx, ky, 0.0])
    raise OutOfRange(f"unknown model kind {kind!r}")


def hamiltonian(spec: ModelSpec, k) -> np.ndarray:
    """Hermitian 2x2 Bloch Hamiltonian n(k).sigma at momentum k."""
    n = _bloch_vector_of(spec, k)
    return np.einsum("i,ijk->jk", n, PAULI)


def _characteristic_scale(spec: ModelSpec) -> float:
    p = spec.params
    if spec.kind == "ssh":
        return abs(p["v"]) + abs(p["w"])
    if spec.kind == "creutz":
        return 2.0 * abs(p["t"])
    if spec.kind == "rhombohedral":
        return abs(p["scale"])
    if spec.kind == "dirac":
        return abs(p["v_f"])
    if spec.kind == "fourier_bloch":
        return float(np.linalg.norm(p["const"]) + np.abs(p["cos"]).sum()
                     + np.abs(p["sin"]).sum())
    return float(np.linalg.norm(p["vectors"], axis=1).max())


def band_state(spec: ModelSpec, k, band: str = "lower") -> np.ndarray:
    """Normalized gauge-fixed eigenstate of the requested band.

    Raises DegenerateAtTolerance at gap closings (e.g. the Dirac point,
    or the SSH critical point v = w at k a = pi).  The gap is measured
    against the model's characteristic energy scale, since at an exact
    closing the local matrix norm itself collapses to rounding noise.
    """
    idx = _BAND_INDEX[band]
    vals, vecs = eigh(hamiltonian(spec, k))
    scale = max(_characteristic_scale(spec), float(np.abs(vals).max()))
    if vals[1] - vals[0] < TOL.degeneracy * max(scale, TOL.zero_vector):
        raise DegenerateAtTolerance(
            f"gap {vals[1] - vals[0]:.3e} at k = {k} below "
            f"{TOL.degeneracy:.0e} * model scale")
    return gauge_fix(vecs[idx])


def band_chart(spec: ModelSpec, band: str = "lower",
               step: float = TOL.fd_step) -> Chart:
    """Chart k -> band state, for geometric-tensor evaluation."""
    if spec.dim_k == 1:
        return Chart(map=lambda lam: band_state(spec, lam[0], band), d=1, step=step)
    return Chart(map=lambda lam: band_state(spec, lam, band), d=2, step=step)


def bz_loop(spec: ModelSpec, band: str = "lower", n: int = 512) -> Loop:
    """Loop of band states over the 1D Brillouin zone, k_j = 2 pi j / (n a)."""
    if spec.dim_k != 1:
        raise WrongDimension("Brillouin-zone loops need a 1D model")
    ks = 2.0 * np.pi * np.arange(n) / (n * spec.a)
    return Loop(np.array([band_state(spec, k, band) for k in ks]))


def fermi_surface_loop(spec: ModelSpec, e_f: float, n: int = 512):
    """Band-state loop on the circular Fermi surface at energy e_f > 0.

    Returns (loop, perimeter) with perimeter = 2 pi |k_F|.  The positive
    band is used since e_f > 0.  For the rhombohedral model n is rounded
    up to a multiple of N so the N-fold winding closes exactly on the
    sample grid (required for coincidence splitting).
    """
    if e_f <= 0:
        raise OutOfRange("Fermi energy must be positive")
    if spec.kind == "dirac":
        k_f = e_f / spec.params["v_f"]
    elif spec.kind == "rhombohedral":
        n_layers = spec.params["n_layers"]
        k_f = (e_f / spec.params["scale"]) ** (1.0 / n_layers)
        n = n_layers * int(np.ceil(n / n_layers))
    else:
        raise WrongDimension("Fermi-surface loops need a 2D model")
    alphas = 2.0 * np.pi * np.arange(n) / n
    states = np.array([band_state(spec, k_f * np.array([np.cos(al), np.sin(al)]),
                                  "upper") for al in alphas])
    return Loop(states), 2.0 * np.pi * k_f


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


def chiral_operator(spec: ModelSpec) -> np.ndarray:
    """Operator anticommuting with the Hamiltonian of each built-in."""
    if spec.kind in {"ssh", "rhombohedral", "dirac"}:
        return PAULI[2]  # sigma_z: Bloch vector lives in the x-y plane
    if spec.kind == "creutz":
        return PAULI[1]  # sigma_y: Bloch vector lives in the x-z plane
    raise OutOfRange(f"no chiral operator declared for {spec.kind!r}")
