"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths:
distances come from scalar math.acos loops, Berry phases from the raw
complex product, spherical areas from l'Huilier's formula, and two-level
dynamics from the closed-form matrix exponential.  The band-structure
oracles evaluate one k point at a time, through the model's Hamiltonian
and the generic chart path, never through the batched k-array code.
The np.roll overlap pass, the row-major Fourier sampler, the Gram-matrix
splitter, the list-based simplex, the bound chains composed of the
public model functions and the two-outer Fourier Bloch map, elementwise
gap gate, where-spinors and full-stack metric are earlier
implementations, kept so the current ones can be held to them bit for bit.
"""

import cmath
import math

import numpy as np


def brute_distance(states) -> float:
    """Fubini-Study chord sum via a plain python loop."""
    n = len(states)
    total = 0.0
    for j in range(n):
        ov = sum(states[j][i].conjugate() * states[(j + 1) % n][i]
                 for i in range(len(states[j])))
        total += math.acos(min(1.0, abs(ov)))
    return total


def brute_berry_phase(states) -> float:
    """Pancharatnam phase from the explicit cyclic overlap product."""
    n = len(states)
    prod = 1.0 + 0.0j
    for j in range(n):
        ov = sum(states[j][i].conjugate() * states[(j + 1) % n][i]
                 for i in range(len(states[j])))
        prod *= ov / abs(ov)
    gamma = -cmath.phase(prod)
    if gamma <= -math.pi + 1e-9:
        gamma = math.pi
    return gamma


def cap_perimeter(theta, radius=0.5) -> float:
    """Boundary length of a spherical cap of polar angle theta."""
    return 2.0 * math.pi * radius * math.sin(theta)


def cap_area(theta, radius=0.5) -> float:
    return 2.0 * math.pi * radius**2 * (1.0 - math.cos(theta))


def great_circle_arc(u, v) -> float:
    """Angle between unit 3-vectors (arc length on the unit sphere)."""
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))


def lhuilier_area(a, b, c) -> float:
    """Spherical triangle excess from its side arcs (unit sphere)."""
    s = 0.5 * (a + b + c)
    t = (math.tan(s / 2.0) * math.tan((s - a) / 2.0)
         * math.tan((s - b) / 2.0) * math.tan((s - c) / 2.0))
    return 4.0 * math.atan(math.sqrt(max(0.0, t)))


def polygon_vertices(n, theta):
    """Unit-sphere vertices at polar angle theta, equally spaced azimuths."""
    phis = [2.0 * math.pi * i / n for i in range(n)]
    return [np.array([math.sin(theta) * math.cos(p),
                      math.sin(theta) * math.sin(p),
                      math.cos(theta)]) for p in phis]


def spherical_polygon_perimeter(n, theta, radius=0.5) -> float:
    verts = polygon_vertices(n, theta)
    return radius * sum(great_circle_arc(verts[i], verts[(i + 1) % n])
                        for i in range(n))


def spherical_polygon_area(n, theta, radius=0.5) -> float:
    """Area by fanning triangles from the pole (l'Huilier per triangle)."""
    verts = polygon_vertices(n, theta)
    pole = np.array([0.0, 0.0, 1.0])
    total = 0.0
    for i in range(n):
        a = great_circle_arc(pole, verts[i])
        b = great_circle_arc(pole, verts[(i + 1) % n])
        c = great_circle_arc(verts[i], verts[(i + 1) % n])
        total += lhuilier_area(a, b, c)
    return radius**2 * total


def two_level_propagator(h, t) -> np.ndarray:
    """exp(-i h t) for a 2x2 Hermitian h via its eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    return vecs @ np.diag(np.exp(-1j * vals * t)) @ vecs.conj().T


def unwrapped_winding_metric_integral(phi_values, dk) -> float:
    """integral of (phi'(k))^2 / 4 dk from unwrapped winding-angle samples."""
    phi = np.unwrap(np.asarray(phi_values, dtype=float))
    dphi = np.gradient(phi, dk)
    return float(np.sum(dphi**2) * dk / 4.0)


def row_major_fourier_states(spec) -> np.ndarray:
    """The earlier `fourier_states`: the product written into a row-major
    buffer, each row divided by the square root of its own reduced sum of
    |amplitude|^2."""
    t = 2.0 * np.pi * np.arange(spec.n) / spec.n
    basis = np.exp(1j * np.outer(t, np.arange(-spec.k, spec.k + 1)))
    states = np.empty((spec.n, spec.m_dim), dtype=complex)
    states[:, 0] = 1.0
    np.matmul(basis, spec.coeffs.T, out=states[:, 1:])
    states /= np.sqrt(np.add.reduce((states.conj() * states).real, axis=1))[:, None]
    return states


def gram_coincidence_pairs(states, tol) -> np.ndarray:
    """Coincident index pairs from the full n x n Gram matrix.

    Pairs (j, k) with k >= j+2, minus the cyclic corner (0, n-1), whose
    overlap modulus is at least cos(tol), in row-major order.
    """
    n = states.shape[0]
    gram = np.abs(states @ states.conj().T)
    mask = np.triu(np.ones((n, n), dtype=bool), k=2)
    mask[0, n - 1] = False
    return np.argwhere((gram >= np.cos(tol)) & mask)


def gram_split(states, tol) -> list:
    """Recursive greedy split: cut at the first pair (j, k) that leaves two
    pieces of at least 3 states, re-Gram both pieces, cut piece first."""
    n = states.shape[0]
    for j, k in gram_coincidence_pairs(states, tol):
        j, k = int(j), int(k)
        if k - j >= 3 and n - (k - j) >= 3:
            return (gram_split(states[j:k], tol)
                    + gram_split(np.concatenate([states[:j], states[k:]]), tol))
    return [states]


PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


def hamiltonian(spec, k) -> np.ndarray:
    """Hermitian 2x2 Bloch Hamiltonian n(k).sigma at momentum k."""
    from qii.models import bloch
    return np.einsum("i,ijk->jk", bloch(spec, np.asarray(k, dtype=float)[None])[0], PAULI)


def per_k_band_states(spec, ks, band) -> np.ndarray:
    """Band states one k at a time: numpy eigh of H(k), then the phase that
    makes the first entry above 1e-10 in modulus real positive."""
    out = []
    for k in ks:
        _, vecs = np.linalg.eigh(hamiltonian(spec, k))
        v = vecs[:, {"lower": 0, "upper": 1}[band]]
        lead = v[np.flatnonzero(np.abs(v) > 1e-10)[0]]
        out.append(v / (lead / abs(lead)))
    return np.array(out)


# operators that anticommute with H(k) = n(k).sigma of each built-in kind
# whose Bloch vector lies in a coordinate plane (sigma_z or sigma_y)
CHIRAL_OPERATORS = {
    "ssh": np.array([[1, 0], [0, -1]], dtype=complex),
    "creutz": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "rhombohedral": np.array([[1, 0], [0, -1]], dtype=complex),
    "dirac": np.array([[1, 0], [0, -1]], dtype=complex),
}


def composed_band_chain(spec, band, n_k):
    """(Omega_1, d_fs, gamma_b) of a 1D band composed of the public calls:
    metric_grid on the Brillouin-zone grid, then summarize(bz_loop(...)),
    one Bloch evaluation each."""
    from qii.geometry import summarize
    from qii.models import bz_grid, bz_loop, metric_grid
    omega1 = float(np.mean(metric_grid(spec, band, bz_grid(spec, n_k))[:, 0, 0]))
    s = summarize(bz_loop(spec, band, n_k))
    return omega1, s.d_fs, s.gamma_b


def composed_wannier_values(spec, band, n_k, band_chain=composed_band_chain):
    omega1, d, gamma = band_chain(spec, band, n_k)
    a = spec.a
    return omega1, (a * d / (2.0 * np.pi)) ** 2, (a * gamma / (2.0 * np.pi)) ** 2


def composed_superfluid_values(spec, u, nu, n_k, band_chain=composed_band_chain):
    if spec.kind == "ssh" and spec.params["v"] * spec.params["w"] == 0.0:
        return 0.0, 0.0, 0.0
    omega1, d, gamma = band_chain(spec, "lower", n_k)
    factor = u * nu * (1.0 - nu)
    d_s = factor / (np.pi**2 * 2) * (omega1 * 2.0 * np.pi / spec.a)
    pref = spec.a * factor / (2.0 * np.pi**3 * 2)
    return d_s, pref * d**2, pref * gamma**2


def composed_eph_values(spec, e_f, n):
    """The eph chain from fermi_surface_loop, metric_grid on the circle of
    radius k_F (the loop's own momenta), split_self_intersections and summarize."""
    from qii.geometry import aggregate_summary, summarize
    from qii.loops import split_self_intersections
    from qii.models import _fermi_circle, fermi_surface_loop, metric_grid
    loop, l_fs = fermi_surface_loop(spec, e_f, n)
    k_f, _ = _fermi_circle(spec, e_f, n)
    alphas = 2.0 * np.pi * np.arange(loop.n) / loop.n
    g = metric_grid(spec, "upper", k_f * np.stack([np.cos(alphas), np.sin(alphas)], axis=1))
    that = np.stack([-np.sin(alphas), np.cos(alphas)], axis=1)
    agg = aggregate_summary([summarize(p) for p in split_self_intersections(loop)])
    return (float(np.trace(g, axis1=1, axis2=2).sum() * l_fs / loop.n),
            float(np.einsum("ni,nij,nj->", that, g, that) * l_fs / loop.n),
            agg.d_fs**2 / l_fs, agg.gamma_total**2 / l_fs)


def chart_metric_grid(spec, band, ks) -> np.ndarray:
    """Quantum metric at each k from the generic per-point path: qgt_at on
    band_chart, i.e. central differences of the eigenvector projector."""
    from qii.geometry import qgt_at
    from qii.models import band_chart
    chart = band_chart(spec, band)
    return np.array([qgt_at(chart, np.atleast_1d(k), richardson=False).g for k in ks])


def roll_distance(states) -> float:
    """Chord sum with the successor rows from np.roll and its own overlap pass."""
    nxt = np.roll(states, -1, axis=0)
    ovl = np.einsum("ij,ij->i", states.conj(), nxt)
    residual = nxt - states * ovl[:, None]
    sin = np.linalg.norm(residual, axis=1)
    return float(np.arctan2(sin, np.abs(ovl)).sum())


def roll_berry_phase(states) -> float:
    """Summed segment angles of the np.roll overlaps, with their own
    ill-conditioned gate; the phase convention is principal_phase's."""
    from qii.errors import IllConditionedSegment
    from qii.geometry import principal_phase
    ovl = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    small = np.abs(ovl)
    if small.min() < 1e-9:
        raise IllConditionedSegment(f"overlap {small.min():.3e} too small")
    return principal_phase(-float(np.angle(ovl).sum()))


def list_nelder_mead(fn, x0, step, max_evals):
    """Simplex descent on a Python list of vertices, re-ordered every step.

    Tests the budget only before a step, so one step may run past
    max_evals by up to d evaluations.
    """
    d = len(x0)
    simplex = [x0.copy()]
    for i in range(d):
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    fvals = [fn(v) for v in simplex]
    evals = d + 1
    while evals < max_evals:
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if (fvals[-1] - fvals[0] < 1e-13
                and max(np.abs(v - simplex[0]).max() for v in simplex[1:]) < 1e-10):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        evals += 1
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            evals += 1
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = fn(contracted)
            evals += 1
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = fn(simplex[i])
                evals += d
    best = int(np.argmin(fvals))
    return simplex[best], fvals[best], evals


def outer_fourier_bloch(spec, ks) -> np.ndarray:
    """The earlier Fourier Bloch map: one np.outer phase table per series."""
    p, ka = spec.params, np.asarray(ks, dtype=float) * spec.a
    return (p["const"] + np.cos(np.outer(ka, np.arange(1, len(p["cos"]) + 1))) @ p["cos"]
            + np.sin(np.outer(ka, np.arange(1, len(p["sin"]) + 1))) @ p["sin"])


def elementwise_gated_bloch(spec, ks, centers=None):
    """The earlier gap gate: (Bloch vectors, norms) on [ks, c +- h e_i], each
    row gated against max(model scale, |n|, zero_vector) of its own."""
    from qii.config import TOL
    from qii.errors import DegenerateAtTolerance
    from qii.models import _KINDS, bloch
    ks = np.asarray(ks, dtype=float)
    if centers is not None:
        steps = [TOL.fd_step] if spec.dim_k == 1 else list(np.eye(2) * TOL.fd_step)
        ks = np.concatenate([ks] + [np.add(centers, sign * e) for e in steps for sign in (1, -1)])
    n = (outer_fourier_bloch(spec, ks) if spec.kind == "fourier_bloch" else bloch(spec, ks))
    norm = np.hypot(np.hypot(n[..., 0], n[..., 1]), n[..., 2])
    scale = np.maximum(_KINDS[spec.kind].scale(spec.params), norm)
    bad = np.flatnonzero(2.0 * norm < TOL.degeneracy * np.maximum(scale, TOL.zero_vector))
    if bad.size:
        raise DegenerateAtTolerance(f"gap {2.0 * norm[bad[0]]:.3e} at k = {ks[bad[0]]} "
                                    f"below {TOL.degeneracy:.0e} * model scale")
    return n, norm


def where_spinors(n, r, band) -> np.ndarray:
    """The earlier band states from gated Bloch vectors: both gauge branches
    formed on every row and chosen by np.where."""
    from qii.config import TOL
    x, y, z = n.T
    rho = np.hypot(x, y)
    if not np.all(np.isfinite(r)):
        raise ValueError("vector has non-finite entries")
    big = 0.5 * r + 0.5 * np.abs(z)
    small = (0.5 * rho) * (0.5 * rho / big)
    north = z >= 0.0
    cos = np.sqrt(np.where(north, big, small) / r)
    sin = np.sqrt(np.where(north, small, big) / r)
    phase = np.ones(len(r), dtype=complex)
    np.divide(x + 1j * y, rho, out=phase, where=rho > 0.0)
    a, b = (sin, -cos) if {"lower": 0, "upper": 1}[band] == 0 else (cos, sin)
    lead = a > TOL.gauge_zero
    states = np.empty((len(r), 2), dtype=complex)
    states[:, 0] = np.where(lead, a, np.sign(b) * a * phase.conj())
    states[:, 1] = np.where(lead, phase * b, np.abs(b))
    return states


def full_stack_metric(n, norm, dim_k) -> np.ndarray:
    """The earlier metric: unit vectors of every stacked row, centres included."""
    from qii.config import TOL
    from qii.errors import NonFiniteDerivative
    unit = (n / norm[:, None]).reshape(1 + 2 * dim_k, len(n) // (1 + 2 * dim_k), 3)
    dn = ((unit[1::2] - unit[2::2]) / (2.0 * TOL.fd_step)).swapaxes(0, 1)
    if not np.all(np.isfinite(dn)):
        raise NonFiniteDerivative("non-finite Bloch-vector difference")
    return 0.25 * np.einsum("nmi,nli->nml", dn, dn)


def earlier_band_chain(spec, band, n_k):
    """(Omega_1, d_fs, gamma_b) of a 1D band from the earlier formulas above:
    one gated evaluation, np.mean of the metric, summarize of the spinor loop."""
    from qii.geometry import Loop, summarize
    from qii.models import bz_grid
    ks = bz_grid(spec, n_k)
    vec, norm = elementwise_gated_bloch(spec, ks, ks)
    omega1 = float(np.mean(full_stack_metric(vec, norm, 1)[:, 0, 0]))
    s = summarize(Loop(where_spinors(vec[:n_k], norm[:n_k], band)))
    return omega1, s.d_fs, s.gamma_b


def earlier_eph_values(spec, e_f, n):
    """The eph chain from the earlier formulas above."""
    from qii.geometry import Loop, aggregate_summary, summarize
    from qii.loops import split_self_intersections
    from qii.models import _fermi_circle
    k_f, directions = _fermi_circle(spec, e_f, n)
    n_eff, l_fs = len(directions), 2.0 * np.pi * k_f
    ks = k_f * directions
    vec, norm = elementwise_gated_bloch(spec, ks, ks)
    loop = Loop(where_spinors(vec[:n_eff], norm[:n_eff], "upper"))
    g = full_stack_metric(vec, norm, 2)
    that = np.stack([-directions[:, 1], directions[:, 0]], axis=1)
    agg = aggregate_summary([summarize(p) for p in split_self_intersections(loop)])
    return (float(np.trace(g, axis1=1, axis2=2).sum() * l_fs / n_eff),
            float(np.einsum("ni,nij,nj->", that, g, that) * l_fs / n_eff),
            agg.d_fs**2 / l_fs, agg.gamma_total**2 / l_fs)
