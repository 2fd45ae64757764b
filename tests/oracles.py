"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths:
distances come from scalar math.acos loops, Berry phases from the raw
complex product, spherical areas from l'Huilier's formula, and two-level
dynamics from the closed-form matrix exponential.  The band-structure
oracles evaluate one k point at a time, through the model's Hamiltonian
and the generic chart path, never through the batched k-array code.  The np.roll overlap pass, the
Gram-matrix splitter, the list-based simplex and the bound chains composed
of the public model functions are earlier implementations, kept so the
current ones can be held to them bit for bit.
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


def per_k_band_states(spec, ks, band) -> np.ndarray:
    """Band states one k at a time: numpy eigh of H(k), then the phase that
    makes the first entry above 1e-10 in modulus real positive."""
    from qii.models import hamiltonian
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


def composed_wannier_values(spec, band, n_k):
    omega1, d, gamma = composed_band_chain(spec, band, n_k)
    a = spec.a
    return omega1, (a * d / (2.0 * np.pi)) ** 2, (a * gamma / (2.0 * np.pi)) ** 2


def composed_superfluid_values(spec, u, nu, n_k):
    if spec.kind == "ssh" and spec.params["v"] * spec.params["w"] == 0.0:
        return 0.0, 0.0, 0.0
    omega1, d, gamma = composed_band_chain(spec, "lower", n_k)
    factor = u * nu * (1.0 - nu)
    d_s = factor / (np.pi**2 * 2) * (omega1 * 2.0 * np.pi / spec.a)
    pref = spec.a * factor / (2.0 * np.pi**3 * 2)
    return d_s, pref * d**2, pref * gamma**2


def composed_eph_values(spec, e_f, n):
    """The eph chain from fermi_surface_loop, metric_grid on the circle of
    radius l_fs / 2 pi, split_self_intersections and summarize."""
    from qii.geometry import aggregate_summary, summarize
    from qii.loops import split_self_intersections
    from qii.models import fermi_surface_loop, metric_grid
    loop, l_fs = fermi_surface_loop(spec, e_f, n)
    k_f = l_fs / (2.0 * np.pi)
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
