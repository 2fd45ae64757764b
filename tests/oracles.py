"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths:
distances come from scalar math.acos loops, Berry phases from the raw
complex product, spherical areas from l'Huilier's formula, and two-level
dynamics from the closed-form matrix exponential.  The band-structure
oracles evaluate one k point at a time, through the model's Hamiltonian
and the generic chart path, never through the batched k-array code.
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


def chart_metric_grid(spec, band, ks) -> np.ndarray:
    """Quantum metric at each k from the generic per-point path: qgt_at on
    band_chart, i.e. central differences of the eigenvector projector."""
    from qii.geometry import qgt_at
    from qii.models import band_chart
    chart = band_chart(spec, band)
    return np.array([qgt_at(chart, np.atleast_1d(k), richardson=False).g for k in ks])
