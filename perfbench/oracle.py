"""An energy oracle and a sample redraw, written apart from the program.

The oracle evaluates

    H(u) = sum_i |p_i - A_i(q_i, alpha)|^2 / 2 m_i + V(q) + ||alpha||^2_{hdot^{1/2}}

by direct sums over the grid nodes, from the formulas in the docstring of
``nmdyn.interaction``:

    A_i(q)  = 2 Re sum_lam sum_j w_j chi_i(k_j)/sqrt(2|k_j|) alpha_lam(k_j)
              e^{2 pi i k_j.q} eps_lam(k_j),
    V(q)    = sum_{i<j} g sum_k w_k chi_i chi_j / |k|^2 cos(2 pi k.(q_i - q_j)),
    ||alpha||^2_{hdot^{1/2}} = sum_lam sum_j w_j |k_j| |alpha_lam(k_j)|^2.

Only the grid and the polarization frame come from ``nmdyn.geometry``; form
factors, the coherent initial profile and the Philox sample draws are
rebuilt here from their documented definitions.
"""

from __future__ import annotations

import numpy as np

from nmdyn.geometry import build_kgrid, polarization_basis

_MASK = 0xFFFFFFFFFFFFFFFF


def energy(p, q, alpha, masses, chi, g, nodes, weights, vectors) -> float:
    """H(u) for particles (p, q) of shape (n, d) and field alpha (d-1, M).

    chi holds each particle's form factor at the nodes, shape (n, M); g is
    the smeared-Coulomb coupling (0 for no pair potential); vectors[j, lam]
    is the polarization vector eps_lam at node j.
    """
    absk = np.sqrt(np.sum(nodes * nodes, axis=1))
    total = float(np.sum(weights * absk * np.sum(np.abs(alpha) ** 2, axis=0)))
    for i, mass in enumerate(masses):
        coeff = weights * chi[i] / np.sqrt(2.0 * absk) * np.exp(2j * np.pi * (nodes @ q[i]))
        a_i = 2.0 * np.real(np.einsum("lj,j,jlv->v", alpha, coeff, vectors))
        total += float(np.sum((p[i] - a_i) ** 2)) / (2.0 * mass)
    for i in range(len(masses)):
        for j in range(i + 1, len(masses)):
            kernel = g * weights * chi[i] * chi[j] / absk**2
            total += float(np.sum(kernel * np.cos(2.0 * np.pi * (nodes @ (q[i] - q[j])))))
    return total


class ScenarioModel:
    """What the oracle needs from a scenario document (gaussian form factors,
    smeared-Coulomb or zero potential, coherent centre)."""

    def __init__(self, scenario: dict):
        g = scenario["grid"]
        grid = build_kgrid(g["d"], g["K"], g["N"])
        self.d = g["d"]
        self.nodes = grid.nodes
        self.weights = grid.weights
        self.vectors = polarization_basis(grid).vectors
        absk = np.sqrt(np.sum(self.nodes**2, axis=1))
        self.absk = absk
        self.masses = []
        chi = []
        for part in scenario["particles"]:
            ff = part["form_factor"]
            if ff["family"] != "gaussian":
                raise ValueError(f"oracle supports gaussian form factors, got {ff['family']!r}")
            self.masses.append(float(part["mass"]))
            chi.append(np.exp(-(absk**2) / ff["width"] ** 2))
        self.chi = np.array(chi)
        pot = scenario["potential"]
        if pot["family"] == "smeared-coulomb":
            self.g = float(pot["g"])
        elif pot["family"] == "zero":
            self.g = 0.0
        else:
            raise ValueError(f"oracle supports smeared-coulomb or zero, got {pot['family']!r}")

    def energy(self, p, q, alpha) -> float:
        return energy(np.asarray(p, float), np.asarray(q, float), np.asarray(alpha),
                      self.masses, self.chi, self.g, self.nodes, self.weights,
                      self.vectors)

    def coherent(self, c: dict):
        """(p, q, alpha) of a coherent profile:
        alpha_lam(k) = amplitude e^{-width |k|^2} (eps_lam(k) . direction)."""
        direction = np.asarray(c["direction"], dtype=float)
        decay = np.exp(-c.get("width", 1.0) * self.absk**2)
        alpha = c["amplitude"] * (self.vectors @ direction).T * decay[None, :]
        return (np.asarray(c["p"], dtype=float), np.asarray(c["q"], dtype=float),
                alpha.astype(complex))

    def unflatten(self, point: dict):
        """(p, q, alpha) from the JSON form {p, q, alpha_re, alpha_im}."""
        shape = (self.d - 1, self.nodes.shape[0])
        alpha = (np.asarray(point["alpha_re"]) + 1j * np.asarray(point["alpha_im"]))
        return (np.asarray(point["p"], dtype=float), np.asarray(point["q"], dtype=float),
                alpha.reshape(shape))


def draw_gaussian_sample(center, measure: dict, seed: int, index: int):
    """Sample ``index`` of a gaussian measure, keyed by (seed, index).

    The documented scheme: a Philox stream keyed by (seed, sample index)
    draws N(0, 1) offsets for every p, then every q component (scaled by
    particle_scale), then one (re, im) pair per listed field mode, added as
    sqrt(variance/2) (re + i im).
    """
    p, q, alpha = center
    key = np.array([seed & _MASK, index & _MASK], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    scale = measure.get("particle_scale", 0.0)
    p = p + scale * gen.standard_normal(p.shape)
    q = q + scale * gen.standard_normal(q.shape)
    alpha = alpha.copy()
    for (lam, j), var in zip(measure.get("field_modes", []),
                             measure.get("field_variances", [])):
        re, im = gen.standard_normal(2)
        alpha[lam, j] += np.sqrt(var / 2.0) * (re + 1j * im)
    return p, q, alpha
