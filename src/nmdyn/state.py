"""Phase-space data model: particles plus transverse field, and the X^sigma norms.

A phase-space point is u = (p, q, alpha): n particle momenta/positions in R^d
and one complex amplitude alpha_lam(k_j) per polarization and grid node.  The
norms are

    ||alpha||^2_{hdot^sigma} = sum_lam int |k|^{2 sigma} |alpha_lam(k)|^2 dk
    ||alpha||^2_{h^sigma}    = sum_lam int (1+|k|^2)^sigma |alpha_lam(k)|^2 dk
    ||u||^2_{X^sigma}        = sum_i (|p_i|^2 + |q_i|^2) + ||alpha||^2_{h^sigma}

with every integral routed through the grid quadrature, so all tolerances
downstream are grid-consistent.  The particle block carries the complex
structure z = q + i p; the real inner product on X^sigma is

    Re<a, b>_sigma = sum Re(conj(z_a) z_b) + Re sum_lam int conj(alpha_a) (1+|k|^2)^sigma alpha_b dk

(antilinear in the first slot before taking the real part).

The free flow is exact:  Phi_t^0 (p, q, alpha) = (p, q_i + t p_i/m_i,
e^{-i t |k|} alpha_lam), a one-parameter group.

A PhaseSpacePoint is one float64 vector [p | q | alpha as (re, im) pairs]
with p, q and alpha as views.  Its ``data`` may also be a stack (S, D) of S
such vectors, one sample per row; then p and q are (S, n, d) and alpha is
(S, d-1, M).  ``phase_norm``, ``real_inner`` and ``free_flow`` (and the
interaction kernels) work row by row on a stack, with each row's arithmetic
that of the single point, so a row's result does not depend on the stack it
is in.  ParticleState and FieldState validate at the API edge; the stepping
arithmetic builds new vectors unchecked and never mutates one.  Finiteness
is *not* validated here (the integrator checks it after every step, where a
failure has diagnostic context).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import KGrid, integrate_k

__all__ = [
    "ParticleState",
    "ParticleSpec",
    "FieldState",
    "PhaseSpacePoint",
    "field_norm",
    "phase_norm",
    "real_inner",
    "free_flow",
    "point_to_json",
    "point_from_json",
]

HOMOGENEOUS = "homogeneous"
INHOMOGENEOUS = "inhomogeneous"


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Momenta and positions, arrays of shape (n, d)."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if p.shape != q.shape or p.ndim != 2:
            raise ValueError(f"p and q must share shape (n, d), got {p.shape} vs {q.shape}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class ParticleSpec:
    """Masses and one form factor per particle (form factors are duck-typed
    radial profiles; see the interaction module)."""

    masses: np.ndarray
    form_factors: Sequence

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or not np.all(masses > 0):
            raise ValueError("masses must be a 1-d array of positive numbers")
        if len(self.form_factors) != masses.shape[0]:
            raise ValueError(
                f"{len(self.form_factors)} form factors for {masses.shape[0]} masses"
            )
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "form_factors", tuple(self.form_factors))

    @property
    def n(self) -> int:
        return self.masses.shape[0]


@dataclass(frozen=True, eq=False)
class FieldState:
    """Complex amplitudes alpha_lam(k_j), array of shape (d-1, M) on a KGrid."""

    grid: KGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        expected = (self.grid.d - 1, self.grid.node_count)
        if values.shape != expected:
            raise ValueError(f"field values must have shape {expected}, got {values.shape}")
        object.__setattr__(self, "values", values)


class PhaseSpacePoint:
    """u = (p, q, alpha) in one vector ``data``; doubles as its own tangent type.

    The constructor packs validated containers once; the arithmetic and the
    kernels wrap new vectors (or (S, D) stacks) through the unchecked
    ``_of(grid, data)``, or ``_like(data)`` for one of the same layout.  The
    particle block's length is fixed when the point is built.
    """

    __slots__ = ("grid", "data", "_nd")

    def __init__(self, particles: ParticleState, field: FieldState):
        if particles.p.shape[1] != field.grid.d:
            raise ValueError(f"particles in R^{particles.p.shape[1]}, grid in R^{field.grid.d}")
        self.grid = field.grid
        alpha = np.ascontiguousarray(field.values).view(float)
        self.data = np.concatenate([particles.p.ravel(), particles.q.ravel(), alpha.ravel()])
        self._nd = particles.p.size

    @classmethod
    def _of(cls, grid: KGrid, data: np.ndarray) -> "PhaseSpacePoint":
        u = cls.__new__(cls)
        u.grid, u.data = grid, data
        u._nd = (data.shape[-1] - 2 * (grid.d - 1) * grid.node_count) // 2
        return u

    def _like(self, data: np.ndarray) -> "PhaseSpacePoint":
        """A point (or stack) on the same grid with the same particle count."""
        u = PhaseSpacePoint.__new__(PhaseSpacePoint)
        u.grid, u.data, u._nd = self.grid, data, self._nd
        return u

    @property
    def p(self) -> np.ndarray:
        return self.data[..., : self._nd].reshape(self.data.shape[:-1] + (-1, self.grid.d))

    @property
    def q(self) -> np.ndarray:
        nd = self._nd
        return self.data[..., nd : 2 * nd].reshape(self.data.shape[:-1] + (-1, self.grid.d))

    @property
    def alpha(self) -> np.ndarray:
        return (self.data[..., 2 * self._nd :].view(complex)
                .reshape(self.data.shape[:-1] + (self.grid.d - 1, -1)))

    @property
    def particles(self) -> ParticleState:
        return ParticleState(self.p, self.q)

    @property
    def field(self) -> FieldState:
        return FieldState(self.grid, self.alpha)

    # -- linear-space operations used by the Runge-Kutta stages -------------
    def __add__(self, other: "PhaseSpacePoint") -> "PhaseSpacePoint":
        return self._like(self.data + other.data)

    def __sub__(self, other: "PhaseSpacePoint") -> "PhaseSpacePoint":
        return self._like(self.data - other.data)

    def __rmul__(self, c: float) -> "PhaseSpacePoint":
        return self._like(c * self.data)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))


def _weights(grid: KGrid, sigma: float, flavor: str) -> np.ndarray:
    """Field weight |k|^{2 sigma} (homogeneous) or (1+|k|^2)^sigma, sigma in [0, 1].

    The inhomogeneous weight is what enters the X^sigma block operator
    diag(1, 1, (1+|k|^2)^sigma) used by real_inner.
    """
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0, 1], got {sigma}")
    if flavor == HOMOGENEOUS:
        return grid.absk ** (2.0 * sigma)
    if flavor == INHOMOGENEOUS:
        return (1.0 + grid.absk**2) ** sigma
    raise ValueError(f"unknown flavor {flavor!r}")


def _scalar(x):
    """A 0-d result as a Python float; the per-row array of a stack as is."""
    return float(x) if np.ndim(x) == 0 else x


def _field_density(alpha: np.ndarray) -> np.ndarray:
    """sum_lam |alpha_lam|^2 at every node: (..., M) for alpha (..., d-1, M)."""
    return np.sum(np.abs(alpha) ** 2, axis=-2)


def _density_norm(grid: KGrid, dens: np.ndarray, sigma: float, flavor: str):
    """sqrt(int weight * dens dk) for a ``_field_density`` dens, per row.

    Powers of a norm go through ``np.float_power``, which calls the same libm
    pow as Python's ``**`` on a float; ``array ** 2`` multiplies instead and
    differs in the last bit about once in a thousand.
    """
    return np.sqrt(integrate_k(grid, dens * _weights(grid, sigma, flavor)))


def _field_norm(grid: KGrid, alpha: np.ndarray, sigma: float, flavor: str):
    """``_density_norm`` of the ``_field_density`` of alpha (d-1, M), or per row."""
    return _density_norm(grid, _field_density(alpha), sigma, flavor)


def field_norm(alpha: FieldState, sigma: float, flavor: str = INHOMOGENEOUS) -> float:
    """Weighted L^2 norm of the field, sqrt(sum_lam int weight |alpha_lam|^2 dk)."""
    return float(_field_norm(alpha.grid, alpha.values, sigma, flavor))


def _phase_norms(u: PhaseSpacePoint, dens: np.ndarray, sigmas, flavor: str = INHOMOGENEOUS):
    """``phase_norm`` of u at each sigma, from its ``_field_density`` dens."""
    particle = np.sum(u.p**2, axis=(-2, -1)) + np.sum(u.q**2, axis=(-2, -1))
    return [np.sqrt(particle + np.float_power(_density_norm(u.grid, dens, sigma, flavor), 2))
            for sigma in sigmas]


def phase_norm(u: PhaseSpacePoint, sigma: float, flavor: str = INHOMOGENEOUS):
    """||u||_{X^sigma} = sqrt( sum_i (|p_i|^2 + |q_i|^2) + ||alpha||^2 ).

    A float for one point; an (S,) array, row by row, for a stack.
    """
    return _scalar(_phase_norms(u, _field_density(u.alpha), (sigma,), flavor)[0])


def real_inner(a: PhaseSpacePoint, b: PhaseSpacePoint, sigma: float):
    """Re<a, b>_{X^sigma}: z = q + i p on particles, (1+|k|^2)^sigma on the field.

    Symmetric and bilinear over the reals; real_inner(u, u, sigma) equals
    phase_norm(u, sigma, inhomogeneous)**2.  Stacks broadcast against each
    other by their leading axes, so (J, 1, D) against (S, D) gives all J*S
    pairings as a (J, S) array.
    """
    grids = [(u.grid.d, u.grid.K, u.grid.N) for u in (a, b)]
    if grids[0] != grids[1]:
        raise ValueError(f"phase-space points live on incompatible grids (d, K, N) = "
                         f"{grids[0]} and {grids[1]}")
    za = a.q + 1j * a.p
    zb = b.q + 1j * b.p
    particle = np.sum(np.conj(za) * zb, axis=(-2, -1)).real
    w = _weights(a.grid, sigma, INHOMOGENEOUS)
    dens = np.sum(np.conj(a.alpha) * b.alpha, axis=-2) * w
    return _scalar(particle + np.real(integrate_k(a.grid, dens)))


def free_flow(u: PhaseSpacePoint, t, spec: ParticleSpec) -> PhaseSpacePoint:
    """Exact free flow Phi_t^0: ballistic particles, unimodular field phases.

    (p, q, alpha) -> (p, q_i + t p_i/m_i, e^{-i t |k|} alpha_lam).  Exact
    group law and norm preservation up to rounding.  On a stack, t is one
    time for every row or an (S,) array of one time per row.  The field turn
    e^{-i t |k|} is computed on each call; ``_turned`` takes it precomputed.
    """
    t = np.reshape(t, np.shape(t) + (1, 1))
    return _turned(u, t, np.exp(-1j * t * u.grid.absk), spec)


def _turned(u: PhaseSpacePoint, t, turn: np.ndarray, spec: ParticleSpec) -> PhaseSpacePoint:
    """``free_flow`` by t, shaped as there, with its field turn given."""
    out = u._like(np.empty_like(u.data))
    out.p[...] = u.p
    out.q[...] = u.q + t * u.p / spec.masses[:, None]
    np.multiply(u.alpha, turn, out=out.alpha)
    return out


def point_to_json(u: PhaseSpacePoint) -> dict:
    """JSON-serializable dict {p, q, alpha_re, alpha_im}; alpha flattened C-order."""
    return {
        "p": u.p.tolist(),
        "q": u.q.tolist(),
        "alpha_re": u.alpha.real.ravel().tolist(),
        "alpha_im": u.alpha.imag.ravel().tolist(),
    }


def point_from_json(data: dict, grid: KGrid) -> PhaseSpacePoint:
    """Inverse of :func:`point_to_json` for a known grid."""
    shape = (grid.d - 1, grid.node_count)
    re = np.asarray(data["alpha_re"], dtype=float)
    im = np.asarray(data["alpha_im"], dtype=float)
    if re.size != shape[0] * shape[1] or im.size != re.size:
        raise ValueError(
            f"alpha arrays of length {re.size} incompatible with grid ({shape[0]}x{shape[1]})"
        )
    alpha = (re + 1j * im).reshape(shape)
    return PhaseSpacePoint(ParticleState(data["p"], data["q"]), FieldState(grid, alpha))
