"""Fourier-space geometry: midpoint k-grids and transverse polarization frames.

Every field integral in this package is a weighted sum over a fixed Cartesian
grid on [-K, K)^d with spacing h = 2K/N, nodes offset by h/2 per axis.  The
offset guarantees that k = 0 is never a node and that the node set is exactly
symmetric under k -> -k.  The integrands of interest carry |k|^{-1/2} or
|k|^{-2} singularities, which are locally integrable for d >= 3, so the
midpoint rule converges under (K, N) refinement without special weights;
accuracy is always assessed by refinement, never assumed.  On a |k|^{-2}
integrand in d = 3 the convergence is first order in h: the error halves
per halving of h (-17% at K = 6, N = 48 for e^{-2|k|^2}/|k|^2).

Polarization frames: at every node ``{eps_1, ..., eps_{d-1}, k/|k|}`` is an
orthonormal basis of R^d.  For k^0 < 0 the eps vectors are the images of e_1,
..., e_{d-1} under the Householder reflection mapping e_d to k/|k| (canonical
basis when k/|k| = +/- e_d); eps(-k) = eps(k).  The frame is deterministic but
not continuous in k -- no global smooth frame on the sphere exists.  All
physical formulas depend on the frame only through the transverse projector
sum_l eps_l eps_l^T = 1 - khat khat^T, which is what makes this harmless.

Fourier convention: 2*pi in the exponent, e^{2*pi*i*k*x}, throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KGrid",
    "PolarizationBasis",
    "build_kgrid",
    "polarization_basis",
    "transverse_frame",
    "integrate_k",
]


@dataclass(frozen=True, eq=False)
class KGrid:
    """Midpoint quadrature grid on [-K, K)^d, treated as immutable.

    Compared and hashed by identity, so it can key memoized per-grid data.

    Attributes
    ----------
    d : spatial dimension (>= 3)
    K : half-width of the cube
    N : nodes per axis (even)
    nodes : (M, d) array of node coordinates, M = N**d
    weights : (M,) array of quadrature weights, all equal to h**d
    absk : (M,) array of Euclidean norms |k| per node (never zero)
    """

    d: int
    K: float
    N: int
    nodes: np.ndarray
    weights: np.ndarray
    absk: np.ndarray

    @property
    def h(self) -> float:
        """Grid spacing 2K/N."""
        return 2.0 * self.K / self.N

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class PolarizationBasis:
    """Transverse orthonormal frame at every grid node.

    ``vectors[j, lam, :]`` is the polarization vector eps_lam at node j;
    together with nodes[j]/absk[j] the rows complete an orthonormal basis
    of R^d.  Immutable.
    """

    grid: KGrid
    vectors: np.ndarray  # (M, d-1, d)


def build_kgrid(d: int, K: float, N: int) -> KGrid:
    """Build the half-cell-offset uniform grid on [-K, K)^d.

    Parameters
    ----------
    d : dimension, must be >= 3 (the singular integrands |k|^{-2} are not
        locally integrable below that)
    K : positive cutoff
    N : even number of nodes per axis; the offset construction needs N even
        to keep the k -> -k symmetry exact

    The per-axis nodes are +/-(h/2 + m*h), m = 0..N/2-1, built by explicit
    mirroring so the symmetry holds exactly in floating point: node M-1-j is
    exactly -k_j, and the first M/2 nodes are those with k^0 < 0.  The
    coupling kernels rely on this, summing over those M/2 nodes and reading
    the others through the mirror (see ``interaction``).
    """
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got d={d}")
    if N < 2 or N % 2 != 0:
        raise ValueError(f"N must be a positive even integer, got N={N}")
    if not K > 0:
        raise ValueError(f"cutoff K must be positive, got K={K}")

    h, half = _grid_axis(K, N)
    axis = np.concatenate([-half[::-1], half])
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack(mesh, axis=-1).reshape(-1, d)
    weights = np.full(nodes.shape[0], h**d)
    return KGrid(d=d, K=float(K), N=int(N), nodes=nodes, weights=weights,
                 absk=_radii(d, axis))


def _grid_axis(K: float, N: int) -> tuple[float, np.ndarray]:
    """The spacing of build_kgrid(d, K, N) and its N/2 positive per-axis nodes."""
    h = 2.0 * K / N
    return h, h / 2.0 + h * np.arange(N // 2)


def _radii(d: int, axis: np.ndarray) -> np.ndarray:
    """|k| at every node of the ij tensor product of d copies of axis, |k|^2
    summing the squares in axis order, as np.sum(nodes**2, axis=1) does."""
    sq = k2 = axis**2
    for _ in range(1, d):
        k2 = k2[..., None] + sq
    return np.sqrt(k2).ravel()


def transverse_frame(khat: np.ndarray) -> np.ndarray:
    """Orthonormal frames orthogonal to the given unit vectors.

    Parameters
    ----------
    khat : (M, d) array of unit vectors.

    Returns
    -------
    (M, d-1, d) array; row ``[j, lam]`` is the image of e_lam under the
    Householder reflection H = 1 - 2 v v^T/|v|^2 with v = khat_j - e_d,
    which maps e_d to khat_j.  For khat_j = +e_d (v = 0) the reflection
    degenerates and the canonical basis e_1..e_{d-1} is used directly;
    khat_j = -e_d needs no special case (the formula already returns the
    canonical basis there).
    """
    khat = np.atleast_2d(np.asarray(khat, dtype=float))
    m, d = khat.shape
    v = khat.copy()
    v[:, d - 1] -= 1.0
    vnorm2 = np.sum(v * v, axis=1)
    degenerate = vnorm2 < 1e-28

    # eps_lam = e_lam - (2 v_lam / |v|^2) v ; guard the division on the
    # degenerate rows and overwrite them afterwards.
    safe = np.where(degenerate, 1.0, vnorm2)
    coef = 2.0 * v[:, : d - 1] / safe[:, None]  # (M, d-1)
    frames = -coef[:, :, None] * v[:, None, :]  # (M, d-1, d)
    idx = np.arange(d - 1)
    frames[:, idx, idx] += 1.0
    frames[degenerate] = np.eye(d - 1, d)
    return frames


def polarization_basis(grid: KGrid) -> PolarizationBasis:
    """Deterministic transverse polarization frame at every node of the grid:
    :func:`transverse_frame` on the half grid H (the first M/2 nodes), copied
    to the mirror node M-1-j = -k_j, so eps(-k) = eps(k), transverse to -khat
    with the opposite orientation.  k = 0 is no node, so khat is well defined;
    axis-aligned nodes cannot occur either (every node component is a half-odd
    multiple of h), but the degenerate branch of :func:`transverse_frame`
    keeps the function total anyway.
    """
    half = grid.node_count // 2
    here = transverse_frame(grid.nodes[:half] / grid.absk[:half, None])
    return PolarizationBasis(grid=grid, vectors=np.concatenate([here, here[::-1]]))


def integrate_k(grid: KGrid, values: np.ndarray) -> complex | float:
    """Quadrature sum over the grid: sum_j w_j * values[..., j].

    ``values`` may be real or complex with the node axis last; broadcasting
    over leading axes is supported.  For integrands with the conjugate
    parity f(-k) = conj(f(k)) the imaginary part cancels in +/-k pairs up
    to rounding.
    """
    values = np.asarray(values)
    if values.shape[-1] != grid.node_count:
        raise ValueError(
            f"integrand has {values.shape[-1]} node values, grid has {grid.node_count}"
        )
    return np.sum(values * grid.weights, axis=-1)
