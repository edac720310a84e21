"""Model-specific functions for extended charges coupled to the transverse field.

Conventions (fixed across the package, 2*pi in every Fourier exponent):

* form factor chi_i(k), radial, real, bounded;
* smeared vector potential at position q with field alpha,

      A_i(q, alpha) = sum_lam int eps_lam(k)/sqrt(2|k|)
                      * ( chi_i alpha_lam e^{2 pi i k.q} + chi_i conj(alpha_lam) e^{-2 pi i k.q} ) dk,

  manifestly real (z + conj z pairing per node);
* smeared pair potential w_ij(x) = g int chi_i chi_j / |k|^2 e^{2 pi i k.x} dk,
  real by the +/-k symmetry of the grid;
* energy H = sum_i (p_i - A_i)^2/(2 m_i) + V(q) + ||alpha||^2_{hdot^{1/2}};
* nonlinearity F (time derivative of (p, q, alpha)) and its free-transport-
  subtracted sibling G with G_q = -A_i/m_i, F = G + (0, p/m, 0);
* interaction-picture vector field vartheta(t, u) = Phi^0_{-t} o G o Phi^0_t(u),
  which is how the characteristic equation of measure transport is driven;
* characteristic density m(s, xi): the real density whose time integral moves
  the empirical characteristic function, equal to -2 pi Re< vartheta(s, u),
  xi~ >_{X^0} with xi~ = (z_0/(i pi), alpha_0/(sqrt(2) pi)) -- the identity is
  enforced by test, with the two sides computed along independent routes.

Every integral is a quadrature sum on the given grid, so all bounds asserted
in the tests are *grid-consistent*: they are exact finite-dimensional
inequalities (Cauchy-Schwarz plus |e^{i a} - e^{i b}| <= |a - b|), not
continuum statements.  In particular every node sum is anti-periodic in
position with period L = N/(2K) per axis (the nodes sit at odd multiples of
h/2, so e^{-2 pi i k.(q + L e_mu)} = -e^{-2 pi i k.q}): the grid's w_ij is
the continuum pair potential plus an alternating lattice of image charges,
not the free-space potential, and the same holds for A_i (ROADMAP item 1).

The state-independent data of the flow live in one immutable ``Model``
(see its docstring for the tables), built once per (spec, pot, grid, basis)
by ``compile_model`` and memoized by their identity; ``basis=None`` means
``default_basis(grid)``.  The kernels take that model key as arguments (any
mirrored frame included), and ``_model_for`` refuses a grid whose (d, K, N)
differ from a state's; runs pass their first state's grid and basis=None.

Every coupling term is summed over the half grid H, the first M/2 nodes
(k^0 < 0), and reads the other half through the mirror: node M-1-j is
exactly -k_j (``build_kgrid``).  The identities are exact: the phase
P_i(k) = e^{-2 pi i k.q_i} has P_i(-k) = conj P_i(k); chi, |k|, the weights
and the frame eps_lam (``polarization_basis``; ``compile_model`` refuses any
other) are the same at +-k.  Hence one bracket on H,

    c_i = w chi_i/sqrt(2|k|) P_i beta,  beta(k) = conj alpha(k) + alpha(-k),

gives A_i = 2 Re c_i . eps and grad A_i = 4 pi Im c_i . (eps k), two matrix
products for all particles at once, with the phase factored per grid axis.
A pair term z = kernel * conj P_i P_j on H gives V = 2 sum_H Re z and
grad V = -4 pi sum_H (Im z) k.  G's field output on H is i times a real
even factor times P_i, so G_alpha(-k) = -conj G_alpha(k) on the mirror and
beta(G_alpha) = 0 exactly: the field reaches the charges only through A
(minimal coupling p - A), which reads alpha only through beta, and the
interaction flow never moves beta, so Strang's kick holds it.  ``hamiltonian``,
``nonlinearity_G``, ``nonlinearity_F`` and ``vartheta`` also take an (S, D)
stack of points and compute every row exactly as the point alone.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import KGrid, PolarizationBasis, _grid_axis, _radii, polarization_basis
from .state import (
    ParticleSpec,
    PhaseSpacePoint,
    _density_norm,
    _field_density,
    _scalar,
    free_flow,
)

__all__ = [
    "FormFactor",
    "PotentialSpec",
    "HypothesisReport",
    "check_hypotheses",
    "potential",
    "potential_gradient_bound",
    "potential_value_bound",
    "hamiltonian",
    "nonlinearity_F",
    "nonlinearity_G",
    "vartheta",
    "characteristic_density_m",
    "default_basis",
    "Model",
    "compile_model",
]

HYPOTHESIS_LABELS = (
    "chi_over_k",          # || chi/|k| ||_{L^2}
    "chi_over_sqrt_k",     # || chi/sqrt|k| ||_{L^2}
    "sqrt_k_chi",          # || sqrt|k| chi ||_{L^2}
    "k_3half_minus_sigma_chi",  # || |k|^{3/2-sigma} chi ||_{L^2}
)


# --------------------------------------------------------------------------
# form factors
# --------------------------------------------------------------------------

FORM_FACTOR_FAMILIES = ("gaussian", "ball", "point", "table")


@dataclass(frozen=True, eq=False)
class FormFactor:
    """Radial charge form factor chi(|k|), real and bounded.

    Families: gaussian(width) -> exp(-|k|^2/width^2); ball(radius) ->
    indicator(|k| <= radius); point -> identically 1 (legal to build, flagged
    by the hypothesis check); table(r, chi) -> linear interpolation, constant
    on the left end and 0 beyond the last sample.
    """

    family: str
    width: float = 0.0
    radius: float = 0.0
    r_samples: Optional[np.ndarray] = None
    chi_samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in FORM_FACTOR_FAMILIES:
            raise ValueError(f"family must be one of {FORM_FACTOR_FAMILIES}, "
                             f"got {self.family!r}")

    @classmethod
    def gaussian(cls, width: float) -> "FormFactor":
        if not width > 0:
            raise ValueError(f"gaussian width must be positive, got {width}")
        return cls(family="gaussian", width=float(width))

    @classmethod
    def ball(cls, radius: float) -> "FormFactor":
        if not radius > 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        return cls(family="ball", radius=float(radius))

    @classmethod
    def point(cls) -> "FormFactor":
        return cls(family="point")

    @classmethod
    def table(cls, r_samples, chi_samples) -> "FormFactor":
        r = np.asarray(r_samples, dtype=float)
        chi = np.asarray(chi_samples, dtype=float)
        if r.ndim != 1 or r.shape != chi.shape or r.size < 2:
            raise ValueError("radial table needs matching 1-d arrays of length >= 2")
        if np.any(np.diff(r) <= 0):
            raise ValueError("radial table abscissae must be strictly increasing")
        if not np.all(np.isfinite(chi)):
            raise ValueError("radial table values must be finite")
        return cls(family="table", r_samples=r, chi_samples=chi)

    @classmethod
    def from_csv(cls, path) -> "FormFactor":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: refused below
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.size == 0 or data.shape[1] != 2:
            raise ValueError(f"{path}: a table form factor needs two CSV columns (r, chi), "
                             f"found {data.shape[1] if data.size else 0}")
        return cls.table(data[:, 0], data[:, 1])

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Evaluate chi at radial arguments r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            return np.exp(-(r**2) / self.width**2)
        if self.family == "ball":
            return (r <= self.radius).astype(float)
        if self.family == "point":
            return np.ones_like(r)
        return np.interp(r, self.r_samples, self.chi_samples,
                         left=self.chi_samples[0], right=0.0)


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

POTENTIAL_KINDS = ("zero", "smeared-coulomb", "product-of-cos")


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Pair potential specification.

    kind = "smeared-coulomb": w_ij(x) = g int chi_i chi_j/|k|^2 e^{2 pi i k.x} dk
    with the particles' own form factors (g absorbs the dimensional constant),
    taken as a node sum, hence anti-periodic with period L = N/(2K) per axis
    (see the module docstring);
    kind = "zero": V identically 0;
    kind = "product-of-cos": w(x) = amplitude * prod_nu cos(kappa_nu x_nu),
    an analytic family with explicit C_b^2 bounds.
    """

    kind: str
    g: float = 0.0
    amplitude: float = 0.0
    wavevector: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"kind must be one of {POTENTIAL_KINDS}, got {self.kind!r}")

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def coulomb(cls, g: float) -> "PotentialSpec":
        if not g > 0:
            raise ValueError(f"coulomb coupling g must be positive, got {g}")
        return cls(kind="smeared-coulomb", g=float(g))

    @classmethod
    def cosine(cls, amplitude: float, wavevector) -> "PotentialSpec":
        kappa = np.asarray(wavevector, dtype=float)
        if kappa.ndim != 1:
            raise ValueError("wavevector must be a 1-d array")
        return cls(kind="product-of-cos", amplitude=float(amplitude), wavevector=kappa)


def _cos_pair(pot: PotentialSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w and grad w at separations x (..., d)."""
    kappa = pot.wavevector
    c = np.cos(kappa * x)
    s = np.sin(kappa * x)
    w = pot.amplitude * np.prod(c, axis=-1)
    grad = np.empty_like(x)
    for nu in range(x.shape[-1]):
        grad[..., nu] = (-pot.amplitude * kappa[nu] * s[..., nu]
                         * np.prod(c[..., :nu], axis=-1) * np.prod(c[..., nu + 1:], axis=-1))
    return w, grad


def _pair_indices(pot, n):
    """The pairs i < j of n particles that V sums over: none for the zero potential."""
    return itertools.combinations(range(n if pot.kind != "zero" else 0), 2)


def _pairs(q, phases, model):
    """(i, j, z) per pair i < j: z = kernel * conj(phase_i) * phase_j on H, or
    q_i - q_j for cos."""
    for i, j in _pair_indices(model.pot, q.shape[-2]):
        if model.pot.kind == "smeared-coulomb":
            yield i, j, model.pair[i, j] * (np.conj(phases[..., i, :]) * phases[..., j, :])
        else:
            yield i, j, q[..., i, :] - q[..., j, :]


def _potential_value(q, phases, model):
    """V at positions q (..., n, d), per row of a stack; what H reads.
    A smeared pair's w = 2 sum_H Re z."""
    total = np.zeros(q.shape[:-2])
    for _, _, z in _pairs(q, phases, model):
        total += (2.0 * np.sum(z.real, axis=-1) if model.pot.kind == "smeared-coulomb"
                  else _cos_pair(model.pot, z)[0])
    return total


def _potential_gradient(q, phases, model):
    """grad V at positions q (..., n, d), per row of a stack; what G and m read.
    A smeared pair's grad w = -4 pi sum_H (Im z) k is a real
    (..., 1, M/2) @ (M/2, d) product, which rounds per row as a single
    point's does."""
    grad = np.zeros_like(q)
    for i, j, z in _pairs(q, phases, model):
        gw = (-4.0 * np.pi * np.matmul(np.ascontiguousarray(z.imag)[..., None, :],
                                       model.nodes)[..., 0, :]
              if model.pot.kind == "smeared-coulomb" else _cos_pair(model.pot, z)[1])
        grad[..., i, :] += gw
        grad[..., j, :] -= gw
    return grad


def potential(q: np.ndarray, spec: ParticleSpec, pot: PotentialSpec,
              grid: KGrid) -> tuple[float, np.ndarray]:
    """Total pair potential V(q) = sum_{i<j} w_ij(q_i - q_j) and its gradient.

    Sign convention: grad_{q_i} V = sum_{j != i} (grad w_ij)(q_i - q_j), with
    the evenness of w_ij supplying the action-reaction antisymmetry.  A smeared
    w_ij is a real node sum, |w_ij(x)| <= w_ij(0), and anti-periodic (ROADMAP item 1).
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (spec.n, grid.d):
        raise ValueError(f"positions must have shape ({spec.n}, {grid.d}), got {q.shape}")
    model = compile_model(spec, pot, grid)
    phases = _phases(model, q) if pot.kind == "smeared-coulomb" else None
    return float(_potential_value(q, phases, model)), _potential_gradient(q, phases, model)


def potential_gradient_bound(spec: ParticleSpec, pot: PotentialSpec,
                             grid: KGrid) -> np.ndarray:
    """Per-particle upper bound on sup_q |grad_{q_i} V|, exact on the grid.

    smeared-coulomb: |grad w_ij| <= 2 pi g int chi_i chi_j / |k| dk, twice the
    sum over H; product-of-cos: |grad w| <= |amplitude| |kappa|_2; zero: 0.
    """
    model = compile_model(spec, pot, grid)
    bound = np.zeros(spec.n)
    for i, j in _pair_indices(pot, spec.n):
        bound[[i, j]] += (4.0 * np.pi * float(np.sum(model.pair[i, j] * model.absk))
                          if pot.kind == "smeared-coulomb"
                          else abs(pot.amplitude) * np.linalg.norm(pot.wavevector))
    return bound


def potential_value_bound(spec: ParticleSpec, pot: PotentialSpec,
                          grid: KGrid) -> float:
    """Upper bound on sup_q |V(q)|, exact on the grid (L^1 kernel bounds).

    smeared-coulomb: |w_ij| <= |g| int |chi_i chi_j| / |k|^2 dk per pair,
    twice the sum of the model's pair table over H; product-of-cos:
    |w_ij| <= |amplitude|;
    zero: 0.  In particular V >= -potential_value_bound everywhere, which
    feeds the conserved-energy certificates of the moment checks.
    """
    model = compile_model(spec, pot, grid)
    total = 0.0
    for i, j in _pair_indices(pot, spec.n):
        total += (2.0 * float(np.sum(np.abs(model.pair[i, j])))
                  if pot.kind == "smeared-coulomb"
                  else abs(pot.amplitude))
    return total


# --------------------------------------------------------------------------
# hypothesis checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    """The four weighted L^2 norms of each chi_i with refinement flags.

    norms / norms_fine / norms_wide are (n, 4) arrays evaluated on the base
    grid, at doubled N (same K; probes the |k| -> 0 singularities) and at
    doubled K with the same spacing (probes the |k| -> infinity tails).  A
    norm is flagged when either refinement grows it by more than 10%, and
    ``flagged`` says whether any is.
    """

    sigma: float
    labels: tuple
    norms: np.ndarray
    norms_fine: np.ndarray
    norms_wide: np.ndarray
    flags: np.ndarray
    flagged: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "flagged", bool(self.flags.any()))


def _hypothesis_norms(spec: ParticleSpec, sigma: float, grid: KGrid) -> np.ndarray:
    """The four weighted L^2 norms of each chi_i on one grid, shape (n, 4)."""
    octant = grid.absk.reshape((grid.N,) * grid.d)[(slice(grid.N // 2, None),) * grid.d]
    return _weighted_norms(spec, sigma, octant.ravel(), (2.0 * grid.h) ** grid.d)


def _weighted_norms(spec: ParticleSpec, sigma: float, k: np.ndarray, weight: float) -> np.ndarray:
    """``_hypothesis_norms`` from |k| on the positive octant of a grid whose
    weights are all (weight/2^d), one |k|^p at a time.

    chi^2 |k|^p is radial, so each of the 2^d sign octants sums alike, and
    each norm is 2^d times its sum over the positive octant.
    """
    powers = (-2, -1, 1, 3.0 - 2.0 * sigma)
    norms = []
    for ff in spec.form_factors:
        chi2 = ff.profile(k) ** 2
        norms.append(np.sqrt([float(np.sum(chi2 * k**p * weight)) for p in powers]))
    return np.array(norms)


def check_hypotheses(spec: ParticleSpec, sigma: float, grid: KGrid) -> HypothesisReport:
    """Evaluate the integrability hypotheses on the grid and under refinement.

    sigma in [1/2, 1] selects the interpolation norm |k|^{3/2-sigma} chi.
    Divergence is a report state, not an error: a flag means the norm is not
    resolution-stable, e.g. the point charge chi = 1 whose tail norms grow
    without bound as the cutoff widens.  The refinements are taken one at a
    time, as build_kgrid(d, K, 2N) and build_kgrid(d, 2K, 2N), and no grid is
    built: every norm is a sum over one sign octant of its grid, times 2^d.
    """
    if not 0.5 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [1/2, 1], got {sigma}")
    norms = _hypothesis_norms(spec, sigma, grid)
    norms_fine, norms_wide = (
        _weighted_norms(spec, sigma, _radii(grid.d, half), (2.0 * h) ** grid.d)
        for h, half in (_grid_axis(K, 2 * grid.N) for K in (grid.K, 2 * grid.K)))
    with np.errstate(invalid="ignore", divide="ignore"):
        flags = (norms_fine > 1.1 * norms) | (norms_wide > 1.1 * norms)
    return HypothesisReport(
        sigma=float(sigma),
        labels=HYPOTHESIS_LABELS,
        norms=norms,
        norms_fine=norms_fine,
        norms_wide=norms_wide,
        flags=flags,
    )


# --------------------------------------------------------------------------
# vector potential and nonlinearities
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def default_basis(grid: KGrid) -> PolarizationBasis:
    """Deterministic polarization basis for the grid, memoized by identity."""
    return polarization_basis(grid)


@dataclass(frozen=True, eq=False)
class Model:
    """State-independent data of the flow, built once by :func:`compile_model`.

    With L = d-1 polarizations, M nodes and the half grid H of the first
    M/2 nodes (see the module docstring), every node table covers H only;
    row or column j is node j of H:

    * ``axes`` (d, N): the per-axis node coordinates, whose ``ij`` meshgrid
      is ``grid.nodes`` (checked when the model is built);
    * ``nodes`` (M/2, d) and ``absk`` (M/2,): k and |k|;
    * ``eps`` (L*M/2, d): row lam*M/2 + j is eps_lam(k_j);
    * ``epsk`` (L*M/2, d*d): column nu*d + mu holds eps_lam^nu(k_j) k_j^mu;
    * ``ipref`` (n, M/2): i chi_i/sqrt(2|k|), the field output's factor;
    * ``wpref`` (n, M/2): weights * chi_i/sqrt(2|k|), the bracket's factor;
    * ``pair[i, j]`` for i < j: the weighted smeared Coulomb kernel
      weights * g chi_i chi_j/|k|^2 (empty for other potentials).

    ``eps`` and ``epsk`` are column-major, the layout BLAS reads fastest in
    their long products with the bracket (2-4x faster at 13,824 nodes).
    """

    pot: PotentialSpec
    grid: KGrid
    axes: np.ndarray
    nodes: np.ndarray
    absk: np.ndarray
    eps: np.ndarray
    epsk: np.ndarray
    ipref: np.ndarray
    wpref: np.ndarray
    pair: dict


def compile_model(spec: ParticleSpec, pot: PotentialSpec, grid: KGrid,
                  basis: Optional[PolarizationBasis] = None) -> Model:
    """The model of (spec, pot, grid, basis), memoized by their identity;
    basis=None means default_basis(grid), so both spellings share one model."""
    return _compile(spec, pot, grid, default_basis(grid) if basis is None else basis)


def _model_for(spec, pot, grid, basis, *states) -> Model:
    """``compile_model``, refusing a grid whose (d, K, N) differ from a state's."""
    for u in states:
        if (u.grid.d, u.grid.K, u.grid.N) != (grid.d, grid.K, grid.N):
            raise ValueError(f"state on the grid (d, K, N) = {(u.grid.d, u.grid.K, u.grid.N)}"
                             f", kernel given {(grid.d, grid.K, grid.N)}")
    return compile_model(spec, pot, grid, basis)


@functools.lru_cache(maxsize=16)
def _compile(spec, pot, grid, basis) -> Model:
    d, half = grid.d, grid.node_count // 2
    axes = np.array([grid.nodes[:: grid.N ** (d - 1 - nu), nu][: grid.N] for nu in range(d)])
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if not np.array_equal(mesh, grid.nodes):
        raise ValueError("grid nodes are not the ij tensor product of their axes")
    if not (np.array_equal(grid.nodes[::-1], -grid.nodes)
            and np.array_equal(grid.weights[::-1], grid.weights)):
        raise ValueError("grid is not mirrored: node M-1-j must be -k_j, with k_j's weight")
    here = basis.vectors[:half]
    if not np.array_equal(basis.vectors[::-1][:half], here):
        raise ValueError("frame is not mirrored: eps(-k_j) must be eps(k_j)")
    nodes, absk, weights = grid.nodes[:half], grid.absk[:half], grid.weights[:half]
    eps = np.asfortranarray(here.transpose(1, 0, 2).reshape(-1, d))
    k = np.tile(nodes, (d - 1, 1))
    epsk = np.asfortranarray((eps[:, :, None] * k[:, None, :]).reshape(-1, d * d))
    chi = np.array([ff.profile(absk) for ff in spec.form_factors])
    pref = chi / np.sqrt(2.0 * absk)
    pair = {}
    if pot.kind == "smeared-coulomb":
        pair = {(i, j): weights * (pot.g * chi[i] * chi[j] / absk**2)
                for i, j in itertools.combinations(range(spec.n), 2)}
    return Model(pot=pot, grid=grid, axes=axes, nodes=nodes, absk=absk, eps=eps, epsk=epsk,
                 ipref=1j * pref, wpref=weights * pref, pair=pair)


def _phases(model: Model, q: np.ndarray) -> np.ndarray:
    """e^{-2 pi i k.q_i} on H for all particles at once, shape (..., n, M/2).

    The nodes are the tensor product of ``model.axes``, so each phase is the
    outer product of d per-axis factors e^{-2 pi i k^nu q_i^nu}: d*N complex
    exponentials per particle instead of N^d.  H takes the first N/2 nodes of
    the first axis.
    """
    d = q.shape[-1]
    per_axis = np.exp((-2j * np.pi) * (q[..., None] * model.axes))  # (..., n, d, N)
    phases = per_axis[..., 0, : model.grid.N // 2]
    for nu in range(1, d):
        phases = (phases[..., :, None] * per_axis[..., nu, None, :]).reshape(q.shape[:-1] + (-1,))
    return phases


def _beta(model: Model, alpha: np.ndarray, turn=None) -> np.ndarray:
    """beta(k) = conj alpha(k) + alpha(-k) on H, shape (..., L, M/2).  A factor
    ``turn`` E(|k|) of the whole-grid coefficient is not conjugated at -k, so
    it enters as beta = conj alpha(k) E + alpha(-k) conj E."""
    half = model.nodes.shape[0]
    beta, there = np.conj(alpha[..., :half]), alpha[..., ::-1][..., :half]
    if turn is not None:
        beta *= turn
        there = there * np.conj(turn)
    beta += there
    return beta


def _bracket(beta: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """c_i = coeff_i(k) beta(k) on H for every particle, shape (..., n, L*M/2); with
    coeff = weights * chi_i/sqrt(2|k|) * P_i, what A_i and grad A_i read (module docstring)."""
    return (beta[..., None, :, :] * coeff[..., :, None, :]).reshape(coeff.shape[:-1] + (-1,))


def _vector_potentials(model: Model, c: np.ndarray) -> np.ndarray:
    """A_i for every row of the bracket, shape (..., n, d)."""
    return 2.0 * (np.ascontiguousarray(c.real) @ model.eps)


def _grad_vector_potentials(model: Model, c: np.ndarray) -> np.ndarray:
    """d A_i^nu/d q_i^mu for every row of the bracket, shape (..., n, d, d)."""
    d = model.grid.d
    return (4.0 * np.pi * (np.ascontiguousarray(c.imag) @ model.epsk)).reshape(
        c.shape[:-1] + (d, d))


def _energy(model: Model, spec: ParticleSpec, u: PhaseSpacePoint, dens: np.ndarray):
    """``hamiltonian`` of u from its ``_field_density`` dens, per row of a stack."""
    phases = _phases(model, u.q)
    a = _vector_potentials(model, _bracket(_beta(model, u.alpha), model.wpref * phases))
    kinetic = np.sum(np.sum((u.p - a) ** 2, axis=-1) / (2.0 * spec.masses), axis=-1)
    field = np.float_power(_density_norm(u.grid, dens, 0.5, "homogeneous"), 2)
    return kinetic + _potential_value(u.q, phases, model) + field


def hamiltonian(u: PhaseSpacePoint, spec: ParticleSpec, pot: PotentialSpec,
                grid: KGrid, basis: Optional[PolarizationBasis] = None):
    """Total energy: kinetic (with minimal coupling) + V + free-field energy.

    A float for one point; an (S,) array, row by row, for a stack.  It reads
    V, not grad V, through ``_energy``.
    """
    model = _model_for(spec, pot, grid, basis, u)
    return _scalar(_energy(model, spec, u, _field_density(u.alpha)))


def _g_on_half(model: Model, spec: ParticleSpec, p, q, beta, out) -> None:
    """G_p, G_q and G_alpha on H at (p, q) in a field whose bracket is beta,
    written to out.p, out.q and out.alpha's first M/2 nodes."""
    masses = spec.masses[:, None]
    phases = _phases(model, q)
    grad_v = _potential_gradient(q, phases, model)
    c = _bracket(beta, model.wpref * phases)
    a = _vector_potentials(model, c)
    da = _grad_vector_potentials(model, c)
    del c
    v = (p - a) / masses
    np.subtract(np.einsum("...inm,...in->...im", da, v), grad_v, out=out.p)
    np.divide(-a, masses, out=out.q)
    proj = (v @ model.eps.T).reshape(v.shape[:-1] + (model.grid.d - 1, -1))  # eps_lam . v_i
    terms = np.multiply(model.ipref, phases, out=phases)
    alpha = np.multiply(terms[..., 0, None, :], proj[..., 0, :, :],
                        out=out.alpha[..., : phases.shape[-1]])
    for i in range(1, spec.n):
        alpha += terms[..., i, None, :] * proj[..., i, :, :]


def nonlinearity_G(u: PhaseSpacePoint, spec: ParticleSpec, pot: PotentialSpec,
                   grid: KGrid, basis: Optional[PolarizationBasis] = None) -> PhaseSpacePoint:
    """The nonlinearity with free transport removed: G_q = -A_i/m_i.

    G_p,i = (1/m_i) sum_nu (p_i - A_i)^nu grad_{q_i} A_i^nu - grad_{q_i} V
    G_alpha,lam(k) = i sum_i chi_i/sqrt(2|k|) ((p_i - A_i)/m_i . eps_lam) e^{-2 pi i k.q_i}

    The field enters only through its bracket (``_beta``); ``_g_on_half``
    adds G_alpha's particle terms on H in order, in place, without einsum,
    and the mirror gets -conj of them, so beta(G_alpha) is exactly 0.  On a
    stack every row is computed as the single point would be.
    """
    model = _model_for(spec, pot, grid, basis, u)
    out = u._like(np.empty_like(u.data))
    _g_on_half(model, spec, u.p, u.q, _beta(model, u.alpha), out)
    alpha, half = out.alpha, model.absk.size
    np.negative(alpha.real[..., :half], out=alpha.real[..., ::-1][..., :half])
    alpha.imag[..., ::-1][..., :half] = alpha.imag[..., :half]
    return out


def nonlinearity_F(u: PhaseSpacePoint, spec: ParticleSpec, pot: PotentialSpec,
                   grid: KGrid, basis: Optional[PolarizationBasis] = None) -> PhaseSpacePoint:
    """Full nonlinearity: F = G + (0, p_i/m_i, 0)."""
    f = nonlinearity_G(u, spec, pot, grid, basis)
    f.q[...] += u.p / spec.masses[:, None]
    return f


def vartheta(t: float, u: PhaseSpacePoint, spec: ParticleSpec, pot: PotentialSpec,
             grid: KGrid, basis: Optional[PolarizationBasis] = None) -> PhaseSpacePoint:
    """Interaction-picture vector field Phi^0_{-t} o G o Phi^0_t (u).

    The free flow is linear, so pulling the tangent back is free_flow(-t)
    applied to the tangent container itself.  On a stack, t may be an (S,)
    array of one time per row.
    """
    moved = free_flow(u, t, spec)
    g = nonlinearity_G(moved, spec, pot, grid, basis)
    return free_flow(g, -t, spec)


# --------------------------------------------------------------------------
# characteristic density
# --------------------------------------------------------------------------

def characteristic_density_m(s: float, xi: PhaseSpacePoint, u: PhaseSpacePoint,
                             spec: ParticleSpec, pot: PotentialSpec, grid: KGrid,
                             basis: Optional[PolarizationBasis] = None) -> float:
    """Density m(s, xi) driving the characteristic equation at the point u.

    Built from fresh quadrature brackets of the transported kernel

        K_i^nu(k) = chi_i(k)/sqrt(2|k|) eps_lam^nu(k)
                    e^{-2 pi i k.(q_i + s p_i/m_i) + i s |k|},

    never calling the vector-field composition: with x_i = q_i + s p_i/m_i,
    x0_i = q0_i + s p0_i/m_i, a^nu = <alpha, K^nu>, b^nu = <alpha_0, K^nu>,
    A^nu = 2 Re a^nu (the vector potential along the free stream) and
    (grad A^nu . x0_i) = 4 pi Im <alpha, (k.x0_i) K^nu>,

        m = sum_i (1/m_i) sum_nu [ 2 (p-A)^nu (grad A^nu . x0_i)
                                   + sqrt(2) (p-A)^nu Im b^nu
                                   + 2 A^nu p0_i^nu ]
            - 2 sum_j grad_{x_j} V(x) . x0_j,

    each block a z + conj(z) pairing, hence real.  The standing identity
    m(s, xi) = -2 pi Re< vartheta(s, u), xi~ >_{X^0} with
    xi~ = (z_0/(i pi), alpha_0/(sqrt(2) pi)) is enforced by the tests.
    """
    model = _model_for(spec, pot, grid, basis, xi, u)
    masses = spec.masses[:, None]
    x = u.q + s * u.p / masses
    x0 = xi.q + s * xi.p / masses
    phases = _phases(model, x)
    coeff, turn = model.wpref * phases, np.exp(1j * s * model.absk)
    c_u = _bracket(_beta(model, u.alpha, turn), coeff)
    a = _vector_potentials(model, c_u)
    grad_dot = np.einsum("inm,im->in", _grad_vector_potentials(model, c_u), x0)
    # Im b = Re <i alpha_0, K>, half the vector potential of the field i alpha_0
    im_b = 0.5 * _vector_potentials(model, _bracket(_beta(model, 1j * xi.alpha, turn), coeff))
    pma = u.p - a
    total = float(np.sum((2.0 * np.sum(pma * grad_dot, axis=1)
                          + np.sqrt(2.0) * np.sum(pma * im_b, axis=1)
                          + 2.0 * np.sum(a * xi.p, axis=1)) / spec.masses))
    total -= 2.0 * float(np.sum(_potential_gradient(x, phases, model) * x0))
    return total
