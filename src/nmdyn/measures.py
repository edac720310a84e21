"""Phase-space probability measures as equal-weight sample ensembles.

Every measure-level quantity the library verifies (characteristic functions,
moments, push-forwards) is an expectation, so measures are represented only
by i.i.d. samples; there is no density estimation.  Three constructions are
supported: point masses, Gaussian perturbations of a center (all particle
coordinates plus a finite, explicitly listed set of field modes, which keeps
every sample square-integrable on the grid by construction), and finite
mixtures.

Reproducibility contract: sampling uses a counter-based generator keyed by
(seed, sample index), so sample m is a pure function of the seed no matter
how many samples are drawn or in which order.  Samples are pushed in
consecutive blocks, each stepped as one (B, D) stack whose rows compute
exactly what a lone sample would; B is the largest row count whose stacked
state fits ``_BLOCK_BYTES``, a property of the scenario and never of the run.
All ensemble reductions run in fixed sample order with compensated (Kahan)
summation, so identical inputs give byte-identical outputs at any B.
``push_forward`` keeps every sample's trajectory, as views of one read-only
(S, n_stored, D) array.  The checks below read the stored rows in stacks of
the same block size, as per-sample terms then their aggregation; the
``ensemble`` command and the characteristic and moments suites push block
by block (``_pushed_blocks``) and keep only the terms.

The characteristic-equation check works in the interaction picture: with
u~(s) = free_flow(-s) applied to the physical sample at time s, the exact
flow satisfies, pathwise,

    d/ds e^{2 pi i Re<y, u~(s)>} = 2 pi i e^{2 pi i Re<y, u~(s)>}
                                   Re<vartheta(s, u~(s)), y>,

so the ensemble characteristic function at time t must equal its value at
t0 plus the time integral of the ensemble mean of the right-hand side.  The
residual of that identity, discretized by the trapezoid rule on the stored
snapshots, decays at second order in dt, whichever scheme ran: the time
trapezoid rule is second order and no scheme is less accurate.  It is
reported together with the Monte-Carlo standard error of the pathwise
defects.

As in ``integrator``, a run reads its grid and frame from its first state
(sample, or pushed point); a sample or a characteristic direction on a grid
of other (d, K, N) raises ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .integrator import (
    NumericalBlowupError,
    _history,
    _record,
    _step_count,
    _stored_steps,
    _trajectory,
    refuse_flagged,
    stepper,
)
from .interaction import (
    PotentialSpec,
    _hypothesis_norms,
    _model_for,
    potential_value_bound,
    vartheta,
)
from .state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    _density_norm,
    _field_density,
    free_flow,
    real_inner,
)

__all__ = [
    "MeasureSpec",
    "Ensemble",
    "EnsemblePropagationError",
    "CharacteristicCheck",
    "MomentReport",
    "sample_measure",
    "push_forward",
    "characteristic_function",
    "characteristic_residual",
    "moment_report",
    "ensemble_to_csv",
]

MEASURE_KINDS = ("dirac", "gaussian", "mixture")

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# a stacked block of samples (or of stored states) holds at most this many
# bytes of state; 4 rows at 1,000 nodes, 1 at 13,824
_BLOCK_BYTES = 128 * 1024

def _blocks(rows, row_bytes: int):
    """Consecutive blocks of ``rows`` as (index of the first, list of B rows).

    B is the most rows of ``row_bytes`` that fit ``_BLOCK_BYTES``, at least
    one.  A row is one packed state (or one draw of a few states, each
    stacked apart), so the scenario alone (grid and particle count) fixes B;
    no run-time figure moves it.
    """
    rows, start, size = iter(rows), 0, max(1, _BLOCK_BYTES // row_bytes)
    while chunk := list(itertools.islice(rows, size)):
        yield start, chunk
        start += len(chunk)


def _stacked(points) -> PhaseSpacePoint:
    """Points of one layout as one (B, D) stack."""
    return points[0]._like(np.stack([u.data for u in points]))


def _stacks(rows, row_bytes: int):
    """The blocks of ``_blocks`` as (index of the first, (B, D) stack)."""
    for start, chunk in _blocks(rows, row_bytes):
        yield start, np.stack(chunk)


class EnsemblePropagationError(RuntimeError):
    """A sample failed to evolve; carries the index of the failing sample."""

    def __init__(self, message: str, sample_index: int):
        super().__init__(message)
        self.sample_index = sample_index


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A sampleable probability measure on phase space.

    * ``dirac``: the point mass at ``center``.
    * ``gaussian``: independent N(0, particle_scale^2) perturbations of every
      p and q component of the center, plus, for each listed field mode
      (lam, node), a complex Gaussian perturbation with E|delta alpha|^2
      equal to the paired variance.
    * ``mixture``: finite convex combination of sub-measures.
    """

    kind: str
    center: Optional[PhaseSpacePoint] = None
    particle_scale: float = 0.0
    field_modes: tuple = ()
    field_variances: tuple = ()
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"kind must be one of {MEASURE_KINDS}, got {self.kind!r}")
        if self.kind == "mixture":
            if not self.components:
                raise ValueError("mixture needs at least one component")
            weights = np.array([w for w, _ in self.components], dtype=float)
            if np.any(weights <= 0):
                raise ValueError("mixture weights must be positive")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError(f"mixture weights must sum to 1, got {weights.sum()}")
            for _, sub in self.components:
                if sub.kind == "mixture":
                    raise ValueError("nested mixtures are not supported")
        else:
            if self.center is None:
                raise ValueError(f"{self.kind} measure needs a center")
            if self.particle_scale < 0:
                raise ValueError("particle_scale must be nonnegative")
            if len(self.field_modes) != len(self.field_variances):
                raise ValueError("one variance per listed field mode")
            if any(v < 0 for v in self.field_variances):
                raise ValueError("field variances must be nonnegative")
            grid = self.center.grid
            for lam, j in self.field_modes:
                if not (0 <= lam < grid.d - 1 and 0 <= j < grid.node_count):
                    raise ValueError(f"field mode ({lam}, {j}) outside the grid")

    @classmethod
    def dirac(cls, center: PhaseSpacePoint) -> "MeasureSpec":
        return cls(kind="dirac", center=center)

    @classmethod
    def gaussian(cls, center: PhaseSpacePoint, particle_scale: float = 0.0,
                 field_modes: Sequence = (), field_variances: Sequence = ()) -> "MeasureSpec":
        return cls(
            kind="gaussian",
            center=center,
            particle_scale=float(particle_scale),
            field_modes=tuple((int(l), int(j)) for l, j in field_modes),
            field_variances=tuple(float(v) for v in field_variances),
        )

    @classmethod
    def mixture(cls, components: Sequence) -> "MeasureSpec":
        return cls(kind="mixture",
                   components=tuple((float(w), sub) for w, sub in components))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Equal-weight samples representing a measure; immutable once built.

    ``trajectories`` is populated by push_forward; sample m of ``points`` is
    then the endpoint of ``trajectories[m]``, and every trajectory's
    ``stored`` is a read-only view of one (S, n_stored, D) array.  A sampled,
    unpushed ensemble has none.
    """

    points: tuple
    seed: Optional[int] = None
    measure: Optional[MeasureSpec] = None
    trajectories: Optional[tuple] = None

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("an ensemble needs at least one sample")
        if self.trajectories is not None and len(self.trajectories) != len(self.points):
            raise ValueError("one trajectory per sample")

    @property
    def size(self) -> int:
        return len(self.points)


def _sample_generator(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one sample: key = (seed, sample index)."""
    key = np.array([seed & _SEED_MASK, index & _SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mix64(x: int) -> int:
    """splitmix64 finalizer; used to derive independent child seeds."""
    x = (x + _GOLDEN) & _SEED_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return x ^ (x >> 31)


def _component_counts(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` samples (deterministic)."""
    ideal = weights * total
    counts = np.floor(ideal).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _draw_gaussian(measure: MeasureSpec, seed: int, index: int) -> PhaseSpacePoint:
    gen = _sample_generator(seed, index)
    center = measure.center
    p = center.p + measure.particle_scale * gen.standard_normal(center.p.shape)
    q = center.q + measure.particle_scale * gen.standard_normal(center.q.shape)
    alpha = center.alpha.copy()
    for (lam, j), var in zip(measure.field_modes, measure.field_variances):
        re, im = gen.standard_normal(2)
        alpha[lam, j] += np.sqrt(var / 2.0) * (re + 1j * im)
    return PhaseSpacePoint(ParticleState(p, q), FieldState(center.grid, alpha))


def sample_measure(measure: MeasureSpec, m_samples: int, seed: int) -> Ensemble:
    """Draw ``m_samples`` i.i.d. points; bit-reproducible from (measure, M, seed)."""
    if m_samples < 1:
        raise ValueError("need at least one sample")
    if measure.kind == "dirac":
        points = (measure.center,) * m_samples
    elif measure.kind == "gaussian":
        points = tuple(_draw_gaussian(measure, seed, m) for m in range(m_samples))
    else:
        weights = np.array([w for w, _ in measure.components])
        counts = _component_counts(weights, m_samples)
        points = []
        for c, (count, (_, sub)) in enumerate(zip(counts, measure.components)):
            if count == 0:
                continue
            child_seed = _mix64((seed ^ (_GOLDEN * (c + 1))) & _SEED_MASK)
            points.extend(sample_measure(sub, int(count), child_seed).points)
        points = tuple(points)
    return Ensemble(points=points, seed=seed, measure=measure)


def push_forward(ensemble: Ensemble, T: float, dt: float, spec: ParticleSpec,
                 pot: PotentialSpec, scheme: str = "strang", store_every: int = 1,
                 allow_flagged: bool = False) -> Ensemble:
    """Transport every sample through the flow; returns the time-T ensemble.

    The form-factor resolution check runs once and is shared by all samples.
    Samples propagate in sample order, in the consecutive blocks of
    ``_blocks``, each stepped as one stack by the stepping loop of
    ``evolve``; a row's result is the same in any block.  The stored states
    of all samples fill one read-only (S, n_stored, D) array, and the
    result's trajectories and points are views of it.  A sample whose state
    stops being finite (or raises FloatingPointError under a raising
    ``np.errstate``) aborts the push with its index: a failing block is
    stepped again one sample at a time, so the first failing sample in
    sample order is named, with its own step and time.  Invalid arguments
    raise ValueError unwrapped, as does a sample off the first one's grid.
    """
    return next(_pushed_blocks(ensemble, T, dt, spec, pot, scheme, store_every, allow_flagged,
                               whole=True))


def _pushed_blocks(ensemble, T, dt, spec, pot, scheme, store_every, allow_flagged, whole=False):
    """``push_forward`` one block at a time, its checks run once: the pushed
    sub-ensemble of each block in turn, none kept once the next is asked for;
    with ``whole``, the one pushed ensemble, its blocks written into one set of arrays."""
    points = ensemble.points
    grid = points[0].grid
    _model_for(spec, pot, grid, None, *points)
    # a property of (spec, grid), not of any sample: refuse up front
    refuse_flagged(spec, grid, allow_flagged)
    n = _step_count(T, dt)
    stored_indices = _stored_steps(n, store_every)
    every = _history((ensemble.size,), points[0], n, stored_indices) if whole else None

    def push(u, hist):
        _record(u, stepper(u, T, dt, spec, pot, scheme), dt, stored_indices, hist, spec, pot)

    def pushed(hist):  # the samples of filled history arrays, as read-only views
        hist["stored"].flags.writeable = False
        trajs = [_trajectory(grid, dt, stored_indices, {key: a[m] for key, a in hist.items()})
                 for m in range(len(hist["stored"]))]
        return Ensemble(points=tuple(traj.endpoint() for traj in trajs), seed=ensemble.seed,
                        measure=ensemble.measure, trajectories=tuple(trajs))

    for lo, chunk in _blocks(points, points[0].data.nbytes):
        hist = ({key: array[lo:lo + len(chunk)] for key, array in every.items()} if whole
                else _history((len(chunk),), points[0], n, stored_indices))
        try:
            push(_stacked(chunk), hist)
        except NumericalBlowupError:
            # a stack cannot say which row failed: step its samples alone, in
            # order, so the first that fails alone is named by its index in the
            # whole ensemble (rows that pass alone stand, as in any block)
            for m, u in enumerate(chunk, lo):
                try:
                    push(u, {key: array[m - lo] for key, array in hist.items()})
                except NumericalBlowupError as err:
                    raise EnsemblePropagationError(f"sample {m} failed: {err}", m) from err
        if not whole:
            yield pushed(hist)
        del hist  # before the next block's arrays are made
    if whole:
        yield pushed(every)


def _streamed(blocks, *terms) -> list:
    """For each function in ``terms``, its per-sample arrays over the pushed
    ``blocks``, joined in sample order; one block is alive at a time."""
    parts = [[] for _ in terms]
    for block in blocks:
        for part, term in zip(parts, terms):
            part.append(term(block))
        del block  # before the next block is pushed
    return [tuple(map(np.concatenate, zip(*part))) for part in parts]


def _kahan_mean(values: Sequence[complex]) -> complex:
    """Compensated mean in the given (fixed) order."""
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / len(values)


def characteristic_function(ensemble: Ensemble, y: PhaseSpacePoint,
                            sigma: float = 0.0) -> complex:
    """Empirical characteristic function (1/M) sum_m e^{2 pi i Re<y, u_m>_{X^sigma}}."""
    phases = [np.exp(2j * np.pi * real_inner(y, u, sigma)) for u in ensemble.points]
    return complex(_kahan_mean(phases))


@dataclass(frozen=True, eq=False)
class CharacteristicCheck:
    """Two sides of the characteristic-equation identity and their gap.

    ``residual`` = |lhs - rhs| is the modulus of the mean pathwise defect;
    ``mc_stderr`` is the standard error of those per-sample defects (zero
    for a point mass, where every path is identical).
    """

    lhs: complex
    rhs: complex
    residual: float
    mc_stderr: float
    t0: float
    t: float
    sigma: float


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    w[:-1] += 0.5 * np.diff(times)
    w[1:] += 0.5 * np.diff(times)
    return w


def characteristic_residual(ensemble: Ensemble,
                            y: PhaseSpacePoint | Sequence[PhaseSpacePoint],
                            t: float, t0: float, sigma: float,
                            spec: ParticleSpec, pot: PotentialSpec):
    """Check the characteristic equation between two stored times.

    Uses the retained trajectories of a pushed ensemble: snapshots are mapped
    to the interaction picture with the inverse free flow, the right-hand
    side integral is the trapezoid rule over the stored times in
    [min(t0,t), max(t0,t)], and both endpoint characteristic functions are
    compensated means in sample order.  The snapshots of all samples are
    read in the blocks of ``_stacks``, with one time per row, and each
    stack is paired with one direction at a time.

    ``y`` may be a single direction or a sequence; the expensive part (the
    interaction-picture states and their drift-removed generator) does not
    depend on ``y``, so a batch of directions costs nearly the same as one.
    Every direction must be on the ensemble's grid.  Returns one
    CharacteristicCheck, or a list of them in direction order.
    """
    single = isinstance(y, PhaseSpacePoint)
    terms = _characteristic_terms(ensemble, [y] if single else list(y), t, t0, sigma, spec, pot)
    checks = _characteristic_checks(*terms, t, t0, sigma)
    return checks[0] if single else checks


def _characteristic_terms(ensemble, directions, t, t0, sigma, spec, pot) -> tuple:
    """Each sample's z = e^{2 pi i Re<y, u~>} at t and t0 and the integral of
    the right-hand side, three (S, n_dir) arrays, one direction at a time."""
    if ensemble.trajectories is None:
        raise ValueError("characteristic_residual needs the trajectories of "
                         "a pushed ensemble")
    if not directions:
        raise ValueError("need at least one direction y")
    grid = ensemble.points[0].grid
    _model_for(spec, pot, grid, None, *directions)
    lo, hi = (t0, t) if t0 <= t else (t, t0)
    stored = ensemble.trajectories[0].stored_times
    rows = np.flatnonzero((stored >= lo - 1e-12) & (stored <= hi + 1e-12))
    times = stored[rows]
    for endpoint in (t0, t):
        if not np.any(np.abs(times - endpoint) <= 1e-9):
            raise ValueError(f"time {endpoint} is not a stored snapshot time")
    weights = _trapezoid_weights(times)
    sign = 1.0 if t >= t0 else -1.0

    # the stored times are monotone, so the rows in [lo, hi] are one slice
    first, last = rows[0], rows[-1]
    at_t = np.flatnonzero(np.abs(times - t) <= 1e-9)[-1]
    at_t0 = np.flatnonzero(np.abs(times - t0) <= 1e-9)[-1]
    trajs = ensemble.trajectories
    n_dir, n_times = len(directions), times.size
    z = np.empty((n_dir, ensemble.size * n_times), dtype=complex)
    terms = np.empty_like(z)
    row_times, row_weights = np.tile(times, ensemble.size), np.tile(weights, ensemble.size)
    snapshots = (row for traj in trajs for row in traj.stored[first:last + 1])
    for start, stack in _stacks(snapshots, trajs[0].stored[0].nbytes):
        cols = slice(start, start + len(stack))
        s = row_times[cols]
        interaction = free_flow(PhaseSpacePoint._of(grid, stack), -s, spec)
        theta = vartheta(s, interaction, spec, pot, grid)
        for j, y in enumerate(directions):
            z[j, cols] = np.exp(2j * np.pi * real_inner(y, interaction, sigma))
            terms[j, cols] = row_weights[cols] * z[j, cols] * real_inner(theta, y, sigma)
    z = z.reshape(n_dir, ensemble.size, n_times)
    terms = terms.reshape(z.shape)
    acc = np.zeros((n_dir, ensemble.size), dtype=complex)
    for k in range(n_times):  # in time order, as the trapezoid sum runs
        acc += terms[:, :, k]
    return z[:, :, at_t].T, z[:, :, at_t0].T, (sign * acc).T


def _characteristic_checks(z_t, z_t0, integrals, t, t0, sigma) -> list:
    """One CharacteristicCheck per direction of ``_characteristic_terms``."""
    size = len(z_t)
    checks = []
    for j in range(z_t.shape[1]):
        defects = z_t[:, j] - z_t0[:, j] - 2j * np.pi * integrals[:, j]
        lhs = complex(_kahan_mean(z_t[:, j]))
        rhs = complex(_kahan_mean(z_t0[:, j] + 2j * np.pi * integrals[:, j]))
        mean_defect = complex(_kahan_mean(defects))
        if size > 1:
            spread = float(np.sum(np.abs(defects - mean_defect) ** 2))
            stderr = np.sqrt(spread / (size * (size - 1)))
        else:
            stderr = 0.0
        checks.append(CharacteristicCheck(
            lhs=lhs, rhs=rhs, residual=abs(mean_defect), mc_stderr=float(stderr),
            t0=float(t0), t=float(t), sigma=float(sigma),
        ))
    return checks


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Fourth-moment traces against conserved-energy certificate envelopes.

    The envelopes are not fitted to the observed curves; they are computed
    from the initial ensemble and the grid norms of the form factors, the
    way the underlying estimates are actually proved.  With E a sample's
    initial energy, B = sup|V|, and Ebar = E + B:

    * kinetic and field energy are each bounded by Ebar along the exact
      flow, and |A_i| <= sqrt(2(d-1)) ||chi_i/|k|||_{L^2} ||alpha||_{1/2},
      so the canonical momentum obeys |p_i| <= sqrt(2 m_i Ebar) +
      sqrt(2(d-1)) ||chi_i/|k||| sqrt(Ebar).  ``c_bounded`` is the ensemble
      mean of the resulting bound on p^4 + ||alpha||^4_{1/2}.
    * the L^2 field mass obeys d/dt ||alpha||^2 = 2 Re<alpha, G_alpha> <=
      2 Ebar sum_i ||chi_i/|k||| / sqrt(m_i) =: rate, hence
      ||alpha(t)||^4 <= (||alpha(0)||^2 + rate |t|)^2 pathwise.  ``c_exp``
      is the smallest c with c e^{c t_k} above the ensemble mean of that
      certificate curve at every sampled time, presenting the linear-growth
      certificate in exponential-envelope form.

    Violations can only come from the integrator breaking the conservation
    laws the certificates rest on, so the counts are a dynamics check; a 5%
    slack absorbs the O(dt^2) energy drift.  ``observed_max_bounded`` and
    ``observed_max_l2`` record how much of the envelope the run actually
    used.
    """

    times: np.ndarray
    mean_p4: np.ndarray
    mean_field_half4: np.ndarray
    mean_field_l2_4: np.ndarray
    c_bounded: float
    c_exp: float
    observed_max_bounded: float
    observed_max_l2: float
    violations_bounded: int
    violations_exp: int


_DRIFT_SLACK = 1.05


def _exponential_form(times: np.ndarray, values: np.ndarray) -> float:
    """Smallest c with c e^{c |t_k|} >= values_k at every sampled time, by
    bisection on the increasing gap(c) = min_k (c e^{c |t_k|} - values_k).

    Returns the bracket's upper end, so gap >= 0 and the envelope holds; it
    lies within 1e-12 relative of the root.
    """
    peak = float(np.max(values))
    if peak <= 0.0:
        return 0.0

    def gap(c: float) -> float:
        # e^{c t} may overflow at the bracket's upper end; inf is a valid gap
        with np.errstate(over="ignore"):
            return float(np.min(c * np.exp(c * np.abs(times)) - values))

    hi = peak + 1.0
    lo = min(1e-12, hi / 2.0)
    if gap(lo) >= 0.0:
        return lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def moment_report(ensemble: Ensemble, spec: ParticleSpec, pot: PotentialSpec) -> MomentReport:
    """Ensemble fourth moments at every stored snapshot time."""
    return _moment_summary(ensemble.points[0].grid, spec, pot, *_moment_terms(ensemble))


def _moment_terms(ensemble: Ensemble) -> tuple:
    """Each sample's stored times, and sum |p|^2, ||alpha||_{1/2} and
    ||alpha||_0 at them, (S, n_times) each, and its initial energy (S,)."""
    if ensemble.trajectories is None:
        raise ValueError("moment_report needs the trajectories of a pushed ensemble")
    grid = ensemble.points[0].grid
    trajs = ensemble.trajectories
    n_times = trajs[0].stored_indices.size
    p2, half, l2 = (np.empty(ensemble.size * n_times) for _ in range(3))
    snapshots = (row for traj in trajs for row in traj.stored)
    for start, stack in _stacks(snapshots, trajs[0].stored[0].nbytes):
        u = PhaseSpacePoint._of(grid, stack)
        rows = slice(start, start + len(stack))
        p2[rows] = np.sum(u.p ** 2, axis=(-2, -1))
        dens = _field_density(u.alpha)
        half[rows], l2[rows] = (_density_norm(u.grid, dens, s, "homogeneous") for s in (0.5, 0.0))
    return (np.array([traj.stored_times for traj in trajs]),
            *(a.reshape(ensemble.size, n_times) for a in (p2, half, l2)),
            np.array([traj.energies[0] for traj in trajs]))


def _moment_summary(grid, spec, pot, times, p2, half, l2, energies) -> MomentReport:
    """The MomentReport of the ``_moment_terms`` of every sample, in sample order."""
    times = times[0]  # the same for every sample
    # the powers go through float_power, which rounds as Python's ** does
    p4, half4, l2_4 = (
        np.array([float(np.real(_kahan_mean(np.float_power(a[:, k], power).tolist())))
                  for k in range(times.size)])
        for a, power in ((p2, 2), (half, 4), (l2, 4)))

    # conserved-energy certificates from the initial samples
    chi_over_k = _hypothesis_norms(spec, 0.5, grid)[:, 0]
    v_bound = potential_value_bound(spec, pot, grid)
    c_dim = np.sqrt(2.0 * (grid.d - 1))
    bound_terms = []
    l2_curves = []
    for energy, l2_0 in zip(energies, np.float_power(l2[:, 0], 2).tolist()):
        ebar = energy + v_bound
        p_bounds = np.sqrt(2.0 * spec.masses * ebar) + c_dim * chi_over_k * np.sqrt(ebar)
        bound_terms.append(float(np.sum(p_bounds**2)) ** 2 + ebar**2)
        rate = 2.0 * ebar * float(np.sum(chi_over_k / np.sqrt(spec.masses)))
        l2_curves.append((l2_0 + rate * np.abs(times)) ** 2)
    c_bounded = _DRIFT_SLACK * float(np.real(_kahan_mean(bound_terms)))
    certificate_l2 = _DRIFT_SLACK * np.mean(np.asarray(l2_curves), axis=0)
    c_exp = _exponential_form(times, certificate_l2)

    bounded = p4 + half4
    violations_bounded = int(np.sum(bounded > c_bounded))
    if c_exp > 0.0:
        envelope = c_exp * np.exp(c_exp * np.abs(times))
        violations_exp = int(np.sum(l2_4 > envelope))
    else:
        violations_exp = int(np.sum(l2_4 > 0.0))

    return MomentReport(
        times=times, mean_p4=p4, mean_field_half4=half4, mean_field_l2_4=l2_4,
        c_bounded=c_bounded, c_exp=c_exp,
        observed_max_bounded=float(np.max(bounded)),
        observed_max_l2=float(np.max(l2_4)),
        violations_bounded=violations_bounded, violations_exp=violations_exp,
    )


def ensemble_to_csv(ensemble: Ensemble, path) -> None:
    """One row per (sample, step): sample, t, H, and the three X^sigma norms."""
    _write_table(path, *_table_terms(ensemble))


def _table_terms(ensemble: Ensemble) -> tuple:
    """Each sample's ``ensemble_to_csv`` rows but the sample column: (S, n + 1, 5)."""
    if ensemble.trajectories is None:
        raise ValueError("ensemble_to_csv needs trajectories")
    return np.array([np.column_stack([t.times, t.energies, t.norms])
                     for t in ensemble.trajectories]),


def _write_table(path, rows: np.ndarray) -> None:
    """``ensemble_to_csv``'s file from the ``_table_terms`` rows of every sample."""
    samples = np.repeat(np.arange(len(rows), dtype=float), rows.shape[1])
    np.savetxt(path, np.column_stack([samples, rows.reshape(-1, rows.shape[-1])]),
               delimiter=",", header="sample,t,H,norm_X0,norm_X12,norm_X1", comments="")
