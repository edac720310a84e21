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
how many samples are drawn or in which order.  Samples are pushed one after
another, and all ensemble reductions run in fixed sample order with
compensated (Kahan) summation, so identical inputs give byte-identical
outputs.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import KGrid, PolarizationBasis
from .integrator import evolve, refuse_flagged
from .interaction import (
    HypothesisReport,
    PotentialSpec,
    _hypothesis_norms,
    potential_value_bound,
    vartheta,
)
from .state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    field_norm,
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

    ``trajectories`` is populated by push_forward when requested; sample m
    of ``points`` is then the endpoint of ``trajectories[m]``.
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
                 pot: PotentialSpec, grid: KGrid, scheme: str = "strang",
                 store_every: int = 1, keep_trajectories: bool = False,
                 allow_flagged: bool = False,
                 basis: Optional[PolarizationBasis] = None,
                 hypothesis_report: Optional[HypothesisReport] = None) -> Ensemble:
    """Transport every sample through the flow; returns the time-T ensemble.

    The form-factor resolution check runs once and is shared by all samples.
    Samples propagate independently, one after another in sample order.  A
    failing sample aborts the push with its index.
    """
    # a property of (spec, grid), not of any sample: refuse up front
    hypothesis_report = refuse_flagged(spec, grid, allow_flagged, hypothesis_report)

    trajectories = []
    for m, u0 in enumerate(ensemble.points):
        try:
            trajectories.append(evolve(u0, T, dt, spec, pot, grid, scheme=scheme,
                                       store_every=store_every, basis=basis,
                                       allow_flagged=allow_flagged,
                                       hypothesis_report=hypothesis_report))
        except Exception as err:
            raise EnsemblePropagationError(f"sample {m} failed: {err}", m) from err

    return Ensemble(
        points=tuple(traj.endpoint() for traj in trajectories),
        seed=ensemble.seed,
        measure=ensemble.measure,
        trajectories=tuple(trajectories) if keep_trajectories else None,
    )


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

    def to_json(self) -> dict:
        return {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "mc_stderr": self.mc_stderr,
            "t0": self.t0,
            "t": self.t,
            "sigma": self.sigma,
        }


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    w[:-1] += 0.5 * np.diff(times)
    w[1:] += 0.5 * np.diff(times)
    return w


def characteristic_residual(ensemble: Ensemble,
                            y: PhaseSpacePoint | Sequence[PhaseSpacePoint],
                            t: float, t0: float, sigma: float,
                            spec: ParticleSpec, pot: PotentialSpec, grid: KGrid,
                            basis: Optional[PolarizationBasis] = None):
    """Check the characteristic equation between two stored times.

    Uses the retained trajectories of a pushed ensemble: snapshots are mapped
    to the interaction picture with the inverse free flow, the right-hand
    side integral is the trapezoid rule over the stored times in
    [min(t0,t), max(t0,t)], and both endpoint characteristic functions are
    compensated means in sample order.

    ``y`` may be a single direction or a sequence; the expensive part (the
    interaction-picture states and their drift-removed generator) does not
    depend on ``y``, so a batch of directions costs nearly the same as one.
    Returns one CharacteristicCheck, or a list of them in direction order.
    """
    if ensemble.trajectories is None:
        raise ValueError("characteristic_residual needs trajectories; "
                         "run push_forward with keep_trajectories=True")
    single = isinstance(y, PhaseSpacePoint)
    directions = [y] if single else list(y)
    if not directions:
        raise ValueError("need at least one direction y")
    lo, hi = (t0, t) if t0 <= t else (t, t0)
    ref = ensemble.trajectories[0]
    stored = ref.stored_times
    mask = (stored >= lo - 1e-12) & (stored <= hi + 1e-12)
    times = stored[mask]
    for endpoint in (t0, t):
        if not np.any(np.abs(times - endpoint) <= 1e-9):
            raise ValueError(f"time {endpoint} is not a stored snapshot time")
    weights = _trapezoid_weights(times)
    sign = 1.0 if t >= t0 else -1.0

    n_dir = len(directions)
    z_t = np.empty((n_dir, ensemble.size), dtype=complex)
    z_t0 = np.empty((n_dir, ensemble.size), dtype=complex)
    integrals = np.empty((n_dir, ensemble.size), dtype=complex)
    for m, traj in enumerate(ensemble.trajectories):
        t_mask = (traj.stored_times >= lo - 1e-12) & (traj.stored_times <= hi + 1e-12)
        states = [s for s, keep in zip(traj.stored_states(), t_mask) if keep]
        acc = np.zeros(n_dir, dtype=complex)
        for s, w, state in zip(times, weights, states):
            interaction = free_flow(state, -float(s), spec)
            theta = vartheta(float(s), interaction, spec, pot, grid, basis)
            at_t = abs(s - t) <= 1e-9
            at_t0 = abs(s - t0) <= 1e-9
            for j, direction in enumerate(directions):
                z = np.exp(2j * np.pi * real_inner(direction, interaction, sigma))
                acc[j] += w * z * real_inner(theta, direction, sigma)
                if at_t:
                    z_t[j, m] = z
                if at_t0:
                    z_t0[j, m] = z
        integrals[:, m] = sign * acc

    checks = []
    for j in range(n_dir):
        defects = z_t[j] - z_t0[j] - 2j * np.pi * integrals[j]
        lhs = complex(_kahan_mean(z_t[j]))
        rhs = complex(_kahan_mean(z_t0[j] + 2j * np.pi * integrals[j]))
        mean_defect = complex(_kahan_mean(defects))
        if ensemble.size > 1:
            spread = float(np.sum(np.abs(defects - mean_defect) ** 2))
            stderr = np.sqrt(spread / (ensemble.size * (ensemble.size - 1)))
        else:
            stderr = 0.0
        checks.append(CharacteristicCheck(
            lhs=lhs, rhs=rhs, residual=abs(mean_defect), mc_stderr=float(stderr),
            t0=float(t0), t=float(t), sigma=float(sigma),
        ))
    return checks[0] if single else checks


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

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "mean_p4": self.mean_p4.tolist(),
            "mean_field_half4": self.mean_field_half4.tolist(),
            "mean_field_l2_4": self.mean_field_l2_4.tolist(),
            "c_bounded": self.c_bounded,
            "c_exp": self.c_exp,
            "observed_max_bounded": self.observed_max_bounded,
            "observed_max_l2": self.observed_max_l2,
            "violations_bounded": self.violations_bounded,
            "violations_exp": self.violations_exp,
        }


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


def moment_report(ensemble: Ensemble, spec: ParticleSpec, pot: PotentialSpec,
                  grid: KGrid) -> MomentReport:
    """Ensemble fourth moments at every stored snapshot time."""
    if ensemble.trajectories is None:
        raise ValueError("moment_report needs trajectories; "
                         "run push_forward with keep_trajectories=True")
    ref = ensemble.trajectories[0]
    times = ref.stored_times.copy()
    n_times = times.size

    p4 = np.empty(n_times)
    half4 = np.empty(n_times)
    l2_4 = np.empty(n_times)
    trajs = ensemble.trajectories  # read in place: packing every stored state would copy it
    for k in range(n_times):
        p4[k] = float(np.real(_kahan_mean(
            [float(np.sum(tr.p[tr.stored_indices[k]] ** 2)) ** 2 for tr in trajs])))
        half4[k] = float(np.real(_kahan_mean(
            [field_norm(tr.stored_fields[k], 0.5, "homogeneous") ** 4 for tr in trajs])))
        l2_4[k] = float(np.real(_kahan_mean(
            [field_norm(tr.stored_fields[k], 0.0, "homogeneous") ** 4 for tr in trajs])))

    # conserved-energy certificates from the initial samples
    chi_over_k = _hypothesis_norms(spec, 0.5, grid)[:, 0]
    v_bound = potential_value_bound(spec, pot, grid)
    c_dim = np.sqrt(2.0 * (grid.d - 1))
    bound_terms = []
    l2_curves = []
    for m, traj in enumerate(ensemble.trajectories):
        ebar = traj.energies[0] + v_bound
        p_bounds = np.sqrt(2.0 * spec.masses * ebar) + c_dim * chi_over_k * np.sqrt(ebar)
        bound_terms.append(float(np.sum(p_bounds**2)) ** 2 + ebar**2)
        rate = 2.0 * ebar * float(np.sum(chi_over_k / np.sqrt(spec.masses)))
        l2_0 = field_norm(ensemble.trajectories[m].stored_fields[0], 0.0,
                          "homogeneous") ** 2
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
    if ensemble.trajectories is None:
        raise ValueError("ensemble_to_csv needs trajectories")
    rows = []
    for m, traj in enumerate(ensemble.trajectories):
        for k in range(traj.times.size):
            rows.append([
                float(m), traj.times[k], traj.energies[k],
                traj.norms[k, 0], traj.norms[k, 1], traj.norms[k, 2],
            ])
    header = "sample,t,H,norm_X0,norm_X12,norm_X1"
    np.savetxt(path, np.asarray(rows), delimiter=",", header=header, comments="")
