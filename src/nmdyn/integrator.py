"""Time evolution of the coupled particle-field system.

Two independent schemes share the exact free flow and one RK4 step (``_rk4``):

* ``strang``: the symmetric splitting Phi^0_{dt/2} o Kick_dt o Phi^0_{dt/2},
  where the kick integrates du/dt = G(u) with one classical 4-stage
  Runge-Kutta step.  The linear part (ballistic drift and the e^{-i t |k|}
  field rotation) is applied exactly, so the |k| multiplier never limits the
  step size at large cutoffs.
* ``interaction-rk4``: non-autonomous RK4 on the interaction-picture field
  du~/dt = vartheta(t, u~); the recorded samples are mapped back to physical
  variables through the free flow at each sample time.

The splitting is second-order accurate in the physical variables; the
interaction-picture RK4 is fourth order, because du~/dt = vartheta(t, u~) is
smooth in t and the free flow that maps samples back is exact.  The design
orders live in ``SCHEME_ORDER``, and the two schemes are tested against each
other.  Steps are fixed; adaptivity is deliberately excluded so that
convergence-order measurements and property tests are reproducible.

One stepping loop drives every run: ``stepper`` yields the physical state
after each step and stops with NumericalBlowupError at the first non-finite
one.  ``evolve`` records diagnostics along it, ``divergence_report`` runs
two of them in lockstep, and a caller that needs only the endpoint (the
duhamel-order suite) takes the last item and computes no diagnostics.
``refuse_flagged`` is the one place that refuses a spec whose hypothesis
check is flagged.

In ``evolve``, diagnostics (energy and the X^sigma norms at sigma = 0, 1/2,
1) are recomputed from the state at every step, never interpolated.  Particle
positions and momenta are recorded every step; whole states are kept at a
configurable stride (endpoints always included), as the rows of one read-only
array whose stored states and endpoint are views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import KGrid, PolarizationBasis
from .interaction import (
    HypothesisReport,
    PotentialSpec,
    check_hypotheses,
    hamiltonian,
    nonlinearity_G,
    vartheta,
)
from .state import (
    ParticleSpec,
    PhaseSpacePoint,
    free_flow,
    phase_norm,
)

__all__ = [
    "Trajectory",
    "DivergenceReport",
    "FlaggedHypothesesError",
    "NumericalBlowupError",
    "strang_step",
    "rk4_interaction_step",
    "refuse_flagged",
    "stepper",
    "evolve",
    "divergence_report",
    "trajectory_to_csv",
]

# design order of accuracy per scheme; the duhamel-order suite checks it
SCHEME_ORDER = {"strang": 2, "interaction-rk4": 4}
SCHEMES = tuple(SCHEME_ORDER)
NORM_SIGMAS = (0.0, 0.5, 1.0)


class FlaggedHypothesesError(RuntimeError):
    """Raised when evolution is requested for a spec whose form-factor norms
    fail the resolution-stability check and no override was given."""


class NumericalBlowupError(RuntimeError):
    """Raised when the state stops being finite; carries the last state."""

    def __init__(self, message: str, time: float, state: PhaseSpacePoint):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-step trajectory with per-step diagnostics.

    ``times``/``energies``/``norms``/``p``/``q`` cover every step;
    ``stored_indices`` marks the steps whose whole state is retained
    (endpoints always), and ``stored`` holds those states' packed
    ``PhaseSpacePoint.data`` vectors as the rows of one read-only
    (n_stored, D) array.  ``stored_states()`` and ``endpoint()`` are views of
    its rows, so they keep the whole array alive and cannot be written to.
    ``norms`` columns are phase_norm at sigma = 0, 1/2, 1 (inhomogeneous).
    """

    grid: KGrid
    dt: float
    times: np.ndarray
    energies: np.ndarray
    norms: np.ndarray
    p: np.ndarray
    q: np.ndarray
    stored_indices: np.ndarray
    stored: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) * np.sign(self.dt) <= 0):
            raise ValueError("trajectory times must be strictly monotone")

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def stored_times(self) -> np.ndarray:
        return self.times[self.stored_indices]

    def stored_states(self) -> list[PhaseSpacePoint]:
        """Full phase-space states at the stored steps, as views of ``stored``."""
        return [PhaseSpacePoint._of(self.grid, row) for row in self.stored]

    def endpoint(self) -> PhaseSpacePoint:
        return PhaseSpacePoint._of(self.grid, self.stored[-1])


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    """Separation of two nearby trajectories against a Gronwall envelope.

    ``fitted_c`` is the least-squares slope of log(d(t)/epsilon) against t;
    ``envelope_c`` is the smallest constant with d(t) <= epsilon e^{c t} at
    every sample, so ``envelope_violations`` counts violations of that bound
    (with a relative rounding allowance) and is the reported check.
    """

    epsilon: float
    times: np.ndarray
    divergence: np.ndarray
    fitted_c: float
    envelope_c: float
    envelope_violations: int

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "times": self.times.tolist(),
            "divergence": self.divergence.tolist(),
            "fitted_c": self.fitted_c,
            "envelope_c": self.envelope_c,
            "envelope_violations": self.envelope_violations,
        }


def _rk4(f, t: float, u: PhaseSpacePoint, dt: float) -> PhaseSpacePoint:
    """One classical 4-stage Runge-Kutta step of du/dt = f(t, u)."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    k1 = f(t, u)
    k2 = f(t + dt / 2.0, u + (dt / 2.0) * k1)
    k3 = f(t + dt / 2.0, u + (dt / 2.0) * k2)
    k4 = f(t + dt, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def strang_step(u: PhaseSpacePoint, dt: float, spec: ParticleSpec, pot: PotentialSpec,
                grid: KGrid, basis: Optional[PolarizationBasis] = None) -> PhaseSpacePoint:
    """One symmetric splitting step; dt may be negative (time reversal)."""
    half = free_flow(u, dt / 2.0, spec)
    kicked = _rk4(lambda _, v: nonlinearity_G(v, spec, pot, grid, basis), 0.0, half, dt)
    return free_flow(kicked, dt / 2.0, spec)


def rk4_interaction_step(t: float, u: PhaseSpacePoint, dt: float, spec: ParticleSpec,
                         pot: PotentialSpec, grid: KGrid,
                         basis: Optional[PolarizationBasis] = None) -> PhaseSpacePoint:
    """One RK4 step on the interaction-picture equation du/dt = vartheta(t, u)."""
    return _rk4(lambda s, v: vartheta(s, v, spec, pot, grid, basis), t, u, dt)


def _step_count(T: float, dt: float) -> int:
    """The number of dt steps in T; ValueError unless it is a whole number."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    ratio = T / dt
    n = int(round(ratio))
    if n < 0 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"dt={dt} must divide T={T} into a whole number of forward steps")
    return n


def refuse_flagged(spec: ParticleSpec, grid: KGrid, allow_flagged: bool,
                   report: Optional[HypothesisReport] = None) -> HypothesisReport:
    """The hypothesis report of (spec, grid), refused when flagged.

    Computes the report unless one is given, and raises
    FlaggedHypothesesError on a flagged report unless allow_flagged is set.
    """
    if report is None:
        report = check_hypotheses(spec, 0.5, grid)
    if report.flagged and not allow_flagged:
        raise FlaggedHypothesesError(
            "form-factor norms are not resolution-stable on this grid "
            "(see check_hypotheses); pass allow_flagged=True to override"
        )
    return report


def stepper(u0: PhaseSpacePoint, T: float, dt: float, spec: ParticleSpec,
            pot: PotentialSpec, grid: KGrid, scheme: str = "strang",
            basis: Optional[PolarizationBasis] = None):
    """Iterator over the physical states after each of the T/dt steps from u0.

    The arguments are checked when it is called; each item then costs one
    step.  A non-finite state raises NumericalBlowupError carrying the time,
    the state and figures of the last finite state.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    times = np.arange(_step_count(T, dt) + 1) * dt

    def states():
        state = last = u0
        for k in range(1, times.size):
            if scheme == "strang":
                state = strang_step(state, dt, spec, pot, grid, basis)
                physical = state
            else:
                state = rk4_interaction_step(times[k - 1], state, dt, spec, pot, grid, basis)
                physical = free_flow(state, times[k], spec)
            if not physical.is_finite():
                raise NumericalBlowupError(
                    f"non-finite state at t={times[k]:.6g} (step {k}); "
                    f"last finite |p|={np.abs(last.p).max():.3e}, "
                    f"norm_X0={phase_norm(last, 0.0):.3e}",
                    time=float(times[k]),
                    state=physical,
                )
            last = physical
            yield physical

    return states()


def evolve(u0: PhaseSpacePoint, T: float, dt: float, spec: ParticleSpec,
           pot: PotentialSpec, grid: KGrid, scheme: str = "strang",
           store_every: int = 1, basis: Optional[PolarizationBasis] = None,
           allow_flagged: bool = False,
           hypothesis_report: Optional[HypothesisReport] = None) -> Trajectory:
    """Evolve u0 over [0, T] in steps of dt, recording diagnostics each step.

    Refuses to start when the form-factor integrability check flags the spec,
    unless allow_flagged is set; a precomputed report may be passed to avoid
    re-checking (ensemble pushes reuse one report for every sample).
    Recorded samples are physical variables for both schemes.
    """
    states = stepper(u0, T, dt, spec, pot, grid, scheme, basis)
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    refuse_flagged(spec, grid, allow_flagged, hypothesis_report)

    n = _step_count(T, dt)
    stored_indices = np.arange(0, n + 1, store_every)
    if stored_indices[-1] != n:  # the endpoint is always stored
        stored_indices = np.append(stored_indices, n)
    energies, norms = np.empty(n + 1), np.empty((n + 1, len(NORM_SIGMAS)))
    p, q = np.empty((n + 1, *u0.p.shape)), np.empty((n + 1, *u0.q.shape))
    stored = np.empty((stored_indices.size, u0.data.size))
    row = 0
    for k, physical in enumerate(itertools.chain([u0], states)):
        energies[k] = hamiltonian(physical, spec, pot, grid, basis)
        norms[k] = [phase_norm(physical, s) for s in NORM_SIGMAS]
        p[k], q[k] = physical.p, physical.q
        if k == stored_indices[row]:
            stored[row] = physical.data
            row += 1
    stored.flags.writeable = False

    return Trajectory(grid=u0.grid, dt=float(dt), times=np.arange(n + 1) * dt,
                      energies=energies, norms=norms, p=p, q=q,
                      stored_indices=stored_indices, stored=stored)


def divergence_report(u0: PhaseSpacePoint, epsilon: float, direction: PhaseSpacePoint,
                      T: float, dt: float, spec: ParticleSpec, pot: PotentialSpec,
                      grid: KGrid, scheme: str = "strang",
                      basis: Optional[PolarizationBasis] = None,
                      allow_flagged: bool = False) -> DivergenceReport:
    """Track the X^0 separation of u0 and u0 + epsilon*direction.

    direction must be X^0-normalized, so the separation at t=0 equals
    epsilon.  The least-squares constant fits log(d/d(0)) = c t; the
    envelope constant is the largest per-sample slope, giving a bound
    d(t) <= d(0) e^{c t} whose violations are counted.  Both anchor at the
    *measured* d(0) rather than epsilon: forming u0 + epsilon*direction and
    subtracting u0 again reproduces epsilon only up to a cancellation error
    of relative size ~1e-16 |u0|/epsilon, which would otherwise dwarf any
    roundoff slack in the violation count.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    dir_norm = phase_norm(direction, 0.0)
    if abs(dir_norm - 1.0) > 1e-8:
        raise ValueError(f"direction must have unit X^0 norm, got {dir_norm}")
    a = u0
    b = u0 + epsilon * direction
    pairs = zip(stepper(a, T, dt, spec, pot, grid, scheme, basis),
                stepper(b, T, dt, spec, pot, grid, scheme, basis))
    refuse_flagged(spec, grid, allow_flagged)

    dist = np.array([phase_norm(b - a, 0.0)]
                    + [phase_norm(pb - pa, 0.0) for pa, pb in pairs])
    n = dist.size - 1
    times = np.arange(n + 1) * dt
    safe = np.maximum(dist, 1e-300)
    log_ratio = np.log(safe / safe[0])
    tpos = times[1:]
    fitted_c = float(np.sum(tpos * log_ratio[1:]) / np.sum(tpos**2)) if n else 0.0
    envelope_c = float(np.max(log_ratio[1:] / tpos)) if n else 0.0
    envelope = safe[0] * np.exp(envelope_c * times)
    violations = int(np.sum(dist > envelope * (1.0 + 1e-12)))
    return DivergenceReport(
        epsilon=float(epsilon),
        times=times,
        divergence=dist,
        fitted_c=fitted_c,
        envelope_c=envelope_c,
        envelope_violations=violations,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write per-step diagnostics: t, H, the three norms, then flat p and q."""
    n_part, d = traj.p.shape[1:]
    header = ["t", "H", "norm_X0", "norm_X12", "norm_X1"]
    header += [f"p_{i}_{mu}" for i in range(n_part) for mu in range(d)]
    header += [f"q_{i}_{mu}" for i in range(n_part) for mu in range(d)]
    steps = traj.times.size
    table = np.column_stack([
        traj.times,
        traj.energies,
        traj.norms,
        traj.p.reshape(steps, -1),
        traj.q.reshape(steps, -1),
    ])
    np.savetxt(path, table, delimiter=",", header=",".join(header), comments="")
