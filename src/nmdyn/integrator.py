"""Time evolution of the coupled particle-field system.

Two independent schemes share the exact free flow and classical 4-stage RK4:

* ``strang``: the symmetric splitting Phi^0_{dt/2} o Kick_dt o Phi^0_{dt/2},
  where the kick integrates du/dt = G(u) with one RK4 step on (p, q) that
  holds the field's bracket (``_strang``).  The linear part (ballistic drift
  and the e^{-i t |k|} field rotation) is applied exactly, so the |k|
  multiplier never limits the step size at large cutoffs.
* ``interaction-rk4``: RK4 (``_rk4``) on the interaction-picture field
  du~/dt = vartheta(t, u~), with three field-turn tables on H per step, one
  per stage time; the recorded samples are mapped back to physical
  variables through the free flow at each sample time.

The splitting is second-order accurate in the physical variables; the
interaction-picture RK4 is fourth order, because du~/dt = vartheta(t, u~) is
smooth in t and the free flow that maps samples back is exact.  The design
orders live in ``SCHEME_ORDER``, and the two schemes are tested against each
other.  Steps are fixed; adaptivity is deliberately excluded so that
convergence-order measurements and property tests are reproducible.

One stepping loop drives every run: ``stepper`` yields the physical state
after each step and stops with NumericalBlowupError at the first non-finite
one.  It steps one point (D,) or a stack (S, D) of samples, one per row, with
each row's arithmetic that of the single point.  ``evolve`` records
diagnostics along it through ``_record``, which ``push_forward`` also runs on
blocks of samples; ``divergence_report`` steps its pair as one 2-row stack,
and a caller that needs only the endpoint (the duhamel-order suite) takes the
last item and computes no diagnostics.  ``refuse_flagged`` is the one place
that refuses a spec whose hypothesis check is flagged.

A run reads its grid from its first state and its frame from that grid
(``basis=None``, the grid's ``default_basis``); another state it takes (the
divergence direction) on a grid of other (d, K, N) raises ValueError.

Diagnostics (energy and the X^sigma norms at sigma = 0, 1/2, 1) are
recomputed from the state at every step, never interpolated.  Particle
positions and momenta are recorded every step; whole states are kept at a
configurable stride (endpoints always included), as the rows of one read-only
array whose stored states and endpoint are views.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import KGrid
from .interaction import (
    HypothesisReport,
    PotentialSpec,
    _beta,
    _energy,
    _g_on_half,
    _model_for,
    _vartheta_on_half,
    check_hypotheses,
    compile_model,
)
from .state import (
    ParticleSpec,
    PhaseSpacePoint,
    _field_density,
    _phase_norms,
    _turned,
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
    """Raised when the state stops being finite, or a step or its record raises
    FloatingPointError; carries the non-finite state, or the last finite one."""

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
    (n_stored, D) array (in a pushed ensemble, a view of the ensemble's one
    (S, n_stored, D) array).  ``stored_states()`` and ``endpoint()`` are
    views of its rows, so they keep the whole array alive and cannot be
    written to.
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


def _rk4(f, t: float, u: PhaseSpacePoint, dt: float) -> PhaseSpacePoint:
    """interaction-rk4's classical RK4 step of du/dt = f(t, u), summing
    k1 + 2 k2 + 2 k3 + k4 in that order in k1's vector (f returns new points)."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    k = f(t, u)
    total = k.data
    for step, weight in ((dt / 2.0, 2.0), (dt / 2.0, 2.0), (dt, 1.0)):
        k = f(t + step, u + step * k)
        total += weight * k.data
    total *= dt / 6.0
    return u._like(np.add(u.data, total, out=total))


def _strang(u, dt, spec, pot, turn) -> PhaseSpacePoint:
    """``strang_step`` with its half-step field turn e^{-i (dt/2) |k|} given.
    The kick holds the half-turned field's bracket beta (``interaction``):
    RK4 on (p, q) alone, the field's slopes on H summed with RK4's weights
    into one increment delta, written as alpha(k) + delta, alpha(-k) - conj delta."""
    model = compile_model(spec, pot, u.grid)
    v = _turned(u, dt / 2.0, turn, spec)
    beta, n2 = _beta(model, v.alpha), 2 * v._nd
    # a slope is [G_p | G_q | G_alpha on H], so its .alpha is (..., L, M/2)
    slope = v._like(np.empty(beta.shape[:-2] + (n2 + 2 * beta.shape[-2] * beta.shape[-1],)))
    _g_on_half(model, spec, v.p, v.q, beta, slope)
    total, k = slope.data, v._like(np.empty_like(slope.data))
    for step, weight in ((dt / 2.0, 2.0), (dt / 2.0, 2.0), (dt, 1.0)):
        stage = v._like(v.data[..., :n2] + step * slope.data[..., :n2])
        _g_on_half(model, spec, stage.p, stage.q, beta, k)
        total += weight * k.data
        slope = k
    total *= dt / 6.0
    v.data[..., :n2] += total[..., :n2]
    delta, half = v._like(total).alpha, beta.shape[-1]
    v.alpha[..., :half] += delta
    v.alpha[..., ::-1][..., :half] -= np.conj(delta)
    return _turned(v, dt / 2.0, turn, spec)


def strang_step(u: PhaseSpacePoint, dt: float, spec: ParticleSpec,
                pot: PotentialSpec) -> PhaseSpacePoint:
    """One symmetric splitting step, its kick holding the field's bracket; dt < 0 reverses."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    return _strang(u, dt, spec, pot, np.exp(-1j * (dt / 2.0) * u.grid.absk))


def rk4_interaction_step(t: float, u: PhaseSpacePoint, dt: float, spec: ParticleSpec,
                         pot: PotentialSpec) -> PhaseSpacePoint:
    """One RK4 step on du/dt = vartheta(t, u), one field turn on H per stage time."""
    model = compile_model(spec, pot, u.grid)
    turn = functools.cache(lambda s: np.exp(-1j * s * model.absk))
    return _rk4(lambda s, v: _vartheta_on_half(model, spec, s, v, turn(s)), t, u, dt)


def _step_count(T: float, dt: float) -> int:
    """The number of dt steps in T; ValueError unless it is a finite whole number."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    ratio = T / dt
    if not np.all(np.isfinite((T, dt, ratio))):
        raise ValueError(f"T={T} and dt={dt} must be finite, as must T/dt")
    n = int(round(ratio))
    if n < 0 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"dt={dt} must divide T={T} into a whole number of forward steps")
    return n


def refuse_flagged(spec: ParticleSpec, grid: KGrid, allow_flagged: bool) -> HypothesisReport:
    """The hypothesis report of (spec, grid), refused when flagged.

    Raises FlaggedHypothesesError on a flagged report unless allow_flagged
    is set.
    """
    report = check_hypotheses(spec, 0.5, grid)
    if report.flagged and not allow_flagged:
        raise FlaggedHypothesesError(
            "form-factor norms are not resolution-stable on this grid "
            "(see check_hypotheses); pass allow_flagged=True or --allow-flagged to override"
        )
    return report


def _blowup(what, t, k, last, state) -> NumericalBlowupError:
    """The NumericalBlowupError of step k at time t, carrying ``state``."""
    with np.errstate(all="ignore"):
        figures = (f"last finite |p|={np.abs(last.p).max():.3e}, "
                   f"norm_X0={np.max(phase_norm(last, 0.0)):.3e}")
    return NumericalBlowupError(f"{what} at t={t:.6g} (step {k}); {figures}",
                                time=float(t), state=state)


def stepper(u0: PhaseSpacePoint, T: float, dt: float, spec: ParticleSpec,
            pot: PotentialSpec, scheme: str = "strang"):
    """Iterator over the physical states after each of the T/dt steps from u0.

    u0 is one point or an (S, D) stack, stepped as a whole.  The arguments
    are checked when it is called; each item then costs one step.  A strang
    run computes its half-step field turn e^{-i (dt/2) |k|} once.  A
    non-finite state raises NumericalBlowupError (``_blowup``) with figures
    of the last finite state (the largest over a stack's rows); so does a
    FloatingPointError in a step (a raising ``np.errstate``), chained from it.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    times = np.arange(_step_count(T, dt) + 1) * dt
    turn = np.exp(-1j * (dt / 2.0) * u0.grid.absk)

    def states():
        state = last = u0
        for k in range(1, times.size):
            try:
                if scheme == "strang":
                    state = physical = _strang(state, dt, spec, pot, turn)
                else:
                    state = rk4_interaction_step(times[k - 1], state, dt, spec, pot)
                    physical = free_flow(state, times[k], spec)
            except FloatingPointError as err:
                raise _blowup(f"floating-point error ({err})", times[k], k, last, last) from err
            if not physical.is_finite():
                raise _blowup("non-finite state", times[k], k, last, physical)
            last = physical
            yield physical

    return states()


def _stored_steps(n: int, store_every: int) -> np.ndarray:
    """The steps 0, store_every, ... of n whose whole state is kept, and n."""
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    steps = np.arange(0, n + 1, store_every)
    return steps if steps[-1] == n else np.append(steps, n)


def _history(rows: tuple, u0: PhaseSpacePoint, n: int, stored_indices: np.ndarray) -> dict:
    """Empty arrays for ``_record``: rows=() for one point, (S,) for S samples."""
    return {
        "energies": np.empty(rows + (n + 1,)),
        "norms": np.empty(rows + (n + 1, len(NORM_SIGMAS))),
        "p": np.empty(rows + (n + 1,) + u0.p.shape),
        "q": np.empty(rows + (n + 1,) + u0.q.shape),
        "stored": np.empty(rows + (stored_indices.size, u0.data.size)),
    }


def _record(u0: PhaseSpacePoint, states, dt: float, stored_indices: np.ndarray, hist: dict,
            spec: ParticleSpec, pot: PotentialSpec) -> None:
    """Write the diagnostics of u0 and of every state ``states`` yields, one per dt.

    u0 is one point or a stack; ``hist`` holds ``history`` arrays with the
    same leading axes, filled in place.  Energy and norms share one field
    density per state, through the helpers (and bits) of ``hamiltonian`` and
    ``phase_norm``.  A FloatingPointError there is step k's blowup (0 for u0).
    """
    energies, norms, p, q, stored = (hist[key] for key in
                                     ("energies", "norms", "p", "q", "stored"))
    model = compile_model(spec, pot, u0.grid)
    row = 0
    for k, physical in enumerate(itertools.chain([u0], states)):
        try:
            dens = _field_density(physical.alpha)
            energies[..., k] = _energy(model, spec, physical, dens)
            for j, norm in enumerate(_phase_norms(physical, dens, NORM_SIGMAS)):
                norms[..., k, j] = norm
        except FloatingPointError as err:
            raise _blowup(f"floating-point error ({err})", k * dt, k, physical, physical) from err
        p[..., k, :, :], q[..., k, :, :] = physical.p, physical.q
        if k == stored_indices[row]:
            stored[..., row, :] = physical.data
            row += 1


def _trajectory(grid: KGrid, dt: float, stored_indices: np.ndarray, hist: dict) -> Trajectory:
    """The Trajectory of one sample's ``history`` arrays (or views of them)."""
    n = hist["energies"].size - 1
    return Trajectory(grid=grid, dt=float(dt), times=np.arange(n + 1) * dt,
                      stored_indices=stored_indices, **hist)


def evolve(u0: PhaseSpacePoint, T: float, dt: float, spec: ParticleSpec,
           pot: PotentialSpec, scheme: str = "strang", store_every: int = 1,
           allow_flagged: bool = False) -> Trajectory:
    """Evolve u0 over [0, T] in steps of dt, recording diagnostics each step.

    Refuses to start when the form-factor integrability check flags the spec,
    unless allow_flagged is set.  Recorded samples are physical variables for
    both schemes.
    This is ``push_forward``'s loop for a single sample.
    """
    states = stepper(u0, T, dt, spec, pot, scheme)
    n = _step_count(T, dt)
    stored_indices = _stored_steps(n, store_every)
    refuse_flagged(spec, u0.grid, allow_flagged)

    hist = _history((), u0, n, stored_indices)
    _record(u0, states, dt, stored_indices, hist, spec, pot)
    hist["stored"].flags.writeable = False
    return _trajectory(u0.grid, dt, stored_indices, hist)


def divergence_report(u0: PhaseSpacePoint, epsilon: float, direction: PhaseSpacePoint,
                      T: float, dt: float, spec: ParticleSpec, pot: PotentialSpec,
                      scheme: str = "strang", allow_flagged: bool = False) -> DivergenceReport:
    """Track the X^0 separation of u0 and u0 + epsilon*direction.

    direction must be on u0's grid and X^0-normalized, so the separation at
    t=0 equals epsilon.  The least-squares constant fits log(d/d(0)) = c t; the
    envelope constant is the largest per-sample slope, giving a bound
    d(t) <= d(0) e^{c t} whose violations are counted.  Both anchor at the
    *measured* d(0) rather than epsilon: forming u0 + epsilon*direction and
    subtracting u0 again reproduces epsilon only up to a cancellation error
    of relative size ~1e-16 |u0|/epsilon, which would otherwise dwarf any
    roundoff slack in the violation count.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    _model_for(spec, pot, u0.grid, None, direction)
    dir_norm = phase_norm(direction, 0.0)
    if abs(dir_norm - 1.0) > 1e-8:
        raise ValueError(f"direction must have unit X^0 norm, got {dir_norm}")
    pair = u0._like(np.stack([u0.data, (u0 + epsilon * direction).data]))
    states = stepper(pair, T, dt, spec, pot, scheme)
    refuse_flagged(spec, u0.grid, allow_flagged)

    dist = np.array([phase_norm(ab._like(ab.data[1] - ab.data[0]), 0.0)
                     for ab in itertools.chain([pair], states)])
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
