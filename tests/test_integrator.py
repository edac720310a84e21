"""Tests for the time integrators: exactness on decoupled systems, convergence
order, reversibility, the two-trajectory divergence report, and trajectory
bookkeeping/exports.

Convergence windows are frozen from refinement runs on the moderate grid
below (d=3, K=2.0, N=12): the max energy drift of the splitting scheme
shrinks by 4.00 per halving of dt, the two schemes approach each other at the
same rate (ratio 4.00), and the endpoint error against a dt/8 reference
shrinks by 4.20 (the value 63/15 expected for a second-order scheme compared
against its own 8x refinement).
"""

import os
import weakref

import numpy as np
import pytest

import nmdyn.integrator
import nmdyn.interaction
from nmdyn.config import load_config
from nmdyn.geometry import build_kgrid
from nmdyn.integrator import (
    DivergenceReport,
    FlaggedHypothesesError,
    NumericalBlowupError,
    Trajectory,
    divergence_report,
    evolve,
    rk4_interaction_step,
    stepper,
    strang_step,
    trajectory_to_csv,
)
from nmdyn.interaction import (
    FormFactor,
    PotentialSpec,
    check_hypotheses,
    default_basis,
    hamiltonian,
    nonlinearity_F,
    nonlinearity_G,
)
from nmdyn.measures import Ensemble, EnsemblePropagationError, push_forward
from nmdyn.state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    free_flow,
    phase_norm,
)

from conftest import coupling, random_point, rotate_frame


def zero_form_factor() -> FormFactor:
    return FormFactor.table([0.0, 1.0], [0.0, 0.0])


@pytest.fixture(scope="module")
def coupled():
    """Moderate two-particle scenario used for the convergence measurements."""
    grid = build_kgrid(3, 2.0, 12)
    spec = ParticleSpec(
        masses=np.array([1.0, 1.5]),
        form_factors=(FormFactor.gaussian(1.0), FormFactor.gaussian(1.0)),
    )
    pot = PotentialSpec.coulomb(0.5)
    basis = default_basis(grid)
    c = 0.3 * np.exp(-grid.absk**2)[:, None] * np.array([1.0, 0.5, -0.2])
    alpha = np.einsum("jlv,jv->lj", basis.vectors, c)
    u0 = PhaseSpacePoint(
        ParticleState(
            np.array([[0.6, 0.0, 0.2], [-0.4, 0.3, 0.0]]),
            np.array([[0.5, 0.0, 0.0], [-0.5, 0.2, 0.0]]),
        ),
        FieldState(grid, alpha),
    )
    report = check_hypotheses(spec, 0.5, grid)
    assert not report.flagged
    return grid, spec, pot, u0, report


@pytest.fixture(scope="module")
def decoupled(tiny_grid):
    """Zero form factors and no potential: the dynamics is exactly free."""
    spec = ParticleSpec(
        masses=np.array([1.0, 1.5]),
        form_factors=(zero_form_factor(), zero_form_factor()),
    )
    rng = np.random.default_rng(42)
    u0 = random_point(rng, tiny_grid, n=2)
    return tiny_grid, spec, PotentialSpec.zero(), u0


class TestSteps:
    def test_strang_free_case_matches_free_flow(self, decoupled):
        grid, spec, pot, u0 = decoupled
        state = u0
        for _ in range(10):
            state = strang_step(state, 0.05, spec, pot)
        exact = free_flow(u0, 0.5, spec)
        err = phase_norm(state - exact, 0.0)
        assert err <= 1e-13 * (1.0 + phase_norm(exact, 0.0))

    def test_interaction_step_free_case_is_identity(self, decoupled):
        grid, spec, pot, u0 = decoupled
        stepped = rk4_interaction_step(0.3, u0, 0.05, spec, pot)
        assert np.array_equal(stepped.p, u0.p)
        assert np.array_equal(stepped.q, u0.q)
        assert np.array_equal(stepped.alpha, u0.alpha)

    def test_single_step_reversibility(self, coupled):
        grid, spec, pot, u0, _ = coupled
        forward = strang_step(u0, 1e-2, spec, pot)
        back = strang_step(forward, -1e-2, spec, pot)
        err = phase_norm(back - u0, 0.0)
        assert err <= 1e-12 * (1.0 + phase_norm(u0, 0.0))

    def test_steps_validate_no_containers(self, monkeypatch):
        path = os.path.join(os.path.dirname(__file__), "..", "scripts", "configs",
                            "quickstart.json")
        cfg = load_config(path)
        calls = {ParticleState: 0, FieldState: 0}

        def counted(cls):
            original = cls.__post_init__

            def wrapper(self):
                calls[cls] += 1
                original(self)
            return wrapper

        for cls in calls:
            monkeypatch.setattr(cls, "__post_init__", counted(cls))
        args = (cfg.spec, cfg.pot)
        strang_step(cfg.point, cfg.dt, *args)
        rk4_interaction_step(0.0, cfg.point, cfg.dt, *args)
        assert calls == {ParticleState: 0, FieldState: 0}

    def test_zero_dt_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError):
            strang_step(u0, 0.0, spec, pot)
        with pytest.raises(ValueError):
            rk4_interaction_step(0.0, u0, 0.0, spec, pot)


class TestBitIdentity:
    """The step's shortcuts round exactly as the plain formulas do."""

    def test_rk4_running_sum_is_the_four_slope_formula(self, tiny_grid):
        rng = np.random.default_rng(5)
        stack = PhaseSpacePoint._of(
            tiny_grid, np.stack([random_point(rng, tiny_grid).data for _ in range(4)]))

        def f(t, v):
            return v._like(np.sin(v.data) * (1.0 + t) - 0.3 * v.data**2)

        t, dt = 0.7, 0.013
        k1 = f(t, stack)
        k2 = f(t + dt / 2.0, stack + (dt / 2.0) * k1)
        k3 = f(t + dt / 2.0, stack + (dt / 2.0) * k2)
        k4 = f(t + dt, stack + dt * k3)
        expected = stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert nmdyn.integrator._rk4(f, t, stack, dt).data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("rows", [None, 3])
    def test_stepper_states_are_chained_strang_steps(self, coupled, rows):
        grid, spec, pot, u0, _ = coupled
        if rows:
            rng = np.random.default_rng(9)
            u0 = u0._like(u0.data + 1e-3 * rng.standard_normal((rows, u0.data.size)))
        state = u0
        for stepped in stepper(u0, 0.06, 0.02, spec, pot):
            state = strang_step(state, 0.02, spec, pot)
            assert stepped.data.tobytes() == state.data.tobytes()


class TestEvolve:
    @pytest.mark.parametrize("scheme", ["strang", "interaction-rk4"])
    def test_stepper_last_state_is_evolve_endpoint(self, coupled, scheme):
        grid, spec, pot, u0, _ = coupled
        states = list(stepper(u0, 0.1, 0.02, spec, pot, scheme))
        end = evolve(u0, 0.1, 0.02, spec, pot, scheme=scheme,
                     store_every=3).endpoint()
        assert len(states) == 5
        assert np.array_equal(states[-1].p, end.p)
        assert np.array_equal(states[-1].q, end.q)
        assert np.array_equal(states[-1].alpha, end.alpha)

    def test_zero_horizon_records_initial_state(self, decoupled):
        grid, spec, pot, u0 = decoupled
        traj = evolve(u0, 0.0, 1e-2, spec, pot, allow_flagged=True)
        assert traj.n_steps == 0
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.stored_indices, [0])
        end = traj.endpoint()
        assert np.array_equal(end.p, u0.p)
        assert np.array_equal(end.alpha, u0.alpha)

    def test_non_divisible_horizon_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError, match="whole number"):
            evolve(u0, 1.0, 0.3, spec, pot, allow_flagged=True)

    def test_bad_arguments_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError, match="scheme"):
            evolve(u0, 0.1, 0.1, spec, pot, scheme="euler", allow_flagged=True)
        with pytest.raises(ValueError, match="store_every"):
            evolve(u0, 0.1, 0.1, spec, pot, store_every=0, allow_flagged=True)

    def test_flagged_spec_refused_without_override(self, small_grid):
        spec = ParticleSpec(
            masses=np.array([1.0]), form_factors=(FormFactor.gaussian(1.0),)
        )
        report = check_hypotheses(spec, 0.5, small_grid)
        assert report.flagged  # N=6 under-resolves the |k| -> 0 region
        rng = np.random.default_rng(3)
        u0 = random_point(rng, small_grid, n=1)
        with pytest.raises(FlaggedHypothesesError):
            evolve(u0, 0.0, 1e-2, spec, PotentialSpec.zero())
        traj = evolve(u0, 0.0, 1e-2, spec, PotentialSpec.zero(),
                      allow_flagged=True)
        assert traj.n_steps == 0

    def test_store_every_keeps_endpoints(self, decoupled):
        grid, spec, pot, u0 = decoupled
        traj = evolve(u0, 1.0, 0.1, spec, pot, store_every=3,
                      allow_flagged=True)
        assert traj.stored_indices.tolist() == [0, 3, 6, 9, 10]
        assert np.allclose(traj.stored_times, [0.0, 0.3, 0.6, 0.9, 1.0])
        states = traj.stored_states()
        assert len(states) == len(traj.stored)
        for k, state in zip(traj.stored_indices, states):
            assert np.array_equal(state.p, traj.p[k])
            assert np.array_equal(state.q, traj.q[k])

    def test_interaction_scheme_records_physical_variables(self, decoupled):
        grid, spec, pot, u0 = decoupled
        traj = evolve(u0, 0.5, 0.1, spec, pot, scheme="interaction-rk4",
                      allow_flagged=True)
        for k, t in enumerate(traj.times):
            exact = free_flow(u0, float(t), spec)
            assert np.array_equal(traj.q[k], exact.q)
            assert np.array_equal(traj.p[k], exact.p)

    def test_diagnostics_match_recomputation(self, coupled):
        grid, spec, pot, u0, _ = coupled
        traj = evolve(u0, 0.1, 2e-2, spec, pot)
        for k, state in zip(traj.stored_indices, traj.stored_states()):
            assert hamiltonian(state, spec, pot, grid) == traj.energies[k]
            assert phase_norm(state, 0.5) == traj.norms[k, 1]

    def test_energy_drift_is_second_order(self, coupled):
        grid, spec, pot, u0, _ = coupled
        drifts = []
        for dt in (2e-2, 1e-2):
            traj = evolve(u0, 1.0, dt, spec, pot)
            drifts.append(np.max(np.abs(traj.energies - traj.energies[0])))
        assert drifts[0] < 5e-4
        ratio = drifts[0] / drifts[1]
        assert 3.7 < ratio < 4.3  # measured 4.00

    def test_schemes_converge_to_each_other(self, coupled):
        grid, spec, pot, u0, _ = coupled
        gaps = []
        for dt in (2e-2, 1e-2):
            a = evolve(u0, 0.5, dt, spec, pot, scheme="strang").endpoint()
            b = evolve(u0, 0.5, dt, spec, pot, scheme="interaction-rk4").endpoint()
            gaps.append(phase_norm(b - a, 0.0))
        assert gaps[0] < 5e-4
        ratio = gaps[0] / gaps[1]
        assert 3.7 < ratio < 4.3  # measured 4.00

    def test_global_error_is_second_order(self, coupled):
        grid, spec, pot, u0, _ = coupled
        ref = evolve(u0, 0.4, 5e-3, spec, pot).endpoint()
        errs = [
            phase_norm(
                evolve(u0, 0.4, dt, spec, pot).endpoint() - ref, 0.0)
            for dt in (4e-2, 2e-2)
        ]
        ratio = errs[0] / errs[1]
        # against a dt/8 reference the ideal second-order ratio is 63/15 = 4.2
        assert 3.4 < ratio < 5.0  # measured 4.204

    def test_round_trip_reversibility(self, coupled):
        grid, spec, pot, u0, _ = coupled
        fwd = evolve(u0, 0.5, 2e-3, spec, pot)
        back = evolve(fwd.endpoint(), -0.5, -2e-3, spec, pot)
        err = phase_norm(back.endpoint() - u0, 0.0)
        assert err <= 1e-10  # measured 1.3e-14 over 500 steps

    def test_blowup_raises_with_context(self, tiny_grid):
        spec = ParticleSpec(
            masses=np.array([1.0]), form_factors=(FormFactor.gaussian(1.0),)
        )
        huge = 1e8 * np.ones((2, tiny_grid.node_count), dtype=complex)
        u0 = PhaseSpacePoint(
            ParticleState(np.zeros((1, 3)), np.zeros((1, 3))),
            FieldState(tiny_grid, huge),
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalBlowupError) as exc:
                evolve(u0, 10.0, 1.0, spec, PotentialSpec.zero(),
                       allow_flagged=True)
        assert exc.value.time > 0.0
        assert not exc.value.state.is_finite()

    def test_floating_point_error_in_a_step_is_a_blowup_of_that_step(self, tiny_grid,
                                                                      monkeypatch):
        """A FloatingPointError (which a raising np.errstate makes) inside a
        step names the step and time, chained from the error; strang's kick
        calls the stage kernel four times a step, so its 6th call is in step 2."""
        spec = ParticleSpec(masses=np.array([1.0]), form_factors=(FormFactor.gaussian(1.0),))
        u0 = random_point(np.random.default_rng(3), tiny_grid, n=1)
        calls = []
        real_kernel = nmdyn.integrator._g_on_half

        def failing_kernel(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                raise FloatingPointError("overflow encountered in multiply")
            return real_kernel(*args, **kwargs)

        monkeypatch.setattr(nmdyn.integrator, "_g_on_half", failing_kernel)
        with pytest.raises(NumericalBlowupError, match=r"t=0\.2 \(step 2\); last finite") as exc:
            evolve(u0, 0.4, 0.1, spec, PotentialSpec.zero(), allow_flagged=True)
        assert isinstance(exc.value.__cause__, FloatingPointError)
        assert "overflow encountered in multiply" in str(exc.value)
        assert exc.value.time == pytest.approx(0.2)
        assert exc.value.state.is_finite()

    @pytest.mark.parametrize("step", [0, 2])
    def test_floating_point_error_in_recording_is_a_blowup_of_that_step(self, tiny_grid, step):
        """A finite state whose |alpha|^2 overflows when its energy is recorded
        ends the run in that step's NumericalBlowupError, chained from the
        error: the initial state (step 0), or the finite step-2 state of a
        field of 1e10 (3.9e216 in p), whose step 3 is non-finite."""
        calm = random_point(np.random.default_rng(42), tiny_grid)
        amplitude = 1e160 if step == 0 else 1e10
        field = amplitude * np.ones((2, tiny_grid.node_count), dtype=complex)
        u0 = PhaseSpacePoint(calm.particles, FieldState(tiny_grid, field))
        ff = FormFactor.gaussian(1.0)
        spec = ParticleSpec(masses=np.array([1.0, 1.5]), form_factors=[ff, ff])
        args = (4.0, 1.0, spec, PotentialSpec.coulomb(0.5))
        with np.errstate(all="raise"):
            with pytest.raises(NumericalBlowupError, match=rf"at t={step} \(step {step}\); "
                               r"last finite \|p\|=") as alone:
                evolve(u0, *args, allow_flagged=True)
            with pytest.raises(EnsemblePropagationError) as pushed:
                push_forward(Ensemble(points=(calm, u0)), *args, allow_flagged=True)
        assert isinstance(alone.value.__cause__, FloatingPointError)
        assert "floating-point error (overflow encountered in square)" in str(alone.value)
        assert alone.value.time == step and alone.value.state.is_finite()
        assert pushed.value.sample_index == 1
        assert str(pushed.value) == f"sample 1 failed: {alone.value}"

    def test_trajectory_requires_monotone_times(self):
        times = np.array([0.0, 0.1, 0.1])
        with pytest.raises(ValueError, match="monotone"):
            Trajectory(
                grid=None, dt=0.1, times=times,
                energies=np.zeros(3), norms=np.zeros((3, 3)),
                p=np.zeros((3, 1, 3)), q=np.zeros((3, 1, 3)),
                stored_indices=np.array([0, 2]), stored=np.zeros((2, 6)),
            )


@pytest.fixture(scope="module")
def direction(coupled):
    grid = coupled[0]
    rng = np.random.default_rng(7)
    raw = random_point(rng, grid, n=2, decay=False)
    return (1.0 / phase_norm(raw, 0.0)) * raw


@pytest.fixture(scope="module")
def short_trajectory(coupled):
    grid, spec, pot, u0, _ = coupled
    return evolve(u0, 0.1, 2e-2, spec, pot, store_every=2)


class TestHistory:
    def test_trajectory_p_q_share_no_memory_with_stored(self, short_trajectory):
        stored = short_trajectory.stored
        assert stored.dtype == np.float64 and stored.ndim == 2
        assert not np.shares_memory(short_trajectory.p, stored)
        assert not np.shares_memory(short_trajectory.q, stored)

    def test_stored_states_are_read_only_views(self, short_trajectory):
        stored = short_trajectory.stored
        views = [short_trajectory.endpoint(), *short_trajectory.stored_states()]
        for state in views:
            assert np.shares_memory(state.data, stored)
            for part in (state.data, state.p, state.q, state.alpha):
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 0.0

    @pytest.mark.parametrize("T, dt, store_every", [
        (0.1, 0.02, 1), (0.1, 0.02, 3), (0.1, 0.02, 10**9),
        (0.0, 0.02, 1), (-0.1, -0.02, 3),
    ])
    def test_stored_rows_are_the_stepper_states(self, coupled, T, dt, store_every):
        grid, spec, pot, u0, _ = coupled
        traj = evolve(u0, T, dt, spec, pot, store_every=store_every)
        states = [u0, *stepper(u0, T, dt, spec, pot)]
        expected = list(range(0, len(states), store_every))
        if expected[-1] != len(states) - 1:
            expected.append(len(states) - 1)
        assert traj.stored_indices.tolist() == expected
        assert traj.stored.shape == (len(expected), u0.data.size)
        for row, k in zip(traj.stored, expected):
            assert row.tobytes() == states[k].data.tobytes()

    def test_history_keeps_no_past_state_alive(self, coupled, monkeypatch):
        grid, spec, pot, u0, _ = coupled
        original = nmdyn.integrator.stepper
        alive = []

        def watched(*args, **kwargs):
            refs = []
            for state in original(*args, **kwargs):
                refs.append(weakref.ref(state.data))
                # evolve still holds the previous state; every older one is gone
                alive.append(sum(r() is not None for r in refs[:-2]))
                yield state

        monkeypatch.setattr(nmdyn.integrator, "stepper", watched)
        traj = evolve(u0, 0.1, 1e-2, spec, pot, store_every=100)
        assert traj.n_steps == 10
        assert alive == [0] * 10


class TestDivergence:
    def test_initial_separation_equals_epsilon(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 0.1, 2e-2, spec, pot)
        assert abs(rep.divergence[0] - 1e-6) <= 1e-12
        assert rep.times.size == rep.divergence.size == 6

    def test_envelope_has_no_violations(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 2.0, 1e-2, spec, pot)
        assert rep.envelope_violations == 0
        assert rep.envelope_c >= rep.fitted_c
        assert 0.0 < rep.fitted_c < 0.5  # measured 0.0344

    def test_fitted_constant_stable_in_epsilon(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        cs = [
            divergence_report(u0, eps, direction, 2.0, 1e-2, spec, pot).fitted_c
            for eps in (1e-6, 1e-5)
        ]
        assert abs(cs[0] - cs[1]) <= 1e-4  # measured 1.7e-8

    def test_free_case_linear_growth_bound(self, decoupled):
        grid, spec, pot, u0 = decoupled
        rng = np.random.default_rng(11)
        raw = random_point(rng, grid, n=2, decay=False)
        direction = (1.0 / phase_norm(raw, 0.0)) * raw
        rep = divergence_report(u0, 1e-6, direction, 2.0, 1e-2, spec, pot,
                                allow_flagged=True)
        # free flow moves q by t p/m and rotates the field, so the separation
        # can grow at most like (1 + t / min m) epsilon
        bound = (1.0 + rep.times / np.min(spec.masses)) * 1e-6
        assert np.all(rep.divergence <= bound * (1.0 + 1e-9))

    @pytest.mark.parametrize("scheme", ["strang", "interaction-rk4"])
    def test_pair_stack_matches_two_lone_runs(self, coupled, direction, scheme):
        grid, spec, pot, u0, _ = coupled
        b0 = u0 + 1e-6 * direction
        pairs = zip(stepper(u0, 0.1, 2e-2, spec, pot, scheme),
                    stepper(b0, 0.1, 2e-2, spec, pot, scheme))
        lone = [phase_norm(b0 - u0, 0.0)] + [phase_norm(b - a, 0.0) for a, b in pairs]
        rep = divergence_report(u0, 1e-6, direction, 0.1, 2e-2, spec, pot,
                                scheme=scheme)
        assert rep.divergence.tobytes() == np.array(lone).tobytes()

    def test_bad_arguments_rejected(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        with pytest.raises(ValueError, match="epsilon"):
            divergence_report(u0, 0.0, direction, 0.1, 0.1, spec, pot)
        with pytest.raises(ValueError, match="unit"):
            divergence_report(u0, 1e-6, 2.0 * direction, 0.1, 0.1, spec, pot)
        rep = divergence_report(u0, 1e-6, direction, 0.0, 0.1, spec, pot)
        assert rep.fitted_c == 0.0

    def test_direction_on_another_grid_is_refused(self, coupled, direction):
        """Same N, other K: the field arrays fit, so only the check tells."""
        grid, spec, pot, u0, _ = coupled
        other = build_kgrid(3, 2.5, 12)
        stray = PhaseSpacePoint(direction.particles, FieldState(other, direction.alpha))
        stray = (1.0 / phase_norm(stray, 0.0)) * stray
        with pytest.raises(ValueError, match=r"state on the grid \(d, K, N\) = \(3, 2.5, 12\)"):
            divergence_report(u0, 1e-6, stray, 0.1, 2e-2, spec, pot)

    def test_report_fields(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 0.1, 5e-2, spec, pot)
        assert rep.epsilon == 1e-6
        assert rep.envelope_violations == 0
        assert rep.times.size == rep.divergence.size == 3


QUICKSTART = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs",
                          "quickstart.json")


def total_momentum(u: PhaseSpacePoint) -> np.ndarray:
    """P = sum_i p_i + 2 pi sum_lam sum_j w_j k_j |alpha_lam(k_j)|^2, per row of
    a stack: the Noether charge of the grid flow's translation symmetry
    (q_i -> q_i + a, alpha -> alpha e^{-2 pi i k.a}), whatever the frame."""
    grid = u.grid
    density = np.sum(np.abs(u.alpha) ** 2, axis=-2)
    return np.sum(u.p, axis=-2) + 2.0 * np.pi * (density * grid.weights) @ grid.nodes


class TestTotalMomentum:
    """Both schemes keep P along a run of the quickstart point, while the
    particles' momentum alone moves by 0.076-0.19 over T = 1."""

    # measured worst drift over T = 1, dt = 0.01: strang 1.2e-15, interaction-rk4
    # 1.8e-9 (ball charges; 1.0e-10 gaussian): RK4 keeps P only to its error
    BOUNDS = {"strang": 1e-13, "interaction-rk4": 1e-8}
    POTENTIALS = {"zero": PotentialSpec.zero(), "coulomb": PotentialSpec.coulomb(0.125),
                  "cosine": PotentialSpec.cosine(0.3, [1.0, 2.0, 0.5])}
    CHARGES = {"gaussian": FormFactor.gaussian(1.0), "ball": FormFactor.ball(1.5)}

    @staticmethod
    def drifts(u0, spec, pot, scheme):
        """The largest |P - P(0)| and |sum_i p_i - its start| along the run, per row."""
        p0, moved0 = total_momentum(u0), np.sum(u0.p, axis=-2)
        worst = moved = 0.0
        for u in stepper(u0, 1.0, 0.01, spec, pot, scheme):
            worst = np.maximum(worst, np.abs(total_momentum(u) - p0).max(axis=-1))
            moved = np.maximum(moved, np.abs(np.sum(u.p, axis=-2) - moved0).max(axis=-1))
        return worst, moved

    @pytest.mark.parametrize("charge", ["gaussian", "ball"])
    @pytest.mark.parametrize("kind", ["zero", "coulomb", "cosine"])
    @pytest.mark.parametrize("scheme", ["strang", "interaction-rk4"])
    def test_total_momentum_is_conserved(self, scheme, kind, charge):
        cfg = load_config(QUICKSTART)
        spec = ParticleSpec(cfg.spec.masses, [self.CHARGES[charge]] * 2)
        worst, moved = self.drifts(cfg.point, spec, self.POTENTIALS[kind], scheme)
        assert worst <= self.BOUNDS[scheme]
        assert moved > 0.05

    @pytest.mark.parametrize("scheme", ["strang", "interaction-rk4"])
    def test_each_row_of_a_stack_conserves_its_momentum(self, scheme):
        cfg = load_config(QUICKSTART)
        u0 = cfg.point
        other = PhaseSpacePoint(ParticleState(-u0.p[::-1], u0.q), u0.field)
        stack = u0._like(np.stack([u0.data, other.data]))
        worst, moved = self.drifts(stack, cfg.spec, cfg.pot, scheme)
        assert worst.shape == (2,)
        assert np.all(worst <= self.BOUNDS[scheme]) and np.all(moved > 0.05)


def soliton(grid, basis, spec, v, q0, t=0.0) -> PhaseSpacePoint:
    """The charged soliton of one charge of mass 1 at velocity v (2 pi |v| < 1),
    an exact solution of the grid flow in the frame ``basis``:

        alpha_lam(k, t) = chi/sqrt(2|k|) (eps_lam . v) e^{-2 pi i k.q(t)} / (|k| - 2 pi k.v),
        q(t) = q0 + v t,   p = v + A(q(t), alpha(t)), constant in t.
    """
    q = q0 + v * t
    chi = spec.form_factors[0].profile(grid.absk)
    scalar = (chi / np.sqrt(2.0 * grid.absk) * np.exp(-2j * np.pi * (grid.nodes @ q))
              / (grid.absk - 2.0 * np.pi * (grid.nodes @ v)))
    alpha = scalar * (basis.vectors @ v).T
    a = coupling(q[None], alpha, spec, grid, basis)[0][0]
    return PhaseSpacePoint(ParticleState((v + a)[None], q[None]), FieldState(grid, alpha))


class TestChargedSoliton:
    """One gaussian charge moving at |v| = 0.15 on the quickstart grid, in the
    default frame and in a rotated frame that is the same at +-k."""

    V = 0.15 * np.array([0.6, 0.0, 0.8])
    Q0 = np.array([0.3, -0.2, 0.1])
    SPEC = ParticleSpec(np.array([1.0]), [FormFactor.gaussian(1.0)])

    @pytest.fixture(params=["default", "rotated"])
    def frame(self, request, monkeypatch):
        """The grid and the frame every run uses: a rotated frame replaces the
        grid's default one."""
        grid = build_kgrid(3, 2.0, 10)
        basis = default_basis(grid)
        if request.param == "rotated":
            basis = rotate_frame(np.random.default_rng(3), grid, basis,
                                 np.zeros((2, grid.node_count)))[0]
            monkeypatch.setattr(nmdyn.interaction, "default_basis", lambda _: basis)
        return grid, basis

    def test_the_soliton_solves_the_flow(self, frame):
        # measured |F_p| <= 9e-18, |q' - v| <= 3e-17, field defect 4e-17 relative
        grid, basis = frame
        u = soliton(grid, basis, self.SPEC, self.V, self.Q0)
        f = nonlinearity_F(u, self.SPEC, PotentialSpec.zero(), grid, basis)
        assert np.abs(f.p).max() <= 1e-15
        assert np.abs(f.q - self.V).max() <= 1e-15
        # d alpha/dt = -i |k| alpha + G_alpha, and the soliton's is -2 pi i (k.v) alpha
        defect = f.alpha - 1j * grid.absk * u.alpha + 2j * np.pi * (grid.nodes @ self.V) * u.alpha
        assert np.abs(defect).max() <= 1e-14 * np.abs(u.alpha).max()

    def test_strang_converges_to_the_soliton_at_second_order(self, frame):
        # q errors at T = 2 (ratios 4.008, 4.002), the same in both frames to
        # 3e-12 relative
        grid, basis = frame
        u0 = soliton(grid, basis, self.SPEC, self.V, self.Q0)
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = evolve(u0, 2.0, dt, self.SPEC, PotentialSpec.zero(), store_every=10**6)
            errors.append(np.abs(traj.q[-1, 0] - (self.Q0 + 2.0 * self.V)).max())
        assert all(3.2 <= coarse / fine <= 4.8 for coarse, fine in zip(errors, errors[1:]))
        assert errors == pytest.approx([7.772585899147e-4, 1.939298763357e-4,
                                        4.846068561859e-5], rel=1e-9)


def rk4_over_g_step(u, dt, spec, pot):
    """Strang's step with its kick as classical RK4 on du/dt = G(u) over the
    whole state, each stage rebuilding the field's bracket."""
    kicked = nmdyn.integrator._rk4(lambda _, v: nonlinearity_G(v, spec, pot, u.grid), 0.0,
                                   free_flow(u, dt / 2.0, spec), dt)
    return free_flow(kicked, dt / 2.0, spec)


class TestHeldKick:
    """Strang's kick holds the field's bracket through its stages; it matches
    RK4 through G, whose stages rebuild the bracket, to rounding."""

    CHARGES = {"gaussian": FormFactor.gaussian(1.0), "ball": FormFactor.ball(1.5)}

    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("charge", ["gaussian", "ball"])
    def test_kick_matches_rk4_through_G(self, charge, rows):
        # measured about 1e-16 relative after 1 and after 50 steps
        cfg = load_config(QUICKSTART)
        spec = ParticleSpec(cfg.spec.masses, [self.CHARGES[charge]] * 2)
        u0 = cfg.point
        if rows:
            rng = np.random.default_rng(5)
            u0 = u0._like(u0.data + 0.05 * rng.standard_normal((rows, u0.data.size)))
        held = reference = u0
        for k in range(1, 51):
            held = strang_step(held, 0.01, spec, cfg.pot)
            reference = rk4_over_g_step(reference, 0.01, spec, cfg.pot)
            if k in (1, 50):
                gap = np.abs(held.data - reference.data).max(axis=-1)
                assert np.all(gap <= 1e-13 * np.abs(reference.data).max(axis=-1))


class TestExports:
    def test_csv_layout(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory_to_csv(short_trajectory, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["t", "H", "norm_X0", "norm_X12", "norm_X1"]
        assert header[5] == "p_0_0" and header[-1] == "q_1_2"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (6, 5 + 12)
        assert np.allclose(table[:, 0], short_trajectory.times)
        assert np.allclose(table[:, 1], short_trajectory.energies)
        assert np.allclose(table[:, 5:11], short_trajectory.p.reshape(6, -1))
