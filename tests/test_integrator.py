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

import json
import os
import weakref

import numpy as np
import pytest

import nmdyn.integrator
from nmdyn.cli import load_config
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
)
from nmdyn.state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    free_flow,
    phase_norm,
)

from conftest import random_point


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
            state = strang_step(state, 0.05, spec, pot, grid)
        exact = free_flow(u0, 0.5, spec)
        err = phase_norm(state - exact, 0.0)
        assert err <= 1e-13 * (1.0 + phase_norm(exact, 0.0))

    def test_interaction_step_free_case_is_identity(self, decoupled):
        grid, spec, pot, u0 = decoupled
        stepped = rk4_interaction_step(0.3, u0, 0.05, spec, pot, grid)
        assert np.array_equal(stepped.p, u0.p)
        assert np.array_equal(stepped.q, u0.q)
        assert np.array_equal(stepped.alpha, u0.alpha)

    def test_single_step_reversibility(self, coupled):
        grid, spec, pot, u0, _ = coupled
        forward = strang_step(u0, 1e-2, spec, pot, grid)
        back = strang_step(forward, -1e-2, spec, pot, grid)
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
        args = (cfg.spec, cfg.pot, cfg.grid, cfg.basis)
        strang_step(cfg.point, cfg.dt, *args)
        rk4_interaction_step(0.0, cfg.point, cfg.dt, *args)
        assert calls == {ParticleState: 0, FieldState: 0}

    def test_zero_dt_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError):
            strang_step(u0, 0.0, spec, pot, grid)
        with pytest.raises(ValueError):
            rk4_interaction_step(0.0, u0, 0.0, spec, pot, grid)


class TestEvolve:
    @pytest.mark.parametrize("scheme", ["strang", "interaction-rk4"])
    def test_stepper_last_state_is_evolve_endpoint(self, coupled, scheme):
        grid, spec, pot, u0, _ = coupled
        states = list(stepper(u0, 0.1, 0.02, spec, pot, grid, scheme))
        end = evolve(u0, 0.1, 0.02, spec, pot, grid, scheme=scheme,
                     store_every=3).endpoint()
        assert len(states) == 5
        assert np.array_equal(states[-1].p, end.p)
        assert np.array_equal(states[-1].q, end.q)
        assert np.array_equal(states[-1].alpha, end.alpha)

    def test_zero_horizon_records_initial_state(self, decoupled):
        grid, spec, pot, u0 = decoupled
        traj = evolve(u0, 0.0, 1e-2, spec, pot, grid, allow_flagged=True)
        assert traj.n_steps == 0
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.stored_indices, [0])
        end = traj.endpoint()
        assert np.array_equal(end.p, u0.p)
        assert np.array_equal(end.alpha, u0.alpha)

    def test_non_divisible_horizon_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError, match="whole number"):
            evolve(u0, 1.0, 0.3, spec, pot, grid, allow_flagged=True)

    def test_bad_arguments_rejected(self, decoupled):
        grid, spec, pot, u0 = decoupled
        with pytest.raises(ValueError, match="scheme"):
            evolve(u0, 0.1, 0.1, spec, pot, grid, scheme="euler", allow_flagged=True)
        with pytest.raises(ValueError, match="store_every"):
            evolve(u0, 0.1, 0.1, spec, pot, grid, store_every=0, allow_flagged=True)

    def test_flagged_spec_refused_without_override(self, small_grid):
        spec = ParticleSpec(
            masses=np.array([1.0]), form_factors=(FormFactor.gaussian(1.0),)
        )
        report = check_hypotheses(spec, 0.5, small_grid)
        assert report.flagged  # N=6 under-resolves the |k| -> 0 region
        rng = np.random.default_rng(3)
        u0 = random_point(rng, small_grid, n=1)
        with pytest.raises(FlaggedHypothesesError):
            evolve(u0, 0.0, 1e-2, spec, PotentialSpec.zero(), small_grid)
        traj = evolve(u0, 0.0, 1e-2, spec, PotentialSpec.zero(), small_grid,
                      allow_flagged=True)
        assert traj.n_steps == 0

    def test_store_every_keeps_endpoints(self, decoupled):
        grid, spec, pot, u0 = decoupled
        traj = evolve(u0, 1.0, 0.1, spec, pot, grid, store_every=3,
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
        traj = evolve(u0, 0.5, 0.1, spec, pot, grid, scheme="interaction-rk4",
                      allow_flagged=True)
        for k, t in enumerate(traj.times):
            exact = free_flow(u0, float(t), spec)
            assert np.array_equal(traj.q[k], exact.q)
            assert np.array_equal(traj.p[k], exact.p)

    def test_diagnostics_match_recomputation(self, coupled):
        grid, spec, pot, u0, report = coupled
        traj = evolve(u0, 0.1, 2e-2, spec, pot, grid, hypothesis_report=report)
        for k, state in zip(traj.stored_indices, traj.stored_states()):
            assert hamiltonian(state, spec, pot, grid) == traj.energies[k]
            assert phase_norm(state, 0.5) == traj.norms[k, 1]

    def test_energy_drift_is_second_order(self, coupled):
        grid, spec, pot, u0, report = coupled
        drifts = []
        for dt in (2e-2, 1e-2):
            traj = evolve(u0, 1.0, dt, spec, pot, grid, hypothesis_report=report)
            drifts.append(np.max(np.abs(traj.energies - traj.energies[0])))
        assert drifts[0] < 5e-4
        ratio = drifts[0] / drifts[1]
        assert 3.7 < ratio < 4.3  # measured 4.00

    def test_schemes_converge_to_each_other(self, coupled):
        grid, spec, pot, u0, report = coupled
        gaps = []
        for dt in (2e-2, 1e-2):
            a = evolve(u0, 0.5, dt, spec, pot, grid, scheme="strang",
                       hypothesis_report=report).endpoint()
            b = evolve(u0, 0.5, dt, spec, pot, grid, scheme="interaction-rk4",
                       hypothesis_report=report).endpoint()
            gaps.append(phase_norm(b - a, 0.0))
        assert gaps[0] < 5e-4
        ratio = gaps[0] / gaps[1]
        assert 3.7 < ratio < 4.3  # measured 4.00

    def test_global_error_is_second_order(self, coupled):
        grid, spec, pot, u0, report = coupled
        ref = evolve(u0, 0.4, 5e-3, spec, pot, grid,
                     hypothesis_report=report).endpoint()
        errs = [
            phase_norm(
                evolve(u0, 0.4, dt, spec, pot, grid,
                       hypothesis_report=report).endpoint() - ref, 0.0)
            for dt in (4e-2, 2e-2)
        ]
        ratio = errs[0] / errs[1]
        # against a dt/8 reference the ideal second-order ratio is 63/15 = 4.2
        assert 3.4 < ratio < 5.0  # measured 4.204

    def test_round_trip_reversibility(self, coupled):
        grid, spec, pot, u0, report = coupled
        fwd = evolve(u0, 0.5, 2e-3, spec, pot, grid, hypothesis_report=report)
        back = evolve(fwd.endpoint(), -0.5, -2e-3, spec, pot, grid,
                      hypothesis_report=report)
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
                evolve(u0, 10.0, 1.0, spec, PotentialSpec.zero(), tiny_grid,
                       allow_flagged=True)
        assert exc.value.time > 0.0
        assert not exc.value.state.is_finite()

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
    grid, spec, pot, u0, report = coupled
    return evolve(u0, 0.1, 2e-2, spec, pot, grid, store_every=2,
                  hypothesis_report=report)


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
        grid, spec, pot, u0, report = coupled
        traj = evolve(u0, T, dt, spec, pot, grid, store_every=store_every,
                      hypothesis_report=report)
        states = [u0, *stepper(u0, T, dt, spec, pot, grid)]
        expected = list(range(0, len(states), store_every))
        if expected[-1] != len(states) - 1:
            expected.append(len(states) - 1)
        assert traj.stored_indices.tolist() == expected
        assert traj.stored.shape == (len(expected), u0.data.size)
        for row, k in zip(traj.stored, expected):
            assert row.tobytes() == states[k].data.tobytes()

    def test_history_keeps_no_past_state_alive(self, coupled, monkeypatch):
        grid, spec, pot, u0, report = coupled
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
        traj = evolve(u0, 0.1, 1e-2, spec, pot, grid, store_every=100,
                      hypothesis_report=report)
        assert traj.n_steps == 10
        assert alive == [0] * 10


class TestDivergence:
    def test_initial_separation_equals_epsilon(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 0.1, 2e-2, spec, pot, grid)
        assert abs(rep.divergence[0] - 1e-6) <= 1e-12
        assert rep.times.size == rep.divergence.size == 6

    def test_envelope_has_no_violations(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 2.0, 1e-2, spec, pot, grid)
        assert rep.envelope_violations == 0
        assert rep.envelope_c >= rep.fitted_c
        assert 0.0 < rep.fitted_c < 0.5  # measured 0.0344

    def test_fitted_constant_stable_in_epsilon(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        cs = [
            divergence_report(u0, eps, direction, 2.0, 1e-2, spec, pot,
                              grid).fitted_c
            for eps in (1e-6, 1e-5)
        ]
        assert abs(cs[0] - cs[1]) <= 1e-4  # measured 1.7e-8

    def test_free_case_linear_growth_bound(self, decoupled):
        grid, spec, pot, u0 = decoupled
        rng = np.random.default_rng(11)
        raw = random_point(rng, grid, n=2, decay=False)
        direction = (1.0 / phase_norm(raw, 0.0)) * raw
        rep = divergence_report(u0, 1e-6, direction, 2.0, 1e-2, spec, pot, grid,
                                allow_flagged=True)
        # free flow moves q by t p/m and rotates the field, so the separation
        # can grow at most like (1 + t / min m) epsilon
        bound = (1.0 + rep.times / np.min(spec.masses)) * 1e-6
        assert np.all(rep.divergence <= bound * (1.0 + 1e-9))

    def test_bad_arguments_rejected(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        with pytest.raises(ValueError, match="epsilon"):
            divergence_report(u0, 0.0, direction, 0.1, 0.1, spec, pot, grid)
        with pytest.raises(ValueError, match="unit"):
            divergence_report(u0, 1e-6, 2.0 * direction, 0.1, 0.1, spec, pot, grid)
        rep = divergence_report(u0, 1e-6, direction, 0.0, 0.1, spec, pot, grid)
        assert rep.fitted_c == 0.0

    def test_json_payload_round_trips(self, coupled, direction):
        grid, spec, pot, u0, _ = coupled
        rep = divergence_report(u0, 1e-6, direction, 0.1, 5e-2, spec, pot, grid)
        payload = json.loads(json.dumps(rep.to_json()))
        assert payload["epsilon"] == 1e-6
        assert payload["envelope_violations"] == 0
        assert len(payload["times"]) == len(payload["divergence"]) == 3


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
