"""Measure-level checks: sampling, characteristic functions, the
characteristic-equation residual, moment envelopes.

Monte-Carlo assertions use the 3-standard-error rule with the standard
error estimated from the same ensemble, so they are scale-free; every
random quantity is drawn from a fixed seed, which makes each assertion a
frozen regression check rather than a flaky statistical one.  The
characteristic-equation residual carries two error sources — Monte-Carlo
noise and the O(dt^2) discretization bias of integrator + trapezoid rule —
so the gaussian-ensemble check budgets for both: the bias coefficient is
measured on the same ensemble at twice the snapshot spacing (where bias
dominates) and the fine run must fit inside 3*stderr + 1.5*c_fit*delta^2.
Convergence ratios quoted in comments were measured on this exact scenario.
"""

import numpy as np
import pytest

from conftest import random_point

from nmdyn import interaction
from nmdyn.geometry import build_kgrid, polarization_basis
from nmdyn.integrator import FlaggedHypothesesError, evolve
from nmdyn.interaction import FormFactor, PotentialSpec, hamiltonian
from nmdyn.measures import (
    Ensemble,
    EnsemblePropagationError,
    MeasureSpec,
    characteristic_function,
    characteristic_residual,
    ensemble_to_csv,
    moment_report,
    push_forward,
    sample_measure,
)
from nmdyn.measures import _exponential_form
from nmdyn.state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    real_inner,
)


def points_equal(a: PhaseSpacePoint, b: PhaseSpacePoint) -> bool:
    return (np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)
            and np.array_equal(a.field.values, b.field.values))


def zero_form_factor() -> FormFactor:
    return FormFactor.table([0.0, 1.0], [0.0, 0.0])


@pytest.fixture(scope="module")
def grid10():
    return build_kgrid(3, 2.0, 10)


@pytest.fixture(scope="module")
def scenario(grid10):
    """Coupled two-particle scenario on an unflagged budget grid."""
    basis = polarization_basis(grid10)
    ff = FormFactor.gaussian(1.0)
    spec = ParticleSpec(masses=np.array([1.0, 1.5]), form_factors=[ff, ff])
    pot = PotentialSpec.coulomb(0.5)
    decay = np.exp(-grid10.absk**2)
    amp = 0.3 * np.einsum("jlv,jv->lj", basis.vectors,
                          decay[:, None] * np.array([1.0, 0.5, -0.2])[None, :])
    center = PhaseSpacePoint(
        ParticleState(p=np.array([[0.3, -0.1, 0.2], [-0.2, 0.4, 0.1]]),
                      q=np.array([[0.5, 0.0, -0.3], [-0.4, 0.6, 0.2]])),
        FieldState(grid10, amp),
    )
    return {"basis": basis, "spec": spec, "pot": pot, "center": center,
            "decay": decay}


@pytest.fixture(scope="module")
def gauss_measure(scenario):
    return MeasureSpec.gaussian(
        scenario["center"], particle_scale=0.05,
        field_modes=[(0, 0), (1, 7), (0, 23)],
        field_variances=[0.02, 0.02, 0.02],
    )


@pytest.fixture(scope="module")
def directions(grid10, scenario):
    """Fixed test directions; decay-weighted so all X^sigma norms exist."""
    rng = np.random.default_rng(5)
    shape = scenario["center"].alpha.shape

    def draw(scale):
        a = scale * (rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape)) * scenario["decay"][None, :]
        return PhaseSpacePoint(
            ParticleState(p=scale * rng.standard_normal((2, 3)),
                          q=scale * rng.standard_normal((2, 3))),
            FieldState(grid10, a),
        )

    return {"y0": draw(0.5), "ys": [draw(0.5) for _ in range(3)],
            "y1": draw(0.8)}


@pytest.fixture(scope="module")
def pushed_pair(grid10, scenario, gauss_measure):
    """The same 32-sample ensemble pushed to T=1 at two step sizes.

    Both runs store every 10 steps, so the snapshot spacings delta are 0.1
    and 0.2; the coarse run calibrates the discretization-bias coefficient
    for the fine run's residual budget.
    """
    ens0 = sample_measure(gauss_measure, 32, seed=2026)
    common = dict(spec=scenario["spec"], pot=scenario["pot"], grid=grid10,
                  store_every=10, basis=scenario["basis"])
    fine = push_forward(ens0, 1.0, 1e-2, **common)
    coarse = push_forward(ens0, 1.0, 2e-2, **common)
    return {"initial": ens0, "fine": fine, "coarse": coarse,
            "delta_fine": 0.1, "delta_coarse": 0.2}


@pytest.fixture(scope="module")
def decoupled(tiny_grid):
    """Zero coupling, zero potential: the flow is the free flow."""
    zf = zero_form_factor()
    spec = ParticleSpec(masses=np.array([1.0, 1.5]), form_factors=[zf, zf])
    pot = PotentialSpec.zero()
    center = random_point(np.random.default_rng(42), tiny_grid)
    return {"spec": spec, "pot": pot, "center": center}


class TestSampling:
    def test_dirac_points_are_the_center(self, scenario):
        ens = sample_measure(MeasureSpec.dirac(scenario["center"]), 5, seed=3)
        assert ens.size == 5
        assert all(u is scenario["center"] for u in ens.points)

    def test_bit_reproducible(self, gauss_measure):
        a = sample_measure(gauss_measure, 6, seed=11)
        b = sample_measure(gauss_measure, 6, seed=11)
        assert all(points_equal(x, y) for x, y in zip(a.points, b.points))

    def test_counter_based_prefix_stability(self, gauss_measure):
        # sample m depends only on (seed, m), not on how many are drawn
        short = sample_measure(gauss_measure, 8, seed=11)
        long = sample_measure(gauss_measure, 16, seed=11)
        assert all(points_equal(x, y)
                   for x, y in zip(short.points, long.points[:8]))

    def test_different_seeds_differ(self, gauss_measure):
        a = sample_measure(gauss_measure, 1, seed=11)
        b = sample_measure(gauss_measure, 1, seed=12)
        assert not points_equal(a.points[0], b.points[0])

    def test_gaussian_mean_concentration(self, scenario, gauss_measure):
        # 64 samples, scale 0.05, seed 123: max |mean dp| measured 0.01807,
        # max |mean dq| 0.01527, both inside 3*scale/sqrt(M) = 0.01875
        ens = sample_measure(gauss_measure, 64, seed=123)
        center = scenario["center"]
        dp = np.mean([u.p - center.p for u in ens.points], axis=0)
        dq = np.mean([u.q - center.q for u in ens.points], axis=0)
        bound = 3 * 0.05 / np.sqrt(64)
        assert 0 < np.max(np.abs(dp)) <= bound
        assert 0 < np.max(np.abs(dq)) <= bound

    def test_gaussian_perturbs_only_listed_modes(self, scenario, gauss_measure):
        u = sample_measure(gauss_measure, 1, seed=0).points[0]
        diff = u.alpha - scenario["center"].alpha
        touched = np.zeros(diff.shape, dtype=bool)
        for lam, j in gauss_measure.field_modes:
            touched[lam, j] = True
        assert np.all(diff[~touched] == 0)
        assert np.all(diff[touched] != 0)

    def test_mixture_largest_remainder_blocks(self, scenario, grid10):
        c = scenario["center"]
        others = [
            PhaseSpacePoint(ParticleState(c.p + s, c.q), c.field)
            for s in (1.0, 2.0)
        ]
        mix = MeasureSpec.mixture([(1 / 3, MeasureSpec.dirac(c)),
                                   (1 / 3, MeasureSpec.dirac(others[0])),
                                   (1 / 3, MeasureSpec.dirac(others[1]))])
        # 4 samples over equal thirds: the leftover goes to the first
        # component (stable largest-remainder), blocks are contiguous
        ens = sample_measure(mix, 4, seed=1)
        assert ens.points[0] is c and ens.points[1] is c
        assert ens.points[2] is others[0] and ens.points[3] is others[1]

    def test_measure_validation(self, scenario):
        c = scenario["center"]
        with pytest.raises(ValueError, match="kind"):
            MeasureSpec(kind="uniform", center=c)
        with pytest.raises(ValueError, match="sum to 1"):
            MeasureSpec.mixture([(0.6, MeasureSpec.dirac(c)),
                                 (0.6, MeasureSpec.dirac(c))])
        with pytest.raises(ValueError, match="positive"):
            MeasureSpec.mixture([(1.5, MeasureSpec.dirac(c)),
                                 (-0.5, MeasureSpec.dirac(c))])
        with pytest.raises(ValueError, match="nested"):
            inner = MeasureSpec.mixture([(1.0, MeasureSpec.dirac(c))])
            MeasureSpec.mixture([(1.0, inner)])
        with pytest.raises(ValueError, match="outside the grid"):
            MeasureSpec.gaussian(c, field_modes=[(0, 10**9)],
                                 field_variances=[0.1])
        with pytest.raises(ValueError, match="nonnegative"):
            MeasureSpec.gaussian(c, field_modes=[(0, 0)],
                                 field_variances=[-0.1])
        with pytest.raises(ValueError, match="one variance per"):
            MeasureSpec.gaussian(c, field_modes=[(0, 0)], field_variances=[])
        with pytest.raises(ValueError, match="at least one sample"):
            sample_measure(MeasureSpec.dirac(c), 0, seed=0)

    def test_ensemble_validation(self, scenario):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(points=())
        with pytest.raises(ValueError, match="one trajectory per"):
            Ensemble(points=(scenario["center"],), trajectories=())


class TestCharacteristicFunction:
    def test_modulus_bound_and_zero_direction(self, grid10, gauss_measure,
                                              directions):
        ens = sample_measure(gauss_measure, 50, seed=4)
        assert abs(characteristic_function(ens, directions["y1"])) <= 1 + 1e-14
        zero = PhaseSpacePoint(
            ParticleState(np.zeros((2, 3)), np.zeros((2, 3))),
            FieldState(grid10, np.zeros((2, grid10.node_count))),
        )
        assert characteristic_function(ens, zero) == 1.0

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_dirac_closed_form(self, scenario, directions, sigma):
        ens = sample_measure(MeasureSpec.dirac(scenario["center"]), 7, seed=0)
        got = characteristic_function(ens, directions["y1"], sigma)
        want = np.exp(2j * np.pi
                      * real_inner(directions["y1"], scenario["center"], sigma))
        assert abs(got - want) <= 1e-14

    def test_gaussian_closed_form(self, grid10, scenario, gauss_measure,
                                  directions):
        # Re<y, u> is Gaussian under the sampling measure, so the exact
        # characteristic function is e^{2 pi i Re<y, center>} e^{-2 pi^2 Var}
        # with Var assembled from the per-coordinate response of the inner
        # product.  Measured gap 1.1e-3 at M=4096 against 3*stderr = 3.1e-2.
        y = directions["y1"]
        m_samples = 4096
        ens = sample_measure(gauss_measure, m_samples, seed=77)
        emp = characteristic_function(ens, y)

        var = 0.05**2 * (np.sum(y.p**2) + np.sum(y.q**2))
        zeros = ParticleState(np.zeros((2, 3)), np.zeros((2, 3)))
        for (lam, j), v in zip(gauss_measure.field_modes,
                               gauss_measure.field_variances):
            for unit in (1.0, 1.0j):
                e = np.zeros(scenario["center"].alpha.shape, dtype=complex)
                e[lam, j] = unit
                w = real_inner(y, PhaseSpacePoint(zeros, FieldState(grid10, e)),
                               0.0)
                var += (v / 2.0) * w**2
        exact = (np.exp(2j * np.pi * real_inner(y, scenario["center"], 0.0))
                 * np.exp(-2 * np.pi**2 * var))

        phases = np.array([np.exp(2j * np.pi * real_inner(y, u, 0.0))
                           for u in ens.points])
        stderr = np.sqrt(np.sum(np.abs(phases - emp)**2)
                         / (m_samples * (m_samples - 1)))
        assert abs(emp - exact) <= 3 * stderr

    def test_mixture_linearity(self, scenario, directions):
        c = scenario["center"]
        other = PhaseSpacePoint(ParticleState(c.p + 1.0, c.q - 0.5), c.field)
        mix = MeasureSpec.mixture([(0.75, MeasureSpec.dirac(c)),
                                   (0.25, MeasureSpec.dirac(other))])
        ens = sample_measure(mix, 8, seed=0)  # counts (6, 2)
        y = directions["y0"]
        got = characteristic_function(ens, y)
        want = (0.75 * np.exp(2j * np.pi * real_inner(y, c, 0.0))
                + 0.25 * np.exp(2j * np.pi * real_inner(y, other, 0.0)))
        assert abs(got - want) <= 1e-13


class TestPushForward:
    def test_zero_horizon_is_identity(self, tiny_grid, decoupled):
        ens0 = sample_measure(MeasureSpec.dirac(decoupled["center"]), 2, seed=0)
        ens = push_forward(ens0, 0.0, 0.1, decoupled["spec"], decoupled["pot"],
                           tiny_grid, allow_flagged=True)
        assert all(points_equal(a, b) for a, b in zip(ens.points, ens0.points))

    def test_dirac_commutes_with_flow(self, grid10, scenario):
        ens0 = sample_measure(MeasureSpec.dirac(scenario["center"]), 3, seed=0)
        ens = push_forward(ens0, 0.1, 2e-2, scenario["spec"], scenario["pot"],
                           grid10, basis=scenario["basis"])
        direct = evolve(scenario["center"], 0.1, 2e-2, scenario["spec"],
                        scenario["pot"], grid10,
                        basis=scenario["basis"]).endpoint()
        assert all(points_equal(u, direct) for u in ens.points)

    def test_group_property(self, grid10, scenario, gauss_measure):
        ens0 = sample_measure(gauss_measure, 2, seed=6)
        args = (scenario["spec"], scenario["pot"], grid10)
        kw = dict(basis=scenario["basis"])
        one_hop = push_forward(ens0, 0.6, 2e-2, *args, **kw)
        two_hop = push_forward(push_forward(ens0, 0.4, 2e-2, *args, **kw),
                               0.2, 2e-2, *args, **kw)
        assert all(points_equal(a, b)
                   for a, b in zip(one_hop.points, two_hop.points))

    def test_failure_carries_sample_index(self, tiny_grid, decoupled):
        calm = decoupled["center"]
        wild = PhaseSpacePoint(
            calm.particles,
            FieldState(tiny_grid,
                       1e8 * np.ones((2, tiny_grid.node_count), dtype=complex)),
        )
        ff = FormFactor.gaussian(1.0)
        spec = ParticleSpec(masses=np.array([1.0, 1.5]), form_factors=[ff, ff])
        mix = MeasureSpec.mixture([(0.5, MeasureSpec.dirac(calm)),
                                   (0.5, MeasureSpec.dirac(wild))])
        ens0 = sample_measure(mix, 2, seed=0)
        # a non-finite state, or a FloatingPointError under a raising errstate
        for mode in ("ignore", "raise"):
            with np.errstate(all=mode):
                with pytest.raises(EnsemblePropagationError, match="sample 1") as exc:
                    push_forward(ens0, 3.0, 1.0, spec, PotentialSpec.coulomb(0.5),
                                 tiny_grid, allow_flagged=True)
            assert exc.value.sample_index == 1

    @pytest.mark.parametrize("run, T, kwargs, match", [
        (push_forward, 0.1, dict(scheme="euler"), "scheme"),
        (push_forward, 0.1, dict(store_every=0), "store_every"),
        (push_forward, 0.1, dict(dt=0.03), "whole number"),
        (push_forward, 0.1, dict(dt=0.0), "dt must be nonzero"),
        (evolve, 1.0, dict(dt=0.0), "dt must be nonzero"),
        (evolve, 0.0, dict(dt=0.0), "dt must be nonzero"),
    ], ids=["scheme", "store_every", "dt-not-dividing-T", "dt-zero", "evolve-dt-zero",
            "evolve-T-and-dt-zero"])
    def test_bad_arguments_are_no_sample_failure(self, tiny_grid, decoupled, run,
                                                 T, kwargs, match):
        center = decoupled["center"]
        first = sample_measure(MeasureSpec.dirac(center), 2, seed=0) \
            if run is push_forward else center
        args = dict(T=T, dt=0.1, spec=decoupled["spec"], pot=decoupled["pot"],
                    grid=tiny_grid, allow_flagged=True)
        with pytest.raises(ValueError, match=match):
            run(first, **{**args, **kwargs})

    def test_flagged_grid_refused(self, small_grid, decoupled):
        ff = FormFactor.gaussian(1.0)
        spec = ParticleSpec(masses=np.array([1.0, 1.5]), form_factors=[ff, ff])
        center = PhaseSpacePoint(
            decoupled["center"].particles,
            FieldState(small_grid,
                       np.zeros((2, small_grid.node_count), dtype=complex)),
        )
        ens0 = sample_measure(MeasureSpec.dirac(center), 1, seed=0)
        with pytest.raises(FlaggedHypothesesError):
            push_forward(ens0, 0.1, 1e-2, spec, PotentialSpec.zero(), small_grid)

    def test_trajectories_match_endpoints(self, pushed_pair):
        fine = pushed_pair["fine"]
        assert fine.trajectories is not None and len(fine.trajectories) == 32
        assert all(points_equal(u, traj.endpoint())
                   for u, traj in zip(fine.points, fine.trajectories))
        # metadata carried through the push
        assert fine.seed == pushed_pair["initial"].seed
        assert fine.measure is pushed_pair["initial"].measure

    def test_points_are_read_only_views_of_trajectories(self, pushed_pair):
        fine = pushed_pair["fine"]
        for u, traj in zip(fine.points, fine.trajectories):
            assert np.shares_memory(u.data, traj.stored)
            with pytest.raises(ValueError, match="read-only"):
                u.data[0] = 0.0


class TestCharacteristicResidual:
    def test_zero_coupling_is_exact(self, tiny_grid, decoupled):
        # drift-removed generator vanishes identically; measured 3.1e-15
        meas = MeasureSpec.gaussian(decoupled["center"], particle_scale=0.1)
        ens = push_forward(sample_measure(meas, 4, seed=9), 0.5, 0.1,
                           decoupled["spec"], decoupled["pot"], tiny_grid,
                           allow_flagged=True)
        y = random_point(np.random.default_rng(1), tiny_grid, scale=0.3,
                         decay=False)
        chk = characteristic_residual(ens, y, 0.5, 0.0, 0.0,
                                      decoupled["spec"], decoupled["pot"],
                                      tiny_grid)
        assert chk.residual <= 1e-12

    def test_dirac_residual_second_order(self, grid10, scenario, directions):
        # residuals 1.369e-3 / 3.418e-4 / 8.542e-5 at dt = 0.04 / 0.02 / 0.01,
        # ratios 4.006 and 4.001
        dirac = MeasureSpec.dirac(scenario["center"])
        args = (scenario["spec"], scenario["pot"], grid10)
        res = {}
        for dt in (4e-2, 2e-2, 1e-2):
            ens = push_forward(sample_measure(dirac, 1, seed=0), 0.4, dt,
                               *args, basis=scenario["basis"])
            chk = characteristic_residual(ens, directions["y0"], 0.4, 0.0,
                                          0.0, *args, scenario["basis"])
            assert chk.mc_stderr == 0.0  # a point mass has a single path
            res[dt] = chk.residual
        assert 3.5 < res[4e-2] / res[2e-2] < 4.5
        assert 3.5 < res[2e-2] / res[1e-2] < 4.5
        assert res[1e-2] < 2e-4

    def test_gaussian_within_fitted_budget(self, grid10, scenario, directions,
                                           pushed_pair):
        # measured margins 5.1 / 2.0 / 1.8 for the three directions
        args = (scenario["spec"], scenario["pot"], grid10)
        fine = characteristic_residual(pushed_pair["fine"], directions["ys"],
                                       1.0, 0.0, 0.0, *args, scenario["basis"])
        coarse = characteristic_residual(pushed_pair["coarse"],
                                         directions["ys"], 1.0, 0.0, 0.0,
                                         *args, scenario["basis"])
        d_f, d_c = pushed_pair["delta_fine"], pushed_pair["delta_coarse"]
        for f, c in zip(fine, coarse):
            c_fit = c.residual / d_c**2
            assert f.residual <= 3 * f.mc_stderr + 1.5 * c_fit * d_f**2

    def test_batch_matches_single_calls(self, grid10, scenario, directions,
                                        pushed_pair):
        args = (scenario["spec"], scenario["pot"], grid10)
        batch = characteristic_residual(pushed_pair["fine"], directions["ys"],
                                        1.0, 0.0, 0.0, *args,
                                        scenario["basis"])
        for y, b in zip(directions["ys"], batch):
            s = characteristic_residual(pushed_pair["fine"], y, 1.0, 0.0, 0.0,
                                        *args, scenario["basis"])
            assert (b.lhs, b.rhs, b.residual, b.mc_stderr) == \
                   (s.lhs, s.rhs, s.residual, s.mc_stderr)

    def test_reversed_interval_same_residual(self, grid10, scenario,
                                             directions, pushed_pair):
        args = (scenario["spec"], scenario["pot"], grid10)
        fwd = characteristic_residual(pushed_pair["fine"], directions["y0"],
                                      1.0, 0.0, 0.0, *args, scenario["basis"])
        bwd = characteristic_residual(pushed_pair["fine"], directions["y0"],
                                      0.0, 1.0, 0.0, *args, scenario["basis"])
        # the pathwise defects flip sign, so the residual moduli coincide
        assert fwd.residual == bwd.residual
        assert (bwd.t0, bwd.t) == (1.0, 0.0)

    def test_json_round_trip(self, grid10, scenario, directions, pushed_pair):
        args = (scenario["spec"], scenario["pot"], grid10)
        chk = characteristic_residual(pushed_pair["fine"], directions["y0"],
                                      0.5, 0.2, 0.5, *args, scenario["basis"])
        blob = chk.to_json()
        assert complex(*blob["lhs"]) == chk.lhs
        assert blob["residual"] == chk.residual and blob["sigma"] == 0.5

    def test_validation(self, grid10, scenario, directions, pushed_pair,
                        gauss_measure):
        args = (scenario["spec"], scenario["pot"], grid10)
        with pytest.raises(ValueError, match="stored snapshot"):
            characteristic_residual(pushed_pair["fine"], directions["y0"],
                                    0.35, 0.0, 0.0, *args)
        with pytest.raises(ValueError, match="trajectories"):
            characteristic_residual(sample_measure(gauss_measure, 2, seed=0),
                                    directions["y0"], 0.1, 0.0, 0.0, *args)
        with pytest.raises(ValueError, match="at least one direction"):
            characteristic_residual(pushed_pair["fine"], [], 1.0, 0.0, 0.0,
                                    *args)


class TestMoments:
    def test_certificates_hold_on_coupled_run(self, grid10, scenario,
                                              pushed_pair):
        rep = moment_report(pushed_pair["fine"], scenario["spec"],
                            scenario["pot"], grid10)
        assert rep.violations_bounded == 0 and rep.violations_exp == 0
        assert rep.times.shape == rep.mean_p4.shape == rep.mean_field_l2_4.shape
        assert rep.observed_max_bounded < rep.c_bounded
        assert 0 < rep.c_exp
        # the envelopes are proofs-in-numbers, not fits: they must hold with
        # room to spare, and the observed maxima record the actual excursion
        assert rep.observed_max_bounded == pytest.approx(
            np.max(rep.mean_p4 + rep.mean_field_half4))
        blob = rep.to_json()
        assert blob["violations_bounded"] == 0
        assert blob["times"] == rep.times.tolist()

    def test_builds_no_refinement_grid(self, grid10, scenario, pushed_pair,
                                       monkeypatch):
        """The certificates need the base-grid ||chi/|k||| norms only."""
        args = (pushed_pair["fine"], scenario["spec"], scenario["pot"], grid10)
        expected = moment_report(*args).to_json()

        def refuse(*_):
            raise AssertionError("moment_report built a refinement grid")

        monkeypatch.setattr(interaction, "build_kgrid", refuse)
        assert moment_report(*args).to_json() == expected

    def test_decoupled_moments_are_constants(self, tiny_grid, decoupled):
        meas = MeasureSpec.gaussian(decoupled["center"], particle_scale=0.1)
        ens = push_forward(sample_measure(meas, 4, seed=9), 0.5, 0.1,
                           decoupled["spec"], decoupled["pot"], tiny_grid,
                           allow_flagged=True)
        rep = moment_report(ens, decoupled["spec"], decoupled["pot"],
                            tiny_grid)
        # free flow: p untouched bitwise, field norms conserved to rounding
        assert np.all(rep.mean_p4 == rep.mean_p4[0])
        assert np.allclose(rep.mean_field_half4, rep.mean_field_half4[0],
                           rtol=1e-12)
        assert np.allclose(rep.mean_field_l2_4, rep.mean_field_l2_4[0],
                           rtol=1e-12)
        assert rep.violations_bounded == 0 and rep.violations_exp == 0

    def test_empty_field_degenerate_envelope(self, tiny_grid):
        # one free particle, no field, no potential: the L^2 certificate
        # collapses to zero and must not report spurious violations
        zf = zero_form_factor()
        spec = ParticleSpec(masses=np.array([2.0]), form_factors=[zf])
        pot = PotentialSpec.zero()
        u0 = PhaseSpacePoint(
            ParticleState(np.array([[0.4, -0.2, 0.1]]), np.zeros((1, 3))),
            FieldState(tiny_grid,
                       np.zeros((2, tiny_grid.node_count), dtype=complex)),
        )
        ens = push_forward(sample_measure(MeasureSpec.dirac(u0), 2, seed=0),
                           1.0, 0.25, spec, pot, tiny_grid,
                           allow_flagged=True)
        rep = moment_report(ens, spec, pot, tiny_grid)
        assert rep.c_exp == 0.0 and rep.violations_exp == 0
        assert np.all(rep.mean_field_l2_4 == 0.0)
        p4 = float(np.sum(u0.p**2))**2
        assert np.all(rep.mean_p4 == p4)
        assert rep.violations_bounded == 0

    def test_needs_trajectories(self, grid10, scenario, gauss_measure):
        with pytest.raises(ValueError, match="trajectories"):
            moment_report(sample_measure(gauss_measure, 2, seed=0),
                          scenario["spec"], scenario["pot"], grid10)

    @pytest.mark.parametrize("seed", range(5))
    def test_exponential_form_is_tight_certificate(self, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(-1.0, 3.0, size=12))
        values = rng.uniform(0.01, 20.0, size=12)

        def gap(c):
            return float(np.min(c * np.exp(c * np.abs(times)) - values))

        c = _exponential_form(times, values)
        assert gap(c) >= 0.0
        assert gap(c * (1.0 - 1e-11)) < 0.0


class TestExports:
    def test_csv_layout(self, tmp_path, decoupled, tiny_grid):
        meas = MeasureSpec.gaussian(decoupled["center"], particle_scale=0.1)
        ens = push_forward(sample_measure(meas, 3, seed=9), 0.4, 0.1,
                           decoupled["spec"], decoupled["pot"], tiny_grid,
                           allow_flagged=True)
        path = tmp_path / "ensemble.csv"
        ensemble_to_csv(ens, path)
        header = path.read_text().splitlines()[0]
        assert header == "sample,t,H,norm_X0,norm_X12,norm_X1"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3 * 5, 6)
        assert np.array_equal(data[:, 0], np.repeat([0.0, 1.0, 2.0], 5))
        assert np.allclose(data[:5, 1], [0.0, 0.1, 0.2, 0.3, 0.4])
        got_h = data[5:10, 2]
        assert np.array_equal(got_h, ens.trajectories[1].energies)

    def test_csv_needs_trajectories(self, tmp_path, gauss_measure):
        with pytest.raises(ValueError, match="trajectories"):
            ensemble_to_csv(sample_measure(gauss_measure, 1, seed=0),
                            tmp_path / "x.csv")
