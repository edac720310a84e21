"""Tests for form factors, potentials, the vector potential and nonlinearities.

All inequality tests here assert *grid-exact* bounds: every constant is the
finite-dimensional Cauchy-Schwarz constant for the quadrature sum itself, so
violations would indicate implementation bugs, not discretization error.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling, json_form, random_field, random_point, rotate_frame

from nmdyn.geometry import KGrid, PolarizationBasis, build_kgrid, integrate_k, polarization_basis
from nmdyn.integrator import divergence_report, evolve
from nmdyn.interaction import (
    FormFactor,
    PotentialSpec,
    characteristic_density_m,
    check_hypotheses,
    compile_model,
    default_basis,
    hamiltonian,
    nonlinearity_F,
    nonlinearity_G,
    potential,
    potential_gradient_bound,
    vartheta,
)
from nmdyn.interaction import (
    _beta,
    _bracket,
    _compile,
    _hypothesis_norms,
    _pairs,
    _phases,
    _vector_potentials,
)
from nmdyn.measures import Ensemble, push_forward
from nmdyn.state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    field_norm,
    free_flow,
    phase_norm,
    real_inner,
)

GAUSS_COULOMB = 2.0 * np.pi * np.sqrt(np.pi / 2.0)  # int e^{-2|k|^2}/|k|^2 dk, d=3


def two_particle_spec():
    return ParticleSpec(
        np.array([1.0, 2.0]),
        (FormFactor.gaussian(1.0), FormFactor.ball(1.0)),
    )


def zero_form_factor():
    return FormFactor.table([0.0, 1.0], [0.0, 0.0])


class TestFormFactor:
    def test_gaussian_profile(self):
        ff = FormFactor.gaussian(2.0)
        r = np.array([0.0, 2.0, 4.0])
        assert np.allclose(ff.profile(r), [1.0, np.exp(-1.0), np.exp(-4.0)], rtol=1e-15)

    def test_ball_indicator(self):
        ff = FormFactor.ball(1.5)
        assert np.array_equal(ff.profile(np.array([0.1, 1.5, 1.50001])), [1.0, 1.0, 0.0])

    def test_point_is_unity(self):
        assert np.array_equal(FormFactor.point().profile(np.linspace(0, 9, 5)), np.ones(5))

    def test_table_interpolation_and_tails(self):
        ff = FormFactor.table([1.0, 2.0, 3.0], [1.0, 0.5, 0.25])
        assert np.allclose(ff.profile(np.array([1.5, 2.5])), [0.75, 0.375], rtol=1e-15)
        assert ff.profile(np.array([0.2]))[0] == 1.0      # clamp left
        assert ff.profile(np.array([3.1]))[0] == 0.0      # vanish right

    def test_from_csv_round_trip(self, tmp_path):
        path = tmp_path / "chi.csv"
        np.savetxt(path, np.column_stack([[0.0, 1.0, 2.0], [1.0, 0.7, 0.1]]), delimiter=",")
        ff = FormFactor.from_csv(path)
        assert np.allclose(ff.profile(np.array([0.5, 1.5])), [0.85, 0.4], rtol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_invalid_scales_raise(self, bad):
        with pytest.raises(ValueError):
            FormFactor.gaussian(bad)
        with pytest.raises(ValueError):
            FormFactor.ball(bad)

    def test_invalid_table_raises(self):
        with pytest.raises(ValueError):
            FormFactor.table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            FormFactor.table([0.0, 1.0], [1.0, 1.0, 1.0])

    def test_unknown_family_rejected_when_built(self):
        with pytest.raises(ValueError, match="family must be one of"):
            FormFactor(family="lorentzian")

    @given(width=st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_bounded_and_decreasing(self, width):
        r = np.linspace(0.0, 5.0, 40)
        vals = FormFactor.gaussian(width).profile(r)
        assert np.all(vals <= 1.0) and np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


class TestPotential:
    def test_zero_kind(self, small_grid):
        q = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        v, grad = potential(q, two_particle_spec(), PotentialSpec.zero(), small_grid)
        assert v == 0.0
        assert np.array_equal(grad, np.zeros((2, 3)))

    def test_cosine_value_at_origin(self, small_grid):
        pot = PotentialSpec.cosine(0.7, [1.0, 2.0, 3.0])
        q = np.zeros((2, 3))
        v, grad = potential(q, two_particle_spec(), pot, small_grid)
        assert v == pytest.approx(0.7, rel=1e-15)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_cosine_three_particles_action_reaction(self, small_grid, rng):
        pot = PotentialSpec.cosine(0.5, [1.0, 0.5, -0.3])
        spec = ParticleSpec(np.ones(3), tuple(FormFactor.gaussian(1.0) for _ in range(3)))
        q = rng.normal(size=(3, 3))
        _, grad = potential(q, spec, pot, small_grid)
        assert np.allclose(grad.sum(axis=0), 0.0, atol=1e-14)

    def test_smeared_zero_form_factor(self, small_grid):
        spec = ParticleSpec(np.array([1.0, 1.0]),
                            (FormFactor.gaussian(1.0), zero_form_factor()))
        w, grad = potential(np.array([[0.3, 0.1, -0.2], [0.0, 0.0, 0.0]]), spec,
                            PotentialSpec.coulomb(1.0), small_grid)
        assert w == 0.0
        assert np.array_equal(grad[0], np.zeros(3))

    def test_smeared_realness(self, small_grid, rng):
        """The pair terms z that V and grad V sum on H are the first half of
        the whole grid's, w_j g chi_1 chi_2/|k_j|^2 e^{2 pi i k_j.(q_1 - q_2)}
        written out over all M nodes; over the whole grid, w = sum z and
        grad w = 2 pi i z.k, the imaginary parts, which _potential_value and
        _potential_gradient drop, cancel in +/-k pairs."""
        spec, grid = two_particle_spec(), small_grid
        model = compile_model(spec, PotentialSpec.coulomb(0.8), grid)
        chi = np.array([ff.profile(grid.absk) for ff in spec.form_factors])
        kernel = grid.weights * 0.8 * chi[0] * chi[1] / grid.absk**2
        for _ in range(25):
            q = np.array([rng.normal(size=3), np.zeros(3)])
            ((_, _, z_half),) = _pairs(q, _phases(model, q), model)
            z = kernel * np.exp(2j * np.pi * (q[0] - q[1]) @ grid.nodes.T)
            assert np.abs(z_half - z[: grid.node_count // 2]).max() <= 1e-13 * np.abs(z).max()
            w, zk = np.sum(z), 2.0 * np.pi * (z @ grid.nodes)  # grad w = i zk
            scale = abs(w) + np.abs(zk).max() + 1.0
            assert abs(np.imag(w)) <= 1e-12 * scale
            assert np.abs(np.real(zk)).max() <= 1e-12 * scale

    def test_smeared_even_and_bounded_by_origin(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        w0, _ = potential(np.zeros((2, 3)), spec, pot, small_grid)
        for _ in range(10):
            x = rng.normal(size=3)
            wp, gp = potential(np.array([x, np.zeros(3)]), spec, pot, small_grid)
            wm, gm = potential(np.array([-x, np.zeros(3)]), spec, pot, small_grid)
            gp, gm = gp[0], gm[0]
            assert wp == pytest.approx(wm, abs=1e-13 * (1 + abs(wp)))
            assert np.allclose(gp, -gm, atol=1e-13 * (1 + np.abs(gp).max()))
            assert wp <= w0 * (1 + 1e-12)

    @pytest.mark.parametrize("kind", ["smeared-coulomb", "product-of-cos"])
    def test_gradient_matches_finite_differences(self, small_grid, rng, kind):
        spec = two_particle_spec()
        pot = (PotentialSpec.coulomb(0.8) if kind == "smeared-coulomb"
               else PotentialSpec.cosine(0.7, [1.0, 0.5, -0.3]))
        q = rng.normal(size=(2, 3))
        _, grad = potential(q, spec, pot, small_grid)
        errs = []
        for h in (1e-2, 1e-3):
            fd = np.zeros((2, 3))
            for i in range(2):
                for mu in range(3):
                    qp, qm = q.copy(), q.copy()
                    qp[i, mu] += h
                    qm[i, mu] -= h
                    fd[i, mu] = (potential(qp, spec, pot, small_grid)[0]
                                 - potential(qm, spec, pot, small_grid)[0]) / (2 * h)
            errs.append(np.abs(fd - grad).max())
        assert 80.0 < errs[0] / errs[1] < 120.0  # second-order differences

    def test_smeared_origin_value_converges(self):
        spec = ParticleSpec(np.array([1.0, 1.0]),
                            (FormFactor.gaussian(1.0), FormFactor.gaussian(1.0)))
        pot = PotentialSpec.coulomb(1.0)
        errs = []
        for N in (16, 32, 64):
            g = build_kgrid(3, 6.0, N)
            w, _ = potential(np.zeros((2, 3)), spec, pot, g)
            errs.append(abs(w - GAUSS_COULOMB))
        assert errs[2] < errs[1] < errs[0]

    def test_gradient_sup_bound_holds(self, small_grid, rng):
        spec = two_particle_spec()
        for pot in (PotentialSpec.coulomb(0.8),
                    PotentialSpec.cosine(0.7, [1.0, 0.5, -0.3]),
                    PotentialSpec.zero()):
            bound = potential_gradient_bound(spec, pot, small_grid)
            for _ in range(100):
                q = 3.0 * rng.normal(size=(2, 3))
                _, grad = potential(q, spec, pot, small_grid)
                norms = np.linalg.norm(grad, axis=1)
                assert np.all(norms <= bound * (1 + 1e-12) + 1e-15)

    @pytest.mark.parametrize("K, N, w_at_x", [(2.5, 16, 2.4642), (2.0, 10, 1.9701)])
    def test_smeared_coulomb_is_anti_periodic_in_the_box(self, K, N, w_at_x):
        """A node sum flips sign under x -> x + L e_mu with L = N/(2K), so the
        grid's w is the continuum one (4.1855 here) plus alternating images."""
        grid = build_kgrid(3, K, N)
        spec = ParticleSpec(np.ones(2), (FormFactor.gaussian(1.0),) * 2)
        pot = PotentialSpec.coulomb(1.0)
        x = np.array([0.7, 0.2, 0.1])
        w, grad = potential(np.array([x, np.zeros(3)]), spec, pot, grid)
        assert w == pytest.approx(w_at_x, abs=1e-4)
        for mu in range(3):
            w_image, grad_image = potential(
                np.array([x + N / (2 * K) * np.eye(3)[mu], np.zeros(3)]), spec, pot, grid)
            assert abs(w_image + w) <= 1e-12
            assert np.abs(grad_image[0] + grad[0]).max() <= 1e-12

    def test_wrong_separation_shape_raises(self, small_grid):
        for shape in ((2, 4), (3, 3), (3,)):
            with pytest.raises(ValueError, match="positions must have shape"):
                potential(np.zeros(shape), two_particle_spec(),
                          PotentialSpec.coulomb(1.0), small_grid)

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            PotentialSpec.coulomb(0.0)
        with pytest.raises(ValueError):
            PotentialSpec.cosine(1.0, [[1.0, 2.0]])

    def test_unknown_kind_rejected_when_built(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            PotentialSpec(kind="yukawa")


class TestHypotheses:
    def test_scenario_form_factors_unflagged(self):
        grid = build_kgrid(3, 2.5, 16)
        report = check_hypotheses(two_particle_spec(), 0.5, grid)
        assert report.norms.shape == (2, 4)
        assert not report.flagged

    def test_point_charge_flagged(self, small_grid):
        spec = ParticleSpec(np.array([1.0]), (FormFactor.point(),))
        report = check_hypotheses(spec, 0.5, small_grid)
        assert report.flagged
        # the tail norms grow without bound as the cutoff widens
        assert np.all(report.norms_wide[0, 2:] > 1.5 * report.norms[0, 2:])

    def test_gaussian_tail_stable_at_large_cutoff(self):
        grid = build_kgrid(3, 6.0, 16)
        spec = ParticleSpec(np.array([1.0]), (FormFactor.gaussian(1.0),))
        report = check_hypotheses(spec, 0.5, grid)
        assert np.allclose(report.norms_wide, report.norms, rtol=1e-8)

    @pytest.mark.parametrize("family", ["gaussian", "ball", "point"])
    @pytest.mark.parametrize("d, K, N", [(3, 2.5, 8), (4, 1.5, 4)])
    def test_refinements_are_the_refined_grids_norms(self, family, d, K, N):
        ff = {"gaussian": FormFactor.gaussian(1.0), "ball": FormFactor.ball(1.3),
              "point": FormFactor.point()}[family]
        spec = ParticleSpec(np.array([1.0, 2.0]), (ff, FormFactor.gaussian(0.7)))
        report = check_hypotheses(spec, 0.75, build_kgrid(d, K, N))
        assert _same_bits(report.norms_fine,
                          _hypothesis_norms(spec, 0.75, build_kgrid(d, K, 2 * N)))
        assert _same_bits(report.norms_wide,
                          _hypothesis_norms(spec, 0.75, build_kgrid(d, 2 * K, 2 * N)))

    def test_refinement_grids_are_not_memoized(self):
        def lookups():
            return [(c.cache_info().hits, c.cache_info().misses) for c in (default_basis, _compile)]
        before = lookups()
        check_hypotheses(two_particle_spec(), 0.5, build_kgrid(3, 2.0, 6))
        assert lookups() == before

    def test_sigma_validation(self, small_grid):
        with pytest.raises(ValueError):
            check_hypotheses(two_particle_spec(), 0.3, small_grid)

    def test_report_serializes(self, small_grid):
        report = check_hypotheses(two_particle_spec(), 0.75, small_grid)
        data = json_form(report)
        assert set(data) == {"sigma", "labels", "norms", "norms_fine",
                             "norms_wide", "flags", "flagged"}
        assert data["sigma"] == 0.75


class TestVectorPotential:
    def test_zero_field_gives_zero(self, small_grid):
        alpha = np.zeros((2, small_grid.node_count), dtype=complex)
        a, _ = coupling([[0.3, 0.1, -0.2], [0.0, 0.5, 0.0]], alpha,
                        two_particle_spec(), small_grid)
        assert np.array_equal(a, np.zeros((2, 3)))

    def test_linear_in_field(self, small_grid, rng):
        spec = two_particle_spec()
        q = rng.normal(size=(2, 3))
        f1 = random_field(rng, small_grid, decay=False).values
        f2 = random_field(rng, small_grid, decay=False).values
        lhs, _ = coupling(q, 2.0 * f1 - 0.5 * f2, spec, small_grid)
        rhs = (2.0 * coupling(q, f1, spec, small_grid)[0]
               - 0.5 * coupling(q, f2, spec, small_grid)[0])
        assert np.allclose(lhs, rhs, atol=1e-13 * (1 + np.abs(rhs).max()))

    def test_matches_complex_quadrature_and_is_real(self, small_grid, rng):
        """Independent route: assemble the full +/- frequency integrand."""
        spec = two_particle_spec()
        basis = default_basis(small_grid)
        for _ in range(10):
            q = rng.normal(size=(2, 3))
            alpha = random_field(rng, small_grid, decay=False)
            chi = spec.form_factors[0].profile(small_grid.absk)
            pref = chi / np.sqrt(2.0 * small_grid.absk)
            plus = np.exp(2j * np.pi * (small_grid.nodes @ q[0]))
            integrand = np.einsum("jlv,lj->jv", basis.vectors,
                                  alpha.values * plus[None, :]
                                  + np.conj(alpha.values) * np.conj(plus)[None, :])
            oracle = integrate_k(small_grid, (pref[:, None] * integrand).T)
            scale = np.abs(oracle).max() + 1.0
            assert np.abs(np.imag(oracle)).max() <= 1e-12 * scale
            a, _ = coupling(q, alpha.values, spec, small_grid, basis)
            assert np.allclose(a[0], np.real(oracle), atol=1e-12 * scale)

    def test_refinement_convergence(self):
        """Value stabilizes under N-doubling for a fixed transverse profile."""
        q = np.array([[0.3, -0.2, 0.1]])
        spec = ParticleSpec(np.array([1.0]), (FormFactor.gaussian(1.0),))
        vals = []
        for N in (8, 16, 32, 64):
            g = build_kgrid(3, 2.0, N)
            E = polarization_basis(g).vectors
            c = np.exp(-g.absk**2)[:, None] * np.array([1.0, 0.5, -0.2])
            alpha = FieldState(g, np.einsum("jlv,jv->lj", E, c).astype(complex))
            vals.append(coupling(q, alpha.values, spec, g)[0][0])
        errs = [np.linalg.norm(v - vals[-1]) for v in vals[:-1]]
        assert errs[2] < errs[1] < errs[0]
        assert errs[0] <= 50.0 * errs[1]  # one convergence family

    def test_frame_covariance(self, small_grid, rng):
        spec = two_particle_spec()
        basis = default_basis(small_grid)
        alpha = random_field(rng, small_grid, decay=False)
        q = rng.normal(size=(2, 3))
        rotated_basis, rotated_alpha, _ = rotate_frame(rng, small_grid, basis, alpha.values)
        a1, _ = coupling(q, alpha.values, spec, small_grid, basis)
        a2, _ = coupling(q, rotated_alpha, spec, small_grid, rotated_basis)
        assert np.allclose(a1, a2, atol=1e-12 * (1 + np.abs(a1).max()))

    def test_gradient_matches_finite_differences(self, small_grid, rng):
        spec = two_particle_spec()
        alpha = random_field(rng, small_grid, decay=False).values
        q = rng.normal(size=(2, 3))
        exact = coupling(q, alpha, spec, small_grid)[1]  # [i, nu, mu]
        errs = []
        for h in (1e-2, 1e-3):
            fd = np.zeros((2, 3, 3))
            for mu in range(3):
                e = np.zeros(3)
                e[mu] = h
                fd[:, :, mu] = (coupling(q + e, alpha, spec, small_grid)[0]
                                - coupling(q - e, alpha, spec, small_grid)[0]) / (2 * h)
            errs.append(np.abs(fd - exact).max())
        assert 80.0 < errs[0] / errs[1] < 120.0


@pytest.fixture(scope="module")
def bound_setup():
    grid = build_kgrid(3, 2.0, 6)
    spec = two_particle_spec()
    report = check_hypotheses(spec, 0.5, grid)
    chi_l2 = np.array([
        np.sqrt(float(integrate_k(grid, ff.profile(grid.absk) ** 2)))
        for ff in spec.form_factors
    ])
    return grid, spec, report.norms, chi_l2


class TestPointwiseBounds:
    """Grid-exact Cauchy-Schwarz bounds with the explicit constants.

    Column order of the hypothesis norms: chi/|k|, chi/sqrt|k|, sqrt|k| chi,
    |k|^{3/2-sigma} chi.
    """

    C_DIM = np.sqrt(2.0 * (3 - 1))

    def test_potential_bounds(self, bound_setup, rng):
        grid, spec, norms, _ = bound_setup
        for _ in range(200):
            u = random_point(rng, grid, scale=rng.uniform(0.05, 3.0), decay=False)
            i = int(rng.integers(0, 2))
            a = coupling(u.q, u.alpha, spec, grid)[0][i]
            l2 = field_norm(u.field, 0.0)
            h12 = field_norm(u.field, 0.5, "homogeneous")
            lhs = np.linalg.norm(a)
            assert lhs <= self.C_DIM * norms[i, 1] * l2 * (1 + 1e-12) + 1e-15
            assert lhs <= self.C_DIM * norms[i, 0] * h12 * (1 + 1e-12) + 1e-15

    def test_gradient_bounds(self, bound_setup, rng):
        grid, spec, norms, chi_l2 = bound_setup
        for _ in range(200):
            u = random_point(rng, grid, scale=rng.uniform(0.05, 3.0), decay=False)
            i = int(rng.integers(0, 2))
            l2 = field_norm(u.field, 0.0)
            h12 = field_norm(u.field, 0.5, "homogeneous")
            da = coupling(u.q, u.alpha, spec, grid)[1][i]
            for nu in range(3):
                lhs = np.linalg.norm(da[nu])
                assert lhs <= 2 * np.pi * self.C_DIM * norms[i, 2] * l2 * (1 + 1e-12) + 1e-15
                assert lhs <= 2 * np.pi * self.C_DIM * chi_l2[i] * h12 * (1 + 1e-12) + 1e-15

    def test_lipschitz_bounds(self, bound_setup, rng):
        grid, spec, norms, _ = bound_setup
        c1 = self.C_DIM * norms[0, 1]
        c2 = 2 * np.pi * self.C_DIM * norms[0, 2]
        d2 = (2 * np.pi) ** 2 * self.C_DIM * norms[0, 3]
        for _ in range(200):
            u = random_point(rng, grid, scale=rng.uniform(0.05, 3.0), decay=False)
            v = random_point(rng, grid, scale=rng.uniform(0.05, 3.0), decay=False)
            diff = FieldState(grid, u.alpha - v.alpha)
            dq = np.linalg.norm(u.q[0] - v.q[0])
            (a_u, da_u), (a_v, da_v) = (coupling(w.q, w.alpha, spec, grid) for w in (u, v))
            a_diff = np.linalg.norm(a_u[0] - a_v[0])
            bound = c1 * field_norm(diff, 0.0) + c2 * dq * field_norm(v.field, 0.0)
            assert a_diff <= bound * (1 + 1e-12) + 1e-15
            for nu in range(3):
                g_diff = np.linalg.norm(da_u[0, nu] - da_v[0, nu])
                g_bound = (c2 * field_norm(diff, 0.0)
                           + d2 * dq * field_norm(v.field, 0.5, "homogeneous"))
                assert g_diff <= g_bound * (1 + 1e-12) + 1e-15

    def test_vector_field_bounds(self, bound_setup, rng):
        grid, spec, norms, _ = bound_setup
        pot = PotentialSpec.cosine(0.7, [1.0, 0.5, -0.3])
        grad_bound = potential_gradient_bound(spec, pot, grid)
        for _ in range(200):
            u = random_point(rng, grid, scale=rng.uniform(0.05, 3.0), decay=False)
            f = nonlinearity_F(u, spec, pot, grid)
            l2 = field_norm(u.field, 0.0)
            pma = np.empty(2)
            a_all, _ = coupling(u.q, u.alpha, spec, grid)
            for i in range(2):
                pma[i] = np.linalg.norm(u.p[i] - a_all[i])
                c_a = self.C_DIM * norms[i, 1]
                c_g = 2 * np.pi * self.C_DIM * norms[i, 2]
                pabs = np.linalg.norm(u.p[i])
                m_i = spec.masses[i]
                assert (np.linalg.norm(f.q[i])
                        <= (pabs + c_a * l2) / m_i * (1 + 1e-12) + 1e-15)
                rhs = np.sqrt(3.0) / m_i * (pabs + c_a * l2) * c_g * l2 + grad_bound[i]
                assert np.linalg.norm(f.p[i]) <= rhs * (1 + 1e-12) + 1e-15
            field_factor = np.sqrt((3 - 1) / 2.0)
            rhs_h1 = sum(field_factor * norms[i, 2] * pma[i] / spec.masses[i]
                         for i in range(2))
            rhs_l2 = sum(field_factor * norms[i, 1] * pma[i] / spec.masses[i]
                         for i in range(2))
            assert field_norm(f.field, 1.0, "homogeneous") <= rhs_h1 * (1 + 1e-12) + 1e-15
            assert field_norm(f.field, 0.0) <= rhs_l2 * (1 + 1e-12) + 1e-15


class TestEnergy:
    def test_zero_point(self, small_grid):
        u = PhaseSpacePoint(
            ParticleState(np.zeros((2, 3)), np.zeros((2, 3))),
            FieldState(small_grid, np.zeros((2, small_grid.node_count), dtype=complex)),
        )
        assert hamiltonian(u, two_particle_spec(), PotentialSpec.zero(), small_grid) == 0.0

    def test_kinetic_only(self, small_grid):
        p = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]])
        u = PhaseSpacePoint(
            ParticleState(p, np.zeros((2, 3))),
            FieldState(small_grid, np.zeros((2, small_grid.node_count), dtype=complex)),
        )
        spec = two_particle_spec()
        expected = np.sum(p**2, axis=1) / (2.0 * spec.masses)
        h = hamiltonian(u, spec, PotentialSpec.zero(), small_grid)
        assert h == pytest.approx(expected.sum(), rel=1e-15)

    def test_pure_field_energy(self):
        grid = build_kgrid(3, 6.0, 48)
        vals = np.zeros((2, grid.node_count), dtype=complex)
        vals[0] = np.exp(-grid.absk**2)
        u = PhaseSpacePoint(
            ParticleState(np.zeros((1, 3)), np.zeros((1, 3))),
            FieldState(grid, vals),
        )
        spec = ParticleSpec(np.array([1.0]), (zero_form_factor(),))
        h = hamiltonian(u, spec, PotentialSpec.zero(), grid)
        assert h == pytest.approx(np.pi / 2.0, rel=1e-3)

    def test_frame_covariance(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        basis = default_basis(small_grid)
        u = random_point(rng, small_grid, decay=False)
        rotated_basis, rotated_alpha, _ = rotate_frame(rng, small_grid, basis, u.alpha)
        u2 = PhaseSpacePoint(u.particles, FieldState(small_grid, rotated_alpha))
        h1 = hamiltonian(u, spec, pot, small_grid, basis)
        h2 = hamiltonian(u2, spec, pot, small_grid, rotated_basis)
        assert h1 == pytest.approx(h2, abs=1e-12 * (1 + abs(h1)))


class TestModel:
    def test_default_basis_spellings_share_one_model(self, small_grid):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        model = compile_model(spec, pot, small_grid)
        assert model is compile_model(spec, pot, small_grid, default_basis(small_grid))
        assert set(model.pair) == {(0, 1)}

    def test_equal_grids_get_distinct_models_and_equal_results(self, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        grid_a, grid_b = build_kgrid(3, 2.0, 6), build_kgrid(3, 2.0, 6)
        assert compile_model(spec, pot, grid_a) is not compile_model(spec, pot, grid_b)
        u = random_point(rng, grid_a, decay=False)
        u_b = PhaseSpacePoint(u.particles, FieldState(grid_b, u.alpha))
        g_a = nonlinearity_G(u, spec, pot, grid_a)
        g_b = nonlinearity_G(u_b, spec, pot, grid_b)
        assert np.array_equal(g_a.p, g_b.p)
        assert np.array_equal(g_a.q, g_b.q)
        assert np.array_equal(g_a.alpha, g_b.alpha)

    @pytest.mark.parametrize("kernel", ["hamiltonian", "nonlinearity_G", "nonlinearity_F",
                                        "vartheta", "m_at_u", "m_at_xi", "evolve",
                                        "push_forward"])
    def test_kernels_refuse_a_grid_that_is_not_their_states(self, rng, kernel):
        """Same N, other K: the field arrays fit, so only the check tells."""
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        grid, grid_b = build_kgrid(3, 2.0, 10), build_kgrid(3, 2.5, 10)
        u = random_point(rng, grid)
        u_b = PhaseSpacePoint(u.particles, FieldState(grid_b, u.alpha))
        calls = {
            "hamiltonian": lambda: hamiltonian(u, spec, pot, grid_b),
            "nonlinearity_G": lambda: nonlinearity_G(u, spec, pot, grid_b),
            "nonlinearity_F": lambda: nonlinearity_F(u, spec, pot, grid_b),
            "vartheta": lambda: vartheta(0.1, u, spec, pot, grid_b),
            "m_at_u": lambda: characteristic_density_m(0.1, u_b, u, spec, pot, grid_b),
            "m_at_xi": lambda: characteristic_density_m(0.1, u, u_b, spec, pot, grid_b),
            # a run reads its grid from its first state, u_b here, so the
            # stray state is a later one: the divergence direction of evolve's
            # sibling, and the push's second sample
            "evolve": lambda: divergence_report(u_b, 1e-6, (1.0 / phase_norm(u, 0.0)) * u,
                                                0.1, 0.05, spec, pot, allow_flagged=True),
            "push_forward": lambda: push_forward(Ensemble(points=(u_b, u), seed=0), 0.1, 0.05,
                                                 spec, pot, allow_flagged=True),
        }
        with pytest.raises(ValueError, match=r"state on the grid \(d, K, N\) = \(3, 2.0, 10\)"):
            calls[kernel]()


    def test_compile_refuses_a_grid_that_is_not_mirrored(self):
        grid = build_kgrid(3, 2.0, 4)
        nodes = grid.nodes + 0.1  # still the tensor product of its axes
        shifted = KGrid(d=3, K=2.0, N=4, nodes=nodes, weights=grid.weights,
                        absk=np.linalg.norm(nodes, axis=1))
        with pytest.raises(ValueError, match="grid is not mirrored"):
            compile_model(two_particle_spec(), PotentialSpec.zero(), shifted)

    def test_compile_refuses_a_frame_that_is_not_transverse(self):
        grid = build_kgrid(3, 2.0, 4)
        vectors = polarization_basis(grid).vectors.copy()
        vectors[0] = np.eye(2, 3)  # node 0 of H, whose k is not along e_3
        with pytest.raises(ValueError, match="frame is not mirrored"):
            compile_model(two_particle_spec(), PotentialSpec.zero(), grid,
                          PolarizationBasis(grid, vectors))

    def test_compiling_does_not_import_numpy_ma(self):
        # numpy.ma costs about 12 ms of import on every command that compiles
        code = ("import sys\n"
                "from nmdyn.geometry import build_kgrid\n"
                "from nmdyn.interaction import FormFactor, PotentialSpec, compile_model\n"
                "from nmdyn.state import ParticleSpec\n"
                "spec = ParticleSpec([1.0, 2.0], [FormFactor.gaussian(1.0)] * 2)\n"
                "compile_model(spec, PotentialSpec.coulomb(0.5), build_kgrid(3, 2.0, 4))\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestTensorProductPhases:
    @pytest.mark.parametrize("d, K, N", [(3, 2.0, 6), (4, 2.0, 6)])
    def test_axes_reproduce_nodes(self, d, K, N):
        grid = build_kgrid(d, K, N)
        model = compile_model(two_particle_spec(), PotentialSpec.zero(), grid)
        assert model.axes.shape == (d, N)
        mesh = np.stack(np.meshgrid(*model.axes, indexing="ij"), axis=-1)
        assert np.array_equal(mesh.reshape(-1, d), grid.nodes)

    @pytest.mark.parametrize("d, K, N", [(3, 2.0, 6), (4, 2.0, 6)])
    def test_phases_match_direct_exponential(self, d, K, N, rng):
        """The phases on H, the first M/2 nodes.  Both sides round the
        argument 2 pi k.q, at about 1e-15 |k.q|, so positions stay in the
        unit box."""
        grid = build_kgrid(d, K, N)
        model = compile_model(two_particle_spec(), PotentialSpec.zero(), grid)
        for _ in range(20):
            q = rng.uniform(-1.0, 1.0, size=(2, d))
            direct = np.exp(-2j * np.pi * q @ grid.nodes.T)[:, : grid.node_count // 2]
            assert np.abs(_phases(model, q) - direct).max() <= 1e-14


# The interaction docstring formulas as plain loops over the grid nodes,
# sharing nothing with the kernel but the grid, the frame and chi's profile.

def _node_kernel(spec, grid, i, x, s):
    """w_j chi_i/sqrt(2|k_j|) e^{-2 pi i k_j.x + i s |k_j|} for every node j."""
    chi = spec.form_factors[i].profile(grid.absk)
    out = np.empty(grid.node_count, dtype=complex)
    for j in range(grid.node_count):
        out[j] = (grid.weights[j] * chi[j] / np.sqrt(2.0 * grid.absk[j])
                  * np.exp(-2j * np.pi * (grid.nodes[j] @ x) + 1j * s * grid.absk[j]))
    return out


def _loop_vector_potential(spec, grid, basis, i, q, alpha):
    """A_i^nu = sum (z + conj z) with z = w eps^nu chi/sqrt(2|k|) alpha e^{2 pi i k.q},
    and d A_i^nu/d q^mu = sum 2 Re(2 pi i k^mu z)."""
    d = grid.d
    chi = spec.form_factors[i].profile(grid.absk)
    a, da = np.zeros(d), np.zeros((d, d))
    for j in range(grid.node_count):
        k = grid.nodes[j]
        for lam in range(d - 1):
            z = (grid.weights[j] * basis.vectors[j, lam] * chi[j] / np.sqrt(2.0 * grid.absk[j])
                 * alpha[lam, j] * np.exp(2j * np.pi * (k @ q)))
            a += 2.0 * z.real
            da += 2.0 * np.real(2j * np.pi * z[:, None] * k[None, :])
    return a, da


def _loop_potential(spec, pot, grid, q):
    """V = sum_{i<j} w_ij(q_i - q_j) and grad V, with
    w_ij(x) = g int chi_i chi_j/|k|^2 e^{2 pi i k.x} dk."""
    n = q.shape[0]
    v, grad = 0.0, np.zeros_like(q)
    for i in range(n):
        for j in range(i + 1, n):
            chi_i = spec.form_factors[i].profile(grid.absk)
            chi_j = spec.form_factors[j].profile(grid.absk)
            for node in range(grid.node_count):
                k = grid.nodes[node]
                kern = (grid.weights[node] * pot.g * chi_i[node] * chi_j[node]
                        / grid.absk[node] ** 2)
                e = np.exp(2j * np.pi * (k @ (q[i] - q[j])))
                v += (kern * e).real
                gw = (2j * np.pi * kern * e * k).real
                grad[i] += gw
                grad[j] -= gw
    return v, grad


def _loop_G(u, spec, pot, grid, basis):
    n, d = u.p.shape
    _, grad_v = _loop_potential(spec, pot, grid, u.q)
    gp, gq = np.zeros((n, d)), np.zeros((n, d))
    galpha = np.zeros((d - 1, grid.node_count), dtype=complex)
    for i in range(n):
        a, da = _loop_vector_potential(spec, grid, basis, i, u.q[i], u.alpha)
        pma = u.p[i] - a
        chi = spec.form_factors[i].profile(grid.absk)
        for nu in range(d):
            gp[i] += pma[nu] * da[nu] / spec.masses[i]
        gp[i] -= grad_v[i]
        gq[i] = -a / spec.masses[i]
        for j in range(grid.node_count):
            for lam in range(d - 1):
                galpha[lam, j] += (1j * chi[j] / np.sqrt(2.0 * grid.absk[j])
                                   * (pma / spec.masses[i] @ basis.vectors[j, lam])
                                   * np.exp(-2j * np.pi * (grid.nodes[j] @ u.q[i])))
    return gp, gq, galpha


def _loop_density_m(s, xi, u, spec, pot, grid, basis):
    n, d = u.p.shape
    x = u.q + s * u.p / spec.masses[:, None]
    x0 = xi.q + s * xi.p / spec.masses[:, None]
    total = 0.0
    for i in range(n):
        kern = _node_kernel(spec, grid, i, x[i], s)
        a, b, g = (np.zeros(d, dtype=complex) for _ in range(3))
        for j in range(grid.node_count):
            for lam in range(d - 1):
                big_k = kern[j] * basis.vectors[j, lam]
                a += np.conj(u.alpha[lam, j]) * big_k
                b += np.conj(xi.alpha[lam, j]) * big_k
                g += np.conj(u.alpha[lam, j]) * (grid.nodes[j] @ x0[i]) * big_k
        big_a = 2.0 * a.real
        pma = u.p[i] - big_a
        total += (2.0 * pma @ (4.0 * np.pi * g.imag) + np.sqrt(2.0) * pma @ b.imag
                  + 2.0 * big_a @ xi.p[i]) / spec.masses[i]
    _, grad_v = _loop_potential(spec, pot, grid, x)
    return total - 2.0 * float(np.sum(grad_v * x0))


def _assert_close(value, reference, rel=1e-12):
    value, reference = np.asarray(value), np.asarray(reference)
    assert np.abs(value - reference).max() <= rel * np.abs(reference).max()


KERNEL_GRIDS = [(3, 2.0, 6), (4, 1.5, 4)]


def _whole_grid_sums(u, spec, pot, grid, basis):
    """A, grad A, V, grad V, G and H as einsums over all M nodes, from the
    docstring formulas; the kernels sum over half the grid."""
    n, d = u.p.shape
    eps, k, w = basis.vectors, grid.nodes, grid.weights
    pref = np.array([ff.profile(grid.absk) for ff in spec.form_factors]) / np.sqrt(2.0 * grid.absk)
    phase = np.exp(-2j * np.pi * (u.q @ k.T))  # (n, M)
    c = np.einsum("j,ij,ij,lj->ilj", w, pref, phase, np.conj(u.alpha))
    a = 2.0 * np.einsum("ilj,jlv->iv", c, eps).real
    da = 4.0 * np.pi * np.einsum("ilj,jlv,jm->ivm", c, eps, k).imag
    v, grad_v = 0.0, np.zeros((n, d))
    for i, j in itertools.combinations(range(n), 2):
        x = u.q[i] - u.q[j]
        if pot.kind == "smeared-coulomb":
            kern = w * pot.g * pref[i] * pref[j] * 2.0 / grid.absk  # g chi_i chi_j/|k|^2
            z = kern * np.conj(phase[i]) * phase[j]
            v += np.sum(z).real
            gw = (2j * np.pi * np.einsum("j,jm->m", z, k)).real
        elif pot.kind == "product-of-cos":
            kappa, amp = pot.wavevector, pot.amplitude
            v += amp * np.prod(np.cos(kappa * x))
            gw = np.array([-amp * kappa[m] * np.sin(kappa[m] * x[m])
                           * np.prod(np.cos(np.delete(kappa * x, m))) for m in range(d)])
        else:
            continue
        grad_v[i] += gw
        grad_v[j] -= gw
    vel = (u.p - a) / spec.masses[:, None]
    g_p = np.einsum("iv,ivm->im", vel, da) - grad_v
    g_alpha = 1j * np.einsum("ij,ij,iv,jlv->lj", pref, phase, vel, eps)
    field = np.einsum("j,j,lj->", w, grid.absk, np.abs(u.alpha) ** 2)
    energy = np.sum(np.sum((u.p - a) ** 2, axis=1) / (2.0 * spec.masses)) + v + field
    return a, da, v, grad_v, (g_p, -a / spec.masses[:, None], g_alpha), energy


class TestKernelMatchesNodeSums:
    """Every coupling term against its docstring formula summed node by node."""

    @pytest.fixture(params=KERNEL_GRIDS, ids=["d3", "d4"])
    def case(self, request, rng):
        grid = build_kgrid(*request.param)
        return (grid, default_basis(grid), two_particle_spec(), PotentialSpec.coulomb(0.8),
                random_point(rng, grid, decay=False), random_point(rng, grid, decay=False))

    def test_vector_potential_and_gradient(self, case):
        grid, basis, spec, _, u, _ = case
        a_all, da_all = coupling(u.q, u.alpha, spec, grid)
        for i in range(2):
            a, da = _loop_vector_potential(spec, grid, basis, i, u.q[i], u.alpha)
            _assert_close(a_all[i], a)
            for nu in range(grid.d):
                _assert_close(da_all[i, nu], da[nu])

    def test_hamiltonian(self, case):
        grid, basis, spec, pot, u, _ = case
        kinetic = 0.0
        for i in range(2):
            a, _ = _loop_vector_potential(spec, grid, basis, i, u.q[i], u.alpha)
            kinetic += np.sum((u.p[i] - a) ** 2) / (2.0 * spec.masses[i])
        v, _ = _loop_potential(spec, pot, grid, u.q)
        field = sum(grid.weights[j] * grid.absk[j] * np.abs(u.alpha[lam, j]) ** 2
                    for j in range(grid.node_count) for lam in range(grid.d - 1))
        _assert_close(hamiltonian(u, spec, pot, grid), kinetic + v + field)

    def test_nonlinearity_G(self, case):
        grid, basis, spec, pot, u, _ = case
        gp, gq, galpha = _loop_G(u, spec, pot, grid, basis)
        g = nonlinearity_G(u, spec, pot, grid)
        _assert_close(g.p, gp)
        _assert_close(g.q, gq)
        _assert_close(g.alpha, galpha)

    def test_characteristic_density_m(self, case):
        grid, basis, spec, pot, u, xi = case
        for s in (0.0, 0.7):
            _assert_close(characteristic_density_m(s, xi, u, spec, pot, grid),
                          _loop_density_m(s, xi, u, spec, pot, grid, basis))

    @pytest.mark.parametrize("frame", ["default", "rotated", "swapped"])
    @pytest.mark.parametrize("kind", ["coulomb", "zero", "cosine"])
    @pytest.mark.parametrize("d, K, N", [(3, 2.0, 6), (4, 1.5, 4)])
    def test_half_grid_kernels_match_whole_grid_einsums(self, d, K, N, kind, frame):
        """The kernels sum over half the grid, through the mirror; the einsums
        over all M nodes share nothing with them but the grid and the frame."""
        rng = np.random.default_rng(2)
        grid = build_kgrid(d, K, N)
        spec = ParticleSpec(np.array([1.0, 2.0, 1.5]),
                            (FormFactor.gaussian(1.0), FormFactor.ball(1.2),
                             FormFactor.table([0.0, 1.0, 2.0], [1.0, 0.6, 0.0])))
        pot = {"coulomb": PotentialSpec.coulomb(0.8), "zero": PotentialSpec.zero(),
               "cosine": PotentialSpec.cosine(0.7, np.linspace(0.5, 2.0, d))}[kind]
        u = random_point(rng, grid, n=3, decay=False)
        basis = default_basis(grid)
        if frame == "rotated":
            basis, alpha, _ = rotate_frame(rng, grid, basis, u.alpha)
            u = PhaseSpacePoint(u.particles, FieldState(grid, alpha))
        if frame == "swapped":  # polarizations reversed at every node: the same at +-k
            half_swapped = basis.vectors.copy()
            half_swapped[grid.node_count // 2:] = half_swapped[grid.node_count // 2:, ::-1]
            with pytest.raises(ValueError, match="frame is not mirrored"):
                compile_model(spec, pot, grid, PolarizationBasis(grid, half_swapped))
            basis = PolarizationBasis(grid, basis.vectors[:, ::-1])
        a, da, v, grad_v, g, energy = _whole_grid_sums(u, spec, pot, grid, basis)
        a_half, da_half = coupling(u.q, u.alpha, spec, grid, basis)
        _assert_close(a_half, a, 1e-13)
        _assert_close(da_half, da, 1e-13)
        v_half, grad_v_half = potential(u.q, spec, pot, grid)
        _assert_close(v_half, v, 1e-13)
        _assert_close(grad_v_half, grad_v, 1e-13)
        g_half = nonlinearity_G(u, spec, pot, grid, basis)
        for part, ref in zip((g_half.p, g_half.q, g_half.alpha), g):
            _assert_close(part, ref, 1e-13)
        _assert_close(hamiltonian(u, spec, pot, grid, basis), energy, 1e-13)


class TestNonlinearities:
    def test_F_equals_G_plus_drift(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        u = random_point(rng, small_grid, decay=False)
        f = nonlinearity_F(u, spec, pot, small_grid)
        g = nonlinearity_G(u, spec, pot, small_grid)
        assert np.array_equal(f.p, g.p)
        assert np.array_equal(f.alpha, g.alpha)
        assert np.allclose(f.q - g.q, u.p / spec.masses[:, None], atol=1e-15)

    def test_F_q_is_velocity(self, small_grid, rng):
        """F_q,i = (p_i - A_i)/m_i with A_i recomputed independently."""
        spec = two_particle_spec()
        u = random_point(rng, small_grid, decay=False)
        f = nonlinearity_F(u, spec, PotentialSpec.zero(), small_grid)
        a, _ = coupling(u.q, u.alpha, spec, small_grid)
        for i in range(2):
            assert np.allclose(f.q[i], (u.p[i] - a[i]) / spec.masses[i], atol=1e-13)

    def test_free_particle_field_source(self, small_grid):
        """alpha = 0, V = 0: only the field equation is driven, by hand formula."""
        spec = two_particle_spec()
        p = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        q = np.array([[0.2, 0.0, -0.1], [0.0, 0.3, 0.0]])
        u = PhaseSpacePoint(
            ParticleState(p, q),
            FieldState(small_grid, np.zeros((2, small_grid.node_count), dtype=complex)),
        )
        g = nonlinearity_G(u, spec, PotentialSpec.zero(), small_grid)
        assert np.array_equal(g.p, np.zeros((2, 3)))
        assert np.array_equal(g.q, np.zeros((2, 3)))
        E = default_basis(small_grid).vectors
        expected = np.zeros((2, small_grid.node_count), dtype=complex)
        for i in range(2):
            chi = spec.form_factors[i].profile(small_grid.absk)
            pref = chi / np.sqrt(2.0 * small_grid.absk)
            phase = np.exp(-2j * np.pi * (small_grid.nodes @ q[i]))
            proj = np.einsum("v,jlv->lj", p[i] / spec.masses[i], E)
            expected += 1j * (pref * phase)[None, :] * proj
        assert np.allclose(g.alpha, expected, atol=1e-14)

    def test_field_part_frame_covariant(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        basis = default_basis(small_grid)
        u = random_point(rng, small_grid, decay=False)
        rotated_basis, rotated_alpha, q_mat = rotate_frame(rng, small_grid, basis, u.alpha)
        u2 = PhaseSpacePoint(u.particles, FieldState(small_grid, rotated_alpha))
        f1 = nonlinearity_F(u, spec, pot, small_grid, basis)
        f2 = nonlinearity_F(u2, spec, pot, small_grid, rotated_basis)
        assert np.allclose(f1.p, f2.p, atol=1e-12 * (1 + np.abs(f1.p).max()))
        assert np.allclose(f1.q, f2.q, atol=1e-12 * (1 + np.abs(f1.q).max()))
        rotated_f = np.einsum("jlm,lj->mj", q_mat, f1.alpha)
        assert np.allclose(rotated_f, f2.alpha, atol=1e-12 * (1 + np.abs(f2.alpha).max()))

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("kind", ["zero", "coulomb", "cosine"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_field_output_has_bracket_zero(self, d, kind, rows):
        """beta = conj G_alpha(k) + G_alpha(-k) is exactly 0 at every node, so
        the field's bracket is the same at every stage state of a kick."""
        grid = build_kgrid(d, 2.0, 4)
        pot = {"zero": PotentialSpec.zero(), "coulomb": PotentialSpec.coulomb(0.8),
               "cosine": PotentialSpec.cosine(0.7, np.linspace(0.5, 2.0, d))}[kind]
        rng = np.random.default_rng(d)
        u = random_point(rng, grid, decay=False)
        if rows:
            u = u._like(np.stack([random_point(rng, grid, decay=False).data
                                  for _ in range(rows)]))
        g = nonlinearity_G(u, two_particle_spec(), pot, grid).alpha
        assert np.array_equal(np.conj(g) + g[..., ::-1], np.zeros_like(g))

    def test_vartheta_at_zero_is_G(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        u = random_point(rng, small_grid, decay=False)
        theta = vartheta(0.0, u, spec, pot, small_grid)
        g = nonlinearity_G(u, spec, pot, small_grid)
        assert np.array_equal(theta.p, g.p)
        assert np.array_equal(theta.q, g.q)
        assert np.array_equal(theta.alpha, g.alpha)

    @pytest.mark.parametrize("frame", ["default", "rotated"])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("kind", ["zero", "coulomb", "cosine"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_vartheta_on_half_is_the_composition(self, d, kind, rows, frame):
        """vartheta turns the field on H only, and equals free_flow(-t) o G o
        free_flow(t) on the whole grid exactly; a stack takes one time per row."""
        grid = build_kgrid(d, 2.0, 4)
        pot = {"zero": PotentialSpec.zero(), "coulomb": PotentialSpec.coulomb(0.8),
               "cosine": PotentialSpec.cosine(0.7, np.linspace(0.5, 2.0, d))}[kind]
        spec, rng = two_particle_spec(), np.random.default_rng(10 * d + 1)
        u = random_point(rng, grid, decay=False)
        basis = default_basis(grid)
        if frame == "rotated":
            basis = rotate_frame(rng, grid, basis, u.alpha)[0]
        times = [0.0, 0.37, -1.3]
        if rows:
            u = u._like(np.stack([random_point(rng, grid, decay=False).data
                                  for _ in range(rows)]))
            times = [np.array(times)]
        for t in times:
            g = nonlinearity_G(free_flow(u, t, spec), spec, pot, grid, basis)
            expected = free_flow(g, -t, spec)
            assert np.array_equal(vartheta(t, u, spec, pot, grid, basis).data, expected.data)

    def test_vartheta_growth_envelope(self, small_grid, rng):
        """Fitted constant in ||theta(t,u)|| <= C (||u||^2 + 1) stays modest."""
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        ratios = []
        for _ in range(100):
            u = random_point(rng, small_grid, scale=rng.uniform(0.05, 2.0), decay=False)
            t = rng.uniform(-3.0, 3.0)
            theta = vartheta(t, u, spec, pot, small_grid)
            ratios.append(phase_norm(theta, 1.0) / (1.0 + phase_norm(u, 0.0) ** 2))
        fitted = max(ratios)
        assert np.isfinite(fitted) and 0.0 < fitted < 10.0


class TestCharacteristicDensity:
    def test_zero_direction(self, small_grid, rng):
        spec = two_particle_spec()
        u = random_point(rng, small_grid, decay=False)
        xi = PhaseSpacePoint(
            ParticleState(np.zeros((2, 3)), np.zeros((2, 3))),
            FieldState(small_grid, np.zeros((2, small_grid.node_count), dtype=complex)),
        )
        m = characteristic_density_m(0.7, xi, u, spec, PotentialSpec.coulomb(0.8), small_grid)
        assert m == 0.0

    def test_pure_potential_reduction(self, small_grid, rng):
        """alpha = 0 and field direction 0: m = -2 sum_j grad V(x) . x0_j at the
        freely transported positions."""
        spec = two_particle_spec()
        pot = PotentialSpec.cosine(0.7, [1.0, 0.5, -0.3])
        zeros = np.zeros((2, small_grid.node_count), dtype=complex)
        u = PhaseSpacePoint(
            ParticleState(rng.normal(size=(2, 3)), rng.normal(size=(2, 3))),
            FieldState(small_grid, zeros),
        )
        xi = PhaseSpacePoint(
            ParticleState(rng.normal(size=(2, 3)), rng.normal(size=(2, 3))),
            FieldState(small_grid, zeros),
        )
        s = 0.9
        x = u.q + s * u.p / spec.masses[:, None]
        x0 = xi.q + s * xi.p / spec.masses[:, None]
        _, grad = potential(x, spec, pot, small_grid)
        expected = -2.0 * float(np.sum(grad * x0))
        m = characteristic_density_m(s, xi, u, spec, pot, small_grid)
        assert m == pytest.approx(expected, abs=1e-13 * (1 + abs(expected)))

    @pytest.mark.parametrize("kind", ["smeared-coulomb", "product-of-cos"])
    def test_matches_vector_field_pairing(self, small_grid, rng, kind):
        """The standing identity m(s, xi) = -2 pi Re<vartheta(s, u), xi~>_{X^0},
        the two sides computed along fully independent routes."""
        spec = two_particle_spec()
        pot = (PotentialSpec.coulomb(0.8) if kind == "smeared-coulomb"
               else PotentialSpec.cosine(0.7, [1.0, 0.5, -0.3]))
        worst = 0.0
        for _ in range(100):
            u = random_point(rng, small_grid, scale=rng.uniform(0.1, 2.0), decay=False)
            xi = random_point(rng, small_grid, scale=rng.uniform(0.1, 2.0), decay=False)
            s = rng.uniform(-2.0, 2.0)
            m = characteristic_density_m(s, xi, u, spec, pot, small_grid)
            theta = vartheta(s, u, spec, pot, small_grid)
            pairing = PhaseSpacePoint(
                ParticleState(-xi.q / np.pi, xi.p / np.pi),
                FieldState(small_grid, xi.alpha / (np.sqrt(2.0) * np.pi)),
            )
            rhs = -2.0 * np.pi * real_inner(theta, pairing, 0.0)
            scale = (1.0 + phase_norm(u, 0.0) ** 2) * (1.0 + phase_norm(xi, 0.0))
            worst = max(worst, abs(m - rhs) / scale)
        assert worst <= 1e-10

    def test_frame_covariance(self, small_grid, rng):
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        basis = default_basis(small_grid)
        u = random_point(rng, small_grid, decay=False)
        xi = random_point(rng, small_grid, decay=False)
        rotated_basis, rotated_u_alpha, q_mat = rotate_frame(rng, small_grid, basis, u.alpha)
        rotated_xi_alpha = np.einsum("jlm,lj->mj", q_mat, xi.alpha)
        u2 = PhaseSpacePoint(u.particles, FieldState(small_grid, rotated_u_alpha))
        xi2 = PhaseSpacePoint(xi.particles, FieldState(small_grid, rotated_xi_alpha))
        m1 = characteristic_density_m(0.7, xi, u, spec, pot, small_grid, basis)
        m2 = characteristic_density_m(0.7, xi2, u2, spec, pot, small_grid, rotated_basis)
        assert m1 == pytest.approx(m2, abs=1e-12 * (1 + abs(m1)))

    def test_time_dependence_through_free_stream(self, small_grid, rng):
        """At s = 0 the density reduces to the s-free pairing of G itself."""
        spec = two_particle_spec()
        pot = PotentialSpec.coulomb(0.8)
        u = random_point(rng, small_grid, decay=False)
        xi = random_point(rng, small_grid, decay=False)
        m0 = characteristic_density_m(0.0, xi, u, spec, pot, small_grid)
        g = nonlinearity_G(u, spec, pot, small_grid)
        expected = 2.0 * float(np.sum(g.p * xi.q) - np.sum(g.q * xi.p))
        expected -= np.sqrt(2.0) * real_inner(
            PhaseSpacePoint(ParticleState(np.zeros((2, 3)), np.zeros((2, 3))), g.field),
            PhaseSpacePoint(ParticleState(np.zeros((2, 3)), np.zeros((2, 3))), xi.field),
            0.0,
        )
        assert m0 == pytest.approx(expected, abs=1e-12 * (1 + abs(m0)))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStacks:
    """A stack (S, D) of points gives, row by row, what each point gives alone."""

    POTENTIALS = {"coulomb": PotentialSpec.coulomb(0.8),
                  "cosine": PotentialSpec.cosine(0.7, [1.0, 2.0, 0.5]),
                  "zero": PotentialSpec.zero()}

    @pytest.fixture(params=[(2, "coulomb"), (3, "coulomb"), (3, "cosine"), (2, "zero")],
                        ids=["n2-coulomb", "n3-coulomb", "n3-cosine", "n2-zero"])
    def case(self, request, small_grid):
        n, kind = request.param
        rng = np.random.default_rng(11)
        ff = FormFactor.gaussian(1.0)
        spec = ParticleSpec(np.linspace(1.0, 2.0, n), [ff] * n)
        points = [random_point(rng, small_grid, n=n, decay=False) for _ in range(5)]
        stack = PhaseSpacePoint._of(small_grid, np.stack([u.data for u in points]))
        return small_grid, spec, self.POTENTIALS[kind], points, stack

    def test_views_carry_the_sample_axis(self, case):
        grid, spec, _, points, stack = case
        n = spec.n
        assert stack.p.shape == stack.q.shape == (5, n, 3)
        assert stack.alpha.shape == (5, 2, grid.node_count)
        for part in (stack.p, stack.q, stack.alpha):
            assert np.shares_memory(part, stack.data)
        assert all(np.array_equal(stack.alpha[m], u.alpha) for m, u in enumerate(points))

    def test_nonlinearity_G_and_hamiltonian(self, case):
        grid, spec, pot, points, stack = case
        g = nonlinearity_G(stack, spec, pot, grid)
        h = hamiltonian(stack, spec, pot, grid)
        assert h.shape == (5,)
        for m, u in enumerate(points):
            assert _same_bits(g.data[m], nonlinearity_G(u, spec, pot, grid).data)
            assert _same_bits(h[m], hamiltonian(u, spec, pot, grid))

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_norms(self, case, sigma):
        _, _, _, points, stack = case
        norms = phase_norm(stack, sigma)
        assert norms.shape == (5,)
        for m, u in enumerate(points):
            assert _same_bits(norms[m], phase_norm(u, sigma))

    def test_free_flow_and_vartheta(self, case):
        grid, spec, pot, points, stack = case
        times = np.array([0.3, -0.7, 1.1, 0.0, 2.5])
        for t in (times, 0.4):  # one time per row, or one for all
            flowed = free_flow(stack, t, spec)
            theta = vartheta(t, stack, spec, pot, grid)
            for m, u in enumerate(points):
                t_m = t[m] if np.ndim(t) else t
                assert _same_bits(flowed.data[m], free_flow(u, t_m, spec).data)
                assert _same_bits(theta.data[m], vartheta(t_m, u, spec, pot, grid).data)

    def test_field_output_is_the_einsum_contraction(self, case):
        """On H, the contraction of the particles' terms; on the mirror,
        G_alpha(-k) = -conj G_alpha(k)."""
        grid, spec, pot, _, stack = case
        model = compile_model(spec, pot, grid)
        phases = _phases(model, stack.q)
        a = _vector_potentials(model, _bracket(_beta(model, stack.alpha), model.wpref * phases))
        proj = (((stack.p - a) / spec.masses[:, None]) @ model.eps.T).reshape(
            stack.q.shape[:-1] + (grid.d - 1, -1))
        absk = grid.absk[: grid.node_count // 2]
        pref = np.array([ff.profile(absk) for ff in spec.form_factors]) / np.sqrt(2.0 * absk)
        on_h = 1j * np.einsum("...im,...ilm->...lm", pref * phases, proj)
        expected = np.concatenate([on_h, -np.conj(on_h[..., ::-1])], axis=-1)
        assert _same_bits(nonlinearity_G(stack, spec, pot, grid).alpha, expected)

    def test_recorded_diagnostics_are_the_public_functions_bits(self, case):
        # evolve records one point, push_forward its four samples as one stack
        grid, spec, pot, points, _ = case
        traj = evolve(points[0], 0.03, 0.01, spec, pot, allow_flagged=True)
        pushed = push_forward(Ensemble(tuple(points[:4])), 0.03, 0.01, spec, pot,
                              allow_flagged=True).trajectories
        stack = [np.stack([getattr(t, key) for t in pushed], axis=1)
                 for key in ("energies", "norms", "stored")]
        for energies, norms, stored in ((traj.energies, traj.norms, traj.stored), stack):
            assert len(stored) == 4
            for k, data in enumerate(stored):
                u = PhaseSpacePoint._of(grid, data)
                assert _same_bits(energies[k], hamiltonian(u, spec, pot, grid))
                for j, sigma in enumerate((0.0, 0.5, 1.0)):
                    assert _same_bits(norms[k][..., j], phase_norm(u, sigma))

    @pytest.mark.parametrize("kind", ["coulomb", "cosine"])
    def test_particles_at_rest_without_field_feel_only_the_potential(self, kind, small_grid):
        rng = np.random.default_rng(5)
        spec = ParticleSpec([1.0, 2.0, 1.5], [FormFactor.gaussian(1.0)] * 3)
        pot = self.POTENTIALS[kind]
        q = rng.standard_normal((3, 3))
        u = PhaseSpacePoint(ParticleState(np.zeros((3, 3)), q),
                            FieldState(small_grid, np.zeros((2, small_grid.node_count))))
        v, grad_v = potential(q, spec, pot, small_grid)
        assert _same_bits(nonlinearity_G(u, spec, pot, small_grid).p, -grad_v)
        assert _same_bits(hamiltonian(u, spec, pot, small_grid), v)

    def test_real_inner_pairs_every_direction_with_every_row(self, case):
        grid, _, _, points, stack = case
        ys = PhaseSpacePoint._of(grid, stack.data[:2, None, :])
        pairs = real_inner(ys, stack, 0.5)
        assert pairs.shape == (2, 5)
        for j in range(2):
            for m, u in enumerate(points):
                assert _same_bits(pairs[j, m], real_inner(points[j], u, 0.5))
