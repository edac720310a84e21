"""Norm oracles, inner-product properties, and the exact free flow."""

import re

import numpy as np
import pytest
from conftest import random_field, random_point
from hypothesis import given, settings
from hypothesis import strategies as st

from nmdyn.geometry import build_kgrid, polarization_basis
from nmdyn.state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    field_norm,
    free_flow,
    phase_norm,
    point_from_json,
    point_to_json,
    real_inner,
)

# Radial closed forms for alpha_1(k) = exp(-|k|^2) in d = 3:
#   sigma=1/2 homogeneous:  ||alpha||^2 = int |k| e^{-2|k|^2} dk = pi/2
#   sigma=0:                ||alpha||^2 = int e^{-2|k|^2} dk = (pi/2)^{3/2}
HALF_SOBOLEV_SQ = np.pi / 2.0
L2_SQ = (np.pi / 2.0) ** 1.5


def gaussian_first_mode(grid):
    vals = np.zeros((grid.d - 1, grid.node_count), dtype=complex)
    vals[0] = np.exp(-(grid.absk**2))
    return FieldState(grid, vals)


class TestFieldNorm:
    def test_zero_field(self, small_grid):
        zero = FieldState(small_grid, np.zeros((2, small_grid.node_count)))
        assert field_norm(zero, 0.5, "homogeneous") == 0.0

    def test_half_sobolev_oracle(self):
        grid = build_kgrid(3, 6.0, 48)
        val = field_norm(gaussian_first_mode(grid), 0.5, "homogeneous") ** 2
        assert val == pytest.approx(HALF_SOBOLEV_SQ, rel=1e-3)

    def test_l2_oracle(self):
        grid = build_kgrid(3, 6.0, 48)
        val = field_norm(gaussian_first_mode(grid), 0.0, "homogeneous") ** 2
        assert val == pytest.approx(L2_SQ, rel=1e-6)

    def test_refinement_tightens_half_sobolev(self):
        errs = []
        for N in (12, 24, 48):
            grid = build_kgrid(3, 6.0, N)
            val = field_norm(gaussian_first_mode(grid), 0.5, "homogeneous") ** 2
            errs.append(abs(val - HALF_SOBOLEV_SQ))
        assert errs[0] > errs[1] > errs[2]

    @settings(max_examples=30, deadline=None)
    @given(
        s1=st.floats(0.0, 1.0, allow_nan=False),
        s2=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_inhomogeneous_monotone_in_sigma(self, s1, s2, seed):
        grid = build_kgrid(3, 1.5, 4)
        alpha = random_field(np.random.default_rng(seed), grid)
        lo, hi = sorted((s1, s2))
        assert field_norm(alpha, lo) <= field_norm(alpha, hi) * (1 + 1e-12)

    def test_weight_validation(self, small_grid, rng):
        alpha = random_field(rng, small_grid)
        with pytest.raises(ValueError):
            field_norm(alpha, 1.5)
        with pytest.raises(ValueError):
            field_norm(alpha, 0.5, "fancy")


class TestPhaseNorm:
    def test_unit_momentum(self, tiny_grid):
        u = PhaseSpacePoint(
            ParticleState(np.array([[1.0, 0, 0]]), np.zeros((1, 3))),
            FieldState(tiny_grid, np.zeros((2, 8))),
        )
        assert phase_norm(u, 1.0) == 1.0

    def test_squares_add(self, small_grid, rng):
        u = random_point(rng, small_grid)
        particle = np.sum(u.p**2) + np.sum(u.q**2)
        total = particle + field_norm(u.field, 0.5) ** 2
        assert phase_norm(u, 0.5) == pytest.approx(np.sqrt(total), rel=1e-14)


class TestRealInner:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_inner_with_self_is_norm_squared(self, small_grid, rng, sigma):
        u = random_point(rng, small_grid)
        assert real_inner(u, u, sigma) == pytest.approx(
            phase_norm(u, sigma) ** 2, rel=1e-13
        )

    def test_symmetric_bilinear(self, small_grid, rng):
        a = random_point(rng, small_grid)
        b = random_point(rng, small_grid)
        c = random_point(rng, small_grid)
        assert real_inner(a, b, 0.5) == pytest.approx(real_inner(b, a, 0.5), rel=1e-12)
        lhs = real_inner(a, b + 2.0 * c, 0.5)
        rhs = real_inner(a, b, 0.5) + 2.0 * real_inner(a, c, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_momentum_position_directions_are_orthogonal(self, tiny_grid):
        zeros = np.zeros((1, 3))
        zf = FieldState(tiny_grid, np.zeros((2, 8)))
        e_p = PhaseSpacePoint(ParticleState(np.array([[1.0, 0, 0]]), zeros), zf)
        e_q = PhaseSpacePoint(ParticleState(zeros, np.array([[1.0, 0, 0]])), zf)
        assert real_inner(e_p, e_q, 0.5) == 0.0

    def test_cauchy_schwarz_thousand_draws(self, tiny_grid):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            a = random_point(rng, tiny_grid, n=1)
            b = random_point(rng, tiny_grid, n=1)
            lhs = abs(real_inner(a, b, 0.5))
            rhs = phase_norm(a, 0.5) * phase_norm(b, 0.5)
            worst = max(worst, lhs / rhs)
        assert worst <= 1.0 + 1e-12

    def test_positive_definite(self, small_grid, rng):
        u = random_point(rng, small_grid)
        assert real_inner(u, u, 0.0) > 0.0

    def test_incompatible_grids_rejected(self, tiny_grid, small_grid, rng):
        a = random_point(rng, tiny_grid)
        b = random_point(rng, small_grid)
        with pytest.raises(ValueError):
            real_inner(a, b, 0.5)
        # same N, other K: the arrays fit, so only the check tells
        a = random_point(rng, build_kgrid(3, 2.0, 10))
        b = random_point(rng, build_kgrid(3, 2.5, 10))
        for x, y in ((a, b), (b, a)):
            grids = f"(3, {x.grid.K}, 10) and (3, {y.grid.K}, 10)"
            with pytest.raises(ValueError, match=re.escape(f"(d, K, N) = {grids}")):
                real_inner(x, y, 0.5)


class TestFreeFlow:
    def spec(self, masses):
        return ParticleSpec(np.asarray(masses, dtype=float), [None] * len(masses))

    def test_identity_at_t0(self, small_grid, rng):
        u = random_point(rng, small_grid)
        v = free_flow(u, 0.0, self.spec([1.0, 2.0]))
        assert np.array_equal(v.p, u.p)
        assert np.array_equal(v.q, u.q)
        assert np.array_equal(v.alpha, u.alpha)

    def test_ballistic_example(self, tiny_grid):
        u = PhaseSpacePoint(
            ParticleState(np.array([[2.0, 0, 0]]), np.zeros((1, 3))),
            FieldState(tiny_grid, np.zeros((2, 8))),
        )
        v = free_flow(u, 3.0, self.spec([2.0]))
        np.testing.assert_allclose(v.q, [[3.0, 0, 0]], atol=0)

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(-5, 5, allow_nan=False), t=st.floats(-5, 5, allow_nan=False))
    def test_group_law(self, s, t):
        grid = build_kgrid(3, 2.0, 4)
        u = random_point(np.random.default_rng(3), grid)
        spec = self.spec([1.0, 0.5])
        diff = free_flow(free_flow(u, s, spec), t, spec) - free_flow(u, s + t, spec)
        assert phase_norm(diff, 1.0) <= 1e-12 * max(phase_norm(u, 1.0), 1.0)

    def test_reversibility(self, small_grid, rng):
        u = random_point(rng, small_grid)
        spec = self.spec([1.0, 2.0])
        back = free_flow(free_flow(u, 1.7, spec), -1.7, spec)
        assert phase_norm(back - u, 1.0) <= 1e-13 * phase_norm(u, 1.0)

    @pytest.mark.parametrize("sigma,flavor", [(0.0, "homogeneous"), (0.5, "homogeneous"),
                                              (0.5, "inhomogeneous"), (1.0, "inhomogeneous")])
    def test_field_norm_preserved(self, small_grid, rng, sigma, flavor):
        u = random_point(rng, small_grid)
        v = free_flow(u, 2.3, self.spec([1.0, 2.0]))
        assert field_norm(v.field, sigma, flavor) == pytest.approx(
            field_norm(u.field, sigma, flavor), rel=1e-12
        )


class TestContainers:
    def test_particle_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleState(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_field_shape_validation(self, tiny_grid):
        with pytest.raises(ValueError):
            FieldState(tiny_grid, np.zeros((2, 7)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ParticleSpec(np.array([1.0, -1.0]), [None, None])
        with pytest.raises(ValueError):
            ParticleSpec(np.array([1.0]), [None, None])

    def test_json_round_trip(self, small_grid, rng):
        u = random_point(rng, small_grid)
        v = point_from_json(point_to_json(u), small_grid)
        assert np.array_equal(u.p, v.p)
        assert np.array_equal(u.q, v.q)
        assert np.array_equal(u.alpha, v.alpha)

    def test_json_length_mismatch(self, small_grid, tiny_grid, rng):
        data = point_to_json(random_point(rng, small_grid))
        with pytest.raises(ValueError):
            point_from_json(data, tiny_grid)

    def test_tangent_algebra(self, tiny_grid, rng):
        a = random_point(rng, tiny_grid)
        b = random_point(rng, tiny_grid)
        c = 2.0 * a + b - a
        np.testing.assert_allclose(c.p, a.p + b.p, atol=1e-15)
        np.testing.assert_allclose(c.alpha, a.alpha + b.alpha, atol=1e-15)

    def test_components_are_views_of_one_vector(self, small_grid):
        c = np.exp(-small_grid.absk**2)[:, None] * np.array([1.0, 0.5, -0.2])
        alpha = np.einsum("jlv,jv->lj", polarization_basis(small_grid).vectors, c)
        assert not alpha.flags.c_contiguous
        u = PhaseSpacePoint(ParticleState(np.ones((2, 3)), np.zeros((2, 3))),
                            FieldState(small_grid, alpha))
        assert u.data.dtype == np.float64 and u.data.ndim == 1
        assert u.data.size == 2 * 2 * 3 + 2 * 2 * small_grid.node_count
        for part in (u.p, u.q, u.alpha, u.particles.p, u.field.values):
            assert np.shares_memory(part, u.data)
        assert np.array_equal(u.alpha, alpha)
        assert np.array_equal(u.p, np.ones((2, 3)))

    def test_particles_must_live_in_the_grid_dimension(self, tiny_grid):
        with pytest.raises(ValueError):
            PhaseSpacePoint(ParticleState(np.zeros((1, 2)), np.zeros((1, 2))),
                            FieldState(tiny_grid, np.zeros((2, 8))))
