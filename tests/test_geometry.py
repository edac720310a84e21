"""Grid construction, quadrature oracles, and polarization-frame checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmdyn.geometry import (
    build_kgrid,
    integrate_k,
    polarization_basis,
    transverse_frame,
)

# Closed forms of the radial reference integrals in d = 3 (4*pi*int r^2 f dr):
#   int exp(-2|k|^2) dk          = (pi/2)^{3/2}
#   int exp(-2|k|^2)/|k|^2 dk    = 4*pi*int_0^inf exp(-2r^2) dr = 2*pi*sqrt(pi/2)
#   int |k| exp(-2|k|^2) dk      = 4*pi*int_0^inf r^3 exp(-2r^2) dr = pi/2
GAUSS_L2 = (np.pi / 2.0) ** 1.5
GAUSS_COULOMB = 2.0 * np.pi * np.sqrt(np.pi / 2.0)
GAUSS_HALF_MOMENT = np.pi / 2.0

# Householder frame at khat = -(1,1,1)/sqrt(3), a node of the half grid H,
# worked by hand from eps_lam = e_lam + (sqrt(3)-1)/2 * v, v = khat - e_3:
EPS1_HAND = np.array([0.7886751345948129, -0.2113248654051871, -0.5773502691896258])
EPS2_HAND = np.array([-0.2113248654051871, 0.7886751345948129, -0.5773502691896258])


def reflection_permutation(nodes):
    """Index array sigma with nodes[sigma[j]] == -nodes[j], or raise."""
    order = np.lexsort(nodes.T)
    order_neg = np.lexsort((-nodes).T)
    sigma = np.empty(len(nodes), dtype=int)
    sigma[order] = order_neg
    if not np.array_equal(nodes[sigma], -nodes):
        raise AssertionError("node set is not symmetric under k -> -k")
    return sigma


class TestBuildKGrid:
    def test_smallest_grid_by_hand(self):
        grid = build_kgrid(3, 1.0, 2)
        assert grid.node_count == 8
        expected = {(sx * 0.5, sy * 0.5, sz * 0.5)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(row) for row in grid.nodes} == expected
        np.testing.assert_array_equal(grid.weights, np.ones(8))

    @pytest.mark.parametrize("d,K,N", [(3, 4.0, 32), (3, 1.0, 2), (4, 2.0, 6)])
    def test_weight_sum_is_cube_volume(self, d, K, N):
        grid = build_kgrid(d, K, N)
        assert np.sum(grid.weights) == pytest.approx((2 * K) ** d, rel=1e-12)

    def test_origin_excluded_and_reflection_symmetric(self):
        grid = build_kgrid(3, 2.0, 6)
        assert grid.absk.min() > 0
        reflection_permutation(grid.nodes)  # raises if not symmetric

    @pytest.mark.parametrize(
        "bad",
        [dict(d=2, K=1.0, N=4), dict(d=3, K=1.0, N=5), dict(d=3, K=1.0, N=0),
         dict(d=3, K=0.0, N=4), dict(d=3, K=-1.0, N=4)],
    )
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            build_kgrid(**bad)

    @pytest.mark.parametrize("d, K, N", [(3, 2.5, 24), (3, 5.0, 48), (4, 1.3, 10), (5, 0.7, 6)])
    def test_absk_sums_the_squares_in_node_table_order(self, d, K, N):
        grid = build_kgrid(d, K, N)
        direct = np.sqrt(np.sum(grid.nodes**2, axis=1))
        assert grid.absk.tobytes() == direct.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.sampled_from([3, 4]),
        K=st.floats(0.3, 5.0, allow_nan=False),
        N=st.sampled_from([2, 4, 6]),
    )
    def test_invariants_hold_for_random_parameters(self, d, K, N):
        grid = build_kgrid(d, K, N)
        assert grid.node_count == N**d
        assert grid.absk.min() > 0
        assert np.sum(grid.weights) == pytest.approx((2 * K) ** d, rel=1e-12)
        reflection_permutation(grid.nodes)


class TestQuadrature:
    def test_gaussian_oracle_tight_at_n64(self):
        grid = build_kgrid(3, 6.0, 64)
        val = integrate_k(grid, np.exp(-2.0 * grid.absk**2))
        assert val == pytest.approx(GAUSS_L2, rel=1e-4)

    def test_gaussian_refinement_error_decreases(self):
        errs = []
        for N in (8, 16, 32):
            grid = build_kgrid(3, 6.0, N)
            val = integrate_k(grid, np.exp(-2.0 * grid.absk**2))
            errs.append(abs(val - GAUSS_L2))
        assert errs[0] > errs[1] > errs[2]

    def test_coulomb_weighted_refinement_converges(self):
        errs = []
        for N in (24, 48, 96):
            grid = build_kgrid(3, 6.0, N)
            val = integrate_k(grid, np.exp(-2.0 * grid.absk**2) / grid.absk**2)
            errs.append(abs(val - GAUSS_COULOMB))
        assert errs[0] > errs[1] > errs[2]
        # first-order decay from the cells around the singularity
        assert errs[2] < 0.6 * errs[1] < 0.36 * errs[0]

    def test_half_moment_oracle(self):
        grid = build_kgrid(3, 6.0, 48)
        val = integrate_k(grid, grid.absk * np.exp(-2.0 * grid.absk**2))
        assert val == pytest.approx(GAUSS_HALF_MOMENT, rel=1e-3)

    def test_constant_integrand_gives_volume(self):
        grid = build_kgrid(3, 1.5, 4)
        assert integrate_k(grid, np.ones(grid.node_count)) == pytest.approx(
            3.0**3, rel=1e-12
        )

    def test_zero_integrand(self):
        grid = build_kgrid(3, 1.0, 2)
        assert integrate_k(grid, np.zeros(8)) == 0.0

    def test_conjugate_parity_integrand_is_real(self):
        grid = build_kgrid(3, 2.0, 8)
        sigma = reflection_permutation(grid.nodes)
        rng = np.random.default_rng(7)
        g = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(
            grid.node_count
        )
        f = g + np.conj(g[sigma])  # f(-k) = conj(f(k)) by construction
        val = integrate_k(grid, f)
        assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1e-300)

    def test_wrong_length_rejected(self):
        grid = build_kgrid(3, 1.0, 2)
        with pytest.raises(ValueError):
            integrate_k(grid, np.ones(7))

    def test_broadcasts_over_leading_axes(self):
        grid = build_kgrid(3, 1.0, 2)
        vals = integrate_k(grid, np.ones((2, grid.node_count)))
        np.testing.assert_allclose(vals, [8.0, 8.0])


class TestPolarization:
    def test_householder_frame_matches_hand_computation(self):
        grid = build_kgrid(3, 1.0, 2)
        basis = polarization_basis(grid)
        j = int(np.flatnonzero((grid.nodes < 0).all(axis=1))[0])  # node (-.5,-.5,-.5)
        np.testing.assert_allclose(basis.vectors[j, 0], EPS1_HAND, atol=1e-15)
        np.testing.assert_allclose(basis.vectors[j, 1], EPS2_HAND, atol=1e-15)
        # node (.5,.5,.5), its mirror, holds the same vectors
        mirror = int(np.flatnonzero((grid.nodes > 0).all(axis=1))[0])
        assert np.array_equal(basis.vectors[mirror], basis.vectors[j])

    def test_projector_matches_gram_schmidt_oracle(self):
        # Independent construction: Gram-Schmidt of (e1, e2) against khat.
        khat = np.full(3, 1.0 / np.sqrt(3.0))
        g1 = np.array([1.0, 0, 0]) - khat[0] * khat
        g1 /= np.linalg.norm(g1)
        g2 = np.array([0, 1.0, 0]) - khat[1] * khat
        g2 -= (g2 @ g1) * g1
        g2 /= np.linalg.norm(g2)
        proj_oracle = np.outer(g1, g1) + np.outer(g2, g2)

        frame = transverse_frame(khat[None, :])[0]
        proj = frame.T @ frame
        np.testing.assert_allclose(proj, proj_oracle, atol=1e-14)
        np.testing.assert_allclose(proj, np.eye(3) - np.outer(khat, khat), atol=1e-14)

    @pytest.mark.parametrize("d,K,N", [(3, 2.0, 8), (4, 1.0, 4)])
    def test_orthonormal_and_transverse_on_grid(self, d, K, N):
        grid = build_kgrid(d, K, N)
        basis = polarization_basis(grid)
        khat = grid.nodes / grid.absk[:, None]
        gram = np.einsum("jlc,jmc->jlm", basis.vectors, basis.vectors)
        assert np.abs(gram - np.eye(d - 1)).max() <= 1e-12
        assert np.abs(np.einsum("jlc,jc->jl", basis.vectors, khat)).max() <= 1e-12

    @pytest.mark.parametrize("d,K,N", [(3, 2.0, 8), (4, 1.0, 4)])
    def test_frame_is_the_same_at_k_and_minus_k(self, d, K, N):
        vectors = polarization_basis(build_kgrid(d, K, N)).vectors
        half = vectors.shape[0] // 2
        assert np.array_equal(vectors[::-1][:half], vectors[:half])

    def test_deterministic_rebuild(self):
        a = polarization_basis(build_kgrid(3, 2.5, 6)).vectors
        b = polarization_basis(build_kgrid(3, 2.5, 6)).vectors
        assert np.array_equal(a, b)

    def test_degenerate_axis_directions_use_canonical_basis(self):
        for d in (3, 4):
            plus = np.zeros((1, d))
            plus[0, -1] = 1.0
            np.testing.assert_allclose(transverse_frame(plus)[0], np.eye(d - 1, d),
                                       atol=1e-15)
            np.testing.assert_allclose(transverse_frame(-plus)[0], np.eye(d - 1, d),
                                       atol=1e-15)
