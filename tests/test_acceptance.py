"""Acceptance gate: twelve end-to-end properties of the assembled artifact.

One test per property, asserted at the tolerances the artifact ships under;
run with -v for one pass/fail line each.  Everything here goes through the
public configuration layer and the named verification suites, so these tests
double as executable documentation of the reference scenario.  This is
deliberately the slowest module of the suite (a few minutes single-core).
"""

import numpy as np
import pytest

from conftest import coupling, random_point, rotate_frame

from nmdyn.cli import main
from nmdyn.config import load_config, reference_scenario
from nmdyn.geometry import build_kgrid, integrate_k
from nmdyn.integrator import evolve
from nmdyn.interaction import (
    characteristic_density_m,
    hamiltonian,
    nonlinearity_F,
)
from nmdyn.state import FieldState, PhaseSpacePoint, phase_norm
from nmdyn.suites import run_suite


@pytest.fixture(scope="module")
def ref():
    return load_config(reference_scenario())


def scenario(grid=None, run=None, ensemble=None):
    """Reference scenario with selected sections replaced."""
    raw = reference_scenario()
    for key, val in (("grid", grid), ("run", run), ("ensemble", ensemble)):
        if val is not None:
            raw[key] = val
    return load_config(raw)


def test_01_transverse_frame_is_orthonormal(ref):
    outcome = run_suite("gauge", ref)
    assert outcome.passed, "\n" + outcome.table()


def test_02_quadrature_reproduces_radial_closed_forms():
    # closed forms of the three radial integrals over R^3:
    #   int e^{-2|k|^2}          = (pi/2)^{3/2}
    #   int e^{-2|k|^2}/|k|^2    = 2 pi sqrt(pi/2)
    #   int |k| e^{-2|k|^2}      = pi/2
    # (the K=6 truncation error is e^{-72}, far below the tolerance)
    exact = {
        "smooth": (np.pi / 2) ** 1.5,
        "inverse-square": 2.0 * np.pi * np.sqrt(np.pi / 2),
        "half-weight": np.pi / 2,
    }
    vals, errs = {}, {}
    for N in (48, 96):
        g = build_kgrid(3, 6.0, N)
        f = np.exp(-2.0 * g.absk**2)
        vals[N] = {
            "smooth": integrate_k(g, f),
            "inverse-square": integrate_k(g, f / g.absk**2),
            "half-weight": integrate_k(g, f * g.absk),
        }
        errs[N] = {k: abs(v - exact[k]) / exact[k] for k, v in vals[N].items()}
    for name in exact:
        # midpoint quadrature of the smooth integrand is superconvergent
        # and sits at the roundoff floor already, where strict decrease
        # under refinement is meaningless
        assert errs[96][name] < errs[48][name] or errs[48][name] <= 1e-12, \
            f"{name}: refinement did not reduce the error"
    for name in ("smooth", "half-weight"):
        err = errs[48][name]
        assert err <= 1e-2, f"{name}: rel err {err:.2%} at K=6, N=48"
    # plain midpoint weights are first order on the |k|^-2 singularity (the
    # documented rate): the error (17% at N=48) halves per refinement, and
    # the first-order extrapolation 2 I(96) - I(48) recovers the closed form
    name = "inverse-square"
    ratio = errs[48][name] / errs[96][name]
    assert 1.8 <= ratio <= 2.2, f"{name}: error ratio {ratio:.3f} under halving"
    extrap = 2.0 * vals[96][name] - vals[48][name]
    err = abs(extrap - exact[name]) / exact[name]
    assert err <= 1e-2, f"{name}: extrapolated rel err {err:.2%}"


def test_03_interaction_bounds_hold_on_random_draws(ref):
    outcome = run_suite("lemma-bounds", ref, draws=1000)
    assert outcome.passed, "\n" + outcome.table()


def test_04_both_schemes_converge_at_design_order():
    cfg = scenario(grid={"d": 3, "K": 2.0, "N": 12},
                   run={"T": 1.0, "dt": 0.01})
    outcome = run_suite("duhamel-order", cfg)
    # each scheme's error ratio under dt halving sits in the 2^p +/- 20%
    # window of its own design order: strang (p=2) at ~4.20 within
    # [3.2, 4.8], the interaction-picture RK4 (p=4) at ~16.1 within
    # [12.8, 19.2]
    assert outcome.passed, "\n" + outcome.table()


def test_05_energy_conservation_on_reference_run(ref):
    drifts = {}
    for dt in (2e-3, 1e-3):
        traj = evolve(ref.point, 10.0, dt, ref.spec, ref.pot,
                      scheme="strang", store_every=10**9)
        h = traj.energies
        drifts[dt] = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    assert drifts[1e-3] <= 1e-6, f"relative drift {drifts[1e-3]:.3e}"
    ratio = drifts[2e-3] / drifts[1e-3]
    assert 3.2 <= ratio <= 4.8, f"drift ratio {ratio:.3f} under dt halving"


def test_06_strang_round_trip_returns_initial_state():
    cfg = scenario(grid={"d": 3, "K": 2.0, "N": 12})
    args = (cfg.spec, cfg.pot)
    fwd = evolve(cfg.point, 1.0, 1e-3, *args, scheme="strang", store_every=10**9)
    back = evolve(fwd.endpoint(), -1.0, -1e-3, *args, scheme="strang", store_every=10**9)
    rel = phase_norm(back.endpoint() - cfg.point, 0.0) / \
        phase_norm(cfg.point, 0.0)
    assert rel <= 1e-8, f"relative return distance {rel:.3e}"


def test_07_perturbation_growth_stays_inside_fitted_envelope(ref):
    outcome = run_suite("gronwall", ref)
    assert outcome.passed, "\n" + outcome.table()


def test_08_characteristic_equation_residuals():
    cfg = scenario(grid={"d": 3, "K": 1.5, "N": 8},
                   run={"T": 0.4, "dt": 0.01, "snapshot_every": 1},
                   ensemble={"M": 256, "seed": 2026})
    outcome = run_suite("characteristic", cfg)
    assert outcome.passed, "\n" + outcome.table()


def test_09_density_pairing_identity(ref):
    outcome = run_suite("mvfi-identity", ref, draws=100)
    assert outcome.passed, "\n" + outcome.table()


def test_10_fourth_moments_stay_inside_certificates():
    cfg = scenario(grid={"d": 3, "K": 2.0, "N": 10},
                   run={"T": 5.0, "dt": 0.02, "snapshot_every": 5},
                   ensemble={"M": 64, "seed": 2026})
    outcome = run_suite("moments", cfg)
    assert outcome.passed, "\n" + outcome.table()


def test_11_polarization_frame_choice_is_invisible():
    cfg = scenario(grid={"d": 3, "K": 2.0, "N": 12})
    grid, basis, spec, pot = cfg.grid, cfg.basis, cfg.spec, cfg.pot
    u = cfg.point
    rng = np.random.default_rng(7)
    xi = random_point(rng, grid, n=spec.masses.size, scale=0.3)
    basis_rot, u_alpha_rot, q_mat = rotate_frame(rng, grid, basis, u.alpha)

    def co(alpha):
        return np.einsum("jlm,lj->mj", q_mat, alpha)

    u_rot = PhaseSpacePoint(u.particles, FieldState(grid, u_alpha_rot))
    xi_rot = PhaseSpacePoint(xi.particles, FieldState(grid, co(xi.alpha)))
    a1_all, _ = coupling(u.q, u.alpha, spec, grid, basis)
    a2_all, _ = coupling(u.q, u_rot.alpha, spec, grid, basis_rot)
    for i, (a1, a2) in enumerate(zip(a1_all, a2_all)):
        rel = np.max(np.abs(a1 - a2)) / np.max(np.abs(a1))
        assert rel <= 1e-12, f"vector potential {i}: rel change {rel:.2e}"

    h1 = hamiltonian(u, spec, pot, grid, basis)
    h2 = hamiltonian(u_rot, spec, pot, grid, basis_rot)
    assert abs(h1 - h2) / abs(h1) <= 1e-12

    f1 = nonlinearity_F(u, spec, pot, grid, basis)
    f2 = nonlinearity_F(u_rot, spec, pot, grid, basis_rot)
    # the field block of F is expressed in the active frame, so the
    # unrotated result must co-rotate before comparing
    f1_rot = PhaseSpacePoint(f1.particles, FieldState(grid, co(f1.alpha)))
    rel = phase_norm(f2 - f1_rot, 0.0) / phase_norm(f1, 0.0)
    assert rel <= 1e-12, f"vector field: rel change {rel:.2e}"

    m1 = characteristic_density_m(0.7, xi, u, spec, pot, grid, basis)
    m2 = characteristic_density_m(0.7, xi_rot, u_rot, spec, pot, grid,
                                  basis_rot)
    assert abs(m1 - m2) / abs(m1) <= 1e-12, f"density: {m1} vs {m2}"


def test_12_ensemble_outputs_byte_identical_across_worker_counts(tmp_path):
    import json

    raw = reference_scenario()
    raw["grid"] = {"d": 3, "K": 2.0, "N": 10}
    raw["run"] = {"T": 0.2, "dt": 0.01, "snapshot_every": 5}
    raw["ensemble"] = {"M": 16, "seed": 2026}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(raw))
    one, eight = tmp_path / "w1", tmp_path / "w8"
    assert main(["ensemble", str(config), "--out", str(one),
                 "--threads", "1"]) == 0
    assert main(["ensemble", str(config), "--out", str(eight),
                 "--threads", "8"]) == 0
    for name in ("ensemble.csv", "reports.json"):
        assert (one / name).read_bytes() == (eight / name).read_bytes(), \
            f"{name} differs between 1 and 8 workers"
